"""Brute-force ground truth for the series machinery.

Every function here counts or enumerates directly, without series
inversion or any shortcut shared with the main pipeline, so a bug in the
fast path cannot hide: partition counts come from part-by-part dynamic
programs that only ever add, and the product/lattice/bilateral oracles
evaluate their defining sums literally. It imports nothing from the
package and returns plain integer lists over Z.
"""

from __future__ import annotations

from math import isqrt


def count_partitions(bound: int) -> list[int]:
    """p(0), ..., p(bound-1) by the classic parts dynamic program."""
    if bound < 1:
        raise ValueError("bound must be positive")
    table = [0] * bound
    table[0] = 1
    for part in range(1, bound):
        for n in range(part, bound):
            table[n] += table[n - part]
    return table


def count_regular(ell: int, bound: int) -> list[int]:
    """b_ell(0), ..., b_ell(bound-1): partitions with no part divisible by ell."""
    if ell <= 1:
        raise ValueError(f"regularity index must exceed 1, got {ell}")
    if bound < 1:
        raise ValueError("bound must be positive")
    table = [0] * bound
    table[0] = 1
    for part in range(1, bound):
        if part % ell == 0:
            continue
        for n in range(part, bound):
            table[n] += table[n - part]
    return table


def count_bipartitions(s: int, t: int, bound: int) -> list[int]:
    """B_{s,t}(0), ..., B_{s,t}(bound-1) as the convolution of two
    regular-partition counts."""
    bs = count_regular(s, bound)
    bt = count_regular(t, bound)
    return [sum(bs[k] * bt[n - k] for k in range(n + 1)) for n in range(bound)]


def naive_euler(k: int, bound: int) -> list[int]:
    """(q^k;q^k)_inf by literally multiplying out the factors (1 - q^{mk})."""
    if k < 1:
        raise ValueError(f"Euler product index must be positive, got {k}")
    if bound < 1:
        raise ValueError("bound must be positive")
    coeffs = [0] * bound
    coeffs[0] = 1
    m = 1
    while m * k < bound:
        step = m * k
        for n in range(bound - 1, step - 1, -1):
            coeffs[n] -= coeffs[n - step]
        m += 1
    return coeffs


def lattice_a(bound: int) -> list[int]:
    """Coefficients of the cubic theta by exhaustive lattice enumeration."""
    if bound < 1:
        raise ValueError("bound must be positive")
    box = isqrt(2 * bound) + 2  # generous: the form is >= 3*max^2/4
    counts = [0] * bound
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            e = m * m + m * n + n * n
            if e < bound:
                counts[e] += 1
    return counts


def divisor_count_difference(n: int) -> int:
    """d_{1,3}(n) - d_{2,3}(n): divisors of n congruent to 1 minus 2 mod 3."""
    if n < 1:
        raise ValueError("n must be positive")
    diff = 0
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        for e in {d, n // d}:
            if e % 3 == 1:
                diff += 1
            elif e % 3 == 2:
                diff -= 1
    return diff


def bilateral_theta(a: int, b: int, bound: int) -> list[int]:
    """f(-q^a,-q^b) by summing the bilateral series over a wide index range."""
    if a < 1 or b < 1:
        raise ValueError("theta exponents must be positive")
    if bound < 1:
        raise ValueError("bound must be positive")
    coeffs = [0] * bound
    rng = isqrt(2 * bound) + 2  # exponent grows at least like n(n-1)/2
    for n in range(-rng, rng + 1):
        e = a * n * (n + 1) // 2 + b * n * (n - 1) // 2
        if 0 <= e < bound:
            coeffs[e] += -1 if n & 1 else 1
    return coeffs

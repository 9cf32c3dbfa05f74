"""Constructors for the named q-series of the partition-congruence toolkit.

Everything here is built from three primitive expansions:

* the Ramanujan theta f(-q^a, -q^b), expanded as a bilateral sum over
  triangular-number exponents; the Euler product f_k = (q^k;q^k)_inf is
  the theta f(-q^k, -q^{2k}) (the pentagonal number theorem);
* the cube f_k^3, expanded by Jacobi's identity;
* the cubic theta a(q) = sum over the triangular lattice of
  q^(m^2 + m*n + n^2).

Every product and quotient of Euler products and thetas, named or
parsed, is evaluated by one planner, :func:`eta_quotient`.

Note on conventions: the one-argument "f(-q^k)" that appears alongside
two-argument thetas denotes the Euler product (q^k;q^k)_inf, produced
by :func:`euler_f`; it equals the two-argument f(-q^k, -q^{2k}) of
:func:`ramanujan_theta`, which is how :func:`euler_f` expands it.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import groupby
from math import gcd, isqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .series import (EXACT, CoefficientRing, TruncatedSeries, _quotient_packed,
                     recurrences_win)


def check_key(key: int | tuple[int, int],
              name: str = "Euler product index") -> None:
    """The one key check: the builders' ValueError for a or b of theta
    (a, b), or the k of f_k, f_k^3 or a(q^k) ("argument power"), below 1."""
    if isinstance(key, tuple):
        if min(key) < 1:
            raise ValueError(f"theta exponents must be positive, got {key}")
    elif key < 1:
        raise ValueError(f"{name} must be positive, got {key}")


def _of_terms(terms: Iterable[tuple[int, int]], order: int,
              ring: CoefficientRing) -> TruncatedSeries:
    """The series sum v q^e over the (e, v) terms, all e below order, as
    residues: a repeated e adds its values first; no zero is reduced."""
    if order < 1:
        raise ValueError("order must be positive")
    coeffs = [0] * order
    m = ring.modulus
    for e, v in terms:
        coeffs[e] = (coeffs[e] + v) % m if m else coeffs[e] + v
    return TruncatedSeries._of_residues(ring, coeffs)


def _theta_terms(a: int, b: int, order: int) -> Iterator[tuple[int, int]]:
    """The terms (-1)^n q^(a n(n+1)/2 + b n(n-1)/2) of f(-q^a, -q^b) below
    order, over all integers n, whose exponents are at least min(a, b) n^2."""
    top = isqrt((order - 1) // min(a, b))
    for n in range(-top, top + 1):
        e = a * n * (n + 1) // 2 + b * n * (n - 1) // 2
        if e < order:
            yield e, -1 if n & 1 else 1


def _cube_terms(k: int, order: int) -> Iterator[tuple[int, int]]:
    """The terms (-1)^n (2n+1) q^(k n(n+1)/2) of f_k^3 below order."""
    for n in range(isqrt(2 * order // k) + 1):
        e = k * n * (n + 1) // 2
        if e < order:
            yield e, -(2 * n + 1) if n & 1 else 2 * n + 1


def _lattice_terms(k: int, order: int) -> Iterator[tuple[int, int]]:
    """The terms of a(q^k) = 1 + 6 sum_{m>=1, n>=0} q^(k(m^2+mn+n^2)) below
    order: the six lattice rotations fix m^2+mn+n^2 and tile Z^2 - {0}."""
    top = (order - 1) // k
    yield 0, 1
    for m in range(1, isqrt(top) + 1):
        n = 0
        while (e := m * m + m * n + n * n) <= top:
            yield k * e, 6
            n += 1


def euler_f(k: int, order: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """The Euler product f_k = prod_{m>=1} (1 - q^{m*k}), truncated.

    It is the theta f(-q^k, -q^{2k}) (Entry 22 of Berndt's *Ramanujan's
    Notebooks* III, the pentagonal number theorem): the exponents are
    k*j*(3j-1)/2 for all integers j, with sign (-1)^j.
    """
    check_key(k)
    return _of_terms(_theta_terms(k, 2 * k, order), order, ring)


def euler_cube(k: int, order: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """The cube f_k^3, truncated, by Jacobi's identity:

    f_k^3 = sum_{n>=0} (-1)^n (2n+1) q^{k n(n+1)/2}.

    About sqrt(2N/k) nonzero terms, fewer than f_k itself has.
    """
    check_key(k)
    return _of_terms(_cube_terms(k, order), order, ring)


def pk_series(k: int, order: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """The k-th power f_1^k; k = -1 gives the partition numbers p(n)."""
    if k == 0:
        raise ValueError("power index must be nonzero")
    return eta_quotient({1: k}, order, ring)


def ramanujan_theta(spec: tuple[int, int], order: int,
                    ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """The theta series f(-q^a, -q^b) = sum_n (-1)^n q^{a n(n+1)/2 + b n(n-1)/2},
    the sum over all integers n, truncated."""
    check_key(tuple(spec))
    return _of_terms(_theta_terms(*spec, order), order, ring)


# The septic quotients A, B, C are f(-q^a, -q^b) / f_2 for these (a, b).
SEPTIC_THETA = {"A": (3, 4), "B": (2, 5), "C": (1, 6)}


def septic_ABC(order: int, ring: CoefficientRing = EXACT
               ) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """The three theta quotients driving the 7-dissection of f_1:

    A = f(-q^3,-q^4)/f(-q^2),  B = f(-q^2,-q^5)/f(-q^2),
    C = f(-q,-q^6)/f(-q^2).

    All three have constant term 1.
    """
    a, b, c = (eta_quotient({spec: 1, 2: -1}, order, ring)
               for spec in SEPTIC_THETA.values())
    return a, b, c


def borwein_a(k: int, order: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """The cubic theta a(q^k) = sum_{m,n} q^{k(m^2+mn+n^2)}, truncated."""
    check_key(k, "argument power")
    return _of_terms(_lattice_terms(k, order), order, ring)


def regular_series(ell: int, order: int,
                   ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Generating function of ell-regular partitions: f_ell / f_1."""
    if ell <= 1:
        raise ValueError(f"regularity index must exceed 1, got {ell}")
    return eta_quotient({ell: 1, 1: -1}, order, ring)


def bipartition_series(s: int, t: int, order: int,
                       ring: CoefficientRing = EXACT, step: int = 1,
                       residue: int = 0) -> TruncatedSeries:
    """Generating function of (s,t)-regular bipartitions: f_s f_t / f_1^2,
    or its coefficients residue, residue + step, ... below order.

    Coefficient n counts pairs (lambda, mu) with |lambda| + |mu| = n,
    lambda s-regular and mu t-regular.
    """
    if s <= 1 or t <= 1:
        raise ValueError(f"regularity indices must exceed 1, got ({s}, {t})")
    return eta_quotient({**Counter((s, t)), 1: -2}, order, ring, (), step,
                        residue)


def _terms(atom: Callable, key: int | tuple[int, int], order: int) -> int:
    """About how many nonzero terms the atom has below order.

    Its exponents grow quadratically, so about sqrt(8 * order / s), with
    s = 3k for f_k, 4k for the cube f_k^3 and a + b for f(-q^a, -q^b).
    """
    s = (sum(key) if atom is ramanujan_theta
         else (3 if atom is euler_f else 4) * key)
    return isqrt(8 * order // max(s, 1))


def _partition_bits(colours: int, m: int) -> int:
    """A bit count b with p_a(m) < 2**b, a = colours, for the partitions
    of m into parts of a colours: p_a(m) < e^(pi sqrt(2am/3)) (Apostol,
    *Introduction to Analytic Number Theory*, Thm 14.5, whose proof
    holds for a colours), and e^(pi sqrt(2am/3)) = 2^sqrt(c*a*m) with
    c = (pi / ln 2)^2 * 2/3 < 13.7, so no float enters."""
    return isqrt(137 * colours * m // 10) + 1


def _divide_packed(num: TruncatedSeries, divisors: list,
                   k: int) -> TruncatedSeries:
    """num / prod of the divisors over Z, as (constructor, key, count)
    of :func:`_plan`, every one a series in q^k: all divided out in one
    packing of the classes mod k (:func:`series._quotient_packed`), each
    D(q^k) built as D, its key divided by k, at order ceil(N / k).

    By the triple product f(-q^a, -q^b) = (q^a, q^b, q^(a+b); q^(a+b))_inf,
    1/f_1 and 1/theta(a, b) with a != b are products of 1/(1 - q^j) over
    distinct j, and 1/theta(a, a) has each j at most twice: so 1/D is at
    most p_A coefficient by coefficient, where the divisors' colours A
    count 1 per f_k and per theta with a != b, 2 per theta(a, a) and 3
    per cube.
    A quotient coefficient is then at most sum(|num|) * p_A(M) in size,
    M = ceil(N / k) - 1, which fixes the slots: its bits, those of
    :func:`_partition_bits`, a sign bit and one to spare.
    """
    n = num.order
    dens: list = []
    colours = 0
    for atom, key, count in divisors:
        inner = (key[0] // k, key[1] // k) if isinstance(key, tuple) else 1
        dens += [atom(inner, -(-n // k)).coeffs] * count
        colours += count * (3 if atom is euler_cube
                            else 2 if atom is ramanujan_theta
                            and key[0] == key[1] else 1)
    bits = (sum(map(abs, num.coeffs)).bit_length()
            + _partition_bits(colours, -(-n // k) - 1) + 2)
    return TruncatedSeries._of_residues(
        EXACT, _quotient_packed(num.coeffs, dens, k, n, bits))


def eta_quotient(exponents: Mapping[int | tuple[int, int], int], order: int,
                 ring: CoefficientRing = EXACT,
                 factors: Sequence[TruncatedSeries] = (), step: int = 1,
                 residue: int = 0) -> TruncatedSeries:
    """prod(factors) * prod f_k^e * prod f(-q^a, -q^b)^e, truncated, or
    its coefficients residue, residue + step, ... below order: the same
    series, with the same errors, as .extract(step, residue) of it.

    ``exponents`` maps k to the signed exponent of the Euler product f_k
    and (a, b) to that of the theta f(-q^a, -q^b); ``factors`` are more
    numerator series, each known at least to ``order``.  A key below 1,
    or a theta exponent below 1, with a nonzero exponent raises its
    builder's ValueError (:func:`check_key`).

    Over Z/p with p prime, f_pk = f_k^p (mod p), since (1 - x)^p =
    1 - x^p there, and a positive power costs multiplications where a
    negative one costs quotient recurrences.  So, visiting k in
    ascending order, every f_k^-e (e > 0) becomes f_k^(c*p - e) *
    f_pk^-c with c = ceil(e / p).  f_pk^-c joins f_pk's own exponent
    when the record has one, which is visited in turn (f_11 f_1^-2 is
    f_1^9 mod 11); otherwise it is (f_1^-c)(q^pk), with f_1^-c planned
    by this function at order ceil(order / pk), where the same rule
    applies again, and multiplied in class by class
    (:meth:`TruncatedSeries.mul`); from pk >= order on it is 1 and
    dropped.  So no Euler product is divided out over Z/p:
    B_{2,15} = f_2 f_15 / f_1^2 becomes f_2 f_15 f_1^3 (1/f_1)(q^5) mod
    5, and 1/f_1 at order N is f_1^4 (1/f_1)(q^5) at order N/5, and so
    on down.  For composite m the congruence fails (mod 4, f_1^4 = 1 +
    2q^2 + ... while f_4 = 1 - q^4 + ...; mod 9, f_1^9 and f_9 differ
    at q^3), so then nothing is rewritten.

    The positive part is multiplied into the running product one factor
    at a time, sparsest first (``factors`` included): f_k^e as e // 3
    Jacobi cubes f_k^3 (:func:`euler_cube`), which are sparser than f_k,
    and f_k^(e % 3).  The negative part is divided out one lacunary
    factor D at a time, c quotient recurrences for D^-c, or past the
    rule of ``**`` (:func:`series.recurrences_win`) the numerator
    factor D ** -c: f_k^-e is cube^-(e // 3), then f_k^-1 when
    e % 3 == 1, or one more cube over one more f_k when e % 3 == 2.
    Every divisor has constant term 1, so each quotient is the unique
    one: the result is the same series, to the same order, as the whole
    quotient, in Z and in every Z/m.

    Over Z the divisors that are series in q^k for one k >= 2 (f_k, its
    cube, and f(-q^a, -q^b) with gcd(a, b) = k) are divided out first,
    together: each class mod k is one slot of packed big ints, so every
    step of the recurrence divides k coefficients at order ceil(N / k)
    (:func:`_divide_packed`).  That is exact when the slots hold the
    numerator and the quotient, which a proven bound ensures: 1/D is at
    most the count of partitions into parts of A colours, p_A(n) <
    e^(pi sqrt(2An/3)).  In Z/m, and for k = 1, each division runs on
    its own at the whole order.

    For one class, after the rewrites, the atoms whose keys step
    divides are series in q^step, which commute with extraction: they
    are planned at the class's order with their keys divided by step,
    and times the class of the rest.  In the rest only the last product
    is restricted to the class: the one by its last substituted f_pk^-c,
    or else, after the divisions, the one by its densest numerator
    factor, held back until then (:meth:`TruncatedSeries.mul`).
    """
    p = ring.modulus
    exponents = dict(exponents)
    for key, e in exponents.items():
        if e:  # before the rewrites, which can cancel a bad key's exponent
            check_key(key)
    euler = sorted(k for k in exponents if not isinstance(k, tuple))
    subs: dict[int, int] = {}  # j: c, for f_j^-c = (f_1^-c)(q^j)
    if (p and any(exponents[k] < 0 for k in euler)
            and all(p % d for d in range(2, isqrt(p) + 1))):
        for k in euler:
            # f_k^-e = f_k^(cp - e) / f_pk^c, c = ceil(e / p); f_pk^-c
            # joins f_pk's own exponent, or is substituted
            e = exponents[k]
            if e < 0:
                c = -(e // p)
                exponents[k] = e + c * p
                if p * k in exponents:
                    exponents[p * k] -= c
                else:
                    subs[p * k] = c
        exponents = {key: e for key, e in exponents.items() if e}
    if step == 1:
        return _plan(exponents, order, ring, factors, subs=subs)
    outer: dict = {}
    for key in list(exponents):
        if isinstance(key, tuple):
            if not (key[0] % step or key[1] % step):
                outer[key[0] // step, key[1] // step] = exponents.pop(key)
        elif not key % step:
            outer[key // step] = exponents.pop(key)
    part = _plan(exponents, order, ring, factors, step, residue, subs)
    return _plan(outer, part.order, ring, (part,)) if outer else part


def _plan(exponents: Mapping, order: int, ring: CoefficientRing,
          factors: Sequence[TruncatedSeries], step: int = 1,
          residue: int = 0, subs: Mapping[int, int] = {}) -> TruncatedSeries:
    """The series of :func:`eta_quotient`, after its rewrites, as
    planned there, times f_j^-c = (f_1^-c)(q^j) for each j: c of subs.
    For one class the last product is restricted to the class: the one
    by the last f_j^-c, or else by the densest numerator factor, held
    back until after the divisions."""
    # (nonzero terms, builder, power) of each numerator factor, and
    # (constructor, key, count) of each divisor; each series is built
    # only when used, so few are held besides the running result.
    num: list[tuple[int, Callable, int]] = [
        (order - f.coeffs[:order].count(0), partial(f.truncate, order), 1)
        for f in factors]
    den: list[tuple[Callable, int | tuple[int, int], int]] = []

    def numerator(atom: Callable, key, power: int, count: int = 1) -> None:
        num.extend([(_terms(atom, key, order),
                     partial(atom, key, order, ring), power)] * count)

    def divisor(atom: Callable, key, count: int) -> None:
        if recurrences_win(count, _terms(atom, key, order), order):
            den.append((atom, key, count))
        else:  # by the route of __pow__, in about log2(count) products
            numerator(atom, key, -count)

    for key, e in exponents.items():
        if isinstance(key, tuple):
            if e > 0:
                numerator(ramanujan_theta, key, e)
            elif e < 0:
                divisor(ramanujan_theta, key, -e)
        elif e > 0:
            # c cubes one at a time take c products, each with a sparse
            # factor; the power cube^c takes about as many dense ones as
            # c has bits and one bits, so it is used only past that
            cubes = e // 3
            if cubes <= cubes.bit_length() + bin(cubes).count("1"):
                numerator(euler_cube, key, 1, cubes)
            else:
                numerator(euler_cube, key, cubes)
            if e % 3:
                numerator(euler_f, key, e % 3)
        elif e < 0:
            cubes, rest = divmod(-e, 3)
            if rest == 2:  # f_k^-2 = f_k / f_k^3
                numerator(euler_f, key, 1)
                cubes += 1
            elif rest:
                divisor(euler_f, key, 1)
            if cubes:
                divisor(euler_cube, key, cubes)
    num.sort(key=itemgetter(0))
    # f_j^-c is 1 to the order from j >= order on
    substituted = [(j, c) for j, c in subs.items() if j < order]
    last = num.pop() if step > 1 and num and not substituted else None
    result = held = None
    for build, group in groupby(num, itemgetter(1)):
        series = build()
        for _, _, power in group:
            f = series ** power
            result = f if result is None else result * f
        if last is not None and build is last[1]:
            held = series  # the held-back factor is this atom too
        del series, f  # free this atom before the next one is built
    if result is None:
        result = TruncatedSeries.one(ring, order)
    # Over Z the divisors in q^k, k >= 2 (gcd(a, b) for a theta), are
    # divided out together, one k at a time, on packed classes; the
    # rest one at a time.  Divisions commute: the packed ones go first,
    # as their slots are sized by the numerator, which the others grow.
    by_k: dict[int, list] = {}
    for atom, key, count in den:
        k = (1 if ring.modulus else gcd(*key) if atom is ramanujan_theta
             else key)
        by_k.setdefault(k, []).append((atom, key, count))
    for k in sorted(by_k, reverse=True):
        if k > 1:
            result = _divide_packed(result, by_k[k], k)
            continue
        for atom, key, count in by_k[k]:
            divisor = atom(key, order, ring)
            for _ in range(count):
                result = result.divide(divisor)
    for i, (j, c) in enumerate(substituted, 1):
        inner = eta_quotient({1: -c}, -(-order // j), ring)
        result = result.mul(
            inner, j, *((step, residue) if i == len(substituted) else (1, 0)))
    if step == 1 or substituted:
        return result
    if last is None:
        return result.extract(step, residue)
    _, build, power = last
    factor = held if held is not None else build()
    return result.mul(factor ** power, 1, step, residue)

"""Truncated formal power series in one variable q.

A :class:`TruncatedSeries` is a finite prefix c_0 .. c_{N-1} of a formal
power series, together with the coefficient ring the entries live in:
exact arbitrary-precision integers, or residues modulo m.  The order N
means the series is known modulo q^N; every operation propagates the
order it can actually guarantee, so downstream equality checks always
know how far they are valid.

All values are immutable after construction and every operation is a
pure function, so series can be shared freely between threads.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, chain, compress, repeat
from math import gcd
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Sequence


class SeriesError(Exception):
    """Base class for arithmetic errors on truncated series."""


class RingMismatchError(SeriesError):
    """Operands live in different coefficient rings."""


class NonUnitError(SeriesError):
    """A coefficient that must be a unit (for inversion/division) is not."""


class ValuationError(SeriesError):
    """A q-valuation precondition failed, or no known coefficients remain."""


class Record:
    """An immutable record whose fields are its class's own ``__slots__``.

    A record is built by position or keyword; a field left out takes
    its value from the class's ``_defaults``.  Assigning a field raises
    AttributeError.  Two records are equal when they have the same type
    and equal fields (``_values()``), equal records hash equal, and
    ``replace(**changes)`` is a copy with some fields changed.  No code
    is generated: a class on a hot path writes its own ``__init__``,
    ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults."""
        names, title = cls.__slots__, cls.__name__
        if len(args) > len(names):
            raise TypeError(f"{title}() takes at most {len(names)} "
                            f"arguments ({len(args)} given)")
        values = {**cls._defaults, **dict(zip(names, args))}
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in names[:len(args)]:
                raise TypeError(f"{title}() got multiple values for "
                                f"argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{title}() missing arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[name] for name in names]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of "
                             f"{type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of "
                             f"{type(self).__name__}")

    def _values(self) -> tuple:
        """The fields compared, hashed and shown, in order."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)


class CoefficientRing(Record):
    """Coefficient domain: exact integers (modulus 0) or Z/m with m >= 2."""

    __slots__ = ("modulus",)

    # Written out: rings are compared and hashed in every series
    # operation and memo lookup.
    def __init__(self, modulus: int = 0) -> None:
        if modulus < 0 or modulus == 1:
            raise ValueError(f"modulus must be 0 or >= 2, got {modulus}")
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other: object) -> bool:
        if type(other) is not CoefficientRing:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def is_unit(self, v: int) -> bool:
        if self.modulus == 0:
            return v in (1, -1)
        return gcd(v, self.modulus) == 1

    def inverse(self, v: int) -> int:
        if self.modulus == 0:
            if v in (1, -1):
                return v
            raise NonUnitError(f"{v} is not invertible over the integers")
        try:
            return pow(v, -1, self.modulus)
        except ValueError:
            raise NonUnitError(
                f"{v} is not invertible modulo {self.modulus}"
            ) from None

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


EXACT = CoefficientRing(0)


def mod_ring(m: int) -> CoefficientRing:
    """The residue ring Z/m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return CoefficientRing(m)


# --- multiplication kernel ------------------------------------------------
#
# Every product of two series goes through _mul_coeffs, which picks one of
# three exact paths per call from a cost estimate:
#
# * the sparse loop convolves the nonzero terms, which is cheap when both
#   factors are lacunary (Euler products, monomials);
# * Kronecker substitution packs each coefficient vector into one Python
#   int, with one slot per coefficient wide enough to hold any coefficient
#   of the product, does one big-int multiplication and unpacks the slots;
#   it suits two dense factors;
# * the shift path packs only the denser factor, into the same slots, and
#   adds one shifted copy of it per nonzero term of the sparser one: a
#   lacunary factor times a dense one, where Karatsuba would multiply
#   every zero slot.
#
# All paths compute the same exact integer sums, so the results are
# bit-identical.  The constants below are nanoseconds, measured once with
# CPython 3.11 on an x86-64 Xeon; only their ratios matter.

_PAIR_NS = 130          # one multiply-add of the sparse loop, plus ...
_PAIR_DIGIT_NS = 7      # ... this per 30-bit digit of the two factors
_TERM_NS = 120          # one nonzero term of the denser factor, streamed
_ARRAY_SLOT_NS = 40     # packing or unpacking one coefficient via array
_BYTES_SLOT_NS = 270    # the same via bytes (slots wider than 8 bytes)
_KARATSUBA_NS = 10      # times D**1.585 for a product of two D-digit ints
_SHIFT_NS = 300         # one nonzero term of the sparser factor, shifted ...
_SHIFT_BYTE_NS = 0.8    # ... plus this per byte of the packed denser one
_KEEP_NS = 125          # a product's cost outside its kernel, per kept
                        # coefficient (see _mul_costs)

# array type codes by item size in bytes; item values are little-endian
# in the packed ints, so big-endian hosts swap them.
_UNSIGNED = {array(code).itemsize: code for code in "BHIQ"}
_SIGNED = {array(code).itemsize: code for code in "bhiq"}
_SWAP = sys.byteorder == "big"


def _height(c: Sequence[int], m: int) -> int:
    """Largest absolute coefficient; a residue mod m is at most m - 1."""
    return m - 1 if m else max(max(c), -min(c))


def _slot_bytes(bound: int, signed: bool) -> int:
    """Slot width that holds every value of absolute value <= bound (and
    its sign): an array item size when one fits, else the byte count."""
    w = (bound.bit_length() + signed + 7) // 8
    return min((size for size in _UNSIGNED if size >= w), default=w)


def _mul_costs(nza: int, nzb: int, n: int, ha: int, hb: int,
               m: int, size: int | None = None) -> dict[Callable, float]:
    """Estimated nanoseconds of each exact path for factors with
    nza <= nzb nonzero terms of height ha and hb, when size of the n
    product coefficients are kept (all of them by default): only the
    shift path computes no more than those.

    Every path also pays the product's cost outside the kernel: the
    call, reading the factors, and reducing and storing each kept
    coefficient.  It leaves the choice of path as it is, but a chain of
    products pays it once per product, which __pow__ weighs.  It is the
    median, over chains of products at orders 100 to 20,000 in Z, Z/11,
    Z/13 and Z/17, of their wall time less the time inside the kernels,
    per product and kept coefficient.
    """
    size = n if size is None else size
    digits = (ha.bit_length() + hb.bit_length()) // 30
    w = _slot_bytes(nza * ha * hb, not m)
    slot = _ARRAY_SLOT_NS if w in _UNSIGNED else _BYTES_SLOT_NS
    keep = _KEEP_NS * size
    return {
        _mul_sparse: (nza * nzb * (_PAIR_NS + _PAIR_DIGIT_NS * digits) / 2
                      + nzb * _TERM_NS + keep),
        _mul_kronecker: (3 * n * slot + keep
                         + _KARATSUBA_NS * (n * w * 8 / 30 + 1) ** 1.585),
        _mul_shift: ((n + size) * slot + keep
                     + nza * (_SHIFT_NS + _SHIFT_BYTE_NS * size * w)),
    }


def _mul_coeffs(a: Sequence[int], b: Sequence[int], n: int, m: int,
                step: int = 1, residue: int = 0) -> Sequence[int]:
    """Coefficients residue, residue + step, ... below n of a*b (the n
    low ones by default), not yet reduced mod m (0: exact).

    a and b hold n coefficients each; residues mod m lie in [0, m).
    The shift path computes only that class; the others compute every
    coefficient and keep the class.
    """
    size = (n - residue + step - 1) // step
    nza = n - a.count(0)
    nzb = n - b.count(0)
    if nzb < nza:
        a, b, nza, nzb = b, a, nzb, nza
    if not nza:
        return [0] * size
    ha = _height(a, m)
    hb = ha if b is a else _height(b, m)
    costs = _mul_costs(nza, nzb, n, ha, hb, m, size)
    path = min(costs, key=costs.get)
    # Each product coefficient sums at most nza products of height ha*hb:
    # a proven bound, so no slot overflows into the next.
    w = _slot_bytes(nza * ha * hb, not m)
    if path is _mul_shift:
        return _mul_shift(a, b, n, w, not m, step, residue)
    if path is _mul_kronecker:
        c = _mul_kronecker(a, b, n, w, not m)
    else:
        c = _square_sparse(a, n) if b is a else _mul_sparse(a, b, n)
    return c[residue::step] if step > 1 else c


def _mul_sparse(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Convolution over nonzero terms; a should be the sparser factor.

    Only a's nonzero terms are listed; b's are streamed once.
    """
    small = list(zip(compress(range(n), a), filter(None, a)))
    res = [0] * n
    for j, w in zip(compress(range(n), b), filter(None, b)):
        lim = n - j
        for i, v in small:
            if i >= lim:
                break
            res[i + j] += v * w
    return res


def _square_sparse(a: Sequence[int], n: int) -> list[int]:
    """The n low coefficients of a*a over nonzero terms, each pair of
    terms once: a_i*a_j for i < j is added doubled, as the square's
    coefficient i + j holds it twice."""
    terms = list(zip(compress(range(n), a), filter(None, a)))
    at = [i for i, _ in terms]
    res = [0] * n
    for x, (i, v) in enumerate(terms):
        end = bisect_left(at, n - i)  # the terms j with i + j < n
        if end <= x:
            break
        res[2 * i] += v * v
        v += v
        for j, w in terms[x + 1:end]:
            res[i + j] += v * w
    return res


def _mul_kronecker(a: Sequence[int], b: Sequence[int], n: int, w: int,
                   signed: bool) -> Sequence[int]:
    """The n low coefficients of a*b by Kronecker substitution.

    Each factor becomes sum(c_i * 2**(8*w*i)), one int with w-byte slots;
    w must hold every coefficient of the factors and of the product (with
    a sign bit when signed).
    """
    pa = _pack(a, w, signed)
    pb = pa if b is a else _pack(b, w, signed)
    return _unpack(pa * pb, n, w, signed)


def _mul_shift(a: Sequence[int], b: Sequence[int], n: int, w: int,
               signed: bool, step: int = 1,
               residue: int = 0) -> Sequence[int]:
    """Coefficients residue, residue + step, ... below n of a*b (the n
    low ones by default), a the sparser factor, with w as for
    _mul_kronecker (so that it also holds the sum of a's absolute
    values, which the signed case takes off): each class of b mod step
    that a term a_i reads, b[step*j + residue - i], is packed once and
    shifted to each such term.

    A class is packed in reverse, its entry k in slot size-1-k, so
    shifting it right to a_i's first coefficient of the class keeps
    exactly the entries below order n, in the slots of their product
    coefficients (also reversed): nothing past order n or outside the
    class is computed, and no int is wider than the class.  Terms of a
    with one value share one multiple of the packed class in Z/m, where
    a value times a coefficient of b still fits its slot, so no carry
    crosses the cut.  With step 1 the one class is b.
    """
    size = (n - residue + step - 1) // step
    groups: dict[int, dict[int, list[int]]] = {}
    sums = [0] * size if signed else None  # a's terms by first slot
    for i, v in zip(compress(range(n), a), filter(None, a)):
        d, c = divmod(residue - i, step)  # b's class c, from slot -d
        if -d < size:
            groups.setdefault(c, {}).setdefault(v, []).append(-8 * w * d)
            if signed:
                sums[-d] += v
    prod = 0
    for c, values in groups.items():
        top = min(size, (n - c + step - 1) // step)  # class entries known
        packed = (_pack(b[c + step * (top - 1)::-step], w, signed)
                  << 8 * w * (size - top))
        if signed:
            # A right shift truncates exactly only a nonnegative int, so
            # every slot is biased by 2**(8*w - 1); a term a_i then adds
            # a_i times the bias to the coefficients from its first slot
            # -d on, taken off below.
            packed += _biases(size, w)
        scaled = packed
        for v, shifts in values.items():
            if not signed:
                scaled = v * packed
            for t in reversed(shifts):
                prod += scaled >> t if not signed else v * (packed >> t)
        # One accumulator, freed operands: summing each value's terms
        # apart first, or unpacking with packed still alive, was up to a
        # third faster at N = 97,159 but left a registry run's resident
        # peak up to 1.5 MB higher.
        del packed, scaled
    if signed:
        prod -= _pack(list(accumulate(sums))[::-1], w, True) << 8 * w - 1
    slots = _unpack(prod, size, w, signed)
    slots.reverse()
    return slots


def _biases(n: int, w: int) -> int:
    """2**(8*w - 1) in each of n w-byte slots: the top bit of each."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _to_slots(c: Iterable[int], w: int, bias: int) -> bytearray:
    """Each c_i + bias as one w-byte little-endian slot, which it must
    fit.  Each slot's bytes are appended as they are made and then
    freed: joining them would hold all of them first."""
    values = map(add, c, repeat(bias)) if bias else c
    slots = bytearray()
    deque(map(slots.extend, map(int.to_bytes, values, repeat(w),
                                repeat("little"))), 0)
    return slots


def _from_slots(raw: bytes, w: int, bias: int) -> list[int]:
    """The inverse of :func:`_to_slots`: every w-byte slot of raw, less
    bias, read one at a time."""
    slots = map(int.from_bytes, map(itemgetter(0), struct.iter_unpack(
        f"{w}s", raw)), repeat("little"))
    return list(map(sub, slots, repeat(bias)) if bias else slots)


def _unpack(prod: int, n: int, w: int, signed: bool) -> Sequence[int]:
    """The n low w-byte slots of prod = sum(c_i * 2**(8*w*i)), exact
    when every c_i fits a slot (with its sign when signed)."""
    mask = (1 << 8 * n * w) - 1
    if signed:
        # Adding 2**(8*w - 1) to every slot makes each nonnegative and
        # below 2**(8*w): the biased slots.
        top = _biases(n, w)
        prod = (prod + top) & mask
    else:
        prod &= mask
    code = (_SIGNED if signed else _UNSIGNED).get(w)
    if code is None:
        return _from_slots(prod.to_bytes(n * w, "little"), w,
                           signed << 8 * w - 1)
    if signed:
        prod ^= top  # flipping the top bits leaves two's-complement slots
    slots = array(code)
    slots.frombytes(prod.to_bytes(n * w, "little"))
    if _SWAP:
        slots.byteswap()
    return slots


def _pack(c: Sequence[int], w: int, signed: bool) -> int:
    """sum(c_i * 2**(8*w*i)) as one int, built from w-byte little-endian
    slots (biased by 2**(8*w - 1) when signed, then unbiased)."""
    top = _biases(len(c), w) if signed else 0
    code = (_SIGNED if signed else _UNSIGNED).get(w)
    if code is None:
        return int.from_bytes(_to_slots(c, w, signed << 8 * w - 1),
                              "little") - top
    slots = array(code, c)
    if _SWAP:
        slots.byteswap()
    # Flipping a two's-complement slot's top bit maps its value c to
    # c + 2**(8*w - 1), the biased slot.
    return (int.from_bytes(slots, "little") ^ top) - top


# --- quotient recurrence ----------------------------------------------------
#
# num/den to order n is g with g[i] = (num[i] - sum_k den[k] g[i-k]) / den[0]
# over the divisor's nonzero terms (k, den[k]), k > 0: the one function
# below computes it for a unit den[0], in Z and in every Z/m.  g grows by
# one coefficient per step, so g[i - k] is g[-k]: one itemgetter over the
# offsets in range gathers every term of one sign at once, and is rebuilt
# only when a divisor term of that sign enters range.


def _pads(size: int) -> tuple[int, ...]:
    """Offsets 0, which read the gather's sentinel g[0] = 0 and so add
    nothing, to end a gather of size terms: one, so that a gather of one
    term still returns a tuple, or two where one would make it return
    exactly 20 items: CPython 3.11 keeps up to 2000 freed 20-item tuples
    (368 KB) for reuse but never reuses them, so a gather of 20 items per
    step would hold that memory to the end."""
    return (0, 0) if size == 19 else (0,)


def _quotient(num: Sequence[int], den: Sequence[int], n: int,
              ring: CoefficientRing) -> list[int]:
    """Coefficients of num/den to order n, each reduced for the ring;
    den[0] must be a unit.

    The +1 terms share one gather and the -1 terms (m - 1 in Z/m, where
    Z/2 files every term with the +1s) another, and neither sum is
    multiplied: Euler products and most thetas take no products at all.
    Every other term in range is multiplied in by a plain loop, about
    8% faster on CPython 3.11 than a C-level dot product over one more
    gather across the expand pool's 314 big-integer divisions.  g starts
    with a sentinel 0 that is no coefficient, read by the pads and by
    the two sign gathers before their first term.
    """
    c0inv = ring.inverse(den[0])  # raises NonUnitError if not a unit
    m = ring.modulus
    terms = {k: v for k, v in enumerate(den[:n]) if v and k > 0}
    g: list[int] = [0]
    offsets: dict[int, list[int]] = {1: [], m - 1: []}  # m - 1 is -1 in Z
    others: list[tuple[int, int]] = []
    plus = minus = itemgetter(0, 0)
    for i in range(n):
        v = terms.get(i)
        if v in offsets:
            ks = offsets[v]
            ks.append(-i)
            get = itemgetter(*ks, *_pads(len(ks)))
            if v == 1:
                plus = get
            else:
                minus = get
        elif v:
            others.append((-i, v))
        s = num[i]
        if plus is not minus:  # a +1 or -1 term is in range
            s += sum(minus(g)) - sum(plus(g))
        for k, c in others:
            s -= c * g[k]
        g.append(s * c0inv % m if m else s * c0inv)
    del g[0]
    return g


def _quotient_packed(num: Sequence[int], dens: Sequence[Sequence[int]],
                     k: int, n: int, bits: int) -> list[int]:
    """num / (D_1(q^k) * D_2(q^k) * ...) over Z to order n, each D given
    by its coefficients in q (constant term 1) to order ceil(n / k).

    Dividing by a series in q^k divides each class c mod k apart, by
    the same recurrence: coefficient c + k*j of num is slot c of packed
    int j, with slots of ceil(bits / 8) bytes, so one step of the
    recurrence above runs on all k classes in one big-int operation, at
    order ceil(n / k).  The recurrence is Z-linear, so the packed ints
    stay exact sums of their slots whatever the partial sums hold; only
    num's coefficients and the quotient's must fit signed slots of bits
    bits, which the caller proves.
    """
    size = -(-n // k)
    w = -(-bits // 8)
    # Biased w-byte slots read k at a time are the rows, each biased in
    # every slot, and the other way round.
    top, row_top = 1 << 8 * w - 1, _biases(k, w)
    g = _from_slots(_to_slots(chain(num, repeat(0, size * k - n)), w, top),
                    k * w, row_top)
    for den in dens:
        g = _quotient(g, den, size, EXACT)
    return _from_slots(_to_slots(g, k * w, row_top), w, top)[:n]


def recurrences_win(count: int, nnz: int, n: int) -> bool:
    """Whether count quotient recurrences by D, nnz of whose n terms are
    nonzero (counted as 1 to n), at n*nnz multiply-adds each, cost no
    more than powering D's inverse, at n*n per dense product over Z."""
    squarings = count.bit_length() + bin(count).count("1") - 2
    return (count - 1) * min(max(nnz, 1), n) <= squarings * n


def _class_size(order: int, p: int, r: int) -> int:
    """How many coefficients p*n + r lie below order; raises unless p >= 1,
    0 <= r < p and there is at least one."""
    if p < 1:
        raise ValueError(f"step must be positive, got {p}")
    if not 0 <= r < p:
        raise ValueError(f"residue must lie in [0, {p}), got {r}")
    size = (order - r + p - 1) // p
    if size < 1:
        raise ValuationError(
            f"extraction ({p},{r}) leaves no known coefficients "
            f"(order {order})")
    return size


class TruncatedSeries:
    """A power series prefix c_0 + c_1 q + ... + c_{N-1} q^{N-1} + O(q^N).

    Coefficients are plain Python ints: signed and arbitrary-precision in
    the exact ring, normalized into [0, m) in a modular ring.  The dense
    representation is deliberate; inversion makes every series dense, so
    sparse storage would buy nothing here.
    """

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs: Sequence[int]):
        if len(coeffs) < 1:
            raise ValueError("a series needs a positive truncation order")
        m = ring.modulus
        if m:
            coeffs = tuple([c % m for c in coeffs])
        else:
            coeffs = tuple(coeffs)
        self.ring = ring
        self.order = len(coeffs)
        self.coeffs = coeffs

    # --- construction helpers -------------------------------------------

    @classmethod
    def _of_residues(cls, ring: CoefficientRing,
                     coeffs: Sequence[int]) -> TruncatedSeries:
        """A series of coefficients already reduced for its ring (each in
        [0, m) for Z/m), at least one of them: __init__ without its
        reduction, for results that only move existing coefficients, for
        quotients, which the recurrence reduces, and for the atoms."""
        series = cls.__new__(cls)
        series.ring = ring
        series.coeffs = coeffs = tuple(coeffs)
        series.order = len(coeffs)
        return series

    @classmethod
    def zero(cls, ring: CoefficientRing, order: int) -> TruncatedSeries:
        if order < 1:
            raise ValueError("a series needs a positive truncation order")
        return cls._of_residues(ring, [0] * order)

    @classmethod
    def one(cls, ring: CoefficientRing, order: int) -> TruncatedSeries:
        return cls._of_residues(ring, (1,) + cls.zero(ring, order).coeffs[1:])

    # --- inspection ------------------------------------------------------

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} unknown: series is O(q^{self.order})")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None if zero to order."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def first_mismatch(self, other: TruncatedSeries) -> tuple[int, int, int] | None:
        """First index below min(order) where the two series differ.

        Returns (index, own value, other value), or None if they agree on
        the whole shared window.
        """
        self._check_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        for i in range(n):
            if a[i] != b[i]:
                return (i, a[i], b[i])
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order > 8:
            shown += ", ..."
        return f"TruncatedSeries({self.ring}, [{shown}] + O(q^{self.order}))"

    def q_string(self, max_terms: int = 10) -> str:
        """Human-readable polynomial prefix, e.g. '1 - q - q^2 + q^5 + O(q^13)'."""
        parts: list[str] = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if len(parts) >= max_terms:
                parts.append("...")
                break
            mag = abs(c)
            if n == 0:
                term = str(mag)
            elif n == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{n}" if mag == 1 else f"{mag}*q^{n}"
            sign = "-" if c < 0 else "+"
            parts.append(term if not parts else f"{sign} {term}")
            if c < 0 and len(parts) == 1:
                parts[0] = "-" + term
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order})"

    # --- ring plumbing ----------------------------------------------------

    def _check_ring(self, other: TruncatedSeries) -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine series over {self.ring} and {other.ring}")

    # --- linear operations -------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(self.ring, [a[i] + b[i] for i in range(n)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(self.ring, [a[i] - b[i] for i in range(n)])

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.ring, [-c for c in self.coeffs])

    def scalar_mul(self, c: int) -> TruncatedSeries:
        return TruncatedSeries(self.ring, [c * v for v in self.coeffs])

    def shift(self, t: int, cap: int | None = None) -> TruncatedSeries:
        """Multiply by q^t.  The order grows by t unless capped."""
        if t < 0:
            raise ValueError("shift distance must be nonnegative")
        n = self.order + t if cap is None else min(self.order + t, cap)
        if n < 1:
            raise ValuationError("shift cap leaves no known coefficients")
        zeros = min(t, n)
        return TruncatedSeries._of_residues(
            self.ring, (0,) * zeros + self.coeffs[:n - zeros])

    def truncate(self, order: int) -> TruncatedSeries:
        """Restrict to a smaller (or equal) truncation order."""
        if order < 1:
            raise ValueError("truncation order must be positive")
        if order >= self.order:
            return self
        return TruncatedSeries._of_residues(self.ring, self.coeffs[:order])

    def reduce_mod(self, m: int) -> TruncatedSeries:
        """Map an exact series into Z/m (a no-op if already in Z/m)."""
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        if self.ring.modulus == m:
            return self
        if self.ring.modulus:
            raise RingMismatchError(
                f"series is already modulo {self.ring.modulus}, not {m}")
        return TruncatedSeries(CoefficientRing(m), self.coeffs)

    # --- multiplicative operations ------------------------------------------

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if isinstance(other, int):
            return self.scalar_mul(other)
        return self.mul(other)

    def mul(self, other: TruncatedSeries, k: int = 1, p: int = 1,
            r: int = 0) -> TruncatedSeries:
        """(self * other.substitute_power(k)).extract(p, r), to the order
        both reach: the same series with the same errors, without
        computing the other classes where the product kernel can avoid
        them.

        Coefficient c + k*m of the product is coefficient m of the class
        c mod k of self times other: k products at 1/k of the order, each
        restricted to the indices m that land in class r mod p.
        """
        self._check_ring(other)
        if k < 1:
            raise ValueError(f"substitution power must be positive, got {k}")
        n = min(self.order, other.order * k)
        size = _class_size(n, p, r)
        if k == 1:  # one class, whose product is the result
            return TruncatedSeries(self.ring, _mul_coeffs(
                self.coeffs[:n], other.coeffs[:n], n, self.ring.modulus, p, r))
        coeffs = [0] * size
        g = gcd(k, p)
        for c in range(r % g, min(k, n), g):
            a = self.coeffs[c:n:k]
            # c + k*m lies in class r mod p for m = m0, m0 + p/g, ...
            m0 = (r - c) // g * pow(k // g, -1, p // g) % (p // g)
            if m0 < len(a):
                coeffs[(c + k * m0 - r) // p::k // g] = _mul_coeffs(
                    a, other.coeffs[:len(a)], len(a), self.ring.modulus,
                    p // g, m0)
        return TruncatedSeries(self.ring, coeffs)

    def __rmul__(self, other: int) -> TruncatedSeries:
        if isinstance(other, int):
            return self.scalar_mul(other)
        return NotImplemented

    def __pow__(self, e: int) -> TruncatedSeries:
        """self**e, by one of two exact routes; the result is identical
        either way.

        For e > 0: e - 1 products by the base when the kernel's cost
        estimate says they beat binary squaring, as for a lacunary base.
        For e < 0: the inverse, then over Z -e - 1 more quotient
        recurrences by a lacunary base (:func:`recurrences_win`), else
        the inverse raised to -e.
        On a 2-core Xeon with CPython 3.11, euler_f(1, 3500) ** -12 takes
        0.24 s over Z by recurrences (2.3 s by powering the dense
        inverse), and 0.03 s in Z/11 by powering (0.1 s by recurrences).
        """
        if not isinstance(e, int):
            raise TypeError("series exponent must be an integer")
        if e == 0:
            return TruncatedSeries.one(self.ring, self.order)
        if e == 1:
            return self
        n = self.order
        m = self.ring.modulus
        nnz = n - self.coeffs.count(0)
        squarings = abs(e).bit_length() + bin(e).count("1") - 2
        h = _height(self.coeffs, m)
        by_base = _mul_costs(nnz, n, n, h, h, m)
        if e < 0:
            inv = self.invert()
            # only over Z, for a base not multiplied by Kronecker substitution
            if (not m and min(by_base, key=by_base.get) is not _mul_kronecker
                    and recurrences_win(-e, nnz, n)):
                for _ in range(-e - 1):
                    inv = inv.divide(self)
                return inv
            return inv ** -e
        # Compared as int against float, so that no huge e is converted.
        if e - 1 <= (squarings * min(_mul_costs(n, n, n, h, h, m).values())
                     / min(by_base.values())):
            # A lacunary base: each product by it is cheaper than a
            # product of two dense powers (costed at the base's height).
            acc = self
            for _ in range(e - 1):
                acc = acc * self
            return acc
        acc = TruncatedSeries.one(self.ring, self.order)
        base = self
        k = e
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse: the series b with self*b = 1 + O(q^N).

        The constant term must be a unit (so +-1 over the integers, or
        coprime to the modulus).
        """
        n = self.order
        num = [0] * n
        num[0] = 1
        return TruncatedSeries._of_residues(
            self.ring, _quotient(num, self.coeffs, n, self.ring))

    def divide(self, other: TruncatedSeries) -> TruncatedSeries:
        """Quotient self/other, cancelling a common q-valuation.

        If other = q^v * u with u having a unit constant term, self must
        also vanish to order v; the result is known to min(order) - v.
        """
        self._check_ring(other)
        v = other.valuation()
        if v is None:
            raise NonUnitError(
                f"divisor vanishes identically to its order {other.order}")
        if v:
            if any(self.coeffs[i] for i in range(min(v, self.order))):
                raise ValuationError(
                    f"dividend has q-valuation below the divisor's ({v})")
        n = min(self.order, other.order) - v
        if n < 1:
            raise ValuationError("no known coefficients remain after division")
        num = list(self.coeffs[v:v + n])
        num += [0] * (n - len(num))
        den = other.coeffs[v:v + n]
        return TruncatedSeries._of_residues(
            self.ring, _quotient(num, den, n, self.ring))

    def __truediv__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.divide(other)

    # --- dissection -----------------------------------------------------------

    def extract(self, p: int, r: int) -> TruncatedSeries:
        """Arithmetic-progression slice: coefficient n of the result is
        coefficient p*n + r of self ("extract, divide by q^r, replace q^p by q").
        """
        _class_size(self.order, p, r)
        return TruncatedSeries._of_residues(self.ring, self.coeffs[r::p])

    def substitute_power(self, k: int, cap: int | None = None) -> TruncatedSeries:
        """Replace q by q^k; the inverse of extract on a residue class."""
        if k < 1:
            raise ValueError(f"substitution power must be positive, got {k}")
        n = self.order * k if cap is None else min(self.order * k, cap)
        if n < 1:
            raise ValuationError("substitution cap leaves no known coefficients")
        coeffs = [0] * n
        coeffs[::k] = self.coeffs[:-(-n // k)]
        return TruncatedSeries._of_residues(self.ring, coeffs)

"""Registry of congruence identities and the engine that re-checks them.

Each registry item is a declarative record: a series identity (whose
left side may be read on one residue class, a dissection link), a whole
chain of such links, a modular coefficient scan over an arithmetic
progression, or the prime-power coefficient congruence f_p = f_1^p
(mod p), one identity link per prime.  Running an item produces a
:class:`VerificationReport` stating how far equality was checked and,
on failure, the first mismatching coefficient.

Only the residue class a check reads is computed: a dissection link
(p, r) evaluates its seed on coefficients r, r + p, ... alone.  A run
plans its scans up front in one :class:`Families` store, which builds
each bipartition family once, on the one class its scans read, to the
deepest order they need; the store lives as long as the run.  A scan
still compares the family's own coefficients, read off that class.
Identities and scans alike run through one comparison
(:func:`run_check` for one check, :func:`run_item` for a registry item).

Chains deserve a note: iterating a dissection k times directly would
need a seed series of order ~ final_order * p^k, which is astronomically
large for the eleven-step chain.  Instead each link feeds the *stated*
right-hand side of the previous link in as its seed, so every link is a
cheap independent identity while the composition still certifies the
full chain; reports carry the label "chain verified link-wise".
Families indexed by an unbounded parameter are certified by their
induction link plus base-case scans and labelled "induction-link
verified".
"""

from __future__ import annotations

import sys
import time
from math import gcd
from typing import Iterable, Union

from .qexpr import EvalContext, EvalError, QSyntaxError, evaluate, parse_expr
from .qfunctions import bipartition_series
from .series import (EXACT, CoefficientRing, Record, SeriesError,
                     TruncatedSeries, mod_ring)

CHAIN_NOTE = "chain verified link-wise"
INDUCTION_NOTE = "induction-link verified"

# A scan needs the family series out to step*(count - 1) + offset + 1
# coefficients.  Only one residue class of them is kept, but building it
# still multiplies (and for some families divides) series of that whole
# order, so the cap bounds the whole order: past it the build stops
# being a reasonable in-memory computation.
SCAN_ORDER_CAP = 2_000_000


# --------------------------------------------------------------------------
# Declarative check records
# --------------------------------------------------------------------------

class IdentityCheck(Record):
    """Claim: the coefficients residue, residue + step, ... of lhs equal
    rhs, as series in the given ring, to the given order; lhs and rhs
    are expression text, and modulus 0 means Z.  Steps (p1, r1) then
    (p2, r2) are the one class (p1*p2, r1 + p1*r2)."""

    __slots__ = ("name", "lhs", "rhs", "modulus", "order", "step", "residue")
    _defaults = {"modulus": 0, "order": 500, "step": 1, "residue": 0}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _require_in_range(order=self.order)
        EvalContext(self.order, CoefficientRing(self.modulus), self.step,
                    self.residue)


class CongruenceCheck(Record):
    """Claim: family(A1*n+B1) = multiplier * family(A2*n+B2) (mod m) for
    n below the scan count; a missing right progression means = 0.

    family is (s, t); lhs and rhs are (step, offset) progressions."""

    __slots__ = ("name", "family", "lhs", "rhs", "modulus", "count",
                 "multiplier")
    _defaults = {"multiplier": 1}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        s, t = self.family
        if s <= 1 or t <= 1:
            raise ValueError(
                f"regularity indices must exceed 1, got ({s}, {t})")
        mod_ring(self.modulus)
        _require_in_range(count=self.count)
        for side, (step, offset) in (("left", self.lhs),
                                     ("right", self.rhs or (1, 0))):
            if step < 1 or offset < 0:
                raise ValueError(
                    f"{side} progression needs step >= 1, offset >= 0")


Check = Union[IdentityCheck, CongruenceCheck]


class RegistryItem(Record):
    """A registry entry; kind is "identity", "chain", "scan" or
    "binomial" (eq-k1, whose checks are one identity link per prime)."""

    __slots__ = ("id", "kind", "description", "tags", "checks", "note")
    _defaults = {"note": None}


class VerificationReport(Record):
    """Outcome of one registry item (or standalone check): status "pass"
    or "fail", the order checked (or scan count), the first mismatch."""

    __slots__ = ("id", "status", "order", "mismatch", "millis", "note")
    _defaults = {"note": None}

    def as_dict(self) -> dict:
        d = {"id": self.id, "status": self.status, "order": self.order,
             "mismatch": self.mismatch, "millis": round(self.millis, 3)}
        if self.note is not None:
            d["note"] = self.note
        return d


class RegistryRun(Record):
    __slots__ = ("reports", "warnings")

    def __init__(self, reports: list[VerificationReport] | None = None,
                 warnings: list[str] | None = None) -> None:
        super().__init__([] if reports is None else reports,
                         [] if warnings is None else warnings)

    @property
    def all_passed(self) -> bool:
        return not self.warnings and all(r.status == "pass" for r in self.reports)


# --------------------------------------------------------------------------
# Check execution
# --------------------------------------------------------------------------

def run_pipeline(seed: str, ring, order: int, step: int = 1,
                 residue: int = 0, records: dict | None = None
                 ) -> TruncatedSeries:
    """Coefficients residue, residue + step, ... of the seed text, order
    of them: the seed is evaluated on that class alone, at
    :func:`seed_order_for`, with ``records`` as the memo of planned
    records (:class:`EvalContext`)."""
    return evaluate(parse_expr(seed),
                    EvalContext(seed_order_for(order, step, residue), ring,
                                step, residue, records))


def seed_order_for(order: int, step: int = 1, residue: int = 0) -> int:
    """Smallest seed order whose class residue mod step holds order
    coefficients."""
    return (order - 1) * step + residue + 1


def family_series(s: int, t: int, modulus: int, order: int, step: int = 1,
                  residue: int = 0) -> TruncatedSeries:
    """Coefficients residue, residue + step, ... below order (by default
    all of them) of B_{s,t} mod modulus."""
    return bipartition_series(s, t, order, mod_ring(modulus), step, residue)


Progression = tuple[int, int]  # (step, offset): coefficients step*n + offset


def _require_in_range(**values: int | None) -> None:
    """Reject an order or count below 1, or a perturb index below 0,
    before anything is planned or built; None means the check's own
    default (for perturb: no perturbation)."""
    for name, value in values.items():
        least = 0 if name == "perturb" else 1
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _progressions(check: CongruenceCheck) -> list[Progression]:
    return [check.lhs] + ([check.rhs] if check.rhs is not None else [])


def _reach(progressions: list[Progression], count: int) -> int:
    """Family series order the progressions need: one past the highest
    coefficient index they reach for n below the count."""
    return max(seed_order_for(count, a, b) for a, b in progressions)


def _class_of(progressions: list[Progression]) -> tuple[int, int]:
    """The coarsest class (step, residue) holding every progression:
    step is the gcd of their steps and of their offsets' differences."""
    step, first = 0, progressions[0][1]
    for a, b in progressions:
        step = gcd(step, a, b - first)
    return step, first % step


class Families:
    """The bipartition family series one run reads, each built once.

    Planned from the run's checks with the run's ``count`` and
    ``order``, kept (None: each check's own): for each family (s, t,
    modulus) its scans read, ``plans`` holds the deepest order they need
    and the one class (step, residue) holding every progression they
    read.  A plan past SCAN_ORDER_CAP, or a seed order past the index
    range, raises OverflowError.  The first read of a family builds
    that class to that order (:func:`family_series`); each read slices
    its check's progressions off it.

    ``records`` is the run's memo of planned records, which every
    identity evaluated in the run shares (:class:`EvalContext`).
    """

    def __init__(self, checks: Iterable[Check], count: int | None = None,
                 order: int | None = None):
        needs: dict[tuple[int, int, int], tuple[int, list[Progression]]] = {}
        seed = 0
        for check in checks:
            if isinstance(check, CongruenceCheck):
                key = (*check.family, check.modulus)
                need, seen = needs.get(key, (0, []))
                progressions = _progressions(check)
                cnt = count if count is not None else check.count
                needs[key] = (max(need, _reach(progressions, cnt)),
                              seen + progressions)
            else:
                seed = max(seed, seed_order_for(order or check.order,
                                                check.step, check.residue))
        self.plans: dict[tuple[int, int, int], tuple[int, int, int]] = {
            key: (need, *_class_of(seen))
            for key, (need, seen) in needs.items()}
        need = max((plan[0] for plan in self.plans.values()), default=0)
        if need > SCAN_ORDER_CAP:
            raise OverflowError(f"scan needs series order {need}, above the "
                                f"cap of {SCAN_ORDER_CAP}; lower the count")
        if seed > sys.maxsize:
            raise OverflowError(f"series order {seed} is past the index range")
        self._built: dict[tuple[int, int, int], TruncatedSeries] = {}
        self.records: dict = {}
        self.count, self.order = count, order

    def read(self, check: CongruenceCheck) -> list[TruncatedSeries]:
        """B_{s,t}(a*n + b) mod modulus for n below the run's count, one
        series per progression (a, b) of the check; ValueError if the
        plan does not hold them to that count."""
        count = self.count if self.count is not None else check.count
        key = (*check.family, check.modulus)
        order, step, residue = self.plans.get(key, (0, 1, 0))
        progressions = _progressions(check)
        if (_reach(progressions, count) > order
                or any(a % step or (b - residue) % step
                       for a, b in progressions)):
            s, t, m = key
            raise ValueError(
                f"B_{{{s},{t}}} mod {m} is not planned for {check.name!r} "
                f"to count {count}")
        series = self._built.get(key)
        if series is None:
            series = self._built[key] = family_series(*key, order, step,
                                                      residue)
        # a slice, not extract(): an offset may exceed its step here
        return [TruncatedSeries._of_residues(
                    series.ring,
                    series.coeffs[(b - residue) // step::a // step][:count])
                for a, b in progressions]


def _pair(check: Check, families: Families
          ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two series a check claims equal, to the run's order or count.

    An identity gives its two sides, the left read on its class; a scan
    gives the left progression of its family, read from ``families``,
    and the right one times the multiplier (or zero), coefficient n for
    n below the count.
    """
    if isinstance(check, IdentityCheck):
        n = families.order if families.order is not None else check.order
        ring = mod_ring(check.modulus) if check.modulus else EXACT
        return (run_pipeline(check.lhs, ring, n, check.step, check.residue,
                             families.records),
                evaluate(parse_expr(check.rhs),
                         EvalContext(n, ring, records=families.records)))
    lhs, *rhs = families.read(check)
    return lhs, (rhs[0].scalar_mul(check.multiplier) if rhs
                 else TruncatedSeries.zero(lhs.ring, lhs.order))


def _compare(name: str, checks: tuple[Check, ...], perturb: int | None,
             note: str | None, families: Families) -> VerificationReport:
    """Compare the series pair of each check in turn, coefficient by
    coefficient, and report the first mismatch.

    ``families`` is the run's store, read by :func:`_pair`.  A pair
    is compared on the order both sides reach; the reported order is the
    smallest such order, or the failing pair's.  ``perturb`` adds one to
    that coefficient of every right-hand side, so a sound check fails
    there; it must lie below the compared order.  An evaluation error is
    reported as a mismatch at index -1.  A scan's mismatch adds the
    family's ``coefficient_index``; when there are several checks, a
    mismatch names the failing one as ``link``.
    """
    t0 = time.perf_counter()
    checked = None
    mismatch = None
    for check in checks:
        try:
            lhs, rhs = _pair(check, families)
            n = min(lhs.order, rhs.order)
            if perturb is not None:
                if perturb >= n:
                    raise ValueError(f"perturb must be below the compared "
                                     f"order {n}, got {perturb}")
                coeffs = list(rhs.coeffs)
                coeffs[perturb] += 1
                rhs = TruncatedSeries(rhs.ring, coeffs)
            diff = lhs.first_mismatch(rhs)
        except (SeriesError, QSyntaxError, EvalError) as exc:
            mismatch = {"index": -1, "lhs": None, "rhs": None,
                        "error": str(exc)}
            checked = 0
        else:
            if diff is None:
                checked = n if checked is None else min(checked, n)
                continue
            index, lv, rv = diff
            mismatch = {"index": index, "lhs": lv, "rhs": rv}
            if isinstance(check, CongruenceCheck):
                a, b = check.lhs
                mismatch["coefficient_index"] = a * index + b
            checked = n
        if len(checks) > 1:
            mismatch["link"] = check.name
        break
    millis = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(name, "pass" if mismatch is None else "fail",
                              checked or 0, mismatch, millis, note)


def run_check(check: Check, order: int | None = None,
              count: int | None = None,
              perturb: int | None = None) -> VerificationReport:
    """Run one check, an identity or a scan, on its own; ``order``
    applies to an identity, ``count`` to a scan."""
    _require_in_range(order=order, count=count, perturb=perturb)
    return _compare(check.name, (check,), perturb, None,
                    Families((check,), count, order))


def run_item(item: RegistryItem, order: int | None = None,
             count: int | None = None,
             perturb: int | None = None,
             families: Families | None = None) -> VerificationReport:
    """Run all checks of a registry item, aggregating into one report.

    A multi-link item passes only if every link passes; the reported
    order is the smallest order any link achieved, and a failure carries
    the failing link's name.  Given ``families``, the run's store, the
    item runs to its order and count, and passing either is a
    ValueError; without one the item plans its own.
    """
    _require_in_range(order=order, count=count, perturb=perturb)
    if families is None:
        families = Families(item.checks, count, order)
    elif (order, count) != (None, None):
        raise ValueError("order and count are the store's; pass neither")
    return _compare(item.id, item.checks, perturb, item.note, families)


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------

def _triple(alpha: int, beta: int, gamma: int) -> str:
    """Expression for alpha*f7*f1^9 + beta*q*f7^5*f1^5 + gamma*q^2*f7^9*f1."""
    parts = []
    if alpha:
        parts.append(f"{alpha}*f7*f1^9")
    if beta:
        parts.append(f"{beta}*q*f7^5*f1^5")
    if gamma:
        parts.append(f"{gamma}*q^2*f7^9*f1")
    return " + ".join(parts) if parts else "0"


# The eleven successive images of f7*f1^9 under the (7,4) extraction,
# working mod 11; the final one has support only on the q^2 term.
_SEPTIC_CHAIN_TRIPLES = [
    (1, 0, 0),
    (9, 9, 8), (9, 5, 6), (4, 7, 6), (1, 5, 10), (5, 1, 8), (3, 6, 7),
    (3, 2, 2), (1, 4, 2), (3, 7, 8), (1, 7, 2), (0, 0, 8),
]

_EQ9_RHS = "a(q)^3*f1^3*f9 + 6*q*f9*f3^9"
_EQ10_RHS = "6*f1^9*f3 + 4*a(q)^3*f3^4 + q*f3^13/f1^3"
_EQ10K_RHS = "8*a(q)^2*f1^3*f3^3"

_G2_RHS = "5*a(q)^3*f1^3*f3^6*f81 + 12*q*f3^15*f81"
_G3_RHS = "12*f1^15*f27 + 7*a(q)^3*f1^6*f3^3*f27 + 7*q*f1^3*f3^12*f27"
_G4_RHS = "13*f1^12*f3^3*f9 + 4*a(q)^3*f1^3*f3^6*f9 + 16*q*f3^15*f9"
_G5_RHS = "16*q*f3^15*f9 + 6*q*a(q^3)^3*f3^6*f9^4 + 8*q^4*f3^3*f9^13"

_B3_RHS = "4*f2^2*f6^3/f1"
_B5_RHS = "4*f6^2*f2^3/f3"
_B6_RHS = "3*f2^2*f6^3/f1"


def _identity(item_id, description, lhs, rhs, *, tags=(), note=None,
              **fields) -> RegistryItem:
    check = IdentityCheck(item_id, lhs, rhs, **fields)
    return RegistryItem(item_id, "identity", description, tuple(tags),
                        (check,), note)


def _chain(item_id, description, links, *, modulus, order, tags,
           note) -> RegistryItem:
    """links holds (name, lhs, rhs) or (name, lhs, rhs, step, residue)."""
    checks = tuple(IdentityCheck(name, lhs, rhs, modulus, order, *cls)
                   for name, lhs, rhs, *cls in links)
    return RegistryItem(item_id, "chain", description, tuple(tags), checks, note)


def _scan(item_id, description, family, lhs, rhs, modulus, count,
          multiplier=1, *, tags=(), note=None) -> RegistryItem:
    check = CongruenceCheck(item_id, family, lhs, rhs, modulus, count,
                            multiplier)
    return RegistryItem(item_id, "scan", description, tuple(tags), (check,),
                        note)


def _build_registry() -> dict[str, RegistryItem]:
    items: list[RegistryItem] = []

    # --- classical single identities -----------------------------------
    items.append(RegistryItem(
        "eq-k1", "binomial",
        "prime-power coefficient congruence f_p = f_1^p (mod p)",
        ("classical",),
        tuple(IdentityCheck(f"eq-k1/p={p}", f"f{p}", f"f1^{p}", p)
              for p in (2, 3, 5, 7, 11, 13, 17))))
    items.append(_identity(
        "eq-j1", "partition numbers on 5n+4 as an eta quotient",
        "1/f1", "5*f5^5/f1^6", step=5, residue=4, tags=("classical",)))
    items.append(_identity(
        "eq-j2", "partition numbers on 7n+5 as a two-term eta quotient",
        "1/f1", "7*f7^3/f1^4 + 49*q*f7^7/f1^8", step=7, residue=5,
        tags=("classical",)))

    # --- quotient lemmas -------------------------------------------------
    items.append(_identity(
        "eq-4w", "3-dissection of f2^2/f1",
        "f2^2/f1", "f6*f9^2/(f3*f18) + q*f18^2/f9", tags=("lemmas",)))
    items.append(_identity(
        "eq-a5", "3-dissection of f2/f1^2",
        "f2/f1^2",
        "f6^4*f9^6/(f3^8*f18^3) + 2*q*f6^3*f9^3/f3^7 + 4*q^2*f6^2*f18^3/f3^6",
        tags=("lemmas",)))
    items.append(_identity(
        "eq-3k", "cube of f1 via the cubic theta",
        "f1^3", "f3*a(q^3) - 3*q*f9^3", tags=("lemmas",)))
    items.append(_identity(
        "eq-2k", "cubic theta 3-dissection",
        "a(q)", "a(q^3) + 6*q*f9^3/f3", tags=("lemmas",)))
    items.append(_identity(
        "eq-6k", "reciprocal cube of f1 via the cubic theta",
        "1/f1^3",
        "a(q^3)^2*f9^3/f3^10 + 3*q*a(q^3)*f9^6/f3^11 + 9*q^2*f9^9/f3^12",
        tags=("lemmas",)))
    items.append(_identity(
        "eq-b52", "cube of f2 via the cubic theta (q -> q^2 substitution)",
        "f2^3", "f6*a(q^6) - 3*q^2*f18^3", tags=("lemmas",)))
    items.append(_identity(
        "eq-4", "7-dissection of f1 via the septic theta quotients",
        "f1",
        "f49*(B(q^7)/C(q^7) - q*A(q^7)/B(q^7) - q^2 + q^5*C(q^7)/A(q^7))",
        order=300, tags=("lemmas",)))
    items.append(_identity(
        "eq-8p", "degree-5 septic quotient combination collapsing to 3q",
        "B^5/(A*C^4) - A^5/(B^4*C) - q^3*C^5/(A^4*B)", "3*q",
        order=300, tags=("lemmas",)))
    items.append(_identity(
        "eq-9p", "degree-3 septic quotient combination, first kind",
        "A*B^2/C^3 + q*A^2*C/B^3 - q^2*B*C^2/A^3", "f1^4/f7^4 + 8*q",
        order=300, tags=("lemmas",)))
    items.append(_identity(
        "eq-10p", "degree-3 septic quotient combination, second kind",
        "A^3/(B*C^2) - q*B^3/(A^2*C) - q^2*C^3/(A*B^2)", "f1^4/f7^4 + 5*q",
        order=300, tags=("lemmas",)))
    items.append(_identity(
        "eq-11p", "degree-7 septic quotient combination",
        "B^7/C^7 - q*A^7/B^7 + q^5*C^7/A^7",
        "14*q*f1^4/f7^4 + f1^8/f7^8 + 57*q^2", order=300, tags=("lemmas",)))
    items.append(_identity(
        "eq-15", "f1^5 on 7n+3 in terms of the septic quotient combinations",
        "f1^5",
        "f7^5*(20*(A*B^2/C^3 + q*A^2*C/B^3 - q^2*B*C^2/A^3)"
        " - 10*(A^3/(B*C^2) - q*B^3/(A^2*C) - q^2*C^3/(A*B^2)) - 61*q)",
        step=7, residue=3, order=300, tags=("lemmas",)))
    items.append(_identity(
        "lemma-1.2", "f1^5 on 7n+3, simplified two-term form",
        "f1^5", "10*f1^4*f7 + 49*q*f7^5", step=7, residue=3,
        tags=("lemmas",)))
    items.append(_identity(
        "lemma-0.2", "f1^7 on 7n, two-term form",
        "f1^7", "f1^8/f7 + 49*q*f7^3*f1^4", step=7, residue=0,
        tags=("lemmas",)))
    items.append(_identity(
        "lemma-1.1", "f1^9 on 7n+4, three-term form",
        "f1^9", "-90*f1^8*f7 - 882*q*f1^4*f7^5 - 2401*q^2*f7^9",
        step=7, residue=4, tags=("lemmas",)))

    # --- (2,15)-regular bipartitions mod 5 -------------------------------
    items.append(_scan(
        "b215-b1", "B_{2,15}(9n+8) = 0 (mod 5)",
        (2, 15), (9, 8), None, 5, 1000, tags=("b215",)))
    items.append(_scan(
        "b215-b2", "B_{2,15}(27n+14) = 0 (mod 5)",
        (2, 15), (27, 14), None, 5, 1000, tags=("b215",)))
    items.append(_scan(
        "b215-b3", "B_{2,15}(27n+23) = 2*B_{2,15}(3n+2) (mod 5)",
        (2, 15), (27, 23), (3, 2), 5, 1000, multiplier=2, tags=("b215",)))
    items.append(_chain(
        "b215-chain",
        "ternary dissection chain for B_{2,15} mod 5, each link an identity",
        [
            ("b215-chain/3n+2", "f2*f15/f1^2", _B3_RHS, 3, 2),
            ("b215-chain/9n+5", _B3_RHS, _B5_RHS, 3, 1),
            ("b215-chain/9n+8-vanishes", _B3_RHS, "0", 3, 2),
            ("b215-chain/27n+23", _B5_RHS, _B6_RHS, 3, 2),
            ("b215-chain/27n+14-vanishes", _B5_RHS, "0", 3, 1),
        ],
        modulus=5, order=200, tags=("b215",),
        note=f"{CHAIN_NOTE}; {INDUCTION_NOTE} for the unbounded-parameter "
             "progression families"))
    items.append(_scan(
        "thm-y-m0", "odd-power progression family at its base parameter",
        (2, 15), (3, 2), (3, 2), 5, 500, multiplier=1, tags=("b215",)))
    items.append(_scan(
        "thm-y-m1", "odd-power progression family one induction step up",
        (2, 15), (27, 23), (3, 2), 5, 1000, multiplier=2, tags=("b215",)))

    # --- (7,11)-regular bipartitions mod 11 --------------------------------
    for k in range(1, 12):
        seed = _triple(*_SEPTIC_CHAIN_TRIPLES[k - 1])
        rhs = _triple(*_SEPTIC_CHAIN_TRIPLES[k])
        items.append(_chain(
            f"b711-chain-{k:02d}",
            f"septic extraction link {k} of the B_{{7,11}} chain mod 11",
            [(f"b711-chain-{k:02d}/(7n+4)", seed, rhs, 7, 4)],
            modulus=11, order=200, tags=("b711",),
            note=CHAIN_NOTE))
    items.append(_chain(
        "b711-a4",
        "final-step residues 1, 5, 6 of the B_{7,11} chain vanish mod 11",
        [
            ("b711-a4/7n+1", _triple(0, 0, 8), "0", 7, 1),
            ("b711-a4/7n+5", _triple(0, 0, 8), "0", 7, 5),
            ("b711-a4/7n+6", _triple(0, 0, 8), "0", 7, 6),
        ],
        modulus=11, order=200, tags=("b711",),
        note=f"{CHAIN_NOTE}; {INDUCTION_NOTE} for the vanishing families"))
    items.append(_identity(
        "b711-a3",
        "final-step residue 4 closes the B_{7,11} chain onto 3x its start",
        _triple(0, 0, 8), "3*" + _triple(1, 0, 0), step=7, residue=4,
        modulus=11, order=200, tags=("b711",),
        note=f"{INDUCTION_NOTE}: multiplier-3 step extends the scanned base "
             "cases to all parameters"))

    # --- (27,11)-regular bipartitions mod 11 -------------------------------
    items.append(_chain(
        "b2711-chain",
        "ternary dissection chain for B_{27,11} mod 11",
        [
            ("b2711-chain/3n", "f27*f1^9", _EQ9_RHS, 3, 0),
            ("b2711-chain/9n+3", _EQ9_RHS, _EQ10_RHS, 3, 1),
            ("b2711-chain/27n+12", _EQ10_RHS, _EQ10K_RHS, 3, 1),
        ],
        modulus=11, order=200, tags=("b2711",), note=CHAIN_NOTE))
    items.append(_identity(
        "b2711-eq11", "B_{27,11}(81n+66) family vanishes mod 11",
        _EQ10K_RHS, "0", step=3, residue=2, modulus=11, order=200,
        tags=("b2711",),
        note=f"{INDUCTION_NOTE} with b2711-eq12 for all parameters m >= 4"))
    items.append(_identity(
        "b2711-eq12", "B_{27,11}(81n+39) family is 9x the 27n+12 family mod 11",
        _EQ10K_RHS, f"9*({_EQ10K_RHS})", step=3, residue=1, modulus=11,
        order=200, tags=("b2711",),
        note=f"{INDUCTION_NOTE}: multiplier-9 step extends the scanned base "
             "cases to all parameters"))
    items.append(_scan(
        "b2711-m4", "B_{27,11}(81n+66) = 0 (mod 11)",
        (27, 11), (81, 66), None, 11, 400, tags=("b2711",)))
    items.append(_scan(
        "b2711-m5", "B_{27,11}(243n+201) = 0 (mod 11)",
        (27, 11), (243, 201), None, 11, 400, tags=("b2711",)))

    # --- (243,17)-regular bipartitions mod 17 ------------------------------
    items.append(_chain(
        "b24317-chain",
        "ternary dissection chain for B_{243,17} mod 17, ending in a form "
        "supported only on exponents = 1 mod 3",
        [
            ("b24317-chain/3n+2", "f243*f1^15", _G2_RHS, 3, 2),
            ("b24317-chain/9n+5", _G2_RHS, _G3_RHS, 3, 1),
            ("b24317-chain/27n+23", _G3_RHS, _G4_RHS, 3, 2),
            ("b24317-chain/final-form", _G4_RHS, _G5_RHS),
            ("b24317-chain/3n-component-vanishes", _G5_RHS, "0", 3, 0),
            ("b24317-chain/3n+2-component-vanishes", _G5_RHS, "0", 3, 2),
        ],
        modulus=17, order=200, tags=("b24317",),
        note=f"{CHAIN_NOTE}; {INDUCTION_NOTE} for all n beyond the scanned "
             "range"))
    items.append(_scan(
        "b24317-23", "B_{243,17}(81n+23) = 0 (mod 17)",
        (243, 17), (81, 23), None, 17, 300, tags=("b24317",)))
    items.append(_scan(
        "b24317-77", "B_{243,17}(81n+77) = 0 (mod 17)",
        (243, 17), (81, 77), None, 17, 300, tags=("b24317",)))

    return {item.id: item for item in items}


REGISTRY: dict[str, RegistryItem] = _build_registry()


def select_items(filter_text: str | None) -> list[RegistryItem]:
    """Items whose id equals/starts with the filter or whose tags contain it."""
    if filter_text is None:
        matched = list(REGISTRY.values())
    else:
        matched = [item for item in REGISTRY.values()
                   if item.id == filter_text
                   or item.id.startswith(filter_text)
                   or filter_text in item.tags]
    return sorted(matched, key=lambda item: item.id)


def run_registry(filter_text: str | None = None, order: int | None = None,
                 count: int | None = None) -> RegistryRun:
    """Run all (or filtered) registry items, reports ordered by id."""
    _require_in_range(order=order, count=count)
    run = RegistryRun()
    items = select_items(filter_text)
    if not items:
        run.warnings.append(f"no registry items match filter {filter_text!r}")
        return run
    families = Families((check for item in items for check in item.checks),
                        count, order)
    for item in items:
        run.reports.append(run_item(item, families=families))
    return run

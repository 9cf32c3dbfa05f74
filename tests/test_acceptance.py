"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion as it completes.
"""

import time

from qseries.oracle import count_bipartitions, count_partitions, count_regular
from qseries.qfunctions import bipartition_series, euler_f, regular_series
from qseries.verify import (
    INDUCTION_NOTE,
    REGISTRY,
    family_series,
    run_item,
)

FAMILY_PAIRS = [(2, 15), (7, 11), (27, 11), (243, 17)]

EXACT_IDENTITY_IDS = [
    "eq-j1", "eq-j2", "eq-4w", "eq-a5", "eq-3k", "eq-2k", "eq-6k",
    "eq-4", "eq-8p", "eq-9p", "eq-10p", "eq-11p", "eq-15",
    "lemma-1.2", "lemma-0.2", "lemma-1.1",
]

CHAIN_IDS = ([f"b711-chain-{k:02d}" for k in range(1, 12)]
             + ["b711-a3", "b711-a4",
                "b2711-chain", "b2711-eq11", "b2711-eq12",
                "b24317-chain"])

SCAN_IDS = ["b215-b1", "b215-b2", "b215-b3",
            "b2711-m4", "b2711-m5", "b24317-23", "b24317-77"]

INDUCTION_LABELLED_IDS = ["b215-chain", "b711-a3", "b711-a4",
                          "b2711-eq11", "b2711-eq12", "b24317-chain"]


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed {detail}"


def test_exact_identity_suite():
    failures = []
    min_order = None
    for item_id in EXACT_IDENTITY_IDS:
        rep = run_item(REGISTRY[item_id])
        if rep.status != "pass" or rep.order < 300:
            failures.append((item_id, rep.status, rep.order, rep.mismatch))
        min_order = rep.order if min_order is None else min(min_order, rep.order)
    _verdict("exact-identity-suite", not failures,
             f"{len(EXACT_IDENTITY_IDS)} identities, order >= {min_order}"
             if not failures else str(failures))


def test_binomial_congruence():
    rep = run_item(REGISTRY["eq-k1"], order=500)
    _verdict("binomial-congruence", rep.status == "pass" and rep.order == 500,
             "primes 2..17 to order 500" if rep.status == "pass"
             else str(rep.mismatch))


def test_direct_congruence_scans():
    t0 = time.perf_counter()
    failures = []
    for item_id in SCAN_IDS:
        rep = run_item(REGISTRY[item_id])
        if rep.status != "pass":
            failures.append((item_id, rep.mismatch))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict("direct-congruence-scans", ok,
             f"7 scans in {elapsed:.1f}s" if ok
             else f"failures={failures} elapsed={elapsed:.1f}s")


def test_linkwise_chain_verification():
    failures = []
    min_order = None
    for item_id in CHAIN_IDS:
        rep = run_item(REGISTRY[item_id])
        if rep.status != "pass" or rep.order < 200:
            failures.append((item_id, rep.status, rep.order, rep.mismatch))
        min_order = rep.order if min_order is None else min(min_order, rep.order)
    _verdict("linkwise-chains", not failures,
             f"{len(CHAIN_IDS)} chain items, per-link order >= {min_order}"
             if not failures else str(failures))


def test_induction_link_labelling():
    missing = []
    for item_id in INDUCTION_LABELLED_IDS:
        rep = run_item(REGISTRY[item_id], order=60)
        if rep.status != "pass" or not rep.note or INDUCTION_NOTE not in rep.note:
            missing.append(item_id)
    _verdict("induction-link-labels", not missing,
             f"{len(INDUCTION_LABELLED_IDS)} items labelled "
             f"'{INDUCTION_NOTE}'" if not missing else str(missing))


def test_oracle_equivalence():
    bound = 2000
    ok = count_partitions(bound) == list(euler_f(1, bound).invert().coeffs)
    regular_indices = sorted(
        {idx for pair in FAMILY_PAIRS for idx in pair} | {3, 5})
    for ell in regular_indices:
        ok = ok and (count_regular(ell, bound)
                     == list(regular_series(ell, bound).coeffs))
    for s, t in FAMILY_PAIRS:
        ok = ok and (count_bipartitions(s, t, bound)
                     == list(bipartition_series(s, t, bound).coeffs))
    _verdict("oracle-equivalence", ok,
             f"p(n), regular and bipartition counts for n < {bound}, "
             f"pairs {FAMILY_PAIRS}")


def test_sensitivity_controls():
    bad = []
    for item_id, item in sorted(REGISTRY.items()):
        kwargs = {"perturb": 2}
        if item.kind == "scan":
            kwargs["count"] = 10
        else:
            kwargs["order"] = 50
        rep = run_item(item, **kwargs)
        # scans name the coefficient, multi-check items (eq-k1 too) the link
        keys = ["index", "lhs", "rhs"]
        keys += ["coefficient_index"] if item.kind == "scan" else []
        keys += ["link"] if len(item.checks) > 1 else []
        if (rep.status != "fail" or rep.mismatch.get("index") != 2
                or list(rep.mismatch) != keys):
            bad.append((item_id, rep.status, rep.mismatch))
    # a progression nobody claims: residues must actually be nonzero
    series = family_series(2, 15, 5, 9 * 49 + 7 + 1)
    control = [series.coeffs[9 * n + 7] for n in range(50)]
    nonzero = sum(1 for v in control if v)
    ok = not bad and nonzero > 0
    _verdict("sensitivity-controls", ok,
             f"all {len(REGISTRY)} items fail at the perturbed index; "
             f"control progression has {nonzero}/50 nonzero residues"
             if ok else f"bad={bad} nonzero={nonzero}")

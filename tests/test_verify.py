import json
import os
import re
import sys

import pytest

import qseries.verify as verify_mod
from qseries import qexpr, qfunctions
from qseries.cli import main
from qseries.qexpr import EvalContext, evaluate, evaluate_text, parse_expr
from qseries.qfunctions import bipartition_series, euler_f
from qseries.series import EXACT, TruncatedSeries, mod_ring
from qseries.verify import (
    CHAIN_NOTE,
    INDUCTION_NOTE,
    REGISTRY,
    CongruenceCheck,
    Families,
    IdentityCheck,
    run_check,
    run_item,
    run_pipeline,
    run_registry,
    seed_order_for,
    select_items,
)

EXPECTED_IDS = sorted(
    ["eq-k1", "eq-j1", "eq-j2",
     "eq-4w", "eq-a5", "eq-3k", "eq-2k", "eq-6k", "eq-b52",
     "eq-4", "eq-8p", "eq-9p", "eq-10p", "eq-11p", "eq-15",
     "lemma-1.2", "lemma-0.2", "lemma-1.1",
     "b215-b1", "b215-b2", "b215-b3", "b215-chain", "thm-y-m0", "thm-y-m1"]
    + [f"b711-chain-{k:02d}" for k in range(1, 12)]
    + ["b711-a3", "b711-a4",
       "b2711-chain", "b2711-eq11", "b2711-eq12", "b2711-m4", "b2711-m5",
       "b24317-chain", "b24317-23", "b24317-77"])


class TestRegistryShape:
    def test_completeness(self):
        assert sorted(REGISTRY) == EXPECTED_IDS

    def test_every_item_has_description_and_tag(self):
        for item in REGISTRY.values():
            assert item.description
            assert item.tags

    def test_filter_by_tag(self):
        assert len(select_items("b215")) == 6
        lemma_ids = {item.id for item in select_items("lemmas")}
        assert {"eq-4w", "eq-a5", "eq-3k", "eq-2k", "eq-6k",
                "lemma-1.2", "lemma-0.2", "lemma-1.1",
                "eq-4", "eq-8p", "eq-9p", "eq-10p", "eq-11p",
                "eq-15"} <= lemma_ids

    def test_filter_by_id_and_prefix(self):
        assert [item.id for item in select_items("eq-j1")] == ["eq-j1"]
        assert len(select_items("b711-chain")) == 11

    def test_unknown_filter_warns(self):
        run = run_registry("no-such-item")
        assert run.reports == []
        assert run.warnings and "no-such-item" in run.warnings[0]
        assert not run.all_passed


class TestPipeline:
    def test_single_extraction_step(self):
        ring = mod_ring(11)
        got = run_pipeline("f7*f1^9", ring, 60, 7, 4)
        want = evaluate_text(
            "9*f7*f1^9 + 9*q*f7^5*f1^5 + 8*q^2*f7^9*f1", 60, ring)
        assert got.order == 60 and got.first_mismatch(want) is None

    def test_seed_order_budget(self):
        assert seed_order_for(200, 7, 4) == 199 * 7 + 4 + 1
        assert seed_order_for(200) == 200

    def test_seed_is_evaluated_on_the_first_class(self, monkeypatch):
        # steps (7, 4) then (7, 4) are the one class (49, 4 + 7*4)
        contexts = []
        real = verify_mod.evaluate

        def recorded(node, ctx):
            contexts.append((ctx.order, ctx.step, ctx.residue))
            return real(node, ctx)

        monkeypatch.setattr(verify_mod, "evaluate", recorded)
        got = run_pipeline("f7*f1^9", mod_ring(11), 40, 49, 32)
        assert contexts == [(seed_order_for(40, 49, 32), 49, 32)]
        whole = evaluate_text("f7*f1^9", seed_order_for(40, 49, 32),
                              mod_ring(11))
        assert got == whole.extract(49, 32)
        assert got == whole.extract(7, 4).extract(7, 4)

    def test_two_step_pipeline_composes_with_linkwise_chain(self):
        # the class (49, 32) of the family seed must land on the series
        # the two (7, 4) chain links produce one at a time
        ring = mod_ring(11)
        got = run_pipeline("f7*f1^9", ring, 40, 49, 32)
        want = evaluate_text(
            "9*f7*f1^9 + 5*q*f7^5*f1^5 + 6*q^2*f7^9*f1", 40, ring)
        assert got.order == 40 and got.first_mismatch(want) is None


class TestCheckIdentity:
    def test_classical_quotient_passes(self):
        check = IdentityCheck("eq-j1", "1/f1", "5*f5^5/f1^6", step=5,
                              residue=4)
        rep = run_check(check, order=50)
        assert rep.status == "pass"
        assert rep.order == 50

    def test_perturbed_rhs_fails_at_index(self):
        check = IdentityCheck("eq-j1", "1/f1", "5*f5^5/f1^6", step=5,
                              residue=4)
        rep = run_check(check, order=50, perturb=7)
        assert rep.status == "fail"
        assert rep.mismatch["index"] == 7

    def test_wrong_coefficient_detected_where_introduced(self):
        # 50 instead of 49 on the q-term: first damage lands at index 1
        check = IdentityCheck("bad-j2", "1/f1",
                              "7*f7^3/f1^4 + 50*q*f7^7/f1^8", step=7,
                              residue=5)
        rep = run_check(check, order=40)
        assert rep.status == "fail"
        assert rep.mismatch["index"] == 1
        assert rep.mismatch["lhs"] != rep.mismatch["rhs"]

    def test_evaluation_error_is_structured(self):
        check = IdentityCheck("bad-expr", "1/(f1 - f1)", "f1")
        rep = run_check(check, order=20)
        assert rep.status == "fail"
        assert rep.mismatch["index"] == -1
        assert "error" in rep.mismatch

    def test_syntax_error_is_structured(self):
        rep = run_check(IdentityCheck("bad-syntax", "(1+q", "f1"), order=10)
        assert rep.status == "fail"
        assert "error" in rep.mismatch


class TestCheckCongruence:
    def test_multiplier_family(self):
        check = CongruenceCheck("b3", (2, 15), (27, 23), (3, 2), 5, 200,
                                multiplier=2)
        rep = run_check(check)
        assert rep.status == "pass"
        assert rep.order == 200

    def test_count_override(self):
        check = CongruenceCheck("b1", (2, 15), (9, 8), None, 5, 1000)
        rep = run_check(check, count=25)
        assert rep.status == "pass" and rep.order == 25

    def test_unclaimed_progression_has_nonzero_residues(self):
        check = CongruenceCheck("control", (2, 15), (9, 7), None, 5, 50)
        rep = run_check(check)
        assert rep.status == "fail"
        assert rep.mismatch["lhs"] != 0
        assert rep.mismatch["coefficient_index"] == 9 * rep.mismatch["index"] + 7

    @pytest.mark.parametrize("coeffs, mismatch", [
        ([0] * 100, None),
        ([0] * 40 + [3] + [0] * 40,
         {"index": 5, "lhs": 3, "rhs": 0, "coefficient_index": 40}),
    ], ids=["all-zero", "one-nonzero"])
    def test_scan_of_a_given_series(self, monkeypatch, coeffs, mismatch):
        # the builder hands the class (8, 0) of this series to the scan as
        # the (2, 15) family mod 5, built once to the order the scan needs
        given = TruncatedSeries(mod_ring(5), coeffs)
        builds = []

        def build(s, t, order, ring, step, residue):
            builds.append((s, t, ring.modulus, order, step, residue))
            return given.truncate(order).extract(step, residue)

        monkeypatch.setattr(verify_mod, "bipartition_series", build)
        check = CongruenceCheck("given", (2, 15), (8, 0), None, 5, 10)
        rep = run_check(check)
        assert builds == [(2, 15, 5, 8 * 9 + 1, 8, 0)]
        assert (rep.status, rep.order, rep.mismatch) == \
            ("pass" if mismatch is None else "fail", 10, mismatch)

    def test_perturbation_fails_at_position(self):
        check = CongruenceCheck("b1", (2, 15), (9, 8), None, 5, 50)
        rep = run_check(check, perturb=11)
        assert rep.status == "fail"
        assert rep.mismatch["index"] == 11

    def test_progression_validation(self):
        for lhs, rhs, side in [((0, 8), None, "left"),
                               ((9, 8), (0, 2), "right"),
                               ((9, 8), (3, -1), "right")]:
            with pytest.raises(ValueError, match=f"^{side} progression"):
                CongruenceCheck("bad", (2, 15), lhs, rhs, 5, 10)


def test_binomial_check_runs_on_its_own():
    check = REGISTRY["eq-k1"].checks[0]  # the p = 2 link
    assert run_check(check, order=50).status == "pass"
    rep = run_check(check, order=50, perturb=4)
    assert (rep.status, rep.mismatch["index"]) == ("fail", 4)


PRIMES = (2, 3, 5, 7, 11, 13, 17)


class TestBinomialLinks:
    """eq-k1, f_p = f_1^p (mod p), is one identity link per prime."""

    def test_one_link_per_prime(self):
        item = REGISTRY["eq-k1"]
        assert item.kind == "binomial"
        assert item.checks == tuple(
            IdentityCheck(f"eq-k1/p={p}", f"f{p}", f"f1^{p}", p, 500)
            for p in PRIMES)

    @pytest.mark.parametrize("order", [500, 600])
    def test_link_sides_are_f_p_and_the_power_of_f_1(self, order):
        for check, p in zip(REGISTRY["eq-k1"].checks, PRIMES):
            ring = mod_ring(p)
            assert run_pipeline(check.lhs, ring, order).coeffs == \
                euler_f(p, order, ring).coeffs
            assert run_pipeline(check.rhs, ring, order).coeffs == \
                (euler_f(1, order, ring) ** p).coeffs

    def test_a_failing_prime_is_named_by_its_link(self):
        rep = run_item(REGISTRY["eq-k1"], order=50, perturb=4)
        assert (rep.status, rep.order) == ("fail", 50)
        assert rep.mismatch == {"index": 4, "lhs": 1, "rhs": 0,
                                "link": "eq-k1/p=2"}

    @pytest.mark.parametrize("order", [None, 600])
    def test_report_fields_do_not_move(self, order):
        rep = run_item(REGISTRY["eq-k1"], order=order).as_dict()
        del rep["millis"]
        assert rep == {"id": "eq-k1", "status": "pass",
                       "order": order or 500, "mismatch": None}


@pytest.mark.parametrize("fields, message", [
    ({"step": 0}, "step must be positive, got 0"),
    ({"step": -2}, "step must be positive, got -2"),
    ({"step": 3, "residue": 3}, "residue must lie in [0, 3), got 3"),
    ({"residue": -1}, "residue must lie in [0, 1), got -1"),
    ({"modulus": 1}, "modulus must be 0 or >= 2, got 1"),
    ({"modulus": -5}, "modulus must be 0 or >= 2, got -5"),
    ({"order": 0}, "order must be at least 1, got 0"),
], ids=["step-0", "step-negative", "residue-at-step", "residue-negative",
        "modulus-1", "modulus-negative", "order-0"])
def test_identity_check_rejects_a_bad_record_when_built(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IdentityCheck("x", "f1", "f1", **fields)


@pytest.mark.parametrize("fields, message", [
    ({"family": (1, 15)}, "regularity indices must exceed 1, got (1, 15)"),
    ({"family": (2, 0)}, "regularity indices must exceed 1, got (2, 0)"),
    ({"modulus": 1}, "modulus must be >= 2, got 1"),
    ({"modulus": 0}, "modulus must be >= 2, got 0"),
    ({"count": 0}, "count must be at least 1, got 0"),
], ids=["s-1", "t-0", "modulus-1", "modulus-0", "count-0"])
def test_congruence_check_rejects_a_bad_record_when_built(fields, message):
    record = {"name": "x", "family": (2, 15), "lhs": (9, 8), "rhs": None,
              "modulus": 5, "count": 10, **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CongruenceCheck(**record)


@pytest.fixture
def builds_nothing(monkeypatch):
    """Fail any family build or expression parse, so that a plan the
    budget should refuse allocates nothing when it is not refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(verify_mod, "bipartition_series", refuse)
    monkeypatch.setattr(verify_mod, "parse_expr", refuse)


class TestBudget:
    """Families refuses an over-budget plan before anything is built, for
    every library entry point."""

    # B_{27,11}(243n + 201) for n below 10**6 needs order 242,999,959
    @pytest.mark.parametrize("run", [
        lambda: run_check(CongruenceCheck("x", (27, 11), (243, 201), None,
                                          11, 10 ** 6)),
        lambda: run_item(REGISTRY["b2711-m5"], count=10 ** 6),
        lambda: run_registry("b2711", count=10 ** 6),
    ], ids=["run_check", "run_item", "run_registry"])
    def test_scan_past_the_cap(self, builds_nothing, run):
        message = (f"scan needs series order 242999959, above the cap of "
                   f"{verify_mod.SCAN_ORDER_CAP}; lower the count")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            run()

    def test_seed_past_the_index_range(self, builds_nothing):
        seed = seed_order_for(10 ** 30, 5, 4)
        with pytest.raises(OverflowError, match=f"^series order {seed} is "
                                                "past the index range$"):
            run_item(REGISTRY["eq-j1"], order=10 ** 30)

    @pytest.mark.parametrize("setting", [
        {"order": 10 ** 30}, {"order": 60}, {"count": 10 ** 6},
        {"order": 60, "count": 10}], ids=["past-index", "order", "count",
                                          "both"])
    def test_a_store_owns_the_order_and_count(self, builds_nothing,
                                              setting):
        # The store's budget checks saw the order and count it was
        # planned with, so an item run with it reads those and refuses
        # any other, before anything is parsed or built.
        store = Families(REGISTRY["eq-j1"].checks)
        with pytest.raises(ValueError, match="^order and count are the "
                                             "store's; pass neither$"):
            run_item(REGISTRY["eq-j1"], families=store, **setting)

    def test_an_item_runs_to_its_stores_order(self):
        store = Families(REGISTRY["eq-j1"].checks, order=40)
        assert run_item(REGISTRY["eq-j1"], families=store).order == 40
        store = Families(REGISTRY["b215-b1"].checks, count=30)
        assert run_item(REGISTRY["b215-b1"], families=store).order == 30

    def test_cap_boundary(self):
        # plans only: a progression (1, 0) to count n needs order n
        cap = verify_mod.SCAN_ORDER_CAP
        at_cap = CongruenceCheck("x", (2, 15), (1, 0), None, 5, cap)
        assert Families((at_cap,)).plans == {(2, 15, 5): (cap, 1, 0)}
        with pytest.raises(OverflowError, match=f"order {cap + 1}, above"):
            Families((at_cap,), count=cap + 1)


@pytest.fixture
def family_builds(monkeypatch):
    """(s, t, modulus, order, step, residue) of every family build."""
    builds = []
    build = verify_mod.bipartition_series

    def counted(s, t, order, ring, step, residue):
        builds.append((s, t, ring.modulus, order, step, residue))
        return build(s, t, order, ring, step, residue)

    monkeypatch.setattr(verify_mod, "bipartition_series", counted)
    return builds


class TestFamilyPlan:
    def test_count_override_sets_build_order(self, family_builds, capsys):
        assert main(["verify", "--filter", "b215", "--count", "50"]) == 0
        # the deepest b215 progression is 27n+23; all of them read 3n+2
        assert family_builds == [(2, 15, 5, 27 * 49 + 23 + 1, 3, 2)]

    def test_no_scans_no_builds(self, family_builds, capsys):
        assert Families(check for item in select_items("lemmas")
                        for check in item.checks).plans == {}
        assert main(["verify", "--filter", "lemmas", "--order", "30"]) == 0
        assert family_builds == []

    def test_one_class_per_family(self):
        # the gcd of every step and offset difference a family's scans read
        # (order, step, residue) per (s, t, modulus)
        assert Families(check for item in select_items(None)
                        for check in item.checks).plans == {
            (2, 15, 5): (27 * 999 + 23 + 1, 3, 2),
            (27, 11, 11): (243 * 399 + 201 + 1, 27, 12),
            (243, 17, 17): (81 * 299 + 77 + 1, 27, 23)}

    def test_reads_slice_one_build(self, family_builds):
        b3, m0 = REGISTRY["b215-b3"].checks + REGISTRY["thm-y-m0"].checks
        families = Families((b3, m0), count=10)
        lhs, rhs = families.read(b3)
        again, _ = families.read(m0)
        whole = bipartition_series(2, 15, 27 * 9 + 23 + 1, mod_ring(5))
        assert list(lhs.coeffs) == list(whole.coeffs[23::27][:10])
        assert list(rhs.coeffs) == list(again.coeffs) == \
            list(whole.coeffs[2::3][:10])
        assert family_builds == [(2, 15, 5, 27 * 9 + 23 + 1, 3, 2)]

    def test_each_run_builds_its_own_families(self, family_builds):
        # the store lives as long as its run: a second run rebuilds
        for _ in range(2):
            assert run_registry("b215", order=60, count=40).all_passed
        assert family_builds == [(2, 15, 5, 27 * 39 + 23 + 1, 3, 2)] * 2

    @pytest.mark.parametrize("check, family", [
        # a family with no plan
        (REGISTRY["b2711-m4"].checks[0], "B_{27,11} mod 11"),
        # a progression off the planned class 8 mod 9
        (CongruenceCheck("off-class", (2, 15), (9, 7), None, 5, 10),
         "B_{2,15} mod 5"),
        # a count past the planned order: the store reads each check's own
        (REGISTRY["b215-b1"].checks[0].replace(count=1001), "B_{2,15} mod 5"),
    ], ids=["unplanned-family", "off-class", "past-order"])
    def test_unplanned_read_is_refused(self, family_builds, check, family):
        families = Families(REGISTRY["b215-b1"].checks)
        with pytest.raises(ValueError, match=re.escape(family)):
            families.read(check)
        assert family_builds == []


class TestRunItem:
    def test_chain_aggregates_links(self):
        rep = run_item(REGISTRY["b2711-chain"], order=60)
        assert rep.status == "pass"
        assert rep.order == 60
        assert CHAIN_NOTE in rep.note

    def test_chain_failure_names_link(self):
        rep = run_item(REGISTRY["b24317-chain"], order=60, perturb=3)
        assert rep.status == "fail"
        assert rep.mismatch["index"] == 3
        assert "link" in rep.mismatch

    def test_notes_flow_into_reports(self):
        rep = run_item(REGISTRY["b711-a3"], order=60)
        assert INDUCTION_NOTE in rep.note

    @pytest.mark.parametrize("item_id, name", [("b215-b1", "count"),
                                               ("eq-2k", "order")])
    def test_nonpositive_input_names_parameter(self, item_id, name,
                                               family_builds):
        with pytest.raises(ValueError,
                           match=f"^{name} must be at least 1, got 0$"):
            run_item(REGISTRY[item_id], **{name: 0})
        assert family_builds == []

    @pytest.mark.parametrize("item_id, setting", [
        ("eq-2k", {"order": 50}),      # identity
        ("b215-chain", {"order": 50}),  # chain
        ("b215-b1", {"count": 10}),     # scan
        ("eq-k1", {"order": 50}),      # binomial
    ])
    def test_perturb_must_lie_in_compared_range(self, item_id, setting,
                                                family_builds):
        item = REGISTRY[item_id]
        with pytest.raises(ValueError,
                           match="^perturb must be at least 0, got -1$"):
            run_item(item, perturb=-1, **setting)
        assert family_builds == []
        (_, n), = setting.items()
        for perturb in (n, 100):
            with pytest.raises(ValueError, match=(
                    f"^perturb must be below the compared order {n}, "
                    f"got {perturb}$")):
                run_item(item, perturb=perturb, **setting)
        rep = run_item(item, perturb=n - 1, **setting)
        assert (rep.status, rep.mismatch["index"]) == ("fail", n - 1)

    @pytest.mark.parametrize("item_id", [
        item.id for item in REGISTRY.values()
        if item.kind == "scan" or any(
            getattr(check, "step", 1) > 1 for check in item.checks)])
    def test_perturbation_fails_class_built_checks(self, item_id):
        # scans read a class build, links evaluate their seeds on a class
        item = REGISTRY[item_id]
        setting = {"count": 8} if item.kind == "scan" else {"order": 30}
        for perturb in (0, 7):
            rep = run_item(item, perturb=perturb, **setting)
            assert (rep.status, rep.mismatch["index"]) == ("fail", perturb)

    def test_congruence_count_checked_before_build(self, family_builds):
        with pytest.raises(ValueError, match="^count must be at least 1"):
            run_check(REGISTRY["b215-b1"].checks[0], count=0)
        assert family_builds == []


class TestRunRegistry:
    def test_family_filter_runs_six_items(self):
        run = run_registry("b215", order=60, count=40)
        assert len(run.reports) == 6
        assert run.all_passed
        assert [r.id for r in run.reports] == sorted(r.id for r in run.reports)

    def test_order_override_reflected(self):
        run = run_registry("eq-4w", order=80)
        assert run.reports[0].order == 80

    @pytest.mark.parametrize("kwargs", [{"count": -1}, {"order": 0}])
    def test_nonpositive_input_rejected_before_planning(self, kwargs,
                                                        family_builds,
                                                        monkeypatch):
        def no_plan(*args):
            raise AssertionError("planned despite bad input")

        monkeypatch.setattr(verify_mod, "Families", no_plan)
        (name, value), = kwargs.items()
        with pytest.raises(ValueError,
                           match=f"^{name} must be at least 1, got {value}$"):
            run_registry(**kwargs)
        assert family_builds == []

    def test_report_dict_fields(self):
        run = run_registry("eq-2k", order=60)
        d = run.reports[0].as_dict()
        assert set(d) >= {"id", "status", "order", "mismatch", "millis"}
        assert d["status"] == "pass"

    def test_full_registry_passes_at_default_settings(self, family_builds):
        run = run_registry()
        # one build per family, at the order of its deepest scan, on the
        # class all its scans read
        assert sorted(family_builds) == [
            (2, 15, 5, 27 * 999 + 23 + 1, 3, 2),
            (27, 11, 11, 243 * 399 + 201 + 1, 27, 12),
            (243, 17, 17, 81 * 299 + 77 + 1, 27, 23)]
        assert len(run.reports) == len(EXPECTED_IDS)
        assert run.all_passed
        ids = [r.id for r in run.reports]
        assert ids == sorted(ids)
        by_id = {r.id: r for r in run.reports}
        assert by_id["b215-chain"].order >= 100
        assert by_id["eq-k1"].order == 500
        # the reports the program gave when the benchmark was defined
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "reference.json")
        with open(path) as fh:
            reference = json.load(fh)["registry"]
        assert [[r.id, r.status, r.order, r.mismatch, r.note]
                for r in run.reports] == reference


@pytest.fixture
def plans(monkeypatch):
    """The atoms, order, ring and class of every record with no rest
    factor that a syntax-tree record asks the planner for; the planner's
    own inner calls and those of septic_ABC are not counted.  The atoms
    are the record's own: the planner's exponents omit its factors, such
    as a(q) and a(q^3)."""
    keys = []
    eta_quotient = qfunctions.eta_quotient
    record_plan = qexpr._Quotient._plan.__code__

    def planner(exponents, order, ring, factors=(), step=1, residue=0):
        caller = sys._getframe(1)
        if (caller.f_code is record_plan
                and not caller.f_locals["self"].rest):
            atoms = caller.f_locals["self"].atoms
            keys.append((frozenset((k, e) for k, e in atoms.items() if e),
                         order, ring, step, residue))
        return eta_quotient(exponents, order, ring, factors, step, residue)

    monkeypatch.setattr(qfunctions, "eta_quotient", planner)
    return keys


class TestRecordMemo:
    """One verification run plans each record with no rest factor once,
    in a memo its family store owns; nothing outlives the run."""

    def test_each_record_is_planned_once_per_run(self, plans, capsys):
        assert main(["verify"]) == 0
        assert len(plans) == len(set(plans))
        once = set(plans)
        # the B_{7,11} link triples and eq-15's septic combinations
        # (those of eq-9p and eq-10p) repeat records across items, which
        # items run with a store each plan again
        plans.clear()
        for item in select_items(None):
            run_item(item)
        assert set(plans) == once and len(plans) > len(once)

    def test_a_shared_memo_changes_no_series(self):
        records = {}
        for text in ("f2*f15/f1^2", "q*f2*f15/f1^2", "3*q^2*f7^5/f1",
                     "A*B^2/C^3 + q*f1^4/f7^4"):
            tree = parse_expr(text)
            for ring in (EXACT, mod_ring(5), mod_ring(7)):
                for order in (40, 41):
                    for step in (1, 2, 3):
                        for residue in range(step):
                            ctx = EvalContext(order, ring, step, residue)
                            want = evaluate(tree, ctx)
                            for _ in range(2):  # planned, then read back
                                assert evaluate(tree, ctx.replace(
                                    records=records)) == want
        assert records

    def test_runs_share_nothing(self, plans):
        assert run_registry("eq-").all_passed
        first = sorted(plans, key=repr)
        plans.clear()
        assert run_registry("eq-").all_passed
        assert sorted(plans, key=repr) == first
        a, b = Families(()), Families(())
        assert a.records == {} and a.records is not b.records

    def test_expand_and_library_calls_keep_no_memo(self, monkeypatch, capsys):
        memos = []
        series = qexpr._Quotient.series

        def record_series(record, ring, step=1, residue=0, records=None):
            memos.append(records)
            return series(record, ring, step, residue, records)

        monkeypatch.setattr(qexpr._Quotient, "series", record_series)
        assert main(["expand", "f2*f15/f1^2 + A*B^2/C^3", "--order", "40",
                     "--mod", "5"]) == 0
        evaluate_text("f1^4/f7^4 + 8*q", 40, mod_ring(7))
        assert memos and memos == [None] * len(memos)


class TestCrossChecks:
    def test_septic_lemma_reduction_matches_chain_start(self):
        # the exact three-term form, reduced mod 11, is the first chain triple
        n = 80
        exact = evaluate_text(
            "f1*(-90*f1^8*f7 - 882*q*f1^4*f7^5 - 2401*q^2*f7^9)", n)
        reduced = exact.reduce_mod(11)
        triple = evaluate_text(
            "9*f7*f1^9 + 9*q*f7^5*f1^5 + 8*q^2*f7^9*f1", n, mod_ring(11))
        assert reduced == triple

    def test_chain_seed_is_the_family_itself(self):
        # f27*f1^9 mod 11 really is the (27,11) bipartition series mod 11
        n = 150
        ring = mod_ring(11)
        seed = evaluate_text("f27*f1^9", n, ring)
        family = bipartition_series(27, 11, n, ring)
        assert seed == family

    def test_b52_substitution_identity(self):
        rep = run_item(REGISTRY["eq-b52"], order=150)
        assert rep.status == "pass"

    def test_euler_pth_power_reduction(self):
        for p in (3, 5):
            assert euler_f(p, 120, mod_ring(p)) == \
                euler_f(1, 120, mod_ring(p)) ** p

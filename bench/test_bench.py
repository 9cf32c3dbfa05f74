"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/test_bench.py -q

They take about a minute: the count test runs every workload traced twice.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import EXACT_COUNTS, mul_terms, quotient_terms  # noqa: E402
from workloads import (EXPECTED_LAYERS, WORKLOADS, Request,  # noqa: E402
                       _observe_expand, load_reference, report_record,
                       requests, run_cli, select_expand)

from qseries import verify  # noqa: E402
from qseries.series import EXACT, TruncatedSeries, mod_ring  # noqa: E402


def test_expand_digest_catches_one_unit_perturbation():
    entry = min(load_reference()["expand"], key=lambda e: e["work"])
    rc, text = run_cli(["expand", entry["expr"], "--order", str(entry["order"]),
                        "--format", "json"])
    req = Request(entry["expr"], None, _observe_expand, [entry["sha256"]])
    assert req.failures((rc, text)) == 0
    doc = json.loads(text)
    doc["coeffs"][len(doc["coeffs"]) // 2] += 1
    assert req.failures((rc, json.dumps(doc))) == 1


def test_report_check_catches_one_unit_perturbation():
    reference = {r[0]: r for r in load_reference()["identities"]}
    item = verify.REGISTRY["eq-3k"]
    ok = verify.run_item(item, order=600)
    bad = verify.run_item(item, order=600, perturb=7)
    req = Request(item.id, None, lambda rep: [report_record(rep.as_dict())],
                  [reference[item.id]])
    assert req.failures(ok) == 0
    assert req.failures(bad) == 1


def test_registry_check_counts_each_changed_report():
    req = requests("registry", 0, load_reference())[0]
    lines = [json.dumps({"id": r[0], "status": r[1], "order": r[2],
                         "mismatch": r[3], "millis": 1.0,
                         **({"note": r[4]} if r[4] is not None else {})})
             for r in req.expected]
    assert req.failures((0, "\n".join(lines))) == 0
    assert req.failures((0, "\n".join(lines[:-1]))) == 1  # a missing report
    lines[3] = lines[3].replace('"pass"', '"fail"')
    assert req.failures((1, "\n".join(lines))) == 2  # the report and the exit code


def test_expand_selection_is_seeded_and_stratified():
    pool = load_reference()["expand"]
    a, b = select_expand(pool, 5), select_expand(pool, 5)
    assert a == b and a != select_expand(pool, 6)
    assert len({e["expr"] for e in a}) == len(a) == 24


def _kernel_counts(a, b):
    """Multiply-adds of the series kernels, counted by replaying their loops."""
    n = min(a.order, b.order)
    anz = [(i, v) for i, v in enumerate(a.coeffs[:n]) if v]
    bnz = [(j, w) for j, w in enumerate(b.coeffs[:n]) if w]
    if len(bnz) < len(anz):
        anz, bnz = bnz, anz
    mul = sum(1 for i, _ in anz for j, _ in bnz if j < n - i)
    dnz = [k for k, v in enumerate(b.coeffs[:n]) if v and k > 0]
    div = sum(1 for i in range(n) for k in dnz if k <= i)
    return mul, div


@pytest.mark.parametrize("ring", [EXACT, mod_ring(11)])
def test_work_counts_match_the_kernel_loops(ring):
    rng = random.Random(7)
    for _ in range(20):
        a = TruncatedSeries(ring, [rng.choice((0, 0, 1, -2, 3)) for _ in range(rng.randint(1, 40))])
        b = TruncatedSeries(ring, [1] + [rng.choice((0, 0, 0, 1, 5)) for _ in range(rng.randint(0, 40))])
        mul, div = _kernel_counts(a, b)
        assert mul_terms(a, b) == mul
        n = min(a.order, b.order)
        assert quotient_terms(b.coeffs, 0, n) == div


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_passes_check_outputs_cover_layers_and_repeat_counts(workload):
    passes = []
    for _ in range(2):
        result, error = run.spawn([workload, "--seed", "11", "--trace", "1"], 170)
        assert not error
        passes.append(result)
    for result in passes:
        assert result["failed"] == 0  # tracing changes no output
        assert EXPECTED_LAYERS[workload] <= set(result["seen"])
        assert result["layers"]["trace.coverage"] >= run.MIN_COVERAGE
    for name in EXACT_COUNTS:
        assert passes[0]["layers"][name] == passes[1]["layers"][name], name


def test_run_without_program_sources_fails_without_a_result():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "expand", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Benchmark runner for qseries: one workload, cold processes, checked outputs.

    python3 bench/run.py --workload registry|identities|expand|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The runner first times ``import qseries``
in SETUP_SAMPLES fresh processes (after one warm-up that leaves the
bytecode cache filled, as an installed package has it).  Then, for
``--seconds`` seconds, it starts one cold child process after another,
each running one pass of the workload; a child that starts before the
time is up runs to its end.  Every output is checked against
``bench/reference.json``.

With ``--trace 0`` it reports the end-to-end metrics: the median wall
time of a pass (``wall_s``), the median set-up time (``setup_s``) and the
median peak RSS of a pass (``peak_rss_mb``).  With ``--trace 1`` the
first pass runs untraced and every later one traced, and it reports the
per-layer metrics of the traced passes (times are medians; counts must
be identical in every traced pass).  A workload's output ends with one
JSON line with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the last line of stdout, unless ``--workload all`` runs the
three workloads one after another); the lines before it give every
metric with its unit, the failure ratio and the provenance.  Detailed results and
the spans of the last traced pass are written under ``.bench_out/``.

Exit code 0 whenever a result is printed; 2 without one, when the
qseries sources or the reference are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import EXPECTED_LAYERS, REFERENCE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
MIN_COVERAGE = 0.90
DEADLINE_S = 170.0  # a run ends within 180 s, whatever the machine does

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def provenance() -> dict:
    """Where the numbers come from; runs on different machines differ."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qseries")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "loadavg_at_start": os.getloadavg(),
    }


def spawn(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run one child to completion; returns (its result, an error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"child {args[0]} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"child {args[0]} printed no result: {proc.stderr[-2000:]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qseries", "__init__.py")):
        print(f"error: no qseries sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"error: missing reference outputs {REFERENCE}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)
    return 0


def run_workload(workload: str, args: argparse.Namespace) -> None:
    """Measure one workload and print its metrics, ending with the result line."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    prov = provenance()
    errors: list[str] = []

    def child(child_args):
        result, error = spawn(child_args, deadline - time.monotonic())
        if error:
            errors.append(error)
            print(error, file=sys.stderr)
        return result

    setup = []
    child(["setup"])  # warm-up: fills the bytecode cache
    for _ in range(SETUP_SAMPLES if not args.trace else 0):
        result = child(["setup"])
        if result is not None:
            setup.append(result["setup_s"])

    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
    passes, traced = [], []
    attempted = failed = 0
    t_measure = time.monotonic()
    # A pass starts only if, at the mean pass time so far, it ends within
    # --seconds; there is always one pass, and with --trace 1 one traced
    # pass after it.
    while True:
        now = time.monotonic()
        done = passes + traced
        mean_s = (now - t_measure) / len(done) if done else 0.0
        if done and not (args.trace and not traced) \
                and now + mean_s > t_measure + args.seconds:
            break
        if now + mean_s >= deadline:
            break
        trace = 1 if args.trace and passes else 0
        child_args = [workload, "--seed", str(args.seed), "--trace", str(trace)]
        if trace:
            child_args += ["--spans", spans_path]
        result = child(child_args)
        if result is None:
            attempted += 1
            failed += 1
            break
        attempted += result["attempted"]
        failed += result["failed"]
        if result["failed"]:
            errors.append(f"{result['failed']} failed: {result['failures']}")
        (traced if trace else passes).append(result)

    correct = not errors and failed == 0
    if args.trace:
        metrics, problems = layer_report(workload, passes, traced)
        errors += problems
        correct = correct and not problems
        units = LAYER_METRICS
    else:
        metrics = {
            "wall_s": pass_wall(passes),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)
            if passes else 0.0,
        }
        units = END_TO_END
        correct = correct and bool(setup) and bool(passes)

    print(f"provenance {json.dumps(prov)}")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload} {name} = {shown} {units[name]}")
    print(f"{workload} fail_ratio = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} requests failed)")
    if not args.trace:
        print(f"{workload} passes = {len(passes)}, setup samples = {len(setup)}")
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"provenance": prov, "args": {**vars(args), "workload": workload},
                   "errors": errors, "setup_s": setup, "passes": passes,
                   "traced": traced, "result": line}, fh, indent=1)
    print(json.dumps(line))


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass: the median time of each segment (a request,
    or a registry item) over the passes, summed over the segments.
    Contention from other processes on the machine comes in bursts of
    seconds; per-segment medians keep a burst that hits one pass out of
    the figure better than the median of whole passes does."""
    if not passes:
        return 0.0
    return sum(statistics.median(times)
               for times in zip(*(p["segment_s"] for p in passes)))


def layer_report(workload: str, passes: list[dict],
                 traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and any self-check problem."""
    problems = []
    if not traced or not passes:
        return {name: 0.0 for name in LAYER_METRICS}, ["no traced pass completed"]
    for result in traced:
        missing = EXPECTED_LAYERS[workload] - set(result["seen"])
        if missing:
            problems.append(f"no spans recorded for {sorted(missing)}")
        if result["layers"]["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"trace coverage {result['layers']['trace.coverage']:.3f} "
                            f"below {MIN_COVERAGE}")
    for name in EXACT_COUNTS:
        values = {result["layers"][name] for result in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            continue
        values = [result["layers"][name] for result in traced]
        exact = unit in ("count", "coeffs")  # the same in every traced pass
        metrics[name] = values[0] if exact else statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(p["wall_s"] for p in passes))
    return {name: metrics[name] for name in LAYER_METRICS}, problems


if __name__ == "__main__":
    sys.exit(main())

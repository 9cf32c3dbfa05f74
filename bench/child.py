"""One cold benchmark process: import qseries, run one pass of a workload.

    PYTHONPATH=src python3 bench/child.py WORKLOAD --seed N --trace 0|1 \
        --spawned T [--spans PATH]
    PYTHONPATH=src python3 bench/child.py setup --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the child reports when ``import qseries`` completed on the
same clock, so the parent gets the set-up time from process start.  The
last line of stdout is one JSON object with the pass's wall time, the
number of requests attempted and failed, the peak RSS and, when traced,
the per-layer metrics and the layers that recorded spans.
"""

import sys
import time

import qseries  # noqa: F401  (the set-up being timed)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference, requests  # noqa: E402


def run_pass(workload: str, seed: int, tracer: Tracer | None) -> dict:
    """Time every request of one pass, then check every output."""
    todo = requests(workload, seed, load_reference())
    outputs = []
    request_s = []
    segment_s = []
    cpu0 = time.process_time()
    for req in todo:
        if tracer is not None:
            tracer.request = req.label
        t0 = time.perf_counter()
        try:
            raw = req.call()
        except Exception as exc:  # a crashing request fails, the pass goes on
            raw = exc
        request_s.append(time.perf_counter() - t0)
        segment_s += req.split(request_s[-1])
        outputs.append(raw)
    cpu = time.process_time() - cpu0
    wall = sum(request_s)
    attempted = failed = 0
    failures = []
    bytes_out = 0
    for req, raw in zip(todo, outputs):
        attempted += len(req.expected)
        bad = len(req.expected)
        if not isinstance(raw, Exception):
            if isinstance(raw, tuple):
                bytes_out += len(raw[1].encode())
            try:
                bad = req.failures(raw)
            except (ValueError, KeyError, TypeError, AttributeError):
                pass  # unreadable output: every entry failed
        if bad:
            failed += bad
            failures.append(req.label)
    result = {"wall_s": wall, "segment_s": segment_s, "cpu_s": cpu,
              "attempted": attempted,
              "failed": failed, "failures": failures[:5],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.bytes_out = bytes_out
        result["layers"] = tracer.layer_metrics(wall)
        result["layers"]["proc.cpu_s"] = cpu
        result["seen"] = sorted(tracer.layers_seen())
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS + ("setup",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.workload == "setup":
        result = {"setup_s": IMPORTED_AT - args.spawned}
    else:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result = run_pass(args.workload, args.seed, tracer)
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

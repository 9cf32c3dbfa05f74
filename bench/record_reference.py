"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record_reference.py

It writes ``bench/reference.json``: the (id, status, order, mismatch,
note) record of every report of the ``registry`` and ``identities``
workloads, and for every expression of the ``expand`` pool its order,
the sha256 of its coefficients and its work in multiply-adds, which
``workloads.select_expand`` stratifies on.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer
from workloads import (IDENTITY_ORDER, REFERENCE, coeff_digest, generate_pool,
                       report_record, run_cli)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from qseries import verify

    rc, text = run_cli(["verify", "--format", "json"])
    registry = [report_record(json.loads(line)) for line in text.splitlines()]
    identities = [report_record(verify.run_item(item, order=IDENTITY_ORDER).as_dict())
                  for item in verify.select_items(None) if item.kind != "scan"]
    expand = []
    for entry in generate_pool():
        since = len(tracer.spans)
        code, out = run_cli(["expand", entry["expr"], "--order",
                             str(entry["order"]), "--format", "json"])
        if code != 0:
            raise SystemExit(f"expand failed on {entry['expr']!r}")
        expand.append({**entry, "sha256": coeff_digest(json.loads(out)["coeffs"]),
                       "work": tracer.work(since)})
    failing = [r[0] for r in registry + identities if r[1] != "pass"]
    if rc != 0 or failing:
        raise SystemExit(f"reference items do not pass: {failing}")
    with open(REFERENCE, "w") as fh:
        json.dump({"registry": registry, "identities": identities,
                   "expand": expand}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(registry)} registry, {len(identities)} "
          f"identity and {len(expand)} expand references")
    return 0


if __name__ == "__main__":
    sys.exit(main())

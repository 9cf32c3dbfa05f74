"""The three benchmark workloads, their inputs and their correctness checks.

Every workload is a closed loop: one caller, and each request starts when
the previous one returns.  A request yields a list of observations that
is compared, entry by entry, with the reference outputs of the program
as first released (``reference.json``); every entry that differs counts
as one failed request.

* ``registry``  — ``qseries verify --format json`` over all 45 items at
  their default orders and counts, through ``cli.main``.  Scan-heavy:
  Z/m division by the sparse f_1 at N up to 97,159, plus the family
  cache reused across items.  Fixed by the registry; the seed is unused.
* ``identities`` — ``verify.run_item(item, order=600)`` for the 36
  identity, chain and binomial items.  Multiplication-heavy, with
  repeated ``evaluate`` of shared subtrees; division and family builds
  take almost nothing.  The seed is unused.
* ``expand`` — exact-ring ``qseries expand EXPR --order N --format json``
  through ``cli.main`` for random eta quotients: big-integer
  coefficients and dense divisors.  The seed picks the requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("registry", "identities", "expand")

# Layers each workload must record spans in when traced: the layers whose
# metrics are expected to move that workload's wall time.  A layer with
# no span means a wrapper missed its binding.
_IDENTITY_LAYERS = {
    "series.mul", "series.div", "series.pow", "series.linear",
    "series.extract", "qfunctions.euler_f", "qfunctions.theta",
    "qfunctions.septic", "qexpr.parse", "qexpr.evaluate", "verify.item",
    "verify.pipeline", "verify.compare",
}
EXPECTED_LAYERS = {
    "registry": _IDENTITY_LAYERS | {"qfunctions.bipartition", "verify.family",
                                    "cli"},
    "identities": _IDENTITY_LAYERS,
    "expand": {"series.mul", "series.div", "series.pow", "qfunctions.euler_f",
               "qexpr.parse", "qexpr.evaluate", "cli"},
}
IDENTITY_ORDER = 600

# The expand pool: random eta quotients drawn once from POOL_SEED and
# recorded with their digests.  A run takes one request from each of
# EXPAND_REQUESTS strata of the pool sorted by work (multiply-adds), so
# that every seed asks for about the same amount of work.
POOL_SEED = 20190818
POOL_SIZE = 192
EXPAND_REQUESTS = 24
EXPAND_ORDERS = (3000, 4000)


def eta_quotient(rng: random.Random) -> str:
    """A product or quotient of f_k^e with k <= 24 and 1 <= |e| <= 4."""
    ks = rng.sample(range(2, 25), rng.randint(2, 4))
    if rng.random() < 0.5:
        ks[0] = 1  # dense f_1 powers: the costly divisors
    num, den = [], []
    for k in ks:
        e = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        (num if e > 0 else den).append(f"f{k}" + (f"^{abs(e)}" if abs(e) > 1 else ""))
    text = "*".join(num) or "1"
    if den:
        text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return text


def generate_pool() -> list[dict]:
    """The expand pool's expressions and orders; about 40% are two-term
    sums with a q shift."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        order = rng.randint(*EXPAND_ORDERS)
        expr = eta_quotient(rng)
        if rng.random() < 0.4:
            sign = rng.choice("+-")
            expr = f"{expr} {sign} q^{rng.randint(1, 6)}*({eta_quotient(rng)})"
        pool.append({"expr": expr, "order": order})
    return pool


def select_expand(pool: list[dict], seed: int) -> list[dict]:
    """One request per work stratum of the pool, in a seeded order."""
    rng = random.Random(seed)
    ranked = sorted(pool, key=lambda entry: (entry["work"], entry["expr"]))
    size = len(ranked) // EXPAND_REQUESTS
    picks = [ranked[i * size + rng.randrange(size)]
             for i in range(EXPAND_REQUESTS)]
    rng.shuffle(picks)
    return picks


def coeff_digest(coeffs) -> str:
    """sha256 of the coefficient list, written as decimal integers."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def report_record(report: dict) -> list:
    """The fields of a verification report that must not change."""
    return [report["id"], report["status"], report["order"],
            report["mismatch"], report.get("note")]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout captured; returns (exit code, text)."""
    from qseries import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Request:
    """One closed-loop request.

    ``call()`` does the timed work and returns its raw output;
    ``observe(raw)`` turns that output into the list compared with
    ``expected`` after the clock has stopped.  ``split(seconds)`` divides
    the request's time into segments that are the same in every pass.
    """

    def __init__(self, label, call, observe, expected, split=None):
        self.label = label
        self.call = call
        self.observe = observe
        self.expected = expected
        self.split = split or (lambda seconds: [seconds])

    def failures(self, raw) -> int:
        """Entries that differ from the reference, at most len(expected)."""
        seen = self.observe(raw)
        bad = sum(a != b for a, b in zip(seen, self.expected))
        bad += abs(len(seen) - len(self.expected))
        return min(bad, len(self.expected))


def _observe_verify(raw):
    rc, text = raw
    seen = [report_record(json.loads(line)) for line in text.splitlines()]
    return seen if rc == 0 else seen + [["exit", rc]]


def _observe_expand(raw):
    rc, text = raw
    return [coeff_digest(json.loads(text)["coeffs"]) if rc == 0 else ["exit", rc]]


def _verify_request(expected: list) -> Request:
    """The single ``qseries verify`` request, timed item by item.

    Two clock reads around each of the 45 ``cli.run_item`` calls split the
    request into per-item segments plus the rest, so that a pass's time
    can be estimated from per-item medians over the passes of a run.
    """
    from qseries import cli

    item_s: list[float] = []
    run_item = cli.run_item

    def timed_run_item(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_item(*args, **kwargs)
        finally:
            item_s.append(time.perf_counter() - t0)

    cli.run_item = timed_run_item
    return Request("verify", lambda: run_cli(["verify", "--format", "json"]),
                   _observe_verify, expected,
                   split=lambda seconds: item_s + [seconds - sum(item_s)])


def requests(workload: str, seed: int, reference: dict) -> list[Request]:
    """The requests of one pass of a workload."""
    if workload == "registry":
        return [_verify_request(reference["registry"])]
    if workload == "identities":
        from qseries import verify

        out = []
        for expected in reference["identities"]:
            item = verify.REGISTRY[expected[0]]
            out.append(Request(
                item.id,
                lambda item=item: verify.run_item(item, order=IDENTITY_ORDER),
                lambda rep: [report_record(rep.as_dict())], [expected]))
        return out
    if workload == "expand":
        out = []
        for entry in select_expand(reference["expand"], seed):
            argv = ["expand", entry["expr"], "--order", str(entry["order"]),
                    "--format", "json"]
            out.append(Request(entry["expr"], lambda argv=argv: run_cli(argv),
                               _observe_expand, [entry["sha256"]]))
        return out
    raise ValueError(f"unknown workload {workload!r}")

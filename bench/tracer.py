"""Outside-in span recorder for the qseries benchmark.

The recorder wraps the public functions of ``series``, ``qfunctions``,
``qexpr``, ``verify`` and ``cli`` from the outside: nothing in the program
changes.  Functions are patched where their names are bound (for example
``verify.euler_f`` as well as ``qfunctions.euler_f``), so that every call
site reaches the same wrapper.

A span is ``[name, start_ns, end_ns, parent, request, info]``; spans are
kept in memory and written out once, when the run ends.  A layer's self
time is its span time minus the time covered by its direct child spans.
Work counts (multiply-adds, distinct evaluation keys, family builds) are
computed from the operands after each call, inside a ``trace`` span of
its own, so the bookkeeping never counts as time of a program layer.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_left
from collections import Counter
from time import perf_counter_ns

TRACE = "trace"  # bookkeeping spans: tracer work, not program work

# The evaluate node kinds reported one by one.
EVAL_KINDS = ("Mul", "Div", "Pow", "Euler", "Septic", "Subst", "CubicA")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "series.mul.calls": "count",
    "series.mul.terms": "count",
    "series.mul.self_s": "s",
    "series.mul.ns_per_term": "ns",
    "series.mul.exact_s": "s",
    "series.mul.mod_s": "s",
    "series.div.calls": "count",
    "series.div.terms": "count",
    "series.div.self_s": "s",
    "series.div.ns_per_term": "ns",
    "series.div.exact_s": "s",
    "series.div.mod_s": "s",
    "series.div.max_order": "coeffs",
    "series.pow.calls": "count",
    "series.pow.self_s": "s",
    "series.linear.self_s": "s",
    "series.extract.calls": "count",
    "series.extract.self_s": "s",
    "qfunctions.euler_f.calls": "count",
    "qfunctions.euler_f.self_s": "s",
    "qfunctions.theta.self_s": "s",
    "qfunctions.septic.calls": "count",
    "qfunctions.septic.total_s": "s",
    "qfunctions.bipartition.calls": "count",
    "qfunctions.bipartition.total_s": "s",
    "qfunctions.bipartition.max_order": "coeffs",
    "qexpr.parse.calls": "count",
    "qexpr.parse.s": "s",
    "qexpr.evaluate.calls": "count",
    "qexpr.evaluate.distinct": "count",
    "qexpr.evaluate.repeat_ratio": "ratio",
    "qexpr.evaluate.self_s": "s",
    **{f"qexpr.evaluate.{kind}.calls": "count" for kind in EVAL_KINDS},
    "verify.family.calls": "count",
    "verify.family.builds": "count",
    "verify.family.distinct": "count",
    "verify.family.coeffs_built": "coeffs",
    "verify.family.coeffs_needed": "coeffs",
    "verify.family.build_s": "s",
    "verify.pipeline.calls": "count",
    "verify.pipeline.total_s": "s",
    "verify.item.scan_s": "s",
    "verify.item.identity_s": "s",
    "verify.item.chain_s": "s",
    "verify.item.binomial_s": "s",
    "verify.compare.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "proc.cpu_s": "s",
}

# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "series.mul.terms", "series.div.terms",
    "qexpr.evaluate.calls", "qexpr.evaluate.distinct",
    "verify.family.builds", "verify.family.coeffs_built",
)


def _nonzero(coeffs, start=0, stop=None):
    stop = len(coeffs) if stop is None else min(stop, len(coeffs))
    return [i - start for i in range(start, stop) if coeffs[i]]


def mul_terms(a, b) -> int:
    """Inner-loop multiply-adds of ``TruncatedSeries.__mul__(a, b)``.

    The kernel walks the sparser operand's nonzero terms and, for each,
    the other operand's nonzero terms below the truncation order.
    """
    n = min(a.order, b.order)
    anz = _nonzero(a.coeffs, 0, n)
    bnz = _nonzero(b.coeffs, 0, n)
    if len(bnz) < len(anz):
        anz, bnz = bnz, anz
    return sum(bisect_left(bnz, n - i) for i in anz)


def quotient_terms(den, v: int, n: int) -> int:
    """Inner-loop multiply-adds of the quotient recurrence to order n.

    ``den`` are the divisor's coefficients and ``v`` its cancelled
    q-valuation; each nonzero term at offset k >= 1 enters the
    recurrence for the n - k indices i >= k.
    """
    return sum(n - k for k in _nonzero(den, v, v + n) if k)


class Tracer:
    """Spans and counters for one process; install() patches the program."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.eval_keys: set = set()
        self.eval_kinds: Counter = Counter()
        self.family_needed: dict = {}
        self.bytes_out = 0

    # --- recording ------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``after(span, args, result)`` runs once the call returned, inside
        a ``trace`` span that is a sibling of the call's span.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter_ns(), 0, parent, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                book = [TRACE, span[2], 0, parent, self.request, None]
                spans.append(book)
                after(span, args, result)
                book[2] = perf_counter_ns()
            return result

        return traced

    def install(self) -> None:
        """Patch every traced binding of the qseries modules."""
        from qseries import cli, qexpr, qfunctions, series, verify

        ts = series.TruncatedSeries

        def on_mul(span, args, result):
            span[5] = (args[0].ring.modulus != 0, mul_terms(args[0], args[1]))

        def on_divide(span, args, result):
            other = args[1]
            span[5] = (other.ring.modulus != 0, result.order,
                       quotient_terms(other.coeffs, other.valuation() or 0,
                                      result.order))

        def on_invert(span, args, result):
            span[5] = (args[0].ring.modulus != 0, result.order,
                       quotient_terms(args[0].coeffs, 0, result.order))

        traced_mul = self.wrap("series.mul", ts.__mul__, on_mul)
        untraced_mul = ts.__mul__

        def series_mul(a, b):
            # scalar products are linear work, traced inside scalar_mul
            return untraced_mul(a, b) if isinstance(b, int) else traced_mul(a, b)

        ts.__mul__ = series_mul
        methods = {
            "divide": ("series.div", on_divide),
            "invert": ("series.div", on_invert),
            "__pow__": ("series.pow", None),
            **{m: ("series.linear", None) for m in (
                "__add__", "__sub__", "__neg__", "scalar_mul", "shift", "truncate")},
            "extract": ("series.extract", None),
            "substitute_power": ("series.extract", None),
            "first_mismatch": ("verify.compare", None),
        }
        for method, (name, after) in methods.items():
            setattr(ts, method, self.wrap(name, getattr(ts, method), after))

        def on_bipartition(span, args, result):
            span[5] = result.order
            if span[3] >= 0 and self.spans[span[3]][0] == "verify.family":
                self.spans[span[3]][5] = result.order  # a cache miss built it

        def on_evaluate(span, args, result):
            node, ctx = args
            self.eval_keys.add((node, ctx.order, ctx.ring))
            self.eval_kinds[type(node).__name__] += 1

        def on_family(span, args, result):
            key, order = tuple(args[:3]), args[3]
            self.family_needed[key] = max(self.family_needed.get(key, 0), order)

        def on_item(span, args, result):
            span[5] = args[0].kind

        funcs = {
            (qfunctions, "euler_f"): ("qfunctions.euler_f", None),
            (qfunctions, "ramanujan_theta"): ("qfunctions.theta", None),
            (qfunctions, "borwein_a"): ("qfunctions.theta", None),
            (qfunctions, "septic_ABC"): ("qfunctions.septic", None),
            (qfunctions, "bipartition_series"):
                ("qfunctions.bipartition", on_bipartition),
            (qexpr, "parse_expr"): ("qexpr.parse", None),
            (qexpr, "evaluate"): ("qexpr.evaluate", on_evaluate),
            (verify, "family_series"): ("verify.family", on_family),
            (verify, "run_pipeline"): ("verify.pipeline", None),
            (verify, "run_item"): ("verify.item", on_item),
            (verify, "check_identity"): ("verify.compare", None),
            (verify, "check_congruence"): ("verify.compare", None),
            (verify, "check_binomial"): ("verify.compare", None),
            (cli, "main"): ("cli", None),
        }
        # A function the program no longer has is skipped; the run's
        # self-check then reports its layer as recording no span.
        wrapped = {}
        for (module, attr), (name, after) in funcs.items():
            fn = getattr(module, attr, None)
            if fn is not None:
                wrapped[fn] = self.wrap(name, fn, after)
                setattr(module, attr, wrapped[fn])
        # Names imported into other modules reach the same wrappers.
        for module, attr in ((verify, "euler_f"), (verify, "bipartition_series"),
                             (verify, "evaluate"), (verify, "parse_expr"),
                             (cli, "family_series"), (cli, "run_item"),
                             (cli, "evaluate"), (cli, "parse_expr")):
            fn = getattr(module, attr, None)
            if fn in wrapped:
                setattr(module, attr, wrapped[fn])

    # --- reporting ------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of everything recorded, given the traced wall
        time of the requests (seconds)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        total: Counter = Counter()   # ns, by span name
        self_ns: Counter = Counter()  # ns, by span name
        calls: Counter = Counter()
        for i, (name, start, end, _, _, _) in enumerate(spans):
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1

        def seconds(ns):
            return ns / 1e9

        mul = {"terms": 0, True: 0, False: 0}
        div = {"terms": 0, True: 0, False: 0, "max_order": 0}
        item_ns: Counter = Counter()
        family = {"builds": 0, "coeffs_built": 0, "build_ns": 0}
        bipartition_max = 0
        for i, (name, start, end, parent, _, info) in enumerate(spans):
            own = end - start - child_ns[i]
            if name == "series.mul":
                mul[info[0]] += own
                mul["terms"] += info[1]
            elif name == "series.div":
                div[info[0]] += own
                div["max_order"] = max(div["max_order"], info[1])
                div["terms"] += info[2]
            elif name == "verify.item":
                item_ns[info] += end - start
            elif name == "verify.family" and info is not None:
                family["builds"] += 1
                family["coeffs_built"] += info
            elif name == "qfunctions.bipartition":
                bipartition_max = max(bipartition_max, info)
                if parent >= 0 and spans[parent][0] == "verify.family":
                    family["build_ns"] += end - start

        def per_term(ns, terms):
            return ns / terms if terms else 0.0

        eval_calls = calls["qexpr.evaluate"]
        distinct = len(self.eval_keys)
        covered = sum(ns for name, ns in self_ns.items() if name != TRACE)
        program_s = wall_s - seconds(total[TRACE])
        out = {
            "series.mul.calls": calls["series.mul"],
            "series.mul.terms": mul["terms"],
            "series.mul.self_s": seconds(self_ns["series.mul"]),
            "series.mul.ns_per_term": per_term(self_ns["series.mul"], mul["terms"]),
            "series.mul.exact_s": seconds(mul[False]),
            "series.mul.mod_s": seconds(mul[True]),
            "series.div.calls": calls["series.div"],
            "series.div.terms": div["terms"],
            "series.div.self_s": seconds(self_ns["series.div"]),
            "series.div.ns_per_term": per_term(self_ns["series.div"], div["terms"]),
            "series.div.exact_s": seconds(div[False]),
            "series.div.mod_s": seconds(div[True]),
            "series.div.max_order": div["max_order"],
            "series.pow.calls": calls["series.pow"],
            "series.pow.self_s": seconds(self_ns["series.pow"]),
            "series.linear.self_s": seconds(self_ns["series.linear"]),
            "series.extract.calls": calls["series.extract"],
            "series.extract.self_s": seconds(self_ns["series.extract"]),
            "qfunctions.euler_f.calls": calls["qfunctions.euler_f"],
            "qfunctions.euler_f.self_s": seconds(self_ns["qfunctions.euler_f"]),
            "qfunctions.theta.self_s": seconds(self_ns["qfunctions.theta"]),
            "qfunctions.septic.calls": calls["qfunctions.septic"],
            "qfunctions.septic.total_s": seconds(total["qfunctions.septic"]),
            "qfunctions.bipartition.calls": calls["qfunctions.bipartition"],
            "qfunctions.bipartition.total_s": seconds(total["qfunctions.bipartition"]),
            "qfunctions.bipartition.max_order": bipartition_max,
            "qexpr.parse.calls": calls["qexpr.parse"],
            "qexpr.parse.s": seconds(total["qexpr.parse"]),
            "qexpr.evaluate.calls": eval_calls,
            "qexpr.evaluate.distinct": distinct,
            "qexpr.evaluate.repeat_ratio":
                (eval_calls - distinct) / eval_calls if eval_calls else 0.0,
            "qexpr.evaluate.self_s": seconds(self_ns["qexpr.evaluate"]),
            **{f"qexpr.evaluate.{kind}.calls": self.eval_kinds[kind]
               for kind in EVAL_KINDS},
            "verify.family.calls": calls["verify.family"],
            "verify.family.builds": family["builds"],
            "verify.family.distinct": len(self.family_needed),
            "verify.family.coeffs_built": family["coeffs_built"],
            "verify.family.coeffs_needed": sum(self.family_needed.values()),
            "verify.family.build_s": seconds(family["build_ns"]),
            "verify.pipeline.calls": calls["verify.pipeline"],
            "verify.pipeline.total_s": seconds(total["verify.pipeline"]),
            **{f"verify.item.{kind}_s": seconds(item_ns[kind])
               for kind in ("scan", "identity", "chain", "binomial")},
            "verify.compare.self_s": seconds(self_ns["verify.compare"]),
            "cli.self_s": seconds(self_ns["cli"]),
            "cli.bytes_out": self.bytes_out,
            "trace.coverage": seconds(covered) / program_s if program_s > 0 else 0.0,
        }
        return out

    def layers_seen(self) -> set:
        """Names of the layers that recorded at least one span."""
        return {span[0] for span in self.spans} - {TRACE}

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def work(self, since: int = 0) -> int:
        """Multiply-adds of the mul and div spans recorded from ``since`` on."""
        done = 0
        for name, _, _, _, _, info in self.spans[since:]:
            if name == "series.mul":
                done += info[1]
            elif name == "series.div":
                done += info[2]
        return done

"""Command-line front end.

Three subcommands:

* ``expand``  print the coefficient prefix of an expression;
* ``verify``  run registry items and stream their reports;
* ``scan``    tabulate a bipartition family along an arithmetic
  progression modulo m.

Exit codes are stable: 0 success, 1 verification failures, 2 bad input
(an out-of-range option or an expression parse/evaluation error), 3
unknown registry filter, 4 over budget: a plan verify.Families refuses,
or an order too large to allocate or to index.  The environment
variable QSERIES_DEFAULT_ORDER overrides the built-in default order of
500; a value that is not a positive integer is ignored with a warning.
Every integer, in an option, a positional or that variable, is read by
:func:`integer`: ASCII digits with an optional sign.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .qexpr import EvalContext, EvalError, QSyntaxError, evaluate, parse_expr
from .series import EXACT, SeriesError, mod_ring
from .verify import CongruenceCheck, Families, run_item, select_items

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN_FILTER = 3
EXIT_SCAN_BUDGET = 4


def integer(text: str) -> int:
    """An integer of the command line: ASCII digits with an optional
    sign.  int() alone would also read other Unicode digits ('٣'),
    spaces around the digits (' 5') and underscores ('1_0')."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def default_order() -> int:
    raw = os.environ.get("QSERIES_DEFAULT_ORDER")
    if raw is None:
        return 500
    try:
        value = integer(raw)
    except ValueError:
        value = 0
    if value < 1:
        print(f"warning: ignoring QSERIES_DEFAULT_ORDER={raw!r}, not a "
              "positive integer; using 500", file=sys.stderr)
        return 500
    return value


def _bad_option(flag: str, value: int | None, least: int) -> bool:
    """Report an option below its least allowed value on stderr."""
    if value is None or value >= least:
        return False
    print(f"error: {flag} must be >= {least}, got {value}", file=sys.stderr)
    return True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseries",
        description="Truncated q-series arithmetic and congruence verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser(
        "expand", help="print the coefficient prefix of an expression")
    p_expand.add_argument("expr", help="expression text, e.g. 'f2*f15/f1^2'")
    p_expand.add_argument("--order", type=integer, default=None,
                          help="number of coefficients (default 500, or "
                               "QSERIES_DEFAULT_ORDER)")
    p_expand.add_argument("--mod", type=integer, default=None,
                          help="reduce coefficients modulo this value")
    p_expand.add_argument("--format", choices=("table", "json", "csv"),
                          default="table")

    p_verify = sub.add_parser(
        "verify", help="run registry items and report pass/fail")
    p_verify.add_argument("--filter", default=None,
                          help="registry id, id prefix, or tag "
                               "(e.g. 'b215', 'lemmas', 'eq-j1')")
    p_verify.add_argument("--order", type=integer, default=None,
                          help="override each item's default check order")
    p_verify.add_argument("--count", type=integer, default=None,
                          help="override each scan's default count")
    p_verify.add_argument("--format", choices=("table", "json", "csv"),
                          default="table")

    p_scan = sub.add_parser(
        "scan", help="tabulate B_{s,t}(p*n+r) mod m for n below a count")
    p_scan.add_argument("s", type=integer)
    p_scan.add_argument("t", type=integer)
    p_scan.add_argument("p", type=integer)
    p_scan.add_argument("r", type=integer)
    p_scan.add_argument("mod", type=integer)
    p_scan.add_argument("count", type=integer)
    p_scan.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    return parser


def cmd_expand(args: argparse.Namespace) -> int:
    # --mod 0 means the exact ring, as when the option is left out
    if _bad_option("--order", args.order, 1) or (
            args.mod != 0 and _bad_option("--mod", args.mod, 2)):
        return EXIT_BAD_INPUT
    order = args.order if args.order is not None else default_order()
    ring = mod_ring(args.mod) if args.mod else EXACT
    try:
        series = evaluate(parse_expr(args.expr), EvalContext(order, ring))
    except (QSyntaxError, EvalError, SeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    sys.set_int_max_str_digits(0)  # input read: write every digit
    if args.format == "json":
        print(json.dumps({"expr": args.expr, "order": series.order,
                          "modulus": ring.modulus,
                          "coeffs": list(series.coeffs)}))
    elif args.format == "csv":
        print("n,c_n")
        for n, c in enumerate(series.coeffs):
            print(f"{n},{c}")
    else:
        print(" ".join(str(c) for c in series.coeffs))
    return EXIT_OK


def _report_table_row(rep) -> str:
    mark = "ok " if rep.status == "pass" else "FAIL"
    extra = ""
    if rep.mismatch is not None:
        extra = f"  first mismatch: {rep.mismatch}"
    note = f"  [{rep.note}]" if rep.note else ""
    return (f"{mark}  {rep.id:<16s} order={rep.order:<6d} "
            f"{rep.millis:9.1f} ms{note}{extra}")


def cmd_verify(args: argparse.Namespace) -> int:
    if (_bad_option("--order", args.order, 1)
            or _bad_option("--count", args.count, 1)):
        return EXIT_BAD_INPUT
    items = select_items(args.filter)
    if not items:
        print(f"warning: no registry items match filter {args.filter!r}",
              file=sys.stderr)
        return EXIT_UNKNOWN_FILTER
    families = Families((check for item in items for check in item.checks),
                        args.count, args.order)
    # scans read only --count; every other item reads only --order
    for flag, value, scans_read in (("--order", args.order, False),
                                    ("--count", args.count, True)):
        ignored_by = sum((item.kind == "scan") != scans_read for item in items)
        if value is not None and ignored_by:
            print(f"warning: {flag} {value} is ignored by {ignored_by} of "
                  f"{len(items)} selected items: only "
                  f"{'scans' if scans_read else 'non-scan items'} read it",
                  file=sys.stderr)
    if args.format == "csv":
        print("id,status,order,millis,mismatch_index")
    sys.set_int_max_str_digits(0)  # write every digit; no user input is left
    passed = 0
    # items run in id order, so streaming keeps the output sorted
    for item in items:
        rep = run_item(item, families=families)
        passed += rep.status == "pass"
        if args.format == "json":
            print(json.dumps(rep.as_dict()), flush=True)
        elif args.format == "csv":
            idx = rep.mismatch["index"] if rep.mismatch else ""
            print(f"{rep.id},{rep.status},{rep.order},{rep.millis:.3f},{idx}",
                  flush=True)
        else:
            print(_report_table_row(rep), flush=True)
    if args.format == "table":
        print(f"{passed}/{len(items)} items passed")
    return EXIT_OK if passed == len(items) else EXIT_VERIFY_FAILED


def cmd_scan(args: argparse.Namespace) -> int:
    s, t, p, r, m, count = args.s, args.t, args.p, args.r, args.mod, args.count
    if s <= 1 or t <= 1 or p < 1 or not 0 <= r < p or m < 2 or count < 1:
        print("error: need s,t > 1, p >= 1, 0 <= r < p, mod >= 2, count >= 1",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    check = CongruenceCheck("scan", (s, t), (p, r), None, m, count)
    series, = Families((check,)).read(check)
    residues = list(series.coeffs)
    all_zero = all(v == 0 for v in residues)
    if args.format == "json":
        print(json.dumps({"s": s, "t": t, "p": p, "r": r, "mod": m,
                          "count": count, "residues": residues,
                          "all_zero": all_zero}))
    elif args.format == "csv":
        print("n,residue")
        for n, v in enumerate(residues):
            print(f"{n},{v}")
        print(f"# all zero: {'yes' if all_zero else 'no'}")
    else:
        for n, v in enumerate(residues):
            print(f"B_{{{s},{t}}}({p}*{n}+{r}) = {v} (mod {m})")
        print(f"all zero: {'yes' if all_zero else 'no'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"expand": cmd_expand, "verify": cmd_verify,
               "scan": cmd_scan}[args.command]
    cap = sys.get_int_max_str_digits()
    try:
        return command(args)
    except (OverflowError, MemoryError) as exc:
        # a plan Families refuses, or an order too large to allocate
        reason = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"error: order too large to compute ({reason})", file=sys.stderr)
        return EXIT_SCAN_BUDGET
    finally:  # the cap on an int's digits that a command lifted to write
        sys.set_int_max_str_digits(cap)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

import json
import random
import re
import sys

import pytest

from qseries import cli, qfunctions
from qseries.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_SCAN_BUDGET,
    EXIT_UNKNOWN_FILTER,
    EXIT_VERIFY_FAILED,
    main,
)
from qseries.qexpr import to_text
from qseries.qfunctions import euler_f
from qseries.series import TruncatedSeries, mod_ring
from qseries.verify import (SCAN_ORDER_CAP, IdentityCheck, RegistryItem,
                            select_items)

from test_qexpr import _random_tree


class TestExpand:
    def test_table_output(self, capsys):
        assert main(["expand", "f2*f15/f1^2", "--order", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1 2 4"

    def test_pentagonal_signs(self, capsys):
        assert main(["expand", "f1", "--order", "13"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == \
            "1 -1 -1 0 0 1 0 1 0 0 0 0 -1"

    def test_json_output(self, capsys):
        assert main(["expand", "q^2", "--order", "4", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == [0, 0, 1, 0]
        assert payload["order"] == 4

    def test_csv_output(self, capsys):
        assert main(["expand", "1+q", "--order", "2", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["n,c_n", "0,1", "1,1"]

    def test_mod_equals_external_reduction(self, capsys):
        main(["expand", "f1^9", "--order", "30"])
        exact = [int(v) for v in capsys.readouterr().out.split()]
        main(["expand", "f1^9", "--order", "30", "--mod", "11"])
        modular = [int(v) for v in capsys.readouterr().out.split()]
        assert modular == [v % 11 for v in exact]

    def test_parse_error_exit(self, capsys):
        assert main(["expand", "(1+q", "--order", "5"]) == EXIT_BAD_INPUT
        assert "error" in capsys.readouterr().err

    def test_non_unit_division_exit(self, capsys):
        assert main(["expand", "1/(f1-f1)", "--order", "5"]) == EXIT_BAD_INPUT
        assert "error" in capsys.readouterr().err

    def test_default_order_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QSERIES_DEFAULT_ORDER", "7")
        assert main(["expand", "q"]) == EXIT_OK
        assert len(capsys.readouterr().out.split()) == 7

    # int() reads the last three as 3, 7 and 10
    @pytest.mark.parametrize("raw", ["abc", "0", "-4", "٣", " 7", "1_0"])
    def test_malformed_default_order_env_warns(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("QSERIES_DEFAULT_ORDER", raw)
        assert main(["expand", "q"]) == EXIT_OK
        captured = capsys.readouterr()
        assert len(captured.out.split()) == 500
        err = captured.err.splitlines()
        assert len(err) == 1 and "warning" in err[0] and repr(raw) in err[0]


@pytest.mark.parametrize("expr", ["a(q^100000000000)", "A(q^100000000000)"])
def test_huge_power_substitution_is_truncated(capsys, expr):
    assert main(["expand", expr, "--order", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1 0 0 0 0"


def test_huge_negative_power_is_squared(capsys):
    # A huge exponent takes the squaring route, which needs about 70
    # products of five-term series here; the coefficients are binom(e, k).
    e = -10**20
    assert main(["expand", f"(1+q)^{e}", "--order", "5"]) == EXIT_OK
    binom = [1]
    for k in range(1, 5):
        binom.append(binom[-1] * (e - k + 1) // k)
    assert capsys.readouterr().out.split() == [str(c) for c in binom]


def _uncapped(convert, value):
    """convert(value) with CPython's cap on the digits of an int read or
    written as text lifted for this call alone."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(cap)


def _written(fmt, out):
    """The coefficients expand wrote in the format, as ints."""
    if fmt == "json":
        return _uncapped(json.loads, out)["coeffs"]
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[0] == "n,c_n"
        return [_uncapped(int, line.split(",")[1]) for line in lines[1:]]
    return [_uncapped(int, text) for text in out.split()]


class TestLongIntegers:
    """Every integer the CLI writes is written whole, past CPython's cap
    on the digits of an int converted to text (4300 by default), while
    the integers it reads stay under that cap."""

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_expand_writes_every_digit(self, capsys, fmt):
        cap = sys.get_int_max_str_digits()
        assert main(["expand", "2^20000", "--order", "1", "--format",
                     fmt]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _written(fmt, captured.out) == [2 ** 20000]
        assert sys.get_int_max_str_digits() == cap

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_expand_writes_long_coefficients(self, capsys, fmt):
        # (10^1100 + q)^4: the constant term has 4401 digits
        assert main(["expand", "(10^1100+q)^4", "--order", "5", "--format",
                     fmt]) == EXIT_OK
        assert _written(fmt, capsys.readouterr().out) == [
            10 ** 4400, 4 * 10 ** 3300, 6 * 10 ** 2200, 4 * 10 ** 1100, 1]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_verify_writes_a_long_mismatch(self, capsys, monkeypatch, fmt):
        item = RegistryItem("long", "identity", "2^20000 = 0", ("t",),
                            (IdentityCheck("long", "2^20000", "0", order=1),))
        monkeypatch.setattr(cli, "select_items", lambda text: [item])
        assert main(["verify", "--format", fmt]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        if fmt == "json":
            assert _uncapped(json.loads, out)["mismatch"] == {
                "index": 0, "lhs": 2 ** 20000, "rhs": 0}
        else:
            assert f"'lhs': {_uncapped(str, 2 ** 20000)}, 'rhs': 0" in out

    @pytest.mark.parametrize("argv", [
        ["expand", "2" * 5000, "--order", "1"],
        ["expand", "f1", "--order", "1" * 5000],
    ], ids=["literal", "order"])
    def test_long_input_is_still_refused(self, capsys, argv):
        # after a long write, in the same process
        assert main(["expand", "2^20000", "--order", "1"]) == EXIT_OK
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sum("error:" in line for line in captured.err.splitlines()) == 1


@pytest.mark.parametrize("expr, options, message", [
    ("(" * 400 + "q" + ")" * 400, [],
     "expression nested too deeply (at position 0)"),
    # a malformed theta raises as its builder does, at any position and
    # with any exponent, 0 included
    ("theta(0,1)", [], "theta exponents must be positive, got (0, 1)"),
    ("f1/theta(0,3)", ["--mod", "5"],
     "theta exponents must be positive, got (0, 3)"),
    ("theta(0,1)^0", [], "theta exponents must be positive, got (0, 1)"),
    # only ASCII digits are digits: '²' and '٣' are str.isdigit too
    ("f²", [], "unknown identifier 'f' (at position 0)"),
    ("٣*f1", [], "illegal character '٣' (at position 0)"),
    ("theta(١,2)", [], "illegal character '١' (at position 6)"),
], ids=["400-nested-parentheses", "theta-0-1", "divisor-theta-0-3-mod-5",
        "theta-0-1-to-the-0", "f-superscript-2", "arabic-indic-3",
        "theta-arabic-indic-1"])
def test_deeply_nested_expression_exit(capsys, expr, options, message):
    argv = ["expand", "--order", "5", *options, "--", expr]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_long_flat_sum_expands(capsys):
    # a sum is added up along its left spine without recursion
    assert main(["expand", "--order", "5", "--", "q+" * 2999 + "q"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["0", "3000", "0", "0", "0"]


def test_error_in_long_product_names_it(capsys):
    # the error path prints the failing node without recursing on it
    expr = "f1*" * 2999 + "q/(2*q)"
    assert main(["expand", "--order", "5", "--", expr]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "not invertible" in err and "f1*f1*f1" in err


def test_long_flat_product_expands(capsys):
    # a product is read into one record without recursion, however long
    assert main(["expand", "--order", "5", "--", "f1*" * 2999 + "q"]) == EXIT_OK
    want = (euler_f(1, 5) ** 2999).shift(1, cap=5).coeffs
    assert capsys.readouterr().out.split() == [str(c) for c in want]


@pytest.mark.parametrize("argv", [
    ["verify", "--order", "0"],
    ["verify", "--order", "-3"],
    ["verify", "--count", "0"],
    ["verify", "--count", "-5"],
    ["expand", "f1", "--mod", "1"],
])
def test_out_of_range_option_exit(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("ran past option validation")

    for name in ("select_items", "Families", "mod_ring"):
        monkeypatch.setattr(cli, name, fail)
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert argv[-2] in err[0]


_SCAN = ["2", "15", "9", "8", "5", "3"]


@pytest.mark.parametrize("argv, argument", [
    (["expand", "f1", "--order", "abc"], "--order"),  # int() rejects it too
    (["expand", "f1", "--order", "٣"], "--order"),
    (["expand", "f1", "--order", "²"], "--order"),
    (["expand", "f1", "--order", " 5"], "--order"),
    (["expand", "f1", "--order", "5 "], "--order"),
    (["expand", "f1", "--order", "1_0"], "--order"),
    (["expand", "f1", "--order", ""], "--order"),
    (["expand", "f1", "--order", "+"], "--order"),
    (["expand", "f1", "--order", "5.0"], "--order"),
    (["expand", "f1", "--mod", "١١"], "--mod"),
    (["verify", "--filter", "eq-4w", "--order", "٣"], "--order"),
    (["verify", "--filter", "b215-b1", "--count", "1_0"], "--count"),
] + [(["scan", *_SCAN[:i], "٩", *_SCAN[i + 1:]], name)
     for i, name in enumerate(("s", "t", "p", "r", "mod", "count"))])
def test_integer_other_than_ascii_digits_exit(capsys, monkeypatch, argv,
                                              argument):
    # one reader takes every integer of the command line: ASCII digits
    # with an optional sign; argparse rejects anything else, as it
    # rejects '--order abc', before any command runs
    def fail(*args, **kwargs):
        raise AssertionError("ran past argument parsing")

    for name in ("cmd_expand", "cmd_verify", "cmd_scan"):
        monkeypatch.setattr(cli, name, fail)
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    bad = argv[argv.index(argument) + 1] if argument[0] == "-" else "٩"
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {argument}: invalid integer value: {bad!r}")


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("7", 7), ("+5", 5), ("-3", -3), ("007", 7),
    ("1" + "0" * 30, 10 ** 30)])
def test_integer_reads_ascii_digits_with_a_sign(text, value):
    assert cli.integer(text) == value


@pytest.mark.parametrize("argv", [
    ["expand", "f1", "--order", str(10 ** 30)],
    ["verify", "--filter", "eq-j1", "--order", str(10 ** 30)],
    # unfiltered, the b215 scans come first; sized before any row, so
    # nothing is printed: 10**30 itself, and sys.maxsize // 2, whose
    # dissection seeds (order times step) are past the index range
    ["verify", "--order", str(10 ** 30)],
    ["verify", "--order", str(sys.maxsize // 2)],
])
def test_order_past_index_range_exit(capsys, argv):
    # these orders fit no index, so this fails before anything is allocated
    assert main(argv) == EXIT_SCAN_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "OverflowError" in err[0]


def test_out_of_memory_exit(capsys, monkeypatch):
    import qseries.verify as verify_mod

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verify_mod, "bipartition_series", exhausted)
    assert main(["scan", "2", "15", "9", "8", "5", "10"]) == EXIT_SCAN_BUDGET
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "MemoryError" in err[0]


# The exit-code fuzzer draws integer options from these kinds.  No value
# lies between 60 and 10**30: an order there is allocated, and may
# exhaust memory, before anything fails.
_NOT_ASCII_INTEGERS = ["٣", "５", "²", "७", "1_0", " 5"]
_INTEGER_KINDS = [
    lambda rng: str(rng.randint(1, 60)),                  # ASCII digits
    lambda rng: rng.choice("+-") + str(rng.randint(0, 60)),      # signs
    lambda rng: "0",
    lambda rng: str(-rng.randint(1, 10 ** 31)),           # negative
    lambda rng: rng.choice(_NOT_ASCII_INTEGERS),          # Unicode
    lambda rng: "",
    lambda rng: str(10 ** rng.randint(30, 40) + rng.randint(0, 9)),  # huge
]
_FILTERS = ["eq-j1", "eq-4w", "eq-2k", "eq-b52", "lemma-0.2", "eq-k1",
            "b711-chain-01", "b2711-eq11", "b215-b1", "b2711-m4", "thm-y-m0",
            "classical", "no-such-item", "é"]


def _integer(rng, most=None):
    text = rng.choice(_INTEGER_KINDS)(rng)
    if most is not None and re.fullmatch(r"[+-]?[0-9]+", text) \
            and int(text) > most:
        text = str(most)
    return text


def _count(rng):
    """A scan count: one of the integer kinds, at most 50, or a count
    past the scan cap, from SCAN_ORDER_CAP + 1 to far beyond it."""
    if rng.randrange(3):
        return _integer(rng, 50)
    return str(SCAN_ORDER_CAP + rng.choice([1, 2, 10 ** 6, 10 ** 40]))


def _last(argv, flag):
    """The value of the last occurrence of flag."""
    return argv[len(argv) - argv[::-1].index(flag)]


def _scan_past_cap(argv):
    """Whether the command line asks a scan for a count past the scan
    cap: scan's count operand, or verify's last --count when its last
    --filter selects a scan."""
    if argv[0] == "scan":
        text = argv[6]
    elif argv[0] == "verify" and "--count" in argv and any(
            item.kind == "scan"
            for item in select_items(_last(argv, "--filter"))):
        text = _last(argv, "--count")
    else:
        return False
    return bool(re.fullmatch(r"[0-9]+", text)) and int(text) > SCAN_ORDER_CAP


def _options(rng, flags):
    """Up to two flags drawn from flags, with values; a flag may
    repeat."""
    argv = []
    for _ in range(rng.randrange(3)):
        flag, value = rng.choice(flags)
        argv += [flag, value(rng)]
    return argv


def _expression(rng):
    text = to_text(_random_tree(rng, rng.randint(0, 4)))
    mutation = rng.randrange(8)  # 0 and 5-7 keep the text
    if mutation == 1:
        text = text[:rng.randrange(len(text) + 1)]
    elif mutation == 2 and "(" in text:
        i = rng.choice([i for i, ch in enumerate(text) if ch in "()"])
        text = text[:i] + text[i + 1:]
    elif mutation == 3:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice("éßλЖ") + text[i:]
    elif mutation == 4:
        text = rng.choice(["(" * 3000 + text + ")" * 3000, "-" * 3000 + text])
    return text


# Bare atoms, each with constant term 1, so a unit in every ring.
_ATOMS = [lambda rng: f"f{rng.randint(1, 40)}",
          lambda rng: f"theta({rng.randint(1, 9)},{rng.randint(1, 9)})",
          lambda rng: f"a(q^{rng.randint(1, 9)})",
          lambda rng: rng.choice("ABC")]


def _huge_power(rng):
    """A bare atom to an exponent up to +-10**12, or an integer to a
    power near 20,000, whose value has thousands of digits: never a huge
    exponent on an integer, whose exact value alone would take
    gigabytes."""
    if rng.randrange(4):
        e = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 12))
        return f"{rng.choice(_ATOMS)(rng)}^{e}"
    return f"{rng.randint(2, 9)}^{rng.randint(15000, 25000)}"


_FORMAT = ("--format",
           lambda rng: rng.choice(["table", "json", "csv", "xml"]))


def _huge_power_argv(rng):
    """expand of a huge power, over Z, a prime or a composite modulus."""
    ring = rng.choice([[], ["--mod", "7"], ["--mod", "4"], ["--mod", "6"]])
    return ["expand", "--order", str(rng.randint(1, 60)), *ring,
            *_options(rng, [_FORMAT]), "--", _huge_power(rng)]


def _fuzz_argv(rng):
    command = rng.choice(["expand", "verify", "scan"])
    if command == "expand":
        return ["expand", "--order", str(rng.randint(1, 60)),
                *_options(rng, [("--order", _integer), ("--mod", _integer),
                                _FORMAT]), "--", _expression(rng)]
    if command == "verify":
        return ["verify", "--filter", rng.choice(_FILTERS),
                *_options(rng, [("--order", _integer),
                                ("--count", _count),
                                ("--filter", lambda rng: rng.choice(_FILTERS)),
                                _FORMAT])]
    # valid operands, one or two of them then redrawn from the kinds
    p = rng.randint(1, 60)
    operands = [rng.randint(2, 60), rng.randint(2, 60), p,
                rng.randrange(p), rng.randint(2, 60), rng.randint(1, 50)]
    operands = [str(v) for v in operands]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(6)
        operands[i] = _count(rng) if i == 5 else _integer(rng)
    return ["scan", *operands, *_options(rng, [_FORMAT])]


def test_exit_code_fuzzer(capsys, monkeypatch):
    # every command line ends in a documented exit code, with nothing on
    # stdout and one error line (or the unknown-filter warning) on a
    # failure, and never in a traceback.  Refusals come first: an integer
    # in other digits exits 2, expand evaluates no order below 1, verify
    # runs nothing past the index range, no family is built past the
    # scan cap, and verify exits 3 exactly when its filter matches nothing.
    # A count past the cap, on a command line that selects a scan and is
    # not refused for bad input, exits 4 with no family built.  Sixty
    # more lines expand a bare atom to an exponent up to +-10**12, or an
    # integer to a power near 20,000, and none divides once per unit of
    # an exponent or writes less than every digit.
    import qseries.verify as verify_mod

    def bounded(module, name, position, least, most):
        # the order is argument number position of module.name
        real = getattr(module, name)

        def call(*args, **kwargs):
            assert least <= args[position] <= most, (name, args[position])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    bounded(cli, "EvalContext", 0, 1, float("inf"))
    # no command line divides once per unit of an exponent
    divisions = []
    divide = TruncatedSeries.divide

    def counted(self, other):
        divisions.append(1)
        assert len(divisions) <= 200, "a division per unit of an exponent"
        return divide(self, other)

    monkeypatch.setattr(TruncatedSeries, "divide", counted)
    packed = qfunctions._divide_packed

    def bounded_packed(num, divisors, k):
        assert sum(count for *_, count in divisors) <= 200, divisors
        return packed(num, divisors, k)

    monkeypatch.setattr(qfunctions, "_divide_packed", bounded_packed)
    bounded(verify_mod, "run_pipeline", 2, 1, sys.maxsize)
    bounded(verify_mod, "bipartition_series", 2, 1, SCAN_ORDER_CAP)
    built = []
    build = verify_mod.bipartition_series
    monkeypatch.setattr(verify_mod, "bipartition_series", lambda *args:
                        built.append(args) or build(*args))
    over_cap = set()
    monkeypatch.delenv("QSERIES_DEFAULT_ORDER", raising=False)
    rng = random.Random(20191022)
    argvs = [_fuzz_argv(rng) for _ in range(400)]
    argvs += [_huge_power_argv(rng) for _ in range(60)]
    seen = set()
    for argv in argvs:
        built.clear()
        divisions.clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        context = (argv[:8], code, err[-300:])
        assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_UNKNOWN_FILTER,
                        EXIT_SCAN_BUDGET), context
        assert "Traceback" not in out + err, context
        if set(argv) & set(_NOT_ASCII_INTEGERS):
            assert code == EXIT_BAD_INPUT, context
        if argv[0] == "verify" and code != EXIT_BAD_INPUT:
            assert (code == EXIT_UNKNOWN_FILTER) != bool(
                select_items(_last(argv, "--filter"))), context
        if _scan_past_cap(argv) and code != EXIT_BAD_INPUT:
            assert code == EXIT_SCAN_BUDGET and not built, context
            over_cap.add(argv[0])
        if code == EXIT_UNKNOWN_FILTER:
            assert out == "" and err.startswith(
                "warning: no registry items match"), context
        elif code:
            assert out == "", context
            assert sum("error:" in line for line in err.splitlines()) == 1, \
                context
        seen.add((argv[0], code))
    assert len(seen) == 10
    assert over_cap == {"verify", "scan"}


class TestVerify:
    def test_single_item(self, capsys):
        assert main(["verify", "--filter", "eq-j1", "--order", "50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eq-j1" in out and "1/1 items passed" in out

    def test_unknown_filter(self, capsys):
        assert main(["verify", "--filter", "eq-nope"]) == EXIT_UNKNOWN_FILTER
        assert "warning" in capsys.readouterr().err

    def test_json_lines_schema(self, capsys):
        assert main(["verify", "--filter", "b215", "--order", "60",
                     "--count", "30", "--format", "json"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            payload = json.loads(line)
            assert set(payload) >= {"id", "status", "order", "mismatch",
                                    "millis"}
            assert payload["status"] == "pass"
            assert isinstance(payload["order"], int)
            assert payload["mismatch"] is None

    def test_csv_output(self, capsys):
        assert main(["verify", "--filter", "eq-2k", "--order", "50",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,status,order,millis,mismatch_index"
        assert lines[1].startswith("eq-2k,pass,50,")

    @pytest.mark.parametrize("argv,ignored", [
        (["--filter", "thm-y", "--order", "50"], ["--order 50"]),
        (["--filter", "eq-4w", "--count", "50"], ["--count 50"]),
        (["--filter", "b215", "--order", "60", "--count", "30"],
         ["--order 60", "--count 30"]),
        (["--filter", "eq-j1", "--order", "50"], []),
    ])
    def test_ignored_options_warn(self, capsys, argv, ignored):
        # scans read only --count, every other item only --order
        assert main(["verify", *argv]) == EXIT_OK
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == len(ignored)
        for line, option in zip(err, ignored):
            assert line.startswith(f"warning: {option} is ignored by ")
        assert "items passed" in captured.out

    def test_chain_item_passes(self, capsys):
        assert main(["verify", "--filter", "b711-chain-11",
                     "--order", "60"]) == EXIT_OK

    def test_count_over_scan_cap_builds_nothing(self, capsys, monkeypatch):
        # the plan asks for B_{27,11} mod 11 to order 242,999,959
        import qseries.verify as verify_mod

        def fail(*args, **kwargs):
            raise AssertionError("built a family past the cap")

        monkeypatch.setattr(verify_mod, "bipartition_series", fail)
        assert main(["verify", "--filter", "b2711-m5",
                     "--count", "1000000"]) == EXIT_SCAN_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "242999959" in err[0] and str(SCAN_ORDER_CAP) in err[0]

    def test_failure_exit_code(self, capsys, monkeypatch):
        # shrink a scan so it still runs, then break it via a fake registry
        import qseries.verify as verify_mod
        from qseries.verify import IdentityCheck, RegistryItem
        broken = RegistryItem(
            "zz-broken", "identity", "deliberately wrong identity",
            ("broken",),
            (IdentityCheck("zz-broken", "f1", "f1 + q^2", order=10),))
        monkeypatch.setitem(verify_mod.REGISTRY, "zz-broken", broken)
        assert main(["verify", "--filter", "zz-broken"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestScan:
    def test_claimed_progression(self, capsys):
        assert main(["scan", "243", "17", "81", "23", "17", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all zero: yes" in out

    def test_control_progression_not_claimed(self, capsys):
        assert main(["scan", "2", "15", "9", "7", "5", "50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all zero: no" in out

    def test_json_format(self, capsys):
        assert main(["scan", "2", "15", "9", "8", "5", "10",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_zero"] is True
        assert payload["residues"] == [0] * 10

    def test_csv_format(self, capsys):
        assert main(["scan", "2", "15", "3", "2", "5", "3",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,residue"
        assert len(lines) == 5  # header + 3 rows + summary comment

    def test_builds_only_the_scanned_class(self, capsys, monkeypatch):
        import qseries.verify as verify_mod
        builds = []
        build = verify_mod.bipartition_series

        def counted(s, t, order, ring, step, residue):
            builds.append((s, t, ring.modulus, order, step, residue))
            return build(s, t, order, ring, step, residue)

        monkeypatch.setattr(verify_mod, "bipartition_series", counted)
        assert main(["scan", "2", "15", "9", "7", "5", "50",
                     "--format", "json"]) == EXIT_OK
        assert builds == [(2, 15, 5, 9 * 49 + 7 + 1, 9, 7)]
        whole = build(2, 15, 9 * 49 + 7 + 1, mod_ring(5))
        residues = json.loads(capsys.readouterr().out)["residues"]
        assert residues == [whole[9 * n + 7] for n in range(50)]

    def test_budget_exceeded(self, capsys):
        count = SCAN_ORDER_CAP // 81 + 2
        assert main(["scan", "2", "15", "81", "0", "5",
                     str(count)]) == EXIT_SCAN_BUDGET
        assert "order" in capsys.readouterr().err

    def test_parameter_validation(self, capsys):
        assert main(["scan", "1", "15", "9", "8", "5", "10"]) == EXIT_BAD_INPUT
        capsys.readouterr()

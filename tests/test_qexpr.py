import hashlib
import json
import os
import random
import re
from collections import Counter
from math import isqrt

import pytest

from qseries.qexpr import (
    Add,
    CubicA,
    Div,
    Euler,
    EvalContext,
    EvalError,
    IntLit,
    Mul,
    Neg,
    Pow,
    QSyntaxError,
    QVar,
    Septic,
    Sub,
    Theta,
    evaluate,
    evaluate_text,
    parse,
    parse_expr,
    to_text,
    tokenize,
)
from qseries.qfunctions import bipartition_series, euler_f, ramanujan_theta
from qseries.series import (EXACT, SeriesError, TruncatedSeries,
                            ValuationError, mod_ring)
from qseries.verify import REGISTRY, IdentityCheck


class TestTokenize:
    def test_euler_and_power(self):
        toks = tokenize("f1^9*f7")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("EULER", "f1"), ("OP", "^"), ("INT", "9"),
            ("OP", "*"), ("EULER", "f7")]

    def test_cubic_argument(self):
        toks = tokenize("a(q^3)^2")
        assert [t.text for t in toks[:-1]] == [
            "a", "(", "q", "^", "3", ")", "^", "2"]

    def test_length_of_eta_quotient(self):
        assert len(tokenize("5*f5^5/f1^6")) - 1 == 9

    def test_maximal_digit_runs(self):
        toks = tokenize("f18")
        assert toks[0].kind == "EULER" and toks[0].value == 18

    def test_illegal_character_position(self):
        with pytest.raises(QSyntaxError) as err:
            tokenize("f1 + #")
        assert err.value.pos == 5

    def test_unknown_identifier(self):
        with pytest.raises(QSyntaxError):
            tokenize("f1 + zeta")

    @pytest.mark.parametrize("text, message, pos", [
        ("f²", "unknown identifier 'f'", 0),
        ("٣*f1", "illegal character '٣'", 0),
        ("theta(١,2)", "illegal character '١'", 6),
        ("f1²", "illegal character '²'", 2),
    ], ids=["f-superscript-2", "arabic-indic-3", "theta-arabic-indic-1",
            "f1-superscript-2"])
    def test_only_ascii_digits_are_digits(self, text, message, pos):
        # str.isdigit is true for these; int() rejects '²' and reads
        # '٣' as 3, so neither may reach it
        with pytest.raises(QSyntaxError) as err:
            parse_expr(text)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.pos == pos


class TestParse:
    def test_three_term_sum(self):
        tree = parse_expr("f1^3 - f3*a(q^3) + 3*q*f9^3")
        assert isinstance(tree, Add)
        assert isinstance(tree.left, Sub)
        assert tree.left.left == Pow(Euler(1), 3)

    def test_seven_dissection_bracket(self):
        tree = parse_expr(
            "B(q^7)/C(q^7) - q*A(q^7)/B(q^7) - q^2 + q^5*C(q^7)/A(q^7)")
        assert isinstance(tree, Add)
        assert isinstance(tree.left, Sub)
        assert tree.left.right == Pow(QVar(), 2)

    def test_unclosed_paren(self):
        with pytest.raises(QSyntaxError):
            parse_expr("(1+q")

    def test_trailing_input(self):
        with pytest.raises(QSyntaxError):
            parse_expr("f1 f2")

    def test_bare_cubic_theta_rejected(self):
        with pytest.raises(QSyntaxError):
            parse_expr("a + 1")

    def test_precedence_of_power_over_minus(self):
        assert parse_expr("-f1^2") == Neg(Pow(Euler(1), 2))

    def test_left_associative_division(self):
        tree = parse_expr("q*A(q^7)/B(q^7)")
        assert isinstance(tree, Div)
        assert isinstance(tree.left, Mul)

    def test_negative_exponent(self):
        assert parse_expr("f1^-2") == Pow(Euler(1), -2)

    def test_septic_default_argument(self):
        assert parse_expr("A") == Septic("A")
        assert parse_expr("A(q^7)") == Septic("A", 7)

    def test_theta_atom(self):
        assert parse_expr("theta(3,4)") == Theta(3, 4)

    def test_tokens_entry_point(self):
        assert parse(tokenize("1+q")) == Add(IntLit(1), QVar())

    @pytest.mark.parametrize("frames", [0, 400])
    @pytest.mark.parametrize("text, pos", [
        (lambda d: "(" * d + "q" + ")" * d, 0),
        (lambda d: "-" * d + "q", 0),
        (lambda d: "f1*-" + "(" * (d - 1) + "q" + ")" * (d - 1), 4)],
        ids=["parentheses", "prefix-minus", "both-under-a-product"])
    def test_nesting_limit_is_a_property_of_the_text(self, text, pos,
                                                     frames):
        # each "(" and each prefix "-" is one level; 100 parse from
        # wherever the caller stands, and 101 name the outermost "("
        def under(frames, text):
            return under(frames - 1, text) if frames else parse_expr(text)

        assert under(frames, text(100)) == parse_expr(text(100))
        with pytest.raises(QSyntaxError, match=re.escape(
                f"expression nested too deeply (at position {pos})")):
            under(frames, text(101))

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_deep_tree_hash(self, op):
        # each node stores its hash, computed from its children's, so a
        # tree of any depth hashes without walking it
        text = f"q{op}" * 2999 + "q"
        a, b = parse_expr(text), parse_expr(text)
        assert a is not b and hash(a) == hash(b)

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_deep_tree_compares_prints_and_looks_up(self, op):
        # == and repr walk the tree on a stack, so a tree of any depth
        # compares, prints and serves as a dict key
        text = f"q{op}" * 2999 + "q"
        a, b = parse_expr(text), parse_expr(text)
        assert a == b and not a != b
        assert {a: 1}[b] == 1
        assert repr(a) == repr(b)
        kind = "Add" if op == "+" else "Mul"
        assert repr(a) == (f"{kind}(left=" * 2999 + "QVar()"
                           + ", right=QVar())" * 2999)
        # the deepest leaf differs: the hashes differ
        assert a != parse_expr(text[:-1] + "2")
        assert a != parse_expr("2" + text[1:])

    def test_repr_and_equality_of_every_field_kind(self):
        tree = parse_expr("f1^-3*B(q^7)/theta(1,2) - 5*a(q^3) + -q")
        assert repr(tree) == (
            "Add(left=Sub(left=Div(left=Mul(left=Pow(base=Euler(k=1), "
            "exponent=-3), right=Septic(letter='B', k=7)), "
            "right=Theta(a=1, b=2)), right=Mul(left=IntLit(value=5), "
            "right=CubicA(k=3))), right=Neg(child=QVar()))")
        assert tree == parse_expr(to_text(tree))
        for x, y in [(Septic("A", 2), Septic("B", 2)), (Septic("A", 2),
                     Septic("A", 3)), (Pow(QVar(), 2), Pow(QVar(), 3)),
                     (Theta(1, 2), Theta(2, 1)), (Add(QVar(), QVar()),
                     Sub(QVar(), QVar())), (Neg(Euler(1)), Neg(Euler(2)))]:
            assert x != y and not x == y and x == x.replace()
        assert (Euler(1) == 1) is False and Euler(1) != "f1"


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([IntLit(rng.randint(0, 9)), QVar(), Euler(1),
                           Euler(2), Euler(3), CubicA(), Septic("B"),
                           Theta(2, 5), CubicA(3)])
    kind = rng.randrange(5)
    if kind == 0:
        return Add(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 1:
        return Sub(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        return Mul(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 3:
        return Neg(_random_tree(rng, depth - 1))
    return Pow(_random_tree(rng, depth - 1), rng.randint(0, 4))


def _registry_expressions():
    texts = []
    for item in REGISTRY.values():
        for check in item.checks:
            if isinstance(check, IdentityCheck):
                texts += [check.lhs, check.rhs]
    return texts


class TestPrinter:
    def test_round_trip_of_registry_expressions(self):
        for text in _registry_expressions():
            tree = parse_expr(text)
            assert parse_expr(to_text(tree)) == tree, text

    def test_round_trip_of_random_trees(self):
        rng = random.Random(77)
        for _ in range(300):
            tree = _random_tree(rng, rng.randint(1, 4))
            assert parse_expr(to_text(tree)) == tree, to_text(tree)


class TestEvaluate:
    def test_bipartition_expression(self):
        assert evaluate_text("f2*f15/f1^2", 3).coeffs == (1, 2, 4)

    def test_high_valuation_monomial(self):
        got = evaluate_text("q^2", 2)
        assert got.order == 2 and got.coeffs == (0, 0)

    def test_modular_dissection_match(self):
        # the 3n residue class of the (27,11) family equals its stated form
        ring = mod_ring(11)
        lhs = bipartition_series(27, 11, 300, ring).extract(3, 0)
        rhs = evaluate_text("a(q)^3*f1^3*f9 + 6*q*f9*f3^9", 100, ring)
        assert lhs.first_mismatch(rhs) is None

    def test_theta_atom_evaluates(self):
        assert evaluate_text("theta(2,5)", 40) == ramanujan_theta((2, 5), 40)

    def test_substitution_is_honest_at_truncation(self):
        n = 50
        inner = -(-n // 7)
        expected = euler_f(1, inner).substitute_power(7).truncate(n)
        assert evaluate_text("f7", n) == expected

    def test_division_shrinks_order(self):
        got = evaluate_text("(q^2 + q^3)/q^2", 10)
        assert got.order == 8
        assert got.coeffs[:2] == (1, 1)

    def test_eval_error_names_fragment(self):
        with pytest.raises(EvalError) as err:
            evaluate_text("1/(f1 - f1)", 10)
        assert "f1 - f1" in str(err.value)

    def test_eval_error_on_valuation_deficit(self):
        with pytest.raises(EvalError):
            evaluate_text("1/q", 10)

    def test_ring_homomorphism_on_random_trees(self):
        rng = random.Random(99)
        ctx = EvalContext(25, mod_ring(11))
        for _ in range(60):
            x = _random_tree(rng, 2)
            y = _random_tree(rng, 2)
            ex, ey = evaluate(x, ctx), evaluate(y, ctx)
            assert evaluate(Add(x, y), ctx) == ex + ey
            assert evaluate(Sub(x, y), ctx) == ex - ey
            assert evaluate(Mul(x, y), ctx) == ex * ey
            assert evaluate(Neg(x), ctx) == -ex

    def test_division_homomorphism(self):
        ctx = EvalContext(30, EXACT)
        x, y = parse_expr("f2*f15"), parse_expr("f1^2")
        assert evaluate(Div(x, y), ctx) == \
            evaluate(x, ctx).divide(evaluate(y, ctx))

    def test_context_validation(self):
        with pytest.raises(ValueError):
            EvalContext(0)

    def test_integer_literal_series(self):
        got = evaluate_text("7", 3)
        assert got == TruncatedSeries(EXACT, [7, 0, 0])


PLANNER_RINGS = [EXACT] + [mod_ring(m) for m in (2, 4, 5, 6, 11, 17)]


def _random_factor(rng):
    """One factor of a random eta/theta quotient, as expression text."""
    kind = rng.randrange(8)
    if kind == 0:
        atom = f"f{rng.randint(1, 9)}"
    elif kind == 1:
        atom = f"theta({rng.randint(1, 5)},{rng.randint(1, 5)})"
    elif kind == 2:
        atom = rng.choice("ABC")
    elif kind == 3:
        atom = f"{rng.choice('ABC')}(q^{rng.randint(2, 3)})"
    elif kind == 4:
        atom = rng.choice(["a(q)", "a(q^2)"])
    elif kind == 5:
        atom = str(rng.choice([1, 1, 2, 3, 5]))
    elif kind == 6:
        atom = "q"
    else:
        atom = f"f{rng.randint(1, 4)}"
    e = rng.choice([1, 1, 1, 2, 3, 4, 7])
    return atom if e == 1 else f"{atom}^{e}"


def _random_product(rng, most):
    return "*".join(_random_factor(rng) for _ in range(rng.randint(1, most)))


def _outcome(compute):
    """(order, coefficients), or (error type, message) of the series
    error a computation raised; an EvalError is unwrapped to its cause."""
    try:
        got = compute()
    except EvalError as exc:
        return type(exc.__cause__), str(exc.__cause__)
    except SeriesError as exc:
        return type(exc), str(exc)
    return got.order, got.coeffs


class TestDivisorPlanner:
    """Quotients divided one sparse factor at a time against the whole
    divisor evaluated first and divided (or inverted) once."""

    @pytest.mark.parametrize("ring", PLANNER_RINGS, ids=str)
    def test_random_quotients_match_whole_divisor(self, ring):
        rng = random.Random(4141 + ring.modulus)
        errors = 0
        for _ in range(40):
            num, den = _random_product(rng, 3), _random_product(rng, 4)
            p = rng.randint(1, 3)
            ctx = EvalContext(rng.randint(1, 60), ring)
            nv, dv = parse_expr(num), parse_expr(den)

            def whole_divided():
                return evaluate(nv, ctx).divide(evaluate(dv, ctx) ** p)

            def whole_inverted():
                return evaluate(nv, ctx) * evaluate(dv, ctx).invert() ** p

            for text, reference in ((f"{num}/({den})^{p}", whole_divided),
                                    (f"{num}*({den})^-{p}", whole_inverted)):
                want = _outcome(reference)
                got = _outcome(lambda: evaluate(parse_expr(text), ctx))
                assert got == want, (text, ctx)
                errors += isinstance(want[0], type)
        assert 0 < errors < 80  # both outcomes are exercised

    def test_nested_divisor_factors(self):
        ctx = EvalContext(80, mod_ring(6))
        text = "f2*(1+q)/((f1^2*theta(1,3))^2*(B(q^2)*f5)^3*(f1/f7)*(-C))"
        num = evaluate(parse_expr("f2*(1+q)"), ctx)
        den = evaluate(parse_expr(
            "(f1^2*theta(1,3))^2*(B(q^2)*f5)^3*(f1/f7)*(-C)"), ctx)
        assert evaluate(parse_expr(text), ctx) == num.divide(den)

    @pytest.mark.parametrize("text, error, message", [
        ("1/(q*f1)", "ValuationError",
         "dividend has q-valuation below the divisor's (1)"),
        ("1/(2*f1)", "NonUnitError", "2 is not invertible over the integers"),
        ("(2*f1^2)^-3", "NonUnitError", "2 is not invertible over the integers"),
        ("1/(f1*(f1 - f1))", "NonUnitError",
         "divisor vanishes identically to its order 20"),
    ])
    def test_errors_name_the_quotient(self, text, error, message):
        with pytest.raises(EvalError) as err:
            evaluate_text(text, 20)
        assert type(err.value.__cause__).__name__ == error
        assert str(err.value) == f"{message} in '{text}'"

    def test_cancelled_valuation_lowers_the_order(self):
        got = evaluate_text("q/(q*f1^2)", 30)
        assert got.order == 29
        assert got == evaluate_text("1/f1^2", 29)

    def test_flat_divisor_is_walked_without_recursion(self):
        n = 6
        got = evaluate_text("1/(" + "f1*" * 2999 + "f2)", n)
        den = euler_f(1, n) ** 2999 * euler_f(2, n)
        assert got == TruncatedSeries.one(EXACT, n).divide(den)


def _random_leaf(rng):
    """An atom the record reads (Euler product, theta, septic quotient,
    integer, q) or, now and then, a factor it evaluates whole."""
    return rng.choice([
        Euler(rng.randint(1, 9)), Euler(1), Euler(2),
        Theta(rng.randint(1, 5), rng.randint(1, 5)),
        Septic(rng.choice("ABC")), Septic(rng.choice("ABC"), 2),
        Septic(rng.choice("ABC"), 3),
        IntLit(rng.choice([0, 1, 1, 2, 3, 5, 6, 10])), QVar(),
        CubicA(), CubicA(2), Add(IntLit(1), QVar()),
        Sub(Euler(1), Euler(1))])


def _random_subtree(rng, depth):
    """A random Mul/Div/Pow/Neg tree over _random_leaf leaves."""
    if depth == 0 or rng.random() < 0.25:
        return _random_leaf(rng)
    kind = rng.randrange(6)
    if kind < 2:
        return Mul(_random_subtree(rng, depth - 1),
                   _random_subtree(rng, depth - 1))
    if kind < 4:
        return Div(_random_subtree(rng, depth - 1),
                   _random_subtree(rng, depth - 1))
    if kind == 4:
        return Neg(_random_subtree(rng, depth - 1))
    return Pow(_random_subtree(rng, depth - 1), rng.choice([-3, -2, -1, 0,
                                                            1, 2, 3, 4]))


def _whole(node, ctx):
    """Every product node evaluated whole: its operands as series, then
    multiplied, divided, powered or negated."""
    try:
        if isinstance(node, Mul):
            return _whole(node.left, ctx) * _whole(node.right, ctx)
        if isinstance(node, Div):
            return _whole(node.left, ctx).divide(_whole(node.right, ctx))
        if isinstance(node, Pow):
            return _whole(node.base, ctx) ** node.exponent
        if isinstance(node, Neg):
            return -_whole(node.child, ctx)
    except EvalError:
        raise
    except SeriesError as exc:
        raise EvalError(str(exc), to_text(node)) from exc
    return evaluate(node, ctx)


def _named_outcome(compute):
    """(order, coefficients), or the error's cause type and its whole
    message, which names the node that raised."""
    try:
        got = compute()
    except EvalError as exc:
        return type(exc.__cause__), str(exc)
    return got.order, got.coeffs


class TestQuotientRecord:
    """Whole Mul/Div/Pow/Neg subtrees read into one record against every
    node evaluated whole."""

    @pytest.mark.parametrize("ring", PLANNER_RINGS, ids=str)
    def test_random_subtrees_match_whole_evaluation(self, ring):
        rng = random.Random(2718 + ring.modulus)
        errors = 0
        for _ in range(150):
            tree = _random_subtree(rng, rng.randint(1, 4))
            ctx = EvalContext(rng.randint(1, 50), ring)
            want = _named_outcome(lambda: _whole(tree, ctx))
            got = _named_outcome(lambda: evaluate(tree, ctx))
            assert got == want, (to_text(tree), ctx)
            errors += isinstance(want[0], type)
        assert 10 < errors < 140  # both outcomes are exercised

    @pytest.mark.parametrize("text", [
        "-(3*q*A(q^2)*theta(2,3))^2/(f1^5*B)",
        "2*(-q^2*C(q^3)*f4)/(-f1^2)^3*theta(1,4)^-2",
        "(-1)^3*q*A/A*B^2/(C(q^2)*f2^-1)",
    ])
    @pytest.mark.parametrize("ring", PLANNER_RINGS, ids=str)
    def test_signed_numerators(self, ring, text):
        ctx = EvalContext(70, ring)
        tree = parse_expr(text)
        assert _named_outcome(lambda: evaluate(tree, ctx)) == \
            _named_outcome(lambda: _whole(tree, ctx))

    @pytest.mark.parametrize("order", [1, 2, 3, 40])
    def test_shift_of_a_shortened_factor(self, order):
        # q/q is known to one coefficient less than q is
        ctx = EvalContext(order, mod_ring(6))
        for text in ("q*(q/q)", "q^2*(q/q)*f1", "(q*f1/q)*q/f2^2"):
            tree = parse_expr(text)
            assert _named_outcome(lambda: evaluate(tree, ctx)) == \
                _named_outcome(lambda: _whole(tree, ctx)), text

    def test_negated_divisor_divides_only_by_sparse_factors(self, monkeypatch):
        n = 3000
        divisor_terms = []
        divide = TruncatedSeries.divide

        def counted(num, den):
            divisor_terms.append(den.order - den.coeffs.count(0))
            return divide(num, den)

        monkeypatch.setattr(TruncatedSeries, "divide", counted)
        got = evaluate_text("1/(-f1^6)", n)
        negated_divisor = divisor_terms[:]
        divisor_terms.clear()
        assert got == evaluate_text("-1/f1^6", n)
        # two divisions by Jacobi's f_1^3, about sqrt(2n) terms each
        assert negated_divisor == divisor_terms
        assert len(negated_divisor) == 2
        assert max(negated_divisor) <= isqrt(2 * n) + 1
        # over Z/p the planner divides by no Euler product at all:
        # f_1^-6 = f_1^4 (1/f_1^2)(q^5) mod 5
        divisor_terms.clear()
        got = evaluate_text("1/(-f1^6)", n, mod_ring(5))
        assert divisor_terms == []
        assert got == evaluate_text("-1/f1^6", n).reduce_mod(5)


CLASS_RINGS = [EXACT] + [mod_ring(m) for m in (2, 5, 11, 17, 4, 6, 9)]


def _class_outcome(compute):
    """(order, coefficients), or the error's type, its cause's type and
    its message."""
    try:
        got = compute()
    except (EvalError, SeriesError) as exc:
        return type(exc), type(exc.__cause__), str(exc)
    return got.order, got.coeffs


class TestClassEvaluation:
    """Evaluating on one class (step, residue) against extracting it from
    the whole evaluation: coefficients, order and errors."""

    @pytest.mark.parametrize("ring", CLASS_RINGS, ids=str)
    def test_every_class_matches_extract(self, ring):
        rng = random.Random(1618 + ring.modulus)
        cases = []
        for step in range(1, 31):
            tree = _random_subtree(rng, rng.randint(1, 4))
            for _ in range(rng.randint(0, 2)):
                other = _random_subtree(rng, rng.randint(1, 3))
                tree = (Add if rng.random() < 0.5 else Sub)(tree, other)
            cases.append((tree, EvalContext(rng.randint(1, 70), ring), step))
        # a sum inside a product, whose division lowers its order and the
        # product's to 3: the product knows no coefficient of class (7, 3)
        cases.append((parse_expr("(q^4/q^4 - f8)*f1"), EvalContext(7, ring),
                      7))
        outcomes = Counter()
        for tree, whole, step in cases:
            want_whole = _class_outcome(lambda: evaluate(tree, whole))
            for residue in range(step):
                ctx = whole.replace(step=step, residue=residue)
                want = (want_whole if isinstance(want_whole[0], type) else
                        _class_outcome(lambda: evaluate(tree, whole).extract(
                            step, residue)))
                got = _class_outcome(lambda: evaluate(tree, ctx))
                assert got == want, (to_text(tree), ctx)
                outcomes[want[0] if isinstance(want[0], type) else "ok"] += 1
        # values, evaluation errors and empty classes are all exercised
        assert outcomes["ok"] and outcomes[EvalError] and \
            outcomes[ValuationError]

    @pytest.mark.parametrize("text", [
        "f1^5", "f2*f15/f1^2", "3*q^4*f27*f1^9/theta(3,6)^2",
        "-(q^2*f9^2*A(q^3))/(q*f3)", "f1^3 - f3*a(q^3) + 3*q*f9^3",
        "a(q^2)*(1+q)*f6", "a(q)*f1", "a(q^3)^2/f3", "q*a(q)-f1^3",
        "a(q)^-1",
        # lone atoms: a one-node record each
        "7", "q", "f3", "theta(2,5)", "a(q^3)", "A", "B(q^7)"])
    def test_named_classes(self, text):
        tree = parse_expr(text)
        for ring in (EXACT, mod_ring(11)):
            whole = evaluate(tree, EvalContext(400, ring))
            for step, residue in ((3, 0), (3, 2), (9, 4), (27, 12), (7, 6)):
                ctx = EvalContext(400, ring, step, residue)
                assert evaluate(tree, ctx) == whole.extract(step, residue)

    @pytest.mark.parametrize("step, residue", [(1, 0), (3, 2)])
    @pytest.mark.parametrize("leaf, error, match", [
        (object(), TypeError, "not a QExpr node"),
        (Septic("A", 0), ValueError, "argument power must be positive"),
        (Septic("D"), ValueError, "unknown septic quotient 'D'"),
        (CubicA(0), ValueError, "argument power must be positive")],
        ids=["object", "A(q^0)", "D", "a(q^0)"])
    def test_non_node_or_malformed_leaf_raises(self, leaf, error, match,
                                               step, residue):
        # the walk rejects a non-node or a malformed leaf where it meets
        # it, even raised to the power 0, and never recurses on it
        ctx = EvalContext(10, EXACT, step, residue)
        for tree in (leaf, Mul(Euler(1), leaf), Pow(leaf, 0)):
            with pytest.raises(error, match=match):
                evaluate(tree, ctx)

    @pytest.mark.parametrize("step, residue", [(0, 0), (-2, 0), (3, 3),
                                               (3, -1)])
    def test_context_validation(self, step, residue):
        with pytest.raises(ValueError) as want:
            TruncatedSeries.one(EXACT, 5).extract(step, residue)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            EvalContext(5, EXACT, step, residue)


def test_expand_reference_digests():
    """Every 8th recorded expand request of the benchmark still gives the
    coefficients the program gave when the benchmark was defined."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "reference.json")
    with open(path) as fh:
        entries = json.load(fh)["expand"][::8]
    assert len(entries) == 24
    for entry in entries:
        coeffs = evaluate_text(entry["expr"], entry["order"]).coeffs
        digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
        assert digest == entry["sha256"], entry["expr"]

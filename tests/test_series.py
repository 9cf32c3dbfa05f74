import os
import random
import re
import subprocess
import sys

import pytest

from qseries import oracle, series
from qseries.qexpr import (Add, Div, EvalContext, Euler, IntLit, Mul, QVar,
                           Sub, Theta, parse_expr)
from qseries.oracle import count_partitions, naive_euler
from qseries.qfunctions import (
    borwein_a,
    eta_quotient,
    euler_cube,
    euler_f,
    ramanujan_theta,
)
from qseries.series import (
    CoefficientRing,
    EXACT,
    NonUnitError,
    RingMismatchError,
    SeriesError,
    TruncatedSeries,
    ValuationError,
    mod_ring,
)
from qseries.verify import (CongruenceCheck, IdentityCheck, RegistryItem,
                            RegistryRun, VerificationReport)

from conftest import random_series


def S(*coeffs, ring=EXACT):
    return TruncatedSeries(ring, list(coeffs))


class TestRing:
    def test_exact_and_modular(self):
        assert EXACT.modulus == 0
        assert TruncatedSeries(mod_ring(5), [-90]).coeffs == (0,)
        assert TruncatedSeries(mod_ring(11), [-90]).coeffs == (9,)

    @pytest.mark.parametrize("bad", [-1, 1])
    def test_invalid_modulus(self, bad):
        with pytest.raises(ValueError):
            CoefficientRing(bad)

    def test_units(self):
        assert EXACT.is_unit(1) and EXACT.is_unit(-1)
        assert not EXACT.is_unit(2)
        assert mod_ring(12).is_unit(5)
        assert not mod_ring(12).is_unit(4)
        with pytest.raises(NonUnitError):
            mod_ring(12).inverse(4)


# Each row builds a record and, where one exists, a record of another
# type with the same fields and values.
RECORDS = {
    "add": (lambda: Add(QVar(), Euler(1)), lambda: Sub(QVar(), Euler(1))),
    "mul": (lambda: Mul(IntLit(2), Theta(1, 2)),
            lambda: Div(IntLit(2), Theta(1, 2))),
    "tree": (lambda: parse_expr("A(q^7)/f1^-2 - a(q)"), None),
    "ring": (lambda: mod_ring(5), None),
    "context": (lambda: EvalContext(30, mod_ring(5), 3, 1), None),
    "identity": (lambda: IdentityCheck("x", "f1", "f2", modulus=5, step=2,
                                       residue=1), None),
    "congruence": (lambda: CongruenceCheck("x", (2, 15), (9, 8), None, 5, 7),
                   None),
    "item": (lambda: RegistryItem("x", "scan", "d", ("t",), ()), None),
    "report": (lambda: VerificationReport("x", "pass", 10, None, 1.5), None),
    "run": (lambda: RegistryRun(), None),
}


class TestRecord:
    """Records are slotted, immutable and compared by type and fields."""

    @pytest.mark.parametrize("make, other", RECORDS.values(), ids=RECORDS)
    def test_semantics(self, make, other):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        if other is not None:
            assert a != other() and a._values() == other()._values()
        try:
            assert hash(a) == hash(b)
        except TypeError:  # a record holding a list compares, unhashed
            assert isinstance(a, RegistryRun)
        for name in a.__slots__:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(AttributeError):
            a.unknown = 1
        assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__)
        assert a.replace() == a and a.replace() is not a

    def test_replace_rebuilds(self):
        tree = Add(QVar(), Euler(1))
        assert tree.replace(right=Euler(2)) == Add(QVar(), Euler(2))
        assert hash(tree.replace(right=Euler(2))) == hash(Add(QVar(), Euler(2)))
        check = IdentityCheck("x", "f1", "f1")
        assert (check.modulus, check.order, check.step,
                check.residue) == (0, 500, 1, 0)
        assert check.replace(order=7) == IdentityCheck("x", "f1", "f1", 0, 7)

    @pytest.mark.parametrize("call", [
        lambda: IdentityCheck("x", "f1"),
        lambda: IdentityCheck("x", "f1", "f1", 0, 500, 1, 0, 1),
        lambda: IdentityCheck("x", "f1", "f1", name="y"),
        lambda: IdentityCheck("x", "f1", "f1", mod=5),
        lambda: Add(QVar()),
        lambda: EvalContext(10).replace(depth=2),
    ], ids=["missing", "too-many", "twice", "unknown", "node", "replace"])
    def test_bad_arguments(self, call):
        with pytest.raises(TypeError):
            call()

    def test_context_ignores_records(self):
        plain = EvalContext(30, mod_ring(5), 3, 1)
        held = EvalContext(30, mod_ring(5), 3, 1, {"memo": 1})
        assert plain == held and hash(plain) == hash(held)
        assert repr(held) == repr(plain) == (
            "EvalContext(order=30, ring=CoefficientRing(modulus=5), "
            "step=3, residue=1)")
        assert held.replace(step=1, residue=0).records is held.records

    @pytest.mark.parametrize("call, message", [
        (lambda: EvalContext(0), "evaluation order must be positive"),
        (lambda: EvalContext(10, EXACT, 0), "step must be positive, got 0"),
        (lambda: EvalContext(10, EXACT, 3, 3),
         r"residue must lie in \[0, 3\), got 3"),
        (lambda: CoefficientRing(1), "modulus must be 0 or >= 2, got 1"),
        (lambda: CongruenceCheck("x", (2, 15), (0, 8), None, 5, 7),
         "left progression needs step >= 1, offset >= 0"),
        (lambda: CongruenceCheck("x", (2, 15), (9, 8), (3, -1), 5, 7),
         "right progression needs step >= 1, offset >= 0"),
    ], ids=["order", "step", "residue", "ring", "left", "right"])
    def test_validation(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_cold_import_generates_no_code(self):
        # the records are plain slotted classes: importing the package
        # loads none of the modules dataclasses would bring in
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (f"import sys; sys.path.insert(0, {src!r}); import qseries; "
                "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
                " & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == []


class TestAdd:
    def test_cancellation(self):
        assert (S(1, 1) + S(1, -1)).coeffs == (2, 0)

    def test_additive_identity(self):
        f1 = euler_f(1, 30)
        assert f1 + TruncatedSeries.zero(EXACT, 30) == f1

    def test_pentagonal_terms_drop(self):
        # adding q + q^2 to f_1 cancels the two lowest pentagonal terms
        f1 = TruncatedSeries(EXACT, naive_euler(1, 5))
        bump = S(0, 1, 1, 0, 0)
        assert (f1 + bump).coeffs == (1, 0, 0, 0, 0)

    def test_min_order(self):
        assert (S(1, 2, 3) + S(1, 1)).order == 2

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            S(1) + S(1, ring=mod_ring(5))


class TestMul:
    def test_difference_of_squares(self):
        assert (S(1, -1, 0) * S(1, 1, 0)).coeffs == (1, 0, -1)

    def test_inverse_product(self):
        f1 = euler_f(1, 60)
        assert (f1 * f1.invert()) == TruncatedSeries.one(EXACT, 60)

    def test_square_of_euler_prefix(self):
        # oracle: square the pentagonal expansion by direct convolution
        a = naive_euler(1, 5)
        expected = tuple(sum(a[j] * a[n - j] for j in range(n + 1))
                         for n in range(5))
        assert expected == (1, -2, -1, 2, 1)
        f1 = TruncatedSeries(EXACT, naive_euler(1, 5))
        assert (f1 * f1).coeffs == expected

    def test_scalar_forms(self):
        assert (3 * S(1, 2)).coeffs == (3, 6)
        assert (S(1, 2) * 3).coeffs == (3, 6)


class TestPower:
    def test_square(self):
        assert (S(1, -1, 0) ** 2).coeffs == (1, -2, 1)

    def test_fourth_power_of_euler(self):
        # oracle: repeated convolution of the naive product expansion
        f1 = TruncatedSeries(EXACT, naive_euler(1, 5))
        expected = f1 * f1 * f1 * f1
        assert expected.coeffs == (1, -4, 2, 8, -5)
        assert (euler_f(1, 5) ** 4) == expected

    def test_ninth_power_coefficient(self):
        assert (euler_f(1, 5) ** 9).coeffs[4] == -90

    def test_zero_power(self):
        assert (S(7, 3, 1) ** 0) == TruncatedSeries.one(EXACT, 3)

    def test_negative_power(self):
        geom = S(1, -1, 0, 0) ** -1
        assert geom.coeffs == (1, 1, 1, 1)

    def test_negative_power_needs_unit(self):
        with pytest.raises(NonUnitError):
            S(2, 1) ** -1

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(11)], ids=str)
    def test_positive_power_takes_the_estimated_route(self, monkeypatch,
                                                      rng, ring):
        # Repeated products multiply by the base every time; squaring
        # multiplies a power by itself.  Which one runs is what the
        # kernel's estimate picks, and the power is the repeated product.
        products = []
        real = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda x, y:
                            products.append((x, y)) or real(x, y))
        n, m = 2000, ring.modulus
        cube = euler_cube(1, n, ring)
        dense = random_series(rng, ring, order=n)
        picked = {}
        for name, base in (("cube", cube), ("dense", dense)):
            nnz = n - base.coeffs.count(0)
            h = series._height(base.coeffs, m)
            for e in (2, 3, 5, 6):
                want = base
                for _ in range(e - 1):
                    want = want * base
                products.clear()
                assert base ** e == want
                repeated = all(base in pair for pair in products)
                squarings = e.bit_length() + bin(e).count("1") - 2
                dense = min(series._mul_costs(n, n, n, h, h, m).values())
                by_base = min(series._mul_costs(nnz, n, n, h, h, m).values())
                assert repeated == (e - 1 <= squarings * dense / by_base)
                picked[name, e] = repeated
        assert picked["cube", 3] and picked["cube", 5]
        assert not picked["dense", 5] and not picked["dense", 6]

    @pytest.mark.parametrize("atom, n, p, e, by_base", [
        (euler_f, 600, 17, 17, False), (euler_f, 500, 13, 13, False),
        (euler_f, 500, 17, 17, False), (euler_cube, 97159, 11, 6, True),
    ], ids=["f1^17-600", "f1^13-500", "f1^17-500", "cube^6-97159"])
    def test_power_route_counts_each_products_cost(self, monkeypatch, atom,
                                                   n, p, e, by_base):
        # Each product also costs its call and the reduction of what it
        # keeps, once per product: f_1^p in Z/p squares, where e - 1
        # products by f_1 took two to three times as long; Jacobi's cube^6 at N = 97,159 still takes its 5
        # products by the cube, six times faster than squaring.
        products = []
        real = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda x, y:
                            products.append((x, y)) or real(x, y))
        base = atom(1, n, mod_ring(p))
        base ** e
        if by_base:
            assert len(products) == e - 1
            assert all(base in pair for pair in products)
        else:
            assert len(products) == e.bit_length() + bin(e).count("1") - 1
            assert not all(base in pair for pair in products)

    @pytest.mark.parametrize("ring, e, recurrences",
                             [(EXACT, -12, 12), (mod_ring(11), -12, 1),
                              (EXACT, -200, 1)], ids=str)
    def test_negative_power_route_depends_on_the_ring(self, monkeypatch,
                                                      ring, e, recurrences):
        # f_1^-12 at N = 600: twelve quotient recurrences by f_1 over Z,
        # where a dense power of the inverse multiplies big integers; one
        # inverse and its power in Z/11, where the power is cheap.  At
        # e = -200, 199 * 40 terms exceed the 9 squarings times N, so the
        # inverse is powered over Z too.
        calls = []
        real = series._quotient
        monkeypatch.setattr(series, "_quotient",
                            lambda *args: calls.append(1) or real(*args))
        f1 = euler_f(1, 600, ring)
        want = eta_quotient({1: e}, 600, ring)
        calls.clear()
        assert f1 ** e == want
        assert len(calls) == recurrences

    @pytest.mark.parametrize("nnz, n", [(0, 1), (1, 1), (3, 1), (40, 600),
                                        (600, 600), (10 ** 6, 10 ** 6)])
    def test_rule_one_division_always_recurs(self, nnz, n):
        # no squarings and no second recurrence: a tie, which recurs,
        # whatever the divisor's terms, even where an estimate exceeds n
        assert series.recurrences_win(1, nnz, n)

    @pytest.mark.parametrize("count", [10 ** 12, 99999999999, 10 ** 400],
                             ids=["1e12", "99999999999", "1e400"])
    @pytest.mark.parametrize("nnz, n", [(0, 5), (1, 1), (3, 5), (40, 600),
                                        (1, 10 ** 6)])
    def test_rule_powers_a_huge_count(self, count, nnz, n):
        # a divisor with no term counts its constant term, so a huge
        # count is powered even where the estimate is 0 (f_30 at order 5)
        assert not series.recurrences_win(count, nnz, n)

    def test_rule_is_the_route_of_pow(self):
        # the f_1^-12 and f_1^-200 routes above: 11 * 40 terms against
        # 4 squarings times N recur, 199 * 40 against 9 are powered
        assert series.recurrences_win(12, 40, 600)
        assert not series.recurrences_win(200, 40, 600)
        # at order 1 a divisor counted twice or three times still recurs
        assert series.recurrences_win(2, 2, 1)
        assert series.recurrences_win(3, 1, 1)

    @pytest.mark.parametrize("e", [-2, -3, -5, -12])
    def test_negative_power_of_a_dense_base_powers_the_inverse(
            self, monkeypatch, rng, e):
        # Over Z the recurrences run only for a base the kernel would not
        # multiply by Kronecker substitution, which a dense one is.
        base = random_series(rng, order=60, unit_constant=True)
        want = base.invert()
        want = want ** -e
        calls = []
        real = series._quotient
        monkeypatch.setattr(series, "_quotient",
                            lambda *args: calls.append(1) or real(*args))
        assert base ** e == want
        assert len(calls) == 1

    @pytest.mark.parametrize("e", [10**20, -10**20, 10**400],
                             ids=["1e20", "-1e20", "1e400"])
    def test_huge_exponents_square(self, e):
        # (1 + q)^e has the coefficients binom(e, k); a huge exponent
        # takes the squaring route at once, and no cost estimate turns
        # it into a float or an integer that grows with e.
        assert TruncatedSeries.one(EXACT, 5) ** e == TruncatedSeries.one(
            EXACT, 5)
        binom = [1]
        for k in range(1, 5):
            binom.append(binom[-1] * (e - k + 1) // k)
        assert (S(1, 1, 0, 0, 0) ** e).coeffs == tuple(binom)
        assert (S(1, 1, 0, 0, 0, ring=mod_ring(11)) ** e).coeffs == tuple(
            c % 11 for c in binom)

    def test_binary_and_iterative_paths_agree(self, rng):
        dense = random_series(rng, order=50, unit_constant=True)
        sparse = euler_f(1, 50)
        for base in (dense, sparse):
            step = TruncatedSeries.one(EXACT, 50)
            for e in range(1, 8):
                step = step * base
                assert base ** e == step


KERNEL_RINGS = [EXACT, mod_ring(2), mod_ring(4), mod_ring(6), mod_ring(11),
                mod_ring(17), mod_ring(2**31 - 1)]


def schoolbook(a, b, k):
    """Coefficient k of the product, summed directly."""
    return sum(a[i] * b[k - i] for i in range(k + 1))


def all_paths(a, b, m):
    """The sparse loop's, Kronecker substitution's and the shift path's
    coefficients of a*b, the packed ones at the slot width the kernel
    derives from its bound (which also covers the factors when one of
    them is zero); the shift path shifts the sparser factor's terms, as
    the kernel does."""
    n = len(a)
    nonzero = min(n - a.count(0), n - b.count(0))
    ha, hb = series._height(a, m), series._height(b, m)
    bound = max(nonzero * ha * hb, ha, hb)
    w = series._slot_bytes(bound, not m)
    sparse, dense = (a, b) if a.count(0) >= b.count(0) else (b, a)
    return (series._mul_sparse(a, b, n),
            list(series._mul_kronecker(a, b, n, w, not m)),
            list(series._mul_shift(sparse, dense, n, w, not m)))


def shift_classes(a, b, m, steps=(2, 3, 7)):
    """The shift path's class (step, residue) of a*b for every residue of
    each step, keyed by class, at the slot width of all_paths."""
    n = len(a)
    nonzero = min(n - a.count(0), n - b.count(0))
    ha, hb = series._height(a, m), series._height(b, m)
    w = series._slot_bytes(max(nonzero * ha * hb, ha, hb), not m)
    sparse, dense = (a, b) if a.count(0) >= b.count(0) else (b, a)
    return {(p, r): list(series._mul_shift(sparse, dense, n, w, not m, p, r))
            for p in steps for r in range(min(p, n))}


def kernel_operand(rng, ring, n, kind, density=1.0):
    m = ring.modulus
    if kind == "zero":
        return (0,) * n
    if kind == "sparse":
        density = 0.05
    if m:
        return tuple(rng.randrange(1, m) if rng.random() < density else 0
                     for _ in range(n))
    if kind == "negative":
        return tuple(-rng.randrange(1, 2**70) for _ in range(n))
    return tuple(rng.randrange(-2**70, 2**70) if rng.random() < density
                 else 0 for _ in range(n))


class TestMulKernel:
    """The three multiplication paths against each other and a schoolbook
    convolution."""

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 7, 600])
    @pytest.mark.parametrize("kinds", [("random", "random"),
                                       ("negative", "random"),
                                       ("negative", "negative"),
                                       ("zero", "random"),
                                       ("sparse", "random"),
                                       ("random", "square")])
    def test_paths_agree_with_schoolbook(self, ring, n, kinds):
        rng = random.Random(f"{ring} {n} {kinds}")
        a = kernel_operand(rng, ring, n, kinds[0])
        b = a if kinds[1] == "square" else kernel_operand(rng, ring, n,
                                                          kinds[1])
        expected = [schoolbook(a, b, k) for k in range(n)]
        sparse, kronecker, shift = all_paths(a, b, ring.modulus)
        assert sparse == expected
        assert kronecker == expected
        assert shift == expected
        for (p, r), got in shift_classes(a, b, ring.modulus).items():
            assert got == expected[r::p], (p, r)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_paths_agree_at_order_5000(self, ring):
        rng = random.Random(5000 + ring.modulus)
        n = 5000
        a = kernel_operand(rng, ring, n, "random", density=0.01)
        b = kernel_operand(rng, ring, n, "random")
        sparse, kronecker, shift = all_paths(a, b, ring.modulus)
        assert sparse == kronecker == shift
        for k in (0, 1, 2, 2499, 4998, 4999):
            assert kronecker[k] == schoolbook(a, b, k)

    @pytest.mark.parametrize("bound, signed, width", [
        (2**32 - 1, False, 4), (2**32, False, 8),
        (2**64 - 1, False, 8), (2**64, False, 9),
        (2**31 - 1, True, 4), (2**31, True, 8),
        (2**63 - 1, True, 8), (2**63, True, 9),
    ])
    def test_slot_width_switches(self, bound, signed, width):
        assert series._slot_bytes(bound, signed) == width

    @pytest.mark.parametrize("m, n, width", [
        (2**16, 1, 4), (2**16 + 1, 1, 8),            # bound near 2**32
        (2**32, 1, 8), (2**32 + 1, 1, 9),            # bound near 2**64
        (2**31 - 1, 4, 8), (2**31 - 1, 5, 9),
    ])
    def test_residue_products_at_slot_limits(self, m, n, width):
        # all coefficients m - 1: the top product coefficient equals the
        # bound n*(m-1)**2, so a slot one size too small would overflow
        a = (m - 1,) * n
        assert series._slot_bytes(n * (m - 1) ** 2, False) == width
        sparse, kronecker, shift = all_paths(a, a, m)
        assert sparse == kronecker == shift == [(k + 1) * (m - 1) ** 2
                                                for k in range(n)]
        for (p, r), got in shift_classes(a, a, m, (2, 3)).items():
            assert got == shift[r::p], (p, r)

    @pytest.mark.parametrize("h, width", [
        (2**15 - 1, 4), (2**15, 8),                  # bound 2*h*h near 2**31
        (2**31 - 1, 8), (2**31, 9),                  # bound near 2**63
    ])
    def test_signed_products_at_slot_limits(self, h, width):
        a, b = (h, h), (-h, -h)
        assert series._slot_bytes(2 * h * h, True) == width
        for x, y in ((a, b), (b, b), (a, a)):
            sparse, kronecker, shift = all_paths(x, y, 0)
            assert sparse == kronecker == shift == [schoolbook(x, y, k)
                                                    for k in range(2)]
            assert shift_classes(x, y, 0, (2,)) == {(2, 0): shift[:1],
                                                    (2, 1): shift[1:]}

    def test_dispatch_takes_each_path(self, monkeypatch):
        taken = []
        for name in ("_mul_sparse", "_mul_kronecker", "_mul_shift"):
            real = getattr(series, name)
            monkeypatch.setattr(series, name,
                                lambda *args, real=real, name=name:
                                taken.append(name) or real(*args))
        ring = mod_ring(11)
        dense = random_series(random.Random(3), ring, order=600)
        monomial = TruncatedSeries(ring, [0] * 5 + [3] + [0] * 594)
        f5, f7 = euler_f(5, 600, ring), euler_f(7, 600, ring)
        for x, y, path in ((dense, dense, "_mul_kronecker"),
                           (monomial, dense, "_mul_shift"),
                           (dense, f7, "_mul_shift"),
                           (f5, f7, "_mul_sparse")):
            taken.clear()
            assert (x * y).coeffs == tuple(
                schoolbook(x.coeffs, y.coeffs, k) % 11 for k in range(600))
            assert taken == [path]

    def test_one_class_on_each_path(self, monkeypatch):
        # mul computes only the class on the shift path, and the
        # whole product, then the class, on the other two
        taken, seen = [], set()
        for name in ("_mul_sparse", "_mul_kronecker", "_mul_shift"):
            real = getattr(series, name)
            monkeypatch.setattr(series, name,
                                lambda *args, real=real, name=name:
                                taken.append(name) or real(*args))
        for ring in (EXACT, mod_ring(11)):
            dense = random_series(random.Random(5), ring, order=600)
            monomial = TruncatedSeries(ring, [0] * 5 + [3] + [0] * 594)
            f5, f7 = euler_f(5, 600, ring), euler_f(7, 600, ring)
            for x, y in ((dense, dense), (monomial, dense), (dense, f7),
                         (f5, f7), (f7, dense.truncate(599))):
                whole = x * y
                for p, r in ((1, 0), (2, 1), (27, 12), (599, 598), (600, 0),
                             (1000, 598)):
                    taken.clear()
                    assert x.mul(y, 1, p, r) == whole.extract(p, r)
                    assert len(taken) == 1
                    seen.update(taken)
        assert seen == {"_mul_sparse", "_mul_kronecker", "_mul_shift"}

    @pytest.mark.parametrize("p, r", [(0, 0), (3, 3), (3, -1), (7, 5)])
    def test_one_class_fails_as_extract_does(self, p, r):
        x = S(1, 2, 3, 4, 5, ring=mod_ring(5))
        y = S(1, 1, 1, 1, 1, 1, ring=mod_ring(5))
        with pytest.raises((ValueError, ValuationError)) as want:
            (x * y).extract(p, r)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            x.mul(y, 1, p, r)
        with pytest.raises(RingMismatchError):
            x.mul(S(1, 1))

    def test_oracle_needs_no_kernel(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("the oracle reached the product kernel")

        monkeypatch.setattr(series, "_mul_coeffs", no_kernel)
        assert oracle.count_partitions(10)[-1] == 30
        assert oracle.count_bipartitions(2, 15, 40) \
            and oracle.naive_euler(1, 40)[:3] == [1, -1, -1]


def _outcome(compute):
    try:
        return compute()
    except (ValueError, SeriesError) as exc:
        return type(exc), str(exc)


class TestSparseSquare:
    """Squaring over pairs i <= j of nonzero terms, the off-diagonal
    products doubled, against the sparse loop's every ordered pair."""

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_equals_sparse_loop_on_lacunary_series(self, ring):
        rng = random.Random(f"square {ring}")
        m = ring.modulus
        for _ in range(40):
            n = rng.randint(1, 400)
            a = tuple((rng.randrange(1, m) if m else
                       rng.choice((-1, 1)) * rng.randrange(1, 2**40))
                      if rng.random() < rng.choice((0.02, 0.1, 0.3)) else 0
                      for _ in range(n))
            assert series._square_sparse(a, n) == \
                series._mul_sparse(a, a, n), (n, a)

    def test_kernel_squares_an_euler_cube_by_half_pairs(self, monkeypatch):
        ring = mod_ring(11)
        cube = euler_cube(1, 5000, ring)
        want = cube * euler_cube(1, 5000, ring)  # an equal, other object
        called = []
        square = series._square_sparse

        def counted(a, n):
            called.append(n)
            return square(a, n)

        monkeypatch.setattr(series, "_square_sparse", counted)
        assert cube * cube == want
        assert called == [5000]


class TestResidueConstructor:
    """Results that only move coefficients already reduced for their
    ring, quotients and atoms skip the constructor's reduction and equal
    the reduced ones."""

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(7)], ids=str)
    def test_comes_out_unchanged(self, rng, ring):
        a = random_series(rng, ring, order=30)
        b = TruncatedSeries._of_residues(ring, list(a.coeffs))
        assert b == a and b.order == 30 and type(b.coeffs) is tuple
        assert b.coeffs == TruncatedSeries(ring, a.coeffs).coeffs
        for got, want in (
                (a.extract(3, 1), TruncatedSeries(ring, a.coeffs[1::3])),
                (a.truncate(7), TruncatedSeries(ring, a.coeffs[:7])),
                (a.shift(2), TruncatedSeries(ring, (0, 0) + a.coeffs)),
                (a.substitute_power(2, cap=5), TruncatedSeries(
                    ring, (a[0], 0, a[1], 0, a[2])))):
            assert got == want and got.coeffs == want.coeffs

    def test_skips_the_reduction(self, monkeypatch):
        a = S(1, 2, 3, 4, ring=mod_ring(5))

        def no_init(self, ring, coeffs):
            raise AssertionError("reduced again")

        monkeypatch.setattr(TruncatedSeries, "__init__", no_init)
        a.extract(2, 1), a.truncate(2), a.shift(1), a.substitute_power(3)

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(5), mod_ring(12)],
                             ids=str)
    def test_quotients_skip_the_reduction(self, monkeypatch, rng, ring):
        # the recurrence reduces every coefficient in Z/m already
        num = random_series(rng, ring, order=60)
        den = random_series(rng, ring, order=60, unit_constant=True)
        shifted = den.shift(3)
        want = [num.divide(den), den.invert(), num.shift(3).divide(shifted)]

        def no_init(self, ring, coeffs):
            raise AssertionError("reduced again")

        monkeypatch.setattr(TruncatedSeries, "__init__", no_init)
        got = [num.divide(den), den.invert(), num.shift(3).divide(shifted)]
        monkeypatch.undo()
        assert got == want
        m = ring.modulus
        for q in got:
            assert type(q.coeffs) is tuple
            assert q.coeffs == TruncatedSeries(ring, q.coeffs).coeffs
            if m:
                assert all(0 <= c < m for c in q.coeffs)

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(5), mod_ring(12)],
                             ids=str)
    def test_atoms_zero_and_one_skip_the_reduction(self, monkeypatch, ring):
        # each atom places its terms as residues, theta(3, 3) adding two
        # values at each exponent first
        def no_init(self, ring, coeffs):
            raise AssertionError("reduced again")

        monkeypatch.setattr(TruncatedSeries, "__init__", no_init)
        got = [euler_f(2, 90, ring), euler_cube(1, 90, ring),
               ramanujan_theta((3, 3), 90, ring), borwein_a(2, 90, ring),
               TruncatedSeries.zero(ring, 9), TruncatedSeries.one(ring, 9)]
        monkeypatch.undo()
        for series_ in got:
            assert type(series_.coeffs) is tuple
            assert series_.coeffs == TruncatedSeries(ring, series_.coeffs).coeffs
        assert got[-1].coeffs == (1,) + (0,) * 8

    @pytest.mark.parametrize("order", [0, -1])
    def test_zero_and_one_need_a_positive_order(self, order):
        for build in (TruncatedSeries.zero, TruncatedSeries.one):
            with pytest.raises(ValueError, match="positive truncation order"):
                build(mod_ring(3), order)


class TestPackedSlots:
    """_pack and _unpack at every slot width, the wide (> 8 bytes) ones
    included: the extreme values of a slot come back unchanged."""

    @pytest.mark.parametrize("signed", [True, False])
    def test_round_trip(self, rng, signed):
        for w in range(1, 21):
            top = 1 << 8 * w - signed
            lo = -top if signed else 0
            c = [lo, top - 1, 0, 1] + [rng.randrange(lo, top)
                                       for _ in range(50)]
            packed = series._pack(c, w, signed)
            assert packed == sum(v << 8 * w * i for i, v in enumerate(c))
            assert list(series._unpack(packed, len(c), w, signed)) == c
            # the low slots alone, whatever lies above them
            assert list(series._unpack(packed, 3, w, signed)) == c[:3]


def plain_quotient(num, dens, k, n):
    """num / (D_1(q^k) D_2(q^k) ...) by the schoolbook recurrence at the
    whole order, one divisor at a time, each D given by its coefficients
    in q."""
    g = list(num)
    for den in dens:
        substituted = [0] * n
        for j, v in enumerate(den[:-(-n // k)]):
            substituted[k * j] = v
        g = schoolbook_quotient(g, substituted, 0)
    return g


class TestPackedQuotient:
    """Division by series in q^k over Z on k-slot packed ints, against
    the recurrence at the whole order."""

    @pytest.mark.parametrize("k", [2, 3, 7, 24])
    def test_equals_the_plain_recurrence(self, rng, k):
        # signed numerators up to 300 bits, up to four divisions (the
        # same divisor repeated often), orders mostly not multiples of k,
        # and slots as narrow as the numerator and the quotient allow, or
        # a little wider
        for _ in range(12):
            n = rng.randint(1, 12 * k + 40)
            size = -(-n // k)
            atoms = [euler_f(1, size), euler_cube(1, size),
                     ramanujan_theta((1, 3), size),
                     ramanujan_theta((1, 1), size)]
            dens = [rng.choice(atoms[:rng.randint(1, 4)]).coeffs
                    for _ in range(rng.randint(0, 4))]
            height = 1 << rng.randint(0, 300)
            num = [rng.randint(-height, height) for _ in range(n)]
            want = plain_quotient(num, dens, k, n)
            bits = (max(map(abs, num + want)).bit_length() + 1
                    + rng.choice((0, 0, 1, 7, 8, 64)))
            assert series._quotient_packed(num, dens, k, n, bits) == want

    def test_takes_no_slot_wider_than_asked(self, monkeypatch):
        widths = []
        for name in ("_to_slots", "_from_slots"):
            real = getattr(series, name)
            monkeypatch.setattr(series, name, lambda c, w, bias, real=real: (
                widths.append(w) or real(c, w, bias)))
        num = [5, -3, 2, 7, -1]
        dens = [euler_f(1, 3).coeffs]
        assert series._quotient_packed(num, dens, 2, 5, 9) == \
            plain_quotient(num, dens, 2, 5)
        # 9 bits: 2-byte slots, read as 4-byte rows and back
        assert widths == [2, 4, 4, 2]


class TestMulSubstituted:
    """self * other(q^k), on one class, against the product with the
    substituted series: same coefficients, order and errors."""

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(2), mod_ring(4),
                                      mod_ring(5)], ids=str)
    def test_equals_product_with_the_substituted_series(self, rng, ring):
        for _ in range(300):
            a = random_series(rng, ring, order=rng.randint(1, 40))
            b = random_series(rng, ring, order=rng.randint(1, 12))
            k, p = rng.randint(1, 9), rng.randint(1, 8)
            r = rng.randrange(p)
            assert _outcome(lambda: a.mul(b, k, p, r)) == \
                _outcome(lambda: (a * b.substitute_power(k)).extract(p, r)), \
                (a, b, k, p, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            S(1, 2).mul(S(1), 0)
        with pytest.raises(RingMismatchError):
            S(1, 2).mul(S(1, ring=mod_ring(5)), 2)


class TestInvert:
    def test_geometric(self):
        assert S(1, -1, 0, 0, 0).invert().coeffs == (1, 1, 1, 1, 1)

    def test_partition_numbers(self):
        inv = euler_f(1, 10).invert()
        assert list(inv.coeffs) == count_partitions(10)
        assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)

    def test_involution(self):
        f2 = euler_f(2, 40)
        assert f2.invert().invert() == f2

    def test_non_unit_constant(self):
        with pytest.raises(NonUnitError):
            S(0, 1).invert()
        with pytest.raises(NonUnitError):
            S(3, 1, ring=mod_ring(12)).invert()

    def test_two_sided_inverse(self, rng, rings):
        for ring in rings:
            a = random_series(rng, ring, order=35, unit_constant=True)
            one = TruncatedSeries.one(ring, 35)
            assert a * a.invert() == one
            assert a.invert() * a == one


class TestDivide:
    def test_basic(self):
        assert (S(1, 0, -1) / S(1, -1, 0)).coeffs == (1, 1, 0)

    def test_euler_quotient_matches_dissection_lemma(self):
        # f2^2/f1 against its stated 3-dissection, both sides evaluated
        lhs = (euler_f(2, 60) ** 2) / euler_f(1, 60)
        rhs = ((euler_f(6, 60) * euler_f(9, 60) ** 2)
               / (euler_f(3, 60) * euler_f(18, 60))
               + (euler_f(18, 60) ** 2 / euler_f(9, 60)).shift(1, cap=60))
        assert lhs.first_mismatch(rhs) is None

    def test_valuation_cancellation(self):
        num = S(0, 0, 1, 1)
        den = S(0, 0, 1, 0)
        q = num / den
        assert q.coeffs == (1, 1)
        assert q.order == 2

    def test_zero_divisor(self):
        with pytest.raises(NonUnitError):
            S(1, 1) / S(0, 0)

    def test_valuation_deficit(self):
        with pytest.raises(ValuationError):
            S(1, 0, 0) / S(0, 1, 0)

    def test_non_unit_leading(self):
        with pytest.raises(NonUnitError):
            S(1, 0) / S(2, 0)


def schoolbook_quotient(num, den, m):
    """num/den mod m (m = 0: over Z, where den[0] is +-1 and its own
    inverse) by the quotient recurrence, one term at a time."""
    inv = pow(den[0], -1, m) if m else den[0]
    g = []
    for i in range(len(num)):
        s = num[i] - sum(den[k] * g[i - k] for k in range(1, min(i + 1, len(den))))
        g.append(s * inv % m if m else s * inv)
    return g


UNIT_TERM_RINGS = [EXACT] + [mod_ring(m) for m in (2, 3, 4, 5, 11)]


def recorded_gathers(monkeypatch):
    """The offsets of every itemgetter series builds from now on."""
    made = []
    real = series.itemgetter
    monkeypatch.setattr(series, "itemgetter", lambda *items: made.append(
        items) or real(*items))
    return made


class TestUnitTermQuotient:
    """The quotient recurrence sums the +1 terms and the -1 terms (m - 1
    in Z/m) of a divisor without products, and multiplies every other
    term in one at a time, in Z and in Z/m alike; checked against the
    schoolbook recurrence."""

    @pytest.mark.parametrize("ring", UNIT_TERM_RINGS, ids=str)
    def test_matches_the_general_recurrence(self, rng, ring):
        m = ring.modulus
        n = 300
        two = list(euler_f(1, n).coeffs)
        two[4] = 2  # not +-1 unless m is 2 (where it is 0) or 3
        divisors = [euler_f(1, n, ring), euler_f(3, n, ring),
                    -euler_f(2, n, ring), ramanujan_theta((1, 2), n, ring),
                    TruncatedSeries(ring, two)]
        for den in divisors:
            num = random_series(rng, ring, order=n)
            got = num / den
            assert got * den == num
            assert list(got.coeffs) == schoolbook_quotient(num.coeffs,
                                                           den.coeffs, m)

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(5)], ids=str)
    def test_gathers_never_return_twenty_items(self, monkeypatch, rng, ring):
        # f_1 at N = 1500 has 31 terms of each sign, so both gathers pass
        # the sizes where the pads grow; the quotients are unchanged.
        made = recorded_gathers(monkeypatch)
        n = 1500
        den = euler_f(1, n, ring)
        num = random_series(rng, ring, order=n)
        got = num / den
        sizes = {len(items) for items in made}
        assert 20 not in sizes and {19, 21} <= sizes
        assert got * den == num
        assert list(got.coeffs) == schoolbook_quotient(
            num.coeffs, den.coeffs, ring.modulus)

    def test_pads(self):
        # every pad reads the sentinel g[0] = 0, and no gather of any
        # size ends at exactly 20 items
        for size in range(100):
            pads = series._pads(size)
            assert set(pads) == {0}
            assert 1 <= len(pads) <= 2
            assert size + len(pads) != 20

    def test_z2_files_every_term_with_the_plus_ones(self, monkeypatch, rng):
        # 1 = -1 in Z/2: all of f_1's terms, of both signs over Z, share
        # one gather
        made = recorded_gathers(monkeypatch)
        n = 400
        ring = mod_ring(2)
        den = euler_f(1, n, ring)
        terms = n - den.coeffs.count(0) - 1
        num = random_series(rng, ring, order=n)
        got = num / den
        assert max(map(len, made)) == terms + len(series._pads(terms))
        assert list(got.coeffs) == schoolbook_quotient(num.coeffs,
                                                       den.coeffs, 2)

    @pytest.mark.parametrize("m", [0, 2, 4, 11])
    def test_sign_gathers_take_no_products(self, rng, m):
        # only a term that is neither +1 nor -1 (3, or m - 1 = 3 in Z/4)
        # is multiplied into its gather's sum
        products = []

        class Term(int):
            def __mul__(self, other):
                products.append(int(self))
                return int(self) * other

        n = 400
        ring = mod_ring(m) if m else EXACT
        coeffs = list(euler_f(1, n, ring).coeffs)
        if m > 4:
            coeffs[5] = 3
        den = coeffs[:1] + [Term(v) for v in coeffs[1:]]
        num = list(random_series(rng, ring, order=n).coeffs)
        got = series._quotient(num, den, n, ring)
        assert set(products) == ({3} if m > 4 else set())
        assert got == schoolbook_quotient(num, coeffs, m)

    @pytest.mark.parametrize("m, values", [
        (4, (2,)),            # a term 2, neither +1 nor -1 = 3, nor a unit
        (11, (3, 7, 5)),      # other values beside f_1's +1s and -1s
        (11, (10, 10, 2)),    # two +1 terms made -1 (10), and one 2
    ])
    def test_signs_and_other_values_together(self, monkeypatch, rng, m,
                                             values):
        made = recorded_gathers(monkeypatch)
        n = 400
        ring = mod_ring(m)
        coeffs = list(euler_f(1, n, ring).coeffs)
        terms = [k for k, v in enumerate(coeffs) if v and k]
        for k, v in zip(terms[3::7], values):
            coeffs[k] = v
        den = TruncatedSeries(ring, coeffs)
        num = random_series(rng, ring, order=n)
        got = num / den
        assert list(got.coeffs) == schoolbook_quotient(num.coeffs, coeffs, m)
        # the gathers read the +1 and -1 terms, and only those
        read = set()
        for items in made:
            read.update(-o for o in items if o)
        assert read == {k for k in terms if coeffs[k] in (1, m - 1)}

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(11), mod_ring(9)],
                             ids=str)
    @pytest.mark.parametrize("count", [1, 19, 20, 21])
    def test_other_values_beside_the_sign_gathers(self, monkeypatch, rng,
                                                  ring, count):
        # count terms that are neither +1 nor -1, values repeated, among
        # f_1's +1s and -1s: the two sign gathers read the +1s and -1s
        # and none of them, and no gather returns 20 items
        made = recorded_gathers(monkeypatch)
        n = 150
        m = ring.modulus
        coeffs = list(euler_f(1, n, ring).coeffs)
        others = sorted(rng.sample(
            [k for k, v in enumerate(coeffs) if k and not v], count))
        for k in others:
            coeffs[k] = rng.choice((2, 3, 6, -4))
        den = TruncatedSeries(ring, coeffs)
        num = TruncatedSeries(ring, [rng.getrandbits(300) - (1 << 299)
                                     for _ in range(n)])
        got = num / den
        assert list(got.coeffs) == schoolbook_quotient(num.coeffs,
                                                       den.coeffs, m)
        read = {-o for items in made for o in items if o}
        assert read == {k for k, v in enumerate(coeffs) if k and v
                        and k not in others}
        assert 20 not in set(map(len, made))


class TestModularGather:
    """The Z/m quotient recurrence gathers g[i-k] for all divisor terms
    in range at once; checked against the schoolbook recurrence."""

    @pytest.mark.parametrize("num, den, m", [
        ([1, 2, 3], [1, 0, 0, 0, 5], 11),      # only later term at k >= n
        ([1, 2, 3], [1, 0, 0, 7], 11),          # ... at k == n
        ([4], [3, 5], 11),                       # order 1
        ([5, 1, 0, 2, 9, 3], [3, 0, 0, 1, 0, 0], 11),  # unit 3, one term
        ([1, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0], 2),
    ])
    def test_small_cases(self, num, den, m):
        ring = mod_ring(m)
        got = S(*num, ring=ring) / S(*den, ring=ring)
        n = min(len(num), len(den))
        assert list(got.coeffs) == schoolbook_quotient(num[:n], den[:n], m)

    @pytest.mark.parametrize("m", [5, 7, 11, 4, 9])
    def test_jacobi_cube_matches_the_general_recurrence(self, monkeypatch,
                                                        rng, m):
        # the cube's terms (-1)^n (2n+1) take up to m - 1 values mod m
        # (all are 1 mod 4); those neither +1 nor -1 are multiplied in
        # one at a time
        sizes = set()
        real = series.itemgetter
        monkeypatch.setattr(series, "itemgetter", lambda *items: sizes.add(
            len(items)) or real(*items))
        n = 1500
        den = euler_cube(1, n, mod_ring(m)).coeffs
        num = [rng.randrange(m) for _ in range(n)]
        got = series._quotient(num, den, n, mod_ring(m))
        assert got == schoolbook_quotient(num, den, m)
        assert 20 not in sizes and len(sizes) > 1

    @pytest.mark.parametrize("m, c0", [(11, 3), (11, 1), (17, 16), (6, 5),
                                       (4, 3), (2, 1)])
    def test_dense_and_sparse_divisors(self, rng, m, c0):
        ring = mod_ring(m)
        for n, density in ((1, 1.0), (2, 1.0), (300, 1.0), (300, 0.05)):
            num = [rng.randrange(m) for _ in range(n)]
            den = [c0] + [rng.randrange(m) if rng.random() < density else 0
                          for _ in range(n - 1)]
            want = schoolbook_quotient(num, den, m)
            got = S(*num, ring=ring) / S(*den, ring=ring)
            assert list(got.coeffs) == want, (n, density)
            inv = S(*den, ring=ring).invert()
            assert list(inv.coeffs) == schoolbook_quotient(
                [1] + [0] * (n - 1), den, m)


class TestExtract:
    def test_direct_indexing(self):
        a = S(1, 2, 3, 4, 5, 6)
        assert a.extract(3, 2).coeffs == (3, 6)

    def test_partition_congruence(self):
        p = euler_f(1, 5 * 40 + 4).invert()
        sub = p.extract(5, 4)
        assert all(v % 5 == 0 for v in sub.coeffs)

    def test_parameter_validation(self):
        a = S(1, 2, 3)
        with pytest.raises(ValueError):
            a.extract(3, 3)
        with pytest.raises(ValueError):
            a.extract(3, -1)

    def test_over_extraction(self):
        with pytest.raises(ValuationError):
            S(1, 2).extract(7, 5)

    def test_reassembly(self, rng, rings):
        for ring in rings:
            a = random_series(rng, ring, order=50)
            for p in range(2, 10):
                total = TruncatedSeries.zero(ring, 50)
                for r in range(p):
                    piece = a.extract(p, r).substitute_power(p).shift(r)
                    total = total + piece.truncate(50)
                assert total == a


class TestSubstitutePower:
    def test_basic(self):
        assert S(1, 1).substitute_power(3).coeffs == (1, 0, 0, 1, 0, 0)

    def test_euler_index_scaling(self):
        assert euler_f(1, 25).substitute_power(2).truncate(50) == euler_f(2, 50)

    def test_cap(self):
        assert S(1, 1).substitute_power(3, cap=4).coeffs == (1, 0, 0, 1)


class TestShiftScalarReduce:
    def test_shift(self):
        assert S(1, 1).shift(2).coeffs == (0, 0, 1, 1)

    def test_shift_cap(self):
        assert S(1, 1).shift(2, cap=3).coeffs == (0, 0, 1)

    def test_slices_match_the_coefficient_loop(self):
        # shift and substitute_power copy by slices; the loop they
        # replaced is the reference
        rng = random.Random(7)
        for _ in range(300):
            a = S(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 12))))
            t, k = rng.randint(0, 15), rng.randint(1, 5)
            cap = rng.choice([None, rng.randint(1, 40)])
            n = a.order + t if cap is None else min(a.order + t, cap)
            want = [0] * n
            for i, c in enumerate(a.coeffs):
                if t + i < n:
                    want[t + i] = c
            assert a.shift(t, cap).coeffs == tuple(want)
            n = a.order * k if cap is None else min(a.order * k, cap)
            want = [0] * n
            for i, c in enumerate(a.coeffs):
                if i * k < n:
                    want[i * k] = c
            assert a.substitute_power(k, cap).coeffs == tuple(want)

    def test_scalar_then_reduce_commutes_with_reduced_scalar(self):
        f75 = euler_f(7, 80) ** 5
        lhs = f75.scalar_mul(49).reduce_mod(11)
        rhs = f75.reduce_mod(11).scalar_mul(5)
        assert lhs == rhs

    def test_reduce_of_negative_scalar(self):
        x = euler_f(1, 30)
        assert x.scalar_mul(-90).reduce_mod(11) == x.reduce_mod(11).scalar_mul(9)

    def test_reduce_mod_wrong_modulus(self):
        a = S(1, 2, ring=mod_ring(5))
        assert a.reduce_mod(5) == a
        with pytest.raises(RingMismatchError):
            a.reduce_mod(7)


class TestRingLaws:
    def test_ring_axioms(self, rng, rings):
        for ring in rings:
            a = random_series(rng, ring)
            b = random_series(rng, ring)
            c = random_series(rng, ring)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            one = TruncatedSeries.one(ring, a.order)
            assert a * one == a
            assert a + TruncatedSeries.zero(ring, a.order) == a
            assert a - a == TruncatedSeries.zero(ring, a.order)

    def test_exact_and_modular_pipelines_commute(self, rng):
        for m in (5, 11, 17):
            a = random_series(rng, EXACT, order=30)
            b = random_series(rng, EXACT, order=30)
            assert (a + b).reduce_mod(m) == a.reduce_mod(m) + b.reduce_mod(m)
            assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)
            for e in (0, 1, 2, 5):
                assert (a ** e).reduce_mod(m) == a.reduce_mod(m) ** e


class TestInspection:
    def test_order_respected_in_equality(self):
        assert S(1, 2) != S(1, 2, 0)

    def test_first_mismatch(self):
        assert S(1, 2, 3).first_mismatch(S(1, 2, 3, 9)) is None
        assert S(1, 2, 3).first_mismatch(S(1, 5, 3)) == (1, 2, 5)

    def test_valuation(self):
        assert S(0, 0, 4).valuation() == 2
        assert S(0, 0).valuation() is None

    def test_indexing(self):
        a = S(5, 6)
        assert a[1] == 6
        with pytest.raises(IndexError):
            a[2]

    def test_q_string(self):
        assert euler_f(1, 6).q_string() == "1 - q - q^2 + q^5 + O(q^6)"

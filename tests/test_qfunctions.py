import json
import math
import os
import random
import re

import pytest

from qseries import cli, qfunctions, series
from qseries.oracle import (
    bilateral_theta,
    count_bipartitions,
    count_partitions,
    count_regular,
    divisor_count_difference,
    lattice_a,
    naive_euler,
)
from qseries.qfunctions import (
    bipartition_series,
    borwein_a,
    eta_quotient,
    euler_cube,
    euler_f,
    pk_series,
    ramanujan_theta,
    regular_series,
    septic_ABC,
)
from qseries.series import EXACT, SeriesError, TruncatedSeries, mod_ring
from qseries.verify import REGISTRY, run_item


class TestEulerF:
    def test_frozen_prefixes(self):
        assert euler_f(1, 13).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
        assert euler_f(2, 5).coeffs == (1, 0, -1, 0, -1)

    def test_against_naive_product(self):
        for k in range(1, 51):
            assert list(euler_f(k, 500).coeffs) == naive_euler(k, 500), k

    def test_index_scaling(self):
        for k in (2, 3, 7, 49):
            n = 90
            inner = euler_f(1, -(-n // k))
            assert inner.substitute_power(k).truncate(n) == euler_f(k, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_f(0, 10)
        with pytest.raises(ValueError):
            euler_f(1, 0)


ALL_RINGS = [EXACT] + [mod_ring(m) for m in (4, 5, 6, 11, 17)]


class TestEulerCube:
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_jacobi_identity(self, ring):
        for k in (1, 2, 7, 27):
            for n in (1, 2, 3, 50, 1000):
                assert euler_cube(k, n, ring) == euler_f(k, n, ring) ** 3, (k, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_cube(0, 10)
        with pytest.raises(ValueError):
            euler_cube(1, 0)


class TestPkSeries:
    def test_partition_numbers(self):
        assert pk_series(-1, 10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)

    def test_fifth_power_value(self):
        assert pk_series(5, 4).coeffs[3] == 10

    def test_ninth_power_value(self):
        assert pk_series(9, 5).coeffs[4] == -90

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            pk_series(0, 10)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_negative_powers_are_inverted_powers(self, ring):
        for k in (1, 2, 3, 4, 7, 12):
            for n in (1, 2, 200):
                want = euler_f(1, n, ring).invert() ** k
                assert pk_series(-k, n, ring) == want, (k, n)


class TestDivideEulerPower:
    """Division by f_k^p through the planner, for p = 0 .. 7: every
    remainder of p mod 3, so the cube-only, the extra f_k and the
    f_k-times-one-more-cube plans all run."""

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_equals_division_by_the_whole_power(self, ring):
        num = TruncatedSeries(ring, [(7 * i * i - 3) % 23 - 11 for i in range(150)])
        for k in (1, 2, 5):
            for p in range(8):
                want = num.divide(euler_f(k, 150, ring) ** p)
                got = eta_quotient({k: -p}, 150, ring, [num])
                assert got == want, (k, p)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_mixed_quotient_equals_whole_quotient(self, ring):
        n = 120
        exponents = {3: 2, 1: -5, (2, 5): -1, 7: -2, (1, 6): 3, 2: -3}
        whole = TruncatedSeries.one(ring, n)
        for key, e in exponents.items():
            atom = (ramanujan_theta(key, n, ring) if isinstance(key, tuple)
                    else euler_f(key, n, ring))
            whole = whole * atom ** e if e > 0 else whole.divide(atom ** -e)
        assert eta_quotient(exponents, n, ring) == whole

    def test_zero_exponents_build_nothing(self):
        # theta(0, 1) would raise if it were built
        assert eta_quotient({(0, 1): 0, 1: 0}, 5) == TruncatedSeries.one(EXACT, 5)

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(2), mod_ring(4),
                                      mod_ring(5)], ids=str)
    @pytest.mark.parametrize("key", [0, -3, (0, 3)], ids=str)
    def test_malformed_key_raises_before_the_rewrites(self, ring, key):
        # over Z/p, f_0^-1 would become f_0^(p-1) / f_0 and cancel
        builder = ramanujan_theta if isinstance(key, tuple) else euler_f
        with pytest.raises(ValueError) as want:
            builder(key, 1)
        for e in (-5, -2, -1, 1):
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                eta_quotient({key: e, 1: 1}, 5, ring)


def _whole_quotient(exponents, n, factors, ring=EXACT):
    """The quotient the plain way, over Z by default: each atom raised to
    its whole power, then multiplied in or divided out.  Every divisor
    has constant term 1, so in Z/m this is the quotient over Z reduced."""
    whole = TruncatedSeries.one(ring, n)
    for f in factors:
        whole = whole * f
    for key, e in exponents.items():
        atom = (ramanujan_theta(key, n, ring) if isinstance(key, tuple)
                else euler_f(key, n, ring))
        whole = whole * atom ** e if e > 0 else whole.divide(atom ** -e)
    return whole


def _substitution_case(rng, m, n):
    """Random exponents that put f_ck^(e>0) next to f_k^(e<0), for c a
    multiple or a prime factor of m, and f_k^(e<0) alone, with thetas and
    factors mixed in."""
    step = m or rng.choice((2, 3, 5))
    steps = [step, step * step] + [d for d in (2, 3) if step % d == 0]
    exponents = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.choice((1, 2, 3))
        exponents[rng.choice(steps) * k] = rng.randint(1, 3)
        exponents[k] = -rng.randint(1, 4)
    exponents[rng.choice((1, 4, 5, 7))] = -rng.randint(1, 2 * step)
    for _ in range(rng.randint(0, 2)):
        spec = (rng.randint(1, 4), rng.randint(1, 4))
        exponents[spec] = rng.choice((-2, -1, 1, 2))
    factors = [TruncatedSeries(EXACT, [rng.randint(-9, 9) for _ in range(n)])
               for _ in range(rng.randint(0, 2))]
    return exponents, factors


def _record_built(monkeypatch):
    """The set that collects (k, order) for every f_k or f_k^3 built."""
    keys = set()

    def recording(constructor):
        def build(k, order, ring=EXACT):
            keys.add((k, order))
            return constructor(k, order, ring)
        return build

    for name in ("euler_f", "euler_cube"):
        monkeypatch.setattr(qfunctions, name,
                            recording(getattr(qfunctions, name)))
    return keys


class TestFrobeniusSubstitution:
    """Over Z/p, p prime, f_k^-e becomes f_k^(cp-e) * f_pk^-c, which
    cancels against a positive power of f_pk, or else is (f_1^-c)(q^pk)
    with f_1^-c planned at order ceil(n / pk); for composite m (4, 6, 9)
    nothing is rewritten."""

    @pytest.mark.parametrize("m", [0, 2, 4, 5, 6, 9, 11, 17])
    def test_equals_exact_quotient_reduced(self, monkeypatch, m, rng):
        n = 60
        powers = []  # the substitution power k of every product
        mul = TruncatedSeries.mul

        def recorded(self, other, k=1, p=1, r=0):
            powers.append(k)
            return mul(self, other, k, p, r)

        monkeypatch.setattr(TruncatedSeries, "mul", recorded)
        for _ in range(25):
            exponents, factors = _substitution_case(rng, m, n)
            want = _whole_quotient(exponents, n, factors)
            if m:
                want = want.reduce_mod(m)
                factors = [f.reduce_mod(m) for f in factors]
            got = eta_quotient(exponents, n, want.ring, factors)
            assert got == want, (exponents, m)
        # the division-side rule multiplies by (f_1^-c)(q^pk), pk >= 2;
        # over Z the packed divisors are built below the order too, so
        # the substituted product, not a build's order, shows the rule
        assert any(k > 1 for k in powers) == (m in (2, 5, 11, 17))

    @pytest.mark.parametrize("exponents,m,built", [
        ({11: 1, 1: -2}, 11, {(1, 200)}),
        # f_1^9 f_11^9: f_11^-2 cancels f_121
        ({121: 1, 11: -1, 1: -2}, 11, {(1, 200), (11, 200)}),
        ({9: 1, 3: -1, 1: -1}, 3, {(1, 200), (3, 200)}),  # f_1^2 f_3
        ({4: 1, 2: -1}, 2, {(2, 200)}),
        ({11: 1, 1: 2}, 11, {(1, 200), (11, 200)}),  # nothing to cancel
        # f_11 is not in the numerator: f_11^10 (1/f_1)(q^121), 1/f_1 at
        # order 2
        ({11: -1, 1: 2}, 11, {(1, 200), (11, 200), (1, 2)}),
        ({4: 1, 1: -2}, 4, {(1, 200), (4, 200)}),  # 4 is not prime
        ({9: 1, 1: -2}, 9, {(1, 200), (9, 200)}),
        ({11: 1, 1: -2}, 0, {(1, 200), (11, 200)}),
        # division side: f_k^-e = f_k^(cp - e) (f_1^-c)(q^pk), c =
        # ceil(e / p), f_1^-c planned at order ceil(200 / pk), where 1/f_1
        # is f_1^(p-1) (1/f_1)(q^p) again, down to an order below p
        ({2: 1, 15: 1, 1: -2}, 5,           # f_1^3 (1/f_1)(q^5)
         {(1, 200), (2, 200), (15, 200), (1, 40), (1, 8), (1, 2)}),
        ({1: -5}, 5, {(1, 40), (1, 8), (1, 2)}),  # (1/f_1)(q^5)
        ({1: -4}, 2,                        # (1/f_1^2)(q^2)
         {(1, 50), (1, 25), (1, 13), (1, 7), (1, 4), (1, 2)}),
        ({1: -10}, 5, {(1, 40), (1, 8), (1, 2)}),  # (1/f_1^2)(q^5)
        ({1: -1}, 5,                        # f_1^4 (1/f_1)(q^5)
         {(1, 200), (1, 40), (1, 8), (1, 2)}),
        ({1: -6}, 5,                        # f_1^4 (1/f_1^2)(q^5)
         {(1, 200), (1, 40), (1, 8), (1, 2)}),
        ({1: -2}, 4, {(1, 200)}),           # 4 is not prime: f_1 / f_1^3
        ({1: -2}, 0, {(1, 200)}),
    ])
    def test_substitutes_only_over_a_prime_against_a_negative_power(
            self, monkeypatch, exponents, m, built):
        keys = _record_built(monkeypatch)
        want = _whole_quotient(exponents, 200, ())
        if m:
            want = want.reduce_mod(m)
        keys.clear()
        divided = []
        divide = TruncatedSeries.divide

        def counted(num, den):
            divided.append(den.order)
            return divide(num, den)

        monkeypatch.setattr(TruncatedSeries, "divide", counted)
        assert eta_quotient(exponents, 200, want.ring) == want
        assert keys == built
        # over a prime no Euler product is divided out
        assert bool(divided) == (m in (0, 4, 9))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
    def test_rule_equals_whole_quotient_reduced(self, p):
        rng = random.Random(f"substitution mod {p}")
        ring = mod_ring(p)
        for _ in range(6):
            n = rng.randint(2, 2500)
            exponents = {k: -rng.randint(1, 2 * p)
                         for k in rng.sample((1, 2, 3, p, 2 * p), 2)}
            exponents[rng.choice((1, 4, p * p))] = rng.randint(-3, 3)
            if rng.random() < 0.5:
                exponents[rng.randint(1, 3), rng.randint(1, 3)] = -1
            whole = _whole_quotient(exponents, n, (), ring)
            step = rng.choice((1, 2, 3, p, 5 * p, rng.randint(1, n)))
            residue = rng.randrange(min(step, n))
            assert eta_quotient(exponents, n, ring, (), step, residue) == \
                whole.extract(step, residue), (exponents, n, step, residue)

    def test_b215_class_build_divides_only_below_a_fifth(self, monkeypatch):
        n = 26997
        orders = []
        quotient = series._quotient

        def recorded(num, den, order, ring):
            orders.append(order)
            return quotient(num, den, order, ring)

        monkeypatch.setattr(series, "_quotient", recorded)
        got = bipartition_series(2, 15, n, mod_ring(5), 3, 2)
        assert got.order == 8999
        assert all(order <= -(-n // 5) for order in orders)

    def test_prime_family_builds_divide_nothing(self, monkeypatch):
        n = 5000

        def no_division(self, other):
            raise AssertionError("divided")

        monkeypatch.setattr(TruncatedSeries, "divide", no_division)
        bipartition_series(27, 11, n, mod_ring(11))
        bipartition_series(243, 17, n, mod_ring(17))
        with pytest.raises(AssertionError, match="divided"):
            bipartition_series(27, 11, n, mod_ring(4))


CLASS_RINGS = [EXACT] + [mod_ring(m) for m in (2, 5, 11, 17, 4, 6, 9)]


def _outcome(compute):
    try:
        return compute()
    except (ValueError, SeriesError) as exc:
        return type(exc), str(exc)


class TestClassPlanner:
    """eta_quotient on one class (step, residue) against the class of
    the whole quotient: same coefficients, order and errors."""

    @pytest.mark.parametrize("ring", CLASS_RINGS, ids=str)
    def test_class_equals_extract_of_the_whole(self, rng, ring):
        m = ring.modulus
        for _ in range(6):
            n = rng.randint(1, 80)
            exponents, factors = _substitution_case(rng, m, n)
            if m:
                factors = [f.reduce_mod(m) for f in factors]
            whole = eta_quotient(exponents, n, ring, factors)
            for step in range(1, 13):
                for residue in range(step):
                    assert _outcome(lambda: eta_quotient(
                        exponents, n, ring, factors, step, residue)) == \
                        _outcome(lambda: whole.extract(step, residue)), \
                        (exponents, n, step, residue)

    def test_atoms_in_q_to_the_step_are_built_at_the_class_order(
            self, monkeypatch):
        built = []

        def recording(constructor):
            def build(k, order, ring=EXACT):
                built.append((constructor.__name__, k, order))
                return constructor(k, order, ring)
            return build

        for name in ("euler_f", "euler_cube"):
            monkeypatch.setattr(qfunctions, name,
                                recording(getattr(qfunctions, name)))
        ring = mod_ring(11)
        whole = bipartition_series(27, 11, 5000, ring)
        assert sorted(built) == [("euler_cube", 1, 5000)] + [
            ("euler_f", 27, 5000)]  # f_27 f_1^9, the cubes built once
        built.clear()
        # f_27 = f_1(q^27) is built at the class's 185 coefficients, the
        # cubes at the whole order
        got = bipartition_series(27, 11, 5000, ring, 27, 12)
        assert got == whole.extract(27, 12) and got.order == 185
        assert ("euler_f", 1, 185) in built
        assert set(built) - {("euler_f", 1, 185)} == {("euler_cube", 1, 5000)}
        # B_{2,15} mod 5 is f_2 f_15 f_1^3 (1/f_1)(q^5): on a class mod
        # 5, f_15 = f_3(q^5) and (1/f_1)(q^5) are both built at the
        # class's 1000 coefficients, 1/f_1 by the rule again below that
        ring = mod_ring(5)
        whole = bipartition_series(2, 15, 5000, ring)
        built.clear()
        got = bipartition_series(2, 15, 5000, ring, 5, 2)
        assert got == whole.extract(5, 2) and got.order == 1000
        assert {b for b in built if b[2] == 5000} == {
            ("euler_cube", 1, 5000), ("euler_f", 2, 5000)}
        assert ("euler_f", 3, 1000) in built
        assert max(order for _, k, order in built if k != 2 and order < 5000
                   ) == 1000

    @pytest.mark.parametrize("s, t, m, step, residue", [
        (27, 11, 11, 27, 12),   # f_27 f_1^9: three cubes of f_1
        (243, 17, 17, 27, 23),  # f_243 f_1^15: five cubes of f_1
    ])
    def test_held_back_cube_is_built_once(self, monkeypatch, s, t, m, step,
                                          residue):
        # the factor held back for the class product reuses the cube
        # its own group built
        cubes = []
        cube = qfunctions.euler_cube

        def counted(k, order, ring=EXACT):
            cubes.append((k, order))
            return cube(k, order, ring)

        monkeypatch.setattr(qfunctions, "euler_cube", counted)
        ring = mod_ring(m)
        got = bipartition_series(s, t, 3000, ring, step, residue)
        assert cubes == [(1, 3000)]
        monkeypatch.undo()
        assert got == bipartition_series(s, t, 3000, ring).extract(step,
                                                                   residue)


def _packed_calls(monkeypatch, narrow=0):
    """The (k, bits) of every packed division from now on, each run with
    its slots narrowed by narrow bits."""
    calls = []
    packed = qfunctions._quotient_packed

    def recorded(num, dens, k, n, bits):
        calls.append((k, bits))
        return packed(num, dens, k, n, bits - narrow)

    monkeypatch.setattr(qfunctions, "_quotient_packed", recorded)
    return calls


def _divided_one_at_a_time(exponents, n, num):
    """num divided by each atom's whole power at the whole order."""
    for key, e in exponents.items():
        atom = (ramanujan_theta(key, n) if isinstance(key, tuple)
                else euler_f(key, n))
        num = num.divide(atom ** -e)
    return num


class TestPackedDivision:
    """Over Z the planner divides the atoms in q^k, k >= 2, out on k-slot
    packed ints, at order ceil(N / k): f_k, the cube f_k^3, and
    theta(ka, kb) with a != b and with a == b, against dividing by each
    whole power at the whole order."""

    @pytest.mark.parametrize("k", [2, 3, 7, 24])
    def test_equals_the_plain_division(self, monkeypatch, rng, k):
        calls = _packed_calls(monkeypatch)
        kinds = [k, (k, 3 * k), (2 * k, k), (k, k)]
        for _ in range(8):
            n = rng.randint(1, 30 * k + 200)  # mostly not a multiple of k
            exponents = {key: -rng.randint(1, 7)
                         for key in rng.sample(kinds, rng.randint(1, 4))}
            height = 1 << rng.randint(0, 400)
            num = TruncatedSeries(EXACT, [rng.randint(-height, height)
                                          for _ in range(n)])
            calls.clear()
            got = eta_quotient(exponents, n, EXACT, [num])
            assert got == _divided_one_at_a_time(exponents, n, num), \
                (exponents, n)
            assert [kk for kk, _ in calls] == [k]  # one packing per k

    def test_each_k_is_packed_once_and_k_1_never(self, monkeypatch, rng):
        calls = _packed_calls(monkeypatch)
        exponents = {1: -4, 2: -3, (2, 4): -1, 3: -2, (3, 3): -1, (1, 2): -1,
                     (2, 5): -1}
        num = TruncatedSeries(EXACT, [rng.randint(-99, 99)
                                      for _ in range(500)])
        got = eta_quotient(exponents, 500, EXACT, [num])
        assert got == _divided_one_at_a_time(exponents, 500, num)
        assert sorted(k for k, _ in calls) == [2, 3]

    @pytest.mark.parametrize("m", [2, 5, 11, 12])
    def test_not_taken_in_z_mod_m(self, monkeypatch, m):
        calls = _packed_calls(monkeypatch)
        ring = mod_ring(m)
        exponents = {2: -3, (3, 6): -1, 7: -1}
        assert eta_quotient(exponents, 300, ring) == \
            _divided_one_at_a_time(exponents, 300,
                                   TruncatedSeries.one(EXACT, 300)
                                   ).reduce_mod(m)
        assert calls == []

    def test_partition_bits_bound_the_partitions(self):
        # p_a(n) < 2**_partition_bits(a, n) for a <= 6 colours and
        # n < 1500, against p_a built from the oracle's p(n)
        n = 1500
        p = TruncatedSeries(EXACT, count_partitions(n))
        p_a = p
        for a in range(1, 7):
            assert all(c < 1 << qfunctions._partition_bits(a, i)
                       for i, c in enumerate(p_a.coeffs)), a
            p_a = p_a * p

    def test_partition_bits_cover_the_analytic_bound(self):
        # the docstring's bound p_a(m) < 2**(pi*sqrt(2am/3)/ln 2), in bits,
        # at every power of ten up to 10^6 and the colour counts the
        # registry's quotients reach
        for a in (1, 2, 3, 4, 6, 12, 24):
            for m in (10 ** i for i in range(7)):
                bound = math.ceil(math.pi * math.sqrt(2 * a * m / 3)
                                  / math.log(2))
                assert qfunctions._partition_bits(a, m) >= bound, (a, m)

    @pytest.mark.parametrize("exponents,k,n,colours", [
        ({2: -1}, 2, 6, 1),       # f_2: 100 + 100 q^2 + 200 q^4
        ({(3, 3): -1}, 3, 6, 2),  # theta(3, 3): 100 + 200 q^3
        ({2: -3}, 2, 4, 3),       # the cube f_2^3: 100 + 300 q^2
    ])
    def test_one_byte_narrower_fails(self, monkeypatch, exponents, k, n,
                                     colours):
        # cases at the limit: 100 fits the slots one byte narrower, the
        # quotient does not, so it must come out wrong there
        num = TruncatedSeries(EXACT, [100] + [0] * (n - 1))
        want = _divided_one_at_a_time(exponents, n, num)
        calls = _packed_calls(monkeypatch)
        assert eta_quotient(exponents, n, EXACT, [num]) == want
        # 100 has 7 bits, and the packed rows run to n / k - 1
        assert calls == [(k, 7 + qfunctions._partition_bits(
            colours, n // k - 1) + 2)]
        bits = calls[0][1]
        narrow = 8 * (-(-bits // 8) - 1) - 1  # value bits one byte less
        assert not 100 >> narrow and max(want.coeffs) >> narrow
        monkeypatch.undo()
        _packed_calls(monkeypatch, narrow=8)
        assert eta_quotient(exponents, n, EXACT, [num]) != want


    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_each_divisor_is_the_atom_in_q_to_the_k(self, monkeypatch, k):
        # every divisor D(q^k) is built once, as D: its key divided by k,
        # at the class order ceil(n / k), never at the whole order
        built, divisors = [], []
        for name in ("euler_f", "euler_cube", "ramanujan_theta"):
            def build(key, order, ring=EXACT,
                      builder=getattr(qfunctions, name)):
                built.append((builder.__name__, key, order))
                return builder(key, order, ring)

            monkeypatch.setattr(qfunctions, name, build)
        packed = qfunctions._quotient_packed

        def recorded(num, dens, kk, n, bits):
            divisors.append(dens)
            return packed(num, dens, kk, n, bits)

        monkeypatch.setattr(qfunctions, "_quotient_packed", recorded)
        # f_k^-4 is one f_k and one cube; theta(k, k) is divided twice
        exponents = {k: -4, (k, 3 * k): -1, (2 * k, k): -1, (k, k): -2}
        orders = (1, k - 1, k, k + 1, 5 * k + 1, 300)
        for n in orders:
            built.clear()
            eta_quotient(exponents, n, EXACT, [TruncatedSeries(EXACT, [1] * n)])
            size = -(-n // k)
            assert built == [("euler_f", 1, size), ("euler_cube", 1, size),
                             ("ramanujan_theta", (1, 3), size),
                             ("ramanujan_theta", (2, 1), size),
                             ("ramanujan_theta", (1, 1), size)], n
        monkeypatch.undo()
        for n, dens in zip(orders, divisors, strict=True):
            assert dens == [
                euler_f(k, n).coeffs[::k], euler_cube(k, n).coeffs[::k],
                ramanujan_theta((k, 3 * k), n).coeffs[::k],
                ramanujan_theta((2 * k, k), n).coeffs[::k]] + [
                ramanujan_theta((k, k), n).coeffs[::k]] * 2, n


_HUGE = 99999999999


class TestDivisorRule:
    """The planner divides by an atom counted c times only while c
    quotient recurrences pass the rule of ``**``
    (series.recurrences_win); past it the atom is the numerator factor
    atom ** -c, powered in about log2(c) products."""

    @pytest.mark.parametrize("text, key, m", [
        ("f1", 1, 0), ("f2", 2, 0), ("theta(1,2)", (1, 2), 0),
        ("f30", 30, 0), ("f1", 1, 4), ("theta(1,2)", (1, 2), 7),
    ], ids=["f1", "f2", "theta12", "f30", "f1-mod4", "theta12-mod7"])
    def test_huge_negative_power_of_an_atom(self, monkeypatch, capsys,
                                            text, key, m):
        # One division per unit of the exponent would run for hours, so
        # the divisions are counted and stopped past a small bound, and a
        # packed division is refused before its divisor list is built.
        divisions = []
        divide = TruncatedSeries.divide

        def counted(self, other):
            divisions.append(1)
            assert len(divisions) <= 10, "a division per unit of |e|"
            return divide(self, other)

        packed = qfunctions._divide_packed

        def bounded(num, divisors, k):
            assert sum(count for *_, count in divisors) <= 10, divisors
            return packed(num, divisors, k)

        monkeypatch.setattr(TruncatedSeries, "divide", counted)
        monkeypatch.setattr(qfunctions, "_divide_packed", bounded)
        argv = ["expand", f"{text}^-{_HUGE}", "--order", "5"]
        assert cli.main(argv + (["--mod", str(m)] if m else [])) == 0
        ring = mod_ring(m) if m else EXACT
        out = capsys.readouterr().out
        got = TruncatedSeries(ring, [int(v) for v in out.split()])
        atom = ramanujan_theta if isinstance(key, tuple) else euler_f
        assert got * atom(key, 5, ring) ** _HUGE == TruncatedSeries.one(ring, 5)
        if text == "f30":
            assert got.coeffs == (1, 0, 0, 0, 0)

    @pytest.mark.parametrize("ring", [EXACT, mod_ring(4), mod_ring(5)],
                             ids=str)
    def test_a_powered_divisor_gives_the_whole_quotient(self, monkeypatch,
                                                        ring):
        # Counts past the rule at order 40, packed (k >= 2) and not, on
        # every class mod 3 as well as the whole series; over Z/5 the
        # Euler products are rewritten first, so only thetas are left.
        refused = []
        rule = qfunctions.recurrences_win
        monkeypatch.setattr(qfunctions, "recurrences_win", lambda *args: (
            rule(*args) or refused.append(args)))
        n = 40
        for exponents in ({1: -300, 2: 5}, {2: -301, (1, 3): -90, 3: 2},
                          {(2, 2): -200, (1, 1): -2, 1: -1}):
            whole = _whole_quotient(exponents, n, [], ring)
            assert eta_quotient(exponents, n, ring) == whole, exponents
            for r in range(3):
                assert eta_quotient(exponents, n, ring, (), 3, r) == \
                    whole.extract(3, r), (exponents, r)
        assert refused

    def test_no_plan_of_the_registry_or_the_pool_powers_a_divisor(
            self, monkeypatch, capsys):
        # Every divisor of a registry run, of every non-scan item at order
        # 600 and of every 8th recorded expand request passes the rule,
        # so none of them becomes a negative power.
        negative = []
        power = TruncatedSeries.__pow__

        def recorded(self, e):
            if e < 0:
                negative.append(e)
            return power(self, e)

        monkeypatch.setattr(TruncatedSeries, "__pow__", recorded)
        assert cli.main(["verify"]) == 0
        for item in REGISTRY.values():
            if item.kind != "scan":
                assert run_item(item, order=600).status == "pass", item.id
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "reference.json")
        with open(path) as fh:
            entries = json.load(fh)["expand"][::8]
        for entry in entries:
            assert cli.main(["expand", entry["expr"], "--order",
                             str(entry["order"]), "--format", "json"]) == 0
        capsys.readouterr()
        assert negative == []


def _times(a, b):
    """a * b to len(a) coefficients, the schoolbook way."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


class TestAtomsOverZm:
    """Every atom in Z/m is its oracle's series with each value reduced:
    the values at one exponent (theta(a, a)'s +-2, the a(q) lattice's,
    up to 24 here) are added before they are reduced."""

    @pytest.mark.parametrize("m", [2, 3, 4, 9, 11])
    def test_each_atom_is_its_oracle_reduced(self, m):
        ring = mod_ring(m)

        def reduced(coeffs):
            return [c % m for c in coeffs]

        for n in (1, 2, 5, 400):  # the short orders cut a(q)'s sector
            for k in (1, 2, 3, 7):
                f = naive_euler(k, n)
                cube = _times(_times(f, f), f)
                a = [0] * n
                a[::k] = lattice_a(-(-n // k))
                assert list(euler_f(k, n, ring).coeffs) == reduced(f), k
                assert list(euler_cube(k, n, ring).coeffs) == \
                    reduced(cube), k
                assert list(borwein_a(k, n, ring).coeffs) == reduced(a), \
                    (k, n)
                # an odd m divides a cube value 2n+1 here (-3, 9 or -11)
                assert n < 400 or m % 2 == 0 or 0 in reduced(
                    v for v in cube if v), k
            for spec in ((1, 1), (2, 2), (5, 5), (1, 2), (3, 4), (2, 7),
                         (9, 1)):
                assert list(ramanujan_theta(spec, n, ring).coeffs) == \
                    reduced(bilateral_theta(*spec, n)), spec


class TestRamanujanTheta:
    def test_pentagonal_specialization(self):
        assert ramanujan_theta((1, 2), 120) == euler_f(1, 120)

    def test_frozen_prefixes(self):
        assert ramanujan_theta((1, 6), 8).coeffs == (1, -1, 0, 0, 0, 0, -1, 0)
        t = ramanujan_theta((3, 4), 8)
        assert t.coeffs[:5] == (1, 0, 0, -1, -1)

    def test_against_bilateral_oracle(self):
        for spec in ((1, 6), (2, 5), (3, 4), (1, 1), (2, 2), (5, 9)):
            assert (list(ramanujan_theta(spec, 150).coeffs)
                    == bilateral_theta(*spec, 150))

    def test_validation(self):
        with pytest.raises(ValueError):
            ramanujan_theta((0, 3), 10)


class TestBorweinA:
    def test_frozen_prefix(self):
        assert borwein_a(1, 8).coeffs == (1, 6, 0, 6, 6, 0, 0, 12)

    def test_against_lattice_oracle(self):
        for n in (1, 2, 5, 120):  # the short orders cut the sector walk
            assert list(borwein_a(1, n).coeffs) == lattice_a(n), n

    def test_against_divisor_oracle(self):
        a = borwein_a(1, 200)
        for n in range(1, 200):
            assert a.coeffs[n] == 6 * divisor_count_difference(n), n

    def test_argument_power(self):
        n = 100
        inner = borwein_a(1, -(-n // 3))
        assert inner.substitute_power(3).truncate(n) == borwein_a(3, n)

    def test_cubic_dissection(self):
        # a(q) = a(q^3) + 6q f9^3/f3
        n = 200
        lhs = borwein_a(1, n)
        rhs = borwein_a(3, n) + (euler_f(9, n) ** 3 / euler_f(3, n)
                                 ).shift(1, cap=n).scalar_mul(6)
        assert lhs == rhs

    def test_euler_cube_identity(self):
        # f1^3 = f3 a(q^3) - 3q f9^3
        n = 200
        lhs = euler_f(1, n) ** 3
        rhs = (euler_f(3, n) * borwein_a(3, n)
               - (euler_f(9, n) ** 3).shift(1, cap=n).scalar_mul(3))
        assert lhs == rhs


class TestSepticABC:
    def test_constant_terms(self):
        a, b, c = septic_ABC(40)
        assert a.coeffs[0] == b.coeffs[0] == c.coeffs[0] == 1

    def test_quintic_combination(self):
        # B^5/(AC^4) - A^5/(B^4 C) - q^3 C^5/(A^4 B) = 3q
        n = 60
        a, b, c = septic_ABC(n)
        lhs = (b ** 5 / (a * c ** 4) - a ** 5 / (b ** 4 * c)
               - (c ** 5 / (a ** 4 * b)).shift(3, cap=n))
        assert lhs == TruncatedSeries(EXACT, [0, 3] + [0] * (n - 2))

    def test_degree_seven_combination(self):
        # B^7/C^7 - q A^7/B^7 + q^5 C^7/A^7 = 14q f1^4/f7^4 + f1^8/f7^8 + 57q^2
        n = 60
        a, b, c = septic_ABC(n)
        lhs = (b ** 7 / c ** 7 - (a ** 7 / b ** 7).shift(1, cap=n)
               + (c ** 7 / a ** 7).shift(5, cap=n))
        f1, f7 = euler_f(1, n), euler_f(7, n)
        rhs = ((f1 ** 4 / f7 ** 4).shift(1, cap=n).scalar_mul(14)
               + f1 ** 8 / f7 ** 8
               + TruncatedSeries(EXACT, [0, 0, 57] + [0] * (n - 3)))
        assert lhs == rhs

    def test_seven_dissection_of_euler(self):
        # f1 = f49 (B(q^7)/C(q^7) - q A(q^7)/B(q^7) - q^2 + q^5 C(q^7)/A(q^7))
        n = 140
        inner = -(-n // 7)
        a, b, c = septic_ABC(inner)
        a7 = a.substitute_power(7).truncate(n)
        b7 = b.substitute_power(7).truncate(n)
        c7 = c.substitute_power(7).truncate(n)
        bracket = (b7 / c7 - (a7 / b7).shift(1, cap=n)
                   - TruncatedSeries(EXACT, [0, 0, 1] + [0] * (n - 3))
                   + (c7 / a7).shift(5, cap=n))
        assert euler_f(49, n) * bracket == euler_f(1, n)


class TestSevenDissectionLemmas:
    def test_fifth_power_on_7n_plus_3(self):
        n = 80
        lhs = pk_series(5, 7 * n + 3).extract(7, 3)
        f1, f7 = euler_f(1, n), euler_f(7, n)
        rhs = ((f1 ** 4 * f7).scalar_mul(10)
               + (f7 ** 5).shift(1, cap=n).scalar_mul(49))
        assert lhs.first_mismatch(rhs) is None

    def test_seventh_power_on_7n(self):
        n = 80
        lhs = pk_series(7, 7 * n).extract(7, 0)
        f1, f7 = euler_f(1, n), euler_f(7, n)
        rhs = (f1 ** 8 / f7
               + (f7 ** 3 * f1 ** 4).shift(1, cap=n).scalar_mul(49))
        assert lhs.first_mismatch(rhs) is None

    def test_ninth_power_on_7n_plus_4(self):
        n = 80
        lhs = pk_series(9, 7 * n + 4).extract(7, 4)
        f1, f7 = euler_f(1, n), euler_f(7, n)
        rhs = ((f1 ** 8 * f7).scalar_mul(-90)
               + (f1 ** 4 * f7 ** 5).shift(1, cap=n).scalar_mul(-882)
               + (f7 ** 9).shift(2, cap=n).scalar_mul(-2401))
        assert lhs.first_mismatch(rhs) is None


class TestPartitionFamilies:
    def test_regular_prefix(self):
        assert regular_series(2, 6).coeffs == (1, 1, 1, 2, 2, 3)

    def test_regular_nonnegative(self):
        assert all(v >= 0 for v in regular_series(7, 200).coeffs)

    def test_regular_large_index_is_partition_series(self):
        n = 30
        assert regular_series(97, n) == pk_series(-1, n)

    def test_regular_matches_count_oracle(self):
        for ell in (2, 3, 5, 15, 27):
            assert list(regular_series(ell, 300).coeffs) == count_regular(ell, 300)

    def test_bipartition_prefix(self):
        # direct enumeration gives B(0)=1, B(1)=2, B(2)=4
        assert bipartition_series(2, 15, 3).coeffs == (1, 2, 4)

    def test_bipartition_is_regular_convolution(self):
        n = 120
        bs = regular_series(2, n)
        bt = regular_series(15, n)
        assert bipartition_series(2, 15, n) == bs * bt

    def test_bipartition_matches_count_oracle(self):
        assert list(bipartition_series(7, 11, 250).coeffs) == \
            count_bipartitions(7, 11, 250)

    @pytest.mark.parametrize("s,t,m", [(2, 15, 5), (27, 11, 11),
                                       (243, 17, 17), (2, 15, 6)])
    def test_modular_build_is_exact_build_reduced(self, s, t, m):
        n = 3000
        ring = mod_ring(m)
        built = bipartition_series(s, t, n, ring)
        assert built == bipartition_series(s, t, n).reduce_mod(m)
        # the two-division form f_s f_t / f_1 / f_1, computed in Z/m
        f1 = euler_f(1, n, ring)
        direct = (euler_f(s, n, ring) * euler_f(t, n, ring)).divide(f1).divide(f1)
        assert built == direct

    def test_known_vanishing_coefficient(self):
        series = bipartition_series(2, 15, 9, mod_ring(5))
        assert series.coeffs[8] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            regular_series(1, 10)
        with pytest.raises(ValueError):
            bipartition_series(1, 15, 10)

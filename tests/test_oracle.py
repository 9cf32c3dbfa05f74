import ast

import pytest

from qseries import oracle
from qseries.oracle import (
    bilateral_theta,
    count_bipartitions,
    count_partitions,
    count_regular,
    lattice_a,
    naive_euler,
)
from qseries.qfunctions import (
    bipartition_series,
    borwein_a,
    euler_f,
    ramanujan_theta,
    regular_series,
)
from qseries.series import EXACT, mod_ring


def pentagonal_recurrence(bound):
    """p(n) by the alternating pentagonal recurrence, as a self-check on
    the parts dynamic program (independent of all series code)."""
    p = [0] * bound
    p[0] = 1
    for n in range(1, bound):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1  # contributes with sign (-1)^{j-1}
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


class TestCountPartitions:
    def test_small_values(self):
        assert count_partitions(6) == [1, 1, 2, 3, 5, 7]

    def test_ramanujan_values(self):
        table = count_partitions(10)
        assert table[4] == 5 and table[4] % 5 == 0
        assert table[9] == 30 and table[9] % 5 == 0

    def test_against_pentagonal_recurrence(self):
        assert count_partitions(300) == pentagonal_recurrence(300)

    def test_matches_series(self):
        assert count_partitions(400) == list(euler_f(1, 400).invert().coeffs)


class TestCountRegular:
    def test_odd_parts(self):
        assert count_regular(2, 6) == [1, 1, 1, 2, 2, 3]

    def test_equals_partitions_below_index(self):
        p = count_partitions(12)
        b = count_regular(13, 12)
        assert b == p

    def test_single_excluded_partition(self):
        assert count_regular(15, 16)[15] == count_partitions(16)[15] - 1 == 175

    def test_matches_series(self):
        for ell in (2, 3, 11, 17, 243):
            assert count_regular(ell, 300) == \
                list(regular_series(ell, 300).coeffs), ell

    def test_validation(self):
        with pytest.raises(ValueError):
            count_regular(1, 10)


class TestCountBipartitions:
    def test_empty_pair(self):
        assert count_bipartitions(3, 7, 1)[0] == 1

    def test_four_pairs_of_two(self):
        assert count_bipartitions(2, 15, 3) == [1, 2, 4]

    def test_congruent_value(self):
        assert count_bipartitions(2, 15, 9)[8] % 5 == 0

    def test_matches_series(self):
        assert count_bipartitions(27, 11, 200) == \
            list(bipartition_series(27, 11, 200).coeffs)

    @pytest.mark.parametrize("s,t,m", [(2, 15, 5), (7, 11, 11),
                                       (27, 11, 11), (243, 17, 17)])
    def test_matches_modular_series(self, s, t, m):
        # over a prime modulus the family build trades 1/f_1^2 for
        # f_1^(m-2)/f_m, cancelling f_m where it is a factor;
        # the oracle counts in Z and knows nothing of that
        want = [c % m for c in count_bipartitions(s, t, 1000)]
        assert want == list(bipartition_series(s, t, 1000, mod_ring(m)).coeffs)

    @pytest.mark.parametrize("s,t,m,step,residue", [(27, 11, 11, 27, 12),
                                                    (2, 15, 5, 3, 2)])
    def test_matches_class_builds(self, s, t, m, step, residue):
        # the class the registry's scans of the family read, built alone
        counts = count_bipartitions(s, t, 2000)
        for ring in (EXACT, mod_ring(m)):
            built = bipartition_series(s, t, 2000, ring, step, residue)
            assert list(built.coeffs) == [
                c % m if ring.modulus else c for c in counts[residue::step]]

    def test_validation(self):
        with pytest.raises(ValueError):
            count_bipartitions(1, 7, 5)


class TestBruteForceSeries:
    def test_naive_euler_matches(self):
        assert naive_euler(1, 13) == list(euler_f(1, 13).coeffs)

    def test_lattice_prefix(self):
        assert lattice_a(8) == [1, 6, 0, 6, 6, 0, 0, 12]

    def test_lattice_matches_series(self):
        assert lattice_a(150) == list(borwein_a(1, 150).coeffs)

    def test_bilateral_matches_theta(self):
        assert bilateral_theta(2, 5, 8) == list(ramanujan_theta((2, 5), 8).coeffs)

    def test_validation(self):
        for bad in (lambda: naive_euler(1, 0), lambda: naive_euler(0, 5),
                    lambda: bilateral_theta(1, 2, 0),
                    lambda: bilateral_theta(0, 2, 5)):
            with pytest.raises(ValueError):
                bad()


def test_oracle_imports_nothing_from_the_package():
    # the oracle is ground truth only while it shares no code with the fast path
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    shared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else ["."]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        shared += [name for name in names
                   if name == "." or name.split(".")[0] == "qseries"]
    assert not shared, shared

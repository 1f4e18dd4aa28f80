import random
from itertools import combinations
from math import gcd

import pytest

from conftest import mat_det, mat_mul
from dagquot.snf import (
    AbelianInvariants,
    invariants_from_rows,
    mat_identity,
    smith_normal_form,
)


def assert_snf_contract(a):
    rows, cols = len(a), len(a[0]) if a else 0
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    # zeros come after the nonzero chain, and the chain divides
    assert diag[: len(nonzero)] == nonzero
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return d


class TestSmithNormalForm:
    def test_single_row(self):
        _, d, _ = smith_normal_form([[1, 0, 0, 0]])
        assert d == [[1, 0, 0, 0]]

    def test_diag_2_3_becomes_1_6(self):
        # oracle: 2Z + 3Z = Z as index-6 sublattices get invariants (1, 6)
        d = assert_snf_contract([[2, 0], [0, 3]])
        assert [d[0][0], d[1][1]] == [1, 6]

    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert u == mat_identity(2)
        assert v == mat_identity(2)

    def test_empty(self):
        u, d, v = smith_normal_form([])
        assert (u, d, v) == ([], [], [])

    def test_known_torsion(self):
        d = assert_snf_contract([[2, 0], [0, 1]])
        assert sorted([d[0][0], d[1][1]]) == [1, 2]

    def test_random_matrices(self, rng):
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            assert_snf_contract(a)

    def test_divisibility_fixup_case(self):
        # 2x2 with coprime diagonal forced through the chain repair
        d = assert_snf_contract([[2, 0], [0, 3]])
        assert d[1][1] % d[0][0] == 0

    def test_transform_entries_stay_small(self):
        # naive integer elimination grows U and V past 4000 digits on this
        # matrix
        rng = random.Random(10)
        a = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
        u, _, v = smith_normal_form(a)
        assert all(abs(x) < 10 ** 100 for m in (u, v) for row in m for x in row)
        assert_snf_contract(a)


class TestDeterminant:
    def test_known(self):
        assert mat_det([[1, 2], [3, 4]]) == -2
        assert mat_det([[2, 0], [0, 3]]) == 6
        assert mat_det(mat_identity(5)) == 1
        assert mat_det([]) == 1

    def test_singular(self):
        assert mat_det([[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self, rng):
        def cofactor_det(m):
            if len(m) == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * cofactor_det(
                    [row[:j] + row[j + 1:] for row in m[1:]]
                )
                for j in range(len(m))
            )

        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert mat_det(m) == cofactor_det(m)


class TestInvariants:
    def test_free(self):
        assert invariants_from_rows(3, []) == AbelianInvariants(3, ())

    def test_kill_one_generator(self):
        assert invariants_from_rows(4, [[1, 0, 0, 0]]) == AbelianInvariants(3, ())

    def test_torsion(self):
        assert invariants_from_rows(2, [[2, 0], [0, 1]]) == AbelianInvariants(0, (2,))

    def test_dependent_rows(self):
        # (2,2) is already a multiple of (1,1): quotient is Z, no torsion
        inv = invariants_from_rows(2, [[1, 1], [2, 2]])
        assert inv == AbelianInvariants(1, ())

    def test_genuine_torsion_from_multiples(self):
        # rows (1,1) and (3,1): determinant -2, quotient Z/2
        inv = invariants_from_rows(2, [[1, 1], [3, 1]])
        assert inv == AbelianInvariants(0, (2,))

    def test_str(self):
        assert str(AbelianInvariants(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
        assert str(AbelianInvariants(0, ())) == "0"


def determinantal_invariants(rank, rows):
    """Oracle: invariant factors d_k / d_(k-1), where the determinantal
    divisor d_k is the gcd of every k x k minor (each by mat_det)."""
    divisors = [1]
    for k in range(1, min(len(rows), rank) + 1):
        g = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(rank), k):
                g = gcd(g, mat_det([[rows[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        divisors.append(g)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return AbelianInvariants(rank - len(factors), tuple(f for f in factors if f > 1))


def unit_row(rank, i):
    return [1 if j == i else 0 for j in range(rank)]


class TestInvariantsAgainstDeterminantalDivisors:
    def test_random_matrices_up_to_4x4(self):
        rng = random.Random(4)
        for _ in range(300):
            rank, nrows = rng.randint(1, 4), rng.randint(1, 4)
            bound = rng.choice((1, 2, 6, 30))
            density = rng.choice((0.3, 0.7, 1.0))
            rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
                     for _ in range(rank)] for _ in range(nrows)]
            assert invariants_from_rows(rank, rows) == determinantal_invariants(rank, rows)

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_realize_shaped_rows(self, steps):
        # step j of realize kills x1..x_(2j-2) and, for color 0, adds x_(2j-1);
        # older vertices add both fresh generators. Every relator is a
        # generator, so the rows are unit vectors, in any order, with repeats
        rng = random.Random(steps)
        rank = 2 * steps
        kill = [unit_row(rank, i) for i in range(rank - 2)]
        shapes = [kill, kill + [unit_row(rank, rank - 2)],
                  [unit_row(rank, rank - 2), unit_row(rank, rank - 1)]]
        for _ in range(10):
            extra = [unit_row(rank, rng.randrange(rank)) for _ in range(rng.randint(0, 2))]
            mixed = kill + extra
            rng.shuffle(mixed)
            shapes.append(mixed)
        for rows in shapes:
            if rows:
                assert invariants_from_rows(rank, rows) == determinantal_invariants(rank, rows)

    def test_unit_rows_mixed_in(self):
        # rows with a single +-1 entry among random rows, some only turning
        # into unit rows once another unit row's column is eliminated
        rng = random.Random(5)
        for _ in range(300):
            rank, nrows = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(rank)]
                    for _ in range(nrows)]
            for _ in range(rng.randint(1, 2)):
                c = rng.randrange(rank)
                rows.insert(rng.randrange(len(rows) + 1),
                            [rng.choice((1, -1)) if j == c else 0 for j in range(rank)])
            if rank > 1 and rng.random() < 0.5:
                a, b = rng.sample(range(rank), 2)
                rows.append([rng.choice((1, -1)) if j == a else
                             rng.randint(-6, 6) if j == b else 0 for j in range(rank)])
            assert invariants_from_rows(rank, rows) == determinantal_invariants(rank, rows)


def snf_invariants(rank, rows):
    """Oracle: invariants read off the Smith normal form of all the rows."""
    if not rows:
        return AbelianInvariants(rank, ())
    _, d, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(rows), rank)) if d[i][i] != 0]
    return AbelianInvariants(rank - len(diag), tuple(x for x in diag if x > 1))


class TestUnitRowElimination:
    def test_against_full_snf(self):
        rng = random.Random(9)
        for _ in range(200):
            rank, nrows = rng.randint(1, 9), rng.randint(0, 9)
            rows = [[rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(rank)]
                    for _ in range(nrows)]
            for _ in range(rng.randint(0, rank)):
                c = rng.randrange(rank)
                rows.insert(rng.randrange(len(rows) + 1),
                            [rng.choice((1, -1)) if j == c else 0 for j in range(rank)])
            assert invariants_from_rows(rank, rows) == snf_invariants(rank, rows)

    def test_chain_of_eliminations(self):
        # x3 = 1 makes (0, 1, 5) a unit row, which makes (2, -1, 0) the row 2x1
        rows = [[2, -1, 0], [0, 1, 5], [0, 0, 1]]
        assert invariants_from_rows(3, rows) == AbelianInvariants(0, (2,))
        assert snf_invariants(3, rows) == AbelianInvariants(0, (2,))

    def test_realize_shaped_rows_need_no_snf(self, monkeypatch):
        import dagquot.snf as snf

        def refuse(a):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(snf, "smith_normal_form", refuse)
        rows = [unit_row(6, i) for i in (0, 1, 2, 4, 2)]
        assert snf.invariants_from_rows(6, rows) == AbelianInvariants(2, ())

import random
from fractions import Fraction

import pytest

from dagquot.quotients import MarkedQuotient, NormalForm, _push_syllable
from dagquot.snf import IntMatrix
from dagquot.words import Hom, Word, generator, reduce as reduce_word


def random_raw_letters(rng: random.Random, rank: int, length: int):
    return [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length)]


def random_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    return reduce_word(random_raw_letters(rng, rank, rng.randint(0, max_len)), rank)


@pytest.fixture
def rng():
    return random.Random(0)


# ---------------------------------------------------------------------------
# reference operations the tests check the package against


def nf_mul(q: MarkedQuotient, n1: NormalForm, n2: NormalForm) -> NormalForm:
    """Product of two normal forms of q."""
    lvs = q.leaf_list
    syls = list(n1.syllables)
    for leaf_idx, payload in n2.syllables:
        _push_syllable(syls, lvs, leaf_idx, payload)
    return NormalForm(tuple(syls))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a or not b:
        return []
    assert len(a[0]) == len(b), "inner dimensions must agree"
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_det(a: IntMatrix) -> int:
    """Exact determinant by Gaussian elimination over ``Fraction``."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def identity_hom(rank: int) -> Hom:
    return Hom(rank, rank, tuple(generator(rank, i) for i in range(1, rank + 1)))


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = c^-1 k c with k cyclically reduced of minimal length.

    Returns (core, conjugator); the identity splits as (identity, identity).
    """
    core = list(w.letters)
    conj = []
    while len(core) >= 2 and core[0][0] == core[-1][0] and core[0][1] == -core[-1][1]:
        conj.insert(0, core[-1])
        core = core[1:-1]
    return Word(w.rank, tuple(core)), Word(w.rank, tuple(conj))

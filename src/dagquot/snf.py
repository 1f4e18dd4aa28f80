"""Exact integer matrix algebra: Smith normal form and abelian invariants.

Everything runs on arbitrary-precision Python ints; there is no floating
point anywhere in this package. The Smith normal form works on one augmented
matrix and pivots on a smallest nonzero entry in each round.
"""

from __future__ import annotations

from dataclasses import dataclass

IntMatrix = list[list[int]]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize over Z: returns (U, D, V) with U*a*V = D, U and V
    unimodular, and the diagonal of D a nonnegative divisibility chain.

    One matrix m = [[a, I], [I, 0]] holds D (top left), U (top right) and V
    (bottom left): an operation on its first len(a) rows or first len(a[0])
    columns moves U or V along with D. Each round pivots on a smallest
    nonzero entry of the trailing block (row-major first among equals) and
    divides it out of its column and row by nearest quotients. A nonzero
    remainder, or an entry the pivot does not divide (whose row is then
    added to the pivot row), starts another round: pivots never grow, and
    shrink within two rounds.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + unit for row, unit in zip(a, mat_identity(rows))]
    m += [unit + [0] * rows for unit in mat_identity(cols)]

    def add_row(dst, src, k):
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]

    t = 0  # rounds run until the trailing block from (t, t) is zero
    while nonzero := [(abs(m[i][j]), i, j)
                      for i in range(t, rows) for j in range(t, cols) if m[i][j]]:
        _, pi, pj = min(nonzero)
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        for i in range(t + 1, rows):
            add_row(i, t, -((2 * m[i][t] + p) // (2 * p)))
        for j in range(t + 1, cols):
            q = (2 * m[t][j] + p) // (2 * p)
            for row in m:
                row[j] -= q * row[t]
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1:cols]):
            continue
        offender = next((i for i in range(t + 1, rows)
                         if any(x % p for x in m[i][t + 1:cols])), None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if p < 0:
            m[t] = [-x for x in m[t]]
        t += 1

    u = [row[cols:] for row in m[:rows]]
    d = [row[:cols] for row in m[:rows]]
    v = [row[:cols] for row in m[rows:]]
    return u, d, v


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]  # each > 1, in divisibility order

    def __str__(self) -> str:
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def invariants_from_rows(rank: int, rows: list[list[int]]) -> AbelianInvariants:
    """Invariants of Z^rank modulo the subgroup spanned by the given rows.

    A row whose only nonzero entry is +-1 kills its column: the quotient is
    Z^(rank-1) modulo the other rows with that column deleted. Such rows are
    eliminated first, repeatedly; ``smith_normal_form`` runs on what is left.
    """
    for row in rows:
        assert len(row) == rank
    rows = [row for row in rows if any(row)]
    while True:
        killed = set()
        for row in rows:
            nonzero = [c for c, x in enumerate(row) if x]
            if len(nonzero) == 1 and abs(row[nonzero[0]]) == 1:
                killed.add(nonzero[0])
        if not killed:
            break
        keep = [c for c in range(rank) if c not in killed]
        rank = len(keep)
        rows = [kept for kept in ([row[c] for c in keep] for row in rows) if any(kept)]
    if not rows:
        return AbelianInvariants(rank, ())
    _, d, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(d), rank)) if d[i][i] != 0]
    torsion = tuple(x for x in diag if x > 1)
    return AbelianInvariants(rank - len(diag), torsion)

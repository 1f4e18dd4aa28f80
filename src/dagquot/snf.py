"""Exact integer matrix algebra: Smith normal form and abelian invariants.

Everything runs on arbitrary-precision Python ints; there is no floating
point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

IntMatrix = list[list[int]]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize over Z: returns (U, D, V) with U*a*V = D, U and V
    unimodular, and the diagonal of D a nonnegative divisibility chain."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = mat_identity(rows)
    v = mat_identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        for c in range(cols):
            d[dst][c] += k * d[src][c]
        for c in range(rows):
            u[dst][c] += k * u[src][c]

    def add_col(dst, src, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        for c in range(cols):
            d[i][c] = -d[i][c]
        for c in range(rows):
            u[i][c] = -u[i][c]

    t = 0
    while t < min(rows, cols):
        # move a minimal-magnitude nonzero entry of the trailing block to (t, t)
        pivot = None
        nonzero = ((i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j] != 0)
        for i, j in nonzero:
            if pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]]):
                pivot = (i, j)
                if abs(d[i][j]) == 1:
                    break  # nothing nonzero is smaller than a unit
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)

        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        # remainder is strictly smaller: promote it to pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot now divides its cleared row and column; enforce the
            # divisibility chain over the remaining block (a unit divides all)
            if abs(d[t][t]) == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            negate_row(i)
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

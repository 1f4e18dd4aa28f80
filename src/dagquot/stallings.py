"""Stallings graphs for finitely generated subgroups of free groups.

A subgroup graph is a folded, connected, core labeled digraph with a base
vertex; the words labeling closed base paths are exactly the elements of the
subgroup.  A union-find worklist folds it, and a breadth-first numbering from
the base makes it canonical: the output does not depend on generator order or
on the fold schedule.  Folding reduced words leaves no vertex but the base
with fewer than two letters, so the folded graph is already its core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .words import Word, RankMismatchError, Hom, apply_hom, invert, multiply, reduce as reduce_word


class StallingsError(ValueError):
    pass


def _walk(adj):
    """Breadth first from vertex 0: each vertex first reached, with the vertex
    it was reached from and the signed label it was reached along.  Labels
    are tried ``g`` before ``-g``, smallest first, over the labels each vertex
    has, so the rank costs nothing."""
    seen, order = {0}, [0]
    for v in order:
        for lab in sorted(adj[v], key=lambda k: (abs(k), k < 0)):
            if (x := adj[v][lab]) not in seen:
                seen.add(x)
                order.append(x)
                yield x, v, lab


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded core graph; base vertex is always 0."""

    rank: int
    num_vertices: int
    edges: frozenset[tuple[int, int, int]]  # (source, generator, target)
    # per vertex: signed label -> the vertex it leads to (g along, -g against)
    adj: list[dict[int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.num_vertices
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for s, g, t in self.edges:
            if not (0 < g <= self.rank and 0 <= s < n and 0 <= t < n):
                raise StallingsError(f"edge {(s, g, t)!r} leaves a graph of rank {self.rank} "
                                     f"on {n} vertices")
            if g in adj[s] or -g in adj[t]:
                raise StallingsError("graph is not folded")
            adj[s][g], adj[t][-g] = t, s
        object.__setattr__(self, "adj", adj)

    @property
    def base(self) -> int:
        return 0

    def step(self, vertex: int, idx: int, sign: int) -> int | None:
        """Follow one labeled edge (forward for sign +1, backward for -1)."""
        return self.adj[vertex].get(idx if sign > 0 else -idx)

    @cached_property
    def tree_parent(self) -> dict[int, tuple[int, int, int]]:
        """Breadth-first tree: each non-base vertex -> its parent and the
        letter (label, sign) that leads from the parent to it."""
        return {x: (v, abs(lab), 1 if lab > 0 else -1) for x, v, lab in _walk(self.adj)}

    @cached_property
    def numbering(self) -> dict[tuple[int, int, int], int]:
        """Each non-tree edge -> its basis index, numbered from 1 in sorted
        order."""
        tree = {(v, lab, x) if sign > 0 else (x, lab, v)
                for x, (v, lab, sign) in self.tree_parent.items()}
        return {e: i for i, e in enumerate(sorted(self.edges - tree), 1)}


def build_subgroup_graph(generators, rank: int | None = None, rng=None) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words.

    Each word is a closed path (petal) at the base; each edge enters the maps
    of both its ends (``g`` along it, ``-g`` against it).  Where a map already
    sends that label elsewhere, the far ends merge and only the absorbed
    vertex's edges are requeued; the base stays vertex 0.  The folded graph
    is numbered breadth first, as ``_walk`` visits it; a vertex the numbering
    misses raises, never dropped.

    ``rng`` only shuffles the fold worklist; the canonical output is the same
    for every schedule (this is what the confluence tests exercise).
    """
    gens = list(generators)
    if rank is None:
        if not gens:
            raise StallingsError("rank is required for the trivial subgroup")
        rank = gens[0].rank
    if any(w.rank != rank for w in gens):
        raise RankMismatchError("subgroup generators must share a rank")

    work: list[tuple[int, int, int]] = []
    fresh = 1
    for w in gens:
        path = [0, *range(fresh, fresh + len(w) - 1), 0]
        fresh += max(len(w) - 1, 0)
        for (i, e), u, v in zip(w.letters, path, path[1:]):
            work.append((u, i, v) if e > 0 else (v, i, u))
    if rng is not None:
        rng.shuffle(work)

    parent = list(range(fresh))
    adj: list[dict[int, int]] = [{} for _ in range(fresh)]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while work:
        s, g, t = work.pop()
        s, t = find(s), find(t)
        for a, lab, b in ((s, g, t), (t, -g, s)):
            c = find(adj[a].setdefault(lab, b))
            if c != b:
                gone = max(b, c)
                parent[gone] = min(b, c)  # so the base, vertex 0, always survives
                work += [(gone, k, x) if k > 0 else (x, -k, gone) for k, x in adj[gone].items()]
                adj[gone] = {}
                break

    adj = [{lab: find(x) for lab, x in m.items()} for m in adj]
    live = {v for v in range(fresh) if parent[v] == v}
    names = {0: 0} | {x: i for i, (x, _, _) in enumerate(_walk(adj), 1)}
    edges = frozenset((names[v], g, names[x]) for v in live for g, x in adj[v].items() if g > 0)
    return SubgroupGraph(rank, len(names), edges)


def contains(g: SubgroupGraph, w: Word) -> bool:
    """Exact membership: does w label a closed base path?"""
    return express(g, w) is not None


def _base_path(g: SubgroupGraph, v: int) -> Word:
    """The word along the tree from the base to ``v``."""
    letters = []
    while v != g.base:
        v, lab, sign = g.tree_parent[v]
        letters.append((lab, sign))
    return Word(g.rank, tuple(reversed(letters)))


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis: one word per non-tree edge, via base paths in the tree."""
    return [multiply(multiply(_base_path(g, s), Word(g.rank, ((lab, 1),))),
                     invert(_base_path(g, t)))
            for s, lab, t in g.numbering]


def express(g: SubgroupGraph, w: Word) -> Word | None:
    """Rewrite a member in the graph basis; None when w is not a member.

    Substituting the basis words back into the result reproduces w, which
    makes every positive membership answer independently checkable.
    """
    if w.rank != g.rank:
        raise RankMismatchError(f"word rank {w.rank} != graph rank {g.rank}")
    numbering = g.numbering
    letters: list[tuple[int, int]] = []
    cur: int | None = g.base
    for idx, sign in w.letters:
        nxt = g.step(cur, idx, sign)
        if nxt is None:
            return None
        edge = (cur, idx, nxt) if sign > 0 else (nxt, idx, cur)
        if edge in numbering:
            letters.append((numbering[edge], sign))
        cur = nxt
    if cur != g.base:
        return None
    return reduce_word(letters, len(numbering))


def substitute_basis(g: SubgroupGraph, expression: Word) -> Word:
    """Evaluate a basis expression back into the ambient free group."""
    b = basis(g)
    return apply_hom(Hom(len(b), g.rank, tuple(b)), expression)


def index_in_ambient(g: SubgroupGraph) -> int | None:
    """Finite index iff the graph is complete (every vertex has all 2·rank
    signed labels); None means infinite index."""
    return g.num_vertices if all(len(m) == 2 * g.rank for m in g.adj) else None

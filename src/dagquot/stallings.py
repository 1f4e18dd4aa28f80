"""Stallings graphs for finitely generated subgroups of free groups.

A subgroup graph is a folded, connected, core labeled digraph with a base
vertex; the words labeling closed base paths are exactly the elements of the
subgroup.  Folding is done with a union-find worklist, then the result is
trimmed to its core and renumbered canonically (BFS from the base, scanning
labels in order), so the output is independent of generator order and of the
fold schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .words import Word, RankMismatchError, Hom, apply_hom, reduce as reduce_word


class StallingsError(ValueError):
    pass


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded core graph; base vertex is always 0."""

    rank: int
    num_vertices: int
    edges: frozenset[tuple[int, int, int]]  # (source, generator, target)
    _out: dict = field(default_factory=dict, compare=False, repr=False)
    _in: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        for s, g, t in self.edges:
            if (s, g) in out or (t, g) in inc:
                raise StallingsError("graph is not folded")
            out[(s, g)] = t
            inc[(t, g)] = s
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inc)

    @property
    def base(self) -> int:
        return 0

    def step(self, vertex: int, idx: int, sign: int) -> int | None:
        """Follow one labeled edge (forward for sign +1, backward for -1)."""
        if sign > 0:
            return self._out.get((vertex, idx))
        return self._in.get((vertex, idx))


def build_subgroup_graph(generators, rank: int | None = None, rng=None) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words.

    ``rng`` only shuffles the fold worklist; the canonical output is the same
    for every schedule (this is what the confluence tests exercise).
    """
    gens = list(generators)
    if rank is None:
        if not gens:
            raise StallingsError("rank is required for the trivial subgroup")
        rank = gens[0].rank
    for w in gens:
        if w.rank != rank:
            raise RankMismatchError("subgroup generators must share a rank")

    edges: list[tuple[int, int, int]] = []
    fresh = 1
    for w in gens:
        cur = 0
        for pos, (idx, sign) in enumerate(w.letters):
            nxt = 0 if pos == len(w.letters) - 1 else fresh
            if nxt == fresh:
                fresh += 1
            if sign > 0:
                edges.append((cur, idx, nxt))
            else:
                edges.append((nxt, idx, cur))
            cur = nxt

    parent = list(range(fresh))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the base representative at 0
            if rb == 0:
                ra, rb = rb, ra
            parent[rb] = ra

    if rng is not None:
        rng.shuffle(edges)

    # fold: merge targets of equal-labeled edges out of (or into) one vertex
    changed = True
    while changed:
        changed = False
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        for s, g, t in edges:
            s, t = find(s), find(t)
            if (s, g) in seen_out and find(seen_out[(s, g)]) != t:
                union(find(seen_out[(s, g)]), t)
                changed = True
            else:
                seen_out[(s, g)] = t
            s, t = find(s), find(t)
            if (t, g) in seen_in and find(seen_in[(t, g)]) != s:
                union(find(seen_in[(t, g)]), s)
                changed = True
            else:
                seen_in[(t, g)] = s

    folded = {(find(s), g, find(t)) for s, g, t in edges}

    # trim to the core: drop non-base vertices of degree < 2
    while True:
        degree: dict[int, int] = {}
        for s, g, t in folded:
            degree[s] = degree.get(s, 0) + 1
            degree[t] = degree.get(t, 0) + 1
        dead = {v for v, d in degree.items() if d < 2 and v != find(0)}
        if not dead:
            break
        folded = {(s, g, t) for s, g, t in folded if s not in dead and t not in dead}

    return _canonicalize(rank, find(0), folded)


def _canonicalize(rank: int, base: int, edges) -> SubgroupGraph:
    """BFS renumbering from the base with labels scanned in order."""
    out: dict[tuple[int, int], int] = {}
    inc: dict[tuple[int, int], int] = {}
    for s, g, t in edges:
        out[(s, g)] = t
        inc[(t, g)] = s
    names = {base: 0}
    order = [base]
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for g in range(1, rank + 1):
            for nbr in (out.get((v, g)), inc.get((v, g))):
                if nbr is not None and nbr not in names:
                    names[nbr] = len(names)
                    order.append(nbr)
                    queue.append(nbr)
    if len(names) < len({x for s, _, t in edges for x in (s, t)} | {base}):
        raise StallingsError("subgroup graph is not connected")
    new_edges = frozenset((names[s], g, names[t]) for s, g, t in edges)
    return SubgroupGraph(rank, len(names), new_edges)


def contains(g: SubgroupGraph, w: Word) -> bool:
    """Exact membership: does w label a closed base path?"""
    if w.rank != g.rank:
        raise RankMismatchError(f"word rank {w.rank} != graph rank {g.rank}")
    cur: int | None = g.base
    for idx, sign in w.letters:
        cur = g.step(cur, idx, sign)
        if cur is None:
            return False
    return cur == g.base


def _spanning_tree(g: SubgroupGraph):
    """Deterministic BFS tree; returns (tree edge set, base-to-vertex words)."""
    tree: set[tuple[int, int, int]] = set()
    path: dict[int, tuple] = {g.base: ()}
    queue = deque([g.base])
    while queue:
        v = queue.popleft()
        for lab in range(1, g.rank + 1):
            t = g.step(v, lab, 1)
            if t is not None and t not in path:
                path[t] = path[v] + ((lab, 1),)
                tree.add((v, lab, t))
                queue.append(t)
            s = g.step(v, lab, -1)
            if s is not None and s not in path:
                path[s] = path[v] + ((lab, -1),)
                tree.add((s, lab, v))
                queue.append(s)
    words = {v: Word(g.rank, letters) for v, letters in path.items()}
    return tree, words


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis: one word per non-tree edge, via base paths in the tree."""
    tree, words = _spanning_tree(g)
    out = []
    for s, lab, t in sorted(g.edges - tree):
        out.append(words[s] * Word(g.rank, ((lab, 1),)) * words[t].inverse())
    return out


def express(g: SubgroupGraph, w: Word) -> Word | None:
    """Rewrite a member in the graph basis; None when w is not a member.

    Substituting the basis words back into the result reproduces w, which
    makes every positive membership answer independently checkable.
    """
    if w.rank != g.rank:
        raise RankMismatchError(f"word rank {w.rank} != graph rank {g.rank}")
    tree, _ = _spanning_tree(g)
    order = {e: i + 1 for i, e in enumerate(sorted(g.edges - tree))}
    letters: list[tuple[int, int]] = []
    cur: int | None = g.base
    for idx, sign in w.letters:
        nxt = g.step(cur, idx, sign)
        if nxt is None:
            return None
        edge = (cur, idx, nxt) if sign > 0 else (nxt, idx, cur)
        if edge in order:
            letters.append((order[edge], sign))
        cur = nxt
    if cur != g.base:
        return None
    return reduce_word(letters, len(order))


def substitute_basis(g: SubgroupGraph, expression: Word) -> Word:
    """Evaluate a basis expression back into the ambient free group."""
    b = basis(g)
    return apply_hom(Hom(len(b), g.rank, tuple(b)), expression)


def index_in_ambient(g: SubgroupGraph) -> int | None:
    """Finite index iff the graph is complete; None means infinite index."""
    for v in range(g.num_vertices):
        for lab in range(1, g.rank + 1):
            if g.step(v, lab, 1) is None or g.step(v, lab, -1) is None:
                return None
    return g.num_vertices

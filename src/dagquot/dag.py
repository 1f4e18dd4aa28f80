"""Finite colored DAGs: validation, the removal order (peel), reachability,
closure.  Vertex ids are opaque strings throughout.

``ColoredDag.peel`` is the one derived structure: ``removal_order`` and, per
vertex or edge endpoint, a bit and a row, its bit ORed with its successors'
rows.  A peeled vertex comes after all it reaches, so one pass in removal order
builds every row; where a stalled peel (a cycle) leaves vertices, or an edge
leaves ``vertices``, the pass repeats until no row changes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .quotients import json_field


class DagError(ValueError):
    pass


class LoopEdgeError(DagError):
    pass


class DuplicateEdgeError(DagError):
    pass


class MissingColorError(DagError):
    pass


class UnknownVertexError(DagError):
    pass


class CycleFoundError(DagError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("cycle found: " + " -> ".join(cycle))


@dataclass(frozen=True)
class ColoredDag:
    """A finite simple digraph with a 0/1 color on every vertex; the
    successor map and the peel are derived on first use and cached."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    color: dict[str, int] = field(compare=False)

    @cached_property
    def successor_map(self) -> dict[str, tuple[str, ...]]:
        """Every edge source -> its sorted targets."""
        succ: dict[str, list[str]] = {}
        for u, v in self.edges:
            succ.setdefault(u, []).append(v)
        return {u: tuple(sorted(vs)) for u, vs in succ.items()}

    @cached_property
    def peel(self) -> tuple[list[str] | CycleFoundError, dict[str, int], dict[str, int]]:
        """``removal_order`` (or the ``CycleFoundError`` it raised), bits, rows."""
        try:
            order = peeled = removal_order(self)
        except CycleFoundError as exc:
            order, peeled = exc, []
        succ = self.successor_map
        nodes = peeled + sorted(set(self.vertices).union(succ, *succ.values()).difference(peeled))
        bit = {v: 1 << i for i, v in enumerate(nodes)}
        rows = bit.copy()
        while True:
            before = rows.copy()
            for u in nodes:
                rows[u] = reduce(or_, map(rows.__getitem__, succ.get(u, ())), bit[u])
            if len(nodes) == len(peeled) or rows == before:  # one pass, if all peeled
                return order, bit, rows

    def successors(self, u: str) -> list[str]:
        return list(self.successor_map.get(u, ()))


def colored_dag(vertices, edges, color) -> ColoredDag:
    d = ColoredDag(tuple(vertices), frozenset(map(tuple, edges)), dict(color))
    validate(d)
    return d


def validate(d: ColoredDag) -> None:
    """Simple + acyclic + totally colored, else a specific error."""
    vset = set(d.vertices)
    if len(vset) != len(d.vertices):
        dup = next(v for v, k in Counter(d.vertices).items() if k > 1)
        raise DuplicateEdgeError(f"duplicate vertex id {dup!r}")
    for u, v in d.edges:
        if u not in vset or v not in vset:
            raise UnknownVertexError(f"edge ({u}, {v}) uses unknown vertex")
        if u == v:
            raise LoopEdgeError(f"loop edge at {u}")
    for v in d.vertices:
        c = d.color.get(v)
        if type(c) is not int or c not in (0, 1):  # True == 1, but is no color
            raise MissingColorError(f"vertex {v} has no 0/1 color")
    if isinstance(stop := d.peel[0], CycleFoundError):
        raise CycleFoundError(stop.cycle)


def removal_order(d: ColoredDag) -> list[str]:
    """Vertices in the order the induction peels them off: repeatedly the
    largest-id vertex with no edge into what remains.  If the peel stalls,
    each vertex left has a successor left, so the walk from the first one in
    ``d.vertices`` to its smallest successor left, and on, repeats a vertex;
    ``CycleFoundError`` carries the walk from that vertex's first visit."""
    succ = d.successor_map
    left = dict.fromkeys(d.vertices, 0)  # out-degree into what remains
    below: dict[str, list[str]] = {}
    for u in left:
        targets = [t for t in succ.get(u, ()) if t in left]
        left[u] = len(targets)
        for t in targets:
            below.setdefault(t, []).append(u)
    maximal = {v for v, k in left.items() if k == 0}
    order = []
    while maximal:
        maximal.remove(w := max(maximal))
        del left[w]
        order.append(w)
        for u in below.get(w, ()):
            left[u] -= 1
            if not left[u]:
                maximal.add(u)
    if left:
        walk = [next(v for v in d.vertices if v in left)]
        while walk.count(walk[-1]) < 2:
            walk.append(next(t for t in succ[walk[-1]] if t in left))
        raise CycleFoundError(walk[walk.index(walk[-1]):])
    return order


def leq(d: ColoredDag, u: str, v: str) -> bool:
    """True iff a directed path u -> ... -> v exists (reflexive)."""
    if u not in d.color or v not in d.color:
        raise UnknownVertexError(f"unknown vertex in leq({u}, {v})")
    _, bit, rows = d.peel
    return u == v or rows.get(u, 0) & bit.get(v, 0) != 0


def transitive_closure(d: ColoredDag) -> ColoredDag:
    """It reaches, and peels, as ``d`` does, so it takes over ``d.peel``."""
    validate(d)
    order, bit, rows = d.peel
    edges = frozenset((u, t) for u in d.vertices for t in order if t != u and rows[u] & bit[t])
    closed = ColoredDag(d.vertices, edges, dict(d.color))
    closed.__dict__["peel"] = d.peel  # where cached_property keeps it
    return closed


def random_colored_dag(order: int, rng: random.Random, edge_prob: float = 0.5) -> ColoredDag:
    """A random labeled colored DAG: edges oriented along a random permutation."""
    ids = [str(i) for i in range(1, order + 1)]
    perm = ids[:]
    rng.shuffle(perm)
    rank = {v: i for i, v in enumerate(perm)}
    edges = {(u, v) for u in ids for v in ids if rank[u] < rank[v] and rng.random() < edge_prob}
    color = {v: rng.randint(0, 1) for v in ids}
    return ColoredDag(tuple(ids), frozenset(edges), color)


def to_json(d: ColoredDag) -> dict:
    return {"vertices": [{"id": v, "color": d.color[v]} for v in d.vertices],
            "edges": [[u, v] for u, v in sorted(d.edges)]}


def from_json(data) -> ColoredDag:
    entries = json_field(data, "vertices", list, "DAG", item=dict)
    vertices = [json_field(entry, "id", str, "vertex") for entry in entries]
    color = {v: json_field(entry, "color", int, "vertex") for v, entry in zip(vertices, entries)}
    raw_edges = [tuple(e) for e in json_field(data, "edges", list, "DAG", item=list)]
    if any(len(e) != 2 for e in raw_edges):
        raise DagError("malformed DAG JSON: every edge needs exactly two endpoints")
    if not all(isinstance(x, str) for e in raw_edges for x in e):
        raise DagError("DAG field 'edges' must hold pairs of JSON strings")
    if len(set(raw_edges)) != len(raw_edges):
        dup = next(e for e, k in Counter(raw_edges).items() if k > 1)
        raise DuplicateEdgeError(f"duplicate edge {dup}")
    return colored_dag(vertices, raw_edges, color)


def dot_quote(v: str) -> str:
    """``v`` inside a double-quoted DOT string (backslash, quote, newline escaped)."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def dot_text(graph: str, d: ColoredDag, vertices, annotate=lambda v: "") -> str:
    """DOT digraph ``graph``: a line per vertex of ``vertices`` labelled with
    its id, its color and ``annotate(v)``, color-1 vertices with a doubled
    border, then the sorted edges of ``d``."""
    lines = [f"digraph {graph} {{"]
    for v in vertices:
        name = dot_quote(v)
        extra = ", peripheries=2" if d.color[v] == 1 else ""
        lines.append(f'  "{name}" [label="{name} (c={d.color[v]}){annotate(v)}"{extra}];')
    for u, v in sorted(d.edges):
        lines.append(f'  "{dot_quote(u)}" -> "{dot_quote(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(d: ColoredDag) -> str:
    """DOT form, vertices in input order; color-1 vertices get a doubled border."""
    return dot_text("colored_dag", d, d.vertices)

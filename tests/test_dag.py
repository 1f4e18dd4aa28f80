import itertools
import random

import pytest

from conftest import enumerate_colored_dags, maximal_vertices
from dagquot.dag import (
    ColoredDag,
    CycleFoundError,
    DagError,
    DuplicateEdgeError,
    LoopEdgeError,
    MissingColorError,
    UnknownVertexError,
    colored_dag,
    from_json,
    leq,
    random_colored_dag,
    to_dot,
    to_json,
    transitive_closure,
    validate,
)


def chain3():
    return colored_dag(["1", "2", "3"], [("1", "2"), ("2", "3")], {"1": 0, "2": 0, "3": 0})


class TestValidate:
    def test_ok(self):
        colored_dag(["1", "2"], [("1", "2")], {"1": 0, "2": 0})

    def test_cycle(self):
        with pytest.raises(CycleFoundError) as err:
            colored_dag(["1", "2"], [("1", "2"), ("2", "1")], {"1": 0, "2": 0})
        assert err.value.cycle[0] == err.value.cycle[-1]

    def test_loop(self):
        with pytest.raises(LoopEdgeError):
            colored_dag(["1"], [("1", "1")], {"1": 0})

    def test_missing_color(self):
        with pytest.raises(MissingColorError):
            colored_dag(["1"], [], {"1": 2})

    def test_boolean_color(self):
        # realization.json would carry the boolean where the color belongs
        with pytest.raises(MissingColorError):
            colored_dag(["1"], [], {"1": True})

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            colored_dag(["1"], [("1", "9")], {"1": 0})

    def test_duplicate_vertex_is_no_duplicate_edge(self):
        with pytest.raises(DagError, match=r"^duplicate vertex id 'a'$") as err:
            colored_dag(["a", "b", "a"], [], {"a": 0, "b": 0})
        assert not isinstance(err.value, DuplicateEdgeError)

    def test_duplicate_edge_in_json(self):
        data = {
            "vertices": [{"id": "a", "color": 0}, {"id": "b", "color": 1}],
            "edges": [["a", "b"], ["a", "b"]],
        }
        with pytest.raises(DuplicateEdgeError):
            from_json(data)

    @pytest.mark.parametrize("edge", [["a"], ["a", "b", "a"]])
    def test_edge_arity_in_json(self, edge):
        data = {"vertices": [{"id": "a", "color": 0}, {"id": "b", "color": 1}], "edges": [edge]}
        with pytest.raises(DagError, match="two endpoints"):
            from_json(data)


class TestLeq:
    def test_transitivity_on_chain(self):
        assert leq(chain3(), "1", "3")

    def test_reflexive(self):
        d = chain3()
        for v in d.vertices:
            assert leq(d, v, v)

    def test_antichain(self):
        d = colored_dag(["1", "2"], [], {"1": 0, "2": 0})
        assert not leq(d, "1", "2")

    def test_partial_order_randomized(self, rng):
        for _ in range(25):
            d = random_colored_dag(5, rng)
            vs = d.vertices
            for _ in range(20):
                a, b, c = (rng.choice(vs) for _ in range(3))
                if leq(d, a, b) and leq(d, b, c):
                    assert leq(d, a, c)
                if a != b and leq(d, a, b):
                    assert not leq(d, b, a)


class TestTransitiveClosure:
    def test_chain(self):
        closed = transitive_closure(chain3())
        assert closed.edges == frozenset({("1", "2"), ("2", "3"), ("1", "3")})

    def test_edgeless(self):
        d = colored_dag(["1", "2"], [], {"1": 1, "2": 0})
        assert transitive_closure(d).edges == frozenset()

    def test_idempotent_and_order_preserving(self, rng):
        for _ in range(25):
            d = random_colored_dag(5, rng)
            c1 = transitive_closure(d)
            assert transitive_closure(c1).edges == c1.edges
            for u in d.vertices:
                for v in d.vertices:
                    assert leq(d, u, v) == leq(c1, u, v)


class TestMaximalVertices:
    def test_chain(self):
        assert maximal_vertices(chain3()) == ["3"]

    def test_antichain(self):
        d = colored_dag(["1", "2"], [], {"1": 0, "2": 0})
        assert maximal_vertices(d) == ["1", "2"]

    def test_diamond(self):
        d = colored_dag(
            ["1", "2", "3", "4"],
            [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")],
            {v: 0 for v in "1234"},
        )
        assert maximal_vertices(d) == ["4"]

    def test_nonempty_for_random_dags(self, rng):
        for _ in range(50):
            assert maximal_vertices(random_colored_dag(6, rng))

    def test_empty_dag_rejected(self):
        with pytest.raises(DagError):
            maximal_vertices(ColoredDag((), frozenset(), {}))


def bfs_reach(edges, u):
    """What a path of length >= 1 from u reaches, by BFS over the raw edge set."""
    seen = set()
    frontier = [u]
    while frontier:
        nxt = []
        for s in frontier:
            for a, b in edges:
                if a == s and b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def assert_reachability_matches_bfs(d):
    reach = {u: bfs_reach(d.edges, u) for u in d.vertices}
    for u in d.vertices:
        for v in d.vertices:
            assert leq(d, u, v) == (u == v or v in reach[u]), (u, v)
    assert transitive_closure(d).edges == {(u, v) for u in d.vertices for v in reach[u]}
    assert maximal_vertices(d) == sorted(v for v in d.vertices if not reach[v])


class TestReachabilityAgainstBfs:
    def test_every_order_3_dag(self):
        for d in enumerate_colored_dags(3):
            assert_reachability_matches_bfs(d)

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    def test_random_dags_up_to_order_24(self, edge_prob):
        rng = random.Random(2024)
        for order in (1, 2, 5, 9, 16, 24):
            for _ in range(3):
                assert_reachability_matches_bfs(random_colored_dag(order, rng, edge_prob))

    def test_unvalidated_cycle(self):
        # a -> b -> a -> ... -> c; d is isolated. leq must answer, not hang
        d = ColoredDag(
            ("a", "b", "c", "d"),
            frozenset({("a", "b"), ("b", "a"), ("b", "c")}),
            {v: 0 for v in "abcd"},
        )
        for u in d.vertices:
            for v in d.vertices:
                assert leq(d, u, v) == (u == v or v in bfs_reach(d.edges, u)), (u, v)
        assert leq(d, "a", "c") and leq(d, "b", "a") and not leq(d, "c", "a")
        with pytest.raises(UnknownVertexError):
            leq(d, "a", "z")

    def test_seeded_digraphs_cyclic_and_with_outside_endpoints(self):
        # odd cases carry a forced cycle and are never validated; every
        # fifth case has an edge in and out of "z", which is no vertex and
        # has a color only in every tenth case
        rng = random.Random(18)
        for case in range(3000):
            order = rng.randint(1, 9)
            ids = [str(i) for i in range(1, order + 1)]
            if case % 2:
                edges = {(u, v) for u in ids for v in ids if u != v and rng.random() < 0.2}
                if order > 1:
                    a, b = rng.sample(ids, 2)
                    edges |= {(a, b), (b, a)}
            else:
                edges = set(random_colored_dag(order, rng, rng.random()).edges)
            color = dict.fromkeys(ids, 0)
            if case % 5 == 0:
                edges |= {(rng.choice(ids), "z"), ("z", rng.choice(ids))}
                if case % 10 == 0:
                    color["z"] = 1
            d = ColoredDag(tuple(ids), frozenset(edges), color)
            for u in color:
                reach = bfs_reach(d.edges, u)
                for v in color:
                    assert leq(d, u, v) == (u == v or v in reach), (case, u, v)

    @pytest.mark.parametrize("order", [20, 50, 80])
    def test_closures_of_random_dags(self, order):
        rng = random.Random(order)
        for edge_prob in (0.05, 0.3, 0.7):
            d = random_colored_dag(order, rng, edge_prob)
            succ = {}
            for u, v in d.edges:
                succ.setdefault(u, []).append(v)
            closed = transitive_closure(d)
            for u in d.vertices:
                seen, stack = set(), [u]
                while stack:
                    for t in succ.get(stack.pop(), ()):
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
                for v in d.vertices:
                    assert leq(closed, u, v) == leq(d, u, v) == (u == v or v in seen), (u, v)
            assert transitive_closure(closed).edges == closed.edges

    def test_successors_returns_a_fresh_list(self):
        d = chain3()
        d.successors("1").pop()
        assert d.successors("1") == ["2"]
        assert leq(d, "1", "3")


def has_cycle_by_orderings(vertices, edges):
    """Brute force: a digraph is acyclic iff some ordering of its vertices
    sends every edge forward."""
    for order in itertools.permutations(vertices):
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[a] < pos[b] for a, b in edges):
            return False
    return True


class TestCycleWitness:
    """Acyclicity is read off ``reach``; the witness is a closed walk."""

    def test_random_digraphs_with_back_edges(self):
        rng = random.Random(7)
        cycles = 0
        for _ in range(150):
            order = rng.randint(2, 6)
            ids = [str(i) for i in range(1, order + 1)]
            edges = {(u, v) for u in ids for v in ids if u != v and rng.random() < 0.25}
            d = ColoredDag(tuple(ids), frozenset(edges), dict.fromkeys(ids, 0))
            expected = has_cycle_by_orderings(ids, edges)
            try:
                validate(d)
            except CycleFoundError as exc:
                cycles += 1
                assert expected
                walk = exc.cycle
                assert len(walk) >= 3 and walk[0] == walk[-1]
                assert all((a, b) in edges for a, b in zip(walk, walk[1:]))
            else:
                assert not expected
        assert 20 < cycles < 130

    def test_witness_of_a_triangle(self):
        d = ColoredDag(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}),
                       dict.fromkeys("abc", 0))
        with pytest.raises(CycleFoundError) as err:
            validate(d)
        assert err.value.cycle == ["a", "b", "c", "a"]


class TestPeelWitness:
    """The witness walks the vertices a stalled peel leaves, from the first in
    input order to its smallest leftover successor, until a vertex repeats."""

    def test_every_digraph_on_four_vertices(self):
        ids = ["1", "2", "3", "4"]
        pairs = [(u, v) for u in ids for v in ids if u != v]
        for mask in range(1 << len(pairs)):
            edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
            d = ColoredDag(tuple(ids), frozenset(edges), dict.fromkeys(ids, 0))
            expected = has_cycle_by_orderings(ids, edges)
            try:
                validate(d)
            except CycleFoundError as exc:
                assert expected, edges
                walk = exc.cycle
                assert len(walk) >= 3 and walk[0] == walk[-1], (edges, walk)
                assert all((a, b) in edges for a, b in zip(walk, walk[1:])), (edges, walk)
            else:
                assert not expected, edges

    @pytest.mark.parametrize("edges,cycle", [
        ({("a", "b"), ("b", "c"), ("c", "b")}, ["b", "c", "b"]),
        ({("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}, ["a", "b", "a"]),
    ], ids=["enters-the-cycle", "smallest-successor"])
    def test_witness(self, edges, cycle):
        d = ColoredDag(("a", "b", "c"), frozenset(edges), dict.fromkeys("abc", 0))
        with pytest.raises(CycleFoundError) as err:
            validate(d)
        assert err.value.cycle == cycle


class TestEnumeration:
    def test_order_counts(self):
        assert sum(1 for _ in enumerate_colored_dags(1)) == 2
        assert sum(1 for _ in enumerate_colored_dags(2)) == 12
        assert sum(1 for _ in enumerate_colored_dags(3)) == 200

    def test_counts_match_brute_force_acyclicity(self):
        # oracle: count edge subsets on 2 labeled vertices with no cycle
        shapes = 0
        pairs = [("1", "2"), ("2", "1")]
        for mask in range(4):
            edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
            if edges != set(pairs):
                shapes += 1
        assert shapes * 4 == 12

    def test_all_distinct_and_valid(self):
        seen = set()
        for d in enumerate_colored_dags(3):
            validate(d)
            key = (d.edges, tuple(sorted(d.color.items())))
            assert key not in seen
            seen.add(key)

    def test_cap(self):
        with pytest.raises(DagError):
            list(enumerate_colored_dags(4))
        assert sum(1 for _ in enumerate_colored_dags(4, cap=4)) > 200


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(20):
            d = random_colored_dag(4, rng)
            back = from_json(to_json(d))
            assert back == d and back.color == d.color

    def test_dot_smoke(self):
        dot = to_dot(chain3())
        assert dot.startswith("digraph")
        assert '"1" -> "2";' in dot
        assert dot.count("peripheries=2") == 0
        d = colored_dag(["a"], [], {"a": 1})
        assert "peripheries=2" in to_dot(d)


def test_random_dag_is_valid_and_seeded():
    d1 = random_colored_dag(6, random.Random(7))
    d2 = random_colored_dag(6, random.Random(7))
    assert d1 == d2 and d1.color == d2.color
    validate(d1)

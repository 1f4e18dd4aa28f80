import hashlib
import itertools
import random
import re
import time
from collections import deque

import pytest

from conftest import random_word
from dagquot.stallings import (
    StallingsError,
    SubgroupGraph,
    basis,
    build_subgroup_graph,
    contains,
    express,
    index_in_ambient,
    substitute_basis,
)
from dagquot.words import (
    Hom,
    RankMismatchError,
    Word,
    apply_hom,
    identity,
    invert,
    multiply,
    parse_word,
    power,
    reduce as reduce_word,
)


def w(text, rank=2):
    return parse_word(text, rank)


def naive_members(generators, rank, max_gen_letters):
    """Oracle: all reduced words writable as products of at most
    max_gen_letters generators and inverse generators."""
    alphabet = [g for g in generators] + [invert(g) for g in generators]
    members = {identity(rank)}
    frontier = {identity(rank)}
    for _ in range(max_gen_letters):
        nxt = set()
        for word in frontier:
            for g in alphabet:
                prod = multiply(word, g)
                if prod not in members:
                    members.add(prod)
                    nxt.add(prod)
        frontier = nxt
    return members


class TestBuild:
    def test_conjugate_generator_pair(self):
        # the rank-2 subgroup generated by x1 and its conjugate by x2:
        # folded core has a base with an x1-loop and one more vertex
        # (reached by the x2-edge) carrying its own x1-loop
        g = build_subgroup_graph([w("x1"), w("x2^-1 x1 x2")])
        assert g.num_vertices == 2
        assert g.edges == frozenset({(0, 1, 0), (1, 1, 1), (1, 2, 0)})

    def test_empty_generators(self):
        g = build_subgroup_graph([], rank=2)
        assert g.num_vertices == 1 and not g.edges

    def test_empty_generators_need_a_rank(self):
        with pytest.raises(StallingsError, match=r"^rank is required for the trivial subgroup$"):
            build_subgroup_graph([])

    def test_generators_of_two_ranks(self):
        with pytest.raises(RankMismatchError, match=r"^subgroup generators must share a rank$"):
            build_subgroup_graph([w("x1"), w("x1", 3)])

    def test_full_rank_generators(self):
        g = build_subgroup_graph([w("x1"), w("x2")])
        assert g.num_vertices == 1
        assert g.edges == frozenset({(0, 1, 0), (0, 2, 0)})

    def test_generator_order_irrelevant(self, rng):
        for _ in range(20):
            gens = [random_word(rng, 2, 6) for _ in range(3)]
            gens = [g for g in gens if g]
            g1 = build_subgroup_graph(gens, rank=2)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            g2 = build_subgroup_graph(shuffled, rank=2)
            assert g1 == g2

    def test_fold_confluence_ten_orders(self, rng):
        for _ in range(10):
            gens = [random_word(rng, 3, 6) for _ in range(3)]
            gens = [g for g in gens if g]
            reference = build_subgroup_graph(gens, rank=3)
            probes = [random_word(rng, 3, 8) for _ in range(100)]
            for k in range(10):
                shuffled = build_subgroup_graph(gens, rank=3, rng=random.Random(k))
                assert shuffled == reference
                assert [contains(shuffled, p) for p in probes] == [
                    contains(reference, p) for p in probes
                ]

    def test_canonical_graphs_digest(self):
        # one digest over 600 seeded generator sets (ranks 1-4, up to 5 words
        # of length 0-12) pins the canonical form: a fold, trim or numbering
        # change that alters any graph, or its vertex names, shows here
        digest = hashlib.sha256()
        rng = random.Random(17)
        for k in range(600):
            rank = rng.randint(1, 4)
            gens = [random_word(rng, rank, 12) for _ in range(rng.randint(0, 5))]
            g = build_subgroup_graph(gens, rank=rank)
            assert build_subgroup_graph(gens, rank=rank, rng=random.Random(k)) == g
            digest.update(repr((g.num_vertices, sorted(g.edges))).encode())
        assert digest.hexdigest() == (
            "3773b4238644a6e9381dc136e578a71758bdeab0ae5489ecf6e7ae4331c36621"
        )

    def test_folding_leaves_no_hanging_vertex(self):
        # on the generator sets of test_canonical_graphs_digest, under both
        # schedules, every non-base vertex carries at least two letters: the
        # fold alone gives the core, so no vertex needs trimming
        rng = random.Random(17)
        for k in range(600):
            rank = rng.randint(1, 4)
            gens = [random_word(rng, rank, 12) for _ in range(rng.randint(0, 5))]
            for g in (build_subgroup_graph(gens, rank=rank),
                      build_subgroup_graph(gens, rank=rank, rng=random.Random(k))):
                for v in range(1, g.num_vertices):
                    letters = [(lab, sign) for lab in range(1, rank + 1) for sign in (1, -1)
                               if g.step(v, lab, sign) is not None]
                    assert len(letters) >= 2, (k, v, letters)

    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_power_pair_cascades_to_one_loop(self, n):
        # x1^n and x1^(n+1) generate <x1>: the first merge at the base sets
        # off a chain of merges that collapses both cycles to one x1-loop
        gens = [power(w("x1"), n), power(w("x1"), n + 1)]
        expected = build_subgroup_graph([w("x1")])
        assert expected.num_vertices == 1 and expected.edges == frozenset({(0, 1, 0)})
        assert build_subgroup_graph(gens) == expected
        for k in range(5):
            assert build_subgroup_graph(gens, rng=random.Random(k)) == expected

    def test_cost_does_not_scale_with_rank(self):
        # the numbering and the tree walk the labels each vertex has, not
        # every generator of the alphabet
        rank = 10**7
        start = time.perf_counter()
        g = build_subgroup_graph([parse_word("x1", rank), parse_word("x2", rank)], rank)
        assert g.tree_parent == {}
        b = basis(g)
        assert time.perf_counter() - start < 0.5
        assert g.num_vertices == 1 and g.edges == frozenset({(0, 1, 0), (0, 2, 0)})
        assert [x.letters for x in b] == [((1, 1),), ((2, 1),)]


class TestMembership:
    def test_generator_membership(self):
        g = build_subgroup_graph([w("x1"), w("x2^-1 x1 x2")])
        assert contains(g, w("x2^-1 x1 x2"))
        assert contains(g, w("x1"))

    def test_nonmember(self):
        # oracle: x2 is not among products of <= 4 generator letters, and the
        # graph proves it is not a member at all
        g = build_subgroup_graph([w("x1"), w("x2^-1 x1 x2")])
        members = naive_members([w("x1"), w("x2^-1 x1 x2")], 2, 4)
        assert w("x2") not in members
        assert not contains(g, w("x2"))

    def test_empty_word(self, rng):
        for _ in range(5):
            gens = [random_word(rng, 2, 5) for _ in range(2)]
            g = build_subgroup_graph([x for x in gens if x], rank=2)
            assert contains(g, identity(2))

    def test_all_generators_contained(self, rng):
        for _ in range(20):
            gens = [random_word(rng, 3, 6) for _ in range(3)]
            gens = [g for g in gens if g]
            graph = build_subgroup_graph(gens, rank=3)
            for gen in gens:
                assert contains(graph, gen)

    def test_closed_under_products(self, rng):
        gens = [w("x1 x2"), w("x2 x2")]
        g = build_subgroup_graph(gens)
        for word in naive_members(gens, 2, 4):
            assert contains(g, word)

    def test_rank_mismatch(self):
        g = build_subgroup_graph([w("x1")])
        with pytest.raises(RankMismatchError):
            contains(g, w("x1", 3))


class TestExpress:
    def test_round_trip_substitution(self, rng):
        for _ in range(30):
            gens = [random_word(rng, 2, 6) for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            graph = build_subgroup_graph(gens, rank=2)
            for member in itertools.islice(naive_members(gens, 2, 3), 40):
                expr = express(graph, member)
                assert expr is not None
                assert substitute_basis(graph, expr) == member

    def test_nonmember_returns_none(self):
        g = build_subgroup_graph([w("x1"), w("x2^-1 x1 x2")])
        assert express(g, w("x2")) is None
        assert express(g, w("x2 x1")) is None


class TestBasis:
    def test_conjugate_pair_basis(self):
        g = build_subgroup_graph([w("x1"), w("x2^-1 x1 x2")])
        b = basis(g)
        assert b == [w("x1"), w("x2^-1 x1 x2")]

    def test_trivial_graph(self):
        assert basis(build_subgroup_graph([], rank=2)) == []

    def test_full_group(self):
        assert len(basis(build_subgroup_graph([w("x1"), w("x2")]))) == 2

    def test_rank_formula_and_regeneration(self, rng):
        for _ in range(20):
            gens = [random_word(rng, 3, 6) for _ in range(3)]
            gens = [g for g in gens if g]
            graph = build_subgroup_graph(gens, rank=3)
            b = basis(graph)
            assert len(b) == len(graph.edges) - graph.num_vertices + 1
            for word in b:
                assert contains(graph, word)
            regenerated = build_subgroup_graph(b, rank=3) if b else build_subgroup_graph([], rank=3)
            assert regenerated == graph


def path_tuple_tree(g):
    """Reference spanning tree: the breadth-first tree with every vertex's
    base path kept as a tuple of letters, and the non-tree edges numbered
    from 1 in sorted order."""
    tree, path, queue = set(), {0: ()}, deque([0])
    while queue:
        v = queue.popleft()
        for lab in range(1, g.rank + 1):
            for sign in (1, -1):
                x = g.step(v, lab, sign)
                if x is not None and x not in path:
                    path[x] = path[v] + ((lab, sign),)
                    tree.add((v, lab, x) if sign > 0 else (x, lab, v))
                    queue.append(x)
    return path, {e: i for i, e in enumerate(sorted(g.edges - tree), 1)}


def reference_basis(g):
    path, numbering = path_tuple_tree(g)
    return [multiply(multiply(Word(g.rank, path[s]), Word(g.rank, ((lab, 1),))),
                     invert(Word(g.rank, path[t])))
            for s, lab, t in numbering]


def reference_express(g, word):
    """The basis letter of each non-tree edge the word's path crosses."""
    _, numbering = path_tuple_tree(g)
    letters, cur = [], 0
    for idx, sign in word.letters:
        nxt = g.step(cur, idx, sign)
        if nxt is None:
            return None
        edge = (cur, idx, nxt) if sign > 0 else (nxt, idx, cur)
        if edge in numbering:
            letters.append((numbering[edge], sign))
        cur = nxt
    return reduce_word(letters, len(numbering)) if cur == 0 else None


class TestSpanningTree:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_the_path_tuple_tree(self, rank):
        rng = random.Random(rank)
        for _ in range(25):
            gens = [random_word(rng, rank, 12) for _ in range(rng.randint(1, 4))]
            graph = build_subgroup_graph(gens, rank=rank)
            b = reference_basis(graph)
            assert basis(graph) == b
            members = [multiply(rng.choice(gens), rng.choice(gens)) for _ in range(5)]
            for word in [*gens, *members, *(random_word(rng, rank, 6) for _ in range(5))]:
                expr = express(graph, word)
                assert expr == reference_express(graph, word)
                if expr is not None:
                    assert substitute_basis(graph, expr) == apply_hom(
                        Hom(len(b), rank, tuple(b)), expr) == word


class TestIndex:
    def test_index_two(self):
        # oracle: coset enumeration by hand gives two cosets, H and H x1
        g = build_subgroup_graph([w("x1 x1"), w("x2"), w("x1 x2 x1^-1")])
        assert index_in_ambient(g) == 2

    def test_whole_group(self):
        assert index_in_ambient(build_subgroup_graph([w("x1"), w("x2")])) == 1

    def test_infinite(self):
        assert index_in_ambient(build_subgroup_graph([w("x1")])) is None


class TestSerialization:
    def test_unfolded_rejected(self):
        with pytest.raises(StallingsError):
            SubgroupGraph(2, 3, frozenset({(0, 1, 1), (0, 1, 2)}))

    @pytest.mark.parametrize("edge", [(0, 2, 0), (0, 0, 0), (0, -1, 0), (0, 1, 1), (-1, 1, 0)])
    def test_edge_outside_the_graph_rejected(self, edge):
        # a label outside 1..rank or an end outside 0..num_vertices-1
        with pytest.raises(StallingsError, match=re.escape(repr(edge))):
            SubgroupGraph(1, 1, frozenset({edge}))

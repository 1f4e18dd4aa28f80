import json
import random

import pytest

from conftest import embedding_to_json, reference_realization_to_json
from dagquot import dag as dagmod, quotients, realizer
from dagquot.dag import (
    ColoredDag,
    CycleFoundError,
    colored_dag,
    random_colored_dag,
    transitive_closure,
)
from dagquot.quotients import (
    CommutatorScheme,
    FreeOfRank,
    FreeProduct,
    InfiniteCyclic,
    Lamplighter,
    LeafImage,
    MarkedQuotient,
    RelatorSet,
    check_soundness,
    relators_from_json,
)
from dagquot.realizer import (
    BasisNotFreeError,
    CepEmbedding,
    RealizerError,
    SchemePresentError,
    cep_transfer,
    embedding_from_json,
    finite_core,
    lattice_to_dot,
    presentations_to_json,
    realization_from_json,
    realization_to_json,
    realization_to_text,
    realize,
    removal_order,
)
from dagquot.words import GeneratorRangeError, generator, parse_word


def w(text, rank):
    return parse_word(text, rank)


def single(color):
    return colored_dag(["v"], [], {"v": color})


def chain():
    return colored_dag(["u", "w"], [("u", "w")], {"u": 0, "w": 0})


def antichain():
    return colored_dag(["u", "w"], [], {"u": 0, "w": 0})


def diamond():
    return colored_dag(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        {v: 0 for v in "abcd"},
    )


class TestRemovalOrder:
    def test_chain_is_forced(self):
        assert removal_order(chain()) == ["w", "u"]

    def test_antichain_largest_first(self):
        assert removal_order(antichain()) == ["w", "u"]

    def test_diamond(self):
        assert removal_order(diamond()) == ["d", "c", "b", "a"]

    def test_matches_definition_on_random_dags(self):
        # oracle: the docstring, read literally over the raw edge set
        rng = random.Random(11)
        for order in (1, 4, 8, 13):
            for edge_prob in (0.1, 0.5):
                d = random_colored_dag(order, rng, edge_prob)
                remaining, expected = set(d.vertices), []
                while remaining:
                    w = max(v for v in remaining
                            if not any(s == v and t in remaining for s, t in d.edges))
                    expected.append(w)
                    remaining.remove(w)
                assert removal_order(d) == expected
                assert removal_order(transitive_closure(d)) == expected

    def test_cycle_raises_cycle_found(self):
        d = ColoredDag(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "b")}),
                       dict.fromkeys("abc", 0))
        with pytest.raises(CycleFoundError) as err:
            removal_order(d)
        assert err.value.cycle == ["b", "c", "b"]

    def test_one_peel(self):
        assert realizer.removal_order is dagmod.removal_order


class TestRealizeBaseCases:
    def test_single_vertex_color0(self):
        r = realize(single(0))
        assert r.ambient_rank == 2
        q = r.assignment["v"]
        assert q.relators.finite_part == (w("x1", 2),)
        assert q.relators.schemes == ()
        assert q.expr == InfiniteCyclic()
        assert q.marking == {1: None, 2: LeafImage(0, 1)}

    def test_single_vertex_color1(self):
        r = realize(single(1))
        q = r.assignment["v"]
        assert q.relators.finite_part == ()
        assert q.relators.schemes == (
            CommutatorScheme(generator(2, 1), generator(2, 2)),
        )
        assert q.expr == Lamplighter()
        assert q.marking == {1: LeafImage(0, "lamp"), 2: LeafImage(0, "shift")}

    def test_empty_dag(self):
        r = realize(colored_dag([], [], {}))
        assert r.ambient_rank == 0 and r.assignment == {}


class TestRealizeChain:
    def test_lower_vertex_keeps_relators(self):
        r = realize(chain())
        assert r.ambient_rank == 4
        qu = r.assignment["u"]
        assert qu.relators.finite_part == (w("x1", 4),)
        assert qu.expr == FreeProduct((InfiniteCyclic(), FreeOfRank(2)))
        assert qu.marking == {
            1: None,
            2: LeafImage(0, 1),
            3: LeafImage(1, 1),
            4: LeafImage(1, 2),
        }

    def test_upper_vertex_kills_old_generators(self):
        r = realize(chain())
        qw = r.assignment["w"]
        assert qw.relators.finite_part == (w("x1", 4), w("x2", 4), w("x3", 4))
        assert qw.expr == InfiniteCyclic()
        assert qw.marking[4] == LeafImage(0, 1)

    def test_step_indices(self):
        r = realize(chain())
        assert r.step_index == {"u": 1, "w": 2}


class TestRealizeAntichain:
    def test_relator_sets(self):
        r = realize(antichain())
        assert r.assignment["u"].relators.finite_part == (
            w("x1", 4), w("x3", 4), w("x4", 4),
        )
        assert r.assignment["w"].relators.finite_part == (
            w("x1", 4), w("x2", 4), w("x3", 4),
        )

    def test_both_quotients_are_z(self):
        r = realize(antichain())
        assert r.assignment["u"].expr == InfiniteCyclic()
        assert r.assignment["w"].expr == InfiniteCyclic()
        assert r.assignment["u"].marking[2] == LeafImage(0, 1)
        assert r.assignment["w"].marking[4] == LeafImage(0, 1)


class TestRealizeDiamond:
    def test_relator_counts(self):
        r = realize(diamond())
        assert r.ambient_rank == 8
        finite = {v: r.assignment[v].relators.finite_part for v in "abcd"}
        assert finite["a"] == (w("x1", 8),)
        assert finite["b"] == tuple(w(f"x{i}", 8) for i in (1, 2, 3, 5, 6))
        assert finite["c"] == tuple(w(f"x{i}", 8) for i in (1, 2, 3, 4, 5))
        assert finite["d"] == tuple(w(f"x{i}", 8) for i in range(1, 8))

    def test_exprs(self):
        r = realize(diamond())
        assert r.assignment["a"].expr == FreeProduct(
            (InfiniteCyclic(),) + (FreeOfRank(2),) * 3
        )
        assert r.assignment["b"].expr == FreeProduct((InfiniteCyclic(), FreeOfRank(2)))
        assert r.assignment["d"].expr == InfiniteCyclic()


class TestStructuralInvariants:
    def test_color_scheme_correspondence(self):
        d = colored_dag(
            ["p", "q", "r"], [("p", "q")], {"p": 1, "q": 0, "r": 1}
        )
        real = realize(d)
        for v in d.vertices:
            q = real.assignment[v]
            if d.color[v] == 0:
                assert q.relators.schemes == ()
            else:
                assert len(q.relators.schemes) == 1

    def test_recontexting_is_verbatim(self):
        r = realize(chain())
        # the lower vertex's relator letters survive unchanged in rank 4
        assert r.assignment["u"].relators.finite_part[0].letters == ((1, 1),)

    def test_deterministic_bytes(self):
        d = colored_dag(
            ["a", "b", "c"], [("a", "c"), ("b", "c")], {"a": 1, "b": 0, "c": 1}
        )
        blob1 = json.dumps(realization_to_json(realize(d)), sort_keys=True)
        blob2 = json.dumps(realization_to_json(realize(d)), sort_keys=True)
        assert blob1 == blob2

    @pytest.mark.parametrize("order,seed,edge_prob", [(6, 2, 0.0), (12, 7, 0.3), (16, 3, 1.0)])
    def test_one_quotient_per_vertex(self, monkeypatch, order, seed, edge_prob):
        built = []
        post_init = MarkedQuotient.__post_init__

        def counting(q):
            built.append(q)
            post_init(q)

        monkeypatch.setattr(MarkedQuotient, "__post_init__", counting)
        r = realize(random_colored_dag(order, random.Random(seed), edge_prob))
        assert len(built) == order
        assert sorted(map(id, built)) == sorted(map(id, r.assignment.values()))

    def test_all_quotients_sound(self):
        d = colored_dag(
            ["a", "b", "c"], [("a", "b")], {"a": 1, "b": 1, "c": 0}
        )
        for q in realize(d).assignment.values():
            check_soundness(q, probe_bound=5)


class TestFiniteCore:
    def test_finite_relators_pass_through(self):
        r = RelatorSet(4, (w("x1", 4), w("x2 x3", 4)))
        assert finite_core(r) == [w("x1", 4), w("x2 x3", 4)]

    def test_scheme_raises(self):
        s = CommutatorScheme(generator(2, 1), generator(2, 2))
        with pytest.raises(SchemePresentError):
            finite_core(RelatorSet(2, (), (s,)))

    def test_empty(self):
        assert finite_core(RelatorSet(3, ())) == []


class TestCepTransfer:
    def test_identity_embedding(self):
        r = realize(chain())
        e = CepEmbedding(
            alphabet_rank=4,
            ambient_relators=(),
            basis_words=tuple(generator(4, i) for i in range(1, 5)),
        )
        pres = cep_transfer(r, e)
        for v in ("u", "w"):
            assert pres[v].relators == r.assignment[v].relators.finite_part
            assert pres[v].schemes == r.assignment[v].relators.schemes
            assert pres[v].finitely_presented_claim

    def test_free_factor_of_free_product(self):
        r = realize(single(0))
        e = CepEmbedding(
            alphabet_rank=3,
            ambient_relators=(w("x3 x3", 3),),
            basis_words=(w("x1", 3), w("x2", 3)),
            note="free factor of a free product",
        )
        pres = cep_transfer(r, e)["v"]
        assert pres.relators == (w("x3 x3", 3), w("x1", 3))
        assert pres.schemes == ()
        assert "x3 x3" in str(pres) and str(pres).startswith("⟨")

    def test_scheme_transfer_under_identity(self):
        r = realize(single(1))
        e = CepEmbedding(2, (), (generator(2, 1), generator(2, 2)))
        pres = cep_transfer(r, e)["v"]
        assert pres.schemes == (CommutatorScheme(generator(2, 1), generator(2, 2)),)
        assert not pres.finitely_presented_claim
        assert "scheme(x1, x2)" in str(pres)

    def test_not_enough_basis_words(self):
        r = realize(chain())
        e = CepEmbedding(2, (), (generator(2, 1), generator(2, 2)))
        with pytest.raises(RealizerError):
            cep_transfer(r, e)

    def test_basis_must_be_free(self):
        r = realize(chain())
        four_x1 = CepEmbedding(2, (), (generator(2, 1),) * 4)
        with pytest.raises(BasisNotFreeError, match="rank 1"):
            cep_transfer(r, four_x1)
        # x1, x2, x1 x2 and x2 x1 generate the free group of rank 2, not of rank 4
        tangled = CepEmbedding(2, (), (w("x1", 2), w("x2", 2), w("x1 x2", 2), w("x2 x1", 2)))
        with pytest.raises(BasisNotFreeError, match="rank 2"):
            cep_transfer(r, tangled)
        # only the first 2n words are the basis; later ones are ignored
        extra = CepEmbedding(4, (), tuple(generator(4, i) for i in (1, 2, 3, 4, 1)))
        assert set(cep_transfer(r, extra)) == {"u", "w"}

    def test_presentations_json(self):
        r = realize(single(0))
        e = CepEmbedding(2, (), (generator(2, 1), generator(2, 2)))
        data = presentations_to_json(cep_transfer(r, e))
        assert data["conditional_on_cep"] is True
        assert data["vertices"]["v"]["relators"] == ["x1"]


class TestSerialization:
    def test_realization_round_trip(self):
        d = colored_dag(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 1, "b": 0, "c": 1}
        )
        r = realize(d)
        r2 = realization_from_json(json.loads(json.dumps(realization_to_json(r))))
        assert r2.ambient_rank == r.ambient_rank
        assert r2.assignment == r.assignment
        assert r2.step_index == r.step_index
        assert r2.dag == r.dag and r2.dag.color == r.dag.color

    def test_embedding_round_trip(self):
        e = CepEmbedding(3, (w("x3 x3", 3),), (w("x1", 3), w("x2", 3)), note="demo")
        assert embedding_from_json(embedding_to_json(e)) == e

    def test_lattice_dot_smoke(self):
        dot = lattice_to_dot(realize(chain()))
        assert dot.startswith("digraph") and '"u" -> "w"' in dot


def reference_text(r) -> str:
    return json.dumps(reference_realization_to_json(r), indent=2, sort_keys=True) + "\n"


class TestRealizationText:
    """``realization_to_text`` writes the bytes of the dict builders in
    conftest, encoded as ``realization.json`` always was."""

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    @pytest.mark.parametrize("order", [0, 1, 12, 40])
    def test_seeded_dags(self, order, edge_prob):
        for seed in range(3):
            r = realize(random_colored_dag(order, random.Random(seed), edge_prob))
            assert realization_to_text(r) == reference_text(r)

    def test_ids_that_need_escaping(self):
        ids = ['"', "\\", "\u00e9", "a\nb", "\x01"]
        d = colored_dag(ids, [('"', "\\"), ("\u00e9", "a\nb"), ('"', "\x01")],
                        {v: i % 2 for i, v in enumerate(ids)})
        r = realize(d)
        assert realization_to_text(r) == reference_text(r)

    def test_string_order_differs_from_numeric_order(self):
        # ids "9" and "10", and marking keys "1", "10", ..., "2" at rank 22
        ids = [str(i) for i in range(1, 12)]
        d = random_colored_dag(11, random.Random(4), 0.3)
        r = realize(d)
        assert r.ambient_rank == 22 and set(ids) == set(r.assignment)
        text = realization_to_text(r)
        assert text == reference_text(r)
        assert text.index('"10": {') < text.index('"9": {')

    def test_color_one_images(self):
        d = colored_dag(["a", "b", "c"], [("a", "b"), ("b", "c")], {v: 1 for v in "abc"})
        r = realize(d)
        text = realization_to_text(r)
        assert '"lamp"' in text and '"shift"' in text
        assert text == reference_text(r)

    def test_loaded_realization(self):
        r = realize(random_colored_dag(12, random.Random(9), 0.3))
        text = realization_to_text(r)
        loaded = realization_from_json(json.loads(text))
        assert realization_to_text(loaded) == text == reference_text(loaded)

    def test_nested_product_from_json(self):
        # a stored expression may nest products and hold trivial factors;
        # the leaves, and so the marking, are those of the flat product
        data = realization_to_json(realize(chain()))
        data["vertices"]["u"]["expr"] = {"kind": "product", "parts": [
            {"kind": "product", "parts": [{"kind": "z"}, {"kind": "trivial"}]},
            {"kind": "free", "rank": 2}]}
        r = realization_from_json(data)
        assert realization_to_text(r) == reference_text(r)

    def test_json_is_the_decoded_text(self):
        r = realize(diamond())
        assert realization_to_json(r) == reference_realization_to_json(r)


class TestRealizationReader:
    """``realization_from_json`` parses each distinct (text, rank) once."""

    def count_parses(self, monkeypatch, data):
        calls = []

        def counting(text, rank):
            calls.append((text, rank))
            return parse_word(text, rank)

        monkeypatch.setattr(quotients, "parse_word", counting)
        return realization_from_json(data), calls

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    def test_each_word_parsed_once(self, monkeypatch, edge_prob):
        data = json.loads(realization_to_text(realize(
            random_colored_dag(40, random.Random(1), edge_prob))))
        texts = set()
        for q in data["vertices"].values():
            rel = q["relators"]
            texts.update((t, rel["rank"]) for t in rel["finite"])
            texts.update((s[k], rel["rank"]) for s in rel["schemes"] for k in "at")
        r, calls = self.count_parses(monkeypatch, data)
        assert len(calls) == len(set(calls)) == len(texts) == 80
        assert set(calls) == texts
        assert r.assignment == realization_from_json(data).assignment

    def test_words_and_identity_images_are_shared(self):
        r = realization_from_json(realization_to_json(realize(diamond())))
        by_text = {}
        for q in r.assignment.values():
            for w in q.relators.finite_part:
                assert by_text.setdefault(w, w) is w
        identities = {id(img) for q in r.assignment.values() for img in q.marking.values()
                      if img is None}
        assert len(identities) == 1

    def test_marking_images_shared_within_one_load_only(self):
        # a load shares equal images; a second load of the same text builds
        # its own, so no table outlives the load that filled it
        text = realization_to_text(realize(diamond()))
        first, second = (realization_from_json(json.loads(text)) for _ in range(2))

        def leaf_images(r):
            return [img for q in r.assignment.values() for img in q.marking.values()
                    if isinstance(img, LeafImage)]

        shared = {}
        for img in leaf_images(first):
            assert shared.setdefault(img, img) is img
        assert len(shared) < len(leaf_images(first))
        assert not {id(img) for img in leaf_images(first)} & {
            id(img) for img in leaf_images(second)}
        assert not {id(w) for q in first.assignment.values() for w in q.relators.finite_part} & {
            id(w) for q in second.assignment.values() for w in q.relators.finite_part}

    def test_parts_shared_within_one_realize_only(self):
        # one realize call builds each (leaf, value) image and the F2 leaf
        # once; a second call of the same DAG builds its own
        d = random_colored_dag(8, random.Random(8), 0.5)
        first, second = realize(d), realize(d)

        def parts(r):
            images = [img for q in r.assignment.values() for img in q.marking.values()
                      if isinstance(img, LeafImage)]
            frees = [leaf for q in r.assignment.values() for leaf in q.leaf_list
                     if isinstance(leaf, FreeOfRank)]
            return images, frees

        images, frees = parts(first)
        shared = {}
        for img in images:
            assert shared.setdefault((img.leaf, img.value), img) is img
        assert len(shared) < len(images)
        assert len(frees) > 1 and len({id(f) for f in frees}) == 1
        assert not {id(x) for x in sum(parts(first), [])} & {
            id(x) for x in sum(parts(second), [])}

    def test_one_text_under_two_ranks(self):
        words = {}
        low = relators_from_json({"rank": 2, "finite": ["x1 x2"]}, words)
        high = relators_from_json({"rank": 3, "finite": ["x1 x2"],
                                   "schemes": [{"a": "x1 x2", "t": "x3"}]}, words)
        assert low.finite_part[0].rank == 2
        assert high.finite_part[0].rank == 3 and high.schemes[0].a is high.finite_part[0]
        assert low.finite_part[0].letters == high.finite_part[0].letters
        with pytest.raises(GeneratorRangeError):
            relators_from_json({"rank": 2, "finite": ["x3"]}, {("x3", 3): generator(3, 3)})

import json
import random
import re
from collections import Counter

import pytest

from conftest import (
    lamp_inv,
    lamplighter_eval,
    nf_mul,
    random_word,
    reference_eval,
    reference_expr_to_json,
    reference_generator_mask,
    reference_generator_position,
    reference_quotient_to_json,
    reference_relator_set_error,
    reference_relators_to_json,
    reference_scheme_exactness,
)
from dagquot.quotients import (
    CommutatorScheme,
    FreeOfRank,
    FreeProduct,
    IdentityImage,
    InfiniteCyclic,
    Lamplighter,
    LeafImage,
    MarkedQuotient,
    NormalForm,
    QuotientModelError,
    RelatorSet,
    TrivialGroup,
    abelianization,
    check_soundness,
    eval_word,
    expr_from_json,
    free_product,
    has_lamplighter,
    lamp_mul,
    leaves,
    nf_from_json,
    nf_to_json,
    predicted_invariants,
    quotient_from_json,
    quotient_to_json,
    relators_from_json,
    scheme_exactness,
    surviving_relators,
)
from dagquot.snf import AbelianInvariants, smith_normal_form
from dagquot.words import (
    RankMismatchError,
    Word,
    commutator,
    conjugate,
    exponent_vector,
    generator,
    multiply,
    parse_word,
    power,
)


def w(text, rank=4):
    return parse_word(text, rank)


def z_quotient_killing_first(rank=2):
    """Model of <x1,...,xn | x1,...,x_{n-1}> = Z marked on the last generator."""
    relators = RelatorSet(rank, tuple(generator(rank, i) for i in range(1, rank)))
    marking = {i: IdentityImage() for i in range(1, rank)}
    marking[rank] = LeafImage(0, 1)
    return MarkedQuotient(rank, relators, InfiniteCyclic(), marking)


def lamplighter_quotient():
    scheme = CommutatorScheme(generator(2, 1), generator(2, 2))
    return MarkedQuotient(
        2,
        RelatorSet(2, (), (scheme,)),
        Lamplighter(),
        {1: LeafImage(0, "lamp"), 2: LeafImage(0, "shift")},
    )


class TestSchemeMember:
    def test_expansion_i1(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        assert s.member(1) == w("x3^-1 x4^-1 x3^-1 x4 x3 x4^-1 x3 x4")

    def test_length_grows_linearly(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        for i in range(1, 6):
            assert len(s.member(i)) == 4 + 4 * i

    def test_member_nontrivial(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        m = s.member(2)
        assert not m.is_identity

    def test_rejects_bad_index(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        with pytest.raises(ValueError):
            s.member(0)

    def test_zero_exponent_vector(self):
        # commutators abelianize to zero, which is why schemes are skipped
        # exactly in the abelianization
        s = CommutatorScheme(w("x3"), w("x4"))
        for i in range(1, 6):
            assert exponent_vector(s.member(i)) == [0, 0, 0, 0]

    def test_memoized_member_equals_fresh_commutator(self, rng):
        for _ in range(20):
            a, t = random_word(rng, 3), random_word(rng, 3)
            if a.is_identity or t.is_identity:
                continue
            s = CommutatorScheme(a, t)
            for i in (3, 1, 3, 2, 1, 4):
                assert s.member(i) == commutator(a, conjugate(a, power(t, i)))

    def test_memo_is_per_scheme_and_invisible(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        s.member(2)
        fresh = CommutatorScheme(w("x3"), w("x4"))
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        other = CommutatorScheme(w("x4"), w("x3"))
        assert other.member(2) != s.member(2)

    def test_member_zero_still_raises_after_use(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        s.member(1)
        for i in (0, -1):
            with pytest.raises(ValueError):
                s.member(i)


# every relator label, read by one regex: the reference for the slice
LABEL = re.compile(r"finite\[(0|[1-9][0-9]*)\]|scheme\[(0|[1-9][0-9]*)\]\.member\[([1-9][0-9]*)\]")


def regex_relator(r, label, bound):
    """``RelatorSet.relator`` with every label read by ``LABEL`` alone."""
    m = LABEL.fullmatch(label)
    if m is None:
        return None
    k, si, j = m.groups()
    if k is not None:
        return r.finite_part[int(k)] if int(k) < len(r.finite_part) else None
    if int(si) < len(r.schemes) and int(j) <= bound:
        return r.schemes[int(si)].member(int(j))
    return None


class TestLabelledRelators:
    """RelatorSet.labelled and by_length: the lists inclusion and separation
    certificates walk, memoized per bound."""

    def relators(self):
        schemes = (CommutatorScheme(w("x1"), w("x2")), CommutatorScheme(w("x3 x3"), w("x4")))
        return RelatorSet(4, (w("x2 x3 x4"), w("x4"), w("x2"), w("x4")), schemes)

    def test_labelled_order(self):
        r = self.relators()
        for bound in (2, 3, 2, 1):
            want = [(f"finite[{k}]", x) for k, x in enumerate(r.finite_part)]
            for si, s in enumerate(r.schemes):
                want += [(f"scheme[{si}].member[{i}]",
                          commutator(s.a, conjugate(s.a, power(s.t, i))))
                         for i in range(1, bound + 1)]
            assert list(r.labelled(bound)) == want

    def test_by_length_is_shortest_first(self):
        r = self.relators()
        for bound in (3, 1, 3):
            cands = [(x, f"finite[{k}]") for k, x in enumerate(r.finite_part)]
            for si, s in enumerate(r.schemes):
                cands += [(s.member(i), f"scheme[{si}].member[{i}]") for i in range(1, bound + 1)]
            cands.sort(key=lambda c: (len(c[0]), c[0].letters))
            assert list(r.by_length(bound)) == [(label, x) for x, label in cands]
        # ties: by letters, then in labelled order
        assert [label for label, _ in r.by_length(1)[:3]] == ["finite[2]", "finite[1]", "finite[3]"]

    # the label, and the relator it names at bound 3 among 12 finite
    # relators and 2 schemes: ("finite", k), ("scheme", i, j) or None
    @pytest.mark.parametrize("label,named", [
        ("finite[0]", ("finite", 0)),
        ("finite[11]", ("finite", 11)),
        ("finite[12]", None),
        ("finite[00]", None),
        ("finite[01]", None),
        ("finite[\u0661]", None),  # ARABIC-INDIC DIGIT ONE: int() reads it as 1
        ("finite[\u00b2]", None),  # SUPERSCRIPT TWO: isdigit() holds
        ("finite[]", None),
        ("finite[-1]", None),
        ("finite[+1]", None),
        ("finite[ 1]", None),
        ("finite[1_0]", None),
        ("finite[1]]", None),
        ("finite[1]\n", None),
        ("finite[" + "1" * 30 + "]", None),
        ("Finite[0]", None),
        ("scheme[1].member[1]", ("scheme", 1, 1)),
        ("scheme[0].member[3]", ("scheme", 0, 3)),
        ("scheme[0].member[4]", None),
        ("scheme[0].member[0]", None),
        ("scheme[2].member[1]", None),
        ("scheme[01].member[1]", None),
    ])
    def test_relator_reads_labels_digit_for_digit(self, label, named):
        base = self.relators()
        r = RelatorSet(4, base.finite_part * 3, base.schemes)
        if named is None:
            want = None
        elif named[0] == "finite":
            want = r.finite_part[named[1]]
        else:
            want = r.schemes[named[1]].member(named[2])
        assert r.relator(label, 3) == want
        assert regex_relator(r, label, 3) == want
        assert dict(r.labelled(3)).get(label) == want

    def test_memo_is_invisible(self):
        r = self.relators()
        r.labelled(2)
        r.by_length(2)
        fresh = self.relators()
        assert r == fresh and hash(r) == hash(fresh)
        assert repr(r) == repr(fresh)


class TestLamplighter:
    def test_generator_image(self):
        assert lamplighter_eval(w("x1", 2)) == (0, {0: 1})

    def test_disjoint_lamps_commute(self):
        comm = w("x1^-1 x2^-1 x1^-1 x2 x1 x2^-1 x1 x2", 2)
        assert lamplighter_eval(comm) == (0, {})

    def test_wreath_multiplication(self):
        assert lamplighter_eval(w("x1 x2", 2)) == (1, {0: 1})

    def test_shift_moves_lamp(self):
        # x2^-1 x1 x2 lights the lamp one step from the origin
        shift, lamps = lamplighter_eval(w("x2^-1 x1 x2", 2))
        assert shift == 0
        assert list(lamps.values()) == [1]
        assert list(lamps.keys())[0] != 0

    def test_group_laws(self, rng):
        elems = [lamplighter_eval(random_word(rng, 2))[:2] for _ in range(30)]
        elems = [(s, tuple(sorted(f.items()))) for s, f in elems]
        for x in elems[:10]:
            assert lamp_mul(x, lamp_inv(x)) == (0, ())
            assert lamp_mul(lamp_inv(x), x) == (0, ())

    def test_eval_is_multiplicative(self, rng):
        for _ in range(100):
            a, b = random_word(rng, 2), random_word(rng, 2)
            sa, fa = lamplighter_eval(a)
            sb, fb = lamplighter_eval(b)
            sab, fab = lamplighter_eval(multiply(a, b))
            prod = lamp_mul((sa, tuple(sorted(fa.items()))), (sb, tuple(sorted(fb.items()))))
            assert prod == (sab, tuple(sorted(fab.items())))


class TestFreeProduct:
    def test_pair(self):
        e = free_product([InfiniteCyclic(), FreeOfRank(2)])
        assert e == FreeProduct((InfiniteCyclic(), FreeOfRank(2)))

    def test_unit_law(self):
        assert free_product([TrivialGroup(), InfiniteCyclic()]) == InfiniteCyclic()

    def test_flattening(self):
        nested = free_product([FreeProduct((InfiniteCyclic(), InfiniteCyclic())), InfiniteCyclic()])
        assert nested == FreeProduct((InfiniteCyclic(),) * 3)

    def test_empty_is_trivial(self):
        assert free_product([]) == TrivialGroup()

    def test_leaves_and_lamplighter_flag(self):
        e = free_product([InfiniteCyclic(), Lamplighter(), FreeOfRank(3)])
        assert leaves(e) == (InfiniteCyclic(), Lamplighter(), FreeOfRank(3))
        assert has_lamplighter(leaves(e))
        assert not has_lamplighter(leaves(free_product([InfiniteCyclic()])))

    def test_json_round_trip(self):
        e = free_product([InfiniteCyclic(), Lamplighter(), FreeOfRank(2)])
        assert expr_from_json(reference_expr_to_json(e)) == e
        assert expr_from_json(reference_expr_to_json(TrivialGroup())) == TrivialGroup()


class TestEval:
    def test_killed_generator(self):
        q = z_quotient_killing_first(2)
        nf = eval_word(q, w("x1 x2 x1", 2))
        assert nf == NormalForm(((0, 1),))

    def test_cancellation(self):
        q = z_quotient_killing_first(2)
        assert eval_word(q, w("x2 x2 x2 x2^-1 x2^-1 x2^-1", 2)).is_identity

    def test_scheme_members_die_in_lamplighter(self):
        q = lamplighter_quotient()
        s = q.relators.schemes[0]
        for i in range(1, 6):
            assert eval_word(q, s.member(i)).is_identity

    def test_homomorphism_random_pairs(self, rng):
        q = MarkedQuotient(
            4,
            RelatorSet(4, (generator(4, 1),)),
            free_product([InfiniteCyclic(), FreeOfRank(2)]),
            {
                1: IdentityImage(),
                2: LeafImage(0, 1),
                3: LeafImage(1, 1),
                4: LeafImage(1, 2),
            },
        )
        for _ in range(1000):
            a, b = random_word(rng, 4), random_word(rng, 4)
            assert eval_word(q, multiply(a, b)) == nf_mul(q, eval_word(q, a), eval_word(q, b))

    def test_alternating_syllables(self, rng):
        q = MarkedQuotient(
            2,
            RelatorSet(2, ()),
            free_product([InfiniteCyclic(), InfiniteCyclic()]),
            {1: LeafImage(0, 1), 2: LeafImage(1, 1)},
        )
        for _ in range(200):
            nf = eval_word(q, random_word(rng, 2, 12))
            for s1, s2 in zip(nf.syllables, nf.syllables[1:]):
                assert s1[0] != s2[0]
            assert all(payload != 0 for _, payload in nf.syllables)

    def test_rank_mismatch(self):
        q = z_quotient_killing_first(2)
        with pytest.raises(Exception):
            eval_word(q, w("x1", 3))


class TestSoundness:
    def test_sound_quotient_passes(self):
        check_soundness(z_quotient_killing_first(4), probe_bound=5)
        check_soundness(lamplighter_quotient(), probe_bound=5)

    def test_unsound_marking_rejected(self):
        relators = RelatorSet(2, (generator(2, 2),))
        q = MarkedQuotient(
            2, relators, InfiniteCyclic(), {1: IdentityImage(), 2: LeafImage(0, 1)}
        )
        with pytest.raises(QuotientModelError):
            check_soundness(q)

    def test_mask_path_names_the_survivor(self):
        q = MarkedQuotient(3, RelatorSet(3, (generator(3, 1), generator(3, 3))),
                           InfiniteCyclic(),
                           {1: IdentityImage(), 2: IdentityImage(), 3: LeafImage(0, 1)})
        assert q.relators.generator_mask == 0b1010
        with pytest.raises(QuotientModelError, match=r"^relator finite\[1\] survives in quotient$"):
            check_soundness(q)

    def test_eval_path_names_the_survivor(self):
        # x1 x2^-1 dies and x1 x2 survives in Z with x1, x2 -> 1; neither is
        # a single generator, so the set has no generator mask
        q = MarkedQuotient(2, RelatorSet(2, (w("x1 x2^-1", 2), w("x1 x2", 2))),
                           InfiniteCyclic(), {1: LeafImage(0, 1), 2: LeafImage(0, 1)})
        assert q.relators.generator_mask is None
        with pytest.raises(QuotientModelError, match=r"^relator finite\[1\] survives in quotient$"):
            check_soundness(q)

    def test_probed_scheme_member_names_the_survivor(self):
        scheme = CommutatorScheme(generator(2, 1), generator(2, 2))
        q = MarkedQuotient(2, RelatorSet(2, (), (scheme,)), FreeOfRank(2),
                           {1: LeafImage(0, 1), 2: LeafImage(0, 2)})
        exactness = scheme_exactness(q, scheme)
        assert exactness[0] == "probed"
        assert surviving_relators(q.relators, q, 2) == ((exactness,), [
            "scheme[0].member[1]", "scheme[0].member[2]"])
        with pytest.raises(QuotientModelError,
                           match=r"^relator scheme\[0\]\.member\[1\] survives in quotient$"):
            check_soundness(q)

    def test_exact_scheme_builds_no_members(self):
        q = lamplighter_quotient()
        (scheme,) = q.relators.schemes
        assert scheme_exactness(q, scheme) == ("exact", "abelian-base-zero-shift")
        check_soundness(q, probe_bound=5)
        assert not scheme._members

    def test_marking_must_cover_generators(self):
        with pytest.raises(QuotientModelError):
            MarkedQuotient(2, RelatorSet(2, ()), InfiniteCyclic(), {1: LeafImage(0, 1)})

    def test_leaf_payload_type_checked(self):
        with pytest.raises(QuotientModelError):
            MarkedQuotient(
                1, RelatorSet(1, ()), Lamplighter(), {1: LeafImage(0, "blue")}
            )

    # leaves: 0 is Z, 1 is F2, 2 is Z wr Z; x4 dies
    GOOD_MARKING = {1: LeafImage(0, 1), 2: LeafImage(1, 2), 3: LeafImage(2, "lamp"),
                    4: IdentityImage()}

    @pytest.mark.parametrize("bad,reverse,message", [
        ({2: LeafImage(3, 1)}, False, "marking of x2 uses unknown leaf 3"),
        ({3: LeafImage(-1, "lamp")}, False, "marking of x3 uses unknown leaf -1"),
        ({1: LeafImage(0, True)}, False, "x1: Z leaf image must be an integer"),
        ({1: LeafImage(0, "lamp")}, False, "x1: Z leaf image must be an integer"),
        ({2: LeafImage(1, True)}, False, "x2: free leaf image must be a generator index"),
        ({2: LeafImage(1, 3)}, False, "x2: free leaf image must be a generator index"),
        ({2: LeafImage(1, 0)}, False, "x2: free leaf image must be a generator index"),
        ({3: LeafImage(2, "blue")}, False, "x3: lamplighter image must be lamp or shift"),
        ({3: LeafImage(2, 1)}, False, "x3: lamplighter image must be lamp or shift"),
        # two bad entries: the first in marking order is named
        ({1: LeafImage(0, True), 3: LeafImage(5, 1)}, False,
         "x1: Z leaf image must be an integer"),
        ({1: LeafImage(0, True), 3: LeafImage(5, 1)}, True, "marking of x3 uses unknown leaf 5"),
        ({2: LeafImage(1, 9), 3: LeafImage(2, 0)}, True,
         "x3: lamplighter image must be lamp or shift"),
    ])
    def test_marking_messages(self, bad, reverse, message):
        marking = {**self.GOOD_MARKING, **bad}
        if reverse:
            marking = dict(reversed(marking.items()))
        expr = FreeProduct((InfiniteCyclic(), FreeOfRank(2), Lamplighter()))
        with pytest.raises(QuotientModelError) as err:
            MarkedQuotient(4, RelatorSet(4, ()), expr, marking)
        assert str(err.value) == message
        assert MarkedQuotient(4, RelatorSet(4, ()), expr, self.GOOD_MARKING).dead_mask == 1 << 4


def random_marked_quotient(rng: random.Random, rank: int) -> MarkedQuotient:
    """A quotient on up to three leaves of every kind; each generator goes
    to the identity, to any value of a Z leaf (0 included), to a free
    generator, or to the lamp or the shift."""
    lvs = [rng.choice((InfiniteCyclic(), FreeOfRank(rng.randint(1, 3)), Lamplighter()))
           for _ in range(rng.randint(0, 3))]
    marking = {}
    for i in range(1, rank + 1):
        if not lvs or rng.random() < 0.3:
            marking[i] = IdentityImage()
            continue
        k = rng.randrange(len(lvs))
        if isinstance(lvs[k], InfiniteCyclic):
            marking[i] = LeafImage(k, rng.randint(-2, 2))
        elif isinstance(lvs[k], FreeOfRank):
            marking[i] = LeafImage(k, rng.randint(1, lvs[k].rank))
        else:
            marking[i] = LeafImage(k, rng.choice(("lamp", "shift")))
    return MarkedQuotient(rank, RelatorSet(rank, ()), free_product(lvs), marking)


def scheme_words(rng: random.Random, q: MarkedQuotient) -> list[Word]:
    """Every generator and its inverse, random words, and words over the
    generators ``q`` kills."""
    rank = q.rank
    words = [Word(rank, ((i, s),)) for i in range(1, rank + 1) for s in (1, -1)]
    words += [random_word(rng, rank, 6) for _ in range(6)]
    dead = [i for i in range(1, rank + 1) if q.dead_mask >> i & 1]
    if dead:
        words += [multiply(generator(rank, rng.choice(dead)), power(generator(rank, i), -1))
                  for i in dead]
    return [x for x in words if not x.is_identity]


def dead_letter(q: MarkedQuotient, x: Word) -> int:
    """The sign of ``x`` when it is one letter on a generator ``q`` kills, else 0."""
    return x.letters[0][1] if len(x) == 1 and q.dead_mask >> x.letters[0][0] & 1 else 0


class TestSchemeExactnessShortcut:
    """``scheme_exactness`` reads a single-letter ``a``'s image off
    ``dead_mask``; it must tag every scheme as evaluation does."""

    def test_matches_evaluation(self):
        seen = Counter()
        for seed in range(30):
            rng = random.Random(seed)
            q = random_marked_quotient(rng, rng.randint(1, 5))
            words = scheme_words(rng, q)
            for x in words:
                assert reference_eval(q, x) == eval_word(q, x)
            for a in words:
                for t in words:
                    scheme = CommutatorScheme(a, t)
                    tag = scheme_exactness(q, scheme)
                    assert tag == reference_scheme_exactness(q, scheme), (seed, a, t)
                    seen[tag[1], dead_letter(q, a), dead_letter(q, t)] += 1
        assert {reason for reason, _, _ in seen} == {
            "a-image-trivial", "t-image-trivial", "abelian-base-zero-shift",
            "members checked for i <= bound only"}
        # the shortcut on a generator of either sign, a dead one-letter t
        # (evaluated), and each trivial image the shortcut does not see
        for key in [("a-image-trivial", sign, 0) for sign in (1, -1)] + [
                ("t-image-trivial", 0, sign) for sign in (1, -1)] + [
                ("a-image-trivial", 0, 0), ("t-image-trivial", 0, 0)]:
            assert seen[key], key

    def test_rank_mismatch_still_raises(self):
        q = MarkedQuotient(2, RelatorSet(2, ()), InfiniteCyclic(),
                           {1: IdentityImage(), 2: LeafImage(0, 1)})
        for a, t in (("x1", "x2"), ("x2", "x1"), ("x1^-1", "x3")):
            scheme = CommutatorScheme(w(a, 3), w(t, 3))
            with pytest.raises(RankMismatchError):
                reference_scheme_exactness(q, scheme)
            with pytest.raises(RankMismatchError):
                scheme_exactness(q, scheme)


class TestFusedMasks:
    """``RelatorSet`` builds its generator mask and positions in the walk
    that checks its finite relators."""

    @staticmethod
    def random_finite_part(rng: random.Random, rank: int) -> list[Word]:
        out: list[Word] = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if out and kind < 0.2:
                out.append(rng.choice(out))  # a repeat
            elif kind < 0.7:
                out.append(Word(rank, ((rng.randint(1, rank), rng.choice((1, -1, 1))),)))
            else:
                x = random_word(rng, rank, 4)
                if not x.is_identity:
                    out.append(x)
        return out

    @staticmethod
    def raised(rank, finite, schemes=()):
        try:
            RelatorSet(rank, tuple(finite), tuple(schemes))
        except (RankMismatchError, QuotientModelError) as exc:
            return type(exc), str(exc)
        return None

    def test_masks_match_their_definitions(self):
        kinds = Counter()
        for seed in range(200):
            rng = random.Random(seed)
            rank = rng.randint(1, 5)
            rel = RelatorSet(rank, tuple(self.random_finite_part(rng, rank)))
            assert rel.generator_mask == reference_generator_mask(rel)
            assert rel.generator_position == reference_generator_position(rel)
            finite = rel.finite_part
            kinds["empty"] += not finite
            kinds["inverse"] += any(x.letters[0][1] == -1 for x in finite if len(x) == 1)
            kinds["long"] += any(len(x) > 1 for x in finite)
            kinds["repeat"] += len(set(finite)) < len(finite)
        assert min(kinds.values()) > 10, kinds

    def test_errors_match_their_definition(self):
        for seed in range(200):
            rng = random.Random(seed)
            rank = rng.randint(1, 5)
            finite = self.random_finite_part(rng, rank)
            bad_words = [Word(rank + 1, ((1, 1),)), Word(rank, ()), Word(rank + 1, ())]
            for bad in rng.sample(bad_words, rng.randint(0, 2)):
                finite.insert(rng.randint(0, len(finite)), bad)
            schemes = [CommutatorScheme(generator(r, 1), generator(r, 1))
                       for r in rng.sample([rank, rank + 2], rng.randint(0, 2))]
            assert self.raised(rank, finite, schemes) == reference_relator_set_error(
                rank, finite, schemes)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_bad_word_is_named(self, reverse):
        pair = [Word(3, ((1, 1),)), Word(4, ())]
        finite = [w("x1"), *(reversed(pair) if reverse else pair), w("x2 x3")]
        expected = reference_relator_set_error(4, finite)
        assert expected == ((QuotientModelError, "finite relators must be nontrivial") if reverse
                            else (RankMismatchError, "relator rank 3 != 4"))
        assert self.raised(4, finite) == expected

    def test_rank_is_checked_before_identity(self):
        finite = [w("x1"), Word(3, ())]
        assert reference_relator_set_error(4, finite) == (RankMismatchError, "relator rank 3 != 4")
        assert self.raised(4, finite) == reference_relator_set_error(4, finite)


def smith_invariants(rank, rows):
    """Invariants read off the Smith normal form of every exponent vector."""
    if not rows:
        return AbelianInvariants(rank, ())
    _, d, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(rows), rank)) if d[i][i] != 0]
    return AbelianInvariants(rank - len(diag), tuple(x for x in diag if x > 1))


class TestAbelianization:
    def test_kill_one_of_four(self):
        r = RelatorSet(4, (w("x1"),))
        assert abelianization(4, r) == AbelianInvariants(3, ())

    def test_scheme_only(self):
        s = CommutatorScheme(generator(2, 1), generator(2, 2))
        r = RelatorSet(2, (), (s,))
        assert abelianization(2, r) == AbelianInvariants(2, ())

    def test_torsion(self):
        r = RelatorSet(2, (w("x1 x1", 2), w("x2", 2)))
        assert abelianization(2, r) == AbelianInvariants(0, (2,))

    def test_empty_relators(self):
        assert abelianization(5, RelatorSet(5, ())) == AbelianInvariants(5, ())

    def test_single_letters_among_words(self, rng):
        # a single-letter relator, x_i or its inverse, kills x_i before any
        # exponent vector is built; the other rows lose that column
        for _ in range(200):
            rank = rng.randint(1, 5)
            words = [random_word(rng, rank, 4) for _ in range(rng.randint(0, 4))]
            words += [generator(rank, rng.randint(1, rank), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 3))]
            rng.shuffle(words)
            finite = tuple(x for x in words if not x.is_identity)
            rows = [exponent_vector(x) for x in finite]
            assert abelianization(rank, RelatorSet(rank, finite)) == smith_invariants(rank, rows)

    def test_predictions_from_structure(self):
        assert predicted_invariants(leaves(InfiniteCyclic())) == AbelianInvariants(1, ())
        assert predicted_invariants(leaves(FreeOfRank(3))) == AbelianInvariants(3, ())
        assert predicted_invariants(leaves(Lamplighter())) == AbelianInvariants(2, ())
        e = free_product([InfiniteCyclic(), FreeOfRank(2), Lamplighter()])
        assert predicted_invariants(leaves(e)) == AbelianInvariants(5, ())
        assert predicted_invariants(leaves(TrivialGroup())) == AbelianInvariants(0, ())


class TestSerialization:
    def test_relators_round_trip(self):
        s = CommutatorScheme(w("x3"), w("x4"))
        r = RelatorSet(4, (w("x1"), w("x2 x3")), (s,))
        assert relators_from_json(reference_relators_to_json(r)) == r

    def test_quotient_round_trip(self):
        trivial = MarkedQuotient(1, RelatorSet(1, (w("x1", 1),)), TrivialGroup(),
                                 {1: IdentityImage()})
        for q in (z_quotient_killing_first(3), lamplighter_quotient(), trivial):
            data = json.loads(json.dumps(quotient_to_json(q)))
            assert data == reference_quotient_to_json(q)
            assert quotient_from_json(data) == q

    def test_nf_round_trip(self, rng):
        q = MarkedQuotient(
            4,
            RelatorSet(4, ()),
            free_product([InfiniteCyclic(), Lamplighter(), FreeOfRank(2)]),
            {
                1: LeafImage(0, 1),
                2: LeafImage(1, "lamp"),
                3: LeafImage(1, "shift"),
                4: LeafImage(2, 1),
            },
        )
        for _ in range(100):
            nf = eval_word(q, random_word(rng, 4, 10))
            data = json.loads(json.dumps(nf_to_json(nf)))
            assert nf_from_json(data) == nf

    @pytest.mark.parametrize("data", [
        {"leaf": 0, "z": 1},
        [{"leaf": "0", "z": 1}],
        [{"leaf": 0, "z": 1.0}],
        [{"leaf": 0, "shift": "1", "lamps": []}],
        [{"leaf": 0, "shift": 1, "lamps": [[0]]}],
        [{"leaf": 0, "letters": [[1, "1"]]}],
        [{"leaf": 0, "letters": [1, 1]}],
    ])
    def test_nf_from_json_does_not_coerce(self, data):
        with pytest.raises(ValueError):
            nf_from_json(data)

    def test_nontrivial_relator_enforced(self):
        with pytest.raises(QuotientModelError):
            RelatorSet(2, (Word(2, ()),))

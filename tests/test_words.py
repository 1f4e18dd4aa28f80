import pytest

from conftest import cyclically_reduce, identity_hom, random_raw_letters, random_word
from dagquot.words import (
    GeneratorRangeError,
    Hom,
    RankMismatchError,
    Word,
    WordError,
    apply_hom,
    commutator,
    conjugate,
    exponent_vector,
    format_word,
    generator,
    identity,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
)


def w(text, rank=4):
    return parse_word(text, rank)


class TestReduce:
    def test_full_cancellation(self):
        assert reduce([(1, 1), (1, -1)], 2) == identity(2)

    def test_inner_cancellation(self):
        assert reduce([(1, 1), (2, 1), (2, -1), (1, 1)], 2) == w("x1 x1", 2)

    def test_fixed_point(self):
        word = reduce([(2, -1), (1, 1), (2, 1)], 2)
        assert word == w("x2^-1 x1 x2", 2)

    def test_idempotent_on_random_inputs(self, rng):
        for _ in range(200):
            raw = random_raw_letters(rng, 3, rng.randint(0, 12))
            once = reduce(raw, 3)
            assert reduce(once.letters, 3) == once

    def test_index_out_of_range(self):
        with pytest.raises(GeneratorRangeError):
            reduce([(3, 1)], 2)

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(WordError):
            Word(2, ((1, 1), (1, -1)))


class TestGroupLaws:
    def test_multiply_cancels(self):
        assert multiply(w("x1 x2", 2), w("x2^-1", 2)) == w("x1", 2)

    def test_multiply_plain(self):
        assert multiply(w("x1", 2), w("x2", 2)) == w("x1 x2", 2)

    def test_inverse_law(self, rng):
        for _ in range(100):
            a = random_word(rng, 3)
            assert multiply(a, invert(a)).is_identity
            assert multiply(invert(a), a).is_identity

    def test_associativity_randomized(self, rng):
        for _ in range(100):
            a, b, c = (random_word(rng, 3) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_identity_element(self, rng):
        e = identity(3)
        for _ in range(20):
            a = random_word(rng, 3)
            assert multiply(a, e) == a
            assert multiply(e, a) == a

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(w("x1", 2), w("x1", 3))


class TestInvert:
    def test_reverses_and_flips(self):
        assert invert(w("x1 x2^-1", 2)) == w("x2 x1^-1", 2)

    def test_empty(self):
        assert invert(identity(2)) == identity(2)

    def test_involution(self, rng):
        for _ in range(100):
            a = random_word(rng, 3)
            assert invert(invert(a)) == a


class TestConjugate:
    def test_definition(self):
        assert conjugate(w("x1", 2), w("x2", 2)) == w("x2^-1 x1 x2", 2)

    def test_identity_conjugator(self):
        assert conjugate(w("x1", 2), identity(2)) == w("x1", 2)

    def test_self_conjugation(self):
        assert conjugate(w("x1", 2), w("x1", 2)) == w("x1", 2)

    def test_composition(self, rng):
        for _ in range(100):
            g, h1, h2 = (random_word(rng, 3) for _ in range(3))
            assert conjugate(g, multiply(h1, h2)) == conjugate(conjugate(g, h1), h2)


class TestCyclicReduce:
    def test_conjugated_letter(self):
        core, conj = cyclically_reduce(w("x2^-1 x1 x2", 2))
        assert core == w("x1", 2)
        assert conj == w("x2", 2)

    def test_already_reduced(self):
        core, conj = cyclically_reduce(w("x1 x2", 2))
        assert core == w("x1 x2", 2)
        assert conj.is_identity

    def test_empty(self):
        core, conj = cyclically_reduce(identity(2))
        assert core.is_identity and conj.is_identity

    def test_decomposition_identity(self, rng):
        for _ in range(100):
            word = random_word(rng, 3, 10)
            core, conj = cyclically_reduce(word)
            assert conjugate(core, conj) == word
            # minimality: the core is cyclically reduced
            if core.letters:
                first, last = core.letters[0], core.letters[-1]
                assert not (first[0] == last[0] and first[1] == -last[1])


class TestHom:
    def test_substitution(self):
        f = Hom(2, 2, (w("x1 x2", 2), w("x2", 2)))
        assert apply_hom(f, w("x1 x2^-1", 2)) == w("x1", 2)

    def test_identity_hom(self, rng):
        f = identity_hom(3)
        for _ in range(20):
            a = random_word(rng, 3)
            assert apply_hom(f, a) == a

    def test_generator_killing(self):
        f = Hom(2, 2, (identity(2), w("x2", 2)))
        assert apply_hom(f, w("x1 x2 x1", 2)) == w("x2", 2)

    def test_multiplicative(self, rng):
        f = Hom(3, 2, (w("x1 x2", 2), w("x2^-1", 2), identity(2)))
        for _ in range(100):
            a, b = random_word(rng, 3), random_word(rng, 3)
            assert apply_hom(f, multiply(a, b)) == multiply(apply_hom(f, a), apply_hom(f, b))
            assert apply_hom(f, invert(a)) == invert(apply_hom(f, a))

    def test_rank_checks(self):
        with pytest.raises(RankMismatchError):
            apply_hom(identity_hom(2), w("x1", 3))
        with pytest.raises(WordError):
            Hom(2, 2, (w("x1", 2),))


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(100):
            a = random_word(rng, 3)
            assert parse_word(format_word(a), 3) == a

    def test_empty_string(self):
        assert parse_word("", 2).is_identity
        assert format_word(identity(2)) == ""

    def test_rejects_garbage(self):
        for bad in ("y1", "x0", "x1^2", "x1^-2", "x"):
            with pytest.raises(WordError):
                parse_word(bad, 4)


class TestHelpers:
    def test_power(self):
        assert power(w("x1", 2), 3) == w("x1 x1 x1", 2)
        assert power(w("x1", 2), -2) == w("x1^-1 x1^-1", 2)
        assert power(w("x1", 2), 0).is_identity

    @pytest.mark.parametrize("text", ["x1", "x1 x2^-1", "x2 x1 x3 x2^-1", "x3^-1 x1 x3"])
    def test_power_equals_iterated_multiply(self, text):
        # the last two words are not cyclically reduced: their powers cancel inside
        a = w(text)
        for n in range(-7, 8):
            want = identity(a.rank)
            for _ in range(abs(n)):
                want = multiply(want, a if n >= 0 else invert(a))
            assert power(a, n) == want

    def test_commutator_expansion(self):
        g, h = w("x1", 2), w("x2", 2)
        assert commutator(g, h) == w("x1^-1 x2^-1 x1 x2", 2)

    def test_exponent_vector(self):
        assert exponent_vector(w("x1 x2^-1 x1 x3", 4)) == [2, -1, 1, 0]

    def test_generator(self):
        assert generator(3, 2) == w("x2", 3)
        assert generator(3, 2, -1) == w("x2^-1", 3)

    @pytest.mark.parametrize("rank", [0, 1, 2, 5])
    def test_truth_value(self, rank):
        # a word is false exactly when it is the identity
        assert bool(identity(rank)) is False
        for idx in range(1, rank + 1):
            assert bool(generator(rank, idx)) is True
            assert bool(multiply(generator(rank, idx), generator(rank, idx, -1))) is False

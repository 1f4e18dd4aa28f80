import itertools
import json
import random

import pytest

from conftest import (
    a3_in_s3,
    check_certificate,
    normal_closure_finite,
    parse_permutation,
    reference_closure,
    reference_generating_sets,
    reference_lattice,
    relabelled_generators,
)
from dagquot import ceplab
from dagquot.ceplab import (
    FiniteGroup,
    GroupTableError,
    Subgroup,
    all_subgroups,
    all_subgroups_within,
    builtin_group,
    builtin_names,
    cep_transitivity_scan,
    d4_in_s4,
    free_counterexample_demo,
    group_from_json,
    group_from_permutations,
    is_almost_cep_finite,
    is_cep_finite,
    is_cep_pair,
    normal_closure_in,
    normal_subgroups_within,
    permutation_name,
    subgroup_from_generator_names,
    subgroup_generated,
)
from dagquot.verifier import (
    certificate_from_json,
    certificate_to_json,
    check_certificate_detailed,
)


class TestPermutations:
    def test_parse_and_name_round_trip(self):
        for text in ("(1 2)", "(1 2 3)", "(1 2)(3 4)", "(1 2 3 4)"):
            assert permutation_name(parse_permutation(text, 4)) == text

    def test_identity(self):
        assert parse_permutation("()", 3) == (0, 1, 2)
        assert permutation_name((0, 1, 2)) == "()"

    def test_bad_cycles(self):
        for bad in ("(1 5)", "(1 1)", "(1 2)(2 3)", "nonsense"):
            with pytest.raises(GroupTableError):
                parse_permutation(bad, 4)

    def test_non_integer_point(self):
        with pytest.raises(GroupTableError) as err:
            group_from_permutations(3, ["(1 a)"])
        assert str(err.value) == "bad cycle (1 a): invalid literal for int() with base 10: 'a'"

    def test_order_cap(self):
        # S8 has order 40320; the search stops at the cap
        with pytest.raises(GroupTableError, match=r"^order cap 10080 exceeded$"):
            group_from_permutations(8, ["(1 2)", "(1 2 3 4 5 6 7 8)"])


class TestGroupConstruction:
    def test_builtin_orders(self):
        expected = {"s3": 6, "s4": 24, "a4": 12, "d4": 8, "q8": 8, "c2xc2": 4,
                    "s5": 120, "a5": 60, "s4xc2": 48}
        for name, order in expected.items():
            assert builtin_group(name).order == order
        assert set(builtin_names()) == set(expected)

    def test_identity_is_element_zero(self):
        for name in builtin_names():
            g = builtin_group(name)
            assert g.names[0] in ("()", "1", "e")

    def test_table_json_round_trip(self):
        g = builtin_group("s3")
        data = {"order": g.order, "table": [list(r) for r in g.table], "names": list(g.names)}
        g2 = group_from_json(json.loads(json.dumps(data)))
        assert g2.table == g.table

    def test_permutation_json(self):
        g = group_from_json({"degree": 3, "generators": ["(1 2)", "(1 2 3)"]})
        assert g.order == 6

    def test_broken_table_rejected(self):
        with pytest.raises(GroupTableError):
            FiniteGroup(2, ((0, 1), (1, 1)), ("e", "a"))

    def test_unknown_builtin(self):
        with pytest.raises(GroupTableError):
            builtin_group("m24")

    def test_q8_structure(self):
        g = builtin_group("q8")
        i = g.names.index("i")
        j = g.names.index("j")
        assert g.names[g.mul(i, j)] == "k"
        assert g.names[g.mul(j, i)] == "-k"
        assert g.names[g.mul(i, i)] == "-1"


# a Latin square with identity 0 (a loop) that is not associative
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def direct_product_table(t1, t2):
    """Table of the direct product, element (a, b) numbered a * len(t2) + b."""
    n2 = len(t2)
    return tuple(
        tuple(t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(len(t1)) for b2 in range(n2))
        for a1 in range(len(t1)) for a2 in range(n2)
    )


def cyclic_table(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def brute_force_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def normalized_latin_squares(n):
    """Every n x n Latin square whose row and column 0 read 0..n-1."""
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(tuple(r) for r in rows)
            return
        a, b = divmod(cell, n)
        if a == 0 or b == 0:
            yield from fill(cell + 1)
            return
        used = set(rows[a][:b]) | {rows[r][b] for r in range(a)}
        for v in range(n):
            if v not in used:
                rows[a][b] = v
                yield from fill(cell + 1)
        rows[a][b] = None

    yield from fill(0)


def names(n):
    return tuple(str(i) for i in range(n))


class TestAssociativity:
    def test_order_5_loop_rejected(self):
        assert not brute_force_associative(LOOP5)
        with pytest.raises(GroupTableError, match="associativity"):
            FiniteGroup(5, LOOP5, names(5))

    def test_loop_times_c41_rejected(self):
        # order 205: big enough that sampled triples could miss the flaw
        table = direct_product_table(LOOP5, cyclic_table(41))
        with pytest.raises(GroupTableError, match="associativity"):
            FiniteGroup(205, table, names(205))

    def test_group_times_c41_accepted(self):
        g = builtin_group("c2xc2")
        table = direct_product_table(g.table, cyclic_table(41))
        assert FiniteGroup(164, table, names(164)).order == 164

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_triple_check_on_every_small_loop(self, n):
        verdicts = set()
        for table in normalized_latin_squares(n):
            try:
                FiniteGroup(n, table, names(n))
                accepted = True
            except GroupTableError:
                accepted = False
            assert accepted == brute_force_associative(table), table
            verdicts.add(accepted)
        assert True in verdicts

    def test_every_builtin_passes(self):
        for name in builtin_names():
            g = builtin_group(name)
            g.validate()
            if g.order <= 60:
                assert brute_force_associative(g.table)

    def test_permutation_tables_pass(self):
        rng = random.Random(5)
        for _ in range(20):
            degree = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(1, 3)):
                points = list(range(1, degree + 1))
                rng.shuffle(points)
                gens.append("(" + " ".join(map(str, points)) + ")")
            g = group_from_permutations(degree, gens)
            g.validate()
            if g.order <= 24:
                assert brute_force_associative(g.table)


def brute_force_generated(g, seed):
    """Fixpoint of the seed and the identity under products and inverses."""
    elems = set(seed) | {0}
    while True:
        bigger = elems | {g.mul(a, b) for a in elems for b in elems} | {g.inv(a) for a in elems}
        if bigger == elems:
            return frozenset(elems)
        elems = bigger


def brute_force_normal_closure(g, ambient, seed):
    conjugates = {g.conj(s, x) for s in seed for x in ambient}
    return brute_force_generated(g, conjugates)


def forbid_conjugation_search(monkeypatch):
    def no_join(*args):
        raise AssertionError("normal closure computed by a conjugation search")

    monkeypatch.setattr(ceplab, "_join", no_join)


def fresh_copy(g):
    return FiniteGroup(g.order, g.table, g.names)


def s6() -> FiniteGroup:
    return group_from_permutations(6, ["(1 2)", "(1 2 3 4 5 6)"])


class TestSubgroups:
    def test_subgroup_validation(self):
        g = builtin_group("s3")
        with pytest.raises(GroupTableError):
            Subgroup(g, frozenset({1}))

    @pytest.mark.parametrize("elements,sizes", [
        ({"()", "(1 2 3)"}, "generate 3 elements, not 2"),  # no inverse of (1 2 3)
        ({"()", "(1 2)", "(1 3)"}, "generate 6 elements, not 3"),  # no product
    ], ids=["inverse-missing", "product-missing"])
    def test_subgroup_rejects_non_subgroups(self, elements, sizes):
        g = builtin_group("s3")
        with pytest.raises(GroupTableError, match=sizes):
            Subgroup(g, frozenset(g.names.index(name) for name in elements))

    @pytest.mark.parametrize("name", builtin_names())
    def test_subgroup_accepts_every_subgroup(self, name):
        g = builtin_group(name)
        for sub in all_subgroups(g):
            assert Subgroup(g, sub).elements == sub

    def test_generated(self):
        g = builtin_group("s3")
        h = subgroup_from_generator_names(g, ["(1 2 3)"])
        assert len(h.elements) == 3

    def test_all_subgroups_s4_count(self):
        # classical count: the symmetric group on 4 points has 30 subgroups
        assert len(all_subgroups(builtin_group("s4"))) == 30

    def test_all_subgroups_s3_count(self):
        assert len(all_subgroups(builtin_group("s3"))) == 6

    @pytest.mark.parametrize("name,count", [("s5", 156), ("a5", 59), ("s4xc2", 98),
                                            ("s6", 1455)])
    def test_classical_subgroup_counts(self, name, count):
        g = s6() if name == "s6" else builtin_group(name)
        assert len(all_subgroups(g)) == count

    @pytest.mark.parametrize("name", ["s3", "c2xc2", "d4", "q8", "a4", "s4", "s4xc2", "a5", "s5"])
    def test_generated_matches_brute_force(self, name):
        g = builtin_group(name)
        rng = random.Random(name)
        for _ in range(8):
            seed = rng.sample(range(g.order), rng.randint(1, 3))
            assert subgroup_generated(g, seed).elements == brute_force_generated(g, seed)

    @pytest.mark.parametrize("name", ["s3", "c2xc2", "d4", "q8", "a4", "s4"])
    def test_lattice_has_every_cyclic_subgroup_and_join(self, name):
        g = builtin_group(name)
        subs = all_subgroups(g)
        assert len(set(subs)) == len(subs)
        assert subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
        for sub in subs:
            Subgroup(g, sub)
        listed = set(subs)
        for x in range(g.order):
            assert brute_force_generated(g, {x}) in listed
        for a, b in itertools.combinations(subs, 2):
            assert brute_force_generated(g, a | b) in listed

    @pytest.mark.parametrize("name", ["s3", "c2xc2", "d4", "q8", "a4", "s4", "s4xc2", "a5"])
    def test_lattice_does_not_depend_on_cache_order(self, name):
        g = builtin_group(name)
        whole = all_subgroups(g)
        for k in whole:
            filtered = all_subgroups_within(g, k)
            assert filtered == [sub for sub in whole if sub <= k]
            assert all_subgroups_within(fresh_copy(g), k) == filtered

    @pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4", "s4", "s4xc2", "a5"])
    def test_normal_subgroups_and_closures_match_brute_force(self, name):
        # once on a group whose memos a whole scan has filled, and once per
        # ambient on a copy with no memos at all
        g = builtin_group(name)
        scanned = builtin_group(name)
        assert cep_transitivity_scan(scanned).ok
        for k in all_subgroups(g):
            normals = [
                sub for sub in all_subgroups_within(g, k)
                if all(g.conj(a, x) in sub for a in sub for x in k)
            ]
            closures = {h: brute_force_normal_closure(g, k, h)
                        for h in all_subgroups_within(g, k)}
            for q in (scanned, fresh_copy(g)):
                assert normal_subgroups_within(q, k) == normals
                for h, closure in closures.items():
                    assert normal_closure_in(q, k, h) == closure

    def test_lagrange(self):
        g = builtin_group("a4")
        for sub in all_subgroups(g):
            assert g.order % len(sub) == 0


def relabelled(name: str, seed: int) -> FiniteGroup:
    """The permutation group ``name`` with its points renamed by a seeded
    permutation and its generators shuffled, as the benchmark builds it."""
    return group_from_permutations(*relabelled_generators(name, seed))


class TestReferenceLattice:
    """``all_subgroups`` against exhaustive cyclic extension, which joins
    every subgroup found with every cyclic subgroup and conjugates nothing."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_every_builtin(self, name):
        g = builtin_group(name)
        assert all_subgroups(g) == reference_lattice(g, frozenset(range(g.order)))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["s4xc2", "a5"])
    def test_relabelled_points(self, name, seed):
        g = relabelled(name, seed)
        assert all_subgroups(g) == reference_lattice(g, frozenset(range(g.order)))

    @pytest.mark.parametrize("name", ["s4", "a4", "d4"])
    def test_every_proper_ambient(self, name):
        # a fresh copy has no whole lattice to filter, so the lattice of k
        # is built by extension inside k
        g = builtin_group(name)
        whole = frozenset(range(g.order))
        for k in all_subgroups(g):
            if k != whole:
                assert all_subgroups_within(fresh_copy(g), k) == reference_lattice(g, k)


class TestDiscoveryOrder:
    """``all_subgroups`` records the same generating sets, in the same order,
    as the reference that makes every join of a class representative with a
    zuppo: the joins it skips would only have found known subgroups."""

    def assert_reference_order(self, g):
        all_subgroups(g)
        assert list(g._generating_sets.items()) == list(reference_generating_sets(g).items())

    @pytest.mark.parametrize("name", [*builtin_names(), "s6"])
    def test_every_builtin_and_s6(self, name):
        self.assert_reference_order(s6() if name == "s6" else builtin_group(name))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["s4xc2", "a5"])
    def test_relabelled_points(self, name, seed):
        self.assert_reference_order(relabelled(name, seed))

    @pytest.mark.parametrize("name,joins", [("s4xc2", 358), ("s5", 252), ("s6", 2537)])
    def test_join_count(self, name, joins, monkeypatch):
        g = s6() if name == "s6" else builtin_group(name)
        calls = []
        join = ceplab._join

        def counted(*args):
            calls.append(1)
            return join(*args)

        monkeypatch.setattr(ceplab, "_join", counted)
        all_subgroups(g)
        assert len(calls) == joins


class TestNormalClosure:
    def test_identity_seed(self):
        g = builtin_group("s3")
        assert normal_closure_finite(g, {0}).elements == frozenset({0})

    def test_three_cycle_in_s3(self):
        g = builtin_group("s3")
        three_cycle = g.names.index("(1 2 3)")
        closure = normal_closure_finite(g, {three_cycle})
        assert len(closure.elements) == 3

    def test_four_cycle_generates_s4(self):
        g = builtin_group("s4")
        four_cycle = g.names.index("(1 2 3 4)")
        closure = normal_closure_finite(g, {four_cycle})
        assert closure.elements == frozenset(range(24))

    def test_closure_is_normal(self):
        g = builtin_group("a4")
        closure = normal_closure_finite(g, {1})
        for a in closure.elements:
            for x in range(g.order):
                assert g.conj(a, x) in closure.elements

    @pytest.mark.parametrize("known", [False, True], ids=["by-conjugation", "from-the-list"])
    def test_seed_outside_ambient_raises(self, known):
        # a 3-cycle is not in the dihedral subgroup; the closure used to be
        # all 24 elements of the group, a set outside the ambient
        g, h = d4_in_s4()
        if known:
            normal_subgroups_within(g, h.elements)
        three_cycle = g.names.index("(1 2 3)")
        with pytest.raises(GroupTableError, match=r"^seed elements \(1 2 3\) lie outside") as err:
            normal_closure_in(g, h.elements, {0, three_cycle})
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_known_normal_list_gives_every_closure(self, name, monkeypatch):
        # once K's normal subgroups are listed, the closure of every subgroup
        # seed and of every one- and two-element seed that is not a subgroup
        # is read off the list, with no conjugation search, and is exact
        g = builtin_group(name)
        subs = all_subgroups(g)
        lattice = set(subs)
        for k in subs:
            normal_subgroups_within(g, k)
        forbid_conjugation_search(monkeypatch)
        generated = {}  # brute_force_normal_closure, once per set of conjugates
        for k in subs:
            seeds = set(all_subgroups_within(g, k))
            seeds |= {frozenset(c) for size in (1, 2) for c in itertools.combinations(k, size)
                      if frozenset(c) not in lattice}
            for seed in seeds:
                conjugates = frozenset(g.conj(s, x) for s in seed for x in k)
                if conjugates not in generated:
                    generated[conjugates] = brute_force_generated(g, conjugates)
                assert normal_closure_in(g, k, seed) == generated[conjugates]


class TestCep:
    def test_whole_group_and_trivial_subgroup(self):
        for name in ("s3", "a4", "q8", "c2xc2"):
            g = builtin_group(name)
            assert is_cep_finite(g, Subgroup(g, frozenset(range(g.order))))[0]
            assert is_cep_finite(g, Subgroup(g, frozenset({0})))[0]

    def test_chain_must_be_nested(self):
        g, h = a3_in_s3()
        with pytest.raises(GroupTableError, match=r"^chain is not nested$"):
            is_cep_pair(g, h.elements, frozenset(range(g.order)))

    def test_s3_a3_is_cep(self):
        g, h = a3_in_s3()
        ok, violation = is_cep_finite(g, h)
        assert ok and violation is None

    def test_s4_d4_fails_with_verified_witness(self):
        g, h = d4_in_s4()
        ok, violation = is_cep_finite(g, h)
        assert not ok and violation is not None
        # recompute both sides from scratch: the ambient closure is the
        # subgroup generated by every conjugate, with no memo of the group
        conjugates = {g.conj(a, x) for a in violation.seed_normal for x in range(g.order)}
        closure = reference_closure(g, conjugates)
        assert closure & h.elements == violation.intersection
        assert violation.intersection != violation.seed_normal
        assert violation.seed_normal < violation.intersection

    def test_query_builds_no_whole_lattice(self):
        # without a scan the closures in G are found by conjugation: nothing
        # computes the lattice of G only to answer them
        g, h = d4_in_s4()
        whole = frozenset(range(g.order))
        assert not is_cep_finite(g, h)[0]
        assert whole not in g._subgroups and whole not in g._normal_subgroups

    def test_s4_d4_cyclic_of_four_cycle_violates(self):
        # the subgroup generated by a 4-cycle has ambient closure all of the
        # group, so it meets the dihedral subgroup in more than itself
        g, h = d4_in_s4()
        c4 = subgroup_generated(g, {g.names.index("(1 2 3 4)")})
        assert c4.elements <= h.elements
        closure = normal_closure_finite(g, c4.elements)
        assert closure.elements == frozenset(range(24))
        assert closure.elements & h.elements == h.elements != c4.elements


class TestAlmostCep:
    def test_cep_pair_has_empty_witness(self):
        g, h = a3_in_s3()
        assert is_almost_cep_finite(g, h, 2) == frozenset()

    def test_max_s_zero_on_non_cep_pair(self):
        g, h = d4_in_s4()
        assert is_almost_cep_finite(g, h, 0) is None

    def test_s4_d4_minimal_witness_matches_brute_force(self):
        g, h = d4_in_s4()
        whole = frozenset(range(g.order))

        # independent definitional oracle: S works iff every normal subgroup
        # of H avoiding S satisfies the closure equation
        def oracle_works(s):
            for n in normal_subgroups_within(g, h.elements):
                if s & n:
                    continue
                if normal_closure_in(g, whole, n) & h.elements != n:
                    return False
            return True

        singletons = [
            frozenset({x}) for x in sorted(h.elements - {0}) if oracle_works({x})
        ]
        found = is_almost_cep_finite(g, h, 1)
        assert found in singletons
        # unique size-1 witness: the central involution, which lies in every
        # violating normal subgroup of the dihedral group
        assert len(singletons) == 1
        assert g.name_set(found) == ["(1 3)(2 4)"]


def old_almost_cep(g, h, max_s):
    """Reference for ``is_almost_cep_finite``: the failing normal subgroups
    of H by a comprehension of its own, not through ``_cep_failures``."""
    ambient = frozenset(range(g.order))
    failing = [
        n for n in normal_subgroups_within(g, h.elements)
        if normal_closure_in(g, ambient, n) & h.elements != n
    ]
    pool = sorted(h.elements - {0})
    for size in range(max_s + 1):
        for combo in itertools.combinations(pool, size):
            s = frozenset(combo)
            if all(s & n for n in failing):
                return s
    return None


class TestCepFailures:
    """``is_cep_finite``, ``is_cep_pair`` and ``is_almost_cep_finite`` read
    one generator of failing normal subgroups."""

    @pytest.mark.parametrize("name", ["a4", "s4"])
    def test_almost_cep_matches_the_old_comprehension(self, name):
        g = builtin_group(name)
        for sub in all_subgroups(g):
            h = Subgroup(g, sub)
            for max_s in range(3):
                assert is_almost_cep_finite(g, h, max_s) == old_almost_cep(g, h, max_s)

    @pytest.mark.parametrize("name", ["a4", "s4"])
    def test_first_violation_is_the_first_failing_normal_subgroup(self, name):
        g = builtin_group(name)
        whole = frozenset(range(g.order))
        for sub in all_subgroups(g):
            failing = [n for n in normal_subgroups_within(g, sub)
                       if normal_closure_in(g, whole, n) & sub != n]
            ok, violation = is_cep_finite(g, Subgroup(g, sub))
            assert ok == (not failing) == is_cep_pair(g, whole, sub)
            if failing:
                assert violation.seed_normal == failing[0]
                assert violation.intersection == normal_closure_in(g, whole, failing[0]) & sub
            else:
                assert violation is None


class TestTransitivityScan:
    @pytest.mark.parametrize("name", builtin_names())
    def test_each_pair_asked_once(self, name, monkeypatch):
        asked = []

        def counted(g, ambient, sub):
            asked.append((ambient, sub))
            return is_cep_pair(g, ambient, sub)

        monkeypatch.setattr(ceplab, "is_cep_pair", counted)
        report = cep_transitivity_scan(builtin_group(name))
        assert len(asked) == len(set(asked)) == report.chains_checked

    @pytest.mark.parametrize("name", builtin_names())
    def test_reads_every_closure_off_a_list(self, name, monkeypatch):
        # once the lattice is built, the scan lists normal subgroups before
        # it asks for closures in them, so it joins nothing
        g = builtin_group(name)
        all_subgroups(g)
        forbid_conjugation_search(monkeypatch)
        assert cep_transitivity_scan(g).ok

    @pytest.mark.parametrize("name", ["s3", "a4", "s4", "q8", "a5", "s4xc2"])
    def test_zero_violations(self, name):
        report = cep_transitivity_scan(builtin_group(name))
        assert report.ok
        assert report.chains_checked > 0


class TestFreeCounterexample:
    def test_certificate_checks(self):
        cert = free_counterexample_demo()
        ok, problems = check_certificate_detailed(None, cert)
        assert ok, problems

    def test_hom_value_of_a_is_nontrivial(self):
        cert = free_counterexample_demo()
        by_label = {t.label: t for t in cert.traces}
        assert not by_label["closure-side:hom-value-of-a"].expected.is_identity
        assert by_label["closure-side:hom-kills-relator"].expected.is_identity
        assert by_label["ambient-side:a-dies"].expected.is_identity
        assert by_label["ambient-side:conjugate-dies"].expected.is_identity

    def test_missing_basis_expression_raises(self, monkeypatch):
        # a check that python -O would strip is no check
        monkeypatch.setattr(ceplab.stallings, "express", lambda graph, word: None)
        with pytest.raises(GroupTableError):
            free_counterexample_demo()

    def test_round_trip_and_tamper(self):
        cert = free_counterexample_demo()
        data = json.loads(json.dumps(certificate_to_json(cert)))
        assert check_certificate(None, certificate_from_json(data))
        data["word_facts"][0]["target"]["word"] = "x2"
        assert not check_certificate(None, certificate_from_json(data))

import dataclasses
import gc
import hashlib
import json
import random
import re
import time
from collections import Counter

import pytest

from conftest import (
    check_certificate,
    compact_json,
    enumerate_colored_dags,
    load_bench_inputs,
    reference_certificate_to_json,
    reference_report_to_json,
)
from dagquot import dag as dag_module, quotients, realizer, verifier
from dagquot.ceplab import free_counterexample_demo
from dagquot.dag import (
    colored_dag,
    leq,
    random_colored_dag,
    transitive_closure,
)
from dagquot.quotients import (
    CommutatorScheme,
    FreeOfRank,
    FreeProduct,
    InfiniteCyclic,
    LeafImage,
    MarkedQuotient,
    eval_word,
    NormalForm,
    RelatorSet,
    abelianization,
    leaves,
    predicted_invariants,
)
from dagquot.realizer import Realization, realization_from_json, realization_to_json, realize
from dagquot.verifier import (
    Certificate,
    ColorFacts,
    EvalTrace,
    NotComparableError,
    Report,
    SchemeCoverage,
    StructureMismatchError,
    TraceFailedError,
    WitnessEvidence,
    WitnessNotFoundError,
    certificate_from_json,
    certificate_to_json,
    certify_color,
    certify_distinctness,
    certify_inclusion,
    certify_separation,
    check_certificate_detailed,
    report_to_json,
    report_to_text,
    verify_all,
)
from dagquot.words import Word, generator, parse_word


def w(text, rank):
    return parse_word(text, rank)


def chain():
    return realize(colored_dag(["u", "w"], [("u", "w")], {"u": 0, "w": 0}))


def antichain():
    return realize(colored_dag(["u", "w"], [], {"u": 0, "w": 0}))


def replace_quotient(r, vertex, **changes):
    assignment = dict(r.assignment)
    assignment[vertex] = dataclasses.replace(assignment[vertex], **changes)
    return Realization(r.dag, r.ambient_rank, assignment, dict(r.step_index))


# (mutation of chain(), subject of its canonical entry, parts it names)
CANONICAL_MUTATIONS = [
    (lambda r: replace_quotient(r, "w", marking={**r.assignment["w"].marking,
                                                 1: LeafImage(0, 1)}),
     ("w",), "marking"),
    (lambda r: replace_quotient(r, "w", relators=RelatorSet(
        4, r.assignment["w"].relators.finite_part[1:])), ("w",), "relators"),
    (lambda r: replace_quotient(r, "u", expr=FreeProduct(
        tuple(reversed(r.assignment["u"].expr.parts)))), ("u",), "expr"),
    (lambda r: Realization(r.dag, r.ambient_rank, dict(r.assignment),
                           {"u": 2, "w": 1}), ("u",), "step_index"),
    (lambda r: Realization(r.dag, r.ambient_rank, dict(r.assignment),
                           {**r.step_index, "ghost": 3}), (), "step_index keys"),
]


def escaped_realizations():
    """Vertex ids that JSON escapes, their realization, and a copy whose
    first vertex holds every generator as a relator: its inclusion in the
    second vertex fails with a detail that names both ids."""
    ids = ['quote"', "back\\slash", "caf\u00e9", "new\nline", "ctl\x01"]
    d = colored_dag(ids, [(ids[0], ids[1]), (ids[2], ids[3]), (ids[1], ids[4])],
                    {v: i % 2 for i, v in enumerate(ids)})
    r = realize(d)
    rank = r.ambient_rank
    broken = replace_quotient(r, ids[0], relators=RelatorSet(
        rank, tuple(generator(rank, i) for i in range(1, rank + 1))))
    return ids, r, broken


class TestInclusion:
    def test_chain_relator_dies_upstairs(self):
        r = chain()
        cert = certify_inclusion(r, "u", "w")
        assert cert.kind == "inclusion"
        assert check_certificate(r, cert)

    def test_reflexive(self):
        r = chain()
        for v in ("u", "w"):
            cert = certify_inclusion(r, v, v)
            assert check_certificate(r, cert)

    def test_diamond_top_covers_three_sources(self):
        r = realize(
            colored_dag(
                ["a", "b", "c", "d"],
                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                {v: 0 for v in "abcd"},
            )
        )
        for src in ("a", "b", "c"):
            assert check_certificate(r, certify_inclusion(r, src, "d"))

    def test_not_comparable(self):
        with pytest.raises(NotComparableError):
            certify_inclusion(antichain(), "u", "w")

    def test_scheme_coverage_exact_when_images_die(self):
        r = realize(colored_dag(["u", "w"], [("u", "w")], {"u": 1, "w": 0}))
        cert = certify_inclusion(r, "u", "w")
        assert cert.scheme_coverage[0].coverage == "exact"
        assert cert.scheme_coverage[0].reason == "a-image-trivial"
        assert check_certificate(r, cert)

    def test_scheme_coverage_exact_reflexive_lamplighter(self):
        r = realize(colored_dag(["v"], [], {"v": 1}))
        cert = certify_inclusion(r, "v", "v")
        assert cert.scheme_coverage[0].coverage == "exact"
        assert cert.scheme_coverage[0].reason == "abelian-base-zero-shift"
        assert check_certificate(r, cert)

    def test_large_bound_builds_no_members(self):
        # u (color 1) beside w: the scheme of u is exact in its own quotient,
        # so neither certify_inclusion nor the check evaluates a member
        r = realize(colored_dag(["u", "w"], [], {"u": 1, "w": 0}))
        (scheme,) = r.assignment["u"].relators.schemes
        built = dict(scheme._members)
        cert = certify_inclusion(r, "u", "u", bound=1000)
        assert cert.scheme_coverage[0].coverage == "exact"
        assert check_certificate_detailed(r, cert) == (True, [])
        assert scheme._members == built

    def test_trace_failure_surfaces(self):
        r = chain()
        # inject a relator that genuinely survives in the target quotient
        rel = r.assignment["u"].relators
        broken = replace_quotient(
            r, "u",
            relators=RelatorSet(4, rel.finite_part + (generator(4, 4),), rel.schemes),
        )
        with pytest.raises(TraceFailedError):
            certify_inclusion(broken, "u", "w")


class TestSeparation:
    def test_antichain_witnesses_match_construction_pattern(self):
        r = antichain()
        cert_uw = certify_separation(r, "u", "w")
        assert cert_uw.witness.word == w("x4", 4)
        assert cert_uw.witness.provenance == "finite[2]"
        cert_wu = certify_separation(r, "w", "u")
        assert cert_wu.witness.word == w("x2", 4)
        assert not cert_wu.witness.image.is_identity
        assert check_certificate(r, cert_uw) and check_certificate(r, cert_wu)

    def test_chain_reverse_pair(self):
        r = chain()
        cert = certify_separation(r, "w", "u")
        assert cert.witness.word == w("x2", 4)
        assert check_certificate(r, cert)

    def test_comparable_pair_rejected(self):
        with pytest.raises(NotComparableError):
            certify_separation(chain(), "u", "w")

    def test_witness_not_found_is_inconclusive(self):
        r = antichain()
        emptied = replace_quotient(r, "u", relators=RelatorSet(4, ()))
        with pytest.raises(WitnessNotFoundError):
            certify_separation(emptied, "u", "w")
        report = verify_all(emptied)
        assert not report.verdict
        assert any(e.status == "inconclusive" for e in report.entries)


class TestDistinctness:
    def test_chain_uses_upper_witness(self):
        r = chain()
        cert = certify_distinctness(r, "u", "w")
        assert cert.subject == ("w", "u")
        assert cert.witness.word == w("x2", 4)
        assert any("distinctness" in n for n in cert.notes)
        assert check_certificate(r, cert)

    def test_antichain_either_direction(self):
        r = antichain()
        cert = certify_distinctness(r, "u", "w")
        assert check_certificate(r, cert)

    def test_exhaustive_order_two(self):
        for d in enumerate_colored_dags(2):
            r = realize(d)
            cert = certify_distinctness(r, "1", "2")
            assert check_certificate(r, cert)

    def test_same_vertex_rejected(self):
        with pytest.raises(NotComparableError):
            certify_distinctness(chain(), "u", "u")


def fresh_distinctness(r, u, v, bound=5):
    """Reference: a fresh separation search in the direction that is not
    below, (u, v) then (v, u) for incomparable vertices; returns what the
    distinctness entry of (u, v) must hold."""
    if leq(r.dag, u, v):
        directions = [(v, u)]
    elif leq(r.dag, v, u):
        directions = [(u, v)]
    else:
        directions = [(u, v), (v, u)]
    for s, t in directions:
        try:
            cert = certify_separation(r, s, t, bound)
        except WitnessNotFoundError:
            continue
        status = "pass" if check_certificate(r, cert) else "fail"
        witness = cert.witness
        return status, cert.subject, witness.word, witness.provenance, witness.image
    return "inconclusive", None, None, None, None


def distinctness_entries(r, bound=5):
    """Every distinctness entry of verify_all as the tuple fresh_distinctness
    gives, with its note checked on the way."""
    out = {}
    for e in verify_all(r, bound).entries:
        if e.check != "distinctness":
            continue
        u, v = e.subject
        c = e.certificate
        if c is None:
            out[u, v] = (e.status, None, None, None, None)
            continue
        assert c.notes == (f"distinctness of ({u}, {v})",)
        out[u, v] = (e.status, c.subject, c.witness.word, c.witness.provenance, c.witness.image)
    return out


def all_identity(r, vertex):
    q = r.assignment[vertex]
    marking = {i: None for i in range(1, q.rank + 1)}
    return replace_quotient(r, vertex, marking=marking)


class TestDistinctnessFromSeparation:
    """verify_all reads distinctness off the separation certificates it has
    already made, and certify_distinctness alone certifies each direction;
    both must equal a fresh two-direction search."""

    def assert_matches_fresh_search(self, r, bound=5):
        got = distinctness_entries(r, bound)
        ids = sorted(r.assignment)
        pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
        assert sorted(got) == pairs
        for u, v in pairs:
            expected = fresh_distinctness(r, u, v, bound)
            assert got[u, v] == expected, (u, v)
            # certify_distinctness without verify_all's separations
            if expected[0] == "inconclusive":
                with pytest.raises(WitnessNotFoundError):
                    certify_distinctness(r, u, v, bound)
                continue
            c = certify_distinctness(r, u, v, bound)
            status = "pass" if check_certificate(r, c) else "fail"
            witness = c.witness
            assert (status, c.subject, witness.word, witness.provenance,
                    witness.image) == expected, (u, v)

    def test_every_order_three_dag(self):
        for d in enumerate_colored_dags(3):
            self.assert_matches_fresh_search(realize(d))

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    def test_random_dags(self, edge_prob):
        for order in (4, 7, 10, 13, 16):
            for seed in range(3):
                d = random_colored_dag(order, random.Random(1000 * order + seed), edge_prob)
                self.assert_matches_fresh_search(realize(d), bound=3)

    # identity: vertices whose marking sends every generator to the identity,
    # so no witness survives in their quotient
    @pytest.mark.parametrize("make,identity,status,subject", [
        (antichain, ["w"], "pass", ("w", "u")),
        (antichain, ["u", "w"], "inconclusive", None),
        (chain, ["u"], "inconclusive", None),
    ], ids=["antichain-fallback", "antichain-both-inconclusive", "chain-upper-inconclusive"])
    def test_inconclusive_directions(self, make, identity, status, subject):
        r = make()
        for vertex in identity:
            r = all_identity(r, vertex)
        expected = fresh_distinctness(r, "u", "w")
        assert expected[:2] == (status, subject)
        self.assert_matches_fresh_search(r)
        report = verify_all(r)
        (entry,) = [e for e in report.entries if e.check == "distinctness"]
        assert not report.verdict
        if status == "inconclusive":
            assert entry.certificate is None
            assert entry.detail == str(WitnessNotFoundError(5))
            with pytest.raises(WitnessNotFoundError):
                certify_distinctness(r, "u", "w")
        else:
            cert = certify_distinctness(r, "u", "w")
            assert cert == entry.certificate
            assert cert.witness.word == w("x2", 4)

    def test_distinctness_follows_the_check_of_its_separation(self, monkeypatch):
        # the separation search for (u, w) returns a wrong image: its entry
        # fails, and so does the distinctness entry of (u, w) that cites it
        r = antichain()
        real = verifier.first_survivor

        def wrong_image_into_w(relators, q, bound):
            found = real(relators, q, bound)
            if found is not None and q is r.assignment["w"]:
                provenance, word, _ = found
                return provenance, word, NormalForm()
            return found

        monkeypatch.setattr(verifier, "first_survivor", wrong_image_into_w)
        report = verify_all(r)
        entries = {(e.check, e.subject): e for e in report.entries}
        separation = entries["separation", ("u", "w")]
        distinctness = entries["distinctness", ("u", "w")]
        detail = "stored witness normal form does not re-derive"
        assert (separation.status, separation.detail) == ("fail", detail)
        assert (distinctness.status, distinctness.detail) == ("fail", detail)
        assert distinctness.certificate.subject == ("u", "w")
        assert entries["separation", ("w", "u")].status == "pass"
        assert not report.verdict

    def test_a_wrong_certified_image_fails_every_separation_into_its_target(
            self, monkeypatch):
        # t has three sources, and the separation search into t returns a
        # wrong image: the check evaluates each witness itself, so every
        # separation into t fails, and so does every distinctness entry
        # citing one, while the separations into other targets pass
        r = realize(colored_dag(["a", "b", "c", "t"], [("a", "b")],
                                {"a": 0, "b": 1, "c": 0, "t": 0}))
        real = verifier.first_survivor

        def wrong_image_into_t(relators, q, bound):
            found = real(relators, q, bound)
            if found is not None and q is r.assignment["t"]:
                provenance, word, _ = found
                return provenance, word, NormalForm()
            return found

        monkeypatch.setattr(verifier, "first_survivor", wrong_image_into_t)
        report = verify_all(r)
        detail = "stored witness normal form does not re-derive"
        into_t = Counter()
        for e in report.entries:
            if e.check not in ("separation", "distinctness"):
                continue
            if e.certificate.subject[1] == "t":
                into_t[e.check] += 1
                assert (e.status, e.detail) == ("fail", detail), (e.check, e.subject)
            else:
                assert e.status == "pass", (e.check, e.subject)
        assert into_t == {"separation": 3, "distinctness": 3}
        assert report.count("separation", "pass") == 8
        assert not report.verdict


def test_verify_all_keeps_no_certificates():
    r = realize(random_colored_dag(12, random.Random(12), 0.3))

    def live_certificates():
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, Certificate))

    before = live_certificates()
    report = verify_all(r)
    assert live_certificates() <= before
    assert report.verdict and report.count("separation") > 0


def test_witness_evaluated_once_per_target_per_role(monkeypatch):
    # verify_sparse pool DAG 0, loaded as test_pool_dag_report_pinned loads
    # it: certify_separation and the check of a separation certificate each
    # evaluate a witness at most once per target and witness word
    inputs = load_bench_inputs()
    dag = inputs.pool_dag("verify_sparse", 0, 0.05)
    r = realization_from_json(json.loads(inputs.realization_text(dag_module, realizer, dag)))
    role = [None]
    evals = Counter()
    real_eval = quotients.eval_word

    def counted_eval(q, word):
        evals[role[0]] += 1
        return real_eval(q, word)

    def in_role(name, fn):
        def wrapped(*args, **kwargs):
            outer, role[0] = role[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                role[0] = outer
        return wrapped

    check = verifier.check_evidence
    check_separation = in_role("check", check)

    def role_of_check(r, c, *args, **kwargs):
        return (check_separation if c.kind == "separation" else check)(r, c, *args, **kwargs)

    monkeypatch.setattr(quotients, "eval_word", counted_eval)
    monkeypatch.setattr(verifier, "eval_word", counted_eval)
    monkeypatch.setattr(verifier, "certify_separation",
                        in_role("certify", verifier.certify_separation))
    monkeypatch.setattr(verifier, "check_evidence", role_of_check)
    report = verify_all(r, 5)
    monkeypatch.undo()
    separations = [e for e in report.entries if e.check == "separation"]
    distinct = {(e.subject[1], e.certificate.witness.word) for e in separations}
    assert report.verdict and len(separations) > 10 * len(distinct)
    assert 0 < evals["certify"] <= len(distinct)
    assert 0 < evals["check"] <= len(distinct)


class TestColor:
    def test_color0(self):
        r = realize(colored_dag(["v"], [], {"v": 0}))
        cert = certify_color(r, "v")
        assert cert.color_facts.scheme_free and cert.color_facts.lamplighter_free
        assert check_certificate(r, cert)

    def test_color1(self):
        r = realize(colored_dag(["v"], [], {"v": 1}))
        cert = certify_color(r, "v")
        assert not cert.color_facts.scheme_free
        assert check_certificate(r, cert)

    def test_scheme_injected_into_color0_vertex(self):
        r = realize(colored_dag(["v"], [], {"v": 0}))
        scheme = CommutatorScheme(generator(2, 1), generator(2, 2))
        mutated = replace_quotient(
            r, "v",
            relators=RelatorSet(2, r.assignment["v"].relators.finite_part, (scheme,)),
        )
        with pytest.raises(StructureMismatchError):
            certify_color(mutated, "v")


class TestCheckCertificate:
    def test_round_trip_through_json(self):
        r = chain()
        for cert in (
            certify_inclusion(r, "u", "w"),
            certify_separation(r, "w", "u"),
            certify_distinctness(r, "u", "w"),
            certify_color(r, "u"),
            free_counterexample_demo(),
        ):
            data = json.loads(json.dumps(certificate_to_json(cert)))
            assert certificate_from_json(data) == cert
            assert check_certificate(r, certificate_from_json(data))

    def test_evidence_records_compare_and_hash_by_value(self):
        # slotted, not frozen: equal fields still give equal records with
        # equal hashes, which the memos of verify_all key on
        r = antichain()
        first, again = (certify_separation(r, "u", "w").witness for _ in range(2))
        assert first is not again
        lamplighter = realize(colored_dag(["v"], [], {"v": 1}))
        (covered,), (covered_again,) = (certify_inclusion(lamplighter, "v", "v").scheme_coverage
                                        for _ in range(2))
        rebuilt = WitnessEvidence(first.word, first.provenance,
                                  NormalForm(first.image.syllables))
        for a, b in ((first, again), (first.image, again.image), (rebuilt, first),
                     (covered, covered_again),
                     (covered, SchemeCoverage(0, covered.coverage, covered.reason))):
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
        assert first != dataclasses.replace(first, provenance="finite[9]")
        assert NormalForm() != first.image

    def test_tampered_witness_word(self):
        r = antichain()
        cert = certify_separation(r, "u", "w")
        data = certificate_to_json(cert)
        data["witness"]["word"]["word"] = "x3"
        ok, problems = check_certificate_detailed(r, certificate_from_json(data))
        assert not ok and problems

    def test_tampered_normal_form(self):
        r = antichain()
        cert = certify_separation(r, "u", "w")
        data = certificate_to_json(cert)
        data["witness"]["image"] = [{"leaf": 0, "z": 5}]
        assert not check_certificate(r, certificate_from_json(data))

    def test_tampered_inclusion_coverage_dropped(self):
        r = scheme_below()
        data = certificate_to_json(certify_inclusion(r, "u", "w"))
        data["scheme_coverage"] = []
        assert not check_certificate(r, certificate_from_json(data))

    def test_forged_witness_provenance(self):
        r = antichain()
        forged = Certificate(
            kind="separation",
            subject=("u", "w"),
            bound=5,
            witness=WitnessEvidence(w("x4", 4), "finite[9]", NormalForm(((0, 1),))),
        )
        assert not check_certificate(r, forged)

    def test_non_canonical_provenance_rejected(self):
        # u (color 1) beside w (color 0): x1, the relator finite[0] of w, is the lamp of u
        r = realize(colored_dag(["u", "w"], [], {"u": 1, "w": 0}))
        cert = certify_separation(r, "w", "u")
        assert cert.witness.provenance == "finite[0]"
        forged = dataclasses.replace(
            cert, witness=dataclasses.replace(cert.witness, provenance="finite[00]"))
        ok, problems = check_certificate_detailed(r, forged)
        assert problems == ["witness provenance 'finite[00]' does not match the relators of w"]

    def test_large_bound_check_reads_the_label(self):
        # u (color 1) beside w: the witness is finite[1], so the check looks
        # up that one relator and builds no member of u's scheme
        r = realize(colored_dag(["u", "w", "z"], [], {"u": 1, "w": 0, "z": 0}))
        cert = certify_separation(r, "u", "w", bound=1000)
        assert cert.witness.provenance == "finite[1]"
        (scheme,) = r.assignment["u"].relators.schemes
        built = dict(scheme._members)
        start = time.perf_counter()
        result = check_certificate_detailed(r, cert)
        elapsed = time.perf_counter() - start
        assert result == (True, [])
        assert elapsed < 0.01, f"separation check at bound 1000 took {elapsed:.3f}s"
        assert len(scheme._members) == len(built)

    # u's relators: finite x3 x4 x5 x6, scheme [x1, x2^-j x1 x2^j]; each label
    # is paired with the word a lenient reading of it would name
    @pytest.mark.parametrize("label,relator", [
        ("finite[01]", ("finite", 1)),
        ("finite[-1]", ("finite", -1)),
        ("finite[ 1]", ("finite", 1)),
        ("finite[+1]", ("finite", 1)),
        ("finite[1]x", ("finite", 1)),
        ("finite[1]\n", ("finite", 1)),
        ("finite[4]", ("finite", 3)),
        ("scheme[0].member[0]", ("member", 1)),
        ("scheme[0].member[6]", ("member", 6)),
        ("scheme[00].member[1]", ("member", 1)),
        ("scheme[1].member[1]", ("member", 1)),
        ("member[1]", ("member", 1)),
    ])
    def test_non_canonical_label_rejected(self, label, relator):
        r = realize(colored_dag(["u", "w", "z"], [], {"u": 1, "w": 0, "z": 0}))
        rel = r.assignment["u"].relators
        where, index = relator
        word = rel.finite_part[index] if where == "finite" else rel.schemes[0].member(index)
        forged = Certificate(
            kind="separation",
            subject=("u", "w"),
            bound=5,
            witness=WitnessEvidence(word, label, eval_word(r.assignment["w"], word)),
        )
        ok, problems = check_certificate_detailed(r, forged)
        assert not ok
        assert f"witness provenance {label!r} does not match the relators of u" in problems

    @pytest.mark.parametrize("label", ["finite[0]", "finite[2]", "scheme[0].member[1]"])
    def test_provenance_naming_another_relator_rejected(self, label):
        # u's relators: finite x3 x4 x5 x6 and a scheme; its witness in w is
        # finite[1], x4, and each label names another relator of u
        r = realize(colored_dag(["u", "w", "z"], [], {"u": 1, "w": 0, "z": 0}))
        cert = certify_separation(r, "u", "w")
        assert cert.witness.provenance == "finite[1]"
        forged = dataclasses.replace(
            cert, witness=dataclasses.replace(cert.witness, provenance=label))
        ok, problems = check_certificate_detailed(r, forged)
        assert not ok
        assert f"witness provenance {label!r} does not match the relators of u" in problems
        # an equal witness word that is another object still matches
        copy = dataclasses.replace(cert.witness.word)
        assert copy is not cert.witness.word
        assert check_certificate_detailed(r, dataclasses.replace(
            cert, witness=dataclasses.replace(cert.witness, word=copy))) == (True, [])

    def test_scheme_member_above_bound_rejected(self):
        r = scheme_below()
        member = r.assignment["u"].relators.schemes[0].member(4)
        forged = Certificate(
            kind="separation",
            subject=("u", "z"),
            bound=3,
            witness=WitnessEvidence(member, "scheme[0].member[4]",
                                    eval_word(r.assignment["z"], member)),
        )
        ok, problems = check_certificate_detailed(r, forged)
        assert ("witness provenance 'scheme[0].member[4]' does not match the relators of u"
                in problems)

    # (certificate, path to the object holding the field, field, value)
    @pytest.mark.parametrize("make,path,field,value", [
        (lambda: certify_separation(antichain(), "u", "w"), (), "bound", "5"),
        (lambda: certify_separation(antichain(), "u", "w"), (), "bound", 5.9),
        (lambda: certify_separation(antichain(), "u", "w"), (), "bound", True),
        (lambda: certify_inclusion(scheme_below(), "u", "w"), ("scheme_coverage", 0),
         "scheme", "0"),
        (lambda: certify_color(chain(), "u"), ("color_facts",), "color", "0"),
        (lambda: certify_color(chain(), "u"), ("color_facts",), "scheme_free", 1),
        (lambda: certify_color(chain(), "u"), ("color_facts",), "lamplighter_free", 1),
        (lambda: certify_separation(antichain(), "u", "w"), (), "kind", ["separation"]),
        (lambda: certify_separation(antichain(), "u", "w"), (), "subject", "uw"),
        (lambda: certify_separation(antichain(), "u", "w"), (), "subject", ["u", 2]),
        (lambda: certify_inclusion(scheme_below(), "u", "w"), ("scheme_coverage", 0),
         "coverage", ["exact"]),
        (lambda: certify_inclusion(scheme_below(), "u", "w"), ("scheme_coverage", 0),
         "reason", ["a-image-trivial"]),
        (lambda: certify_separation(antichain(), "u", "w"), ("witness",), "provenance",
         ["finite[2]"]),
        (lambda: certify_color(chain(), "u"), ("color_facts",), "justification", 0),
        (lambda: certify_distinctness(chain(), "u", "w"), (), "notes", "distinctness"),
    ], ids=["bound-string", "bound-float", "bound-bool", "scheme-string",
            "color-string", "scheme-free-int", "lamplighter-free-int", "kind-list",
            "subject-string", "subject-int-item", "coverage-list", "reason-list",
            "provenance-list", "justification-int", "notes-string"])
    def test_loader_does_not_coerce(self, make, path, field, value):
        data = certificate_to_json(make())
        holder = data
        for key in path:
            holder = holder[key]
        holder[field] = value
        with pytest.raises(ValueError, match=re.escape(repr(field))):
            certificate_from_json(data)

    def test_separation_without_witness(self):
        cert = Certificate(kind="separation", subject=("u", "w"), bound=5)
        assert check_certificate_detailed(antichain(), cert) == (
            False, ["separation certificate carries no witness"])

    def test_separation_needs_the_realization(self):
        cert = certify_separation(antichain(), "u", "w")
        assert check_certificate_detailed(None, cert) == (
            False, ["a separation is checked against a realization, and none is given"])

    def test_color_needs_the_realization(self):
        # facts that break the biconditional: color 0, scheme-free, lamplighter
        facts = ColorFacts(0, True, False, "")
        assert not facts.biconditional
        cert = Certificate(kind="color", subject=("v",), color_facts=facts)
        assert check_certificate_detailed(None, cert) == (
            False, ["a color is checked against a realization, and none is given"])

    def test_unknown_kind(self):
        r = antichain()
        cert = dataclasses.replace(certify_separation(r, "u", "w"), kind="bogus")
        assert check_certificate_detailed(r, cert) == (
            False, ["unknown certificate kind 'bogus'"])

    def test_color_without_facts(self):
        cert = Certificate(kind="color", subject=("u",))
        assert check_certificate_detailed(chain(), cert) == (
            False, ["color certificate carries no facts"])

    def test_color_facts_must_re_derive(self):
        r = chain()
        cert = certify_color(r, "u")
        facts = cert.color_facts
        for changed in ({"color": 1}, {"scheme_free": False}, {"lamplighter_free": False}):
            forged = dataclasses.replace(cert, color_facts=dataclasses.replace(facts, **changed))
            assert check_certificate_detailed(r, forged) == (
                False, ["color facts do not re-derive from the realization"]), changed
        # the justification is prose, not evidence
        reworded = dataclasses.replace(facts, justification="see the paper")
        assert check_certificate(r, dataclasses.replace(cert, color_facts=reworded))

    def test_color_biconditional_fails(self):
        # the quotient of a color-0 vertex, stored for a color-1 vertex: the
        # facts re-derive, color 1 with a scheme-free, lamplighter-free quotient
        r0 = realize(colored_dag(["v"], [], {"v": 0}))
        r = Realization(colored_dag(["v"], [], {"v": 1}), r0.ambient_rank,
                        dict(r0.assignment), dict(r0.step_index))
        facts = dataclasses.replace(certify_color(r0, "v").color_facts, color=1)
        assert (facts.scheme_free, facts.lamplighter_free) == (True, True)
        cert = Certificate(kind="color", subject=("v",), color_facts=facts)
        assert check_certificate_detailed(r, cert) == (False, ["color biconditional fails"])
        with pytest.raises(StructureMismatchError):
            certify_color(r, "v")

    def test_unknown_vertex_is_false_not_crash(self):
        r = antichain()
        cert = certify_separation(r, "u", "w")
        data = certificate_to_json(cert)
        data["subject"] = ["u", "ghost"]
        ok, problems = check_certificate_detailed(r, certificate_from_json(data))
        assert not ok and problems

    def test_problems_appended_before_a_raise_are_kept(self):
        # each check appends one problem, then raises on the malformed field
        r = scheme_below()
        data = certificate_to_json(certify_inclusion(r, "u", "w"))
        set_coverage(data, scheme=3)
        assert check_certificate_detailed(r, certificate_from_json(data)) == (False, [
            "scheme coverage tags do not match the scheme list",
            "certificate is malformed: tuple index out of range"])
        cert = certify_separation(r, "z", "u")
        forged = dataclasses.replace(cert, witness=dataclasses.replace(
            cert.witness, word=Word(7, cert.witness.word.letters)))
        assert check_certificate_detailed(r, forged) == (False, [
            "witness provenance 'finite[0]' does not match the relators of z",
            "certificate is malformed: word rank 7 != quotient rank 6"])

    def test_malformed_trace_and_word_fact_named(self):
        cert = free_counterexample_demo()
        trace, *traces = cert.traces
        bad_trace = dataclasses.replace(trace, word=Word(3, trace.word.letters))
        assert check_certificate_detailed(None, dataclasses.replace(
            cert, traces=(bad_trace, *traces))) == (False, [
                "trace closure-side:hom-kills-relator: word rank 3 != quotient rank 2"])
        fact, *facts = cert.word_facts
        bad_fact = dataclasses.replace(fact, basis=fact.basis[:1])
        assert check_certificate_detailed(None, dataclasses.replace(
            cert, word_facts=(bad_fact, *facts))) == (False, [
                "word fact a-in-subgroup: word rank 2 != domain rank 1"])


def scheme_below():
    """u (color 1) below w, and z beside both: the relators of u are the
    fresh pair of z and the scheme on its own pair."""
    return realize(colored_dag(["u", "w", "z"], [("u", "w")], {"u": 1, "w": 0, "z": 0}))


def set_coverage(data, **changes):
    data["scheme_coverage"][0].update(changes)


class TestInclusionByReference:
    """An inclusion certificate carries its bound and scheme coverage; the
    checker rebuilds the relators of the source from the realization and
    evaluates each in the target quotient."""

    def test_inclusion_carries_no_traces(self):
        r = scheme_below()
        data = certificate_to_json(certify_inclusion(r, "u", "w"))
        assert data == {
            "kind": "inclusion", "subject": ["u", "w"], "bound": 5, "traces": [],
            "scheme_coverage": [{"scheme": 0, "coverage": "exact", "reason": "a-image-trivial"}],
            "word_facts": [], "notes": [],
        }
        assert check_certificate(r, certificate_from_json(data))

    @pytest.mark.parametrize("tamper", [
        lambda d: d.update(scheme_coverage=[]),
        lambda d: d["scheme_coverage"].append(
            {"scheme": 1, "coverage": "exact", "reason": "a-image-trivial"}),
        lambda d: set_coverage(d, scheme=3),
        lambda d: set_coverage(d, reason="t-image-trivial"),
        lambda d: set_coverage(d, reason="abelian-base-zero-shift"),
        lambda d: d.update(subject=["w", "u"]),
    ], ids=["coverage-dropped", "coverage-extra-scheme", "coverage-index-changed",
            "reason-changed", "reason-of-another-vertex", "subject-reversed"])
    def test_tampered_certificate_rejected(self, tamper):
        r = scheme_below()
        data = json.loads(json.dumps(certificate_to_json(certify_inclusion(r, "u", "w"))))
        tamper(data)
        ok, problems = check_certificate_detailed(r, certificate_from_json(data))
        assert not ok and problems

    @pytest.mark.parametrize("tamper, problem", [
        (lambda d: d.update(scheme_coverage=d["scheme_coverage"] * 2),
         "scheme coverage tags do not match the scheme list"),
        (lambda d: set_coverage(d, coverage="bogus", reason="anything"),
         "scheme[0]: exactness reason 'anything' does not re-derive"),
        (lambda d: set_coverage(d, coverage="probed", reason="made up"),
         "scheme[0]: exactness reason 'made up' does not re-derive"),
    ], ids=["tag-repeated", "coverage-unknown", "probed-tag-made-up"])
    def test_every_coverage_tag_re_derives_in_order(self, tamper, problem):
        # the stored tags must be the re-derived (scheme, coverage, reason)
        # list, whatever each tag's coverage
        r = realize(colored_dag(["u", "w"], [("u", "w")], {"u": 1, "w": 0}))
        data = json.loads(json.dumps(certificate_to_json(certify_inclusion(r, "u", "w"))))
        assert check_certificate_detailed(r, certificate_from_json(data)) == (True, [])
        tamper(data)
        assert check_certificate_detailed(r, certificate_from_json(data)) == (False, [problem])

    def test_surviving_relator_rejected(self):
        # a forged certificate over a realization whose source carries a
        # relator that survives in the target
        r = chain()
        rel = r.assignment["u"].relators
        broken = replace_quotient(
            r, "u",
            relators=RelatorSet(4, rel.finite_part + (generator(4, 4),), rel.schemes),
        )
        ok, problems = check_certificate_detailed(broken, Certificate("inclusion", ("u", "w"), 5))
        assert not ok
        assert problems == ["relator finite[1] of u survives in quotient of w"]

    def test_surviving_members_up_to_the_bound(self):
        # u (color 1) above b: in the quotient of b the pair of u spans a free
        # leaf, where every member of the scheme of u survives
        r = realize(colored_dag(["b", "u"], [("b", "u")], {"b": 0, "u": 1}))
        ok, problems = check_certificate_detailed(r, Certificate("inclusion", ("u", "b"), 3))
        members = [p for p in problems if "member" in p]
        assert members == [f"relator scheme[0].member[{i}] of u survives in quotient of b"
                           for i in (1, 2, 3)]

    def test_needs_the_realization(self):
        cert = certify_inclusion(chain(), "u", "w")
        ok, problems = check_certificate_detailed(None, cert)
        assert not ok and problems

    def test_wordless_trace_rejected(self):
        data = certificate_to_json(certify_separation(antichain(), "u", "w"))
        data["traces"] = [{"label": "finite[0]", "expected": []}]
        with pytest.raises(KeyError, match="quotient"):
            certificate_from_json(data)

    def test_inline_trace_checked_in_any_certificate(self):
        r = scheme_below()
        cert = certify_inclusion(r, "u", "w")
        trace = EvalTrace("x4 in w", NormalForm(), r.assignment["w"], w("x4", 6))
        assert not eval_word(r.assignment["w"], trace.word).is_identity
        forged = dataclasses.replace(cert, traces=(trace,))
        ok, problems = check_certificate_detailed(r, forged)
        assert problems == ["trace x4 in w: recomputed normal form differs for x4"]
        data = json.loads(json.dumps(certificate_to_json(forged)))
        assert certificate_from_json(data) == forged

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    def test_every_certificate_survives_json(self, edge_prob):
        for order in (4, 7, 10, 13, 16):
            for seed in range(3):
                d = random_colored_dag(order, random.Random(1000 * order + seed), edge_prob)
                r = realize(d)
                stored = realization_from_json(json.loads(json.dumps(realization_to_json(r))))
                report = verify_all(r, 3)
                assert report.verdict
                for e in report.entries:
                    if e.certificate is None:
                        continue
                    data = json.loads(json.dumps(certificate_to_json(e.certificate)))
                    cert = certificate_from_json(data)
                    assert cert == e.certificate
                    ok, problems = check_certificate_detailed(stored, cert)
                    assert ok, (order, seed, e.check, e.subject, problems)


def by_length_witness(r, u, v, bound):
    """Reference separation search: the first relator of u in by_length
    order whose image in v is nontrivial, evaluating every candidate."""
    qv = r.assignment[v]
    for provenance, word in r.assignment[u].relators.by_length(bound):
        nf = eval_word(qv, word)
        if not nf.is_identity:
            return word, provenance, nf
    return None


def labelled_survivors(r, u, v, bound):
    """Reference inclusion check: every labelled relator of u, evaluated in v."""
    qv = r.assignment[v]
    return [label for label, word in r.assignment[u].relators.labelled(bound)
            if not eval_word(qv, word).is_identity]


def tampered(r, rng):
    """One vertex loses its finite relators (its witnesses, if any, are scheme
    members), another gains a relator that is not a generator (no generator
    mask), a third sends every generator to the identity."""
    ids = sorted(r.assignment)
    a, b, c = rng.sample(ids, 3)
    rank = r.ambient_rank
    r = replace_quotient(r, a, relators=RelatorSet(rank, (), r.assignment[a].relators.schemes))
    rel = r.assignment[b].relators
    extra = w(f"x{rng.randint(1, rank)} x{rng.randint(1, rank)}^-1 x1", rank)
    r = replace_quotient(r, b, relators=RelatorSet(rank, rel.finite_part + (extra,), rel.schemes))
    return all_identity(r, c)


class TestGeneratorMasks:
    """Inclusion and separation read the finite relators off two bit masks:
    the generators a relator set holds and the generators a marking kills."""

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    def test_masks_match_eval_word(self, edge_prob):
        for seed in range(6):
            r = realize(random_colored_dag(9, random.Random(seed), edge_prob))
            rank = r.ambient_rank
            loaded = realization_from_json(realization_to_json(r))
            for q in [*r.assignment.values(), *loaded.assignment.values()]:
                gens = [generator(rank, i) for i in range(1, rank + 1)]
                dead = {i for i, x in enumerate(gens, 1) if eval_word(q, x).is_identity}
                assert q.dead_mask == sum(1 << i for i in dead)
                rel = q.relators
                held = {i for i, x in enumerate(gens, 1) if x in rel.finite_part}
                assert rel.generator_mask == sum(1 << i for i in held)
                assert rel.generator_position == {
                    i: rel.finite_part.index(gens[i - 1]) for i in held}

    def test_zero_in_a_z_leaf_is_dead(self):
        q = MarkedQuotient(3, RelatorSet(3, ()), FreeProduct((InfiniteCyclic(), FreeOfRank(1))),
                           {1: LeafImage(0, 0), 2: LeafImage(0, 2), 3: LeafImage(1, 1)})
        assert eval_word(q, generator(3, 1)).is_identity
        assert q.dead_mask == 1 << 1

    def test_non_generator_relator_takes_the_eval_path(self):
        r = chain()
        rel_u, rel_w = r.assignment["u"].relators, r.assignment["w"].relators
        assert None not in (rel_u.generator_mask, rel_w.generator_mask)
        assert check_certificate(r, certify_inclusion(r, "u", "w"))
        assert certify_separation(r, "w", "u").witness.provenance == "finite[1]"
        assert not rel_u._labelled and not rel_w._by_length
        # a square of a generator is no generator: both sets lose their mask
        for v, square in (("u", "x1 x1"), ("w", "x2 x2")):
            rel = r.assignment[v].relators
            r = replace_quotient(r, v, relators=RelatorSet(4, rel.finite_part + (w(square, 4),)))
        rel_u, rel_w = r.assignment["u"].relators, r.assignment["w"].relators
        assert rel_u.generator_mask is None and rel_w.generator_mask is None
        assert check_certificate(r, certify_inclusion(r, "u", "w"))
        assert rel_u._labelled
        cert = certify_separation(r, "w", "u")
        assert rel_w._by_length
        assert cert.witness.provenance == "finite[1]" and check_certificate(r, cert)

    @pytest.mark.parametrize("extra,provenance", [
        ("x2", "finite[1]"),
        ("x2^-1", "finite[3]"),
    ], ids=["repeated-generator", "inverse-generator"])
    def test_witness_among_repeated_letters(self, extra, provenance):
        # w's relators x1 x2 x3 plus one more letter on x2, which survives in
        # u: a repeat keeps the first position, an inverse (first in
        # by_length order) leaves the set without a generator mask
        r = chain()
        rel = r.assignment["w"].relators
        r = replace_quotient(r, "w", relators=RelatorSet(4, rel.finite_part + (w(extra, 4),)))
        cert = certify_separation(r, "w", "u")
        assert cert.witness.provenance == provenance
        assert (cert.witness.word, provenance, cert.witness.image) == by_length_witness(
            r, "w", "u", 5)
        assert check_certificate(r, cert)

    def test_probed_scheme_members_are_evaluated(self):
        # b below u (color 1), u stripped of its finite relators: the pair of
        # u spans a free leaf of b, so the scheme of u is probed there and
        # every member up to the bound survives
        r = realize(colored_dag(["b", "u"], [("b", "u")], {"b": 0, "u": 1}))
        schemes = r.assignment["u"].relators.schemes
        r = replace_quotient(r, "u", relators=RelatorSet(4, (), schemes))
        ok, problems = check_certificate_detailed(r, Certificate("inclusion", ("u", "b"), 3))
        assert problems[:3] == [f"relator scheme[0].member[{i}] of u survives in quotient of b"
                                for i in (1, 2, 3)]

    @pytest.mark.parametrize("tamper", [False, True], ids=["canonical", "tampered"])
    def test_every_pair_against_evaluation(self, tamper):
        bound = 3
        for seed in range(8):
            rng = random.Random(seed)
            r = realize(random_colored_dag(6 + seed % 4, rng, (0.05, 0.3, 0.6)[seed % 3]))
            if tamper:
                r = tampered(r, rng)
            for u in r.assignment:
                for v in r.assignment:
                    if u == v:
                        continue
                    if leq(r.dag, u, v):
                        survivors = labelled_survivors(r, u, v, bound)
                        ok, problems = check_certificate_detailed(
                            r, Certificate("inclusion", (u, v), bound))
                        assert [p for p in problems if "survives" in p] == [
                            f"relator {label} of {u} survives in quotient of {v}"
                            for label in survivors]
                        if survivors:
                            with pytest.raises(TraceFailedError, match=re.escape(survivors[0])):
                                certify_inclusion(r, u, v, bound)
                        else:
                            assert check_certificate(r, certify_inclusion(r, u, v, bound))
                        continue
                    expected = by_length_witness(r, u, v, bound)
                    if expected is None:
                        with pytest.raises(WitnessNotFoundError):
                            certify_separation(r, u, v, bound)
                        continue
                    cert = certify_separation(r, u, v, bound)
                    witness = cert.witness
                    assert (witness.word, witness.provenance, witness.image) == expected
                    assert check_certificate(r, cert)


class TestVerifyAll:
    def test_chain_report_shape(self):
        report = verify_all(chain())
        assert report.verdict
        assert report.count("inclusion") == 1
        assert report.count("separation") == 1
        assert report.count("distinctness") == 1
        assert report.count("color") == 2
        assert report.inconclusive == 0

    def test_exhaustive_order_two(self):
        for d in enumerate_colored_dags(2):
            report = verify_all(realize(d))
            assert report.verdict and report.inconclusive == 0

    def test_monotone_under_closure(self):
        d = colored_dag(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 0, "b": 1, "c": 0}
        )
        r = realize(d)
        assert verify_all(r).verdict
        reopened = Realization(d, r.ambient_rank, dict(r.assignment), dict(r.step_index))
        assert verify_all(reopened).verdict
        closed = Realization(
            transitive_closure(d), r.ambient_rank, dict(r.assignment), dict(r.step_index)
        )
        assert verify_all(closed).verdict

    def test_dropped_relator_fails_abelianization(self):
        r = chain()
        qw = r.assignment["w"]
        mutated = replace_quotient(
            r, "w", relators=RelatorSet(4, qw.relators.finite_part[1:])
        )
        report = verify_all(mutated)
        assert not report.verdict
        assert any(
            e.check == "abelianization" and e.status == "fail" for e in report.entries
        )

    def test_abelianization_cross_check_every_vertex(self):
        d = colored_dag(
            ["a", "b", "c"], [("a", "c"), ("b", "c")], {"a": 1, "b": 0, "c": 1}
        )
        r = realize(d)
        for v, q in r.assignment.items():
            assert abelianization(q.rank, q.relators) == predicted_invariants(leaves(q.expr))
        report = verify_all(r)
        assert report.count("abelianization", "pass") == 3

    def test_canonical_realization_adds_no_entry(self):
        for seed in range(5):
            r = realize(random_colored_dag(8, random.Random(seed), 0.3))
            assert verify_all(r, 3).count("canonical") == 0

    @pytest.mark.parametrize("mutate,subject,parts", CANONICAL_MUTATIONS,
                             ids=["marking", "relators", "expr", "step-index", "step-index-keys"])
    def test_each_differing_part_fails(self, mutate, subject, parts):
        report = verify_all(mutate(chain()))
        assert not report.verdict
        canonical = {e.subject: e for e in report.entries if e.check == "canonical"}
        assert canonical[subject].status == "fail"
        assert canonical[subject].detail == f"{parts} differ from realize(dag)"

    def test_ambient_rank_fails(self):
        empty = colored_dag([], [], {})
        report = verify_all(Realization(empty, 2, {}, {}))
        assert [(e.check, e.subject, e.status, e.detail) for e in report.entries] == [
            ("canonical", (), "fail", "ambient_rank differ from realize(dag)")]

    def test_witness_text_once_per_distinct_witness(self, monkeypatch):
        r = realize(random_colored_dag(40, random.Random(40), 0.05))
        encoded = []
        real = verifier._witness_text

        def counted(witness):
            encoded.append(witness)
            return real(witness)

        monkeypatch.setattr(verifier, "_witness_text", counted)
        report = verify_all(r)
        witnesses = [e.certificate.witness for e in report.entries
                     if e.check == "separation" and e.certificate is not None]
        assert report.verdict and len(witnesses) > 2 * len(set(witnesses))
        assert len(encoded) == len(set(witnesses))
        assert set(encoded) == set(witnesses)

    def test_a_witness_differing_in_any_field_gets_its_own_text(self, monkeypatch):
        # verify_all reuses a witness text for an equal memo key, so the key
        # must name every field the text reads; a new field fails here until
        # it is added
        assert [f.name for f in dataclasses.fields(WitnessEvidence)] == [
            "word", "provenance", "image"]
        assert [f.name for f in dataclasses.fields(Word)] == ["rank", "letters"]
        assert [f.name for f in dataclasses.fields(NormalForm)] == ["syllables"]
        r = realize(colored_dag(["a", "b", "c"], [], {"a": 0, "b": 0, "c": 0}))
        wt = certify_separation(r, "a", "b").witness
        variants = [wt, dataclasses.replace(wt, provenance="finite[9]"),
                    dataclasses.replace(wt, word=Word(wt.word.rank + 1, wt.word.letters)),
                    dataclasses.replace(wt, word=parse_word("x1 x1", wt.word.rank)),
                    dataclasses.replace(wt, image=NormalForm(((0, 2),))), wt]
        given = iter(variants)
        real = verifier.certify_separation

        def forged(*args):
            return dataclasses.replace(real(*args), witness=next(given))

        monkeypatch.setattr(verifier, "certify_separation", forged)
        report = verify_all(r)
        assert [e.certificate.witness for e in report.entries
                if e.check == "separation"] == variants

    def test_one_leq_per_ordered_pair(self, monkeypatch):
        n = 12
        r = realize(random_colored_dag(n, random.Random(n), 0.3))
        asked = []

        def counted(d, u, v):
            asked.append((u, v))
            return leq(d, u, v)

        monkeypatch.setattr(dag_module, "leq", counted)
        monkeypatch.setattr(verifier, "leq", counted)
        assert verify_all(r).verdict
        assert len(asked) == n * (n - 1)
        assert set(asked) == {(u, v) for u in r.assignment for v in r.assignment if u != v}

    def test_report_json(self):
        report = verify_all(chain())
        data = report_to_json(report)
        assert data["verdict"] == "pass"
        assert data["counts"]["fail"] == 0
        json.dumps(data)  # serializable


class TestReportText:
    """``report_to_text`` writes the bytes that ``json.dumps`` with sorted
    keys and compact separators writes for the reference dict builders."""

    def assert_same_bytes(self, report):
        assert report_to_text(report) == compact_json(reference_report_to_json(report))

    @pytest.mark.parametrize("edge_prob", [0.05, 0.5])
    @pytest.mark.parametrize("bound", [1, 3, 5])
    def test_random_dags(self, edge_prob, bound):
        for order in (1, 2, 6, 11, 17):
            d = random_colored_dag(order, random.Random(10 * order + bound), edge_prob)
            self.assert_same_bytes(verify_all(realize(d), bound))

    def test_failing_and_inconclusive_entries(self):
        base = realize(colored_dag(["u", "w", "z"], [("u", "w")], {"u": 0, "w": 1, "z": 0}))
        rel = base.assignment["u"].relators
        dropped = replace_quotient(base, "u", relators=RelatorSet(
            rel.rank, rel.finite_part[1:], rel.schemes))
        emptied = replace_quotient(base, "z", relators=RelatorSet(rel.rank, ()))
        seen = set()
        for r in (dropped, emptied):
            report = verify_all(r)
            seen |= {(e.check, e.status) for e in report.entries}
            self.assert_same_bytes(report)
        assert {("canonical", "fail"), ("abelianization", "fail")} <= seen
        assert any(status == "inconclusive" for _, status in seen)

    def test_escaped_vertex_ids(self):
        ids, r, broken = escaped_realizations()
        for report in (verify_all(r, 3), verify_all(broken, 3)):
            text = report_to_text(report)
            assert text.isascii() and "\n" not in text and "\x01" not in text
            self.assert_same_bytes(report)
        details = [e.detail for e in report.entries if e.status == "fail"]
        assert any(ids[0] in t and ids[1] in t for t in details)

    # sha256 of the report texts below, each without elapsed_seconds, joined
    # by newlines; taken before ``Report.add`` memoized its constant tail
    REPORTS_SHA256 = "5db6074c5134f45cac0227f860b0b33dba59d6c422ee3f7a880069c82cf0bcf1"

    def test_order_40_reports_pinned(self):
        texts = []
        for edge_prob in (0.05, 0.5):
            for seed in (0, 1):
                r = realize(random_colored_dag(40, random.Random(seed), edge_prob))
                texts += [report_to_text(verify_all(r, bound)) for bound in (1, 5)]
        # failing entries whose details name many relators, pairs and
        # vertices: the lowest vertex holds every generator as a relator, so
        # each inclusion from it names the survivors in its target
        r = tampered(realize(random_colored_dag(40, random.Random(2), 0.3)), random.Random(2))
        ids = sorted(r.assignment)
        low = max(ids, key=lambda u: sum(leq(r.dag, u, v) for v in ids))
        rank = r.ambient_rank
        r = replace_quotient(r, low, relators=RelatorSet(rank, tuple(
            generator(rank, i) for i in range(1, rank + 1)), r.assignment[low].relators.schemes))
        report = verify_all(r, 5)
        assert len({e.detail for e in report.entries if e.status == "fail"}) > 20
        texts.append(report_to_text(report))
        text = "\n".join(re.sub(r'"elapsed_seconds":[^,]*,', "", t) for t in texts)
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORTS_SHA256

    # sha256 of the reports of test_each_differing_part_fails,
    # test_ambient_rank_fails and the broken realization of
    # test_escaped_vertex_ids, each without elapsed_seconds, joined by
    # newlines; ``assert_same_bytes`` compares with a reference built from
    # ``entries``, which decodes these same texts, so only a pin catches a
    # wrong canonical subject or detail
    CANONICAL_SHA256 = "24f483f9faf53d6c5c8d17e615e5d628216a2ecbfd54c6dd9de7d6c2b4a9562e"

    def test_canonical_entries_pinned(self):
        reports = [verify_all(mutate(chain())) for mutate, _, _ in CANONICAL_MUTATIONS]
        reports.append(verify_all(Realization(colored_dag([], [], {}), 2, {}, {})))
        reports.append(verify_all(escaped_realizations()[2], 3))
        assert all(report.count("canonical", "fail") for report in reports)
        text = "\n".join(re.sub(r'"elapsed_seconds":[^,]*,', "", report_to_text(report))
                         for report in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == self.CANONICAL_SHA256

    # sha256 of the reports of test_failure_branches_pinned, each without
    # elapsed_seconds, joined by newlines; ``assert_same_bytes`` decodes the
    # texts it compares, so only a pin catches a failing entry's bytes
    FAILURES_SHA256 = "9b001e4d4c3e8f02e98b75160db8bf9f2a83473067ec11e4a168374a0465f6c6"

    def test_failure_branches_pinned(self, monkeypatch):
        base = realize(colored_dag(["u", "w", "z"], [("u", "w")], {"u": 1, "w": 0, "z": 0}))
        rank, schemes = base.ambient_rank, base.assignment["u"].relators.schemes
        every = tuple(generator(rank, i) for i in range(1, rank + 1))
        z_finite = base.assignment["z"].relators.finite_part
        realizations = [
            # a relator of u survives in w: the inclusion raises
            replace_quotient(base, "u", relators=RelatorSet(rank, every, schemes)),
            # z has no relator to separate it from anything
            replace_quotient(base, "z", relators=RelatorSet(rank, ())),
            # a scheme in the relators of a color-0 vertex
            replace_quotient(base, "z", relators=RelatorSet(rank, z_finite, (
                CommutatorScheme(generator(rank, 1), generator(rank, 2)),))),
            # no witness survives in w or z, in either direction
            all_identity(all_identity(base, "w"), "z"),
        ]
        reports = [verify_all(r, bound) for r in realizations for bound in (1, 5)]
        real_inclusion, real_survivor = verifier.certify_inclusion, verifier.first_survivor

        def coverage_dropped(*args):
            return dataclasses.replace(real_inclusion(*args), scheme_coverage=())

        def wrong_image_into_z(relators, q, bound):
            found = real_survivor(relators, q, bound)
            if found is not None and q is base.assignment["z"]:
                return found[0], found[1], NormalForm()
            return found

        monkeypatch.setattr(verifier, "certify_inclusion", coverage_dropped)
        monkeypatch.setattr(verifier, "first_survivor", wrong_image_into_z)
        reports += [verify_all(base, bound) for bound in (1, 5)]
        monkeypatch.undo()
        reached = set()
        for report in reports:
            self.assert_same_bytes(report)
            reached |= {(e.check, e.status, e.certificate is None, e.detail.split(" ")[0])
                        for e in report.entries}
        assert {("inclusion", "fail", True, "relator"),
                ("inclusion", "fail", False, "scheme"),
                ("separation", "inconclusive", True, "no"),
                ("separation", "fail", False, "stored"),
                ("color", "fail", True, "vertex"),
                ("distinctness", "inconclusive", True, "no"),
                ("distinctness", "fail", False, "stored")} <= reached
        text = "\n".join(re.sub(r'"elapsed_seconds":[^,]*,', "", report_to_text(report))
                         for report in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == self.FAILURES_SHA256

    def test_verify_all_never_enters_check_certificate_detailed(self, monkeypatch):
        # verify_all checks its own certificates with check_evidence alone:
        # the traces, word facts and kind guards are for certificates from
        # elsewhere, so every failure branch and a pool DAG keep their bytes
        inputs = load_bench_inputs()
        dag = inputs.pool_dag("verify_sparse", 0, 0.05)
        r = realization_from_json(json.loads(inputs.realization_text(dag_module, realizer, dag)))

        def text():
            return re.sub(r'"elapsed_seconds":[^,]*,', "", report_to_text(verify_all(r)))

        def refuse(*args):
            raise AssertionError("verify_all entered check_certificate_detailed")

        want = text()
        with pytest.MonkeyPatch.context() as guard:
            guard.setattr(verifier, "check_certificate_detailed", refuse)
            assert text() == want
            self.test_failure_branches_pinned(monkeypatch)

    @pytest.mark.parametrize("elapsed", [0, 0.0, 1e-7, 0.1234567, 3.0, 123456.7891234])
    def test_traces_word_facts_and_elapsed(self, elapsed):
        cert = free_counterexample_demo()
        assert cert.traces and cert.word_facts
        assert compact_json(certificate_to_json(cert)) == compact_json(
            reference_certificate_to_json(cert))
        report = Report(5)
        report.add("demo", "", "pass", "", compact_json(certificate_to_json(cert)))
        report.add("other", '"x"', "unknown", "no certificate")
        report.elapsed = elapsed
        self.assert_same_bytes(report)

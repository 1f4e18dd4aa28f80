"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is exact and seeded; there is no tolerance calibration anywhere.
"""

import dataclasses
import json
import random
import time

import pytest

from conftest import a3_in_s3, check_certificate, enumerate_colored_dags, mat_det, mat_mul
from dagquot.ceplab import (
    builtin_group,
    cep_transitivity_scan,
    d4_in_s4,
    free_counterexample_demo,
    is_cep_finite,
    normal_closure_in,
)
from dagquot.dag import colored_dag, leq, random_colored_dag
from dagquot.quotients import (
    CommutatorScheme,
    RelatorSet,
    abelianization,
    eval_word,
    leaves,
    predicted_invariants,
)
from dagquot.realizer import Realization, realize
from dagquot.snf import smith_normal_form
from dagquot.stallings import build_subgroup_graph, contains, express, substitute_basis
from dagquot.verifier import (
    StructureMismatchError,
    certificate_to_json,
    certificate_from_json,
    certify_color,
    certify_separation,
    verify_all,
)
from dagquot.words import (
    conjugate,
    generator,
    identity,
    invert,
    multiply,
    reduce as reduce_word,
)


def report(line):
    print(f"\nACCEPTANCE {line}")


def nonempty_random_word(rng, rank, lo, hi):
    while True:
        raw = [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]
        w = reduce_word(raw, rank)
        if w.letters:
            return w


def test_criterion_1_exhaustive_realization_order_le_3():
    start = time.perf_counter()
    count = 0
    inconclusive = 0
    for order in (1, 2, 3):
        for d in enumerate_colored_dags(order):
            r = realize(d)
            rep = verify_all(r, bound=5)
            assert rep.verdict, f"verification failed for {d}"
            inconclusive += rep.inconclusive
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 214, f"expected 2 + 12 + 200 = 214 DAGs, got {count}"
    assert inconclusive == 0
    assert elapsed < 60.0, f"exhaustive run took {elapsed:.1f}s"
    report(f"1 exhaustive order<=3: PASS ({count} DAGs, {elapsed:.2f}s, 0 inconclusive)")


def test_exhaustive_realization_order_4():
    # every labelled colored DAG of order 4: 543 DAGs, 16 colorings each
    start = time.perf_counter()
    count = fails = inconclusive = 0
    for d in enumerate_colored_dags(4, cap=4):
        rep = verify_all(realize(d), bound=5)
        fails += sum(1 for e in rep.entries if e.status == "fail")
        inconclusive += rep.inconclusive
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 8688, f"expected 543 * 16 = 8688 DAGs, got {count}"
    assert (fails, inconclusive) == (0, 0)
    report(f"exhaustive order 4: PASS ({count} DAGs, {elapsed:.2f}s, 0 fail, 0 inconclusive)")


def test_criterion_2_sampled_orders_4_and_5():
    start = time.perf_counter()
    rng = random.Random(0)
    for order, runs, rank in ((4, 100, 8), (5, 25, 10)):
        for _ in range(runs):
            d = random_colored_dag(order, rng)
            r = realize(d)
            assert r.ambient_rank == rank
            rep = verify_all(r, bound=5)
            assert rep.verdict and rep.inconclusive == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"sampled run took {elapsed:.1f}s"
    report(f"2 sampled order 4/5: PASS (125 DAGs, {elapsed:.2f}s)")


def test_criterion_3_free_group_counterexample():
    cert = free_counterexample_demo()
    assert cert.kind == "cep-counterexample"
    by_label = {t.label: t for t in cert.traces}
    # the subgroup-side closure misses the generator a ...
    assert not by_label["closure-side:hom-value-of-a"].expected.is_identity
    assert by_label["closure-side:hom-kills-relator"].expected.is_identity
    # ... while the ambient-side closure swallows all of H
    assert by_label["ambient-side:a-dies"].expected.is_identity
    assert by_label["ambient-side:conjugate-dies"].expected.is_identity
    assert check_certificate(None, cert)
    assert check_certificate(
        None, certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    )
    report("3 free-group counterexample: PASS (strict inequality certified)")


def test_criterion_4_cep_finite_suite():
    g, d4 = d4_in_s4()
    ok, violation = is_cep_finite(g, d4)
    assert not ok and violation is not None
    closure = normal_closure_in(g, frozenset(range(g.order)), violation.seed_normal)
    assert closure & d4.elements == violation.intersection != violation.seed_normal

    s3, a3 = a3_in_s3()
    ok, _ = is_cep_finite(s3, a3)
    assert ok

    for name in ("s3", "a4", "s4", "q8"):
        scan = cep_transitivity_scan(builtin_group(name))
        assert scan.ok, f"transitivity violations in {name}: {scan.violations}"
        assert scan.chains_checked > 0
    report("4 CEP finite suite: PASS (S4/D4 witness verified, 4 scans clean)")


def test_criterion_5_stallings_vs_naive_enumeration():
    rng = random.Random(5)
    disagreements = 0
    for case in range(200):
        rank = 2 + case % 2
        gens = [nonempty_random_word(rng, rank, 1, 3) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(gens, rank=rank)

        # independent oracle: all products of at most 6 generator letters
        alphabet = gens + [invert(w) for w in gens]
        members = {identity(rank)}
        frontier = [identity(rank)]
        for _ in range(6):
            nxt = []
            for w in frontier:
                for a in alphabet:
                    p = multiply(w, a)
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
            frontier = nxt

        short_members = [w for w in members if len(w) <= 6]
        probes = short_members + [
            reduce_word(
                [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))],
                rank,
            )
            for _ in range(50)
        ]
        for w in probes:
            inside = contains(graph, w)
            if w in members and not inside:
                disagreements += 1  # provable member rejected
            if inside:
                expr = express(graph, w)
                if expr is None or substitute_basis(graph, expr) != w:
                    disagreements += 1  # claimed member without a proof
            elif w in short_members:
                disagreements += 1

        # fold confluence: ten fold schedules give the same folded graph
        for k in range(10):
            assert build_subgroup_graph(gens, rank=rank, rng=random.Random(k)) == graph
    assert disagreements == 0
    report("5 Stallings vs naive oracle: PASS (200 subgroups, 0 disagreements)")


def test_criterion_6_algebraic_exactness():
    rng = random.Random(6)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        nonzero = [x for x in diag if x != 0]
        assert diag[: len(nonzero)] == nonzero and all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0

    rng2 = random.Random(60)
    checked = 0
    for order in (1, 2, 3, 4):
        for _ in range(10):
            r = realize(random_colored_dag(order, rng2))
            for q in r.assignment.values():
                assert abelianization(q.rank, q.relators) == predicted_invariants(leaves(q.expr))
                checked += 1
    report(f"6 algebraic exactness: PASS (200 SNF cases, {checked} vertex abelianizations)")


def test_criterion_7_word_problem_soundness():
    rng = random.Random(7)
    realizations = [
        realize(random_colored_dag(order, rng)) for order in (2, 3, 3, 4, 4)
    ]

    evaluated = 0
    while evaluated < 1000:
        r = rng.choice(realizations)
        v = rng.choice(sorted(r.assignment))
        q = r.assignment[v]
        gens = list(q.relators.finite_part)
        for s in q.relators.schemes:
            gens.extend(s.member(i) for i in range(1, 6))
        if not gens:
            continue
        word = identity(r.ambient_rank)
        for _ in range(rng.randint(1, 4)):
            rel = rng.choice(gens)
            conj = reduce_word(
                [(rng.randint(1, r.ambient_rank), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 5))],
                r.ambient_rank,
            )
            word = multiply(word, conjugate(rel, conj))
        assert eval_word(q, word).is_identity
        evaluated += 1

    # the designated witnesses: for every unreachable ordered pair (u, v) the
    # second fresh generator of v's induction step lies in N_u and survives
    # in the quotient of v
    witnesses = 0
    for r in realizations:
        ids = sorted(r.assignment)
        for u in ids:
            for v in ids:
                if u == v or leq(r.dag, u, v):
                    continue
                designated = generator(r.ambient_rank, 2 * r.step_index[v])
                assert designated in r.assignment[u].relators.finite_part
                assert not eval_word(r.assignment[v], designated).is_identity
                witnesses += 1
    assert witnesses > 0
    report(f"7 word problem soundness: PASS (1000 products trivial, {witnesses} witnesses nontrivial)")


def test_criterion_8_negative_controls():
    base = realize(colored_dag(["u", "w"], [("u", "w")], {"u": 0, "w": 1}))

    # tampered certificate: flip the stored witness word
    cert = certify_separation(base, "w", "u")
    data = certificate_to_json(cert)
    data["witness"]["word"]["word"] = "x1"
    assert not check_certificate(base, certificate_from_json(data))

    # relator-dropped realization: abelianization cross-check must fail
    assignment = dict(base.assignment)
    qw = assignment["u"]
    assignment["u"] = dataclasses.replace(
        qw, relators=RelatorSet(qw.rank, qw.relators.finite_part[1:], qw.relators.schemes)
    )
    dropped = Realization(base.dag, base.ambient_rank, assignment, dict(base.step_index))
    rep = verify_all(dropped)
    assert not rep.verdict

    # color-structure mutation: scheme injected into a color-0 vertex
    assignment = dict(base.assignment)
    qu = assignment["u"]
    scheme = CommutatorScheme(generator(qu.rank, 1), generator(qu.rank, 2))
    assignment["u"] = dataclasses.replace(
        qu, relators=RelatorSet(qu.rank, qu.relators.finite_part, (scheme,))
    )
    mutated = Realization(base.dag, base.ambient_rank, assignment, dict(base.step_index))
    with pytest.raises(StructureMismatchError):
        certify_color(mutated, "u")
    rep = verify_all(mutated)
    assert not rep.verdict

    report("8 negative controls: PASS (tamper, relator drop, color mutation all rejected)")

"""What ``dagquot realize`` builds, and what it certifies.

``dagquot realize`` builds the realization once and certifies that object
with ``certify_all``; ``dagquot verify`` compares a stored realization with
``realize(dag)`` through ``verify_all``.  The comparison on the realize path
could never fail: ``transitive_closure`` hands ``d.peel`` to the closed DAG,
so a rebuild from ``r.dag`` repeats one construction on the same peel.  What
that comparison was meant to show, that ``realize(d)`` depends on ``d`` only
through its closure, is checked here on a closed DAG that computes its own
peel.
"""

import json
import random

import pytest

from conftest import enumerate_colored_dags, load_bench_inputs
from dagquot import cli, dag as dag_module, realizer, verifier
from dagquot.dag import colored_dag, random_colored_dag, transitive_closure
from dagquot.quotients import CommutatorScheme, RelatorSet
from dagquot.realizer import realize
from dagquot.verifier import verify_all
from dagquot.words import generator
from test_verifier import all_identity, replace_quotient

# (workload, edge probability): both DAG workloads of the benchmark
POOLS = (("realize_dense", 0.5), ("verify_sparse", 0.05))


def pool_dags():
    """Every 8th pool DAG of both DAG workloads, as input JSON."""
    inputs = load_bench_inputs()
    return [inputs.pool_dag(name, i, p) for name, p in POOLS
            for i in range(0, inputs.POOL_SIZE, 8)]


def seeded_dags():
    """Seeded random colored DAGs of orders 1-12 at three edge probabilities."""
    return [random_colored_dag(n, random.Random(f"{n}/{p}"), p)
            for p in (0.05, 0.3, 0.5) for n in range(1, 13)]


def order_four_dags():
    """Every labeled DAG on four vertices, each with one of the 16 colorings
    in turn, so every coloring is used."""
    dags = {}
    for d in enumerate_colored_dags(4, cap=4):
        dags.setdefault(d.edges, []).append(d)
    return [colorings[i % len(colorings)] for i, colorings in enumerate(dags.values())]


def first_difference(a, b) -> str | None:
    """The first part in which two realizations differ, or None."""
    if a.ambient_rank != b.ambient_rank:
        return "ambient_rank"
    if a.step_index != b.step_index:
        return "step_index"
    if sorted(a.assignment) != sorted(b.assignment):
        return "vertices"
    for v in sorted(a.assignment):
        p, q = a.assignment[v], b.assignment[v]
        for part in ("relators", "expr", "marking"):
            if getattr(p, part) != getattr(q, part):
                return f"{part} of vertex {v}"
    return None


class TestRealizeOnce:
    def test_realize_builds_once_and_verify_rebuilds_once(self, tmp_path, monkeypatch):
        inp = tmp_path / "dag.json"
        inp.write_text(json.dumps(load_bench_inputs().pool_dag("realize_dense", 0, 0.5)))
        calls = []

        def counted(d):
            calls.append(d)
            return realizer.realize(d)

        monkeypatch.setattr(cli, "realize", counted)
        monkeypatch.setattr(verifier, "realize", counted)
        assert cli.main(["realize", "--input", str(inp), "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == 1
        calls.clear()
        assert cli.main(["verify", "--input", str(tmp_path / "r" / "realization.json"),
                         "--out", str(tmp_path / "v")]) == 0
        assert len(calls) == 1


class TestClosureOnly:
    """``realize(d)`` equals the realization of d's closure built as a DAG
    of its own, whose peel is computed from the closed edges."""

    def assert_closure_only(self, dags):
        for d in dags:
            c = transitive_closure(d)
            fresh = colored_dag(c.vertices, c.edges, c.color)
            assert fresh.peel is not d.peel
            differ = first_difference(realize(d), realize(fresh))
            assert differ is None, (sorted(d.edges), d.color, differ)

    def test_every_order_four_dag(self):
        dags = order_four_dags()
        assert len(dags) == 543
        self.assert_closure_only(dags)

    def test_pool_dags(self):
        self.assert_closure_only([dag_module.from_json(d) for d in pool_dags()])

    def test_seeded_dags(self):
        self.assert_closure_only(seeded_dags())


def tampered_realizations():
    """The tampered realizations of ``test_failure_branches_pinned``."""
    base = realize(colored_dag(["u", "w", "z"], [("u", "w")], {"u": 1, "w": 0, "z": 0}))
    rank, schemes = base.ambient_rank, base.assignment["u"].relators.schemes
    every = tuple(generator(rank, i) for i in range(1, rank + 1))
    z_finite = base.assignment["z"].relators.finite_part
    return [
        replace_quotient(base, "u", relators=RelatorSet(rank, every, schemes)),
        replace_quotient(base, "z", relators=RelatorSet(rank, ())),
        replace_quotient(base, "z", relators=RelatorSet(rank, z_finite, (
            CommutatorScheme(generator(rank, 1), generator(rank, 2)),))),
        all_identity(all_identity(base, "w"), "z"),
    ]


class TestEntryPoints:
    """``verify_all`` is the canonical fail entries followed by exactly what
    ``certify_all`` adds."""

    @pytest.mark.parametrize("source", ["pool", "seeded"])
    def test_same_entries_on_canonical_realizations(self, source):
        dags = ([dag_module.from_json(d) for d in pool_dags()] if source == "pool"
                else seeded_dags())
        for d in dags:
            r = realize(d)
            certified, verified = verifier.certify_all(r, 5), verify_all(r, 5)
            assert certified.texts == verified.texts
            assert certified.tally == verified.tally
            assert certified.verdict == verified.verdict
            assert certified.elapsed > 0

    @pytest.mark.parametrize("bound", [1, 5])
    def test_verify_all_adds_only_canonical_entries(self, bound):
        for r in tampered_realizations():
            certified, verified = verifier.certify_all(r, bound), verify_all(r, bound)
            canonical = verified.tally["canonical", "fail"]
            assert canonical and len(verified.tally) == len(certified.tally) + 1
            assert all('"check":"canonical"' in t for t in verified.texts[:canonical])
            assert verified.texts[canonical:] == certified.texts
            assert verified.tally - certified.tally == {("canonical", "fail"): canonical}
            assert not verified.verdict

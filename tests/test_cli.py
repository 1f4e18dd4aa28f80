import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import load_bench_inputs, reference_certificate_to_json, relabelled_generators
from dagquot import ceplab, dag as dagmod, quotients, realizer, snf
from dagquot.cli import build_parser, main
from dagquot.realizer import realize
from dagquot.verifier import report_to_json, report_to_text, verify_all

README = Path(__file__).resolve().parent.parent / "README.md"


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def chain_dag():
    return {
        "vertices": [{"id": "u", "color": 0}, {"id": "w", "color": 1}],
        "edges": [["u", "w"]],
    }


def cyclic_dag():
    return {
        "vertices": [{"id": "a", "color": 0}, {"id": "b", "color": 0}],
        "edges": [["a", "b"], ["b", "a"]],
    }


class TestRealizeCommand:
    def test_chain_exits_zero_and_writes_artifacts(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        code = main(["realize", "--input", str(inp), "--out", str(out)])
        assert code == 0
        realization = json.loads((out / "realization.json").read_text())
        assert realization["ambient_rank"] == 4
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert (out / "lattice.dot").read_text().startswith("digraph")

    def test_cycle_exits_two(self, tmp_path, capsys):
        inp = tmp_path / "dag.json"
        write_json(inp, cyclic_dag())
        code = main(["realize", "--input", str(inp), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cycle" in capsys.readouterr().err.lower()

    def test_duplicate_vertex_id_is_named(self, tmp_path, capsys):
        inp = tmp_path / "dag.json"
        write_json(inp, {"vertices": [{"id": v, "color": 0} for v in "abcab"], "edges": []})
        code = main(["realize", "--input", str(inp), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate vertex id 'a'\n"

    def test_missing_file_exits_two(self, tmp_path):
        code = main(["realize", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_dot_flag_emits_input_dag(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out), "--dot"]) == 0
        assert (out / "dag.dot").exists()

    def test_bad_bound_exits_two(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        code = main(["realize", "--input", str(inp), "--out", str(tmp_path / "o"),
                     "--bound", "0"])
        assert code == 2

    def test_order_three_merge_all_colorings(self, tmp_path):
        for mask in range(8):
            colors = [(mask >> i) & 1 for i in range(3)]
            inp = tmp_path / f"dag{mask}.json"
            write_json(inp, {
                "vertices": [
                    {"id": "a", "color": colors[0]},
                    {"id": "b", "color": colors[1]},
                    {"id": "c", "color": colors[2]},
                ],
                "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
            })
            out = tmp_path / f"out{mask}"
            assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["counts"]["inconclusive"] == 0

    def test_one_peel_per_command(self, tmp_path, monkeypatch):
        # the input DAG is peeled once; its closure, and the closure that
        # verify_all's realize(r.dag) builds, take that peel over
        d = dagmod.random_colored_dag(12, random.Random(12), 0.3)
        inp, out = tmp_path / "dag.json", tmp_path / "out"
        write_json(inp, dagmod.to_json(d))
        peels = []
        peel = dagmod.removal_order

        def counted(d):
            peels.append(d)
            return peel(d)

        monkeypatch.setattr(dagmod, "removal_order", counted)
        monkeypatch.setattr(realizer, "removal_order", counted)
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        assert len(peels) == 1
        peels.clear()
        assert main(["verify", "--input", str(out / "realization.json"),
                     "--out", str(tmp_path / "checked")]) == 0
        assert len(peels) == 1


class TestRealizationBytes:
    # sha256 of realization.json as `dagquot realize` writes it for
    # random_colored_dag(order, Random(seed), edge_prob), taken from the
    # uncached seed construction: realization.json must stay byte-identical
    PINS = [
        (5, 1, 0.5, "34b2d8e030bc497c263f41f9bd81038ed9f6518471e3a91101ec05ca66127ca7"),
        (11, 3, 0.2, "810afb6417dd21a84fb385aff851b624e84b7113378f2562224c6d005d30903d"),
        (14, 4, 0.5, "e5aa9a495d6f537e7ae95ef0c25d686932d23ad4b97deca9ffd3024caf8d93f6"),
    ]

    @pytest.mark.parametrize("order,seed,edge_prob,digest", PINS)
    def test_sha256_pinned(self, tmp_path, order, seed, edge_prob, digest):
        d = dagmod.random_colored_dag(order, random.Random(seed), edge_prob)
        inp = tmp_path / "dag.json"
        write_json(inp, dagmod.to_json(d))
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        data = (out / "realization.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # sha256 of realization.json for the edge cases of the closed-form
    # construction and seeded random DAGs from empty to complete, taken from
    # the step-by-step construction it replaced
    SHAPE_PINS = [
        ({"vertices": [], "edges": []},
         "05b99680599f55eb28bf4c5e70a13a5da72c646414f744424bdf1988dd1bc844"),
        ({"vertices": [{"id": "v", "color": 1}], "edges": []},
         "8161622111ed08455eb8afcceb359cad21fdb665874f37aa3b769b5114f4f5e7"),
        ({"vertices": [{"id": v, "color": c} for v, c in zip("abcde", (0, 1, 1, 0, 1))],
          "edges": []},
         "13284206e90682ef56457e93128c1134def34d04772489d73db9fcb432c2f15f"),
        (dagmod.to_json(dagmod.random_colored_dag(8, random.Random(5), 0.0)),
         "787348b09820e4ef94ed13995ec1a5b5f80431b95b9f45c4b41a7ced5da1fbd7"),
        (dagmod.to_json(dagmod.random_colored_dag(8, random.Random(6), 1.0)),
         "1ecb7380c93fd1aa87bbd903686b848a7c873019c1870c95ee347f262cb47872"),
        (dagmod.to_json(dagmod.random_colored_dag(12, random.Random(7), 0.3)),
         "2fd35ecf81113c824fda679965c0a061546a109d48e5f71174faf19c33b996c2"),
        (dagmod.to_json(dagmod.random_colored_dag(20, random.Random(8), 0.5)),
         "4a8a4787ec585d5cbf29d49eea3a7da5af949ab0f796731584c1684a9a6a83f0"),
    ]

    @pytest.mark.parametrize("dag,digest", SHAPE_PINS, ids=[
        "empty", "single-color-1", "antichain-5", "random-8-p0", "random-8-p1",
        "random-12-p03", "random-20-p05"])
    def test_shape_sha256_pinned(self, tmp_path, dag, digest):
        inp = tmp_path / "dag.json"
        write_json(inp, dag)
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        data = (out / "realization.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # sha256 of report.json without elapsed_seconds, re-encoded as report.json
    # is written, for the DAGs of PINS: the report format must not drift.
    # Equal to the earlier format's content once every inclusion
    # certificate's traces are emptied.
    REPORT_PINS = [
        (5, 1, 0.5, "4923cfe217bd62ac950f65b813cbd146dc3bef0515c1d57972b480727bf69b27"),
        (11, 3, 0.2, "9e59e54a9b7dba6dff7300c0abe867c3b24459ce5a6ed21deba3dda2ce923fa5"),
        (14, 4, 0.5, "cb6a671418e5454e02046d35c3d53f3944dd3e6f2152d048d2c53c3343e7d643"),
    ]

    @pytest.mark.parametrize("order,seed,edge_prob,digest", REPORT_PINS)
    def test_report_content_pinned(self, tmp_path, order, seed, edge_prob, digest):
        d = dagmod.random_colored_dag(order, random.Random(seed), edge_prob)
        inp = tmp_path / "dag.json"
        write_json(inp, dagmod.to_json(d))
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        content = report_content(json.loads((out / "report.json").read_text()))
        text = json.dumps(content, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sha256 of dag.dot and lattice.dot as `dagquot realize --dot` writes them
    # for random_colored_dag(order, Random(seed), edge_prob), taken from the
    # two separate DOT writers that dag.dot_text replaced
    DOT_PINS = [
        (5, 1, 0.5, "763cb91da56239d9c69fe075997aff554f74f9a3fcb1414d82855e953e64d7dc",
         "ae2a2bd7ea5eb6e75588b077443fd0881fc93ef30d90841aabe1f81b7ddaed27"),
        (11, 3, 0.2, "14f5a7cda8ce66b17d69a131e307e05ef5d5d631f34720406a4e9fac8602f1e1",
         "46f435a24300d398eed258ce036ec38d5848543fee13843816ff1962c83be8ae"),
        (14, 4, 0.5, "45b02c1b48416e5171b80fe8425d424a4dec00ece416b9d747562fe6ddb4a432",
         "9b82e86decb683f17fe95841f62d5d2a9b37005ccb59d9569063188dff5aeaee"),
        (8, 6, 1.0, "f46117b7e71e70cecb3f946f6de538991c44c1ffb7d8d7324415ec1853c7ab7d",
         "f2f9bad74bd0f2dc6e5895de78e06c84a0c1f73d8aec61d6f2ece28163e8cfd0"),
    ]

    @pytest.mark.parametrize("order,seed,edge_prob,dag_digest,lattice_digest", DOT_PINS)
    def test_dot_sha256_pinned(self, tmp_path, order, seed, edge_prob, dag_digest,
                               lattice_digest):
        d = dagmod.random_colored_dag(order, random.Random(seed), edge_prob)
        inp = tmp_path / "dag.json"
        write_json(inp, dagmod.to_json(d))
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out), "--dot"]) == 0
        assert hashlib.sha256((out / "dag.dot").read_bytes()).hexdigest() == dag_digest
        assert hashlib.sha256((out / "lattice.dot").read_bytes()).hexdigest() == lattice_digest


class TestVerifyCommand:
    def test_round_trip_verdict(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        out2 = tmp_path / "out2"
        code = main(["verify", "--input", str(out / "realization.json"),
                     "--out", str(out2)])
        assert code == 0
        rep1 = json.loads((out / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        assert rep1["verdict"] == rep2["verdict"] == "pass"
        assert rep1["counts"] == rep2["counts"]

    def test_tampered_realization_fails(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        data = json.loads((out / "realization.json").read_text())
        # drop a relator from the top vertex: the abelianization cross-check
        # must catch the mutation
        data["vertices"]["w"]["relators"]["finite"].pop()
        tampered = tmp_path / "tampered.json"
        write_json(tampered, data)
        code = main(["verify", "--input", str(tampered), "--out", str(tmp_path / "o3")])
        assert code == 1

    def test_stored_marking_is_compared_with_realize(self, tmp_path):
        # "1 -> 2" with the edge deleted: vertex 2's marking is then the
        # only thing that still makes x1, a relator of N_2, look nontrivial
        inp = tmp_path / "dag.json"
        write_json(inp, {"vertices": [{"id": "1", "color": 0}, {"id": "2", "color": 0}],
                         "edges": [["1", "2"]]})
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        data = json.loads((out / "realization.json").read_text())
        data["dag"]["edges"] = []
        data["vertices"]["2"]["marking"]["1"] = {"leaf": 0, "value": 1}
        tampered = tmp_path / "tampered.json"
        write_json(tampered, data)
        out2 = tmp_path / "out2"
        assert main(["verify", "--input", str(tampered), "--out", str(out2)]) == 1
        report = json.loads((out2 / "report.json").read_text())
        assert report["verdict"] == "fail"
        canonical = {e["subject"][0]: e for e in report["entries"] if e["check"] == "canonical"}
        assert canonical["2"]["status"] == "fail"
        assert "marking" in canonical["2"]["detail"]

    def test_dense_relators_abelianization(self, tmp_path):
        # vertex 1 of an antichain gets 12 dense relators, one per exponent
        # row of a 12 x 12 matrix: no row is a unit row, so its
        # abelianization runs a full Smith normal form
        inp = tmp_path / "dag.json"
        write_json(inp, {"vertices": [{"id": str(i), "color": 0} for i in range(1, 7)],
                         "edges": []})
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
        data = json.loads((out / "realization.json").read_text())
        rng = random.Random(12)
        rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
        data["vertices"]["1"]["relators"]["finite"] = [
            " ".join(f"x{j}" if e > 0 else f"x{j}^-1"
                     for j, e in enumerate(row, 1) for _ in range(abs(e)))
            for row in rows]
        tampered = tmp_path / "dense.json"
        write_json(tampered, data)
        out2 = tmp_path / "out2"
        assert main(["verify", "--input", str(tampered), "--out", str(out2)]) == 1
        report = json.loads((out2 / "report.json").read_text())
        details = [e["detail"] for e in report["entries"]
                   if e["check"] == "abelianization" and e["status"] == "fail"]
        assert details == ["computed Z/17016871415377 but structure predicts Z^1"]

    def test_garbage_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}", encoding="utf-8")
        assert main(["verify", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


def report_content(data):
    """A report.json object without its one nondeterministic field."""
    data = dict(data)
    del data["elapsed_seconds"]
    return data


def without_elapsed(text: str) -> str:
    """report.json text without its elapsed_seconds member, the only key of
    that name: a vertex id holding it has its quotes escaped."""
    out, n = re.subn(r'"elapsed_seconds":[^,]*,', "", text, count=1)
    assert n == 1
    return out


class TestReportJson:
    """report.json is one line of sorted-key JSON holding report_to_json."""

    def realize_and_verify(self, tmp_path, d, bound):
        inp = tmp_path / "dag.json"
        write_json(inp, dagmod.to_json(d))
        out, out2 = tmp_path / "out", tmp_path / "out2"
        assert main(["realize", "--input", str(inp), "--out", str(out),
                     "--bound", str(bound)]) == 0
        assert main(["verify", "--input", str(out / "realization.json"),
                     "--out", str(out2), "--bound", str(bound)]) == 0
        return out, out2

    @pytest.mark.parametrize("order,seed,edge_prob,bound", [
        (6, 2, 0.4, 3), (9, 5, 0.1, 5),
    ])
    def test_content_equals_report_to_json(self, tmp_path, order, seed, edge_prob, bound):
        d = dagmod.random_colored_dag(order, random.Random(seed), edge_prob)
        out, out2 = self.realize_and_verify(tmp_path, d, bound)
        want = report_content(report_to_json(verify_all(realize(d), bound)))
        for path in (out / "report.json", out2 / "report.json"):
            text = path.read_text(encoding="utf-8")
            assert text.count("\n") == 1 and text.endswith("\n")
            data = json.loads(text)
            assert list(data) == sorted(data)
            assert report_content(data) == want

    def test_file_is_report_to_text(self, tmp_path):
        d = dagmod.random_colored_dag(7, random.Random(4), 0.3)
        out, out2 = self.realize_and_verify(tmp_path, d, 4)
        want = report_to_text(verify_all(realize(d), 4)) + "\n"
        for path in (out / "report.json", out2 / "report.json"):
            assert without_elapsed(path.read_text(encoding="utf-8")) == without_elapsed(want)

    # sha256 of report.json without elapsed_seconds, re-encoded as
    # test_report_content_pinned does, for benchmark pool DAGs of order 40:
    # (workload, pool index, edge probability of the workload, command)
    POOL_PINS = [
        ("realize_dense", 0, 0.5, "realize",
         "5899506c3a40ecb930734fbb6652102164559c1934045f91d0bbe6c679b54a8b"),
        ("realize_dense", 1, 0.5, "realize",
         "dc10c7394957829fe707fb0f445535a2595f0652b263d6b67668b7f19f76d05e"),
        ("verify_sparse", 0, 0.05, "verify",
         "92d157ce968faa4696ebeb097fe1dfcb19738e66be2094d943beac7adb136da2"),
        ("verify_sparse", 1, 0.05, "verify",
         "ff659cdb78276533d3785479de54100ba71becb6dbc02842b7407297c59e1751"),
    ]

    @pytest.mark.parametrize("workload,index,edge_prob,command,digest", POOL_PINS)
    def test_pool_dag_report_pinned(self, tmp_path, workload, index, edge_prob, command,
                                    digest):
        inputs = load_bench_inputs()
        dag = inputs.pool_dag(workload, index, edge_prob)
        inp = tmp_path / "input.json"
        if command == "realize":
            write_json(inp, dag)
        else:
            inp.write_text(inputs.realization_text(dagmod, realizer, dag), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--input", str(inp), "--out", str(out), "--bound", "5"]) == 0
        content = report_content(json.loads((out / "report.json").read_text()))
        text = json.dumps(content, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_realization_stays_indented(self, tmp_path):
        d = dagmod.random_colored_dag(5, random.Random(1), 0.5)
        out, _ = self.realize_and_verify(tmp_path, d, 5)
        text = (out / "realization.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestTransferCommand:
    def test_identity_embedding(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        emb = tmp_path / "emb.json"
        write_json(emb, {
            "alphabet_rank": 4,
            "relators": [],
            "basis": ["x1", "x2", "x3", "x4"],
            "note": "identity",
        })
        code = main(["transfer", "--input", str(out / "realization.json"),
                     "--embedding", str(emb), "--out", str(out)])
        assert code == 0
        pres = json.loads((out / "presentations.json").read_text())
        assert pres["conditional_on_cep"] is True
        assert pres["vertices"]["u"]["relators"] == ["x1"]
        assert pres["vertices"]["w"]["schemes"] == [{"a": "x3", "t": "x4"}]

    def test_free_factor_embedding(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, {"vertices": [{"id": "v", "color": 0}], "edges": []})
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        emb = tmp_path / "emb.json"
        write_json(emb, {
            "alphabet_rank": 3,
            "relators": ["x3 x3"],
            "basis": ["x1", "x2"],
            "note": "free factor of a free product",
        })
        code = main(["transfer", "--input", str(out / "realization.json"),
                     "--embedding", str(emb), "--out", str(out)])
        assert code == 0
        pres = json.loads((out / "presentations.json").read_text())
        assert pres["vertices"]["v"]["relators"] == ["x3 x3", "x1"]

    def test_missing_basis_words_exit_two(self, tmp_path):
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        emb = tmp_path / "emb.json"
        write_json(emb, {"alphabet_rank": 2, "relators": [], "basis": ["x1", "x2"]})
        code = main(["transfer", "--input", str(out / "realization.json"),
                     "--embedding", str(emb), "--out", str(out)])
        assert code == 2

    def test_basis_that_is_not_free_exits_one(self, tmp_path, capsys):
        # four copies of x1 span a free group of rank 1, so the premise that
        # they are the images of a free basis of rank 4 is false
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        capsys.readouterr()
        emb = tmp_path / "emb.json"
        write_json(emb, {"alphabet_rank": 2, "relators": [], "basis": ["x1", "x1", "x1", "x1"]})
        code = main(["transfer", "--input", str(out / "realization.json"),
                     "--embedding", str(emb), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "rank 1" in err
        assert not (out / "presentations.json").exists()

    @pytest.mark.parametrize("dag,embedding,digest", [
        ({"vertices": [{"id": "v", "color": 0}], "edges": []},
         {"alphabet_rank": 3, "relators": ["x3 x3"], "basis": ["x1", "x2"],
          "note": "free factor of a free product"},
         "b374b983469717f765efa35c292da6e6af0fd6dcf30f40744380d6acbf7ac351"),
        ({"vertices": [{"id": "v", "color": 1}], "edges": []},
         {"alphabet_rank": 3, "relators": [], "basis": ["x1 x2 x1^-1 x2^-1", "x3"]},
         "ebafba75c7328941628e6c344f207a8f7c09a10820a37d2e5ecb0df94672402a"),
        (chain_dag(),
         {"alphabet_rank": 4, "relators": [], "basis": ["x1", "x2", "x3", "x4"],
          "note": "identity"},
         "ef847396c40083551fdbd1dbe9e51516d2e9ed16826e5f36e8db3fe3f7994b46"),
    ], ids=["free-factor", "commutator-basis", "identity"])
    def test_free_basis_bytes_pinned(self, tmp_path, dag, embedding, digest):
        inp = tmp_path / "dag.json"
        write_json(inp, dag)
        out = tmp_path / "out"
        main(["realize", "--input", str(inp), "--out", str(out)])
        emb = tmp_path / "emb.json"
        write_json(emb, embedding)
        code = main(["transfer", "--input", str(out / "realization.json"),
                     "--embedding", str(emb), "--out", str(out)])
        assert code == 0
        data = (out / "presentations.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def realized_chain(tmp_path):
    inp = tmp_path / "dag.json"
    write_json(inp, chain_dag())
    out = tmp_path / "real"
    assert main(["realize", "--input", str(inp), "--out", str(out)]) == 0
    return json.loads((out / "realization.json").read_text())


def with_vertex_field(realization, vertex, key, value):
    vertices = dict(realization["vertices"])
    vertices[vertex] = dict(vertices[vertex], **{key: value})
    return dict(realization, vertices=vertices)


def with_relators_field(realization, vertex, key, value):
    relators = dict(realization["vertices"][vertex]["relators"], **{key: value})
    return with_vertex_field(realization, vertex, "relators", relators)


def with_marking_image(realization, vertex, generator, value):
    marking = dict(realization["vertices"][vertex]["marking"], **{generator: value})
    return with_vertex_field(realization, vertex, "marking", marking)


def with_marking_key(realization, vertex, old, new):
    marking = {new if k == old else k: img
               for k, img in realization["vertices"][vertex]["marking"].items()}
    return with_vertex_field(realization, vertex, "marking", marking)


def with_free_leaf_rank(realization, vertex, value):
    # the free leaf is the last part of the vertex's free product
    expr = realization["vertices"][vertex]["expr"]
    parts = expr["parts"][:-1] + [dict(expr["parts"][-1], rank=value)]
    return with_vertex_field(realization, vertex, "expr", dict(expr, parts=parts))


IDENTITY_EMBEDDING = {"alphabet_rank": 4, "relators": [], "basis": ["x1", "x2", "x3", "x4"]}


class TestMalformedInput:
    """Input of the wrong JSON shape exits 2 with one `error:` line."""

    def assert_input_error(self, argv, capsys, field=None):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        if field is not None:
            assert repr(field) in err

    @pytest.mark.parametrize("data,field", [
        ([], None),
        ({"vertices": {"a": 0}, "edges": []}, "vertices"),
        ({"vertices": [{"id": "a", "color": 0}], "edges": [["a"]]}, None),
        ({"vertices": [{"id": "a", "color": 0}, {"id": "b", "color": 0}],
          "edges": [["a", "b", "c"]]}, None),
        ({"vertices": [{"id": "a", "color": True}], "edges": []}, "color"),
        ({"vertices": [{"id": "a", "color": 1.0}], "edges": []}, "color"),
        ({"vertices": [{"id": 1, "color": 0}], "edges": []}, "id"),
        ({"vertices": [{"id": "1", "color": 0}, {"id": "2", "color": 0}],
          "edges": [[1, "2"]]}, "edges"),
    ], ids=["data0", "data1", "data2", "data3", "color-bool", "color-float",
            "id-int", "endpoint-int"])
    def test_realize(self, tmp_path, capsys, data, field):
        inp = tmp_path / "dag.json"
        write_json(inp, data)
        self.assert_input_error(
            ["realize", "--input", str(inp), "--out", str(tmp_path / "o")], capsys, field)

    # field: the name the error line must quote, for a field of the wrong shape
    @pytest.mark.parametrize("mutate,field", [
        (lambda r: [], None),
        (lambda r: dict(r, vertices=[]), "vertices"),
        (lambda r: dict(r, step_index=[1]), "step_index"),
        (lambda r: dict(r, dag=dict(r["dag"], edges=[["u"]])), None),
        (lambda r: with_vertex_field(r, "u", "marking", []), "marking"),
        (lambda r: with_vertex_field(r, "u", "relators", "x1"), "relators"),
        (lambda r: with_relators_field(r, "u", "finite", "x1"), "finite"),
        (lambda r: with_relators_field(r, "w", "schemes", [5]), "schemes"),
        (lambda r: with_relators_field(r, "u", "rank", "4"), "rank"),
        (lambda r: with_marking_image(r, "u", "1", 5), "1"),
        (lambda r: with_marking_image(r, "w", "3", {"leaf": "0", "value": "lamp"}), "leaf"),
        (lambda r: with_free_leaf_rank(r, "u", "2"), "rank"),
        (lambda r: with_free_leaf_rank(r, "u", 2.5), "rank"),
        (lambda r: with_marking_key(r, "u", "1", "01"), "01"),
        # a boolean is not an integer, though True == 1: x3 of u is value 1
        # of its free leaf, x4 value 2, x2 value 1 of its Z leaf
        (lambda r: with_marking_image(r, "u", "3", {"leaf": 1, "value": True}), "value"),
        (lambda r: with_marking_image(r, "u", "4", {"leaf": 1, "value": True}), "value"),
        (lambda r: with_marking_image(r, "u", "2", {"leaf": 0, "value": False}), "value"),
        (lambda r: with_marking_image(r, "w", "3", {"leaf": 0, "value": True}), "value"),
        (lambda r: with_marking_image(r, "u", "3", {"leaf": 1, "value": "1"}), "value"),
        (lambda r: with_marking_image(r, "u", "3", {"leaf": 1, "value": 1.0}), "value"),
    ], ids=["list", "vertices-list", "step-index-list", "short-edge",
            "marking-list", "relators-string", "finite-string", "scheme-int",
            "relators-rank-string", "marking-image-int", "marking-leaf-string",
            "free-rank-string", "free-rank-float", "marking-key-leading-zero",
            "marking-value-true-for-1", "marking-value-true-for-2",
            "marking-value-false-for-z-1", "marking-value-true-on-lamplighter",
            "marking-value-string", "marking-value-float"])
    def test_verify(self, tmp_path, capsys, mutate, field):
        bad = tmp_path / "bad.json"
        write_json(bad, mutate(realized_chain(tmp_path)))
        capsys.readouterr()
        self.assert_input_error(
            ["verify", "--input", str(bad), "--out", str(tmp_path / "o")], capsys, field)

    @pytest.mark.parametrize("mutate,embedding,field", [
        (lambda r: [], IDENTITY_EMBEDDING, None),
        (lambda r: dict(r, vertices=[]), IDENTITY_EMBEDDING, None),
        (lambda r: r, [], None),
        (lambda r: r, {"alphabet_rank": 4, "basis": [1, 2, 3, 4]}, None),
        (lambda r: r, dict(IDENTITY_EMBEDDING, basis=["x1", "x2", 3, "x4"]), "basis"),
        (lambda r: r, dict(IDENTITY_EMBEDDING, alphabet_rank=4.5), "alphabet_rank"),
    ], ids=["realization-list", "vertices-list", "embedding-list", "basis-ints",
            "basis-int-among-words", "alphabet-rank-float"])
    def test_transfer(self, tmp_path, capsys, mutate, embedding, field):
        inp = tmp_path / "r.json"
        emb = tmp_path / "e.json"
        write_json(inp, mutate(realized_chain(tmp_path)))
        write_json(emb, embedding)
        capsys.readouterr()
        self.assert_input_error(["transfer", "--input", str(inp), "--embedding", str(emb),
                                 "--out", str(tmp_path / "o")], capsys, field)

    @pytest.mark.parametrize("bad,message", [
        ("x1 x", "error: cannot parse word atom 'x'\n"),
        ("x9", "error: generator x9 out of range for rank 4\n"),
    ])
    def test_malformed_word_at_any_occurrence(self, tmp_path, capsys, bad, message):
        # the relators of u are [x1], those of w [x1, x2]: the bad text first
        # in u, first in w, and in both, where the one in w comes later
        base = realized_chain(tmp_path)
        bad_file = tmp_path / "bad.json"
        for vertices in (("u",), ("w",), ("u", "w")):
            data = base
            for v in vertices:
                data = with_relators_field(data, v, "finite",
                                           [bad] + data["vertices"][v]["relators"]["finite"][1:])
            write_json(bad_file, data)
            capsys.readouterr()
            assert main(["verify", "--input", str(bad_file), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == message

    def test_cep_table_not_a_list(self, tmp_path, capsys):
        inp = tmp_path / "g.json"
        write_json(inp, {"order": 1, "table": 5})
        self.assert_input_error(["cep", "--input", str(inp), "--scan"], capsys)

    @pytest.mark.parametrize("group", [
        {"order": 3, "table": [[0, 1, 2], [1, 0, 9], [2, 9, 0]]},
        {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, -2]]},
        {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
        {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "e"]},
        {"order": 0, "table": []},
        {"order": 2, "table": [[0, 1], [1.9, 0.2]]},
        {"order": 201, "table": [[(a + b) % 201 if (a, b) != (5, 7) else 201
                                  for b in range(201)] for a in range(201)]},
    ], ids=["out-of-range", "negative", "column-repeats", "duplicate-names", "empty",
            "fractional", "out-of-range-order-201"])
    def test_cep_bad_table(self, tmp_path, capsys, group):
        inp = tmp_path / "g.json"
        write_json(inp, group)
        self.assert_input_error(["cep", "--input", str(inp), "--scan"], capsys)

    KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

    @pytest.mark.parametrize("group,field", [
        ({"order": "4", "table": KLEIN}, "order"),
        ({"order": 4.9, "table": KLEIN}, "order"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "names": [0, 1]}, "names"),
        ({"degree": "3", "generators": ["(1 2)", "(1 2 3)"]}, "degree"),
        ({"degree": 3.5, "generators": ["(1 2)", "(1 2 3)"]}, "degree"),
        ({"degree": -1, "generators": []}, "degree"),
    ], ids=["order-string", "order-float", "names-ints", "degree-string",
            "degree-float", "degree-negative"])
    def test_cep_group_fields_not_coerced(self, tmp_path, capsys, group, field):
        inp = tmp_path / "g.json"
        write_json(inp, group)
        self.assert_input_error(["cep", "--input", str(inp), "--scan"], capsys, field)

    @pytest.mark.parametrize("group,field,form", [
        ({"degree": 3, "generators": ["(1 2)"], "names": ["a", "b"]}, "names", "table"),
        ({"order": 6, "degree": 3, "generators": ["(1 2)", "(1 2 3)"]}, "order", "table"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "degree": "x"}, "degree", "generators"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "degree": 2}, "degree", "generators"),
    ], ids=["names-with-generators", "order-with-generators", "degree-string-with-table",
            "degree-with-table"])
    def test_cep_field_of_the_other_form(self, tmp_path, capsys, group, field, form):
        inp = tmp_path / "g.json"
        write_json(inp, group)
        assert main(["cep", "--input", str(inp), "--scan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(field) in captured.err and repr(form) in captured.err

    INPUT_FILES = [("realize", "--input"), ("verify", "--input"), ("transfer", "--input"),
                   ("transfer", "--embedding"), ("cep", "--input")]

    @staticmethod
    def argv_with_bad_file(tmp_path, command, option, content):
        """``command`` with its file ``option`` holding ``content`` (no file
        when ``None``). Every other input file is good, so an error line is
        about this one."""
        write_json(tmp_path / "realization.json", realized_chain(tmp_path))
        files = {"--input": tmp_path / "realization.json", "--embedding": tmp_path / "e.json"}
        write_json(files["--embedding"], IDENTITY_EMBEDDING)
        bad = files[option] = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content, encoding="utf-8")
        argv = [command]
        for name in ("--input", "--embedding") if command == "transfer" else ("--input",):
            argv += [name, str(files[name])]
        return argv + (["--scan"] if command == "cep" else ["--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command,option", INPUT_FILES)
    @pytest.mark.parametrize("content", [None, "not json {"], ids=["missing", "not-json"])
    def test_unreadable_input_file(self, tmp_path, capsys, command, option, content):
        argv = self.argv_with_bad_file(tmp_path, command, option, content)
        capsys.readouterr()
        self.assert_input_error(argv, capsys)

    @pytest.mark.parametrize("command,option", INPUT_FILES)
    def test_deeply_nested_input_file(self, tmp_path, capsys, command, option):
        # json.load runs out of stack on this text before any field is read
        argv = self.argv_with_bad_file(tmp_path, command, option,
                                       "[" * 100_000 + "]" * 100_000)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input nests too deeply") and err.count("\n") == 1

    @pytest.mark.parametrize("command,claim", [
        ("verify", lambda r: with_relators_field(
            with_vertex_field(r, "u", "rank", 10**6), "u", "rank", 10**6)),
        ("cep", lambda r: {"order": 10**6, "table": [[0]]}),
    ], ids=["quotient-rank", "group-order"])
    def test_claimed_size_allocates_nothing(self, tmp_path, capsys, command, claim):
        # a file of a few hundred bytes claims a million generators or
        # elements; the claim is refuted before anything of that size is built
        inp = tmp_path / "claim.json"
        write_json(inp, claim(realized_chain(tmp_path)))
        argv = [command, "--input", str(inp)]
        argv += ["--scan"] if command == "cep" else ["--out", str(tmp_path / "o")]
        capsys.readouterr()
        tracemalloc.start()
        try:
            self.assert_input_error(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_cep_table_and_generators(self, tmp_path, capsys):
        inp = tmp_path / "g.json"
        write_json(inp, {"order": 2, "table": [[0, 1], [1, 0]], "degree": 3,
                         "generators": ["(1 2 3)"]})
        assert main(["cep", "--input", str(inp), "--scan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "'table'" in captured.err and "'generators'" in captured.err


class TestUnusableOut:
    """An `--out` that names a file, or a path under one, exits 2 with one
    `error:` line and leaves the file as it was."""

    @pytest.mark.parametrize("command", [
        ["realize", "--input", "dag.json"],
        ["verify", "--input", "realization.json"],
        ["cep", "--group", "s3", "--scan"],
        ["demo", "sec3-counterexample"],
        ["demo", "s4-d4-cep"],
        ["transfer", "--input", "realization.json", "--embedding", "emb.json"],
    ], ids=["realize", "verify", "cep-scan", "demo-sec3", "demo-s4-d4", "transfer"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_exits_two(self, tmp_path, capsys, monkeypatch, command, under):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "dag.json", chain_dag())
        (tmp_path / "realization.json").write_text(
            realizer.realization_to_text(realize(dagmod.from_json(chain_dag()))),
            encoding="utf-8")
        write_json(tmp_path / "emb.json",
                   {"alphabet_rank": 4, "relators": [], "basis": ["x1", "x2", "x3", "x4"]})
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        out = taken / "sub" if under else taken
        assert main(command + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert taken.read_text(encoding="utf-8") == "keep\n"


class TestCepCommand:
    def test_s4_d4_query(self, tmp_path, capsys):
        code = main(["cep", "--group", "s4", "--subgroup", "(1 2 3 4)", "(1 3)",
                     "--out", str(tmp_path)])
        assert code == 0
        result = json.loads((tmp_path / "cep.json").read_text())
        assert result["is_cep"] is False
        assert "violation" in result

    def test_scan_builtin(self, capsys):
        assert main(["cep", "--group", "s3", "--scan"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["transitivity_scan"]["violations"] == []

    def test_needs_group_or_input(self, capsys):
        assert main(["cep", "--scan"]) == 2

    def test_group_and_input_are_exclusive(self, tmp_path, capsys):
        inp = tmp_path / "g.json"
        write_json(inp, {"degree": 3, "generators": ["(1 2)", "(1 2 3)"]})
        assert main(["cep", "--group", "s4", "--input", str(inp), "--scan"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_max_s_exits_two(self, capsys):
        argv = ["cep", "--group", "s4", "--subgroup", "(1 2 3 4)", "(1 3)", "--max-s", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-s must be >= 0\n"

    def test_max_s_needs_subgroup(self, capsys):
        assert main(["cep", "--group", "s4", "--max-s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-s needs --subgroup\n"

    # sha256 of cep.json as written by the exhaustive-closure lattice this
    # package used to have; a5, s4xc2 and s5 were loaded from the same generators
    # with --input, with the group label set to the builtin name
    SCAN_SHA256 = {
        "c2xc2": "aa3dee94294c6a2273d4f6c1234e51b6810970814eeea45ce373f142ccb86e2c",
        "d4": "86c3dac54dea33a600c752c84021319ca4add6eea2fb63d01b060e3ca7efafb1",
        "q8": "d8c595abc43ea7ae4c0a2d2bdbff49abd4f3087f3c514516b5c023a983dd5a89",
        "s3": "1a765f8d6637444fe768a11d5bb4424880f380f6a563c4c728eb869f65715305",
        "a4": "20c2008815ead2e6eccd903dc345e6057362fd8b436f8b54955f532655637b14",
        "s4": "429e7cf09620d4176102bd244896c6547163da1dd4c8ed12863da3b2ee0383a0",
        "a5": "e40c1e0252f406fbca51fd8ed3e311f659c2ad8564232358f558c09a24d66df4",
        "s4xc2": "d33f2226bba845c388ce0dd68f88d0deb44535bd34c5273ab60e1048c27555be",
        "s5": "474c51882c7185d53469be4d485f05eae655095240b086ffe856132475f423dd",
    }

    @pytest.mark.parametrize("name", sorted(SCAN_SHA256))
    def test_scan_bytes_pinned(self, tmp_path, capsys, name):
        assert main(["cep", "--group", name, "--scan", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "cep.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SCAN_SHA256[name]

    def test_every_builtin_scan_is_pinned(self):
        assert set(self.SCAN_SHA256) == set(ceplab.builtin_names())

    # sha256 of cep.json without "group", re-encoded as cep.json, for the
    # permutation files the cep_scan benchmark loads with seed 0
    INPUT_SCAN_SHA256 = {
        "a5": "e26991cba59f99bfbe04388ebafb6e54cd37824a1da50096ea0337baf64ac768",
        "s4xc2": "31142a00e1f027f6321e3874e00fb3d6528354509d58a2655ac2a50005a765e4",
    }

    @staticmethod
    def scan_input(tmp_path, group, out) -> dict:
        inp = tmp_path / f"{out}.json"
        write_json(inp, group)
        assert main(["cep", "--input", str(inp), "--scan", "--out", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "cep.json").read_text())

    @pytest.mark.parametrize("name", sorted(INPUT_SCAN_SHA256))
    def test_input_scan_bytes_pinned(self, tmp_path, capsys, name):
        degree, gens = relabelled_generators(name, 0)
        result = self.scan_input(tmp_path, {"degree": degree, "generators": gens}, name)
        del result["group"]
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.INPUT_SCAN_SHA256[name]

    def test_claimed_degree_costs_nothing(self, tmp_path, capsys):
        # points no generator moves are left out of the group's permutations
        small = self.scan_input(tmp_path, {"degree": 2, "generators": ["(1 2)"]}, "small")
        tracemalloc.start()
        try:
            big = self.scan_input(tmp_path, {"degree": 10**9, "generators": ["(1 2)"]}, "big")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert {**big, "group": None} == {**small, "group": None}

    def test_point_beyond_claimed_degree(self, tmp_path, capsys):
        inp = tmp_path / "g.json"
        write_json(inp, {"degree": 10**9, "generators": ["(1 2)", f"(1 {10**9 + 1})"]})
        assert main(["cep", "--input", str(inp), "--scan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad cycle (1 {10**9 + 1}) for degree {10**9}\n"

    @pytest.mark.parametrize("argv,sha256", [
        (["--group", "s4", "--subgroup", "(1 2 3 4)", "(1 3)", "--max-s", "1"],
         "40b60e8551a3934ab80622b3bac73d20fd127473b6aa139850dfb63287e5ec8d"),
        (["--group", "s4", "--subgroup", "(1 2)(3 4)", "(1 3)(2 4)", "--max-s", "2"],
         "3b158e84b62d929537f622b392a937320d848377a7a78ce518c4980681f8f99f"),
        (["--group", "a4", "--subgroup", "(1 2)(3 4)", "--max-s", "1"],
         "ce6a8f36280e9606cfb1ba1ef903684eb657fdb3ee03690834634758e705d9d7"),
    ], ids=["s4-d4", "s4-klein", "a4-c2"])
    def test_query_bytes_pinned(self, tmp_path, capsys, argv, sha256):
        main(["cep", *argv, "--out", str(tmp_path)])
        data = (tmp_path / "cep.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_query_after_scan_matches_query_alone(self, tmp_path, capsys, monkeypatch):
        # after the scan every closure in G is read off G's normal-subgroup
        # list, with no conjugation search, and the query's fields are those
        # of the pinned s4-d4 query
        query = ["--group", "s4", "--subgroup", "(1 2 3 4)", "(1 3)", "--max-s", "1"]
        assert main(["cep", *query, "--out", str(tmp_path / "alone")]) == 0
        alone = json.loads((tmp_path / "alone" / "cep.json").read_text())
        is_cep_finite = ceplab.is_cep_finite

        def without_conjugation_search(g, h):
            g._normal_closures.clear()  # what the scan memoized is not read

            def no_join(*args):
                raise AssertionError("normal closure computed by a conjugation search")

            with monkeypatch.context() as m:
                m.setattr(ceplab, "_join", no_join)
                return is_cep_finite(g, h)

        monkeypatch.setattr(ceplab, "is_cep_finite", without_conjugation_search)
        assert main(["cep", *query, "--scan", "--out", str(tmp_path / "scanned")]) == 0
        scanned = json.loads((tmp_path / "scanned" / "cep.json").read_text())
        assert scanned["transitivity_scan"]["violations"] == []
        for key in ("subgroup", "is_cep", "violation", "almost_cep_witness"):
            assert scanned[key] == alone[key]

    def test_unknown_subgroup_element(self):
        assert main(["cep", "--group", "s3", "--subgroup", "(9 9)"]) == 2

    def test_unknown_subgroup_element_stops_before_the_scan(self, tmp_path, capsys,
                                                            monkeypatch):
        def refuse(g):
            raise AssertionError("scanned a group whose subgroup cannot be built")

        monkeypatch.setattr(ceplab, "cep_transitivity_scan", refuse)
        out = tmp_path / "out"
        code = main(["cep", "--group", "s3", "--scan", "--subgroup", "(9 9)", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: no element named '(9 9)'\n")
        assert list(out.iterdir()) == []


class TestDemoCommand:
    def test_counterexample_demo(self, tmp_path):
        code = main(["demo", "sec3-counterexample", "--out", str(tmp_path)])
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["kind"] == "cep-counterexample"
        transcript = (tmp_path / "transcript.txt").read_text()
        assert "pass" in transcript

    def test_counterexample_certificate_bytes_pinned(self, tmp_path):
        # sha256 of certificate.json from the inline-trace encoder this
        # package had before inclusion traces went by reference
        assert main(["demo", "sec3-counterexample", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "certificate.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "0d2873e59b7683b03307ed2e8cd697d1d555ad7250b28eaa6671a568d3bf6024")

    def test_counterexample_certificate_matches_reference(self, tmp_path):
        assert main(["demo", "sec3-counterexample", "--out", str(tmp_path)]) == 0
        want = reference_certificate_to_json(ceplab.free_counterexample_demo())
        assert want["traces"] and want["word_facts"]
        text = (tmp_path / "certificate.json").read_text(encoding="utf-8")
        assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_s4_d4_demo(self, tmp_path):
        code = main(["demo", "s4-d4-cep", "--out", str(tmp_path)])
        assert code == 0
        result = json.loads((tmp_path / "cep_violation.json").read_text())
        assert result["is_cep"] is False and result["recheck"] is True

    def test_s4_d4_recheck_does_not_read_the_closure_memo(self, tmp_path, monkeypatch):
        # a wrong ambient closure planted where is_cep_finite memoizes it: the
        # recheck must recompute the closure and catch the wrong intersection
        g, h = ceplab.d4_in_s4()
        whole = frozenset(range(g.order))
        seed = ceplab.subgroup_generated(g, {g.names.index("(1 3)(2 4)")}).elements
        g._normal_closures[whole, seed] = whole
        monkeypatch.setattr(ceplab, "d4_in_s4", lambda: (g, h))
        assert main(["demo", "s4-d4-cep", "--out", str(tmp_path)]) == 1
        result = json.loads((tmp_path / "cep_violation.json").read_text())
        assert result["recheck"] is False

    def test_unknown_demo_name(self, tmp_path, capsys):
        assert main(["demo", "no-such-demo", "--out", str(tmp_path)]) == 2


class TestCanonicalTraffic:
    """A canonical realization needs no Smith normal form, no lamplighter
    product and no scheme member: ``realize`` and ``verify`` exit 0 with all
    three made to raise."""

    @pytest.mark.parametrize("seed,edge_prob", [(1, 0.05), (2, 0.3), (3, 0.5)])
    def test_general_paths_unused(self, tmp_path, monkeypatch, seed, edge_prob):
        d = dagmod.random_colored_dag(12, random.Random(seed), edge_prob)
        assert set(d.color.values()) == {0, 1}
        inp = tmp_path / "dag.json"
        write_json(inp, dagmod.to_json(d))

        def general(*args):
            raise AssertionError("a canonical realization took a general path")

        monkeypatch.setattr(snf, "smith_normal_form", general)
        monkeypatch.setattr(quotients, "lamp_mul", general)
        monkeypatch.setattr(quotients.CommutatorScheme, "member", general)
        out = tmp_path / "out"
        assert main(["realize", "--input", str(inp), "--out", str(out), "--bound", "5"]) == 0
        assert main(["verify", "--input", str(out / "realization.json"),
                     "--out", str(tmp_path / "again"), "--bound", "5"]) == 0


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_calls_share_no_state(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        inp = tmp_path / "dag.json"
        write_json(inp, chain_dag())
        assert main(["realize", "--input", str(inp), "--out", str(tmp_path / "a"), "--dot"]) == 0
        assert main(["realize", "--input", str(inp), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "dag.dot").is_file()
        assert not (tmp_path / "b" / "dag.dot").exists()
        query = ["cep", "--group", "s4", "--subgroup", "(1 2 3 4)", "(1 3)"]
        capsys.readouterr()
        assert main(query + ["--max-s", "1"]) == 0
        assert "almost_cep_witness" in json.loads(capsys.readouterr().out)
        assert main(query) == 0
        assert "almost_cep_witness" not in json.loads(capsys.readouterr().out)
        for _ in range(2):
            assert main(["realize", "--input", str(inp)]) == 2
            assert main(["verify", "--input", str(inp), "--out", str(tmp_path / "c"),
                         "--bound", "x"]) == 2
            assert main(["cep", "--group", "nope"]) == 2
        assert main(["cep", "--group", "s3", "--scan"]) == 0


def test_dot_output_parses_as_graph(tmp_path):
    # syntactic smoke check on the emitted DOT: balanced braces, one edge
    # statement per closure edge
    inp = tmp_path / "dag.json"
    write_json(inp, chain_dag())
    out = tmp_path / "out"
    main(["realize", "--input", str(inp), "--out", str(out)])
    dot = (out / "lattice.dot").read_text()
    assert dot.count("{") == dot.count("}") == 1
    assert dot.count("->") == 1


def dot_quoted_strings(text):
    """Every double-quoted string of a DOT text, unescaped, after checking
    that each is closed on its own line."""
    strings = []
    for line in text.split("\n"):
        i = 0
        while i < len(line):
            if line[i] != '"':
                i += 1
                continue
            chars, i = [], i + 1
            while i < len(line) and line[i] != '"':
                if line[i] == "\\" and i + 1 < len(line):
                    i += 1
                    chars.append({"n": "\n"}.get(line[i], line[i]))
                else:
                    chars.append(line[i])
                i += 1
            assert i < len(line), f"unclosed quoted string in {line!r}"
            strings.append("".join(chars))
            i += 1
    return strings


def test_dot_escapes_vertex_ids(tmp_path):
    ids = ['a"b', "back\\slash", "new\nline"]
    edges = [(ids[0], ids[1]), (ids[1], ids[2])]
    inp = tmp_path / "dag.json"
    write_json(inp, {"vertices": [{"id": v, "color": i % 2} for i, v in enumerate(ids)],
                     "edges": edges})
    out = tmp_path / "out"
    assert main(["realize", "--input", str(inp), "--out", str(out), "--dot"]) == 0
    # lattice.dot draws the transitive closure
    closed = sorted(edges + [(ids[0], ids[2])])
    for name, order, pairs in (("dag.dot", ids, edges), ("lattice.dot", sorted(ids), closed)):
        text = (out / name).read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0].endswith("{") and lines[-2:] == ["}", ""]
        strings = dot_quoted_strings(text)
        # a node name and its label per vertex, then two names per edge
        nodes, ends = strings[:2 * len(ids)], strings[2 * len(ids):]
        assert nodes[::2] == order
        for v, label in zip(order, nodes[1::2]):
            assert label.startswith(f"{v} (c=")
        assert list(zip(ends[::2], ends[1::2])) == pairs


def test_readme_cli_block_names_every_option():
    # the README's CLI block: each subcommand's lines and the comment lines
    # right under them name every option that subcommand takes
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    missing = []
    for name, parser in commands.choices.items():
        named, under = [], False
        for line in lines:
            under = line.startswith(f"dagquot {name} ") or (under and line.startswith("#"))
            if under:
                named.append(line)
        text = "\n".join(named)
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction) and not any(
                    re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)
                    for o in action.option_strings):
                missing.append(f"{name} {action.option_strings[0]}")
    assert missing == []


def test_module_entry_point_exit_codes(tmp_path):
    # ``python -m dagquot.cli`` exits with the code ``main`` returns
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "dagquot.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120)

    demo = run("demo", "s4-d4-cep", "--out", tmp_path / "demo")
    assert (demo.returncode, demo.stderr) == (0, "")
    assert (tmp_path / "demo" / "cep_violation.json").is_file()
    write_json(tmp_path / "dag.json", chain_dag())
    bad = run("realize", "--bound", "0", "--input", tmp_path / "dag.json",
              "--out", tmp_path / "real")
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, "", "error: --bound must be >= 1\n")


def test_every_subcommand_clean_under_dev_mode(tmp_path):
    # dev mode shows what a default run hides (an unclosed file, a
    # deprecated call), and -W error turns each warning into a failure
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    write_json(tmp_path / "dag.json", chain_dag())
    write_json(tmp_path / "e.json", IDENTITY_EMBEDDING)
    write_json(tmp_path / "g.json", {"degree": 3, "generators": ["(1 2)", "(1 2 3)"]})
    real, out = tmp_path / "real", tmp_path / "out"
    runs = [
        ["realize", "--input", tmp_path / "dag.json", "--out", real, "--dot"],
        ["verify", "--input", real / "realization.json", "--out", out, "--dot"],
        ["transfer", "--input", real / "realization.json", "--embedding", tmp_path / "e.json",
         "--out", out],
        ["cep", "--input", tmp_path / "g.json", "--scan", "--out", out],
        ["demo", "sec3-counterexample", "--out", out],
        ["demo", "s4-d4-cep", "--out", out],
    ]
    for argv in runs:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "dagquot.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert (argv[0], done.returncode, done.stderr) == (argv[0], 0, "")

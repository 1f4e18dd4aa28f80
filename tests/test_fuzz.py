"""Seeded mutation fuzzing of every JSON file the CLI reads.

Each case takes a valid input (a DAG, a realization, an embedding or a
group), applies one to three mutations (one in half the cases), writes it, and runs ``cli.main``
in-process. A mutation replaces one value anywhere in the document (the
whole document included) with null, a boolean, an integer, a float, a
string, an array or an object, or deletes one key or array item. Whatever
the input, the run must exit 0, 1 or 2 without an exception, and exit 2
must print exactly one ``error:`` line.

A deterministic pass swaps the type of every integer field of a realization
(a boolean, the same number as a float or as a decimal string). Each swap
must exit 2 with one ``error:`` line: no loader may take it for the number.
"""

import json
import random

import pytest

from dagquot.cli import main

REPLACEMENTS = (None, True, False, 0, 1, -1, 3, 2.5, -0.5, "", "x1", "1", "(1 2)", "identity",
                [], [0], ["x1"], [[0, 1]], {}, {"leaf": 0, "value": 1}, {"rank": 2})

DAG = {
    "vertices": [{"id": "a", "color": 0}, {"id": "b", "color": 1},
                 {"id": "c", "color": 0}, {"id": "d", "color": 1}],
    "edges": [["a", "b"], ["a", "c"], ["b", "d"]],
}
CHAIN = {"vertices": [{"id": "u", "color": 0}, {"id": "w", "color": 1}], "edges": [["u", "w"]]}
EMBEDDING = {"alphabet_rank": 2, "relators": ["x1 x2 x1^-1 x2^-1"],
             "basis": ["x1", "x2 x1 x2^-1", "x2 x2", "x1 x2"], "note": "fuzz"}
TABLE_GROUP = {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
               "names": ["e", "a", "b", "ab"]}
PERMUTATION_GROUP = {"degree": 3, "generators": ["(1 2)", "(1 2 3)"]}

CASES_PER_SEED = 100


def locations(doc, path=()):
    """The path of every value in ``doc``, ``()`` for the document itself."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from locations(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from locations(value, path + (i,))


def value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutate(doc, rng: random.Random):
    """``doc`` with one value replaced, or one key or array item deleted.
    Half the replacements copy another value of the same JSON type from the
    document, which keeps more mutants past the loaders."""
    paths = list(locations(doc))
    path = rng.choice(paths)
    if rng.random() < 0.5:
        kind = type(value_at(doc, path))
        source = value_at(doc, rng.choice(
            [p for p in paths if type(value_at(doc, p)) is kind]))
    else:
        source = rng.choice(REPLACEMENTS)
    new = json.loads(json.dumps(source))
    if not path:
        return new
    parent = value_at(doc, path[:-1])
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def realization_of(tmp_path, dag) -> dict:
    src = tmp_path / "src.json"
    src.write_text(json.dumps(dag), encoding="utf-8")
    assert main(["realize", "--input", str(src), "--out", str(tmp_path / "base")]) == 0
    return json.loads((tmp_path / "base" / "realization.json").read_text())


def run_mutants(tmp_path, capsys, seed: int, inputs: dict, argv: list[str]) -> None:
    """Mutate one of ``inputs`` (file name -> document) per case, write all
    of them to ``tmp_path`` and run ``argv``."""
    rng = random.Random(seed)
    texts = {name: json.dumps(doc) for name, doc in inputs.items()}
    for case in range(CASES_PER_SEED):
        target = rng.choice(sorted(texts))
        doc = json.loads(texts[target])
        for _ in range(rng.choice((1, 1, 2, 3))):
            doc = mutate(doc, rng)
        for name, text in texts.items():
            (tmp_path / name).write_text(json.dumps(doc) if name == target else text,
                                         encoding="utf-8")
        capsys.readouterr()
        where = f"seed {seed} case {case}: {target} = {json.dumps(doc)}"
        try:
            code = main(argv)
        except Exception as exc:  # the report names the mutant that raised
            pytest.fail(f"{where}\nraised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), where
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, f"{where}\n{err}"


@pytest.mark.parametrize("seed", range(4))
def test_realize_dag(tmp_path, capsys, seed):
    run_mutants(tmp_path, capsys, seed, {"dag.json": DAG},
                ["realize", "--input", str(tmp_path / "dag.json"), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("seed", range(6))
def test_verify_realization(tmp_path, capsys, seed):
    realization = realization_of(tmp_path, DAG)
    run_mutants(tmp_path, capsys, seed, {"r.json": realization},
                ["verify", "--input", str(tmp_path / "r.json"), "--out", str(tmp_path / "o"),
                 "--dot"])


@pytest.mark.parametrize("seed", range(4))
def test_transfer_embedding(tmp_path, capsys, seed):
    realization = realization_of(tmp_path, CHAIN)
    run_mutants(tmp_path, capsys, seed, {"r.json": realization, "e.json": EMBEDDING},
                ["transfer", "--input", str(tmp_path / "r.json"),
                 "--embedding", str(tmp_path / "e.json"), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("dag", [CHAIN, DAG], ids=["chain", "dag"])
def test_realization_integer_type_swaps(tmp_path, capsys, dag):
    realization = realization_of(tmp_path, dag)
    text = json.dumps(realization)
    ints = [p for p in locations(realization) if type(value_at(realization, p)) is int]
    assert ints
    path = tmp_path / "r.json"
    for loc in ints:
        n = value_at(realization, loc)
        for swap in (True, False, float(n), str(n)):
            doc = json.loads(text)
            value_at(doc, loc[:-1])[loc[-1]] = swap
            path.write_text(json.dumps(doc), encoding="utf-8")
            capsys.readouterr()
            code = main(["verify", "--input", str(path), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            where = f"{'.'.join(map(str, loc))} = {json.dumps(swap)}: exit {code}\n{err}"
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, where


@pytest.mark.parametrize("group", [TABLE_GROUP, PERMUTATION_GROUP], ids=["table", "permutations"])
@pytest.mark.parametrize("seed", range(3))
def test_cep_group(tmp_path, capsys, seed, group):
    run_mutants(tmp_path, capsys, seed, {"g.json": group},
                ["cep", "--input", str(tmp_path / "g.json"), "--scan"])

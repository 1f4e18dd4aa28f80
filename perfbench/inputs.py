"""Seeded inputs for the benchmark: colored DAGs, stored realizations and
permutation groups.

The DAG generator is the benchmark's own; it draws from the distribution of
``dagquot.dag.random_colored_dag`` (edges oriented along a random
permutation, each kept with probability ``edge_prob``, uniform 0/1 colors).
Each DAG workload draws from a fixed pool of DAGs so that the bytes of every
realization can be pinned (``pins.json``); the run seed picks the order in
which the pool is visited.
"""

from __future__ import annotations

import hashlib
import json
import random

DAG_ORDER = 40
POOL_SIZE = 64

# Open item 2 of the roadmap: "1 -> 2", both vertices color 0.
TAMPER_DAG = {
    "vertices": [{"id": "1", "color": 0}, {"id": "2", "color": 0}],
    "edges": [["1", "2"]],
}

CEP_BUILTINS = ("s3", "c2xc2", "d4", "q8", "a4", "s4")
CEP_PERMUTATION_GROUPS = {
    "s4xc2": (6, ("(1 2 3 4)", "(1 2)", "(5 6)")),
    "a5": (5, ("(1 2 3)", "(1 2 3 4 5)")),
}


def random_dag(order: int, edge_prob: float, rng: random.Random) -> dict:
    """A colored DAG as the program's input JSON."""
    ids = [str(i) for i in range(1, order + 1)]
    perm = ids[:]
    rng.shuffle(perm)
    rank = {v: i for i, v in enumerate(perm)}
    edges = [
        (u, v) for u in ids for v in ids if rank[u] < rank[v] and rng.random() < edge_prob
    ]
    color = {v: rng.randint(0, 1) for v in ids}
    return {
        "vertices": [{"id": v, "color": color[v]} for v in ids],
        "edges": [[u, v] for u, v in sorted(edges)],
    }


def pool_dag(workload: str, index: int, edge_prob: float) -> dict:
    return random_dag(DAG_ORDER, edge_prob, random.Random(f"{workload}/{index}"))


def pool_order(seed: int) -> list[int]:
    return random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)


def realization_text(dagmod, realizer, dag_json: dict) -> str:
    """``realization.json`` as ``dagquot realize`` writes it, built with the
    program's own ``realize``."""
    r = realizer.realize(dagmod.from_json(dag_json))
    return json.dumps(realizer.realization_to_json(r), indent=2, sort_keys=True) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def relabel(cycles: str, sigma: dict[int, int]) -> str:
    """Rename the points of a permutation in cycle notation."""
    out = []
    for cycle in cycles.strip("()").split(")("):
        out.append("(" + " ".join(str(sigma[int(p)]) for p in cycle.split()) + ")")
    return "".join(out)


def cep_groups(rng: random.Random) -> list[tuple[str, int, list[str] | None]]:
    """The groups of one scan pass, in a seeded order. Builtins carry no
    generators; the two permutation groups get their points renamed by a
    seeded permutation, which gives an isomorphic group with a different
    element numbering."""
    groups: list[tuple[str, int, list[str] | None]] = [
        (name, 0, None) for name in CEP_BUILTINS
    ]
    for name, (degree, gens) in CEP_PERMUTATION_GROUPS.items():
        points = list(range(1, degree + 1))
        sigma = dict(zip(points, rng.sample(points, degree)))
        renamed = [relabel(g, sigma) for g in gens]
        rng.shuffle(renamed)
        groups.append((name, degree, renamed))
    rng.shuffle(groups)
    return groups

"""Answers the benchmark knows without the program: reachability of its own
DAGs, the entries a correct ``report.json`` must hold, and subgroup lattices
of small permutation groups. Nothing here imports ``dagquot``."""

from __future__ import annotations

from collections import Counter

# Hand-written subgroup counts; they check the lattice code below.
SUBGROUP_COUNTS = {
    "s3": 6, "c2xc2": 5, "d4": 10, "q8": 6, "a4": 10, "s4": 30, "s4xc2": 98, "a5": 59,
}
GROUP_ORDERS = {
    "s3": 6, "c2xc2": 4, "d4": 8, "q8": 8, "a4": 12, "s4": 24, "s4xc2": 48, "a5": 60,
}
# Permutation groups isomorphic to the program's builtins (q8 acts regularly).
BUILTIN_PERMUTATIONS = {
    "s3": (3, ("(1 2)", "(1 2 3)")),
    "c2xc2": (4, ("(1 2)", "(3 4)")),
    "d4": (4, ("(1 2 3 4)", "(1 3)")),
    "q8": (8, ("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")),
    "a4": (4, ("(1 2 3)", "(2 3 4)")),
    "s4": (4, ("(1 2)", "(1 2 3 4)")),
}


def reachable_pairs(dag_json: dict) -> set[tuple[str, str]]:
    """Ordered pairs (u, v), u != v, joined by a directed path."""
    succ: dict[str, list[str]] = {v["id"]: [] for v in dag_json["vertices"]}
    for u, v in dag_json["edges"]:
        succ[u].append(v)
    pairs = set()
    for root in succ:
        seen = {root}
        stack = [root]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        pairs.update((root, w) for w in seen if w != root)
    return pairs


def report_problems(report: dict, ids: list[str], reach: set[tuple[str, str]]) -> list[str]:
    """Differences between ``report.json`` and what a correct verification
    of a realization of this DAG reports."""
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    if report.get("counts", {}).get("inconclusive") != 0:
        problems.append(f"{report.get('counts', {}).get('inconclusive')} inconclusive")
    subjects: dict[str, list[tuple[str, ...]]] = {}
    for e in report.get("entries", ()):
        subjects.setdefault(e["check"], []).append(tuple(e["subject"]))
        if e["status"] != "pass":
            problems.append(f"{e['check']} {e['subject']}: {e['status']}")
    ordered = {(u, v) for u in ids for v in ids if u != v}
    expected = {
        "inclusion": Counter(reach),
        "separation": Counter(ordered - reach),
        "distinctness": Counter(tuple(sorted(p)) for p in ordered if p[0] < p[1]),
        "color": Counter((v,) for v in ids),
        "abelianization": Counter((v,) for v in ids),
    }
    for check in sorted(set(expected) | set(subjects)):
        got = Counter(tuple(sorted(s)) if check == "distinctness" else s
                      for s in subjects.get(check, ()))
        want = expected.get(check, Counter())
        if got != want:
            problems.append(
                f"{check}: {sum(got.values())} entries, expected {sum(want.values())}"
                f" ({len(got - want)} unexpected, {len(want - got)} missing)"
            )
    return problems


def _permutation(cycles: str, degree: int) -> tuple[int, ...]:
    image = list(range(degree))
    for cycle in cycles.strip("()").split(")("):
        points = [int(p) - 1 for p in cycle.split()]
        for i, p in enumerate(points):
            image[p] = points[(i + 1) % len(points)]
    return tuple(image)


def subgroup_lattice(degree: int, generators) -> tuple[int, list[int]]:
    """Group order and every subgroup as a bitmask over the elements, found
    by joining cyclic subgroups, starting from the trivial subgroup."""
    gens = [_permutation(g, degree) for g in generators]
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    for p in elements:  # grows while iterating: breadth-first closure
        for g in gens:
            q = tuple(g[p[i]] for i in range(degree))
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    table = [[index[tuple(b[a[i]] for i in range(degree))] for b in elements] for a in elements]

    def generated(gen_ids) -> int:
        mask, frontier = 1, [0]
        while frontier:
            x = frontier.pop()
            for g in gen_ids:
                y = table[x][g]
                if not mask >> y & 1:
                    mask |= 1 << y
                    frontier.append(y)
        return mask

    cyclic = {}
    for x in range(len(elements)):
        cyclic.setdefault(generated([x]), x)
    found = {1: []}
    worklist = [1]
    while worklist:
        h = worklist.pop()
        for c_mask, c_gen in cyclic.items():
            if c_mask & ~h:
                gens_j = found[h] + [c_gen]
                j = generated(gens_j)
                if j not in found:
                    found[j] = gens_j
                    worklist.append(j)
    return len(elements), list(found)


def chain_count(subgroups: list[int]) -> int:
    """Pairs H <= K of subgroups: the chains a transitivity scan visits."""
    return sum(1 for k in subgroups for h in subgroups if h & ~k == 0)

import importlib.util
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dagquot import dag as dagmod
from dagquot.ceplab import (
    FiniteGroup,
    Subgroup,
    _is_prime_power,
    _read_cycles,
    builtin_group,
    normal_closure_in,
    subgroup_from_generator_names,
)
from dagquot.dag import ColoredDag, CycleFoundError, DagError, validate
from dagquot.quotients import (
    LAMP_IDENTITY,
    CommutatorScheme,
    FreeOfRank,
    GroupExpr,
    IdentityImage,
    InfiniteCyclic,
    LampElem,
    Lamplighter,
    MarkedQuotient,
    NormalForm,
    QuotientModelError,
    RelatorSet,
    TrivialGroup,
    _lamps_from_dict,
    _push_syllable,
    lamp_mul,
)
from dagquot.realizer import CepEmbedding, Realization
from dagquot.snf import IntMatrix
from dagquot.verifier import Certificate, EvalTrace, Report, check_certificate_detailed
from dagquot.words import (
    Hom,
    RankMismatchError,
    Word,
    format_word,
    generator,
    reduce as reduce_word,
)

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def load_bench_inputs():
    """The benchmark's seeded input generators, loaded without changing them."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_raw_letters(rng: random.Random, rank: int, length: int):
    return [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length)]


def random_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    return reduce_word(random_raw_letters(rng, rank, rng.randint(0, max_len)), rank)


@pytest.fixture
def rng():
    return random.Random(0)


# ---------------------------------------------------------------------------
# reference operations the tests check the package against


def nf_mul(q: MarkedQuotient, n1: NormalForm, n2: NormalForm) -> NormalForm:
    """Product of two normal forms of q."""
    lvs = q.leaf_list
    syls = list(n1.syllables)
    for leaf_idx, payload in n2.syllables:
        _push_syllable(syls, lvs, leaf_idx, payload)
    return NormalForm(tuple(syls))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a or not b:
        return []
    assert len(a[0]) == len(b), "inner dimensions must agree"
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_det(a: IntMatrix) -> int:
    """Exact determinant by Gaussian elimination over ``Fraction``."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def identity_hom(rank: int) -> Hom:
    return Hom(rank, rank, tuple(generator(rank, i) for i in range(1, rank + 1)))


def lamp_inv(x: LampElem) -> LampElem:
    s, f = x
    return (-s, _lamps_from_dict({p - s: -v for p, v in f}))


def lamplighter_eval(w: Word) -> tuple[int, dict[int, int]]:
    """Image of a rank-2 word under lamp = x1 -> (delta_0, 0), shift = x2 -> (0, +1)."""
    if w.rank != 2:
        raise RankMismatchError("lamplighter_eval expects a rank-2 word")
    lamp: LampElem = (0, ((0, 1),))
    shift: LampElem = (1, ())
    acc = LAMP_IDENTITY
    for idx, sign in w.letters:
        img = lamp if idx == 1 else shift
        acc = lamp_mul(acc, img if sign > 0 else lamp_inv(img))
    return acc[0], dict(acc[1])


def maximal_vertices(d: ColoredDag) -> list[str]:
    """Vertices with no outgoing edges, sorted by id; nonempty when d is."""
    if not d.vertices:
        raise DagError("empty DAG has no maximal vertex")
    return sorted(v for v in d.vertices if not d.successor_map.get(v))


def enumerate_colored_dags(order: int, cap: int = 3):
    """Every labeled simple DAG on vertices '1'..'<order>' with every coloring."""
    if order > cap:
        raise DagError(f"order {order} exceeds enumeration cap {cap}")
    ids = [str(i) for i in range(1, order + 1)]
    pairs = [(u, v) for u in ids for v in ids if u != v]
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        d = ColoredDag(tuple(ids), edges, {v: 0 for v in ids})
        try:
            validate(d)
        except CycleFoundError:
            continue
        for colors in itertools.product((0, 1), repeat=order):
            yield ColoredDag(tuple(ids), edges, dict(zip(ids, colors)))


def normal_closure_finite(g: FiniteGroup, seed) -> Subgroup:
    return Subgroup(g, normal_closure_in(g, frozenset(range(g.order)), seed))


def reference_closure(g: FiniteGroup, seed) -> frozenset[int]:
    """The subgroup generated by ``seed``: breadth-first from the identity by
    right multiplication by the seed elements."""
    gens = [s for s in set(seed) if s]
    reached = {0}
    queue = [0]
    for x in queue:  # grows while iterating
        for s in gens:
            y = g.table[x][s]
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return frozenset(reached)


def reference_lattice(g: FiniteGroup, ambient: frozenset[int]) -> list[frozenset[int]]:
    """Every subgroup of ``ambient`` in lattice order, by exhaustive cyclic
    extension: each subgroup found is joined with one generator of every
    cyclic subgroup of ambient, with no conjugation and no zuppo filter."""
    cyclic: dict[frozenset[int], int] = {}
    for x in sorted(ambient):
        cyclic.setdefault(reference_closure(g, (x,)), x)
    trivial = frozenset({0})
    found = {trivial: ()}
    worklist = [trivial]
    while worklist:
        current = worklist.pop()
        gens = found[current]
        for x in cyclic.values():
            if x in current:
                continue
            bigger = reference_closure(g, (*gens, x))
            if bigger <= ambient and bigger not in found:
                found[bigger] = (*gens, x)
                worklist.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def reference_generating_sets(g: FiniteGroup) -> dict[frozenset[int], tuple[int, ...]]:
    """The generating sets ``all_subgroups`` records on a fresh group, in
    the order it records them, by cyclic extension over zuppos one class at
    a time with every join made: the whole group's greedy generating set
    first, then each class representative joined with the least generator
    of every zuppo it does not contain, a new subgroup bringing in its whole
    class by conjugation with the whole group's generators."""
    by: list[int] = []
    reached = frozenset({0})
    for x in range(g.order):
        if x not in reached:
            by.append(x)
            reached = reference_closure(g, by)
    conjugations = [tuple(g.conj(a, x) for a in range(g.order)) for x in by]
    zuppos: dict[frozenset[int], int] = {}
    for x in range(g.order):
        cyclic = reference_closure(g, (x,))
        if len(cyclic) > 1 and _is_prime_power(len(cyclic)):
            zuppos.setdefault(cyclic, x)
    trivial = frozenset({0})
    found = {trivial: ()}
    representatives = [trivial]
    for current in representatives:  # grows while iterating
        gens = found[current]
        for x in zuppos.values():
            if x in current:
                continue
            bigger = reference_closure(g, (*gens, x))
            if bigger in found:
                continue
            found[bigger] = (*gens, x)
            representatives.append(bigger)
            conjugates = [bigger]
            for sub in conjugates:  # grows while iterating
                for conj in conjugations:
                    image = frozenset(conj[a] for a in sub)
                    if image not in found:
                        found[image] = tuple(conj[a] for a in found[sub])
                        conjugates.append(image)
    sets = {reached: tuple(by)}
    for sub, gens in found.items():
        sets.setdefault(sub, gens)
    return sets


# the two permutation groups the cep_scan benchmark loads from files
RELABELLED_GENERATORS = {"s4xc2": (6, ("(1 2 3 4)", "(1 2)", "(5 6)")),
                         "a5": (5, ("(1 2 3)", "(1 2 3 4 5)"))}


def relabelled_generators(name: str, seed: int) -> tuple[int, list[str]]:
    """The degree and generators of the permutation group ``name`` with its
    points renamed by a seeded permutation and its generators shuffled, as
    the benchmark builds them."""
    degree, gens = RELABELLED_GENERATORS[name]
    rng = random.Random(seed)
    points = list(range(1, degree + 1))
    sigma = dict(zip(points, rng.sample(points, degree)))
    renamed = [re.sub(r"\d+", lambda m: str(sigma[int(m.group())]), text) for text in gens]
    rng.shuffle(renamed)
    return degree, renamed


def parse_permutation(text: str, degree: int) -> tuple[int, ...]:
    """Cycle notation, 1-based, as the ``degree``-long tuple of images:
    '(1 2 3)(4 5)' or '()' for the identity."""
    image = _read_cycles(text, degree)
    return tuple(image.get(a, a) for a in range(degree))


def a3_in_s3() -> tuple[FiniteGroup, Subgroup]:
    g = builtin_group("s3")
    return g, subgroup_from_generator_names(g, ["(1 2 3)"])


def check_certificate(r: Realization | None, c: Certificate) -> bool:
    """The verdict of ``check_certificate_detailed`` without its problems."""
    return check_certificate_detailed(r, c)[0]


def embedding_to_json(e: CepEmbedding) -> dict:
    return {
        "alphabet_rank": e.alphabet_rank,
        "relators": [format_word(w) for w in e.ambient_relators],
        "basis": [format_word(w) for w in e.basis_words],
        "note": e.note,
    }


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = c^-1 k c with k cyclically reduced of minimal length.

    Returns (core, conjugator); the identity splits as (identity, identity).
    """
    core = list(w.letters)
    conj = []
    while len(core) >= 2 and core[0][0] == core[-1][0] and core[0][1] == -core[-1][1]:
        conj.insert(0, core[-1])
        core = core[1:-1]
    return Word(w.rank, tuple(core)), Word(w.rank, tuple(conj))


# ---------------------------------------------------------------------------
# reference quotient facts, by evaluation and by walks of their own: these
# share only data types with ``dagquot.quotients``


def _reference_leaf_mul(leaf, p1, p2):
    if isinstance(leaf, InfiniteCyclic):
        return p1 + p2
    if isinstance(leaf, FreeOfRank):
        out = list(p1)
        for idx, sign in p2:
            if out and out[-1] == (idx, -sign):
                out.pop()
            else:
                out.append((idx, sign))
        return tuple(out)
    (s1, f1), (s2, f2) = p1, p2
    lamps = dict(f1)
    for pos, val in f2:
        lamps[pos + s1] = lamps.get(pos + s1, 0) + val
    return s1 + s2, tuple(sorted((p, v) for p, v in lamps.items() if v))


_REFERENCE_LEAF_IDENTITY = {InfiniteCyclic: 0, FreeOfRank: (), Lamplighter: (0, ())}


def reference_eval(q: MarkedQuotient, w: Word) -> NormalForm:
    """The free-product normal form of the image of ``w`` in ``q``, merged
    syllable by syllable with leaf-local arithmetic."""
    if w.rank != q.rank:
        raise RankMismatchError(f"word rank {w.rank} != quotient rank {q.rank}")
    lvs = q.leaf_list
    syls: list[tuple[int, object]] = []
    for idx, sign in w.letters:
        img = q.marking[idx]
        if isinstance(img, IdentityImage):
            continue
        leaf = lvs[img.leaf]
        if isinstance(leaf, InfiniteCyclic):
            payload = img.value * sign
        elif isinstance(leaf, FreeOfRank):
            payload = ((img.value, sign),)
        else:
            payload = (0, ((0, sign),)) if img.value == "lamp" else (sign, ())
        if syls and syls[-1][0] == img.leaf:
            payload = _reference_leaf_mul(leaf, syls.pop()[1], payload)
        if payload != _REFERENCE_LEAF_IDENTITY[type(leaf)]:
            syls.append((img.leaf, payload))
    return NormalForm(tuple(syls))


def reference_scheme_exactness(q: MarkedQuotient, scheme: CommutatorScheme) -> tuple[str, str]:
    """``scheme_exactness`` by evaluation alone: both images first, then
    the structural tests in their order."""
    img_a = reference_eval(q, scheme.a)
    img_t = reference_eval(q, scheme.t)
    if img_a.is_identity:
        return "exact", "a-image-trivial"
    if img_t.is_identity:
        return "exact", "t-image-trivial"
    if (
        len(img_a) == 1
        and len(img_t) == 1
        and img_a.syllables[0][0] == img_t.syllables[0][0]
        and isinstance(q.leaf_list[img_a.syllables[0][0]], Lamplighter)
        and img_a.syllables[0][1][0] == 0
    ):
        return "exact", "abelian-base-zero-shift"
    return "probed", "members checked for i <= bound only"


def reference_generator_mask(rel: RelatorSet) -> int | None:
    """Bit i set when x_i is a finite relator; ``None`` when some finite
    relator is not a single positive generator."""
    mask = 0
    for w in rel.finite_part:
        if len(w.letters) != 1 or w.letters[0][1] != 1:
            return None
        mask |= 1 << w.letters[0][0]
    return mask


def reference_generator_position(rel: RelatorSet) -> dict[int, int]:
    """The first k with ``finite_part[k]`` equal to ``x_i`` or ``x_i^-1``,
    per generator index i of a single-letter finite relator."""
    out: dict[int, int] = {}
    for k, w in enumerate(rel.finite_part):
        if len(w.letters) == 1:
            out.setdefault(w.letters[0][0], k)
    return out


def reference_relator_set_error(rank: int, finite_part, schemes=()) -> tuple[type, str] | None:
    """The type and message of the error ``RelatorSet(rank, finite_part,
    schemes)`` raises: per finite relator its rank, then that it is not the
    identity, then each scheme's rank; ``None`` when the set is valid."""
    for w in finite_part:
        if w.rank != rank:
            return RankMismatchError, f"relator rank {w.rank} != {rank}"
        if w.is_identity:
            return QuotientModelError, "finite relators must be nontrivial"
    for s in schemes:
        if s.rank != rank:
            return RankMismatchError, f"scheme rank {s.rank} != {rank}"
    return None


# ---------------------------------------------------------------------------
# reference serialization: the realization, report and certificate schemas as
# dicts, which json.dumps with sorted keys turns into the bytes the template
# writers produce


def reference_expr_to_json(expr: GroupExpr) -> dict:
    if isinstance(expr, TrivialGroup):
        return {"kind": "trivial"}
    if isinstance(expr, InfiniteCyclic):
        return {"kind": "z"}
    if isinstance(expr, FreeOfRank):
        return {"kind": "free", "rank": expr.rank}
    if isinstance(expr, Lamplighter):
        return {"kind": "lamplighter"}
    return {"kind": "product", "parts": [reference_expr_to_json(p) for p in expr.parts]}


def reference_relators_to_json(r: RelatorSet) -> dict:
    return {
        "rank": r.rank,
        "finite": [format_word(w) for w in r.finite_part],
        "schemes": [{"a": format_word(s.a), "t": format_word(s.t)} for s in r.schemes],
    }


def reference_marking_to_json(marking) -> dict:
    out = {}
    for idx in sorted(marking):
        img = marking[idx]
        if isinstance(img, IdentityImage):
            out[str(idx)] = "identity"
        else:
            out[str(idx)] = {"leaf": img.leaf, "value": img.value}
    return out


def reference_quotient_to_json(q: MarkedQuotient) -> dict:
    return {
        "rank": q.rank,
        "relators": reference_relators_to_json(q.relators),
        "expr": reference_expr_to_json(q.expr),
        "marking": reference_marking_to_json(q.marking),
    }


def reference_realization_to_json(r: Realization) -> dict:
    return {
        "ambient_rank": r.ambient_rank,
        "dag": dagmod.to_json(r.dag),
        "step_index": {v: r.step_index[v] for v in sorted(r.step_index)},
        "vertices": {v: reference_quotient_to_json(q) for v, q in sorted(r.assignment.items())},
    }


def reference_word_to_json(w: Word) -> dict:
    return {"rank": w.rank, "word": format_word(w)}


def reference_nf_to_json(nf: NormalForm) -> list:
    out = []
    for leaf_idx, payload in nf.syllables:
        if isinstance(payload, int):
            out.append({"leaf": leaf_idx, "z": payload})
        elif len(payload) == 2 and isinstance(payload[0], int):
            out.append({"leaf": leaf_idx, "shift": payload[0],
                        "lamps": [[p, v] for p, v in payload[1]]})
        else:
            out.append({"leaf": leaf_idx, "letters": [[i, s] for i, s in payload]})
    return out


def reference_trace_to_json(t: EvalTrace) -> dict:
    return {
        "label": t.label,
        "expected": reference_nf_to_json(t.expected),
        "quotient": {"inline": reference_quotient_to_json(t.quotient)},
        "word": reference_word_to_json(t.word),
    }


def reference_certificate_to_json(c: Certificate) -> dict:
    out: dict = {"kind": c.kind, "subject": list(c.subject), "bound": c.bound}
    out["traces"] = [reference_trace_to_json(t) for t in c.traces]
    out["scheme_coverage"] = [
        {"scheme": sc.scheme_index, "coverage": sc.coverage, "reason": sc.reason}
        for sc in c.scheme_coverage
    ]
    if c.witness is not None:
        out["witness"] = {
            "word": reference_word_to_json(c.witness.word),
            "provenance": c.witness.provenance,
            "image": reference_nf_to_json(c.witness.image),
        }
    if c.color_facts is not None:
        out["color_facts"] = {
            "color": c.color_facts.color,
            "scheme_free": c.color_facts.scheme_free,
            "lamplighter_free": c.color_facts.lamplighter_free,
            "justification": c.color_facts.justification,
        }
    out["word_facts"] = [
        {
            "label": f.label,
            "basis": [reference_word_to_json(w) for w in f.basis],
            "expression": reference_word_to_json(f.expression),
            "target": reference_word_to_json(f.target),
        }
        for f in c.word_facts
    ]
    out["notes"] = list(c.notes)
    return out


def reference_report_to_json(rep: Report) -> dict:
    return {
        "verdict": "pass" if rep.verdict else "fail",
        "bound": rep.bound,
        "elapsed_seconds": round(rep.elapsed, 6),
        "counts": {
            "pass": sum(1 for e in rep.entries if e.status == "pass"),
            "fail": sum(1 for e in rep.entries if e.status == "fail"),
            "inconclusive": sum(1 for e in rep.entries if e.status == "inconclusive"),
        },
        "entries": [
            {
                "check": e.check,
                "subject": list(e.subject),
                "status": e.status,
                "detail": e.detail,
                "certificate": (
                    reference_certificate_to_json(e.certificate) if e.certificate else None
                ),
            }
            for e in rep.entries
        ],
    }


def compact_json(data) -> str:
    """The encoding report.json uses: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))

import itertools
import json
import random
from fractions import Fraction

import pytest

from dagquot.ceplab import (
    FiniteGroup,
    Subgroup,
    builtin_group,
    normal_closure_in,
    subgroup_from_generator_names,
)
from dagquot.dag import ColoredDag, CycleFoundError, DagError, _check_acyclic
from dagquot.quotients import (
    LAMP_IDENTITY,
    LampElem,
    MarkedQuotient,
    NormalForm,
    _lamps_from_dict,
    _push_syllable,
    lamp_mul,
    quotient_to_json,
)
from dagquot.realizer import CepEmbedding
from dagquot.snf import IntMatrix
from dagquot.verifier import Certificate, EvalTrace, Report
from dagquot.words import (
    Hom,
    RankMismatchError,
    Word,
    format_word,
    generator,
    reduce as reduce_word,
)


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
    return sorted(v for v in d.vertices if d.out_degree(v) == 0)


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
            _check_acyclic(d)
        except CycleFoundError:
            continue
        for colors in itertools.product((0, 1), repeat=order):
            yield ColoredDag(tuple(ids), edges, dict(zip(ids, colors)))


def normal_closure_finite(g: FiniteGroup, seed) -> Subgroup:
    return Subgroup(g, normal_closure_in(g, frozenset(range(g.order)), seed))


def a3_in_s3() -> tuple[FiniteGroup, Subgroup]:
    g = builtin_group("s3")
    return g, subgroup_from_generator_names(g, ["(1 2 3)"])


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
# reference serialization: the report and certificate schema as dicts, which
# json.dumps with sorted keys turns into the bytes the template encoder writes


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
        "quotient": {"inline": quotient_to_json(t.quotient)},
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

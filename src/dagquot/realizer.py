"""Constructive realization of colored DAGs in free groups.

The construction is an induction on the number of vertices.  Starting from
the empty DAG in the rank-0 free group, vertices are adjoined one at a time:
each induction step picks a maximal vertex of the remaining DAG (largest id,
for determinism), allocates two fresh ambient generators, and extends every
normal subgroup built so far:

  * vertices strictly below the new one keep their relators verbatim and
    their quotient gains a free free-product factor on the fresh pair;
  * all other old vertices add both fresh generators as relators, leaving
    their quotient unchanged;
  * the new vertex kills every older generator and adds, on the fresh pair,
    either the first fresh generator (color 0: quotient becomes Z) or the
    commutator scheme whose normal closure is the kernel onto the
    lamplighter group Z wr Z (color 1: quotient not finitely presented).

The final ambient rank is exactly twice the number of vertices.  The
induction defines the quotients; ``realize`` does not replay it, but writes
each vertex's final quotient directly from the build order and the closed
DAG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import dag as dagmod, stallings
from .dag import ColoredDag, removal_order  # re-exported: the one peel, read via ``peel``
from .quotients import (
    CommutatorScheme,
    FreeOfRank,
    GroupExpr,
    IDENTITY_IMAGE,
    InfiniteCyclic,
    Lamplighter,
    LeafImage,
    LoadTables,
    MarkImage,
    MarkedQuotient,
    QuotientWriter,
    RelatorSet,
    check_soundness,
    free_product,
    json_block,
    json_field,
    json_str,
    quotient_from_json,
    scheme_to_json,
)
from .words import Word, RankMismatchError, Hom, apply_hom, format_word, generator, parse_word


class RealizerError(ValueError):
    pass


class BasisNotFreeError(RealizerError):
    """The embedding's basis words do not freely generate a free group."""


class SchemePresentError(RealizerError):
    """The relator set carries a scheme, so it has no finite core here."""


@dataclass(frozen=True)
class Realization:
    """A colored DAG realized by normal subgroups of a free group.

    ``dag`` is stored transitively closed; ``step_index`` records, for each
    vertex, which induction step created it (step j owns generators
    x_{2j-1}, x_{2j}).
    """

    dag: ColoredDag
    ambient_rank: int
    assignment: dict[str, MarkedQuotient]
    step_index: dict[str, int]

    def __post_init__(self):
        if set(self.assignment) != set(self.dag.vertices):
            raise RealizerError("assignment must cover exactly the DAG vertices")
        for v, q in self.assignment.items():
            if q.rank != self.ambient_rank:
                raise RealizerError(
                    f"vertex {v}: quotient rank {q.rank} != ambient rank {self.ambient_rank}"
                )


def realize(d: ColoredDag) -> Realization:
    """The vertex of step j kills x1..x_{2j-2}, then carries x_{2j-1} (color 0)
    or the scheme on (x_{2j-1}, x_{2j}) (color 1).  The pair of each later
    step is a new F2 leaf when that step's vertex lies above it, and two more
    relators otherwise.

    The build order and what each vertex reaches are read off the closure's
    peel.  One call builds each generator, leaf and marking image once, and
    its quotients share them."""
    closed = dagmod.transitive_closure(d)
    order, bit, rows = closed.peel
    build = order[::-1]
    rank = 2 * len(build)
    gens = [generator(rank, i) for i in range(1, rank + 1)]  # x_i is gens[i - 1]
    dead, z, lamplighter, free = IDENTITY_IMAGE, InfiniteCyclic(), Lamplighter(), FreeOfRank(2)
    pairs = [(LeafImage(leaf, 1), LeafImage(leaf, 2)) for leaf in range(len(build))]
    lamp, shift = LeafImage(0, "lamp"), LeafImage(0, "shift")

    quotients: dict[str, MarkedQuotient] = {}
    for j, w in enumerate(build):
        lo, hi = 2 * j + 1, 2 * j + 2  # the pair of step j + 1
        finite = gens[: lo - 1]
        marking: dict[int, MarkImage] = dict.fromkeys(range(1, lo), dead)
        if closed.color[w] == 0:
            finite.append(gens[lo - 1])
            schemes: tuple[CommutatorScheme, ...] = ()
            parts: list[GroupExpr] = [z]
            marking[lo], marking[hi] = dead, pairs[0][0]  # LeafImage(0, 1)
        else:
            schemes = (CommutatorScheme(gens[lo - 1], gens[hi - 1]),)
            parts = [lamplighter]
            marking[lo], marking[hi] = lamp, shift
        above = rows[w]
        for k in range(j + 1, len(build)):
            if above & bit[build[k]]:
                marking[2 * k + 1], marking[2 * k + 2] = pairs[len(parts)]
                parts.append(free)
            else:
                finite += gens[2 * k : 2 * k + 2]
                marking[2 * k + 1] = marking[2 * k + 2] = dead
        q = MarkedQuotient(
            rank, RelatorSet(rank, tuple(finite), schemes), free_product(parts), marking
        )
        check_soundness(q, probe_bound=3)
        quotients[w] = q

    return Realization(
        dag=closed,
        ambient_rank=rank,
        assignment={v: quotients[v] for v in sorted(quotients)},
        step_index=dict(sorted((w, j) for j, w in enumerate(build, start=1))),
    )


def finite_core(r: RelatorSet) -> list[Word]:
    """The finite relator list, available exactly when no scheme is present.

    The construction makes finite cores explicit: a color-0 vertex ends up
    with a finite relator set on the nose, and a color-1 vertex has none
    within this construction.
    """
    if r.schemes:
        raise SchemePresentError(
            "relator set carries an infinite scheme; no finite core here"
        )
    return list(r.finite_part)


# ---------------------------------------------------------------------------
# transfer along a CEP embedding


@dataclass(frozen=True)
class CepEmbedding:
    """A finitely presented ambient group plus the images of a free basis.

    ``basis_words`` are the images, in the ambient alphabet, of a free basis
    whose span is assumed to satisfy the congruence extension property.
    That assumption is recorded (``note``), not decided: no algorithm here
    certifies CEP-ness of a subgroup of an arbitrary presented group.
    """

    alphabet_rank: int
    ambient_relators: tuple[Word, ...]
    basis_words: tuple[Word, ...]
    note: str = ""

    def __post_init__(self):
        if not self.basis_words:
            raise RealizerError("embedding needs at least one basis word")
        for w in self.basis_words + self.ambient_relators:
            if w.rank != self.alphabet_rank:
                raise RankMismatchError(
                    f"embedding word rank {w.rank} != alphabet rank {self.alphabet_rank}"
                )


@dataclass(frozen=True)
class Presentation:
    """Relators over the embedding alphabet, schemes carried symbolically."""

    alphabet_rank: int
    relators: tuple[Word, ...]
    schemes: tuple[CommutatorScheme, ...]

    @property
    def finitely_presented_claim(self) -> bool:
        """Finitely presented when no scheme is left, only finite relators."""
        return not self.schemes

    def __str__(self) -> str:
        gens = ", ".join(f"x{i}" for i in range(1, self.alphabet_rank + 1))
        rels = [format_word(w) or "1" for w in self.relators]
        rels += [
            f"scheme({format_word(s.a)}, {format_word(s.t)})" for s in self.schemes
        ]
        return f"⟨ {gens} | {', '.join(rels)} ⟩"


def cep_transfer(r: Realization, e: CepEmbedding) -> dict[str, Presentation]:
    """Rewrite each vertex's relators through the embedding and adjoin the
    ambient relators; valid conditional on CEP of the supplied basis.

    That the first ``ambient_rank`` basis words form a free basis is checked
    in the free group F(X) on the alphabet, not in the presented group G:
    they do in F(X) when the folded Stallings graph of the subgroup they
    generate has rank (edges - vertices + 1) ``ambient_rank``.  Their span
    in G may still fail to be free; in Z^2, ``x1`` and ``x2`` pass."""
    if len(e.basis_words) < r.ambient_rank:
        raise RealizerError(
            f"embedding supplies {len(e.basis_words)} basis words, "
            f"need {r.ambient_rank}"
        )
    images = tuple(e.basis_words[: r.ambient_rank])
    core = stallings.build_subgroup_graph(images, e.alphabet_rank)
    rank = len(core.edges) - core.num_vertices + 1
    if rank != r.ambient_rank:
        raise BasisNotFreeError(
            f"the first {r.ambient_rank} basis words generate a free group of rank "
            f"{rank}, so they are not a free basis"
        )
    f = Hom(r.ambient_rank, e.alphabet_rank, images)
    out: dict[str, Presentation] = {}
    for v in sorted(r.assignment):
        q = r.assignment[v]
        rewritten = tuple(apply_hom(f, w) for w in q.relators.finite_part)
        schemes = tuple(
            CommutatorScheme(apply_hom(f, s.a), apply_hom(f, s.t))
            for s in q.relators.schemes
        )
        out[v] = Presentation(
            alphabet_rank=e.alphabet_rank,
            relators=e.ambient_relators + rewritten,
            schemes=schemes,
        )
    return out


# ---------------------------------------------------------------------------
# serialization


def realization_to_text(r: Realization) -> str:
    """``realization.json``: byte for byte ``json.dumps(..., indent=2,
    sort_keys=True) + "\\n"`` of the realization as dicts and lists.

    Every object sits at a fixed depth, so each template writes its keys in
    sorted order with their indent. One ``QuotientWriter`` writes every
    vertex, so each word and marking image text is built once per call."""
    d = r.dag
    writer = QuotientWriter()
    vertices = [f"{json_str(v)}: {writer.text(q)}" for v, q in sorted(r.assignment.items())]
    edges = [f'[\n        {json_str(u)},\n        {json_str(t)}\n      ]'
             for u, t in sorted(d.edges)]
    dag_vertices = [f'{{\n        "color": {d.color[v]},\n        "id": {json_str(v)}\n      }}'
                    for v in d.vertices]
    step_index = [f"{json_str(v)}: {r.step_index[v]}" for v in sorted(r.step_index)]
    return (f'{{\n  "ambient_rank": {r.ambient_rank},\n  "dag": {{'
            f'\n    "edges": {json_block("[]", edges, "    ")},'
            f'\n    "vertices": {json_block("[]", dag_vertices, "    ")}\n  }},'
            f'\n  "step_index": {json_block("{}", step_index, "  ")},'
            f'\n  "vertices": {json_block("{}", vertices, "  ")}\n}}\n')


def realization_to_json(r: Realization) -> dict:
    return json.loads(realization_to_text(r))


def realization_from_json(data) -> Realization:
    """One ``LoadTables`` per load: each distinct word text is parsed once
    per relator rank, each marking key is checked once, and each ``Word``
    and ``LeafImage`` is shared by every quotient using it."""
    d = dagmod.from_json(json_field(data, "dag", dict, "realization"))
    vertices = json_field(data, "vertices", dict, "realization")
    tables = LoadTables()
    assignment = {v: quotient_from_json(q, tables) for v, q in vertices.items()}
    step_index = json_field(data, "step_index", dict, "realization")
    return Realization(
        dag=d,
        ambient_rank=json_field(data, "ambient_rank", int, "realization"),
        assignment={v: assignment[v] for v in sorted(assignment)},
        step_index={v: json_field(step_index, v, int, "step_index")
                    for v in sorted(step_index)},
    )


def embedding_from_json(data) -> CepEmbedding:
    rank = json_field(data, "alphabet_rank", int, "embedding")

    def words(key):
        texts = json_field(data, key, list, "embedding", item=str, optional=True)
        return tuple(parse_word(t, rank) for t in texts)

    return CepEmbedding(
        alphabet_rank=rank,
        ambient_relators=words("relators"),
        basis_words=words("basis"),
        note=json_field(data, "note", str, "embedding", optional=True),
    )


def presentations_to_json(pres: dict[str, Presentation], provenance: str = "") -> dict:
    """``presentations.json``, its note naming the embedding's ``provenance`` if given."""
    note = "valid conditional on CEP of the supplied basis"
    if provenance:
        note += f"; embedding provenance: {provenance}"
    return {
        "conditional_on_cep": True,
        "note": note,
        "vertices": {
            v: {
                "alphabet_rank": p.alphabet_rank,
                "relators": [format_word(w) for w in p.relators],
                "schemes": [scheme_to_json(s) for s in p.schemes],
                "finitely_presented_claim": p.finitely_presented_claim,
                "text": str(p),
            }
            for v, p in sorted(pres.items())
        },
    }


def lattice_to_dot(r: Realization) -> str:
    """DOT of the realized order, each vertex annotated with its quotient."""
    def annotate(v: str) -> str:
        q = r.assignment[v]
        return (f"\\nG/N = {q.expr}\\n"
                f"{len(q.relators.finite_part)} relators, {len(q.relators.schemes)} schemes")

    return dagmod.dot_text("realized_lattice", r.dag, sorted(r.assignment), annotate)

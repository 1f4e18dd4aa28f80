"""Relator sets, structural group expressions, and decidable word problems
for the quotients this package constructs.

A constructed quotient is always a free product of copies of Z, free groups,
and the wreath product Z wr Z (the "lamplighter over Z", the package's fixed
two-generated non-finitely-presented group).  Each ambient generator is
marked with its image in one leaf of that free product, or with ``None`` when
the quotient kills it, which makes the word problem decidable by
free-product normal forms plus leaf-local arithmetic.

Infinite relator families appear only as commutator schemes: the family
[a, t^-i a t^i] for i >= 1, which generates the kernel of the free group on
(a, t) onto Z wr Z.  Membership questions never truncate the scheme; they go
through exact evaluation in the marked quotient.

Whether a relator of one quotient dies in another is answered here, once,
for ``check_soundness`` and for the verifier's inclusion and separation
certificates.  Every finite relator the construction writes is one positive
generator, and a marking kills x_i exactly when its image is ``None`` or 0
in a Z leaf.  ``RelatorSet.generator_mask`` and ``MarkedQuotient.dead_mask``
hold these facts as bits, so the finite part of an inclusion is one test,
``gens_u & ~dead_v == 0``, and the first survivor is the lowest set bit of
``gens_u & ~dead_v``: the relator the shortest-first search over
``by_length`` finds.  An "exact" scheme is dead for every member, so it
replaces the member probes, and a scheme whose ``a`` is one letter on a dead
generator is exact by that bit; only "probed" schemes evaluate members up to
the bound.  Any other finite relator, or a survivor, takes the evaluation path,
which names every survivor.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .snf import AbelianInvariants, invariants_from_rows
from .words import (
    Word,
    RankMismatchError,
    _reduce_letters,
    commutator,
    conjugate,
    exponent_vector,
    format_word,
    parse_word,
    power,
)


class QuotientModelError(ValueError):
    """A marked quotient fails its structural or soundness checks."""


# ---------------------------------------------------------------------------
# structural group expressions


@dataclass(frozen=True)
class TrivialGroup:
    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class InfiniteCyclic:
    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class FreeOfRank:
    rank: int

    def __str__(self) -> str:
        return f"F{self.rank}"


@dataclass(frozen=True)
class Lamplighter:
    def __str__(self) -> str:
        return "Z wr Z"


@dataclass(frozen=True)
class FreeProduct:
    parts: tuple["GroupExpr", ...]

    def __str__(self) -> str:
        return " * ".join(str(p) for p in self.parts)


GroupExpr = Union[TrivialGroup, InfiniteCyclic, FreeOfRank, Lamplighter, FreeProduct]
LeafExpr = Union[InfiniteCyclic, FreeOfRank, Lamplighter]


def free_product(parts) -> GroupExpr:
    """Flattened free product; trivial factors are dropped."""
    flat: list[GroupExpr] = []
    for p in parts:
        if isinstance(p, FreeProduct):
            flat.extend(p.parts)
        elif isinstance(p, TrivialGroup):
            continue
        else:
            flat.append(p)
    if not flat:
        return TrivialGroup()
    if len(flat) == 1:
        return flat[0]
    return FreeProduct(tuple(flat))


def leaves(expr: GroupExpr) -> tuple[LeafExpr, ...]:
    if isinstance(expr, TrivialGroup):
        return ()
    if isinstance(expr, FreeProduct):
        out: list[LeafExpr] = []
        for p in expr.parts:
            out.extend(leaves(p))
        return tuple(out)
    return (expr,)


def has_lamplighter(lvs: tuple[LeafExpr, ...]) -> bool:
    """Whether a lamplighter is among the leaves ``lvs`` of an expression."""
    return any(isinstance(leaf, Lamplighter) for leaf in lvs)


def predicted_invariants(lvs: tuple[LeafExpr, ...]) -> AbelianInvariants:
    """Abelianization read off the leaves ``lvs`` of the structural
    expression (always torsion-free)."""
    free_rank = 0
    for leaf in lvs:
        if isinstance(leaf, InfiniteCyclic):
            free_rank += 1
        elif isinstance(leaf, FreeOfRank):
            free_rank += leaf.rank
        elif isinstance(leaf, Lamplighter):
            free_rank += 2
    return AbelianInvariants(free_rank, ())


_LEAF_TYPES = {"trivial": TrivialGroup, "z": InfiniteCyclic, "lamplighter": Lamplighter}
_LEAF_NAMES = {t: kind for kind, t in _LEAF_TYPES.items()}


def _expr_text(expr: GroupExpr, pad: str) -> str:
    """The expression as ``json.dumps`` with ``indent=2`` and sorted keys
    writes it, with the closing brace indented by ``pad``."""
    inner = "\n" + pad + "  "
    if isinstance(expr, FreeProduct):
        parts = json_block("[]", [_expr_text(p, pad + "    ") for p in expr.parts], pad + "  ")
        return f'{{{inner}"kind": "product",{inner}"parts": {parts}\n{pad}}}'
    if isinstance(expr, FreeOfRank):
        return f'{{{inner}"kind": "free",{inner}"rank": {expr.rank}\n{pad}}}'
    return f'{{{inner}"kind": "{_LEAF_NAMES[type(expr)]}"\n{pad}}}'


def expr_from_json(data) -> GroupExpr:
    kind = json_field(data, "kind", str, "expr")
    if kind in _LEAF_TYPES:
        return _LEAF_TYPES[kind]()
    if kind == "free":
        return FreeOfRank(json_field(data, "rank", int, "expr"))
    if kind == "product":
        parts = json_field(data, "parts", list, "expr")
        return FreeProduct(tuple(expr_from_json(p) for p in parts))
    raise QuotientModelError(f"unknown group expression kind {kind!r}")


# ---------------------------------------------------------------------------
# relator sets and commutator schemes


@dataclass(frozen=True)
class CommutatorScheme:
    """The relator family [a, t^-i a t^i], i >= 1."""

    a: Word
    t: Word
    _members: dict[int, Word] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.rank != self.t.rank:
            raise RankMismatchError("scheme words must share a rank")
        if self.a.is_identity or self.t.is_identity:
            raise QuotientModelError("scheme words must be nontrivial")

    @property
    def rank(self) -> int:
        return self.a.rank

    def member(self, i: int) -> Word:
        if i < 1:
            raise ValueError(f"scheme member index must be >= 1, got {i}")
        w = self._members.get(i)
        if w is None:
            w = self._members[i] = commutator(self.a, conjugate(self.a, power(self.t, i)))
        return w


# (label, word): "finite[k]" or "scheme[i].member[j]"
Labelled = tuple[str, Word]

_SCHEME_LABEL = re.compile(r"scheme\[(0|[1-9][0-9]*)\]\.member\[([1-9][0-9]*)\]")


@dataclass(frozen=True)
class RelatorSet:
    """``generator_mask``: bit i per finite relator x_i, ``None`` unless each is one positive
    generator; ``generator_position``: i to the first k with ``finite_part[k]`` in x_i, x_i^-1."""

    rank: int
    finite_part: tuple[Word, ...]
    schemes: tuple[CommutatorScheme, ...] = ()
    _labelled: dict[int, tuple[Labelled, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _by_length: dict[int, tuple[Labelled, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    generator_mask: int | None = field(init=False, repr=False, compare=False)
    generator_position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask, position = 0, {}
        for k, w in enumerate(self.finite_part):
            letters = w.letters
            if w.rank != self.rank:
                raise RankMismatchError(f"relator rank {w.rank} != {self.rank}")
            if not letters:
                raise QuotientModelError("finite relators must be nontrivial")
            if len(letters) != 1:
                mask = None
                continue
            (i, sign), = letters
            if i not in position:
                position[i] = k
            mask = None if mask is None or sign != 1 else mask | 1 << i
        for s in self.schemes:
            if s.rank != self.rank:
                raise RankMismatchError(f"scheme rank {s.rank} != {self.rank}")
        object.__setattr__(self, "generator_mask", mask)
        object.__setattr__(self, "generator_position", position)

    def labelled(self, bound: int) -> tuple[Labelled, ...]:
        """Every finite relator, then per scheme its members 1..bound;
        memoized per bound."""
        out = self._labelled.get(bound)
        if out is None:
            items = [(f"finite[{k}]", w) for k, w in enumerate(self.finite_part)]
            for si, s in enumerate(self.schemes):
                items.extend((f"scheme[{si}].member[{i}]", s.member(i))
                             for i in range(1, bound + 1))
            out = self._labelled[bound] = tuple(items)
        return out

    def by_length(self, bound: int) -> tuple[Labelled, ...]:
        """``labelled(bound)`` shortest first, then by letters, then in
        ``labelled`` order; memoized per bound."""
        out = self._by_length.get(bound)
        if out is None:
            out = self._by_length[bound] = tuple(
                sorted(self.labelled(bound), key=lambda c: (len(c[1]), c[1].letters)))
        return out

    def relator(self, label: str, bound: int) -> Word | None:
        """The word ``labelled(bound)`` gives ``label``; ``None`` when no
        relator has that label, read digit for digit.

        A ``finite[k]`` label is read by slicing: ``k`` is ASCII digits
        with no leading zero but in ``0`` itself, the rule ``_SCHEME_LABEL``
        keeps for ``i``. That regex reads every other label."""
        if label.startswith("finite["):
            k = label[7:-1]
            if label.endswith("]") and k.isascii() and k.isdigit() and (k[0] != "0" or k == "0"):
                k = int(k)
                return self.finite_part[k] if k < len(self.finite_part) else None
            return None
        m = _SCHEME_LABEL.fullmatch(label)
        if m is None:
            return None
        si, j = m.groups()
        if int(si) < len(self.schemes) and int(j) <= bound:
            return self.schemes[int(si)].member(int(j))
        return None


# (text, rank) -> the parsed word; one table per load shares each word
WordTable = dict[tuple[str, int], Word]


def _table_word(words: WordTable, text: str, rank: int) -> Word:
    """``parse_word(text, rank)``, parsed on the first request only."""
    w = words.get((text, rank))
    if w is None:
        w = words[text, rank] = parse_word(text, rank)
    return w


def relators_from_json(data, words: WordTable | None = None) -> RelatorSet:
    words = {} if words is None else words
    rank = json_field(data, "rank", int, "relators")
    finite = json_field(data, "finite", list, "relators", item=str, optional=True)
    schemes = json_field(data, "schemes", list, "relators", item=dict, optional=True)
    return RelatorSet(
        rank,
        tuple(_table_word(words, text, rank) for text in finite),
        tuple(scheme_from_json(s, rank, words) for s in schemes),
    )


def scheme_to_json(s: CommutatorScheme) -> dict:
    return {"a": format_word(s.a), "t": format_word(s.t)}


def scheme_from_json(data, rank: int, words: WordTable) -> CommutatorScheme:
    return CommutatorScheme(
        _table_word(words, json_field(data, "a", str, "scheme"), rank),
        _table_word(words, json_field(data, "t", str, "scheme"), rank),
    )


# ---------------------------------------------------------------------------
# lamplighter arithmetic: elements are (shift, finitely supported Z -> Z)

LampElem = tuple[int, tuple[tuple[int, int], ...]]

LAMP_IDENTITY: LampElem = (0, ())


def _lamps_from_dict(d: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((p, v) for p, v in d.items() if v != 0))


def lamp_mul(x: LampElem, y: LampElem) -> LampElem:
    (s1, f1), (s2, f2) = x, y
    acc = dict(f1)
    for pos, val in f2:
        acc[pos + s1] = acc.get(pos + s1, 0) + val
    return (s1 + s2, _lamps_from_dict(acc))


# ---------------------------------------------------------------------------
# markings and normal forms


@dataclass(frozen=True)
class LeafImage:
    leaf: int
    value: int | str  # Z: exponent; free leaf: generator index; lamplighter: "lamp"/"shift"


MarkImage = LeafImage | None  # None: the generator is dead


@dataclass(slots=True, unsafe_hash=True)
class NormalForm:
    """Canonical free-product normal form: alternating leaf-local syllables.

    Slotted and not frozen, since the verifier makes thousands per
    realization; nothing assigns to ``syllables`` after construction."""

    syllables: tuple[tuple[int, object], ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)


def _leaf_mul(leaf: LeafExpr, p1, p2):
    if isinstance(leaf, InfiniteCyclic):
        return p1 + p2
    if isinstance(leaf, FreeOfRank):
        return _reduce_letters(p1 + p2)
    return lamp_mul(p1, p2)


def _leaf_is_identity(leaf: LeafExpr, payload) -> bool:
    if isinstance(leaf, InfiniteCyclic):
        return payload == 0
    if isinstance(leaf, FreeOfRank):
        return payload == ()
    return payload == LAMP_IDENTITY


def _image_payload(leaf: LeafExpr, value, sign: int):
    if isinstance(leaf, InfiniteCyclic):
        return value * sign
    if isinstance(leaf, FreeOfRank):
        return ((value, sign),)
    if value == "lamp":
        return (0, ((0, sign),))
    return (sign, ())


@dataclass(frozen=True)
class MarkedQuotient:
    """A quotient with decidable word problem: relators, a structural free
    product expression, and the image of every ambient generator: a
    ``LeafImage``, or ``None`` for a killed one (``"identity"`` in JSON).

    ``dead_mask`` has bit i set when x_i evaluates to the identity: its image
    is ``None`` or 0 in a Z leaf.  ``__post_init__`` builds it in the
    walk that checks the marking, which reads each entry's leaf type once."""

    rank: int
    relators: RelatorSet
    expr: GroupExpr
    marking: dict[int, MarkImage]
    dead_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.relators.rank != self.rank:
            raise QuotientModelError("relator rank does not match quotient rank")
        lvs = self.leaf_list
        # the sizes first, so that a claimed rank allocates nothing unless
        # the marking has that many entries
        if len(self.marking) != max(self.rank, 0) or set(self.marking) != set(
                range(1, self.rank + 1)):
            raise QuotientModelError("marking must cover exactly generators 1..rank")
        mask = 0
        for idx, img in self.marking.items():
            if img is None:
                mask |= 1 << idx
                continue
            if not 0 <= img.leaf < len(lvs):
                raise QuotientModelError(f"marking of x{idx} uses unknown leaf {img.leaf}")
            leaf, value = lvs[img.leaf], img.value
            kind = type(leaf)
            # type(...) is int: a bool is an int, and True == 1
            if kind is InfiniteCyclic:
                if type(value) is not int:
                    raise QuotientModelError(f"x{idx}: Z leaf image must be an integer")
                if value == 0:
                    mask |= 1 << idx
            elif kind is FreeOfRank:
                if not (type(value) is int and 1 <= value <= leaf.rank):
                    raise QuotientModelError(f"x{idx}: free leaf image must be a generator index")
            elif kind is Lamplighter and value not in ("lamp", "shift"):
                raise QuotientModelError(f"x{idx}: lamplighter image must be lamp or shift")
        object.__setattr__(self, "dead_mask", mask)

    @cached_property
    def leaf_list(self) -> tuple[LeafExpr, ...]:
        return leaves(self.expr)


def _push_syllable(syls, lvs, leaf_idx: int, payload) -> None:
    if _leaf_is_identity(lvs[leaf_idx], payload):
        return
    if syls and syls[-1][0] == leaf_idx:
        prev_leaf, prev_payload = syls.pop()
        merged = _leaf_mul(lvs[prev_leaf], prev_payload, payload)
        if not _leaf_is_identity(lvs[prev_leaf], merged):
            syls.append((prev_leaf, merged))
        return
    syls.append((leaf_idx, payload))


def eval_word(q: MarkedQuotient, w: Word) -> NormalForm:
    """Canonical normal form of the image of w; a homomorphism in w."""
    if w.rank != q.rank:
        raise RankMismatchError(f"word rank {w.rank} != quotient rank {q.rank}")
    lvs = q.leaf_list
    syls: list[tuple[int, object]] = []
    for idx, sign in w.letters:
        img = q.marking[idx]
        if img is None:
            continue
        _push_syllable(syls, lvs, img.leaf, _image_payload(lvs[img.leaf], img.value, sign))
    return NormalForm(tuple(syls))


def scheme_exactness(q: MarkedQuotient, scheme: CommutatorScheme) -> tuple[str, str]:
    """Decide whether all scheme members die in q at once: ("exact", reason)
    when a structural reason kills every member, else ("probed", ...).
    A one-letter ``a`` on a generator in ``q.dead_mask`` is trivial without evaluation."""
    a = scheme.a.letters
    if len(a) == 1 and scheme.a.rank == q.rank and q.dead_mask >> a[0][0] & 1:
        return "exact", "a-image-trivial"
    img_a = eval_word(q, scheme.a)
    if img_a.is_identity:
        return "exact", "a-image-trivial"
    img_t = eval_word(q, scheme.t)
    if img_t.is_identity:
        return "exact", "t-image-trivial"
    if (
        len(img_a) == 1
        and len(img_t) == 1
        and img_a.syllables[0][0] == img_t.syllables[0][0]
        and isinstance(q.leaf_list[img_a.syllables[0][0]], Lamplighter)
        and img_a.syllables[0][1][0] == 0
    ):
        # conjugation preserves the zero shift and the base group of the
        # lamplighter leaf is abelian, so a commutes with all its conjugates
        return "exact", "abelian-base-zero-shift"
    return "probed", "members checked for i <= bound only"


def surviving_relators(rel: RelatorSet, q: MarkedQuotient,
                       bound: int) -> tuple[tuple[tuple[str, str], ...], list[str]]:
    """The ``scheme_exactness`` of each scheme of ``rel`` in ``q``, and the
    label of every relator in ``rel.labelled(bound)`` that survives in ``q``,
    in that order.

    When every finite relator is a single generator, they all die exactly
    when none is outside ``q.dead_mask``: a scheme-free set is then answered
    by that one test, an exact scheme is not evaluated, and a probed one is
    evaluated up to the bound. Only a survivor, or a relator set without a
    generator mask, takes the labelled loop."""
    mask = rel.generator_mask
    dead = mask is not None and not mask & ~q.dead_mask
    if dead and not rel.schemes:
        return (), []
    exactness = tuple(scheme_exactness(q, s) for s in rel.schemes)
    if dead:
        for s, (coverage, _) in zip(rel.schemes, exactness):
            if coverage != "exact" and not all(
                    eval_word(q, s.member(i)).is_identity for i in range(1, bound + 1)):
                break
        else:
            return exactness, []
    return exactness, [label for label, w in rel.labelled(bound)
                       if not eval_word(q, w).is_identity]


def generator_survivor(rel: RelatorSet, q: MarkedQuotient) -> Labelled | None:
    """The relator ``first_survivor`` tries alone, with its label: the lowest
    generator of ``rel`` not dead in ``q``.  ``None`` when ``rel`` has no
    generator mask or ``q`` kills every generator in it."""
    alive = 0 if rel.generator_mask is None else rel.generator_mask & ~q.dead_mask
    if not alive:
        return None
    k = rel.generator_position[(alive & -alive).bit_length() - 1]
    return f"finite[{k}]", rel.finite_part[k]


def first_survivor(rel: RelatorSet, q: MarkedQuotient,
                   bound: int) -> tuple[str, Word, NormalForm] | None:
    """The first relator of ``rel.by_length(bound)`` that survives in ``q``,
    with its label and image. With a generator mask that is
    ``generator_survivor``; scheme members are searched only when there is
    none."""
    lone = generator_survivor(rel, q)
    for label, w in rel.by_length(bound) if lone is None else (lone,):
        nf = eval_word(q, w)
        if not nf.is_identity:
            return label, w, nf
    return None


def check_soundness(q: MarkedQuotient, probe_bound: int = 3) -> None:
    """Every relator (scheme members probed up to the bound) must die in q."""
    _, survivors = surviving_relators(q.relators, q, probe_bound)
    if survivors:
        raise QuotientModelError(f"relator {survivors[0]} survives in quotient")


def abelianization(rank: int, r: RelatorSet) -> AbelianInvariants:
    """Invariants of Z^rank modulo the relator exponent vectors.

    Scheme members are commutators, hence have zero exponent vector and are
    skipped exactly (no truncation is involved). A single-letter relator
    kills its generator, whose column is then dropped from the other rows.
    """
    killed = {i - 1 for i in r.generator_position}
    rows = [[x for c, x in enumerate(exponent_vector(w)) if c not in killed]
            for w in r.finite_part if len(w.letters) != 1]
    return invariants_from_rows(rank - len(killed), rows)


# ---------------------------------------------------------------------------
# serialization


def _syllable_text(leaf: int, payload) -> str:
    # payload shapes are disjoint: int (Z leaf), tuple of letter pairs
    # (free leaf), (shift, lamps) pair (lamplighter leaf)
    if isinstance(payload, int):
        return f'{{"leaf":{leaf},"z":{payload}}}'
    if len(payload) == 2 and isinstance(payload[0], int):
        lamps = ",".join(f"[{p},{v}]" for p, v in payload[1])
        return f'{{"lamps":[{lamps}],"leaf":{leaf},"shift":{payload[0]}}}'
    letters = ",".join(f"[{i},{s}]" for i, s in payload)
    return f'{{"leaf":{leaf},"letters":[{letters}]}}'


def _int_pairs(data, key: str) -> tuple[tuple[int, int], ...]:
    pairs = json_field(data, key, list, "syllable", item=list)
    if not all(len(p) == 2 and type(p[0]) is int and type(p[1]) is int for p in pairs):
        raise ValueError(f"syllable field {key!r} must hold pairs of JSON integers")
    return tuple((p[0], p[1]) for p in pairs)


def _payload_from_json(data):
    if "z" in data:
        return json_field(data, "z", int, "syllable")
    if "shift" in data:
        return (json_field(data, "shift", int, "syllable"), _int_pairs(data, "lamps"))
    return _int_pairs(data, "letters")


def nf_to_text(nf: NormalForm) -> str:
    """The normal form as sorted-key compact JSON."""
    return f"[{','.join(_syllable_text(leaf, p) for leaf, p in nf.syllables)}]"


def nf_to_json(nf: NormalForm) -> list:
    return json.loads(nf_to_text(nf))


def nf_from_json(data) -> NormalForm:
    if type(data) is not list:
        raise ValueError(f"normal form must be a JSON array, not {type(data).__name__}")
    return NormalForm(tuple(
        (json_field(entry, "leaf", int, "syllable"), _payload_from_json(entry))
        for entry in data
    ))


@dataclass(slots=True)
class LoadTables:
    """The tables one load shares among its quotients, so that no table
    outlives the load that filled it."""

    words: WordTable = field(default_factory=dict)
    # marking key text -> its generator index
    indices: dict[str, int] = field(default_factory=dict)
    # (leaf, value) -> the one ``LeafImage`` of the load with that image
    images: dict[tuple[int, int | str], LeafImage] = field(default_factory=dict)


def marking_from_json(data, tables: LoadTables) -> dict[int, MarkImage]:
    """The marking of one quotient. Each key is checked on its first
    appearance in ``tables`` only, and each distinct image is one object per
    ``tables``."""
    indices, images = tables.indices, tables.images
    out: dict[int, MarkImage] = {}
    for key, image in data.items():
        idx = indices.get(key)
        if idx is None:
            if not (key.isdecimal() and key == str(int(key))):
                raise ValueError(f"marking field {key!r} must be a generator index")
            idx = indices[key] = int(key)
        if image == "identity":
            out[idx] = None
            continue
        image = json_field(data, key, dict, "marking")
        value = image["value"]
        if type(value) is not int and value not in ("lamp", "shift"):
            raise ValueError(
                "marking image field 'value' must be a JSON integer, \"lamp\" or "
                f"\"shift\", not {type(value).__name__}")
        leaf = json_field(image, "leaf", int, "marking image")
        shared = images.get((leaf, value))
        if shared is None:
            shared = images[leaf, value] = LeafImage(leaf, value)
        out[idx] = shared
    return out


class QuotientWriter:
    """Writes each quotient as ``json.dumps`` with ``indent=2`` and sorted
    keys writes it as a vertex of ``realization.json``: keys indented six
    spaces, the closing brace four. One writer builds the text of each word
    and marking image object, and the marking key order of each rank, once.

    Texts are keyed by object identity: ``realize`` and the loader share each
    word and image among the quotients of one realization, and an identity
    lookup skips the Python-level dataclass hash.  The table keeps every
    object it keys, so no id is reused while the writer lives."""

    def __init__(self):
        self._texts: dict[int, tuple[Word | MarkImage, str]] = {}
        self._keys: dict[int, list[tuple[int, str]]] = {}

    def _text(self, x: Word | MarkImage) -> str:
        hit = self._texts.get(id(x))
        if hit is not None:
            return hit[1]
        if isinstance(x, Word):
            t = json_str(format_word(x))
        elif x is None:
            t = '"identity"'
        else:
            value = json_str(x.value) if isinstance(x.value, str) else x.value
            t = f'{{\n          "leaf": {x.leaf},\n          "value": {value}\n        }}'
        self._texts[id(x)] = x, t
        return t

    def text(self, q: MarkedQuotient) -> str:
        text = self._text
        keys = self._keys.get(q.rank)
        if keys is None:
            # marking keys sort as strings: "1", "10", "11", ..., "2"
            keys = self._keys[q.rank] = [
                (i, f'"{i}": ') for i in sorted(range(1, q.rank + 1), key=str)]
        rel = q.relators
        marking = json_block("{}", [key + text(q.marking[i]) for i, key in keys], "      ")
        finite = json_block("[]", [text(w) for w in rel.finite_part], "        ")
        schemes = json_block("[]", [
            f'{{\n            "a": {text(s.a)},\n            "t": {text(s.t)}\n          }}'
            for s in rel.schemes], "        ")
        return (f'{{\n      "expr": {_expr_text(q.expr, "      ")},\n      "marking": {marking},'
                f'\n      "rank": {q.rank},\n      "relators": {{\n        "finite": {finite},'
                f'\n        "rank": {rel.rank},\n        "schemes": {schemes}\n      }}\n    }}')


def quotient_to_json(q: MarkedQuotient) -> dict:
    return json.loads(QuotientWriter().text(q))


# A JSON string literal, escaped exactly as ``json.dumps`` writes it.
json_str = json.encoder.encode_basestring_ascii


def json_block(brackets: str, items: list[str], pad: str) -> str:
    """A JSON array or object of item texts as ``json.dumps`` with
    ``indent=2`` writes it: each item on its own line, indented two spaces
    past ``pad``, and the closing bracket indented by ``pad``; empty, just
    the brackets."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{pad}{brackets[1]}"


_JSON_TYPE_NAMES = {dict: "object", list: "array", int: "integer", str: "string",
                    bool: "boolean"}


def json_field(data, key: str, kind: type, owner: str, item: type | None = None,
               optional: bool = False):
    """``data[key]``, checked to be a JSON value of ``kind`` (an array of
    ``item`` values, when given); a wrong shape raises a ValueError that
    names the field. An ``optional`` field that is absent reads as ``kind()``.

    A JSON value's kind is its exact type: ``json.load`` yields only exact
    ``dict``, ``list``, ``str``, ``int``, ``float``, ``bool`` and ``None``,
    and a JSON boolean is a ``bool``, never an ``int``."""
    if type(data) is not dict:
        raise ValueError(f"{owner} must be a JSON object, not {type(data).__name__}")
    if optional and key not in data:
        return kind()
    value = data[key]
    if type(value) is not kind:
        raise ValueError(
            f"{owner} field {key!r} must be a JSON {_JSON_TYPE_NAMES[kind]}, "
            f"not {type(value).__name__}"
        )
    if item is not None:
        for x in value:
            if type(x) is not item:
                raise ValueError(
                    f"{owner} field {key!r} must hold JSON {_JSON_TYPE_NAMES[item]}s, "
                    f"not {type(x).__name__}"
                )
    return value


def word_to_text(w: Word) -> str:
    """The word as sorted-key compact JSON."""
    return f'{{"rank":{w.rank},"word":{json_str(format_word(w))}}}'


def word_from_json(data) -> Word:
    return parse_word(json_field(data, "word", str, "word"), json_field(data, "rank", int, "word"))


def quotient_from_json(data, tables: LoadTables | None = None) -> MarkedQuotient:
    tables = LoadTables() if tables is None else tables
    return MarkedQuotient(
        rank=json_field(data, "rank", int, "quotient"),
        relators=relators_from_json(json_field(data, "relators", dict, "quotient"), tables.words),
        expr=expr_from_json(json_field(data, "expr", dict, "quotient")),
        marking=marking_from_json(json_field(data, "marking", dict, "quotient"), tables),
    )

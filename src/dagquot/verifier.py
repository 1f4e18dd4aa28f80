"""Certificates that a realization satisfies its defining conditions, plus an
independent re-checker.

Three certificate kinds cover the realization conditions:

  * inclusion - reachable pairs: every generator of the source normal
    subgroup evaluates to the identity in the target quotient.  Scheme
    generators carry a coverage tag: "exact" when a structural reason kills
    every member at once (trivial images, or images inside one lamplighter
    leaf with zero shift, whose base is abelian), otherwise "probed" up to
    the bound.
  * separation - unreachable ordered pairs: a witness generator of the
    source with a nontrivial normal form in the target quotient.  A failed
    search is reported as inconclusive, never as a pass.  Distinctness of
    two vertices carries the separation certificate of (u, v), else of (v, u).
  * color - the structural biconditional: color 0 iff the relator set is
    scheme-free iff the quotient expression has no lamplighter leaf.  (Free
    products of finitely presented groups are finitely presented; a free
    product with a non-finitely-presented factor is not.)

Certificates store enough evidence to be re-checked from scratch by
evaluation alone.  An inclusion certificate stores no evaluations: the checker
rebuilds the relators of the source up to the certificate's bound from the
realization and checks that each dies in the target quotient.  A trace,
where a certificate carries one, is a word, the quotient it is evaluated in
and the expected normal form.  ``check_certificate_detailed`` shares no
state with generation beyond what each ``RelatorSet`` and
``MarkedQuotient`` caches: labelled relator lists per bound and the bit
masks that ``quotients.surviving_relators`` and
``quotients.first_survivor`` read.

``verify_all`` also rebuilds the realization of the stored DAG with
``realize`` and fails every vertex whose stored quotient or step differs
from it, since every certificate evaluates words in the stored markings.

Certificates are written by one template, ``_certificate_text``, from pieces
already encoded: it lists its keys in sorted order and strings go through
``json``'s own ASCII escaper, so the text equals ``json.dumps`` with
``sort_keys=True`` and ``separators=(",", ":")`` of the decoded object.  For
pair entries ``verify_all`` calls it once per call and entry kind, with a
control character in each per-pair slot, and splits the text there, so each
pair's certificate is the template's fixed pieces joined around its own
subject, coverage, witness and notes; ``json_str`` escapes control
characters, so no encoded piece holds one.  ``verify_all`` encodes each
entry, canonical mismatches included, as soon as it is checked and drops its
certificate: ``Report.add`` is the one way into a ``Report``, which holds
one line of JSON per entry and a tally by check and status, and encodes the
text after each distinct (check, status, detail) once.  ``Report.entries``
decodes those lines, certificates through ``certificate_from_json``, each
time it is read.  ``report_chunks`` writes the report in pieces from the
stored lines; ``report_to_json`` and ``certificate_to_json`` decode the same
text.  Only the quotient of a trace goes through ``quotient_to_json``.

``verify_all`` makes a ``Certificate`` for every ordered pair, and a
``WitnessEvidence`` and two ``NormalForm`` records for each separation, so
these records and ``SchemeCoverage`` are slotted and not frozen: the
``__init__`` of a frozen dataclass makes one ``object.__setattr__`` call per
field, defaults included.  Nothing assigns to their fields after
construction; tampered copies are made with ``dataclasses.replace``.  The
three evidence records keep value equality and hashing.  ``verify_all``
certifies, checks and encodes each ordered pair in its own loop, with no
wrapper call per pair, and encodes each distinct scheme coverage and each
distinct witness once, reusing the text for every later entry that carries
it.  Coverages are keyed by their records; a witness is keyed by the plain
tuple of its provenance, word rank, word letters and image syllables,
since hashing and comparing a ``WitnessEvidence`` makes three
Python-level dataclass calls per pair.  It chooses inclusion or
separation from each source's reachability row in ``r.dag.peel``, read once
per source, so the only ``leq`` per ordered pair is the certifier's own.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace

from .quotients import (
    MarkedQuotient,
    NormalForm,
    abelianization,
    eval_word,
    first_survivor,
    generator_survivor,
    has_lamplighter,
    json_field,
    json_str,
    nf_from_json,
    nf_to_text,
    predicted_invariants,
    quotient_from_json,
    quotient_to_json,
    surviving_relators,
    word_from_json,
    word_to_text,
)
from .realizer import Realization, realize
from .words import Word, Hom, apply_hom, format_word
from .dag import leq


class VerifierError(ValueError):
    pass


class NotComparableError(VerifierError):
    pass


class TraceFailedError(VerifierError):
    """A relator of the source survives in the target quotient: the
    realization itself is broken, so this is surfaced, not swallowed."""


class WitnessNotFoundError(VerifierError):
    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"no separation witness found up to scheme bound {bound}")


class StructureMismatchError(VerifierError):
    pass


@dataclass(frozen=True)
class EvalTrace:
    """``expected`` is the normal form of ``word`` in ``quotient``."""

    label: str
    expected: NormalForm
    quotient: MarkedQuotient
    word: Word


@dataclass(slots=True, unsafe_hash=True)
class SchemeCoverage:
    scheme_index: int
    coverage: str  # "exact" | "probed"
    reason: str


@dataclass(slots=True, unsafe_hash=True)
class WitnessEvidence:
    word: Word
    provenance: str  # e.g. "finite[2]" or "scheme[0].member[3]"
    image: NormalForm  # nontrivial normal form in the target quotient


@dataclass(frozen=True)
class ColorFacts:
    color: int
    scheme_free: bool
    lamplighter_free: bool
    justification: str

    @property
    def biconditional(self) -> bool:
        """Color 0 iff scheme-free iff lamplighter-free."""
        return (self.color == 0) == self.scheme_free == self.lamplighter_free


@dataclass(frozen=True)
class SubstitutionFact:
    """A pure word identity: expression(basis words) reduces to target."""

    label: str
    basis: tuple[Word, ...]
    expression: Word
    target: Word


@dataclass(slots=True)
class Certificate:
    kind: str  # "inclusion" | "separation" | "color" | "cep-counterexample"
    subject: tuple[str, ...]
    bound: int = 0
    traces: tuple[EvalTrace, ...] = ()
    scheme_coverage: tuple[SchemeCoverage, ...] = ()
    witness: WitnessEvidence | None = None
    color_facts: ColorFacts | None = None
    word_facts: tuple[SubstitutionFact, ...] = ()
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# certificate generation


JUSTIFICATION_COLOR = (
    "free products of finitely presented groups are finitely presented; "
    "a free product with a non-finitely-presented factor is not finitely presented"
)


def certify_inclusion(r: Realization, u: str, v: str, bound: int = 5) -> Certificate:
    if not leq(r.dag, u, v):
        raise NotComparableError(f"no path {u} -> {v}")
    exactness, survivors = surviving_relators(r.assignment[u].relators, r.assignment[v], bound)
    if survivors:
        raise TraceFailedError(f"relator {survivors[0]} of {u} survives in quotient of {v}")
    return Certificate("inclusion", (u, v), bound, (),
                       tuple(SchemeCoverage(si, *e) for si, e in enumerate(exactness)))


def certify_separation(r: Realization, u: str, v: str, bound: int = 5,
                       images: dict[tuple, NormalForm] | None = None) -> Certificate:
    """The first relator of ``u`` in ``by_length`` order that survives in
    ``v``, as ``first_survivor`` finds it.

    ``images``, shared by calls on one realization, maps (target, word
    rank, word letters) to the image ``first_survivor`` found: a witness
    that ``generator_survivor`` names is searched for once per target."""
    if leq(r.dag, u, v):
        raise NotComparableError(f"path {u} -> {v} exists; nothing to separate")
    rel, q = r.assignment[u].relators, r.assignment[v]
    images = {} if images is None else images
    lone = generator_survivor(rel, q)
    if lone is not None and (nf := images.get((v, lone[1].rank, lone[1].letters))) is not None:
        provenance, w = lone
    else:
        survivor = first_survivor(rel, q, bound)
        if survivor is None:
            raise WitnessNotFoundError(bound)
        provenance, w, nf = survivor
        if lone is not None:
            images[v, w.rank, w.letters] = nf
    return Certificate("separation", (u, v), bound, (), (), WitnessEvidence(w, provenance, nf))


def certify_distinctness(r: Realization, u: str, v: str, bound: int = 5) -> Certificate:
    """The separation certificate of ``(u, v)``, else of ``(v, u)``, noted
    as distinctness: a witness of the source that survives in the target
    shows the two normal subgroups differ.  ``verify_all`` reads the same
    certificate off the separation entries it has already checked."""
    if u == v:
        raise NotComparableError("distinctness needs two distinct vertices")
    for s, t in ((u, v), (v, u)):
        try:
            cert = certify_separation(r, s, t, bound)
        except (NotComparableError, WitnessNotFoundError):
            continue
        return replace(cert, notes=(f"distinctness of ({u}, {v})",))
    raise WitnessNotFoundError(bound)


def _color_facts(r: Realization, v: str) -> ColorFacts:
    q = r.assignment[v]
    return ColorFacts(r.dag.color[v], not q.relators.schemes, not has_lamplighter(q.leaf_list),
                      JUSTIFICATION_COLOR)


def certify_color(r: Realization, v: str) -> Certificate:
    facts = _color_facts(r, v)
    if not facts.biconditional:
        raise StructureMismatchError(
            f"vertex {v}: color {facts.color}, scheme_free={facts.scheme_free}, "
            f"lamplighter_free={facts.lamplighter_free}"
        )
    return Certificate(kind="color", subject=(v,), color_facts=facts)


# ---------------------------------------------------------------------------
# independent re-checking


def check_certificate_detailed(
    r: Realization | None, c: Certificate, images: dict[tuple, NormalForm] | None = None
) -> tuple[bool, list[str]]:
    """Re-run every piece of evidence from scratch; list all mismatches.

    A separation's provenance, identity test and image comparison are
    re-derived per certificate.  Its witness image comes from ``images``,
    the checker's own table by (target, word rank, word letters), so checks
    of one realization sharing it evaluate each word once per target."""
    problems: list[str] = []

    for t in c.traces:
        try:
            if eval_word(t.quotient, t.word) != t.expected:
                problems.append(f"trace {t.label}: recomputed normal form differs "
                                f"for {format_word(t.word) or '1'}")
        except Exception as exc:  # malformed trace counts as a failure
            problems.append(f"trace {t.label}: {exc}")

    try:
        _check_kind_specific(r, c, problems, {} if images is None else images)
    except Exception as exc:  # malformed subject/evidence counts as a failure
        problems.append(f"certificate is malformed: {exc}")

    for f in c.word_facts:
        try:
            h = Hom(len(f.basis), f.target.rank, f.basis)
            if apply_hom(h, f.expression) != f.target:
                problems.append(f"word fact {f.label}: substitution identity fails")
        except Exception as exc:
            problems.append(f"word fact {f.label}: {exc}")

    return not problems, problems


def _check_kind_specific(r: Realization | None, c: Certificate, problems: list[str],
                         images: dict[tuple, NormalForm]) -> None:
    if c.kind not in ("inclusion", "separation", "color"):
        if c.kind != "cep-counterexample":  # its traces and word facts are all its evidence
            problems.append(f"unknown certificate kind {c.kind!r}")
    elif r is None:
        article = "an" if c.kind == "inclusion" else "a"
        problems.append(f"{article} {c.kind} is checked against a realization, and none is given")
    elif c.kind == "inclusion":
        u, v = c.subject
        exactness, survivors = surviving_relators(r.assignment[u].relators, r.assignment[v], c.bound)
        for label in survivors:
            problems.append(f"relator {label} of {u} survives in quotient of {v}")
        if (c.scheme_coverage or exactness) and {
                sc.scheme_index for sc in c.scheme_coverage} != set(range(len(exactness))):
            problems.append("scheme coverage tags do not match the scheme list")
        for sc in c.scheme_coverage:
            if sc.coverage == "exact" and exactness[sc.scheme_index] != ("exact", sc.reason):
                problems.append(
                    f"scheme[{sc.scheme_index}]: exactness reason "
                    f"{sc.reason!r} does not re-derive"
                )
    elif c.kind == "separation":
        if c.witness is None:
            problems.append("separation certificate carries no witness")
        else:
            u, v = c.subject
            # the witness must be a candidate certify_separation draws from;
            # a word is equal to itself, and ``!=`` on a dataclass runs its
            # Python-level ``__eq__`` even then
            named = r.assignment[u].relators.relator(c.witness.provenance, c.bound)
            if named is not c.witness.word and named != c.witness.word:
                problems.append(
                    f"witness provenance {c.witness.provenance!r} does not "
                    f"match the relators of {u}"
                )
            w = c.witness.word
            key = (v, w.rank, w.letters)
            nf = images.get(key)
            if nf is None:
                nf = images[key] = eval_word(r.assignment[v], w)
            if nf.is_identity:
                problems.append("witness image is trivial in the target quotient")
            if nf != c.witness.image:
                problems.append("stored witness normal form does not re-derive")
    elif c.color_facts is None:
        problems.append("color certificate carries no facts")
    else:
        (v,) = c.subject
        # the justification is prose, not evidence: it is not compared
        facts = _color_facts(r, v)
        if replace(c.color_facts, justification=facts.justification) != facts:
            problems.append("color facts do not re-derive from the realization")
        elif not facts.biconditional:
            problems.append("color biconditional fails")


# ---------------------------------------------------------------------------
# whole-realization verification


@dataclass
class ReportEntry:
    check: str  # canonical | inclusion | separation | distinctness | color | abelianization
    subject: tuple[str, ...]
    status: str  # pass | fail | inconclusive
    detail: str = ""
    certificate: Certificate | None = None


class Report:
    """The entries of a verification, each kept as its one-line JSON text
    and tallied by check and status as it is added.  A report starts empty,
    with a pass verdict and no elapsed time; ``verify_all`` sets both once
    every entry is in.  ``entries`` decodes the texts afresh on each access,
    certificates through ``certificate_from_json``."""

    def __init__(self, bound: int):
        self.verdict, self.elapsed, self.bound = True, 0.0, bound
        self.texts: list[str] = []
        self.tally: Counter[tuple[str, str]] = Counter()
        self._tails: dict[tuple[str, str, str], str] = {}  # text between certificate and subject

    def add(self, check: str, subject: str, status: str, detail: str = "",
            certificate: str = "null") -> None:
        """Append an entry: ``subject`` is the text inside its JSON array,
        ``certificate`` its JSON text."""
        self.tally[check, status] += 1
        tail = self._tails.get((check, status, detail))
        if tail is None:
            tail = self._tails[check, status, detail] = (
                f',"check":{json_str(check)},"detail":{json_str(detail)},'
                f'"status":{json_str(status)},"subject":[')
        self.texts.append(f'{{"certificate":{certificate}{tail}{subject}]}}')

    @property
    def entries(self) -> list[ReportEntry]:
        out = []
        for text in self.texts:
            data = json.loads(text)
            cert = data["certificate"]
            out.append(ReportEntry(data["check"], tuple(data["subject"]), data["status"],
                                   data["detail"],
                                   None if cert is None else certificate_from_json(cert)))
        return out

    def count(self, check: str, status: str | None = None) -> int:
        return sum(n for (c, s), n in self.tally.items()
                   if c == check and (status is None or s == status))

    @property
    def inconclusive(self) -> int:
        return sum(n for (_, s), n in self.tally.items() if s == "inconclusive")


def _canonical_mismatches(r: Realization, ids: list[str]):
    """The subject and detail of each fail entry for the parts of ``r`` that
    differ from ``realize(r.dag)``: the whole realization, then each vertex."""
    canon = realize(r.dag)
    parts = {(): [("ambient_rank", r.ambient_rank, canon.ambient_rank),
                  ("step_index keys", sorted(r.step_index), sorted(canon.step_index))]}
    for v in ids:
        q, c = r.assignment[v], canon.assignment[v]
        parts[(v,)] = [("step_index", r.step_index.get(v), canon.step_index[v]),
                       ("relators", q.relators, c.relators),
                       ("expr", q.expr, c.expr),
                       ("marking", q.marking, c.marking)]
    for subject, pairs in parts.items():
        differ = [name for name, mine, theirs in pairs if mine != theirs]
        if differ:
            yield subject, f"{', '.join(differ)} differ from realize(dag)"


def verify_all(r: Realization, bound: int = 5) -> Report:
    """Compare the realization with ``realize(r.dag)``, certify every pair
    and vertex, re-check each certificate, and cross-check every vertex's
    abelianization against its structural expression.

    Each entry is encoded as soon as it is checked and its certificate is
    dropped.  A distinctness entry carries the separation certificate it
    cites with a note added; notes are not evidence, so it takes the
    witness text, status and detail of that separation's entry.

    Each separation gets its own certificate, and its check re-derives the
    witness's provenance label, tests the image for the identity and
    compares it with the stored image, pair by pair.  The image of a witness
    word in a target is evaluated once per call in each role: the search
    fills ``certified`` and the check fills ``checked``, and neither table
    outlives the call or is read by the other role."""
    start = time.perf_counter()
    ids = sorted(r.assignment)
    rep = Report(bound)
    for subject, detail in _canonical_mismatches(r, ids):
        rep.add("canonical", _strings(subject), "fail", detail)
    quoted = {v: json_str(v) for v in ids}
    # each certificate kind's text at this bound, cut where each entry's own
    # pieces go; json_str escapes control characters, so no piece holds a slot
    slot = "\x00"
    inc_head, inc_mid, inc_tail = _certificate_text(
        '"inclusion"', slot, bound, coverage=slot).split(slot)
    sep_head, sep_mid, sep_tail = _certificate_text(
        '"separation"', slot, bound, witness=slot).split(slot)
    dis_head, dis_notes_end, dis_subject_end, dis_tail = _certificate_text(
        '"separation"', slot, bound, notes=slot, witness=slot).split(slot)
    coverages: dict[tuple[SchemeCoverage, ...], str] = {}
    # (provenance, word rank, word letters, image syllables) -> witness text
    witnesses: dict[tuple, str] = {}
    certified: dict[tuple, NormalForm] = {}  # witness images, one table per role
    checked: dict[tuple, NormalForm] = {}
    # (u, v) -> the subject text, witness text, status and detail of its separation entry
    separations: dict[tuple[str, str], tuple[str, str, str, str]] = {}
    _, bit, rows = r.dag.peel
    for u in ids:
        above = rows[u]
        for v in ids:
            if u == v:
                continue
            subject = f"{quoted[u]},{quoted[v]}"
            included = above & bit[v]
            check = "inclusion" if included else "separation"
            try:
                cert = certify_inclusion(r, u, v, bound) if included else certify_separation(
                    r, u, v, bound, certified)
            except WitnessNotFoundError as exc:
                rep.add(check, subject, "inconclusive", str(exc))
                continue
            except (TraceFailedError, StructureMismatchError) as exc:
                rep.add(check, subject, "fail", str(exc))
                continue
            ok, problems = check_certificate_detailed(r, cert, checked)
            status, detail = "pass" if ok else "fail", "; ".join(problems)
            if included:
                coverage = cert.scheme_coverage
                text = coverages.get(coverage)
                if text is None:
                    text = coverages[coverage] = _coverage_text(coverage)
                rep.add(check, subject, status, detail,
                        f"{inc_head}{text}{inc_mid}{subject}{inc_tail}")
            else:
                wt = cert.witness
                key = wt.provenance, wt.word.rank, wt.word.letters, wt.image.syllables
                text = witnesses.get(key)
                if text is None:
                    text = witnesses[key] = _witness_text(wt)
                rep.add(check, subject, status, detail,
                        f"{sep_head}{subject}{sep_mid}{text}{sep_tail}")
                separations[u, v] = subject, text, status, detail
    no_witness = str(WitnessNotFoundError(bound))
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            subject = f"{quoted[u]},{quoted[v]}"
            cited = separations.get((u, v)) or separations.get((v, u))
            if cited is None:
                rep.add("distinctness", subject, "inconclusive", no_witness)
                continue
            cited_subject, witness, status, detail = cited
            notes = json_str(f"distinctness of ({u}, {v})")
            rep.add("distinctness", subject, status, detail,
                    f"{dis_head}{notes}{dis_notes_end}{cited_subject}{dis_subject_end}"
                    f"{witness}{dis_tail}")
    for v in ids:
        try:
            cert = certify_color(r, v)
        except StructureMismatchError as exc:
            rep.add("color", quoted[v], "fail", str(exc))
            continue
        ok, problems = check_certificate_detailed(r, cert, checked)
        rep.add("color", quoted[v], "pass" if ok else "fail", "; ".join(problems),
                _certificate_text('"color"', quoted[v], cert.bound,
                                  color=_color_text(cert.color_facts)))

    for v in ids:
        q = r.assignment[v]
        computed = abelianization(q.rank, q.relators)
        predicted = predicted_invariants(q.leaf_list)
        if computed == predicted:
            rep.add("abelianization", quoted[v], "pass", str(computed))
        else:
            rep.add("abelianization", quoted[v], "fail",
                    f"computed {computed} but structure predicts {predicted}")

    rep.verdict = all(status == "pass" for _, status in rep.tally)
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# serialization


def _trace_text(t: EvalTrace) -> str:
    quotient = json.dumps(quotient_to_json(t.quotient), sort_keys=True, separators=(",", ":"))
    return (f'{{"expected":{nf_to_text(t.expected)},"label":{json_str(t.label)},'
            f'"quotient":{{"inline":{quotient}}},"word":{word_to_text(t.word)}}}')


def _word_fact_text(f: SubstitutionFact) -> str:
    basis = ",".join(map(word_to_text, f.basis))
    return (f'{{"basis":[{basis}],"expression":{word_to_text(f.expression)},'
            f'"label":{json_str(f.label)},"target":{word_to_text(f.target)}}}')


def _coverage_text(coverage: tuple[SchemeCoverage, ...]) -> str:
    return ",".join(f'{{"coverage":{json_str(sc.coverage)},"reason":{json_str(sc.reason)},'
                    f'"scheme":{sc.scheme_index}}}' for sc in coverage)


def _witness_text(wt: WitnessEvidence) -> str:
    return (f',"witness":{{"image":{nf_to_text(wt.image)},'
            f'"provenance":{json_str(wt.provenance)},"word":{word_to_text(wt.word)}}}')


_BOOL = {True: "true", False: "false"}


def _color_text(f: ColorFacts) -> str:
    return (f',"color_facts":{{"color":{f.color},"justification":{json_str(f.justification)},'
            f'"lamplighter_free":{_BOOL[f.lamplighter_free]},'
            f'"scheme_free":{_BOOL[f.scheme_free]}}}')


def _strings(items) -> str:
    return ",".join(map(json_str, items))


def _certificate_text(kind: str, subject: str, bound: int, *, color: str = "",
                      coverage: str = "", notes: str = "", traces: str = "", witness: str = "",
                      word_facts: str = "") -> str:
    """A certificate's JSON text from pieces already encoded: ``kind`` is a
    JSON string; ``subject``, ``coverage``, ``notes``, ``traces`` and
    ``word_facts`` are the insides of their arrays; ``color`` and
    ``witness`` are empty or a member with its leading comma."""
    return (f'{{"bound":{bound}{color},"kind":{kind},"notes":[{notes}],'
            f'"scheme_coverage":[{coverage}],"subject":[{subject}],'
            f'"traces":[{traces}]{witness},"word_facts":[{word_facts}]}}')


def certificate_to_json(c: Certificate) -> dict:
    return json.loads(_certificate_text(
        json_str(c.kind), _strings(c.subject), c.bound,
        color="" if c.color_facts is None else _color_text(c.color_facts),
        coverage=_coverage_text(c.scheme_coverage), notes=_strings(c.notes),
        traces=",".join(map(_trace_text, c.traces)),
        witness="" if c.witness is None else _witness_text(c.witness),
        word_facts=",".join(map(_word_fact_text, c.word_facts))))


def _inline_quotient(data) -> MarkedQuotient:
    return quotient_from_json(json_field(data, "inline", dict, "trace quotient"))


# per evidence type, the owner its errors name and its fields in constructor
# order: the key, the JSON kind, and the reader of the value (None keeps it)
_FIELDS = {
    EvalTrace: ("trace", (
        ("label", str, None), ("expected", list, nf_from_json),
        ("quotient", dict, _inline_quotient), ("word", dict, word_from_json))),
    SchemeCoverage: ("scheme_coverage", (
        ("scheme", int, None), ("coverage", str, None), ("reason", str, None))),
    WitnessEvidence: ("witness", (
        ("word", dict, word_from_json), ("provenance", str, None), ("image", list, nf_from_json))),
    ColorFacts: ("color_facts", (
        ("color", int, None), ("scheme_free", bool, None), ("lamplighter_free", bool, None),
        ("justification", str, None))),
    SubstitutionFact: ("word_facts", (
        ("label", str, None), ("basis", list, lambda ws: tuple(map(word_from_json, ws))),
        ("expression", dict, word_from_json), ("target", dict, word_from_json))),
}


def _from_fields(cls, data):
    owner, fields = _FIELDS[cls]
    values = []
    for key, kind, read in fields:
        value = json_field(data, key, kind, owner)
        values.append(value if read is None else read(value))
    return cls(*values)


def certificate_from_json(data) -> Certificate:
    def many(key, cls):
        items = json_field(data, key, list, "certificate", optional=True)
        return tuple(_from_fields(cls, x) for x in items)

    def one(key, cls):
        x = json_field(data, key, dict, "certificate", optional=True)
        return _from_fields(cls, x) if x else None

    return Certificate(
        kind=json_field(data, "kind", str, "certificate"),
        subject=tuple(json_field(data, "subject", list, "certificate", item=str)),
        bound=json_field(data, "bound", int, "certificate", optional=True),
        traces=many("traces", EvalTrace),
        scheme_coverage=many("scheme_coverage", SchemeCoverage),
        witness=one("witness", WitnessEvidence),
        color_facts=one("color_facts", ColorFacts),
        word_facts=many("word_facts", SubstitutionFact),
        notes=tuple(json_field(data, "notes", list, "certificate", item=str, optional=True)),
    )


def report_chunks(rep: Report):
    """The report as one line of JSON in pieces, byte for byte what
    ``json.dumps`` with ``sort_keys=True`` and ``separators=(",", ":")``
    writes for the same report as dicts and lists: each template lists its
    keys in sorted order."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for (_, status), n in rep.tally.items():
        if status in counts:
            counts[status] += n
    yield (f'{{"bound":{rep.bound},"counts":{{"fail":{counts["fail"]},'
           f'"inconclusive":{counts["inconclusive"]},"pass":{counts["pass"]}}},'
           f'"elapsed_seconds":{round(rep.elapsed, 6)!r},"entries":[')
    for i, text in enumerate(rep.texts):
        if i:
            yield ","
        yield text
    yield f'],"verdict":"{"pass" if rep.verdict else "fail"}"}}'


def report_to_text(rep: Report) -> str:
    return "".join(report_chunks(rep))


def report_to_json(rep: Report) -> dict:
    return json.loads(report_to_text(rep))

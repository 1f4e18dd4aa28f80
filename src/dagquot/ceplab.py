"""Decidable congruence-extension experiments.

An extension H <= G has the congruence extension property (CEP) when every
subset R of H satisfies: the H-normal closure of R equals H intersected with
the G-normal closure of R.  Since H-normal closures of subsets range exactly
over the normal subgroups of H, the finite check quantifies over the normal
subgroup lattice of H instead of over all subsets (an exponential-to-lattice
reduction; the equation for R reduces to the equation for N = the H-closure
of R).

Finite groups ingest as multiplication tables or as permutation generators
(the table is computed by orbit closure, capped at order 10080); every table
is checked exactly, associativity by Light's test on a generating set.  One
primitive does the subgroup work: the join of a subgroup with one element,
a breadth-first search over right cosets of the subgroup.

The subgroup lattice is built once per group by cyclic extension over zuppos
(Neubüser 1960), the cyclic subgroups of prime-power order, extending one
representative per conjugacy class.  It is complete because every subgroup
is generated by its elements of prime-power order, and because the subgroups
found always form whole conjugacy classes: a join <K, z> with K = U^a is
<U, z^(a^-1)>^a, in the class of a join made from the representative U.
A representative U is joined with one zuppo per orbit under conjugation by
U, and by the group when U is normal: <U, x^u> = <U, x> for u in U, and
<U, x^a> = <U, x>^a is in the class of <U, x>.  The skipped joins would find
only known subgroups, so the order of discovery is unchanged.  Every other
subgroup's lattice is read off the whole one.  Normality is
checked by conjugating generators by generators only.  A normal closure in a
subgroup whose normal subgroups are listed already is the first of them that
contains the seed (exact: they are closed under intersection and listed by
size); otherwise it is found by conjugating generators by generators, since
nothing lists normal subgroups only to answer a closure.  A transitivity
scan lists them for every subgroup first, so it runs no conjugation search.
Each subgroup's generating set, each subgroup's normal subgroups and each
normal closure asked for are computed once and kept on the group.  The
builtins are s3, s4, s5, a4, a5, d4, q8, c2xc2 and s4xc2.

The module also reproduces, with a machine-checkable certificate, the
classical free-group counterexample: H generated by a and its conjugate a^b
inside the free group on {a, b} fails CEP for R = {a^b}.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from . import stallings
from .quotients import (
    InfiniteCyclic,
    LeafImage,
    MarkedQuotient,
    RelatorSet,
    eval_word,
    json_field,
)
from .verifier import Certificate, EvalTrace, SubstitutionFact
from .words import Word, conjugate, generator

ORDER_CAP = 10080


class GroupTableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite groups as multiplication tables


@dataclass
class FiniteGroup:
    """A finite group given by its full multiplication table.

    Element 0 is the identity; ``table[a][b]`` is the product a*b.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    _inv: tuple[int, ...] = field(default=(), repr=False, compare=False)
    # per-group memos, keyed by subgroups (frozensets of elements)
    _subgroups: dict = field(default_factory=dict, repr=False, compare=False)
    _generating_sets: dict = field(default_factory=dict, repr=False, compare=False)
    _normal_subgroups: dict = field(default_factory=dict, repr=False, compare=False)
    _normal_closures: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.validate()
        self._inv = tuple(row.index(0) for row in self.table)

    def validate(self) -> None:
        """Reject any table that is not a group table.

        Every row must be a permutation of the elements, the names distinct
        and element 0 an identity.  Associativity is Light's test: the
        elements s with (a*s)*c == a*(s*c) for all a, c are closed under
        products, so it suffices to check s over a set whose products reach
        every element, picked by the same search as subgroup closure (each
        element it reaches is a product of the picks, whether or not the
        table is associative).  That is exact at every order and costs O(n^2 k) for k generators instead
        of O(n^3).  An associative table with an identity whose rows are
        permutations is a group, so every column is then a permutation too.
        """
        n = self.order
        table = self.table
        if n < 1:
            raise GroupTableError("a group needs at least one element")
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupTableError("table is not order x order")
        if len(self.names) != n:
            raise GroupTableError("need one name per element")
        if len(set(self.names)) != n:
            raise GroupTableError("element names are not distinct")
        elements = set(range(n))
        for a, row in enumerate(table):
            if set(row) != elements:
                raise GroupTableError(f"row {a} is not a permutation of 0..{n - 1}")
        if list(table[0]) != list(range(n)) or [row[0] for row in table] != list(range(n)):
            raise GroupTableError("element 0 is not an identity")
        for s in _generate(self, range(n))[0]:
            row_s = table[s]
            for a, row_a in enumerate(table):
                left = tuple(table[row_a[s]])
                right = tuple(map(row_a.__getitem__, row_s))
                if left != right:
                    c = next(c for c in range(n) if left[c] != right[c])
                    raise GroupTableError(f"associativity fails at ({a}, {s}, {c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), a), by)

    def name_set(self, elems) -> list[str]:
        return sorted(self.names[e] for e in elems)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: frozenset[int]

    def __post_init__(self):
        generated = _generate(self.parent, self.elements)[1]
        if generated != self.elements:
            raise GroupTableError(f"elements are not a subgroup: they generate "
                                  f"{len(generated)} elements, not {len(self.elements)}")


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    return Subgroup(g, _generate(g, gens)[1])


def _join(g: FiniteGroup, sub: frozenset[int], gens, x: int) -> frozenset[int]:
    """The subgroup generated by the subgroup ``sub`` (generated by ``gens``)
    and ``x``: a union of right cosets of ``sub``, found breadth-first from
    the identity by right multiplication of the coset representatives by
    the generators.  Since (u*y)*s = u*(y*s), the union is closed once every
    representative's products are covered; in a finite group every inverse
    is a positive power.  O(|H| + [H : sub] |gens|) steps."""
    table = g.table
    gens = (*gens, x)
    reached = set(sub)
    representatives = [0]
    for y in representatives:  # grows while iterating
        row = table[y]
        for s in gens:
            t = row[s]
            if t not in reached:
                reached.update([table[u][t] for u in sub])
                representatives.append(t)
    return frozenset(reached)


def _generate(g: FiniteGroup, elems) -> tuple[list[int], frozenset[int]]:
    """The subgroup generated by ``elems`` and a generating set of it, picked
    greedily in ascending order: each element the earlier picks do not
    reach is joined."""
    gens: list[int] = []
    reached = frozenset({0})
    for x in sorted(set(elems)):
        if x not in reached:
            reached = _join(g, reached, gens, x)
            gens.append(x)
    return gens, reached


def _generating_set(g: FiniteGroup, sub: frozenset[int]) -> tuple[int, ...]:
    """A generating set of the subgroup ``sub``, computed once per group
    (the lattice records the one it builds each subgroup from)."""
    gens = g._generating_sets.get(sub)
    if gens is None:
        gens = g._generating_sets[sub] = tuple(_generate(g, sub)[0])
    return gens


def normal_closure_in(g: FiniteGroup, ambient: frozenset[int], seed) -> frozenset[int]:
    """Smallest subgroup of ``ambient`` containing seed and closed under
    conjugation by ambient; computed once per group for each ambient and
    seed.  A seed with elements outside ambient raises ``GroupTableError``.

    Once the normal subgroups of ambient are known, the closure is the first
    of them that contains seed: they are closed under intersection, so the
    closure is on the list, and the list is ordered by size, so no member
    before it contains seed.  Otherwise it is found by conjugation (nothing
    computes the list only for a closure): a subgroup is closed under
    conjugation by ambient once the conjugates of its generators by the
    generators of ambient lie in it; each generator added at least doubles
    the subgroup."""
    seed = frozenset(seed)
    key = (ambient, seed)
    closure = g._normal_closures.get(key)
    if closure is None:
        if not seed <= ambient:
            stray = ", ".join(g.name_set(seed - ambient))
            raise GroupTableError(f"seed elements {stray} lie outside the ambient subgroup")
        normals = g._normal_subgroups.get(ambient)
        if normals is not None:
            closure = next(n for n in normals if seed <= n)
        else:
            table = g.table
            by = [(table[g.inv(x)], x) for x in _generating_set(g, ambient)]
            gens, closure = _generate(g, seed)
            for s in gens:  # grows while iterating
                for row, x in by:
                    c = table[row[s]][x]
                    if c not in closure:
                        closure = _join(g, closure, gens, c)
                        gens.append(c)
        g._normal_closures[key] = closure
    return closure


def all_subgroups_within(g: FiniteGroup, ambient: frozenset[int]) -> list[frozenset[int]]:
    """Every subgroup of the given subgroup, ordered by size, then by sorted
    elements.  Once the whole group's lattice is known, any other ambient's
    lattice is read off it by filtering."""
    cache = g._subgroups
    if ambient not in cache:
        whole = cache.get(frozenset(range(g.order)))
        if whole is None:
            cache[ambient] = _lattice(g, ambient)
        else:
            cache[ambient] = [sub for sub in whole if sub <= ambient]
    return cache[ambient]


def _is_prime_power(n: int) -> bool:
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _lattice(g: FiniteGroup, ambient: frozenset[int]) -> list[frozenset[int]]:
    """Cyclic extension over zuppos (Neubüser 1960): grow from the trivial
    subgroup, joining one representative of each ambient-conjugacy class
    found, through its generating set, with one generator of every cyclic
    subgroup of prime-power order (zuppo) of ambient that it does not
    contain yet.  A join that is new brings in its whole class at once, by
    conjugating with the generators of ambient (a conjugate by an element
    outside ambient need not lie in ambient).

    Complete: every subgroup K is generated by its elements of prime-power
    order, so K is the end of a chain 1 < <z1> < <z1, z2> < ... of joins
    with zuppo elements.  If L is on that chain and found, L = U^a for the
    representative U of its class and some a in ambient, and
    <L, z> = <U, z^(a^-1)>^a, where z^(a^-1) generates a zuppo joined with
    U; its class, which holds <L, z>, was added whole.

    One join per orbit of zuppos: of the zuppos conjugate to <x> by U, U is
    joined with <x> only, since <U, x^u> = <U, x> for u in U; when U is
    normal, the same holds of the zuppos conjugate by ambient, since
    <U, x^a> = <U, x>^a is found with the class of <U, x>.  A skipped join
    would only find a known subgroup, so what is found, in what order and
    from which generators is as if every zuppo were joined."""
    table = g.table
    # conjugation by x is a -> table[row[a]][x], where row is the row of x^-1
    by = [(table[g.inv(x)], x) for x in _generating_set(g, ambient)]
    conjugations = [tuple(table[row[a]][x] for a in range(g.order)) for row, x in by]
    zuppos: dict[frozenset[int], int] = {}
    zuppo_of: dict[int, int] = {}  # element of prime-power order -> its zuppo's generator
    for x in sorted(ambient):
        powers = [x]
        while powers[-1]:
            powers.append(table[powers[-1]][x])
        if len(powers) > 1 and _is_prime_power(len(powers)):
            zuppo_of[x] = zuppos.setdefault(frozenset(powers), x)
    trivial = frozenset({0})
    found = {trivial: ()}
    representatives = [trivial]
    for current in representatives:  # grows while iterating
        gens = found[current]
        normal = all(conj[u] in current for conj in conjugations for u in gens)
        acting = by if normal else [(table[g.inv(u)], u) for u in gens]
        joined: set[int] = set()  # the zuppos of the orbits joined with current
        for x in zuppos.values():
            if x in current or x in joined:
                continue
            orbit = [x]
            for y in orbit:  # grows while iterating
                if y not in joined:
                    joined.add(y)
                    orbit += [zuppo_of[table[row[y]][a]] for row, a in acting]
            bigger = _join(g, current, gens, x)
            if bigger in found:
                continue
            found[bigger] = (*gens, x)
            representatives.append(bigger)
            conjugates = [bigger]
            for sub in conjugates:  # grows while iterating
                for conj in conjugations:
                    image = frozenset(map(conj.__getitem__, sub))
                    if image not in found:
                        found[image] = tuple(map(conj.__getitem__, found[sub]))
                        conjugates.append(image)
    for sub, gens in found.items():
        g._generating_sets.setdefault(sub, gens)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def all_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    return all_subgroups_within(g, frozenset(range(g.order)))


def normal_subgroups_within(g: FiniteGroup, ambient: frozenset[int]) -> list[frozenset[int]]:
    """The normal subgroups of ``ambient`` in lattice order, computed once per
    group: a subgroup is normal once the conjugates of its generators by the
    generators of ambient lie in it."""
    normals = g._normal_subgroups.get(ambient)
    if normals is None:
        table = g.table
        by = [(table[g.inv(x)], x) for x in _generating_set(g, ambient)]
        normals = g._normal_subgroups[ambient] = [
            sub for sub in all_subgroups_within(g, ambient)
            if all(table[row[a]][x] in sub for a in _generating_set(g, sub) for row, x in by)
        ]
    return normals


# ---------------------------------------------------------------------------
# CEP checks


@dataclass(frozen=True)
class CepViolation:
    """A normal subgroup of H whose two closure sides disagree."""

    seed_normal: frozenset[int]  # N, normal in H (equals its H-closure)
    intersection: frozenset[int]  # H meet the ambient closure of N


def _cep_failures(g: FiniteGroup, ambient: frozenset[int], sub: frozenset[int]):
    """Every normal subgroup of ``sub`` whose two closure sides disagree, in
    lattice order; lazily, so the first costs only the subgroups before it."""
    for n in normal_subgroups_within(g, sub):
        meet = normal_closure_in(g, ambient, n) & sub
        if meet != n:
            yield CepViolation(n, meet)


def is_cep_pair(g: FiniteGroup, ambient: frozenset[int], sub: frozenset[int]) -> bool:
    if not sub <= ambient:
        raise GroupTableError("chain is not nested")
    return next(_cep_failures(g, ambient, sub), None) is None


def is_cep_finite(g: FiniteGroup, h: Subgroup) -> tuple[bool, CepViolation | None]:
    violation = next(_cep_failures(g, frozenset(range(g.order)), h.elements), None)
    return violation is None, violation


def is_almost_cep_finite(
    g: FiniteGroup, h: Subgroup, max_s: int
) -> frozenset[int] | None:
    """Smallest S in H minus the identity (|S| <= max_s) such that every
    normal subgroup of H missing S satisfies the closure equation."""
    failing = [v.seed_normal for v in _cep_failures(g, frozenset(range(g.order)), h.elements)]
    pool = sorted(h.elements - {0})
    for size in range(max_s + 1):
        for combo in itertools.combinations(pool, size):
            s = frozenset(combo)
            if all(s & n for n in failing):
                return s
    return None


@dataclass
class TransitivityReport:
    chains_checked: int
    violations: list[tuple[str, frozenset[int], frozenset[int]]]

    @property
    def ok(self) -> bool:
        return not self.violations


def cep_transitivity_scan(g: FiniteGroup) -> TransitivityReport:
    """Check, over every chain H <= K <= G, that CEP composes and restricts:
    CEP(H,K) and CEP(K,G) imply CEP(H,G), and CEP(H,G) implies CEP(H,K).
    Both are theorems; a violation would expose an implementation bug."""
    whole = frozenset(range(g.order))
    subs = all_subgroups(g)
    normal_subgroups_within(g, whole)  # every closure below is then read off a list
    in_g = {k: is_cep_pair(g, whole, k) for k in subs}
    violations = []
    chains = 0
    for k in subs:
        for h in all_subgroups_within(g, k):
            chains += 1
            hk = is_cep_pair(g, k, h) if k != whole else in_g[h]
            kg, hg = in_g[k], in_g[h]
            if hk and kg and not hg:
                violations.append(("transitivity", h, k))
            if hg and not hk:
                violations.append(("restriction", h, k))
    return TransitivityReport(chains, violations)


# ---------------------------------------------------------------------------
# built-in groups

Perm = tuple[int, ...]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _read_cycles(text: str, degree: int) -> dict[int, int]:
    """Cycle notation, 1-based, checked against degree, read as a map from
    each 0-based point a cycle names to its image."""
    text = text.strip()
    if text != "e" and _CYCLE_RE.sub("", text).strip():  # '', '()' and 'e' name no point
        raise GroupTableError(f"cannot parse permutation {text!r}")
    image: dict[int, int] = {}
    for cycle in _CYCLE_RE.findall(text):
        try:
            entries = [int(tok) - 1 for tok in cycle.replace(",", " ").split()]
        except ValueError as exc:
            raise GroupTableError(f"bad cycle ({cycle}): {exc}") from exc
        if any(not 0 <= e < degree for e in entries) or image.keys() & entries:
            raise GroupTableError(f"bad cycle ({cycle}) for degree {degree}")
        if len(set(entries)) != len(entries):
            raise GroupTableError(f"repeated point in cycle ({cycle})")
        image.update(zip(entries, entries[1:] + entries[:1]))
    return image


def permutation_name(p: Perm) -> str:
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        cycles.append("(" + " ".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "()"


def group_from_permutations(degree: int, gen_texts) -> FiniteGroup:
    """The group generated by the permutations, elements numbered in
    breadth-first order from the identity.  Each element b other than the
    identity is found as c * q for an earlier c and a generator q, so
    column b of the table is column c followed by right multiplication by
    q, a map the search has already recorded: (a * c) * q = a * b.  Points
    past the last one a cycle names are fixed by every element and never
    named, so they are left out: a claimed degree costs nothing."""
    images = [_read_cycles(t, degree) for t in gen_texts]
    points = 1 + max((a for image in images for a in image), default=-1)
    gens = [tuple(image.get(a, a) for a in range(points)) for image in images]
    ident = tuple(range(points))
    elems: list[Perm] = [ident]
    index = {ident: 0}
    found_as: list[tuple[int, int]] = []  # elems[b] = elems[c] * gens[k] as (c, k)
    right: list[list[int]] = [[] for _ in gens]  # right[k][a]: elems[a] * gens[k]
    for a, p in enumerate(elems):  # grows while iterating
        for k, q in enumerate(gens):
            prod = tuple(map(q.__getitem__, p))  # apply p first, then q
            if prod not in index:
                if len(elems) >= ORDER_CAP:
                    raise GroupTableError(f"order cap {ORDER_CAP} exceeded")
                index[prod] = len(elems)
                elems.append(prod)
                found_as.append((a, k))
            right[k].append(index[prod])
    columns = [tuple(range(len(elems)))]
    for c, k in found_as:
        columns.append(tuple(map(right[k].__getitem__, columns[c])))
    table = tuple(zip(*columns))
    names = tuple(permutation_name(p) for p in elems)
    return FiniteGroup(len(elems), table, names)


_Q8_MUL = {
    # (symbol product, sign) for the quaternion units
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
    ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
    ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
    ("i", "j"): ("k", 1), ("j", "k"): ("i", 1), ("k", "i"): ("j", 1),
    ("j", "i"): ("k", -1), ("k", "j"): ("i", -1), ("i", "k"): ("j", -1),
}


def _quaternion_group() -> FiniteGroup:
    units = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    index = {u: n for n, u in enumerate(units)}

    def mul(a, b):
        sym, sign = _Q8_MUL[(a[1], b[1])]
        return (a[0] * b[0] * sign, sym)

    table = tuple(tuple(index[mul(a, b)] for b in units) for a in units)
    names = tuple(("" if s > 0 else "-") + sym for s, sym in units)
    return FiniteGroup(8, table, names)


def _klein_group() -> FiniteGroup:
    table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    return FiniteGroup(4, table, ("e", "a", "b", "ab"))


BUILTIN_GENERATORS = {
    "s3": (3, ["(1 2)", "(1 2 3)"]),
    "s4": (4, ["(1 2)", "(1 2 3 4)"]),
    "a4": (4, ["(1 2 3)", "(2 3 4)"]),
    "d4": (4, ["(1 2 3 4)", "(1 3)"]),
    "s5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "a5": (5, ["(1 2 3)", "(1 2 3 4 5)"]),
    "s4xc2": (6, ["(1 2)", "(1 2 3 4)", "(5 6)"]),
}


def builtin_group(name: str) -> FiniteGroup:
    name = name.lower()
    if name in BUILTIN_GENERATORS:
        degree, gens = BUILTIN_GENERATORS[name]
        return group_from_permutations(degree, gens)
    if name == "q8":
        return _quaternion_group()
    if name == "c2xc2":
        return _klein_group()
    raise GroupTableError(f"unknown builtin group {name!r}")


def builtin_names() -> list[str]:
    return sorted(list(BUILTIN_GENERATORS) + ["q8", "c2xc2"])


def subgroup_from_generator_names(g: FiniteGroup, gen_names) -> Subgroup:
    ids = []
    for name in gen_names:
        if name not in g.names:
            raise GroupTableError(f"no element named {name!r}")
        ids.append(g.names.index(name))
    return subgroup_generated(g, ids)


def d4_in_s4() -> tuple[FiniteGroup, Subgroup]:
    g = builtin_group("s4")
    return g, subgroup_from_generator_names(g, ["(1 2 3 4)", "(1 3)"])


def _table_entry(x) -> int:
    # int() would silently truncate 1.9 to 1 and read "1" as 1
    if type(x) is not int:
        raise GroupTableError(f"table entry {x!r} is not an integer")
    return x


def group_from_json(data) -> FiniteGroup:
    if "table" in data and "generators" in data:
        raise GroupTableError("group JSON has both 'table' and 'generators'; give one")
    for key, form, other in (("order", "table", "generators"), ("names", "table", "generators"),
                             ("degree", "generators", "table")):
        if key in data and other in data:
            raise GroupTableError(f"group field {key!r} belongs with {form!r}, not {other!r}")
    if "table" in data:
        order = json_field(data, "order", int, "group")
        rows = json_field(data, "table", list, "group", item=list)
        table = tuple(tuple(_table_entry(x) for x in row) for row in rows)
        if "names" in data:
            names = tuple(json_field(data, "names", list, "group", item=str))
        else:
            # a table of another size is refuted first, and no name is built
            names = tuple(str(n) for n in range(order if len(table) == order else 0))
        return FiniteGroup(order, table, names)
    if "generators" in data:
        degree = json_field(data, "degree", int, "group")
        if degree < 1:
            raise GroupTableError("group field 'degree' must be a positive integer")
        gens = json_field(data, "generators", list, "group", item=str)
        return group_from_permutations(degree, gens)
    raise GroupTableError("group JSON needs either a table or permutation generators")


def load_group(path) -> FiniteGroup:
    with open(path, encoding="utf-8") as fh:
        return group_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# the free-group counterexample, certified


def free_counterexample_demo() -> Certificate:
    """Certify that H = <a, a^b> <= F2 fails CEP for R = {a^b}.

    Three checked facts:
      1. a and a^b lie in H, constructively: basis expressions whose
         substitution reproduces the words;
      2. a is NOT in the H-normal closure of a^b: the retraction of H onto Z
         killing the basis element a^b kills that whole closure, yet sends a
         to 1;
      3. both generators of H die in the ambient quotient killing a, and a^b
         is the conjugate of a by b, so H lies inside the ambient closure of
         a^b.
    Hence the H-closure is a proper subgroup of H = H meet the ambient
    closure: the two sides of the congruence extension equation differ.
    """
    a = generator(2, 1)
    b = generator(2, 2)
    r = conjugate(a, b)  # x2^-1 x1 x2

    graph = stallings.build_subgroup_graph([a, r])
    base_words = tuple(stallings.basis(graph))
    if base_words != (a, r):
        raise GroupTableError("unexpected basis for the counterexample subgroup")
    expr_a = stallings.express(graph, a)
    expr_r = stallings.express(graph, r)
    if expr_a is None or expr_r is None:
        raise GroupTableError("the counterexample subgroup does not contain its generators")

    # retraction of H = F(basis) onto Z killing the second basis element
    retraction = MarkedQuotient(
        rank=2,
        relators=RelatorSet(2, (generator(2, 2),)),
        expr=InfiniteCyclic(),
        marking={1: LeafImage(0, 1), 2: None},
    )
    # ambient quotient F2 -> Z killing a
    ambient_quotient = MarkedQuotient(
        rank=2,
        relators=RelatorSet(2, (generator(2, 1),)),
        expr=InfiniteCyclic(),
        marking={1: None, 2: LeafImage(0, 1)},
    )

    hom_value_a = eval_word(retraction, expr_a)
    if hom_value_a.is_identity:
        raise GroupTableError("retraction unexpectedly kills a")

    traces = (
        EvalTrace("closure-side:hom-kills-relator", eval_word(retraction, expr_r),
                  retraction, expr_r),
        EvalTrace("closure-side:hom-value-of-a", hom_value_a, retraction, expr_a),
        EvalTrace("ambient-side:a-dies", eval_word(ambient_quotient, a),
                  ambient_quotient, a),
        EvalTrace("ambient-side:conjugate-dies", eval_word(ambient_quotient, r),
                  ambient_quotient, r),
    )
    word_facts = (
        SubstitutionFact("a-in-subgroup", base_words, expr_a, a),
        SubstitutionFact("conjugate-in-subgroup", base_words, expr_r, r),
        SubstitutionFact(
            "relator-is-conjugate-of-a",
            (a, b),
            Word(2, ((2, -1), (1, 1), (2, 1))),
            r,
        ),
    )
    notes = (
        "subgroup: H generated by x1 and x2^-1 x1 x2 inside the free group of rank 2",
        "the retraction H -> Z (basis element x1 -> 1, x2^-1 x1 x2 -> 0) kills the "
        "H-normal closure of x2^-1 x1 x2 but not x1, so x1 is outside that closure",
        "x2^-1 x1 x2 and x1 are conjugate, so their ambient normal closures agree; "
        "both generators of H die in the ambient quotient killing x1, so H lies "
        "inside the ambient closure",
        "conclusion: the H-closure of the relator is a proper subgroup of "
        "H = H meet its ambient closure; the extension is not CEP",
    )
    return Certificate(
        kind="cep-counterexample",
        subject=("free-rank-2-conjugate-generator",),
        traces=traces,
        word_facts=word_facts,
        notes=notes,
    )

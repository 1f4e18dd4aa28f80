"""Exact word algebra in finitely generated free groups.

Generators are 1-indexed integers; a word is a reduced sequence of signed
letters carrying the rank of its ambient free group.  Text syntax is
whitespace-separated atoms, ``x1 x3^-1`` (the empty string is the identity).

Ranks are explicit everywhere: operands of different rank are an error,
never an implicit coercion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Letter = tuple[int, int]


class WordError(ValueError):
    pass


class RankMismatchError(WordError):
    """Operands live in free groups of different rank."""


class GeneratorRangeError(WordError):
    """A letter refers to a generator outside the ambient rank."""


def _reduce_letters(raw) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for idx, sign in raw:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def _check_letters(letters, rank: int) -> None:
    for idx, sign in letters:
        if sign not in (1, -1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
        if not 1 <= idx <= rank:
            raise GeneratorRangeError(
                f"generator x{idx} out of range for rank {rank}"
            )


@dataclass(frozen=True)
class Word:
    """A reduced word over the free group on ``x1 .. x<rank>``."""

    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise WordError(f"rank must be >= 0, got {self.rank}")
        _check_letters(self.letters, self.rank)
        for a, b in zip(self.letters, self.letters[1:]):
            if a[0] == b[0] and a[1] == -b[1]:
                raise WordError(f"letters are not reduced at {a}{b}")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def identity(rank: int) -> Word:
    return Word(rank, ())


def generator(rank: int, idx: int, sign: int = 1) -> Word:
    return Word(rank, ((idx, sign),))


def reduce(raw, rank: int) -> Word:
    """Free reduction of a raw letter sequence; the unique normal form."""
    raw = tuple(raw)
    _check_letters(raw, rank)
    return Word(rank, _reduce_letters(raw))


def multiply(a: Word, b: Word) -> Word:
    if a.rank != b.rank:
        raise RankMismatchError(f"rank {a.rank} vs {b.rank}")
    return Word(a.rank, _reduce_letters(a.letters + b.letters))


def invert(a: Word) -> Word:
    return Word(a.rank, tuple((idx, -sign) for idx, sign in reversed(a.letters)))


def conjugate(g: Word, h: Word) -> Word:
    """h^-1 g h, reduced."""
    if g.rank != h.rank:
        raise RankMismatchError(f"rank {g.rank} vs {h.rank}")
    return multiply(multiply(invert(h), g), h)


def commutator(g: Word, h: Word) -> Word:
    """g^-1 h^-1 g h, reduced."""
    return multiply(multiply(invert(g), invert(h)), multiply(g, h))


def power(a: Word, n: int) -> Word:
    base = a if n >= 0 else invert(a)
    return Word(a.rank, _reduce_letters(base.letters * abs(n)))


def exponent_vector(w: Word) -> list[int]:
    """Signed letter counts per generator; the image in Z^rank."""
    vec = [0] * w.rank
    for idx, sign in w.letters:
        vec[idx - 1] += sign
    return vec


@dataclass(frozen=True)
class Hom:
    """A substitution homomorphism between free groups, one image per generator."""

    domain_rank: int
    codomain_rank: int
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.domain_rank:
            raise WordError(
                f"expected {self.domain_rank} images, got {len(self.images)}"
            )
        for img in self.images:
            if img.rank != self.codomain_rank:
                raise RankMismatchError(
                    f"image rank {img.rank} != codomain rank {self.codomain_rank}"
                )


def apply_hom(f: Hom, w: Word) -> Word:
    if w.rank != f.domain_rank:
        raise RankMismatchError(f"word rank {w.rank} != domain rank {f.domain_rank}")
    out: list[Letter] = []
    for idx, sign in w.letters:
        img = f.images[idx - 1]
        out.extend(img.letters if sign > 0 else invert(img).letters)
    return reduce(out, f.codomain_rank)


_ATOM_RE = re.compile(r"^x(\d+)(\^-1)?$")


def parse_word(text: str, rank: int) -> Word:
    """Parse ``x1 x3^-1`` style text into a reduced word."""
    raw: list[Letter] = []
    for atom in text.split():
        m = _ATOM_RE.match(atom)
        if not m:
            raise WordError(f"cannot parse word atom {atom!r}")
        idx = int(m.group(1))
        if idx < 1:
            raise WordError(f"generator index must be >= 1 in {atom!r}")
        raw.append((idx, -1 if m.group(2) else 1))
    return reduce(raw, rank)


def format_word(w: Word) -> str:
    return " ".join(
        f"x{idx}" if sign > 0 else f"x{idx}^-1" for idx, sign in w.letters
    )

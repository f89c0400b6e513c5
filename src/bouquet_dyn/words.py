"""Word algebra for self-maps of a bouquet of n circles.

A map is described by where it sends each petal generator: generator j
goes to a word ``A_j`` over the letters ``a1..an`` and their inverses.
Words must be sign-homogeneous (all plain letters or all inverses), which
models maps that are monotone on every petal.  Letters serialize as
``a3`` and ``a3'`` (apostrophe marks the inverse).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .errors import InputError

#: branch class of a map whose branching point is never periodic
BRANCH_FREE = None

_LETTER_RE = re.compile(r"^a([1-9][0-9]*)('?)$")


@dataclass(frozen=True)
class Letter:
    """One generator symbol: ``a<index>`` or its inverse ``a<index>'``."""

    index: int
    sign: int

    def __post_init__(self):
        if self.index < 1:
            raise InputError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise InputError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)

    def token(self) -> str:
        return f"a{self.index}" + ("'" if self.sign < 0 else "")

    @staticmethod
    def parse(tok: str) -> "Letter":
        m = _LETTER_RE.match(tok)
        if not m:
            raise InputError(f"bad letter token {tok!r} (expected e.g. a2 or a2')")
        return Letter(int(m.group(1)), -1 if m.group(2) else 1)


@dataclass(frozen=True)
class Word:
    """A nonempty, sign-homogeneous sequence of letters."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise InputError("empty words are not allowed")
        signs = {l.sign for l in self.letters}
        if len(signs) > 1:
            raise InputError(
                "word mixes plain and inverse letters: " + self.text()
            )

    @property
    def sign(self) -> int:
        return self.letters[0].sign

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def max_index(self) -> int:
        return max(l.index for l in self.letters)

    def text(self) -> str:
        return " ".join(l.token() for l in self.letters)

    @staticmethod
    def parse(text: str) -> "Word":
        toks = text.split()
        if not toks:
            raise InputError("empty word")
        return Word(tuple(Letter.parse(t) for t in toks))


@dataclass(frozen=True)
class MapAction:
    """A bouquet self-map given by its petal images and branch-orbit class.

    ``images[j-1]`` is the image word of generator j.  All image words must
    share one global sign (the map is orientation preserving or reversing
    as a whole).  ``branch_class`` is the least period k of the branching
    point, or ``BRANCH_FREE`` (None) if the branching point is never
    periodic; it is user metadata — the words alone cannot determine it.
    Under f^m the period is ``branch_period_under(k, m)``, and the
    branching point is fixed by f^m exactly when that is 1.
    """

    n: int
    images: tuple[Word, ...]
    branch_class: int | None = BRANCH_FREE

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need at least one circle, got n={self.n}")
        if len(self.images) != self.n:
            raise InputError(
                f"expected {self.n} image words, got {len(self.images)}"
            )
        for j, w in enumerate(self.images, start=1):
            if w.max_index() > self.n:
                raise InputError(
                    f"image of a{j} uses generator a{w.max_index()} "
                    f"but n={self.n}"
                )
        signs = {w.sign for w in self.images}
        if len(signs) > 1:
            raise InputError(
                "image words disagree on orientation: all words must be "
                "plain or all inverse"
            )
        k = self.branch_class
        if k is not None and (not isinstance(k, int) or k < 1):
            raise InputError(f"branch class must be a positive integer or free, got {k!r}")

    @property
    def global_sign(self) -> int:
        return self.images[0].sign

    def image(self, j: int) -> Word:
        if not 1 <= j <= self.n:
            raise InputError(f"generator index {j} out of range 1..{self.n}")
        return self.images[j - 1]

    @staticmethod
    def from_texts(texts: Sequence[str], branch_class: int | None = BRANCH_FREE) -> "MapAction":
        ws = tuple(Word.parse(t) for t in texts)
        return MapAction(len(ws), ws, branch_class)


def action(*texts: str, k: int | None = BRANCH_FREE) -> MapAction:
    """Shorthand: ``action("a1 a3", "a1", "a1 a3", k=1)``."""
    return MapAction.from_texts(texts, k)


def branch_period_under(k: int | None, m: int) -> int | None:
    """Least period of the branching point under f^m, given its least
    period k under f (None: never periodic).  It is 1, so the branching
    point is fixed by f^m, exactly when k divides m."""
    return None if k is None else k // gcd(k, m)


# ---------------------------------------------------------------------------
# counting functions

def chi(w: Word, j: int) -> int:
    """Signed number of occurrences of generator j anywhere in w."""
    if j < 1:
        raise InputError(f"generator index {j} out of range")
    return sum(l.sign for l in w if l.index == j)


# ---------------------------------------------------------------------------
# the induced endomorphism

def first_letter(f: MapAction, l: Letter) -> Letter:
    """First letter of the image of the one-letter word l.

    Allowed words never cancel, so the first letter of f(w) is the first
    letter of the image of w's first letter, and the last letter of f(w)
    is the inverse of the first letter of f(w^-1).  The orbits of a_j and
    a_j' under this map therefore give the first and last letters of
    every iterate image of a_j.
    """
    img = f.image(l.index)
    return img.letters[0] if l.sign > 0 else img.letters[-1].inverse()


# ---------------------------------------------------------------------------
# orientation

def orientation(f: MapAction) -> str:
    """'preserving' or 'reversing', read off the global word sign."""
    return "preserving" if f.global_sign > 0 else "reversing"


def orientation_of_power(f: MapAction, m: int) -> str:
    """Orientation of the m-th iterate (a reversing map squares to preserving)."""
    if f.global_sign > 0 or m % 2 == 0:
        return "preserving"
    return "reversing"

"""Word algebra for self-maps of a bouquet of n circles.

A map is described by where it sends each petal generator: generator j
goes to a word ``A_j`` over the letters ``a1..an`` and their inverses.
Words must be sign-homogeneous (all plain letters or all inverses), which
models maps that are monotone on every petal.  Letters serialize as
``a3`` and ``a3'`` (apostrophe marks the inverse).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import InputError, Record

#: branch class of a map whose branching point is never periodic
BRANCH_FREE = None

#: the most circles a map may have, checked at a spec's n= line; a parsed
#: generator index is held to its digits before int() reads it
CIRCLE_CAP = 64


def generator_index(digits: str) -> int | None:
    """The index that `digits`, ASCII digits with no leading zero, spell,
    else None; past the digits of CIRCLE_CAP, refused by their count."""
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        return None
    if len(digits) > len(str(CIRCLE_CAP)):
        raise InputError(f"generator index has {len(digits)} digits, over "
                         f"the cap of {len(str(CIRCLE_CAP))} digits")
    return int(digits)


class Letter(Record, fields="index sign"):
    """One generator symbol: ``a<index>`` or its inverse ``a<index>'``;
    `index` is an int >= 1 and `sign` is the int +1 or -1, neither a bool."""

    __slots__ = ()

    def __new__(cls, index: int, sign: int) -> Letter:
        if type(index) is not int or index < 1:
            raise InputError(f"generator index must be an int >= 1, got {index!r}")
        if type(sign) is not int or sign not in (1, -1):
            raise InputError(f"letter sign must be the int +1 or -1, got {sign!r}")
        return tuple.__new__(cls, (index, sign))

    def token(self) -> str:
        return f"a{self.index}" + ("'" if self.sign < 0 else "")

    @staticmethod
    def parse(tok: str) -> Letter:
        sign = -1 if tok.endswith("'") else 1
        body = tok[:-1] if sign < 0 else tok
        index = generator_index(body[1:]) if body.startswith("a") else None
        if index is None:
            raise InputError(f"bad letter token {tok!r} (expected e.g. a2 or a2')")
        return Letter(index, sign)


class Word(tuple):
    """A nonempty, sign-homogeneous sequence of letters: the tuple of its
    letters."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter]) -> Word:
        w = tuple.__new__(cls, letters)
        if not w:
            raise InputError("empty words are not allowed")
        if len({sign for _, sign in w}) > 1:
            raise InputError("word mixes plain and inverse letters: " + w.text())
        return w

    @property
    def sign(self) -> int:
        return self[0].sign

    def max_index(self) -> int:
        return max(index for index, _ in self)

    def text(self) -> str:
        return " ".join(l.token() for l in self)

    @staticmethod
    def parse(text: str) -> Word:
        return Word(Letter.parse(t) for t in text.split())


class MapAction(Record, fields="n images branch_class"):
    """A bouquet self-map given by its petal images and branch-orbit class.

    ``n`` is the number of circles, an int >= 1, and ``images[j-1]``, a
    `Word`, is the image word of generator j.  All image words must
    share one global sign (the map is orientation preserving or reversing
    as a whole).  ``branch_class`` is the least period k of the branching
    point, or ``BRANCH_FREE`` (None) if the branching point is never
    periodic; it is user metadata — the words alone cannot determine it.
    n and the class are ints, never a bool or a float.
    Only class 1 fixes the branching point as a based vertex, and only
    there do the preserving iterates take the based fixed-point count and
    the index bound for the Lefschetz check.
    """

    __slots__ = ()

    def __new__(cls, n: int, images: tuple[Word, ...],
                branch_class: int | None = BRANCH_FREE) -> MapAction:
        if type(n) is not int or n < 1:
            raise InputError(f"circle count must be an int >= 1, got n={n!r}")
        if len(images) != n:
            raise InputError(f"expected {n} image words, got {len(images)}")
        for j, w in enumerate(images, start=1):
            if w.max_index() > n:
                raise InputError(
                    f"image of a{j} uses generator a{w.max_index()} but n={n}"
                )
        if len({w.sign for w in images}) > 1:
            raise InputError(
                "image words disagree on orientation: all words must be "
                "plain or all inverse"
            )
        k = branch_class
        if k is not None and (type(k) is not int or k < 1):
            raise InputError(f"branch class must be a positive integer or free, got {k!r}")
        return tuple.__new__(cls, (n, images, k))

    @property
    def global_sign(self) -> int:
        return self.images[0].sign

    def image(self, j: int) -> Word:
        if not 1 <= j <= self.n:
            raise InputError(f"generator index {j} out of range 1..{self.n}")
        return self.images[j - 1]

    @staticmethod
    def from_texts(texts: Sequence[str], branch_class: int | None = BRANCH_FREE) -> MapAction:
        ws = tuple(Word.parse(t) for t in texts)
        return MapAction(len(ws), ws, branch_class)


def action(*texts: str, k: int | None = BRANCH_FREE) -> MapAction:
    """Shorthand: ``action("a1 a3", "a1", "a1 a3", k=1)``."""
    return MapAction.from_texts(texts, k)


# ---------------------------------------------------------------------------
# orientation

def orientation(f: MapAction) -> str:
    """'preserving' or 'reversing', read off the global word sign."""
    return "preserving" if f.global_sign > 0 else "reversing"

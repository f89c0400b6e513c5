"""Word algebra for self-maps of a bouquet of n circles.

A map is described by where it sends each petal generator: generator j
goes to a word ``A_j`` over the letters ``a1..an`` and their inverses.
Words must be sign-homogeneous (all plain letters or all inverses), which
models maps that are monotone on every petal.  Letters serialize as
``a3`` and ``a3'`` (apostrophe marks the inverse).
"""

from .errors import InputError, Record, check_int, shown

#: branch class of a map whose branching point is never periodic
BRANCH_FREE = None

#: the most circles a map may have, checked at a spec's n= line and by
#: every `Letter`; a parsed generator index is held to CIRCLE_DIGITS,
#: its digits, before int() reads it
CIRCLE_CAP = 64
CIRCLE_DIGITS = len(str(CIRCLE_CAP))


def generator_index(digits: str) -> int | None:
    """The index that `digits`, ASCII digits with no leading zero, spell,
    else None; past the digits of CIRCLE_CAP, refused by their count."""
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        return None
    if len(digits) > CIRCLE_DIGITS:
        raise InputError(f"generator index has {len(digits)} digits, over "
                         f"the cap of {CIRCLE_DIGITS} digits")
    return int(digits)


class Letter(Record, fields="index sign"):
    """One generator symbol: ``a<index>`` or its inverse ``a<index>'``;
    `index` is an int in 1..CIRCLE_CAP and `sign` is the int +1 or -1,
    neither a bool."""

    __slots__ = ()

    def __new__(cls, index: int, sign: int) -> "Letter":
        check_int(index, "generator index", 1, CIRCLE_CAP)
        if not check_int(sign, "letter sign", -1, 1):
            raise InputError("letter sign must be -1 or 1, got 0")
        return tuple.__new__(cls, (index, sign))

    def token(self) -> str:
        return f"a{self.index}" + ("'" if self.sign < 0 else "")

    @staticmethod
    def parse(tok: str) -> "Letter":
        sign = -1 if tok.endswith("'") else 1
        body = tok[:-1] if sign < 0 else tok
        index = generator_index(body[1:]) if body.startswith("a") else None
        if index is None:
            raise InputError(f"bad letter token {shown(tok)} (expected e.g. a2 or a2')")
        return Letter(index, sign)


class Word(tuple):
    """A nonempty, sign-homogeneous sequence of letters: the tuple of its
    letters."""

    __slots__ = ()

    def __new__(cls, letters: "Iterable[Letter]") -> "Word":
        w = tuple.__new__(cls, letters)
        if not w:
            raise InputError("empty words are not allowed")
        if not all(isinstance(letter, Letter) for letter in w):
            raise InputError(f"word letters must be Letters, got {shown(tuple(w))}")
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
    def parse(text: str) -> "Word":
        return Word(Letter.parse(t) for t in text.split())


class MapAction(Record, fields="n images branch_class"):
    """A bouquet self-map given by its petal images and branch-orbit class.

    ``n`` is the number of circles, an int >= 1, and ``images[j-1]``, a
    `Word`, is the image word of generator j; the images are stored as a
    tuple.  All image words must share one global sign (the map is
    orientation preserving or reversing as a whole).  ``branch_class`` is
    the least period k of the branching point, or ``BRANCH_FREE`` (None)
    if the branching point is never periodic; it is user metadata — the
    words alone cannot determine it.  n and the class are ints, never a
    bool or a float.  Only class 1 fixes the branching point as a based
    vertex, and only there do the preserving iterates take the based
    fixed-point count, which no Lefschetz row restates.
    """

    __slots__ = ()

    def __new__(cls, n: int, images: "Sequence[Word]",
                branch_class: int | None = BRANCH_FREE) -> "MapAction":
        check_int(n, "circle count", 1)
        images = tuple(images)
        if len(images) != n:
            raise InputError(f"expected {shown(n)} image words, got {len(images)}")
        for j, w in enumerate(images, start=1):
            if not isinstance(w, Word):
                raise InputError(f"image of a{j} must be a Word, got {shown(w)}")
            if w.max_index() > n:
                raise InputError(f"image of a{j} uses generator "
                                 f"a{shown(w.max_index())} but n={n}")
        if len({w.sign for w in images}) > 1:
            raise InputError("image words disagree on orientation: all words "
                             "must be plain or all inverse")
        if branch_class is not None:
            check_int(branch_class, "branch class", 1)
        return tuple.__new__(cls, (n, images, branch_class))

    @property
    def global_sign(self) -> int:
        return self.images[0].sign

    def image(self, j: int) -> Word:
        return self.images[check_int(j, "generator index", 1, self.n) - 1]

    @staticmethod
    def from_texts(texts: "Sequence[str]", branch_class: int | None = BRANCH_FREE) -> "MapAction":
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

"""The letter and image-line parsers, written with `str` methods, accept
exactly the grammar of the regular expressions they replaced, and read
the same values from it; an index past the digits of CIRCLE_CAP is
refused by its digit count."""

import random
import re

import pytest

from bouquet_dyn.cli import _image_line, parse_spec
from bouquet_dyn.errors import InputError
from bouquet_dyn.words import CIRCLE_CAP, Letter, Word, action

#: the patterns the parsers used to match, kept here as the reference
LETTER_RE = re.compile(r"^a([1-9][0-9]*)('?)$")
IMAGE_RE = re.compile(r"^a([1-9][0-9]*)\s*->\s*(.+)$")

INDEX_DIGITS = len(str(CIRCLE_CAP))

PREFIXES = ["a", "a", "a", "", "b", "A", "aa", "-a"]
DIGITS = ["", "0", "00", "01", "1", "7", "10", "64", "99", "100", "007",
          "²", "٣", "1²", "3٣", "12a", "1a", "9" * 5]
SUFFIXES = ["", "", "'", "''", "'1", "`", "’", "a1"]
SPACES = ["", "", " ", "  ", "\t", "\u00a0", "\u2003", " \t"]
ARROWS = ["->", "->", "->", "-> ->", "->->", "- >", "=>", "-", ">", "",
          "→"]
BODIES = ["", "a1", "a1 a2'", "a2' a2'", "x", "->", "a1 ->", "a01", "a1''",
          "a²", "a1\u00a0a2", "a1 a" + "9" * 5, "#"]


def tokens(rng, count):
    """Letter-like tokens with no whitespace, as `Word.parse` passes them."""
    out = ["a", "a'", "a1''", "a²", "a٣", "a0", "a01", "a1", "a99'", "a100"]
    while len(out) < count:
        out.append(rng.choice(PREFIXES) + rng.choice(DIGITS)
                   + rng.choice(SUFFIXES))
    return out


def lines(rng, count):
    """Candidate image lines, stripped as `parse_spec` strips each line."""
    out = ["a1 -> ", "a1 -> a1 -> a1", "a1\u00a0->\u2003a1", "a1\t->\ta1",
           "a01 -> a1", "a1' -> a1", "a -> a1", "a 1 -> a1"]
    while len(out) < count:
        head = (rng.choice(PREFIXES) + rng.choice(["", "", "", " "])
                + rng.choice(DIGITS) + rng.choice(["", "", "'"]))
        out.append(head + rng.choice(SPACES) + rng.choice(ARROWS)
                   + rng.choice(SPACES) + rng.choice(BODIES)
                   + rng.choice(SPACES))
    return [line.strip() for line in out]


def test_letter_grammar():
    rng = random.Random(28)
    accepted = refused = capped = 0
    for tok in tokens(rng, 3000):
        m = LETTER_RE.match(tok)
        if m is None:
            refused += 1
            with pytest.raises(InputError) as e:
                Letter.parse(tok)
            assert str(e.value) == (
                f"bad letter token {tok!r} (expected e.g. a2 or a2')")
        elif len(m.group(1)) > INDEX_DIGITS:
            capped += 1
            with pytest.raises(InputError, match=(
                    f"^generator index has {len(m.group(1))} digits, over the "
                    f"cap of {INDEX_DIGITS} digits$")):
                Letter.parse(tok)
        else:
            accepted += 1
            letter = Letter.parse(tok)
            assert tuple(letter) == (int(m.group(1)), -1 if m.group(2) else 1)
    assert min(accepted, refused, capped) > 40, (accepted, refused, capped)


def test_image_line_grammar():
    rng = random.Random(28)
    accepted = refused = capped = 0
    for line in lines(rng, 5000):
        m = IMAGE_RE.match(line)
        if m is None:
            refused += 1
            assert _image_line(line) is None, line
        elif len(m.group(1)) > INDEX_DIGITS:
            capped += 1
            with pytest.raises(InputError, match="^generator index has"):
                _image_line(line)
        else:
            accepted += 1
            assert _image_line(line) == (int(m.group(1)), m.group(2)), line
    assert min(accepted, refused, capped) > 40, (accepted, refused, capped)


@pytest.mark.parametrize("line", ["a1 ->", "a1 - > a1", "a01 -> a1",
                                  "a1' -> a1", "a² -> a1", "a1 => a1"])
def test_not_an_image_line(line):
    with pytest.raises(InputError, match="^line 3: unrecognized line"):
        parse_spec(f"n=1\nbranch: free\n{line}\n")


def test_arrow_spacing():
    for line in ["a1->a1 a1", "a1 \u00a0->\u2003a1 a1", "a1\t->\ta1\ta1"]:
        doc = parse_spec(f"n=1\nbranch: free\n{line}\n")
        assert doc.action.images == (Word.parse("a1 a1"),)


@pytest.mark.parametrize("build", [
    lambda: action("a" + "9" * 5000),
    lambda: action("a1", "a2 a" + "9" * 5000),
    lambda: Word.parse("a1 a" + "9" * 5000 + "'"),
    lambda: Letter.parse("a" + "9" * 5000),
])
def test_long_index_through_the_library(build):
    # int() alone would raise a bare ValueError past 4 300 digits
    with pytest.raises(InputError, match=(
            f"^generator index has 5000 digits, over the cap of "
            f"{INDEX_DIGITS} digits$")):
        build()


def test_index_cap_edge():
    assert Letter.parse("a" + "9" * INDEX_DIGITS).index == int("9" * INDEX_DIGITS)
    with pytest.raises(InputError, match="over the cap"):
        Letter.parse("a1" + "0" * INDEX_DIGITS)

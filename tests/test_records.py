"""The records are immutable named tuples (and `Word` the tuple of its
letters): they copy and pickle to equal values of the same type, the
validating constructors refuse bad input, and the PL oracle's error texts
print ratios as `Fraction` would."""

import copy
import pickle
from fractions import Fraction

import pytest

from bouquet_dyn import PowerSequences, abelianize, action
from bouquet_dyn.cli import ReportOptions
from bouquet_dyn.errors import InputError
from bouquet_dyn.periods import Conclusion, PeriodCertificate
from bouquet_dyn.pl_oracle import _ratio
from bouquet_dyn.words import Letter, MapAction, Word

F = action("a1 a2 a1", "a1", k=2)

RECORDS = [
    Letter(3, -1),
    Word.parse("a1 a2 a1"),
    F,
    PowerSequences.of(abelianize(F), 8),
    PeriodCertificate("fmbig", Conclusion("single", 3),
                      {"m": 3, "fix_m": 8, "divisor_sum": 2}),
    ReportOptions(horizon=20, no_oracle=True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_round_trips(record):
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert other == record and type(other) is type(record)


def test_word_is_its_letters():
    letters = [Letter(1, 1), Letter(2, 1), Letter(1, 1)]
    w = Word(letters)
    assert len(w) == 3 and list(w) == letters
    assert w == Word.parse("a1 a2 a1") and w.text() == "a1 a2 a1"
    assert (w.sign, w.max_index()) == (1, 2)


def test_records_are_immutable():
    options = ReportOptions()
    with pytest.raises(AttributeError):
        options.horizon = 5
    with pytest.raises(AttributeError):
        F.branch_class = 1


@pytest.mark.parametrize("build", [
    lambda: Letter(0, 1),
    lambda: Letter(1, 0),
    lambda: Letter(1, 2),
    lambda: MapAction(0, ()),
    lambda: MapAction(2, (Word.parse("a1"),)),
    lambda: MapAction(1, (Word.parse("a1 a1"),), "1"),
    lambda: Letter(1, 1)._replace(sign=5),
    lambda: Letter._make((0, 1)),
    lambda: F._replace(branch_class=0),
])
def test_constructors_refuse(build):
    # with the cases of tests/test_words.py: empty and mixed-sign words,
    # indices past n, mixed orientations and bad branch classes
    with pytest.raises(InputError):
        build()


def test_ratio_prints_as_fraction():
    for scale in range(1, 41):
        for x in range(-3 * scale, 3 * scale + 1):
            assert _ratio(x, scale) == str(Fraction(x, scale)), (x, scale)
    assert _ratio(10**40 + 2, 2 * 10**20) == str(Fraction(10**40 + 2, 2 * 10**20))

"""The records are immutable tuples with named fields (and `Word` the
tuple of its letters): they copy and pickle to equal values of the same
type, print and compare as named tuples do, the validating constructors
refuse bad input, naming an int of any size, and the PL oracle's error
texts print ratios as `Fraction` would."""

import copy
import importlib
import pickle
import pkgutil
import re
from collections import namedtuple
from fractions import Fraction

import pytest

import bouquet_dyn
from bouquet_dyn import (PowerSequences, abelianize, eigenvalues, fix_counts,
                         per_census)
from bouquet_dyn.cli import (DEFAULT_ENTROPY_HORIZON, DEFAULT_ORACLE_DEPTH,
                             Claim, MapSpecDocument, ReportOptions, parse_spec,
                             run_report)
from bouquet_dyn.errors import (DIGIT_CAP, InconsistencyError, InputError,
                                Record, shown)
from bouquet_dyn.periods import Conclusion, PeriodCertificate
from bouquet_dyn.pl_oracle import (PLLift, _ratio, build_lift,
                                   lift_branch_period, oracle_counts)
from bouquet_dyn.spectral import exceeds_perron_root, squarefree_parts
from bouquet_dyn.words import Letter, MapAction, Word, action

F = action("a1 a2 a1", "a1", k=2)
SEQS = PowerSequences.of(abelianize(F), 8)
LIFT = build_lift(F)

RECORDS = [
    Letter(3, -1),
    Word.parse("a1 a2 a1"),
    F,
    SEQS,
    PeriodCertificate("dominant", Conclusion("tail", 3, None),
                      {"m0_analytic": 3}),
    ReportOptions(horizon=20, no_oracle=True),
    Conclusion("tail", 5),
    Claim("fix", 2, 3, "claim: fix(2) = 3"),
    parse_spec("n=2\nbranch: period 2\na1 -> a1 a2 a1\na2 -> a1\n"
               "claim: fix(2) = 3\n"),
    eigenvalues(SEQS.char),
    LIFT,
    oracle_counts(LIFT, 4),
]


def test_every_record_is_covered():
    for info in pkgutil.iter_modules(bouquet_dyn.__path__):
        importlib.import_module(f"bouquet_dyn.{info.name}")
    pending, found = [Record], set()
    while pending:
        subclasses = pending.pop().__subclasses__()
        found.update(subclasses)
        pending += subclasses
    assert len(found) >= 11, sorted(c.__name__ for c in found)
    covered = {type(r) for r in RECORDS}
    assert sorted(c.__name__ for c in found - covered) == []


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
    for record in RECORDS:
        for name in getattr(record, "_fields", ()) + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


@pytest.mark.parametrize("record", [r for r in RECORDS if isinstance(r, Record)],
                         ids=lambda r: type(r).__name__)
def test_prints_and_compares_as_a_named_tuple(record):
    twin = namedtuple(type(record).__name__, record._fields)(*record)
    assert repr(record) == repr(twin)
    assert record == twin == tuple(record)
    assert [getattr(record, name) for name in record._fields] == list(record)
    assert type(record)._make(record) == record
    assert record._replace() == record


def test_keywords_and_defaults():
    assert ReportOptions() == ReportOptions(
        None, DEFAULT_ORACLE_DEPTH, False, DEFAULT_ENTROPY_HORIZON)
    assert ReportOptions(no_oracle=True, horizon=3) == ReportOptions(
        3, DEFAULT_ORACLE_DEPTH, True, DEFAULT_ENTROPY_HORIZON)
    assert Conclusion("tail", 5) == Conclusion(m=5, kind="tail") == (
        "tail", 5, None)
    assert repr(Conclusion("tail", 5)) == (
        "Conclusion(kind='tail', m=5, excluded=None)")
    assert Letter(sign=-1, index=3) == Letter(3, -1)
    assert MapAction(1, (Word.parse("a1 a1"),)).branch_class is None


@pytest.mark.parametrize("build", [
    lambda: Claim("fix", 2, 3),
    lambda: Claim("fix", 2, 3, "text", "extra"),
    lambda: ReportOptions(None, 8, False, 8, 1),
    lambda: ReportOptions(depth=3),
    lambda: Conclusion("tail", kind="tail"),
    lambda: Conclusion(),
    lambda: Letter(1),
    lambda: Letter(1, 1, index=1),
    lambda: Conclusion("tail", 5)._replace(step=2),
])
def test_wrong_fields_refused(build):
    with pytest.raises(TypeError):
        build()


def test_replace_without_validation():
    tail = Conclusion("tail", 5)
    moved = tail._replace(m=7)
    assert type(moved) is Conclusion and moved == ("tail", 7, None)
    assert tail == ("tail", 5, None)
    assert ReportOptions()._replace(no_oracle=True).no_oracle is True


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


@pytest.mark.parametrize("build, value", [
    (lambda: MapAction(1, ("a1 a1",)), "got 'a1 a1'"),
    (lambda: MapAction(1, ((Letter(1, 1),),)), "got (Letter(index=1, sign=1),)"),
    (lambda: Word([(1, 1), (1, 1)]), "got ((1, 1), (1, 1))"),
    (lambda: oracle_counts(LIFT, True), "got True"),
    (lambda: oracle_counts(LIFT, 4).fixed(True), "got True"),
    (lambda: PowerSequences.of(abelianize(F), True), "got True"),
    (lambda: F.image(True), "generator index must be an int, got True"),
    (lambda: PowerSequences.of(((1.5,),), 3), "got 1.5"),
    (lambda: PowerSequences.of(((True, False), (False, True)), 3), "got True"),
    (lambda: PowerSequences.of((("1",),), 3), "got '1'"),
    (lambda: PowerSequences.of(((1, 2), (3,)), 3), "got (3,)"),
    (lambda: eigenvalues((2, 0, 4)), "got (2, 0, 4)"),
    (lambda: eigenvalues((0.5, 1.0)), "coefficient must be an int, got 0.5"),
    (lambda: squarefree_parts([1, True]), "coefficient must be an int, got True"),
    (lambda: eigenvalues(()), "got ()"),
    (lambda: eigenvalues((0, 2)), "got (0, 2)"),
    (lambda: per_census((1.5,)), "got 1.5"),
    (lambda: per_census((1, True)), "got True"),
    (lambda: fix_counts(action("a1 a1"), [2.5]), "got 2.5"),
    (lambda: fix_counts(action("a1 a1", k=1), [True]), "got True"),
    (lambda: PLLift(1, 2, ((0, 1, 2.0, 0), (1, 2, -2, 4))), "got 2.0"),
    (lambda: PLLift(1, 0, ()), "lift scale must be >= 1, got 0"),
    (lambda: PLLift(1, 2, ((0, 1, 2, 0),)), "tile [0, 1]"),
    (lambda: lift_branch_period(LIFT, -1), "got -1"),
    (lambda: lift_branch_period(LIFT, 2.5), "got 2.5"),
    (lambda: lift_branch_period(LIFT, True), "got True"),
    (lambda: lift_branch_period(
        PLLift(2, 1, ((0, 1, 2, 0), (1, 2, 2, -1))), 5), "leaves [0, 2]"),
    (lambda: lift_branch_period(
        PLLift(1, 4, ((0, 2, 2, 0), (2, 4, 2, -3))), 5),
     "not continuous at 1/2"),
    (lambda: MapSpecDocument("x"), "got 'x'"),
    (lambda: MapSpecDocument(F, None, ("claim",)), "got 'claim'"),
    (lambda: ReportOptions(no_oracle="yes"), "got 'yes'"),
    (lambda: Claim("fix", 1, 1, 5), "got 5"),
    (lambda: exceeds_perron_root((1.5, 1), [2], 1), "got 1.5"),
    (lambda: exceeds_perron_root((-1, 1), [2], 0), "q must be >= 1, got 0"),
    (lambda: exceeds_perron_root((-1, 1), [2, 1.5], 1), "p must be an int, got 1.5"),
], ids=["str-image", "letter-tuple-image", "tuple-letters", "bool-depth",
        "bool-iterate", "bool-power-count", "bool-generator", "float-entry",
        "bool-entries", "str-entry", "ragged-matrix", "non-monic-poly",
        "float-poly", "bool-poly", "empty-poly", "zero-root-poly",
        "float-fix", "bool-fix", "float-trace", "bool-trace-class-one",
        "float-lift-piece", "zero-lift-scale", "untiled-lift",
        "negative-branch-depth", "float-branch-depth", "bool-branch-depth",
        "escaping-lift-branch", "discontinuous-lift-branch", "str-action",
        "str-claim", "str-no-oracle", "int-claim-text", "float-perron-entry",
        "zero-perron-denominator", "float-perron-numerator"])
def test_library_inputs_refused(build, value):
    # each raised AttributeError, or took the value and failed later, or
    # read a bool as 1, or failed an assert (and under -O returned a wrong
    # record: a float entry's traces, a non-monic polynomial's roots), or
    # gave a branch period of 1 to a lift the oracle refuses, or printed
    # a claim text as a JSON number; the error names the value
    with pytest.raises(InputError, match=re.escape(value)):
        build()


#: an int of 5 001 digits, past what CPython 3.11+ prints by default
HUGE = 10**5000
DOC = parse_spec("n=1\nbranch: free\na1 -> a1 a1\n")


@pytest.mark.parametrize("build, digits", [
    (lambda: Letter(-HUGE, 1), "-<int of 5001 digits>"),
    (lambda: Letter(1, HUGE), "<int of 5001 digits>"),
    (lambda: Letter(1, -HUGE), "-<int of 5001 digits>"),
    (lambda: MapAction(-HUGE, ()), "-<int of 5001 digits>"),
    (lambda: MapAction(1, (Word.parse("a1 a1"),), -HUGE), "-<int of 5001 digits>"),
    (lambda: F.image(HUGE), "<int of 5001 digits>"),
    (lambda: F.image(-HUGE), "-<int of 5001 digits>"),
    (lambda: PowerSequences.of(abelianize(F), -HUGE), "-<int of 5001 digits>"),
    (lambda: exceeds_perron_root(SEQS.char, [1], -HUGE), "-<int of 5001 digits>"),
    (lambda: oracle_counts(LIFT, -HUGE), "-<int of 5001 digits>"),
    (lambda: lift_branch_period(LIFT, -HUGE), "-<int of 5001 digits>"),
    (lambda: oracle_counts(LIFT, 4).fixed(HUGE), "<int of 5001 digits>"),
    (lambda: PLLift(1, -HUGE, ()), "-<int of 5001 digits>"),
    (lambda: per_census((1, HUGE)), "<int of 5000 digits>"),
    (lambda: per_census((1, -HUGE)), "-<int of 5001 digits>"),
    (lambda: eigenvalues((HUGE, 1)), "(<int of 5001 digits>, 1)"),
    (lambda: MapSpecDocument(F, -HUGE), "-<int of 5001 digits>"),
    (lambda: ReportOptions(horizon=-HUGE), "-<int of 5001 digits>"),
    (lambda: ReportOptions(oracle_depth=-HUGE), "-<int of 5001 digits>"),
    (lambda: ReportOptions(entropy_horizon=-HUGE), "-<int of 5001 digits>"),
    (lambda: Claim("fix", -HUGE, 1, "claim"), "-<int of 5001 digits>"),
    (lambda: run_report(DOC, ReportOptions(horizon=HUGE, no_oracle=True)),
     "<int of 5001 digits>"),
    (lambda: run_report(DOC, ReportOptions(entropy_horizon=HUGE,
                                           no_oracle=True)),
     "<int of 5001 digits>"),
    (lambda: run_report(DOC, ReportOptions(oracle_depth=HUGE)),
     "<int of 5001 digits>"),
    (lambda: run_report(DOC._replace(claims=(Claim("L", 1, HUGE, "claim"),)),
                        ReportOptions()), "claim value has 5001 digits"),
], ids=["letter-index", "letter-sign", "negative-letter-sign", "circle-count",
        "branch-class", "generator", "negative-generator", "power-count",
        "perron-denominator", "oracle-depth", "branch-depth", "iterate",
        "lift-scale", "census-count", "negative-census-count",
        "poly-coefficient", "document-horizon", "option-horizon",
        "option-oracle-depth", "option-entropy-horizon", "claim-iterate",
        "report-horizon", "report-entropy-horizon", "report-oracle-depth",
        "claim-value"])
def test_huge_ints_named_by_digit_count(build, digits):
    # each raised ValueError (CPython 3.11+ prints no int of over 4 300
    # digits) or OverflowError (int to float); a census count of the given
    # fix counts is computed, so it is an inconsistency, not an input
    with pytest.raises((InputError, InconsistencyError)) as raised:
        build()
    assert digits in str(raised.value)
    assert len(str(raised.value)) < 200
    assert raised.type is InputError or "census" in str(raised.value)


def test_shown_counts_digits_exactly():
    assert shown(10**DIGIT_CAP - 1) == "9" * DIGIT_CAP
    for k in (DIGIT_CAP, 4300, 4301, 10_007, 30_103):
        for value in (10**k, 10**(k + 1) - 1, -(10**k)):
            sign = "-" if value < 0 else ""
            assert shown(value) == f"{sign}<int of {k + 1} digits>"
    assert shown((HUGE,)) == "(<int of 5001 digits>,)"
    assert shown(((1, "a"), True, None, 2.5)) == repr(((1, "a"), True, None, 2.5))
    assert repr(Conclusion("tail", -HUGE)) == (
        "Conclusion(kind='tail', m=-<int of 5001 digits>, excluded=None)")
    with pytest.raises(TypeError, match=re.escape("left over: (<int of 5001")):
        ReportOptions(None, 8, False, 8, HUGE)


def test_images_stored_as_a_tuple():
    f = MapAction(1, [Word.parse("a1 a1")])
    assert type(f.images) is tuple and hash(f) == hash(action("a1 a1"))


def test_ratio_prints_as_fraction():
    for scale in range(1, 41):
        for x in range(-3 * scale, 3 * scale + 1):
            assert _ratio(x, scale) == str(Fraction(x, scale)), (x, scale)
    assert _ratio(10**40 + 2, 2 * 10**20) == str(Fraction(10**40 + 2, 2 * 10**20))

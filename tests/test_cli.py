"""DSL parsing, report generation, exit codes, fixture corpus."""

import json
import os
import random
import time
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from importlib import resources

import pytest

from bouquet_dyn import cli
from bouquet_dyn.cli import (
    CIRCLE_CAP,
    DIGIT_CAP,
    ITERATE_CAP,
    Claim,
    MapSpecDocument,
    ReportOptions,
    fixture_names,
    main,
    parse_spec,
    render_json,
    render_text,
    report_has_failures,
    run_report,
)
from bouquet_dyn.errors import InconsistencyError, InputError
from bouquet_dyn.homology import PowerSequences, abelianize
from bouquet_dyn.periods import fix_counts
from bouquet_dyn.pl_oracle import build_lift, lift_branch_period, oracle_counts
from bouquet_dyn.words import BRANCH_FREE, Letter, MapAction

from conftest import (
    ENTROPY_KEYS,
    cap_edge_spec,
    load_fixture,
    probe64_spec,
    random_action,
    random_branch_periodic_action,
    random_expanding_action,
    twin32_spec,
)

LOW_GROWTH_TEXT = """\
n=3
branch: period 1
a1 -> a1 a3
a2 -> a1
a3 -> a1 a3
"""

# the canonical lift's branching point returns to an integer at step 4
BRANCH_PERIOD_4 = "a1 -> a2 a1\na2 -> a4 a1\na3 -> a1\na4 -> a1\n"

#: the oracle's (first_difference, passed) when the lift's fix counts
#: equal the formula's at every m it reaches
PASSED = (None, True)

#: the oracle block's keys when the oracle runs; schema 10 also printed
#: the lift's counts, `lift_fix`, and the verdict as a one-row `checks`
#: list, and schema 9 `lift_cover`
ORACLE_KEYS = {"status", "branch_period_observed", "depth",
               "first_difference", "passed"}

# fix(m) = 10^m - 1: at horizon 4 400 its digits pass CPython's default
# int-to-str limit of 4 300
TEN_LETTERS = "n=1\nbranch: free\na1 -> " + " ".join(["a1"] * 10) + "\n"
TEN_LETTER_LIFT = build_lift(parse_spec(TEN_LETTERS).action)

#: report keys that hold floats, not integers
FLOAT_KEYS = {"eigenvalues", "spectral_radius", "residual", "entropy"}


def verdict(oracle: dict) -> tuple:
    """The oracle block's (first_difference, passed)."""
    return oracle["first_difference"], oracle["passed"]


@pytest.fixture
def analyze(tmp_path, capsys):
    """Run `analyze` on a spec: write it to a file under `tmp_path`, run
    `main(["analyze", path, *flags])` and return the exit code, stdout
    and stderr."""
    def run(spec: str, *flags: str) -> tuple[int, str, str]:
        path = tmp_path / "map.bqd"
        path.write_text(spec, encoding="utf-8")
        try:
            code = main(["analyze", str(path), *flags])
        except SystemExit as e:  # a usage error, as from the shell
            code = e.code
        return code, *capsys.readouterr()
    return run


def printed_integers(value):
    """Every decimal integer string in a report, floats left out."""
    if isinstance(value, dict):
        for k, v in value.items():
            if k not in FLOAT_KEYS:
                yield from printed_integers(v)
    elif isinstance(value, list):
        for v in value:
            yield from printed_integers(v)
    elif isinstance(value, str) and value.lstrip("-").isdigit():
        yield value.lstrip("-")


class TestParseSpec:
    def test_minimal(self):
        doc = parse_spec("n=1\nbranch: free\na1 -> a1' a1'\n")
        assert doc.action.n == 1
        assert doc.action.branch_class == BRANCH_FREE
        assert doc.action.image(1).text() == "a1' a1'"

    def test_low_growth(self):
        doc = parse_spec(LOW_GROWTH_TEXT)
        assert doc.action.branch_class == 1
        assert doc.action.n == 3

    def test_comments_and_blank_lines(self):
        doc = parse_spec("# comment\n\nn=1\nbranch: free\na1 -> a1 a1  # tail\n")
        assert doc.action.image(1).text() == "a1 a1"

    def test_horizon_and_claims(self):
        doc = parse_spec(
            "n=1\nbranch: free\nhorizon: 8\na1 -> a1 a1\nclaim: L(2) = -3\n"
        )
        assert doc.horizon == 8
        assert doc.claims[0].quantity == "L"
        assert doc.claims[0].m == 2
        assert doc.claims[0].value == -3

    def test_mixed_sign_error_has_line(self):
        with pytest.raises(InputError, match="line 4"):
            parse_spec("n=2\nbranch: period 1\na1 -> a1 a2\na2 -> a1 a2'\n")

    def test_missing_branch(self):
        with pytest.raises(InputError, match="branch"):
            parse_spec("n=1\na1 -> a1 a1\n")

    def test_missing_image(self):
        with pytest.raises(InputError, match="a2"):
            parse_spec("n=2\nbranch: free\na1 -> a1 a1\n")

    def test_duplicate_branch(self):
        # "free" is stored as None, so a second free line must still count
        with pytest.raises(InputError, match="line 3: duplicate branch"):
            parse_spec("n=1\nbranch: free\nbranch: free\na1 -> a1 a1\n")

    def test_duplicate_horizon(self):
        with pytest.raises(InputError,
                           match="^line 4: duplicate horizon declaration$"):
            parse_spec("n=1\nbranch: free\nhorizon: 5\nhorizon: 7\n"
                       "a1 -> a1 a1\n")

    def test_duplicate_image(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_spec("n=1\nbranch: free\na1 -> a1\na1 -> a1 a1\n")

    def test_out_of_range_image(self):
        with pytest.raises(InputError):
            parse_spec("n=1\nbranch: free\na1 -> a1\na2 -> a1\n")

    def test_unknown_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_spec("n=1\nwat\nbranch: free\na1 -> a1 a1\n")

    # "²" passes str.isdigit() but not int(); "٣" passes both
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    @pytest.mark.parametrize("lineno, line", [
        (1, "n={}"),
        (2, "branch: period {}"),
        (3, "horizon: {}"),
        (4, "claim: fix({}) = 2"),
    ])
    def test_non_ascii_digits(self, lineno, line, digit):
        lines = ["n=1", "branch: free", "horizon: 5", "claim: fix(1) = 2"]
        lines[lineno - 1] = line.format(digit)
        text = "\n".join(lines) + "\na1 -> a1 a1\n"
        with pytest.raises(InputError, match=f"^line {lineno}: bad "):
            parse_spec(text)


class TestRunReport:
    def test_iterate_integers_print_once(self):
        doc = parse_spec("n=1\nbranch: free\na1 -> a1 a1\n")
        report = run_report(doc, ReportOptions(horizon=12))
        # one statement for every m <= 12, where schema 5 had 12 rows
        assert report["lefschetz_fix_checks"] == [
            {"m": None, "mode": "equality-preserving", "passed": True}]
        assert set(report["lefschetz"]) == {"L", "l"}
        assert set(report["entropy"]) == ENTROPY_KEYS
        assert report["census"]["period_set"] == list(range(1, 13))
        assert [c["rule"] for c in report["certificates"]] == [
            "doubling(b)", "delaylowgrow(m=2; doubling(b))", "dominant"]
        assert report["certificates"][-1]["witness"] == {"m0_analytic": "3"}

    def test_reflect_doubling_report(self):
        doc = parse_spec("n=1\nbranch: free\na1 -> a1' a1'\n")
        report = run_report(doc, ReportOptions())
        assert report["schema"] == 11
        assert report["lefschetz"]["L"][0] == "3"
        assert report["lefschetz"]["l"][1] == "-6"
        assert report["census"]["per"][1] == "0"
        assert any(
            c["rule"] == "doubling(e)" for c in report["certificates"]
        )
        assert report["oracle"]["status"] == "ok"
        assert report["oracle"]["depth"] == 6
        assert verdict(report["oracle"]) == PASSED
        # the bundled copy's delayed certificate holds to horizon 40
        doc = load_fixture("reflect_double_g1")[0]
        wide = run_report(doc, ReportOptions(horizon=40))
        assert wide["certificates"] and not report_has_failures(wide)

    def test_claim_mismatch_warns_but_passes(self):
        doc = parse_spec(
            "n=1\nbranch: free\na1 -> a1' a1'\nclaim: l(2) = 5\n"
        )
        report = run_report(doc, ReportOptions())
        assert report["claims"][0]["verdict"] == "mismatch"
        assert any("l(2) = 5" in w for w in report["warnings"])

    def test_eightfold_root_exact(self):
        # M = 2I: the root 2 of multiplicity n is exact, and not dominant
        for n in (8, 64):
            images = "".join(f"a{j} -> a{j} a{j}\n" for j in range(1, n + 1))
            report = run_report(parse_spec(f"n={n}\nbranch: free\n" + images),
                                ReportOptions())
            spectrum = report["spectrum"]
            assert spectrum["spectral_radius"] == "2"
            assert [z["modulus"] for z in spectrum["eigenvalues"]] == ["2"] * n
            assert report["entropy"]["spectral"] == "0.693147180559945"
            assert not any(
                c["rule"] == "dominant" for c in report["certificates"])

    def test_determinism(self):
        doc = parse_spec(LOW_GROWTH_TEXT)
        a = render_json(run_report(doc, ReportOptions()))
        b = render_json(run_report(doc, ReportOptions()))
        assert a == b

    def test_no_oracle_flag(self):
        doc = parse_spec(LOW_GROWTH_TEXT)
        report = run_report(doc, ReportOptions(no_oracle=True))
        assert report["oracle"]["status"] == "skipped"

    def test_horizon_one(self):
        # low growth fires the delayed criterion at m = 2, beyond horizon 1;
        # class 1 prints no check row, since `fix_counts` makes its index
        # bound an identity
        doc = parse_spec(LOW_GROWTH_TEXT + "horizon: 1\n")
        report = run_report(doc, ReportOptions())
        assert report["census"]["fix"] == ["1"]
        assert report["census"]["per"] == ["1"]
        assert report["lefschetz_fix_checks"] == []
        assert not any(
            c["rule"].startswith("delaylowgrow")
            for c in report["certificates"]
        )
        wide = run_report(parse_spec(LOW_GROWTH_TEXT), ReportOptions())
        assert any(
            c["rule"].startswith("delaylowgrow") for c in wide["certificates"]
        )

    @pytest.mark.parametrize("declared, says, skipped", [
        ("free", "free", [None]),
        ("period 2", "2", [None]),
        ("period 4", None, []),
    ])
    def test_branch_orbit_mismatch(self, declared, says, skipped):
        doc = parse_spec(f"n=4\nbranch: {declared}\n" + BRANCH_PERIOD_4)
        report = run_report(doc, ReportOptions())
        oracle = report["oracle"]
        assert oracle["branch_period_observed"] == 4
        expected = [] if says is None else [
            "branch-orbit mismatch: the canonical lift's branching point "
            f"has period 4 but the declaration says {says}"
        ]
        assert [w for w in report["warnings"]
                if w.startswith("branch-orbit mismatch")] == expected
        # the counts agree, but a lift of another branch class judges none
        assert verdict(oracle) == (None, None if skipped else True)
        if says is None:
            assert oracle["status"] == "ok"
            assert all(c["passed"] for c in report["lefschetz_fix_checks"])

    def test_branch_periodic_maps_match_the_oracle(self):
        # lift-viable maps whose lift's branch orbit returns, each declared
        # with the period the report's oracle observes (it follows the
        # orbit depth + 1 steps): at H = oracle depth = 30 every verdict
        # matches and every check passes, at the iterates the period
        # divides as elsewhere
        depth = 30
        options = ReportOptions(horizon=depth, oracle_depth=depth)
        rng = random.Random(0xB4A)
        periods = set()
        for _ in range(150):
            f, _ = random_branch_periodic_action(rng, watch=depth + 1)
            periods.add(f.branch_class)
            report = run_report(MapSpecDocument(f), options)
            oracle = report["oracle"]
            assert oracle["branch_period_observed"] == f.branch_class, f
            assert verdict(oracle) == PASSED, f
            assert not cli.report_has_failures(report), f
        assert {2, 3, 4} <= periods, periods

    def test_oracle_statements_fold_the_per_m_comparison(self):
        # seeded maps of both signs, free and branch-periodic, each
        # declared free and of class 1-3, at oracle depth D below, at and
        # above the horizon H: the per-m comparison of the lift's counts
        # with fix(m), as schema 6 printed it row by row, folds to the
        # one verdict, and a branch orbit that differs from the declared
        # one leaves it unjudged, its rows agreeing or not; neither the
        # counts (schema 10's `lift_fix`) nor the covers, ||M^m||_1
        # (`TestCover` in the oracle tests), are printed
        rng = random.Random(0x0AC1E)
        maps = [random_expanding_action(rng) if i % 2
                else random_branch_periodic_action(rng) for i in range(40)]
        outcomes = set()
        for horizon, depth in ((30, 12), (30, 30), (12, 30)):
            options = ReportOptions(horizon=horizon, oracle_depth=depth)
            for f, lift in maps:
                counts = oracle_counts(lift, depth)
                seqs = PowerSequences.of(abelianize(f), depth)
                for k in (BRANCH_FREE, 1, 2, 3):
                    g = MapAction(f.n, f.images, k)
                    try:
                        oracle = run_report(MapSpecDocument(g),
                                            options)["oracle"]
                    except InconsistencyError:
                        continue
                    except InputError as e:  # a class with no room in the census
                        assert "the branching point's orbit" in str(e), g
                        continue
                    fixes = fix_counts(g, seqs.traces)
                    first = next((m for m, (a, b) in enumerate(
                        zip(counts.lift_fix, fixes, strict=True), start=1)
                        if a != b), None)
                    judged = counts.branch_period == k
                    passed = first is None if judged else None
                    assert set(oracle) == ORACLE_KEYS, g
                    assert oracle["depth"] == depth, g
                    assert verdict(oracle) == (first, passed), g
                    assert oracle["status"] == (
                        "mismatch" if passed is False else "ok"), g
                    outcomes |= {("passed", passed), ("sign", g.global_sign),
                                 ("named", first is not None)}
        assert {("passed", True), ("passed", None), ("sign", 1), ("sign", -1),
                ("named", True), ("named", False)} <= outcomes

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unjudged_fix_statement_exits_0(self, analyze, fmt):
        # the lift's branching point is never periodic, so the declared
        # class 1 counts one more fixed point at every m than the lift
        code, out, _ = analyze(
            "n=2\nbranch: period 1\na1 -> a1 a1\na2 -> a1 a2\n", "--format", fmt)
        assert code == 0
        if fmt == "text":
            assert ("\n  fix counts to m=6: skipped (branch-orbit mismatch), "
                    "first difference at m=1\n") in out
            assert "FAILED" not in out
            return
        oracle = json.loads(out)["oracle"]
        assert oracle["status"] == "ok"
        assert oracle["depth"] == 6
        assert verdict(oracle) == (1, None)

    def test_wrong_formula_is_named(self):
        # fix(4) off by one: the statement names m = 4
        f = parse_spec("n=1\nbranch: free\na1 -> a1 a1\n").action
        seqs = PowerSequences.of(abelianize(f), 6)
        fixes = list(fix_counts(f, seqs.traces))
        fixes[3] += 1
        warnings = []
        oracle = cli._run_oracle(f, ReportOptions(), fixes, warnings)
        assert oracle["status"] == "mismatch"
        assert oracle["first_difference"] == 4
        assert oracle["passed"] is False
        assert warnings == []
        report = run_report(MapSpecDocument(f), ReportOptions())
        report["oracle"] = oracle
        assert report_has_failures(report)
        text = render_text(report)
        assert "\n  fix counts to m=6: mismatch, first difference at m=4\n" in text
        assert text.count("FAILED") == 1
        assert "\nFAILED oracle fix check: 4\n" in text
        # the last iterate compared, m = D = 6, is judged as well
        fixes[3] -= 1
        fixes[5] += 1
        assert verdict(cli._run_oracle(f, ReportOptions(), fixes, [])) == (
            6, False)

    def test_json_round_trip(self):
        doc = parse_spec(LOW_GROWTH_TEXT)
        report = run_report(doc, ReportOptions())
        assert json.loads(render_json(report)) == report


class TestOptionTypes:
    """Every count of a report's options is an int >= 1, not a bool or a
    float, checked when the record is built."""

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_horizon(self, value):
        with pytest.raises(InputError, match="^horizon must be an int, got"):
            ReportOptions(horizon=value)

    @pytest.mark.parametrize("value", [True, 2.5, None])
    def test_oracle_depth(self, value):
        with pytest.raises(InputError, match="^oracle depth must be an int"):
            ReportOptions(oracle_depth=value)
        assert ReportOptions(oracle_depth=value, no_oracle=True)

    @pytest.mark.parametrize("value", [True, 2.5, None])
    def test_entropy_horizon(self, value):
        with pytest.raises(InputError, match="^entropy horizon must be an"):
            ReportOptions(entropy_horizon=value)

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_document_horizon(self, value):
        doc = parse_spec("n=1\nbranch: free\na1 -> a1 a1\n")
        with pytest.raises(InputError, match="^horizon must be "):
            doc._replace(horizon=value)

    def test_ints_and_messages_kept(self):
        assert ReportOptions(3, 2, False, 4) == (3, 2, False, 4)
        for options, text in (
                (dict(horizon=0), "horizon must be >= 1, got 0"),
                (dict(entropy_horizon=-1), "entropy horizon must be >= 1, got -1"),
                (dict(oracle_depth=0), "oracle depth must be >= 1, got 0")):
            with pytest.raises(InputError) as raised:
                ReportOptions(**options)
            assert str(raised.value) == text


class TestClaimFields:
    """A claim checks its quantity and iterate when it is built, so one
    built outside `parse_spec` cannot read a count through a negative
    index."""

    @pytest.mark.parametrize("fields, message", [
        (("fix", 0, 31), "claim iterate must be >= 1, got 0"),
        (("fix", -1, 15), "claim iterate must be >= 1, got -1"),
        (("fix", 1.5, 1), "claim iterate must be an int, got 1.5"),
        (("fix", True, 1), "claim iterate must be an int, got True"),
        (("fix", None, 1), "claim iterate must be an int, got None"),
        (("foo", 1, 1), "claim quantity 'foo' is not L, l, fix or per"),
        (("fix", 1, True), "claim value must be an int, got True"),
        (("fix", 1, "1"), "claim value must be an int, got '1'"),
        (("fix", 1, 1.0), "claim value must be an int, got 1.0"),
    ])
    def test_bad_fields_refused(self, fields, message):
        with pytest.raises(InputError) as raised:
            Claim(*fields, "claim: made by hand")
        assert str(raised.value) == message


class TestDigitCap:
    def test_over_cap_exits_fast(self, analyze, capsys):
        # a three-letter image passes the digit cap within the iterate cap
        fixture = resources.files("bouquet_dyn") / "fixtures" / "rotor_boost_g4.bqd"

        def run_fixture(*flags):
            return main(["analyze", str(fixture), *flags]), *capsys.readouterr()

        for run, horizon in ((partial(analyze, TEN_LETTERS), "4400"),
                             (run_fixture, "9000")):
            start = time.perf_counter()
            code, _, err = run("--horizon", horizon, "--no-oracle")
            assert code == 1
            assert time.perf_counter() - start < 1.0
            assert f"over the cap of {DIGIT_CAP} digits" in err, err

    BIG = "9" * 5000
    #: a generator index within DIGIT_CAP
    LONG = "9" * DIGIT_CAP

    @pytest.mark.parametrize("lineno, what, text", [
        (1, "circle count", f"n={BIG}\nbranch: free\na1 -> a1 a1\n"),
        (2, "branch period", f"n=1\nbranch: period {BIG}\na1 -> a1 a1\n"),
        (3, "horizon", f"n=1\nbranch: free\nhorizon: {BIG}\na1 -> a1 a1\n"),
        (4, "claim iterate",
         f"n=1\nbranch: free\na1 -> a1 a1\nclaim: L({BIG}) = 1\n"),
        (4, "claim value",
         f"n=1\nbranch: free\na1 -> a1 a1\nclaim: L(1) = -{BIG}\n"),
        (3, "generator index", f"n=1\nbranch: free\na{BIG} -> a1\n"),
        (3, "generator index", f"n=1\nbranch: free\na1 -> a1 a{BIG}\n"),
        (3, "generator index", f"n=1\nbranch: free\na1 -> a1 a{LONG}\n"),
        (4, "generator index", f"n=1\nbranch: free\na1 -> a1\na{LONG} -> a1\n"),
    ])
    def test_long_spec_number_exits_fast(self, analyze, lineno, what, text):
        # int() itself refuses more than 4 300 digits on Python >= 3.11; a
        # generator index is held to the digits of CIRCLE_CAP, whatever
        # its length
        start = time.perf_counter()
        code, _, err = analyze(text)
        assert code == 1
        assert time.perf_counter() - start < 1.0
        digits = 5000 if self.BIG in text else DIGIT_CAP
        cap = len(str(CIRCLE_CAP)) if what == "generator index" else DIGIT_CAP
        assert err == (
            f"error: line {lineno}: {what} has {digits} digits, over the cap "
            f"of {cap} digits\n")
        assert len(err) < 200

    def test_spec_number_at_cap_parses(self):
        at_cap = "9" * DIGIT_CAP
        doc = parse_spec(f"n=1\nbranch: free\na1 -> a1 a1\n"
                         f"claim: L({at_cap}) = -{at_cap}\n")
        assert doc.claims[0].m == -doc.claims[0].value == int(at_cap)

    def test_just_under_cap_reports(self):
        # a thousand letters reach the cap at a third of the horizon
        doc = parse_spec("n=1\nbranch: free\na1 -> " + "a1 " * 1000 + "\n")
        horizon = max(h for h in range(1200, 1400)
                      if cli._digit_bound([1000], h) <= DIGIT_CAP)
        options = ReportOptions(horizon=horizon, no_oracle=True)
        report = run_report(doc, options)
        digits = max(map(len, printed_integers(report)))
        assert horizon < digits <= DIGIT_CAP
        with pytest.raises(InputError, match=f"cap of {DIGIT_CAP} digits"):
            run_report(doc, ReportOptions(horizon=horizon + 1, no_oracle=True))

    def test_bound_covers_printed_integers(self, rng):
        for _ in range(60):
            f = random_action(rng, n_max=4, len_max=4)
            doc = MapSpecDocument(f)
            options = ReportOptions(
                horizon=rng.randint(1, 40), oracle_depth=rng.randint(1, 6))
            try:
                report = run_report(doc, options)
            except (InputError, InconsistencyError):
                continue
            # the column sums of |M| are the image word lengths
            bound = cli._digit_bound([len(w) for w in f.images], max(
                options.horizon, options.oracle_depth))
            assert max(map(len, printed_integers(report))) <= bound, f


class TestIterateCap:
    # one-letter images grow no digits, so only the iterate cap holds them
    ONE_LETTER = "n=1\nbranch: free\na1 -> a1\n"

    @pytest.mark.parametrize("flag", ["--horizon", "--oracle-depth"])
    def test_over_cap_exits_fast(self, analyze, flag):
        start = time.perf_counter()
        code, _, err = analyze(self.ONE_LETTER, flag, str(10**8))
        assert code == 1
        assert time.perf_counter() - start < 1.0
        assert f"over the cap of {ITERATE_CAP} iterates" in err, err

    def test_entropy_horizon_over_cap_refused_fast(self):
        # no flag sets the entropy horizon; the record's K still counts it
        start = time.perf_counter()
        with pytest.raises(InputError) as raised:
            run_report(parse_spec(self.ONE_LETTER), ReportOptions(
                entropy_horizon=10**8, no_oracle=True))
        assert time.perf_counter() - start < 1.0
        assert f"over the cap of {ITERATE_CAP} iterates" in str(raised.value)

    @pytest.mark.parametrize("value", [4_400, ITERATE_CAP])
    def test_entropy_horizon_counts_in_digits(self, value):
        # the record holds the norms to the entropy horizon, 10^E here;
        # past the iterate cap, that cap refuses E first
        start = time.perf_counter()
        with pytest.raises(InputError) as raised:
            run_report(parse_spec(TEN_LETTERS),
                       ReportOptions(entropy_horizon=value, no_oracle=True))
        assert time.perf_counter() - start < 1.0
        assert f"over the cap of {DIGIT_CAP} digits" in str(raised.value)

    @pytest.mark.parametrize("depth", [ITERATE_CAP + 1, 10**6])
    @pytest.mark.parametrize("call", [
        partial(PowerSequences.of, ((1,),)),
        partial(oracle_counts, TEN_LETTER_LIFT),
        partial(lift_branch_period, TEN_LETTER_LIFT),
    ], ids=["power-sequences", "oracle-counts", "lift-branch-period"])
    def test_library_call_over_cap_refused_fast(self, call, depth):
        # uncapped, PowerSequences.of(((1,),), 10**6) ran 0.8 s, and
        # oracle_counts at depth 10**5 took 7.1 s at a 640 MB peak
        start = time.perf_counter()
        with pytest.raises(InputError, match=(
                f"must be in [01]..{ITERATE_CAP}, got {depth}$")):
            call(depth)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("spec, options, counts", [
        ("free", ReportOptions(), (12, 30)),
        ("free", ReportOptions(horizon=3, oracle_depth=8), (8, 30)),
        ("period 5", ReportOptions(horizon=2, no_oracle=True,
                                   entropy_horizon=3), (5, 3)),
    ])
    def test_record_holds_only_what_the_report_reads(self, monkeypatch,
                                                     spec, options, counts):
        # traces to max(H, k, D) and norms to E, though K = max(H, k, D,
        # E) sets the caps: no term is computed to be dropped
        made, of = [], PowerSequences.of
        monkeypatch.setattr(PowerSequences, "of", lambda mat, k, norms: (
            made.append((k, norms)) or of(mat, k, norms)))
        run_report(parse_spec(f"n=1\nbranch: {spec}\na1 -> a1 a1\n"), options)
        assert made == [counts]

    def test_cap_is_inclusive(self):
        doc = parse_spec(self.ONE_LETTER)
        report = run_report(doc, ReportOptions(
            entropy_horizon=ITERATE_CAP, no_oracle=True))
        assert report["entropy"]["horizon"] == ITERATE_CAP
        with pytest.raises(InputError, match="over the cap of"):
            run_report(doc, ReportOptions(
                entropy_horizon=ITERATE_CAP + 1, no_oracle=True))


class TestCircleCap:
    def test_over_cap_exits_fast(self, analyze):
        # checked at the n= line, before the missing image lines are sought
        for n in (10**7, 10**9):
            start = time.perf_counter()
            code, _, err = analyze(f"n={n}\nbranch: free\na1 -> a1 a1\n")
            assert code == 1
            assert time.perf_counter() - start < 1.0
            assert (f"line 1: circle count {n} over the cap of {CIRCLE_CAP} "
                    "circles") in err, err

    def test_cap_is_inclusive(self):
        n = CIRCLE_CAP
        images = "branch: free\na1 -> a1 a2\n" + "".join(
            f"a{j} -> a1 a{j % n + 1}\n" for j in range(2, n + 1))
        report = run_report(parse_spec(f"n={n}\n" + images), ReportOptions())
        assert report["input"]["n"] == n
        assert report["oracle"]["status"] == "ok"
        with pytest.raises(InputError, match=f"cap of {CIRCLE_CAP} circles"):
            parse_spec(f"n={n + 1}\n" + images)

    @pytest.mark.parametrize("index", [CIRCLE_CAP + 1, 10**5000],
                             ids=["cap-plus-one", "5001-digits"])
    def test_letter_over_cap_refused_fast(self, index):
        # Letter(10**5000, 1).token() raised a bare ValueError
        start = time.perf_counter()
        with pytest.raises(InputError, match=(
                f"^generator index must be in 1..{CIRCLE_CAP}, got ")):
            Letter(index, 1).token()
        assert time.perf_counter() - start < 0.1

    def test_cap_edge_memory(self):
        # every image has 64 letters; the record holds isqrt(64) = 8
        # powers of M as matrices, not all 64 of them
        doc = parse_spec(cap_edge_spec())
        tracemalloc.start()
        try:
            report = run_report(doc, ReportOptions())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["oracle"]["status"] == "ok"
        assert peak < 6_000_000, peak


class TestRadiusCheck:
    """Every modulus must be finite, and the printed spectral radius
    within a relative 1e-9 of the Perron root of |M|, by an exact test."""

    def test_nan_spectrum_exits_2(self, analyze):
        code, out, _ = analyze(twin32_spec(), "--no-oracle", "--format", "json")
        assert code == 2
        spectrum = json.loads(out)["spectrum"]
        assert len(spectrum["eigenvalues"]) == 64
        assert spectrum["spectral_radius"] == "nan"
        assert spectrum["residual"] == "nan"
        assert "[64, 64]" in spectrum["failure"]

    def test_radius_over_bound_exits_2(self, analyze):
        # the solver prints 90.63 for this map, whose Perron root is 2.29;
        # no word has more than 3 letters
        code, out, _ = analyze(probe64_spec(6), "--no-oracle")
        assert code == 2
        assert "FAILED spectrum:" in out
        assert "spectral radius 90.6" in out

    def test_radius_off_in_the_fifth_digit_exits_2(self, analyze):
        # the solver prints 2.06358375691233 for this map, whose Perron
        # root is 2.0635587049358.. (numpy; bisection by the exact test
        # puts it in (2.063558704935, 2.063558704936]), well inside the
        # column-sum range [1, 3] that the check read before
        code, out, _ = analyze(probe64_spec(9), "--no-oracle")
        assert code == 2
        assert "FAILED spectrum:" in out
        assert "spectral radius 2.06358375691233" in out

    def test_cap_edge_and_fixtures_pass(self):
        # the cap edge's radius is 64, every column sum of |M| is 64
        docs = [parse_spec(cap_edge_spec())]
        docs += [load_fixture(name)[0] for name in fixture_names()]
        for doc in docs:
            report = run_report(doc, ReportOptions(no_oracle=True))
            assert "failure" not in report["spectrum"], doc.action


#: d_22 = -2, and the census has no period 2
SIGN_BLIND = "n=2\nbranch: free\na1 -> a2'\na2 -> a2' a2'\n"


class TestCensusCheck:
    """Every certificate's promise up to the horizon must hold in the
    census's period set; one that does not is flagged and exits 2."""

    @staticmethod
    def json_and_text(analyze, spec, code):
        """The JSON report and the text rendering of `spec`, each run
        asserted to exit with `code`."""
        runs = [analyze(spec, "--format", fmt) for fmt in ("json", "text")]
        assert [c for c, _, _ in runs] == [code, code]
        return json.loads(runs[0][1]), runs[1][1]

    def test_minus_two_petal_holds(self, analyze):
        # the degree rule reads d_22 = -2 as Per containing N \ {2}
        report, out = self.json_and_text(analyze, SIGN_BLIND, 0)
        assert 2 not in report["census"]["period_set"]
        first = report["certificates"][0]
        assert first["rule"] == "doubling(a)"
        assert first["conclusion"] == "Per contains N \\ {2}"
        assert first["witness"] == {"j": "2", "d_jj": "-2"}
        assert not any("failure" in c for c in report["certificates"])
        assert "FAILED" not in out

    def test_contradicted_certificate_exits_2(self, analyze):
        # lowgrow(d) promises Per = N at class 1, but per(2) = 0
        spec = "n=2\nbranch: period 1\na1 -> a2\na2 -> a1 a2\n"
        report, out = self.json_and_text(analyze, spec, 2)
        assert 2 not in report["census"]["period_set"]
        flagged = {c["rule"]: c["failure"] for c in report["certificates"]
                   if "failure" in c}
        assert flagged == {"lowgrow(d)": "the census up to horizon 12 has "
                           "no period 2, which the conclusion promises"}
        assert ("FAILED certificate lowgrow(d): the census up to horizon "
                "12 has no period 2") in out
        assert out.count("FAILED") == 1

    def test_contradicted_pair_exits_2(self, analyze):
        # lowgrow(c) promises m or m+1 for every m; the period set is {1}
        spec = "n=2\nbranch: free\na1 -> a2'\na2 -> a1'\n"
        report, out = self.json_and_text(analyze, spec, 2)
        assert report["census"]["period_set"] == [1]
        flagged = {c["rule"]: c["failure"] for c in report["certificates"]
                   if "failure" in c}
        assert flagged == {"lowgrow(c)": (
            "the census up to horizon 12 has neither period m nor m+1 at "
            "m = 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, and the conclusion "
            "promises one of them")}
        assert out.count("FAILED certificate lowgrow(c): ") == 1


class TestMain:
    def test_analyze_ok(self, analyze):
        code, out, _ = analyze("n=1\nbranch: free\na1 -> a1 a1\n")
        assert code == 0
        assert "entropy" in out

    def test_analyze_json(self, analyze):
        code, out, _ = analyze("n=1\nbranch: free\na1 -> a1' a1'\n",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["schema"] == 11

    def test_input_error_exit_code(self, analyze):
        code, _, err = analyze("n=1\nbranch: free\na1 -> a1 a1'\n")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag, message", [
        ("--horizon", "error: horizon must be >= 1"),
        # the flag is gone, so no entropy horizon reaches the report
        ("--entropy-horizon", "error: unrecognized arguments: --entropy-horizon 0"),
    ], ids=["--horizon", "--entropy-horizon"])
    def test_nonpositive_horizon_exit_code(self, analyze, flag, message):
        code, _, err = analyze("n=1\nbranch: free\na1 -> a1 a1\n", flag, "0")
        assert code == 1
        assert message in err, err

    def test_entropy_horizon_flag_refused(self, capsys):
        # schema 9 prints one limit-route term, at E = 30; no flag moves it
        with pytest.raises(SystemExit) as e:
            main(["analyze", "rotor_g4.bqd", "--entropy-horizon", "5"])
        assert e.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: unrecognized arguments: --entropy-horizon 5" in err, err

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_nonpositive_oracle_depth_exit_code(self, analyze, depth):
        spec = "n=1\nbranch: free\na1 -> a1 a1\n"
        code, _, err = analyze(spec, "--oracle-depth", depth)
        assert code == 1
        assert "oracle depth must be >= 1" in err
        assert analyze(spec, "--oracle-depth", depth, "--no-oracle")[0] == 0

    def test_failing_statement_exits_2(self, analyze):
        # a1 <-> a2: L(f^m) = 1 against one fixed point on every odd m;
        # the statement names the least, where schema 5 listed 1, 3, 5
        spec = "n=2\nbranch: free\na1 -> a2\na2 -> a1\n"
        code, out, _ = analyze(spec, "--horizon", "6", "--format", "json")
        assert code == 2
        assert json.loads(out)["lefschetz_fix_checks"] == [
            {"m": 1, "mode": "equality-preserving", "passed": False}]
        code, out, _ = analyze(spec, "--horizon", "6", "--format", "text")
        assert code == 2
        assert "\nFAILED Lefschetz/fixed-point checks: 1\n" in out

    def test_inconsistency_exit_code(self, analyze):
        # a reflection of one circle: the census's per(2) comes out -2
        code, out, err = analyze("n=1\nbranch: free\na1 -> a1'\n")
        assert code == 2
        assert err == "error: census produced negative period count -2 at m=2\n"
        assert out == ""

    @pytest.mark.parametrize("spec, code, message", [
        # x -> -2x has per = 3, 0, 6, ..: no 2-cycle holds the branch point
        ("n=1\nbranch: period 2\na1 -> a1' a1'\n", 1,
         "branch period 2 is declared, but per(2) = 0 < 2, too few points "
         "for the branching point's orbit"),
        # past the horizon of 12: the census runs on to the declared 13
        ("n=1\nbranch: period 13\na1 -> a1\n", 1,
         "branch period 13 is declared, but per(13) = 0 < 13, too few "
         "points for the branching point's orbit"),
        # the 2-cycle of single-letter images a1 <-> a1' is one point
        ("n=2\nbranch: period 1\na1 -> a1'\na2 -> a1' a2' a2'\n", 2,
         "census produced period count 1 at m=2, not a multiple of 2"),
        ("n=1\nbranch: period 999999999999\na1 -> a1\n", 1,
         "iterates up to 999999999999 requested, over the cap of 10000 "
         "iterates"),
        # the iterate cap is checked first, so this class is within it
        ("n=1\nbranch: period 9999\na1 -> " + "a1' " * 10 + "\n", 1,
         "iterates up to 9999 could need integers of 10005 digits, over the "
         "cap of 4000 digits"),
    ], ids=["no-2-cycle", "past-horizon", "dold", "iterate-cap", "digit-cap"])
    def test_census_refuses_impossible_counts(self, analyze, spec, code,
                                              message):
        # each exited 0 before the census checked the declared orbit and
        # Dold's congruence, and reached only the horizon
        for fmt in ("json", "text"):
            assert analyze(spec, "--format", fmt) == (
                code, "", f"error: {message}\n")

    def test_census_past_horizon_prints_to_horizon(self):
        # a declared class past H is checked, and only H entries print
        doc = parse_spec("n=1\nbranch: period 40\na1 -> a1 a1\n")
        report = run_report(doc, ReportOptions(horizon=12))
        assert len(report["census"]["per"]) == 12
        assert report["census"]["per"] == run_report(
            doc._replace(action=doc.action._replace(branch_class=None)),
            ReportOptions(horizon=12))["census"]["per"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("spec", [
        "n=1\nbranch: free\na1 -> a1 a1\n", "n=1\nbranch: period 2\n"
        "a1 -> a1' a1'\n", "n=1\nbranch: free\na1 -> a1 a1\nn=2\n"],
        ids=["exit-0", "orbit-refused", "duplicate-n"])
    def test_byte_order_mark_is_read_past(self, tmp_path, capsys, spec, fmt):
        # a UTF-8 byte-order mark was line 1's first character
        outcomes = []
        for bom in (b"", b"\xef\xbb\xbf"):
            p = tmp_path / "map.bqd"
            p.write_bytes(bom + spec.encode())
            outcomes.append((main(["analyze", str(p), "--format", fmt]),
                             capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_deep_oracle_depth(self, capsys):
        # 2^21 - 1 pieces at depth 20: counted one by one they take seconds
        root = resources.files("bouquet_dyn") / "fixtures"
        path = root / "expand_double_g1.bqd"
        flags = ["--oracle-depth", "20", "--format", "json"]
        assert main(["analyze", str(path), *flags]) == 0
        oracle = json.loads(capsys.readouterr().out)["oracle"]
        assert oracle["depth"] == 20
        assert verdict(oracle) == PASSED

    def test_non_ascii_digit_exit_code(self, analyze):
        code, _, err = analyze("n=\u00b2\nbranch: free\na1 -> a1 a1\n")
        assert code == 1
        assert err == "error: line 1: bad circle count '\u00b2'\n"

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "/nonexistent.bqd"]) == 1

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        p = tmp_path / "map.bqd"
        p.write_bytes(b"n=1\nbranch: free\na1 -> a1 a1 # caf\xe9\n")
        assert main(["analyze", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xe9 in position 34: "
            "invalid continuation byte\n"
        )

    def test_claim_iterate_zero_exit_code(self, analyze):
        code, _, err = analyze(
            "n=1\nbranch: free\na1 -> a1 a1\nclaim: fix(0) = 1\n")
        assert code == 1
        assert err == "error: line 4: bad claim iterate '0'\n"

    def test_claim_beyond_horizon_exit_code(self, analyze):
        code, out, _ = analyze("n=1\nbranch: free\nhorizon: 12\na1 -> a1 a1\n"
                               "claim: fix(13) = 1\n", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["claims"] == [{"text": "claim: fix(13) = 1",
                                     "computed": None,
                                     "verdict": "out-of-range"}]
        assert report["warnings"] == [
            "claim beyond computed horizon: claim: fix(13) = 1"
        ]

    def test_fixtures_pass(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(fixture_names())

    def test_fixtures_takes_no_flags(self):
        with pytest.raises(SystemExit):
            main(["fixtures", "--horizon", "5"])

    @pytest.mark.parametrize("argv", [
        ["analyze", "rotor_g4.bqd", "--horizon", "abc"],
        ["analyze", "rotor_g4.bqd", "--horizon", "9" * 5000],
        [],
        ["analyze", "rotor_g4.bqd", "--oracle-depth", "9" * 5000],
        ["analyze", "rotor_g4.bqd", "--horizon", "-" + "9" * 5000],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        # exit 2 is kept for failed cross-checks
        start = time.perf_counter()
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "error: " in err
        if argv and "9" * 5000 in argv[-1]:
            # the digit count, not the value
            assert ": value has 5000 digits, over the cap of " in err, err
            assert len(err) < 500, len(err)

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert "usage: bouquet-dyn" in capsys.readouterr().out


class TestFixtureCorpus:
    def test_expected_reports_frozen(self):
        # byte for byte: key order, number format and the final newline
        root = resources.files("bouquet_dyn") / "fixtures"
        for name in fixture_names():
            doc, _ = load_fixture(name)
            frozen = (root / f"{name}.json").read_text(encoding="utf-8")
            assert render_json(run_report(doc, ReportOptions())) == frozen, name

    def test_cli_prints_frozen_bytes(self, capsysbinary):
        root = resources.files("bouquet_dyn") / "fixtures"
        for name in fixture_names():
            code = main(["analyze", str(root / f"{name}.bqd"), "--format", "json"])
            frozen = (root / f"{name}.json").read_bytes()
            assert capsysbinary.readouterr().out == frozen, name
            assert code == (2 if report_has_failures(json.loads(frozen)) else 0)

    def test_corpus_contents(self):
        names = fixture_names()
        assert len(names) == 8
        assert "rotor_g4" in names and "feed_forward_g3" in names

    def test_discrepancy_warning_in_rotor(self):
        doc, expected = load_fixture("rotor_g4")
        assert any(
            "l(3) = 2" in w for w in expected["warnings"]
        )


class TestRenderText:
    def test_fixture_reports(self):
        # the default --format text shows the whole table, the period set,
        # every certificate, the oracle status and every warning
        seen = set()
        for name in fixture_names():
            doc, _ = load_fixture(name)
            report = run_report(doc, ReportOptions())
            lines = render_text(report).splitlines()
            horizon = report["input"]["horizon"]
            lef, cen = report["lefschetz"], report["census"]
            header = lines.index(f"{'m':>3} {'L':>8} {'l':>8} {'fix':>8} "
                                 f"{'per':>8}")
            rows = [line.split() for line in lines[header + 1:header + 2 + horizon]]
            assert rows[-1] == [], name
            assert rows[:-1] == [
                [str(m), lef["L"][m - 1], lef["l"][m - 1], cen["fix"][m - 1],
                 cen["per"][m - 1]]
                for m in range(1, horizon + 1)
            ], name
            assert (f"period set up to {horizon}: {cen['period_set']}"
                    in lines), name
            ent = report["entropy"]
            assert (f"entropy: {ent['spectral']}; limit-route gap at "
                    f"m={ent['horizon']}: {ent['gap_at_horizon']}"
                    in lines), name
            for cert in report["certificates"]:
                assert f"  {cert['rule']}: {cert['conclusion']}" in lines, name
            oracle = [line for line in lines if line.startswith("oracle: ")]
            assert len(oracle) == 1, name
            assert oracle[0].split()[1] == report["oracle"]["status"], name
            for w in report["warnings"]:
                assert f"warning: {w}" in lines, name
            seen.add(report["oracle"]["status"])
            seen |= {"certificates"} if report["certificates"] else set()
            seen |= {"warnings"} if report["warnings"] else set()
        assert {"ok", "unavailable", "certificates", "warnings"} <= seen


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class TestJsonIndent2:
    """`render_json` joins the pieces of `json_pieces` on every Python;
    its bytes must equal `json.dumps(indent=2, sort_keys=True)`."""

    def test_fixture_reports(self):
        variants = [
            ReportOptions(),
            ReportOptions(no_oracle=True),
            ReportOptions(horizon=1),
            ReportOptions(oracle_depth=1),
        ]
        docs = [load_fixture(name)[0] for name in fixture_names()]
        for doc in docs:
            for options in variants:
                report = run_report(doc, options)
                assert render_json(report) == dumps(report)

    def test_random_reports(self, rng):
        maps = [random_expanding_action(rng)[0] for _ in range(300)]
        maps += [random_action(rng) for _ in range(300)]
        statuses = set()
        for f in maps:
            try:
                report = run_report(MapSpecDocument(f), ReportOptions())
            except InconsistencyError:
                continue
            statuses.add(report["oracle"]["status"])
            assert render_json(report) == dumps(report), f
        assert {"ok", "unavailable"} <= statuses

    @pytest.mark.parametrize("value", [
        {"quote": 'say "hi"', "backslash": "a\\b", "slash": "a/b"},
        ["\x00\x01\x1f\t\n\r\x7f", "\u2028\u2029", "\U0001f600"],
        {"caf\u00e9": "M\u00f6bius \u2013 \u00bd", "": "", "Z": "z", "a": "A"},
        {}, [], "", {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {}}},
        [None, True, False], {"none": None, "true": True, "false": False},
        [-1, 0, 2**64 + 1, -(2**70)], ["a", 1, "b", None], ["x", ["y", "z"]],
        "bare", 7, -7, None, True, False,
        # lists of dicts, same-keyed like the check rows or not
        [{"100%": 1, 'say "x"': "%s", "%d": True},
         {"100%": 2, 'say "x"': "%%", "%d": False}],
        [{"a": 1, "b": 2}, {"a": 3}], [{"a": 1}, {"b": 1}],
        [{"m": 1}, {"m": True}], [{"m": True}, {"m": 1}],
        [{"x": None, "y": "s"}, {"x": None, "y": "t"}],
        [{"a": None}, {"a": "x"}],
        [{"a": [1, 2]}, {"a": [3]}], [{"a": {"b": 1}}, {"a": {"b": 2}}],
        [{}, {}], [{"m": 1, "mode": "bound", "passed": False}],
        [{"a": 1}, "b"],
    ])
    def test_hand_built_values(self, value):
        assert render_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        [0, 1, -1, 2**64 + 1, -(10**4000)], [True, False, True], [1, True],
        [True, 1], [0, False, 1, True], [1, "1"], ["1", 1], [1, None],
        [None, 1], [], [[]], [[1, 2], [True], []], {"m": [3, 6, 9]},
        [[1, [2, [3, False]]], [None]],
    ])
    def test_int_lists(self, value):
        # a bool prints as true or false, never as 1 or 0
        assert render_json(value) == dumps(value)

    def test_int_lists_keep_bools(self):
        assert render_json([1, True, 0, False]).split() == [
            "[", "1,", "true,", "0,", "false", "]"]

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), {1: "a"}, ["a", 1.5], {"a": [{"b": (1,)}]}, [1, 1.5],
        [{"a": 1.5}, {"a": 2.5}],
    ])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            render_json(value)

    def test_cli_holds_the_text_once(self, tmp_path, monkeypatch):
        # `analyze --format json` writes the pieces as they are: rendering
        # adds them, about the text's length, and no joined copy of the text
        spec = tmp_path / "doubling.bqd"
        spec.write_text("n=1\nbranch: free\na1 -> a1 a1\n", encoding="utf-8")
        argv = ["analyze", str(spec), "--horizon", "3000", "--no-oracle",
                "--format", "json"]
        report = run_report(parse_spec(spec.read_text(encoding="utf-8")),
                            ReportOptions(horizon=3000, no_oracle=True))
        size = len(render_json(report))
        monkeypatch.setattr(cli, "run_report", lambda doc, options: report)
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * size, peak / size

"""DSL parsing, report generation, exit codes, fixture corpus."""

import json
from importlib import resources

import pytest

from bouquet_dyn import BRANCH_FREE
from bouquet_dyn.cli import (
    ReportOptions,
    fixture_names,
    load_fixture,
    main,
    parse_spec,
    print_spec,
    render_json,
    run_report,
)
from bouquet_dyn.errors import InputError

LOW_GROWTH_TEXT = """\
n=3
branch: period 1
a1 -> a1 a3
a2 -> a1
a3 -> a1 a3
"""


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

    def test_duplicate_image(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_spec("n=1\nbranch: free\na1 -> a1\na1 -> a1 a1\n")

    def test_out_of_range_image(self):
        with pytest.raises(InputError):
            parse_spec("n=1\nbranch: free\na1 -> a1\na2 -> a1\n")

    def test_unknown_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_spec("n=1\nwat\nbranch: free\na1 -> a1 a1\n")

    def test_roundtrip(self):
        doc = parse_spec(LOW_GROWTH_TEXT + "claim: per(1) = 1\n")
        assert parse_spec(print_spec(doc)) == doc


class TestRunReport:
    def test_reflect_doubling_report(self):
        doc = parse_spec("n=1\nbranch: free\na1 -> a1' a1'\n")
        report = run_report(doc, ReportOptions())
        assert report["schema"] == 1
        assert report["lefschetz"]["L"][0] == "3"
        assert report["lefschetz"]["l"][1] == "-6"
        assert report["census"]["per"][1] == "0"
        assert any(
            c["rule"] == "doubling(e)" for c in report["certificates"]
        )
        assert report["oracle"]["status"] == "ok"
        assert all(
            v["verdict"] == "match" for v in report["oracle"]["verdicts"]
        )

    def test_claim_mismatch_warns_but_passes(self):
        doc = parse_spec(
            "n=1\nbranch: free\na1 -> a1' a1'\nclaim: l(2) = 5\n"
        )
        report = run_report(doc, ReportOptions())
        assert report["claims"][0]["verdict"] == "mismatch"
        assert any("l(2) = 5" in w for w in report["warnings"])

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
        # low growth fires the delayed criterion at m = 2, beyond horizon 1
        doc = parse_spec(LOW_GROWTH_TEXT + "horizon: 1\n")
        report = run_report(doc, ReportOptions())
        assert report["census"]["fix"] == ["1"]
        assert report["census"]["per"] == ["1"]
        assert len(report["lefschetz_fix_checks"]) == 1
        assert not any(
            c["rule"].startswith("delaylowgrow")
            for c in report["certificates"]
        )
        wide = run_report(parse_spec(LOW_GROWTH_TEXT), ReportOptions())
        assert any(
            c["rule"].startswith("delaylowgrow") for c in wide["certificates"]
        )

    def test_json_round_trip(self):
        doc = parse_spec(LOW_GROWTH_TEXT)
        report = run_report(doc, ReportOptions())
        assert json.loads(render_json(report)) == report


class TestMain:
    def test_analyze_ok(self, tmp_path, capsys):
        p = tmp_path / "map.bqd"
        p.write_text("n=1\nbranch: free\na1 -> a1 a1\n")
        assert main(["analyze", str(p)]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out

    def test_analyze_json(self, tmp_path, capsys):
        p = tmp_path / "map.bqd"
        p.write_text("n=1\nbranch: free\na1 -> a1' a1'\n")
        assert main(["analyze", str(p), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1

    def test_input_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.bqd"
        p.write_text("n=1\nbranch: free\na1 -> a1 a1'\n")
        assert main(["analyze", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--horizon", "--entropy-horizon"])
    def test_nonpositive_horizon_exit_code(self, tmp_path, capsys, flag):
        p = tmp_path / "map.bqd"
        p.write_text("n=1\nbranch: free\na1 -> a1 a1\n")
        assert main(["analyze", str(p), flag, "0"]) == 1
        assert "horizon must be >= 1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "/nonexistent.bqd"]) == 1

    def test_fixtures_pass(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(fixture_names())


class TestFixtureCorpus:
    def test_expected_reports_frozen(self):
        # byte for byte: key order, number format and the final newline
        root = resources.files("bouquet_dyn") / "fixtures"
        for name in fixture_names():
            doc, _ = load_fixture(name)
            frozen = (root / f"{name}.json").read_text(encoding="utf-8")
            assert render_json(run_report(doc, ReportOptions())) == frozen, name

    def test_corpus_contents(self):
        names = fixture_names()
        assert len(names) == 8
        assert "rotor_g4" in names and "feed_forward_g3" in names

    def test_discrepancy_warning_in_rotor(self):
        doc, expected = load_fixture("rotor_g4")
        assert any(
            "l(3) = 2" in w for w in expected["warnings"]
        )

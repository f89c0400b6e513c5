"""The exhaustive domain as a correctness gate: every map of one or two
circles whose image words have 1-3 letters, of either sign, declared
free or of branch class 1, 2 or 3, at horizon 40.

The admissibility gate does not exist yet, so its two rules are a
filter here: refuse a cycle of single-letter images, and refuse a branch
class other than 1 when no circle is common to every image word.  Every
admitted map must then report with no failure at all (every Lefschetz
check passes, the oracle does not mismatch, and every certificate holds
in the census), except the maps in `EXPECTED`, each flagged on exactly
one certificate for the reason given.  The list may only get shorter.
"""

from itertools import product

from bouquet_dyn.cli import (ReportOptions, fixture_names, parse_spec,
                             report_has_failures, run_report)

from conftest import fmbig_reference, load_fixture

HORIZON = 40

#: lowgrow(d) promises Per = N at class 1, but the census of each of
#: these maps has no period 2: the case is not yet re-derived for a
#: based vertex
EXPECTED = {
    (1, images): ("lowgrow(d)", "no period 2")
    for images in (
        ("a2", "a1 a2"), ("a2", "a2 a1"), ("a2", "a1 a2 a1"),
        ("a1 a2", "a1"), ("a1 a2", "a2 a1"), ("a2 a1", "a1"),
        ("a2 a1", "a1 a2"), ("a2 a1 a2", "a1"),
        ("a2'", "a1' a2'"), ("a2'", "a2' a1'"), ("a2'", "a1' a2' a1'"),
        ("a1' a2'", "a1'"), ("a1' a2'", "a1' a2'"), ("a2' a1'", "a1'"),
        ("a2' a1'", "a2' a1'"), ("a2' a1' a2'", "a1'"),
    )
}


def _domain():
    """(class, image texts, admitted) for every map of the domain."""
    for n, mark in product((1, 2), ("", "'")):
        words = [idxs for length in (1, 2, 3)
                 for idxs in product(range(1, n + 1), repeat=length)]
        for combo in product(words, repeat=n):
            texts = tuple(" ".join(f"a{i}{mark}" for i in w) for w in combo)
            for k in (None, 1, 2, 3):
                yield k, texts, _admitted(combo, k)


def _admitted(combo, k) -> bool:
    """Whether the two admissibility rules let the map through."""
    single = {j: w[0] for j, w in enumerate(combo, start=1) if len(w) == 1}
    for j in single:
        seen = set()
        while j in single and j not in seen:
            seen.add(j)
            j = single[j]
        if j in seen:
            return False
    return k == 1 or bool(set.intersection(*map(set, combo)))


def _report(k, texts) -> dict:
    """The horizon-40 report of one map of the domain."""
    branch = "free" if k is None else f"period {k}"
    spec = f"n={len(texts)}\nbranch: {branch}\n" + "".join(
        f"a{j} -> {w}\n" for j, w in enumerate(texts, start=1))
    return run_report(parse_spec(spec), ReportOptions(horizon=HORIZON))


def test_admitted_maps_report_no_failure():
    total = admitted = 0
    flagged = {}
    for k, texts, ok in _domain():
        total += 1
        if not ok:
            continue
        admitted += 1
        report = _report(k, texts)
        assert all(c["passed"] for c in report["lefschetz_fix_checks"]), (k, texts)
        assert "failure" not in report["spectrum"], (k, texts)
        assert report["oracle"]["status"] != "mismatch", (k, texts)
        failures = [(c["rule"], c["failure"]) for c in report["certificates"]
                    if "failure" in c]
        assert report_has_failures(report) == bool(failures), (k, texts)
        if failures:
            assert len(failures) == 1, (k, texts, failures)
            flagged[k, texts] = failures[0]
    assert (total, admitted) == (1592, 1288)
    assert flagged.keys() == EXPECTED.keys()
    for key, (rule, text) in flagged.items():
        want_rule, want_text = EXPECTED[key]
        assert rule == want_rule and f"has {want_text}," in text, (key, text)


def test_each_fact_printed_once():
    # the report prints L, not 1 - L as a trace, and the period set, not
    # the fix-count comparison test's iterates, which it contains; the
    # dominant threshold is the analytic one alone
    reports = [load_fixture(name)[1] for name in fixture_names()]
    reports += [_report(k, texts) for k, texts, ok in _domain() if ok]
    assert len(reports) == 8 + 1288
    for report in reports:
        assert set(report["lefschetz"]) == {"horizon", "L", "l"}
        for cert in report["certificates"]:
            assert cert["rule"] != "fmbig"
            assert "m0_empirical" not in cert["witness"]
        fixes = list(map(int, report["census"]["fix"]))
        assert set(fmbig_reference(fixes)) <= set(report["census"]["period_set"])

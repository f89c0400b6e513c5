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

from bouquet_dyn.cli import ReportOptions, parse_spec, report_has_failures, run_report

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


def test_admitted_maps_report_no_failure():
    total = admitted = 0
    flagged = {}
    for k, texts, ok in _domain():
        total += 1
        if not ok:
            continue
        admitted += 1
        branch = "free" if k is None else f"period {k}"
        spec = f"n={len(texts)}\nbranch: {branch}\n" + "".join(
            f"a{j} -> {w}\n" for j, w in enumerate(texts, start=1))
        report = run_report(parse_spec(spec), ReportOptions(horizon=HORIZON))
        assert all(c["passed"] for c in report["lefschetz_fix_checks"]), spec
        assert "failure" not in report["spectrum"], spec
        assert report["oracle"]["status"] != "mismatch", spec
        failures = [(c["rule"], c["failure"]) for c in report["certificates"]
                    if "failure" in c]
        assert report_has_failures(report) == bool(failures), spec
        if failures:
            assert len(failures) == 1, (spec, failures)
            flagged[k, texts] = failures[0]
    assert (total, admitted) == (1592, 1288)
    assert flagged.keys() == EXPECTED.keys()
    for key, (rule, text) in flagged.items():
        want_rule, want_text = EXPECTED[key]
        assert rule == want_rule and f"has {want_text}," in text, (key, text)

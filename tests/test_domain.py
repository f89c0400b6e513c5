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

Run as a script, the module checks the larger n = 3 domain the same way
(image words of 1-2 letters, 13 824 reports, about 9 s) against its
tally, `N3_TALLY`:

    PYTHONPATH=src python tests/test_domain.py
"""

from collections import Counter
from itertools import product

import pytest

from bouquet_dyn.cli import (ReportOptions, fixture_names, parse_spec,
                             report_has_failures, run_report)
from bouquet_dyn.errors import InconsistencyError

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


#: the n = 3 domain: its reports, the maps the two rules admit, the
#: `InconsistencyError`s (each on a refused map), and per rule the
#: admitted maps flagged on that one certificate, each a pair case that
#: misses period 1 or 2 (or 4, delayed); every count but the first two
#: may only shrink
N3_TALLY = {"reports": 13824, "admitted": 5688, "inconsistent": 1359,
            "lowgrow(a)": 160, "lowgrow(d)": 546,
            "delaylowgrow(m=2; lowgrow(d))": 24}


def _domain(sizes=(1, 2), lengths=(1, 2, 3)):
    """(class, image texts, admitted) for every map of the domain with n
    in `sizes` and image words of `lengths` letters."""
    for n, mark in product(sizes, ("", "'")):
        words = [idxs for length in lengths
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


@pytest.fixture(scope="module")
def admitted():
    """{(class, image texts): report} for every admitted map, built once
    for the module's tests."""
    return {(k, texts): _report(k, texts) for k, texts, ok in _domain() if ok}


def _failure(key, report):
    """The (rule, failure) of the one certificate an admitted map's
    report flags, or None; every other part of the report must pass."""
    assert all(c["passed"] for c in report["lefschetz_fix_checks"]), key
    assert "failure" not in report["spectrum"], key
    assert report["oracle"]["status"] != "mismatch", key
    failures = [(c["rule"], c["failure"]) for c in report["certificates"]
                if "failure" in c]
    assert report_has_failures(report) == bool(failures), key
    assert len(failures) <= 1, (key, failures)
    return failures[0] if failures else None


def test_admitted_maps_report_no_failure(admitted):
    assert (sum(1 for _ in _domain()), len(admitted)) == (1592, 1288)
    flagged = {}
    for key, report in admitted.items():
        failure = _failure(key, report)
        if failure:
            flagged[key] = failure
    assert flagged.keys() == EXPECTED.keys()
    for key, (rule, text) in flagged.items():
        want_rule, want_text = EXPECTED[key]
        assert rule == want_rule and f"has {want_text}," in text, (key, text)


def test_each_fact_printed_once(admitted):
    # the report prints L, not 1 - L as a trace, and the period set, not
    # the fix-count comparison test's iterates, which it contains; the
    # dominant threshold is the analytic one alone; neither block repeats
    # a horizon, and the entropy has no base-2 copy; no check row is
    # printed for a reversing iterate, and the preserving equality is
    # one row
    reports = [load_fixture(name)[1] for name in fixture_names()]
    reports += admitted.values()
    assert len(reports) == 8 + 1288
    for report in reports:
        assert set(report["lefschetz"]) == {"L", "l"}
        modes = [c["mode"] for c in report["lefschetz_fix_checks"]]
        assert "equality-reversing" not in modes
        assert modes.count("equality-preserving") <= 1
        assert set(report["entropy"]) == {
            "spectral", "limit_sequence", "gap_at_horizon"}
        for cert in report["certificates"]:
            assert cert["rule"] != "fmbig"
            assert "m0_empirical" not in cert["witness"]
        fixes = list(map(int, report["census"]["fix"]))
        assert set(fmbig_reference(fixes)) <= set(report["census"]["period_set"])


def n3_tally() -> dict:
    """The tally of the n = 3 domain, in `N3_TALLY`'s keys, with every
    map run: only refused maps may raise `InconsistencyError`, and every
    admitted map must pass as in `test_admitted_maps_report_no_failure`."""
    tally = Counter()
    for k, texts, ok in _domain((3,), (1, 2)):
        tally["reports"] += 1
        tally["admitted"] += ok
        try:
            report = _report(k, texts)
        except InconsistencyError:
            assert not ok, (k, texts)
            tally["inconsistent"] += 1
            continue
        failure = _failure((k, texts), report) if ok else None
        if failure:
            tally[failure[0]] += 1
    return dict(tally)


if __name__ == "__main__":
    tally = n3_tally()
    print(tally)
    assert tally == N3_TALLY, tally

"""The exhaustive domain as a correctness gate: every map of one or two
circles whose image words have 1-3 letters, of either sign, declared
free or of branch class 1, 2 or 3, at horizon and oracle depth 40.

The admissibility gate does not exist yet, so its two rules are a filter
(`conftest.domain_maps`): refuse a cycle of single-letter images, and
refuse a branch class other than 1 when no circle is common to every
image word.  A third rule, the declared orbit, reads the census, so the
report makes it: an admitted map declared of class k whose census has
per(k) < k must exit 1 naming it (`ORBIT_REFUSED` of them).  Every other
admitted map must then report with no failure at all (every Lefschetz
check passes, the oracle does not mismatch, and every certificate holds
in the census), except the maps in `EXPECTED`, each flagged on exactly
one certificate for the reason given.  The list may only get shorter.
Wherever the lift's branch orbit is the declared one, the oracle's fix
statement must pass (the lift's count equals fix(m) for every m <= 40);
elsewhere the lift counts another map, and the statement reads null.

`test_word_reversal_keeps_the_report` runs every map of the domain,
refused maps included, against its twin with every image word reversed,
a conjugate map: the two reports agree but for the image words, or the
two refusals agree.

`test_n3_tally` checks the larger n = 3 domain the same way (image words
of 1-2 letters, 13 824 reports, about 11 s) against its tally, `N3_TALLY`.
`test_exit_0_reports_have_possible_census` samples the whole n <= 2
domain, refused maps included: every report that exits 0 has a census
that a map can have.

`test_domain_digest` holds every map of the n <= 2 domain, refused
maps included, to the bytes `analyze` wrote for it when
`domain_digest.json` was last written: at two option sets, in JSON and
in text, the exit code, stdout and stderr of each run.  A change that
declares new output rewrites the digest in the same commit, with
`PYTHONPATH=src python tests/test_domain.py`.
"""

import argparse
import hashlib
import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from bouquet_dyn import cli
from bouquet_dyn.cli import (ReportOptions, fixture_names, main, parse_spec,
                             report_has_failures, run_report)
from bouquet_dyn.errors import InconsistencyError, InputError

from conftest import (ENTROPY_KEYS, domain_maps, domain_spec, fmbig_reference,
                      load_fixture)

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


#: the error text of the orbit rule: a declared class k needs per(k) >= k
ORBIT = "too few points for the branching point's orbit"

#: the admitted maps of the n <= 2 domain that the orbit rule refuses,
#: each reversing and declared class 2 with per(2) < 2 (x -> -2x, for
#: one, has no 2-cycle)
ORBIT_REFUSED = 25

#: the n = 3 domain: its reports, the maps the two rules admit, the orbit
#: rule's refusals (of all maps, and of admitted ones), the
#: `InconsistencyError`s (each on a refused map), and per rule the
#: admitted maps flagged on that one certificate, each a pair case that
#: misses period 1 or 2 (or 4, delayed); every count but the first two
#: may only shrink
N3_TALLY = {"reports": 13824, "admitted": 5688, "orbit": 1704,
            "orbit admitted": 384, "inconsistent": 1812,
            "lowgrow(a)": 160, "lowgrow(d)": 546,
            "delaylowgrow(m=2; lowgrow(d))": 24}


def _report(k, texts) -> dict:
    """The horizon-40 report of one map of the domain."""
    return run_report(parse_spec(domain_spec(k, texts)),
                      ReportOptions(horizon=HORIZON, oracle_depth=HORIZON))


@pytest.fixture(scope="module")
def domain():
    """({(class, image texts): report} for every admitted map that
    reports, [the admitted (class, image texts) the orbit rule refuses]),
    built once for the module's tests."""
    reports, refused = {}, []
    for k, texts, ok in domain_maps():
        if not ok:
            continue
        try:
            reports[(k, texts)] = _report(k, texts)
        except InputError as e:
            assert ORBIT in str(e), (k, texts)
            refused.append((k, texts))
    return reports, refused


@pytest.fixture(scope="module")
def admitted(domain):
    """{(class, image texts): report} for every admitted map that
    reports."""
    return domain[0]


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
    assert (sum(1 for _ in domain_maps()), len(admitted)) == (1592, 1263)
    flagged = {}
    for key, report in admitted.items():
        failure = _failure(key, report)
        if failure:
            flagged[key] = failure
    assert flagged.keys() == EXPECTED.keys()
    for key, (rule, text) in flagged.items():
        want_rule, want_text = EXPECTED[key]
        assert rule == want_rule and f"has {want_text}," in text, (key, text)


def test_orbit_refusals_exit_1(domain, tmp_path, capsys):
    # the admitted maps whose declared class the census has no room for
    # exited 0 before the orbit rule; each is reversing, declared class 2
    _, refused = domain
    assert len(refused) == ORBIT_REFUSED
    path = tmp_path / "map.bqd"
    for k, texts in refused:
        assert k == 2 and all("'" in w for w in texts), texts
        path.write_text(domain_spec(k, texts))
        assert main(["analyze", str(path), "--horizon", str(HORIZON)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "error: branch period 2 is declared, but per(2) = ") and (
            err.endswith(f"{ORBIT}\n")), (texts, err)


def test_exit_0_reports_have_possible_census(tmp_path, capsys):
    # a seeded sample of the whole domain, refused maps included: a
    # report that exits 0 has m | per(m) for every m <= 40 (Dold), and
    # per(k) >= k for its declared class k, the branching point's orbit
    specs = random.Random(26).sample(list(domain_maps()), 400)
    path = tmp_path / "map.bqd"
    codes = Counter()
    for k, texts, _ in specs:
        path.write_text(domain_spec(k, texts))
        code = main(["analyze", str(path), "--horizon", str(HORIZON),
                     "--oracle-depth", str(HORIZON), "--format", "json"])
        codes[code] += 1
        out = capsys.readouterr().out
        if code:
            continue
        per = list(map(int, json.loads(out)["census"]["per"]))
        assert all(p % m == 0 for m, p in enumerate(per, start=1)), texts
        assert k is None or per[k - 1] >= k, (k, texts)
    assert codes.keys() == {0, 1, 2}, codes


def test_oracle_judges_every_observed_class(admitted):
    # the oracle runs on 881 admitted maps that report, and judges the 224
    # whose lift has the declared branch period (free included): on all
    # of them the lift's fix counts equal the census's to depth 40; a lift
    # of another class counts another map, so its statement reads null on
    # the other 657, whether its counts agree or not
    ran = {key: report["oracle"] for key, report in admitted.items()
           if "depth" in report["oracle"]}
    judged = {key for key, oracle in ran.items()
              if oracle["branch_period_observed"] == key[0]}
    assert (len(ran), len(judged)) == (881, 224)
    for key, oracle in ran.items():
        assert oracle["depth"] == HORIZON, key
        assert oracle["passed"] is (key in judged or None), key
        assert oracle["first_difference"] is None or key not in judged, key


def test_each_fact_printed_once(admitted):
    # the report prints L, not 1 - L as a trace, and the period set, not
    # the fix-count comparison test's iterates, which it contains; the
    # dominant threshold is the analytic one alone; neither block repeats
    # a horizon, and the entropy has no base-2 copy; no check row is
    # printed for a reversing iterate, the preserving equality is one
    # row, and class 1, whose index bound `fix_counts` makes an identity,
    # has none
    reports = [load_fixture(name)[1] for name in fixture_names()]
    reports += admitted.values()
    assert len(reports) == 8 + 1263
    for report in reports:
        assert set(report["lefschetz"]) == {"L", "l"}
        modes = [c["mode"] for c in report["lefschetz_fix_checks"]]
        assert "equality-reversing" not in modes and "bound" not in modes
        assert modes.count("equality-preserving") <= 1
        if report["input"]["branch"] == "1":
            assert modes == []
        assert set(report["entropy"]) == ENTROPY_KEYS
        for cert in report["certificates"]:
            assert cert["rule"] != "fmbig"
            assert "m0_empirical" not in cert["witness"]
        fixes = list(map(int, report["census"]["fix"]))
        assert set(fmbig_reference(fixes)) <= set(report["census"]["period_set"])


def _outcome(k, texts):
    """The horizon-40 report of one map of the domain less its image
    words, or the (type, text) of the exception that refuses it."""
    try:
        report = _report(k, texts)
    except (InputError, InconsistencyError) as e:
        return type(e), str(e)
    del report["input"]["images"]
    return report


def test_word_reversal_keeps_the_report():
    # reversing every image word is conjugacy by the reflection of every
    # petal, so on every map of the domain, refused maps included, the
    # reversed twin gets the same report, image words aside, or the same
    # refusal
    for k, texts, _ in domain_maps():
        twin = tuple(" ".join(reversed(w.split())) for w in texts)
        assert _outcome(k, twin) == _outcome(k, texts), domain_spec(k, texts)


def test_n3_tally():
    # only refused maps may raise `InconsistencyError`, an admitted map
    # may be refused by the orbit rule, and every other admitted map must
    # pass as in `test_admitted_maps_report_no_failure`
    tally = Counter()
    for k, texts, ok in domain_maps((3,), (1, 2)):
        tally["reports"] += 1
        tally["admitted"] += ok
        try:
            report = _report(k, texts)
        except InconsistencyError:
            assert not ok, (k, texts)
            tally["inconsistent"] += 1
            continue
        except InputError as e:
            assert ORBIT in str(e), (k, texts)
            tally["orbit"] += 1
            tally["orbit admitted"] += ok
            continue
        failure = _failure((k, texts), report) if ok else None
        if failure:
            tally[failure[0]] += 1
    assert tally == N3_TALLY, tally


DIGEST = Path(__file__).with_name("domain_digest.json")

#: the (horizon, oracle depth) of each option set the digest runs, as
#: `--horizon H --oracle-depth D`, each in both formats
DIGEST_SETTINGS = ((40, 40), (12, 60))


def _memoized(report):
    """`run_report` that reads one report for the text and the JSON run
    of one option set: it is a function of its arguments alone, and the
    digest spends half its time there otherwise.  A refusal is kept and
    raised again."""
    last = {}

    def run(doc, options):
        if (doc, options) not in last:
            last.clear()
            try:
                last[doc, options] = report(doc, options)
            except (InputError, InconsistencyError) as e:
                last[doc, options] = e
        result = last[doc, options]
        if isinstance(result, Exception):
            raise result
        return result

    return run


def domain_digest(path) -> dict:
    """The digest of the whole n <= 2 domain through `cli._analyze`, each
    spec written to `path` in turn: per option set and format, the exit
    tally and the sha256 of every run's [exit code, stdout, stderr] in
    domain order, and per spec the first 8 hex digits of the sha256 of
    its four runs, so that a mismatch names the first spec that differs."""
    settings = {f"--horizon {h} --oracle-depth {d} --format {fmt}":
                argparse.Namespace(spec_file=str(path), horizon=h,
                                   oracle_depth=d, no_oracle=False,
                                   format=fmt)
                for h, d in DIGEST_SETTINGS for fmt in ("json", "text")}
    tallies = {name: Counter() for name in settings}
    hashes = {name: hashlib.sha256() for name in settings}
    per_spec = []
    with mock.patch.object(cli, "run_report", _memoized(cli.run_report)):
        for k, texts, _ in domain_maps():
            Path(path).write_text(domain_spec(k, texts), encoding="utf-8")
            spec_hash = hashlib.sha256()
            for name, args in settings.items():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli._analyze(args)
                run = (json.dumps([code, out.getvalue(), err.getvalue()])
                       + "\n").encode()
                tallies[name][str(code)] += 1
                hashes[name].update(run)
                spec_hash.update(run)
            per_spec.append(spec_hash.hexdigest()[:8])
    return {"specs": len(per_spec),
            "settings": {name: {"exits": dict(sorted(tallies[name].items())),
                                "sha256": hashes[name].hexdigest()}
                         for name in settings},
            "per_spec": per_spec}


def test_domain_digest(tmp_path):
    # every report, usage error and refusal of the domain is byte for
    # byte the committed one; each option set and format exits 0 on
    # 1 379 specs, 1 on 89 and 2 on 124
    want = json.loads(DIGEST.read_text())
    got = domain_digest(tmp_path / "map.bqd")
    specs = list(domain_maps())
    first = next((i for i, (a, b) in enumerate(
        zip(got["per_spec"], want["per_spec"])) if a != b), None)
    differ = [name for name, setting in want["settings"].items()
              if got["settings"].get(name) != setting]
    where = ("no spec's own digest differs" if first is None else
             f"first spec that differs, #{first} of {len(specs)}:\n"
             + domain_spec(*specs[first][:2]))
    assert got == want, f"{differ}; {where}"
    assert {tuple(s["exits"].values()) for s in got["settings"].values()} == {
        (1379, 89, 124)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        DIGEST.write_text(json.dumps(domain_digest(Path(scratch) / "map.bqd"),
                                     indent=1) + "\n")

"""Every committed benchmark record (`BENCH_*.json` at the repository
root, written by `tools/bench_pair.py`) names the metric and workload it
claims, or none, holds every metric's median on both sides, and records
that the parent and the change gave the same reports on every pair of
runs.  It also names the committed change it measured, apart from its
parent, and was timed at the run length `BENCHMARK.json` sets.  The gate
logic of `tools/bench_pair.py` (wins, quartiles, `--pairs`, same output,
and its refusal to write a record whose outputs differ) is checked on
hand-built runs."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def records():
    return sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert records(), "no BENCH_*.json record is committed"


def test_records_are_complete():
    for path in records():
        rec = json.loads(path.read_text())
        assert re.fullmatch(r"[0-9a-f]{40}", rec["change"]), path.name
        assert rec["change"] != rec["parent"], path.name
        assert rec["change_dirty"] is False, path.name
        assert rec["src_sha256"]["change"] != rec["src_sha256"]["parent"], path.name
        assert rec["seconds"] == BENCH["run_seconds"], path.name
        claim = rec["claim"]
        if claim is not None:
            assert claim["better"] in ("higher", "lower"), path.name
            assert claim["workload"] in rec["workloads"], path.name
            assert claim["metric"] in rec["workloads"][claim["workload"]][
                "median"]["parent"], path.name
        for name, w in rec["workloads"].items():
            where = f"{path.name} {name}"
            assert w["seeds"], where
            for side in SIDES:
                runs = w["runs"][side]
                assert [r["seed"] for r in runs] == w["seeds"], where
                for metric, median in w["median"][side].items():
                    values = [r["metrics"][metric] for r in runs]
                    assert median == statistics.median(values), (where, metric)
            for p, c in zip(w["runs"]["parent"], w["runs"]["change"]):
                assert re.fullmatch(r"[0-9a-f]{64}", p["report_sha256"]), where
                for key in ("report_sha256", "attempted", "failed"):
                    assert p[key] == c[key], (where, p["seed"], key)
            assert w["outputs_equal"] is True, where


def load_bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pair = load_bench_pair()


def run(rate, p50, digest="a" * 64, seed=41):
    return {"seed": seed, "report_sha256": digest, "attempted": 40,
            "failed": 3, "metrics": {"maps_per_s": rate, "report_p50_ms": p50}}


def test_summarize_counts_wins_by_direction():
    runs = {"parent": [run(10.0, 2.0), run(10.0, 2.0), run(10.0, 2.0)],
            "change": [run(11.0, 1.5), run(10.0, 2.5), run(9.0, 2.0)]}
    better = {"maps_per_s": "higher", "report_p50_ms": "lower"}
    s = bench_pair.summarize(runs, better)
    # one pair better, one tied, one worse on each metric
    assert s["wins"] == {"maps_per_s": 1, "report_p50_ms": 1}
    assert s["median"]["change"] == {"maps_per_s": 10.0, "report_p50_ms": 2.0}
    flipped = {"parent": runs["change"], "change": runs["parent"]}
    assert bench_pair.summarize(flipped, better)["wins"] == {
        "maps_per_s": 1, "report_p50_ms": 1}


def test_quartiles_of_one_run():
    assert bench_pair.quartiles([3.5]) == [3.5, 3.5]
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]


def test_parse_pairs():
    assert bench_pair.parse_pairs(["oracle_deep=3", "census_deep=10"]) == {
        "oracle_deep": 3, "census_deep": 10}
    for bad in ("oracle_deep=0", "oracle_deep=a"):
        with pytest.raises(SystemExit):
            bench_pair.parse_pairs([bad])


def test_same_output():
    assert bench_pair.same_output(run(1.0, 1.0), run(2.0, 2.0))
    assert not bench_pair.same_output(run(1.0, 1.0, None), run(1.0, 1.0, None))
    assert not bench_pair.same_output(run(1.0, 1.0), run(1.0, 1.0, None))
    changed = run(1.0, 1.0)
    changed["failed"] = 4
    assert not bench_pair.same_output(run(1.0, 1.0), changed)


def test_first_difference_names_workload_and_seed():
    def pairs(*changes):
        parent = [run(1.0, 1.0, seed=s) for s in (41, 42)]
        return {"seeds": [41, 42], "runs": {"parent": parent,
                                           "change": list(changes)}}
    same = pairs(run(2.0, 2.0, seed=41), run(2.0, 2.0, seed=42))
    assert bench_pair.first_difference({"census_deep": same}) is None
    counted = run(1.0, 1.0, "b" * 64, seed=42)
    counted["failed"] = 4
    differs = {"census_deep": same,
               "oracle_deep": pairs(run(1.0, 1.0, seed=41), counted)}
    assert bench_pair.first_difference(differs) == (
        "oracle_deep seed 42: report_sha256, failed differ")
    blank = pairs(run(1.0, 1.0, None, seed=41), run(1.0, 1.0, seed=42))
    blank["runs"]["parent"][0]["report_sha256"] = None
    assert bench_pair.first_difference({"corpus_default": blank}) == (
        "corpus_default seed 41: no report_sha256")


@pytest.mark.parametrize("digest, code", [("a" * 64, 0), ("b" * 64, 1)])
def test_main_writes_only_equal_outputs(tmp_path, monkeypatch, capsys,
                                        digest, code):
    # hand-built runs in place of perfbench: the change's report digest
    # is the parent's or not
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "")
    monkeypatch.setattr(bench_pair, "extract", lambda rev, dest: "c" * 40)
    monkeypatch.setattr(bench_pair, "src_digest", lambda tree: str(tree))
    metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}

    def run_once(tree, workload, seed, seconds):
        side_digest = digest if tree == tmp_path else "a" * 64
        return {"seed": seed, "report_sha256": side_digest, "correct": True,
                "attempted": 40, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    argv = ["--pr", "0", "--parent", "HEAD", "--pairs", "census_deep=2"]
    assert bench_pair.main(argv) == code
    written = tmp_path / "BENCH_0.json"
    assert written.exists() is (code == 0)
    if code:
        assert ("not writing BENCH_0.json: the outputs of census_deep seed "
                "41: report_sha256 differ") in capsys.readouterr().err

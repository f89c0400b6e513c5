"""Every committed benchmark record (`BENCH_*.json` at the repository
root, written by `tools/bench_pair.py`) names the metric and workload it
claims, holds that metric's median on both sides, and records that the
parent and the change gave the same reports on every pair of runs.  It
also names the committed change it measured, apart from its parent, and
was timed at the run length `BENCHMARK.json` sets."""

import json
import re
import statistics
from pathlib import Path

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
        workload, metric = claim["workload"], claim["metric"]
        assert claim["better"] in ("higher", "lower"), path.name
        assert workload in rec["workloads"], path.name
        for name, w in rec["workloads"].items():
            where = f"{path.name} {name}"
            assert w["seeds"], where
            for side in SIDES:
                runs = w["runs"][side]
                assert [r["seed"] for r in runs] == w["seeds"], where
                values = [r["metrics"][metric] for r in runs]
                assert w["median"][side][metric] == statistics.median(values), where
            for p, c in zip(w["runs"]["parent"], w["runs"]["change"]):
                assert re.fullmatch(r"[0-9a-f]{64}", p["report_sha256"]), where
                for key in ("report_sha256", "attempted", "failed"):
                    assert p[key] == c[key], (where, p["seed"], key)
            assert w["outputs_equal"] is True, where

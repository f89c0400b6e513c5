"""Checks that need a process of their own: the command-line module under
a timeout, one report's peak RSS and the benchmark harness's scripts,
and the wall time of the branch period's read at the iterate cap, each
run as a subprocess of this interpreter from the repository root.
CI runs this suite and the installed package, and nothing else."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bouquet_dyn.cli import fixture_names

from conftest import ENTROPY_KEYS, cap_edge_spec

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "bouquet_dyn" / "fixtures"

#: runs argv[2:] with its stdout written to the file argv[1], then prints
#: the peak RSS of that one child in MB (ru_maxrss is in KiB on Linux)
PEAK_RSS = ("import resource, subprocess, sys; subprocess.run(sys.argv[2:], "
            "stdout=open(sys.argv[1], 'wb'), check=True); print(resource."
            "getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)")

#: prints lift_branch_period at depth ITERATE_CAP on x -> -2x, and the
#: seconds that one call took
READ_AT_DEPTH = ("import time; from bouquet_dyn.errors import ITERATE_CAP; "
                 "from bouquet_dyn.pl_oracle import build_lift, "
                 "lift_branch_period; from bouquet_dyn.words import action; "
                 "lift = build_lift(action(\"a1' a1'\")); "
                 "t = time.perf_counter(); "
                 "print(lift_branch_period(lift, ITERATE_CAP), "
                 "time.perf_counter() - t)")


def run(*args, timeout, code=0) -> str:
    """The stdout of `python *args` with `src/` on the path, asserted to
    exit with `code` within `timeout` seconds."""
    path = os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == code, (args[:4], proc.stderr[-2000:])
    return proc.stdout


def analyze(tmp_path, spec, *flags, timeout, code=0) -> dict:
    """The JSON report of the spec text `spec` from `analyze`."""
    path = tmp_path / "map.bqd"
    path.write_text(spec)
    return json.loads(run("-m", "bouquet_dyn.cli", "analyze", str(path),
                          *flags, "--format", "json",
                          timeout=timeout, code=code))


def test_fixtures_run_through_the_module():
    out = run("-m", "bouquet_dyn.cli", "fixtures", timeout=60)
    assert out.count(": ok") == len(fixture_names()), out


@pytest.mark.parametrize("spec, observed", [
    ((FIXTURES / "expand_double_g1.bqd").read_text(), None),
    # a class-4 branching point: f^m fixes it at every m = 0 mod 4, but
    # not as a based vertex, so the lift matches the free count
    ("n=4\nbranch: period 4\n"
     "a1 -> a2 a1\na2 -> a4 a1\na3 -> a1\na4 -> a1\n", 4),
    (cap_edge_spec(), None),
], ids=["expand_double_g1", "branch4", "cap_edge"])
def test_deep_oracle_depth_stays_fast(tmp_path, spec, observed):
    # the branch period is exact: the orbit of 0 is followed until it
    # meets an integer or cycles, whatever the depth
    path = tmp_path / "map.bqd"
    path.write_text(spec)
    out = run("-m", "bouquet_dyn.cli", "analyze", str(path), "--oracle-depth",
              "2000", "--format", "json", timeout=60)
    # the block holds one verdict, no per-iterate list: schema 10 printed
    # the lift's 2000 counts, 3.63 MB of the cap-edge report's 3.71 MB
    assert len(out.encode()) < 100_000
    oracle = json.loads(out)["oracle"]
    assert oracle["depth"] == 2000
    assert (oracle["first_difference"], oracle["passed"]) == (None, True)
    assert oracle["status"] == "ok"
    assert oracle["branch_period_observed"] == observed


def test_branch_period_read_at_any_depth():
    # the period is read off the oracle's point map, not walked step by
    # step (at depth 10**7 the walk of x -> -2x took 3.6 s), at every
    # depth up to the cap; a depth past it is refused before any work
    period, seconds = run("-c", READ_AT_DEPTH, timeout=30).split()
    assert period == "None" and float(seconds) < 1


def test_block62_exits_2(tmp_path):
    # a 62-generator block beside a63 -> a63, a64 -> a64: a remainder
    # sequence 62 steps long, on which the float solver overflows to nan
    r = random.Random(1)
    spec = "n=64\nbranch: free\n" + "".join(
        f"a{j} -> " + " ".join(f"a{r.randint(1, 62)}" for _ in range(64))
        + "\n" for j in range(1, 63)) + "a63 -> a63\na64 -> a64\n"
    spectrum = analyze(tmp_path, spec, "--no-oracle", timeout=10,
                       code=2)["spectrum"]
    moduli = [z["modulus"] for z in spectrum["eigenvalues"]]
    assert len(moduli) == 64 and moduli.count("1") >= 2, moduli
    assert "failure" in spectrum


def test_doubling_report_at_horizon_10000(tmp_path):
    # the report is 61 MB at a 171-174 MB peak on Python 3.10-3.13,
    # written piece by piece; the bound leaves about 20% on top.  The
    # period set is all of 1..10 000, no certificate repeats it, and one
    # row states the Lefschetz check for every m
    spec, out = tmp_path / "doubling.bqd", tmp_path / "doubling.json"
    spec.write_text("n=1\nbranch: free\na1 -> a1 a1\n")
    peak = float(run("-c", PEAK_RSS, str(out), sys.executable, "-m",
                     "bouquet_dyn.cli", "analyze", str(spec), "--horizon",
                     "10000", "--format", "json", timeout=60))
    assert peak < 210, peak
    report = json.loads(out.read_bytes())
    assert report["lefschetz_fix_checks"] == [
        {"m": None, "mode": "equality-preserving", "passed": True}]
    assert set(report["lefschetz"]) == {"L", "l"}
    assert set(report["entropy"]) == ENTROPY_KEYS
    assert report["census"]["period_set"] == list(range(1, 10001))
    assert all(c["rule"] != "fmbig" for c in report["certificates"])


def test_benchmark_selfcheck():
    assert "all checks passed" in run("perfbench/selfcheck.py", timeout=120)


@pytest.mark.parametrize("workload", [
    "corpus_default", "census_deep", "oracle_deep"])
def test_benchmark_smoke_run(workload):
    # the last line carries the harness's JSON round-trip and fixture gates
    out = run("perfbench/run.py", "--workload", workload, "--seed", "1",
              "--seconds", "1", "--trace", "0", timeout=60)
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


def test_workflow_is_one_gate():
    # no step asserts anything itself, and the suite runs under -W error
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.search(r"python[\d.]*\s+-c\b|\bassert\b", workflow)
    suite = [line for line in workflow.splitlines() if "-m pytest" in line]
    assert len(suite) == 1 and "-W error" in suite[0], suite

"""Paired benchmark record: a parent revision against the checkout.

Extracts the parent revision with `git archive` into a temporary
directory, then runs `perfbench/run.py --trace 0` on the parent and on
this checkout, alternately and on the same seed for each pair (the order
flips from pair to pair, so a drift of the machine's speed hits both
sides alike).  It writes `BENCH_<pr>.json` at the root of the checkout
with, per workload: the seeds, each run's end-to-end metrics, report
digest, `attempted` and `failed`, the medians and quartiles of every
metric on each side, the number of pairs each metric won (better on the
change, by the direction `BENCHMARK.json` gives it), and whether the two
sides gave the same digest, `attempted` and `failed` in every pair.  A
record must show that they did: when a pair differs, the tool prints
the medians, names the first workload and seed that differ, writes
nothing and exits 1, so a declared change of the report commits no
record.

    python3 tools/bench_pair.py --pr 8 --parent 4cea4e5 \\
        --claim census_deep.maps_per_s \\
        --pairs census_deep=10 --pairs corpus_default=2 --pairs oracle_deep=2

Each run lasts the `run_seconds` that `BENCHMARK.json` sets.  Standard
library only.  The checkout's working tree is measured as it stands;
the record names its HEAD, whether the tree was dirty, and a digest of
the source files each side ran, so commit the change before recording
it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_RE = re.compile(r"^report_sha256 of all \d+: ([0-9a-f]{64})$", re.M)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into dest; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    # the "data" filter refuses links and paths out of dest where the
    # running Python has it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return commit


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the source files under tree/src:
    it names the code a side ran, committed or not."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(tree).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `tree`: its metrics and gate."""
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=1800,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {out.returncode}\n"
            + out.stderr
        )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    digest = DIGEST_RE.search(out.stdout)
    return {
        "seed": seed,
        "report_sha256": digest.group(1) if digest else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict, better: dict) -> dict:
    """Medians, quartiles and wins per metric of one workload's runs."""
    names = sorted(runs["parent"][0]["metrics"])
    out = {"median": {}, "quartiles": {}, "wins": {}}
    for side in ("parent", "change"):
        values = {k: [r["metrics"][k] for r in runs[side]] for k in names}
        out["median"][side] = {k: statistics.median(v) for k, v in values.items()}
        out["quartiles"][side] = {k: quartiles(v) for k, v in values.items()}
    for k in names:
        sign = 1 if better.get(k, "lower") == "higher" else -1
        out["wins"][k] = sum(
            sign * (c["metrics"][k] - p["metrics"][k]) > 0
            for p, c in zip(runs["parent"], runs["change"])
        )
    return out


OUTPUT_KEYS = ("report_sha256", "attempted", "failed")


def same_output(parent: dict, change: dict) -> bool:
    return parent["report_sha256"] is not None and all(
        parent[k] == change[k] for k in OUTPUT_KEYS
    )


def first_difference(workloads: dict) -> str | None:
    """The first workload and seed whose pair of runs gave different
    output, and how, or None when every pair agrees."""
    for name, w in workloads.items():
        for p, c in zip(w["runs"]["parent"], w["runs"]["change"]):
            if not same_output(p, c):
                keys = [k for k in OUTPUT_KEYS if p[k] != c[k]]
                return (f"{name} seed {p['seed']}: "
                        + (f"{', '.join(keys)} differ" if keys
                           else "no report_sha256"))
    return None


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"--pairs wants WORKLOAD=COUNT, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="suffix of BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD.METRIC the change claims to improve; "
                    "omitted, the record's claim is null")
    ap.add_argument("--pairs", action="append", required=True,
                    help="WORKLOAD=COUNT, repeatable")
    ap.add_argument("--first-seed", type=int, default=41)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    pairs = parse_pairs(args.pairs)
    claim = None
    # the metric printed as the runs go
    shown = "report_p50_ms"
    if args.claim is not None:
        claim_workload, _, shown = args.claim.partition(".")
        if claim_workload not in pairs or shown not in better:
            raise SystemExit(f"--claim {args.claim!r} names no measured workload metric")
        claim = {"workload": claim_workload, "metric": shown,
                 "better": better[shown]}

    record = {
        "pr": args.pr,
        "parent": None,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": bench["command"],
        "seconds": bench["run_seconds"],
        "claim": claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        record["parent"] = extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        record["src_sha256"] = {side: src_digest(t) for side, t in trees.items()}
        for workload, count in pairs.items():
            seeds = list(range(args.first_seed, args.first_seed + count))
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed,
                                   bench["run_seconds"])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: {shown} "
                          f"{run['metrics'][shown]:.6g}, attempted "
                          f"{run['attempted']}, failed {run['failed']}",
                          flush=True)
            equal = [same_output(p, c) for p, c in zip(runs["parent"], runs["change"])]
            record["workloads"][workload] = {
                "seeds": seeds,
                "runs": runs,
                **summarize(runs, better),
                "outputs_equal": all(equal),
            }
    for workload, w in record["workloads"].items():
        for metric in better:
            print(f"{workload}.{metric} median "
                  f"{w['median']['parent'][metric]:.6g} -> "
                  f"{w['median']['change'][metric]:.6g}, "
                  f"{w['wins'][metric]} of {len(w['seeds'])} pairs won")
    path = ROOT / f"BENCH_{args.pr}.json"
    difference = first_difference(record["workloads"])
    if difference is not None:
        print(f"not writing {path.name}: the outputs of {difference}",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

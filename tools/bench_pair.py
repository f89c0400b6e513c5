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
claimed metric gets the claim rule's verdict, printed and recorded: the
change must win at least 9 in 10 pairs, and its median must be better
than the parent's by more than the parent's quartile spread.  A
record must show that they did: when a pair differs, the tool prints
the medians, names the first workload and seed that differ, writes
nothing and exits 1.  `--declared-change TEXT` records a change of the
report that is meant: the record holds the text, and a pair whose
report digests differ is written with `outputs_equal` false; a pair
whose `attempted` or `failed` differ is refused all the same.

`--interleaved PASSES` adds an in-process A/B, whose spread is far
smaller than that of process runs.  It imports the parent's
`src/bouquet_dyn` under the name `bench_parent` and the checkout's under
`bench_change` (their imports are relative, so each loads under any
name), takes the first `INTERLEAVED_MAPS` maps of each workload at the
first seed from the checkout's `perfbench/workloads.py`, which it reads
and does not change, and analyzes each map on both sides as
`perfbench/run.py` does (parse, report, render), alternating which side
goes first from map to map and from pass to pass.  Each pass gives one
ratio per workload, the change's total time over the parent's; the
record holds every ratio, their median and quartiles, and how many
maps' reports differ.  The rule: a claim resolves in the interleaved
record when the whole interquartile range of its workload's ratios lies
past 1 in the claimed direction, below 1 for a faster change; the
record's claim holds that verdict beside the paired one.  The pass times
reports only, so a claim on any other metric (`setup_s`, say) gets no
interleaved verdict: it records null.

    python3 tools/bench_pair.py --pr 8 --parent 4cea4e5 \\
        --claim census_deep.maps_per_s --interleaved 11 \\
        --pairs census_deep=10 --pairs corpus_default=2 --pairs oracle_deep=2

Each run lasts the `run_seconds` that `BENCHMARK.json` sets.  Standard
library only.  The checkout's working tree is measured as it stands;
the record names its HEAD, whether the tree was dirty, a digest of the
source files each side ran and the version of the Python that ran them,
so commit the change before recording it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import itertools
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_RE = re.compile(r"^report_sha256 of all \d+: ([0-9a-f]{64})$", re.M)
#: maps per workload in each pass of the interleaved A/B
INTERLEAVED_MAPS = 200
#: the metrics that the interleaved A/B's report times stand for
INTERLEAVED_METRICS = ("maps_per_s", "report_p50_ms", "report_tail_ms")


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


def claim_verdict(w: dict, metric: str, better: str) -> dict:
    """The claim rule on one workload's summary: whether the change won
    at least 9 in 10 pairs on `metric`, and its median beats the
    parent's by more than the parent's quartile spread."""
    pairs, wins = len(w["seeds"]), w["wins"][metric]
    parent, change = (w["median"][side][metric] for side in ("parent", "change"))
    q1, q3 = w["quartiles"]["parent"][metric]
    gain = change - parent if better == "higher" else parent - change
    return {"wins": wins, "pairs": pairs, "median_gain": gain,
            "parent_spread": q3 - q1,
            "resolved": 10 * wins >= 9 * pairs and gain > q3 - q1}


OUTPUT_KEYS = ("report_sha256", "attempted", "failed")


def same_output(parent: dict, change: dict, keys=OUTPUT_KEYS) -> bool:
    return parent["report_sha256"] is not None and all(
        parent[k] == change[k] for k in keys
    )


def first_difference(workloads: dict, keys=OUTPUT_KEYS) -> str | None:
    """The first workload and seed whose pair of runs differ on `keys`,
    and how, or None when every pair agrees."""
    for name, w in workloads.items():
        for p, c in zip(w["runs"]["parent"], w["runs"]["change"]):
            if not same_output(p, c, keys):
                differ = [k for k in keys if p[k] != c[k]]
                return (f"{name} seed {p['seed']}: "
                        + (f"{', '.join(differ)} differ" if differ
                           else "no report_sha256"))
    return None


def load_cli(name: str, package: Path):
    """The `cli` module of the package directory `package`, imported
    under the name `name`."""
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def workload_maps(seed: int) -> dict:
    """(workload, its first INTERLEAVED_MAPS map texts at `seed`) per
    workload of the checkout's `perfbench/workloads.py`, executed from
    its source so that no file under `perfbench/` is written."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "perfbench" / "workloads.py"
    sys.modules["bench_workloads"] = module = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return {name: (wl, list(itertools.islice(
                module.generate_maps(wl, seed), INTERLEAVED_MAPS)))
            for name, wl in module.WORKLOADS.items()}


def interleave(clis: dict, wl, texts: list[str], passes: int) -> dict:
    """Each pass's ratio of the change's total time to the parent's over
    `texts`, each map analyzed by both sides of `clis` as perfbench does,
    the side that goes first alternating by map and by pass; their median
    and quartiles, and the maps whose reports differ."""
    options = {side: cli.ReportOptions(wl.horizon, wl.oracle_depth,
                                       wl.no_oracle, wl.entropy_horizon)
               for side, cli in clis.items()}
    ratios, outputs = [], {side: [] for side in clis}
    for p in range(passes):
        total = dict.fromkeys(clis, 0.0)
        for i, text in enumerate(texts):
            order = ("parent", "change") if (i + p) % 2 == 0 else ("change", "parent")
            for side in order:
                cli = clis[side]
                t = time.perf_counter()
                try:
                    out = cli.render_json(cli.run_report(
                        cli.parse_spec(text), options[side]))
                except Exception as e:  # a failed report, as perfbench counts it
                    out = f"raised {type(e).__name__}: {e}"
                total[side] += time.perf_counter() - t
                if not p:
                    outputs[side].append(out)
        ratios.append(total["change"] / total["parent"])
    return {"maps": len(texts), "passes": passes, "ratios": ratios,
            "median": statistics.median(ratios),
            "quartiles": quartiles(ratios),
            "differing_maps": sum(a != b for a, b in zip(*outputs.values()))}


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
    ap.add_argument("--pairs", action="append", default=[],
                    help="WORKLOAD=COUNT, repeatable; needed without "
                    "--interleaved")
    ap.add_argument("--first-seed", type=int, default=41)
    ap.add_argument("--declared-change", default=None, metavar="TEXT",
                    help="the report change the record declares: pairs "
                    "whose report digests differ are written, not refused")
    ap.add_argument("--interleaved", type=int, default=0, metavar="PASSES",
                    help="passes of the in-process A/B over every workload")
    args = ap.parse_args(argv)
    if not args.pairs and not args.interleaved:
        raise SystemExit("give --pairs, --interleaved or both")

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
        "python": platform.python_version(),
        "command": bench["command"],
        "seconds": bench["run_seconds"],
        "claim": claim,
        "declared_change": args.declared_change,
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
        if args.interleaved:
            clis = {side: load_cli(f"bench_{side}", t / "src" / "bouquet_dyn")
                    for side, t in trees.items()}
            record["interleaved"] = {
                name: interleave(clis, wl, texts, args.interleaved)
                for name, (wl, texts) in workload_maps(args.first_seed).items()}
    for workload, w in record["workloads"].items():
        for metric in better:
            print(f"{workload}.{metric} median "
                  f"{w['median']['parent'][metric]:.6g} -> "
                  f"{w['median']['change'][metric]:.6g}, "
                  f"{w['wins'][metric]} of {len(w['seeds'])} pairs won")
    if claim is not None:
        verdict = claim["verdict"] = claim_verdict(
            record["workloads"][claim["workload"]], claim["metric"],
            claim["better"])
        print(f"claim {args.claim}: {verdict['wins']} of {verdict['pairs']} "
              f"pairs won, median better by {verdict['median_gain']:.6g} "
              f"against the parent's quartile spread "
              f"{verdict['parent_spread']:.6g}: "
              + ("resolved" if verdict["resolved"] else "not resolved"))
    for workload, w in record.get("interleaved", {}).items():
        print(f"{workload} interleaved: change/parent time median "
              f"{w['median']:.4f}, quartiles {w['quartiles'][0]:.4f}-"
              f"{w['quartiles'][1]:.4f} over {w['passes']} passes of "
              f"{w['maps']} maps, {w['differing_maps']} reports differ")
    if claim is not None and "interleaved" in record:
        if claim["metric"] in INTERLEAVED_METRICS:
            # the change's time ratio, below 1 over the whole IQR
            q3 = record["interleaved"][claim["workload"]]["quartiles"][1]
            claim["interleaved_resolved"] = q3 < 1
            outcome = "resolved" if q3 < 1 else "not resolved"
        else:
            claim["interleaved_resolved"] = None
            outcome = f"the pass does not measure {claim['metric']}"
        print(f"claim {args.claim}, interleaved: {outcome}")
    path = ROOT / f"BENCH_{args.pr}.json"
    keys = OUTPUT_KEYS[1:] if args.declared_change else OUTPUT_KEYS
    difference = first_difference(record["workloads"], keys)
    if difference is not None:
        print(f"not writing {path.name}: the outputs of {difference}",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

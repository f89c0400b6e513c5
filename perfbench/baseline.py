"""Record the benchmark's baseline: every workload over several seeds.

    python3 perfbench/baseline.py --seeds 21-30 --seconds 25

Runs `run.py --trace 0` once per workload and seed, each in its own
process and one after another, then `run.py --trace 1` once per workload
on the first seed.  Prints the median, quartiles and spread (the distance
between the first and third quartile as a share of the median) of every
end-to-end metric, and writes them with the traced per-layer metrics to
`perfbench/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout.strip().splitlines()
    module_line = next((ln for ln in out if ln.startswith("self time by module")),
                       "")
    return json.loads(out[-1]), module_line.partition(": ")[2]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("21-30"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS))
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {
        "commit": commit or "unknown",
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "run_seconds": args.seconds,
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds} --trace 0|1"),
        "workloads": {},
    }
    for name in args.workload or WORKLOADS:
        results = [run(name, s, args.seconds, 0)[0] for s in args.seeds]
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        entry = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": {
                k: {"unit": unit,
                    **summary([r["metrics"][k]["value"] for r in results])}
                for k, unit in units.items()
            },
        }
        traced, by_module = run(name, args.seeds[0], args.seconds, 1)
        entry["traced"] = {
            "seed": args.seeds[0],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "correct": traced["correct"],
            "self_time_by_module": by_module,
            "per_layer": traced["metrics"],
        }
        doc["workloads"][name] = entry
        print(f"{name}: correct {entry['correct']}, attempted "
              f"{entry['attempted']}, failed {entry['failed']}")
        for k, s in entry["end_to_end"].items():
            print(f"  {k:16} median {s['median']:<12.5g} spread "
                  f"{s['spread']:.3f}  "
                  + " ".join(f"{v:.4g}" for v in s["values"]))
        print(f"  traced seed {args.seeds[0]}: {by_module}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

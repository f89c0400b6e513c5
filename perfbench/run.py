"""bouquet-dyn benchmark: the latency of one `analyze` report.

One operation analyzes one map: `cli.parse_spec` on the map text, then
`cli.run_report`, then `cli.render_json` -- the in-process equivalent of
`bouquet-dyn analyze --format json`.  The load is a closed loop with one
client; each workload runs in its own fresh process and no map repeats
within a run, so the oracle's process-wide cache never serves an
operation from an earlier one.

    python3 perfbench/run.py --workload corpus_default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run analyzes a fixed batch of maps, as many as take `--seconds` at the
workload's nominal latency, so two runs of a seed analyze the same maps.
`--trace 0` prints the end-to-end metrics, with every time rescaled to
the speed of a fixed reference computation (see `reference.py`);
`--trace 1` prints the per-layer metrics of a traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The program is
imported from `src/` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from reference import reference
from workloads import (
    WORKLOADS,
    budget_skips,
    fixture_cases,
    fixture_images,
    gate,
    generate_maps,
    oracle_pieces,
    tail_percentile,
)

#: fresh interpreters timed for setup_s (one more warms the .pyc files)
SETUP_RUNS = 21
#: a run always analyzes at least this many maps
MIN_MAPS = 32
#: milliseconds one reference() call takes when the machine is quick
REFERENCE_MS = 2.1
#: reference() readings averaged for each rescaled time
REFERENCE_WINDOW = 8

END_TO_END_UNITS = {
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "maps_per_s": "1/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import bouquet_dyn.cli from this checkout's src/ tree."""
    if not (SRC / "bouquet_dyn" / "cli.py").is_file():
        raise ProgramMissing(f"no bouquet_dyn package under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("bouquet_dyn.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "bouquet_dyn").resolve():
        raise ProgramMissing(f"bouquet_dyn imported from {cli.__file__}")
    return cli


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """A time taken amid reference() readings `refs`, rescaled to the
    machine speed at which reference() takes REFERENCE_MS."""
    return seconds / statistics.fmean(refs) * REFERENCE_MS / 1000


def import_time() -> tuple[float, float]:
    """Seconds to import bouquet_dyn.cli in a fresh interpreter, and the
    mean of the REFERENCE_WINDOW reference() runs around the import."""
    half = REFERENCE_WINDOW // 2
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[2]); "
        "from reference import reference; sys.path[0] = sys.argv[1]; "
        f"refs = [reference() for _ in range({half})]; "
        "t = time.perf_counter(); import bouquet_dyn.cli; "
        "t = time.perf_counter() - t; "
        f"refs += [reference() for _ in range({half})]; "
        "print(t, sum(refs) / len(refs))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


def measure_setup() -> tuple[float, float]:
    """Median import time of bouquet_dyn.cli over SETUP_RUNS fresh
    interpreters: (at reference speed, as measured)."""
    import_time()  # writes the .pyc files the later imports read
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        seconds, ref = import_time()
        raw.append(seconds)
        scaled.append(at_reference_speed(seconds, [ref]))
    return statistics.median(scaled), statistics.median(raw)


def reset_caches() -> None:
    """Empty every functools cache in the package, so that analyzing a map
    a second time gets no help from the first."""
    for name in list(sys.modules):
        if name.startswith("bouquet_dyn"):
            for value in vars(sys.modules[name]).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def batch_size(wl, seconds: int) -> int:
    """Maps in one run: enough to take about `seconds` at the workload's
    nominal latency.  It depends only on the arguments, so a seed gives the
    same maps on every commit and machine."""
    return max(MIN_MAPS, round(seconds * 1000 / wl.nominal_ms))


def run_maps(wl, cases, seed: int, count: int) -> list[str]:
    """The run's `count` maps: the workload's fixtures, then generated maps."""
    texts = [text for _, text, _ in cases]
    gen = generate_maps(wl, seed, exclude=fixture_images(cases))
    texts += itertools.islice(gen, count - len(texts))
    return texts


class Pass:
    """Timings and gate outcomes of one run's maps, in run order."""

    def __init__(self):
        self.latencies: list[float] = []  # as measured
        self.scaled: list[float] = []  # at reference speed
        self.untraced: list[float] = []  # traced runs: the same maps untraced
        self.outputs: list[str] = []  # each map's first rendering
        self.failed = 0
        self.crashed = 0
        self.fixture_diffs = 0
        self.trace_diffs = 0
        self.reasons: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.gap_max = 0.0
        self.residual_max = 0.0
        self.pieces = 0
        self.budget_skips = 0

    def count(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def gate(self, cli, outcome, frozen: str | None) -> None:
        """Gate a map's first analysis and keep its rendering."""
        report, rendered, exc = outcome
        if exc is not None:
            self.failed += 1
            # InconsistencyError is the program's own cross-check trap, like
            # report_has_failures; any other exception is a crash
            if type(exc).__name__ != "InconsistencyError":
                self.crashed += 1
            self.count(f"raised {type(exc).__name__}")
        else:
            reasons = gate(report, rendered, frozen, cli.report_has_failures)
            if reasons:
                self.failed += 1
            for r in reasons:
                self.count(r)
            if "differs from frozen fixture" in reasons:
                self.fixture_diffs += 1
            self.gap_max = max(self.gap_max,
                               float(report["entropy"]["gap_at_horizon"]))
            self.residual_max = max(self.residual_max,
                                    float(report["spectrum"]["residual"]))
            self.pieces += oracle_pieces(report)
            self.budget_skips += budget_skips(report)
        self.outputs.append(rendering(outcome))
        self.digest.update(self.outputs[-1].encode())


def analyze(cli, options, text: str):
    """One operation: (seconds, (report, rendered JSON, exception))."""
    t0 = time.perf_counter()
    try:
        report = cli.run_report(cli.parse_spec(text), options)
        rendered = cli.render_json(report)
    except Exception as e:  # a failed operation, not a stop
        return time.perf_counter() - t0, (None, None, e)
    return time.perf_counter() - t0, (report, rendered, None)


def rendering(outcome) -> str:
    """The rendered JSON of an analysis, or the exception it raised."""
    report, rendered, exc = outcome
    return rendered if exc is None else f"raised {type(exc).__name__}: {exc}"


def report_options(cli, wl):
    return cli.ReportOptions(
        horizon=wl.horizon,
        oracle_depth=wl.oracle_depth,
        no_oracle=wl.no_oracle,
        entropy_horizon=wl.entropy_horizon,
    )


def timed_pass(cli, wl, texts, frozen) -> Pass:
    """Analyze and gate each map, each after a reference() run.  A map's
    latency is rescaled by the REFERENCE_WINDOW readings around it."""
    options = report_options(cli, wl)
    p = Pass()
    refs = []
    for text in texts:
        refs.append(reference())
        dt, outcome = analyze(cli, options, text)
        p.latencies.append(dt)
        p.gate(cli, outcome, frozen.get(text))
    half = REFERENCE_WINDOW // 2
    p.scaled = [
        at_reference_speed(dt, refs[max(0, i + 1 - half): i + 1 + half])
        for i, dt in enumerate(p.latencies)
    ]
    return p


def traced_pass(cli, wl, texts, frozen, tracer) -> Pass:
    """Analyze each map untraced, then, after emptying the caches, again
    under the tracer; gate the traced report, whose rendering must be
    identical to the untraced one."""
    options = report_options(cli, wl)
    p = Pass()
    for i, text in enumerate(texts):
        untraced, first = analyze(cli, options, text)
        p.untraced.append(untraced)
        reset_caches()
        tracer.op = i
        tracer.install()
        try:
            dt, outcome = analyze(cli, options, text)
        finally:
            tracer.uninstall()
        p.latencies.append(dt)
        if rendering(first) != rendering(outcome):
            p.trace_diffs += 1
        p.gate(cli, outcome, frozen.get(text))
    return p


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(p: Pass, setup_s: float) -> tuple[dict, str]:
    """The end-to-end metrics; every time is at reference speed."""
    lat_ms = [x * 1000 for x in p.scaled]
    q, tail = tail_percentile(lat_ms)
    values = {
        "report_p50_ms": statistics.median(lat_ms),
        "report_tail_ms": tail,
        "maps_per_s": len(lat_ms) / sum(p.scaled),
        "failed_frac": p.failed / len(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = (f"report_tail_ms is p{q:.4g} of {len(lat_ms)} samples, "
            f"{min(10, len(lat_ms) - 1)} beyond it")
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def per_layer(tr, p: Pass, overhead: float) -> dict:
    ops = len(p.latencies)

    def ms(name):
        return _metric(tr.total_ms(name) / ops, "ms")

    def self_ms(name):
        return _metric(tr.self_ms(name) / ops, "ms")

    def calls(name):
        return _metric(tr.calls(name) / ops, "count")

    fix_calls = tr.calls("periods.fix_count")
    criteria = ("criteria_doubling", "criteria_lowgrow",
                "criteria_delaylowgrow", "fmbig_test")
    return {
        "cli.parse_spec.ms": ms("cli.parse_spec"),
        "cli.render_json.ms": ms("cli.render_json"),
        "cli.run_report.self_ms": self_ms("cli.run_report"),
        "homology.LefschetzTable.of.ms": ms("homology.LefschetzTable.of"),
        "homology.mat_pow.calls": calls("homology.mat_pow"),
        "homology.mat_pow.ms": ms("homology.mat_pow"),
        "homology.lefschetz.calls": calls("homology.lefschetz"),
        "words.chi_of_iterate.calls": calls("words.chi_of_iterate"),
        "words.chi_of_iterate.ms": ms("words.chi_of_iterate"),
        "words.gamma_of_iterate.calls": calls("words.gamma_of_iterate"),
        "words.gamma_of_iterate.ms": ms("words.gamma_of_iterate"),
        "periods.per_census.calls": calls("periods.per_census"),
        "periods.per_census.ms": ms("periods.per_census"),
        "periods.fix_count.calls": calls("periods.fix_count"),
        "periods.fix_count.useful_ratio": _metric(
            len(tr.fix_keys) / fix_calls if fix_calls else 1.0, "ratio"),
        "periods.lefschetz_fix_check.ms": ms("periods.lefschetz_fix_check"),
        "periods.dominant_periods.self_ms": self_ms("periods.dominant_periods"),
        "periods.criteria.ms": _metric(
            sum(tr.total_ms(f"periods.{c}") for c in criteria) / ops, "ms"),
        "spectral.eigenvalues.ms": ms("spectral.eigenvalues"),
        "spectral.eigenvalues.residual_max": _metric(p.residual_max, "1"),
        "spectral.entropy_limit.ms": ms("spectral.entropy_limit"),
        "spectral.m0_bound.ms": ms("spectral.m0_bound"),
        "spectral.entropy_gap_max": _metric(p.gap_max, "nats"),
        "pl_oracle.build_lift.ms": ms("pl_oracle.build_lift"),
        "pl_oracle.count_fixed.ms": ms("pl_oracle.count_fixed"),
        "pl_oracle.cover_growth.ms": ms("pl_oracle.cover_growth"),
        "pl_oracle.pieces": _metric(p.pieces / ops, "count"),
        "pl_oracle.budget_skips": _metric(p.budget_skips / ops, "count"),
        "trace.overhead_frac": _metric(overhead, "ratio"),
    }


def print_metrics(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def print_trace_breakdown(tr, ops: int, op_ms: float) -> None:
    print(f"self time per report, of {op_ms:.4g} ms traced "
          "(function: self ms, calls, callers):")
    by_module: dict[str, float] = {}
    ranked = sorted(tr.stats.items(), key=lambda kv: -kv[1].self_ns)
    callers: dict[str, list[str]] = {}
    for (parent, child), n in sorted(tr.edges.items()):
        callers.setdefault(child, []).append(f"{parent} x{n / ops:.3g}")
    for name, s in ranked:
        if not s.calls:
            continue
        self_ms = s.self_ns / 1e6 / ops
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_ms
        print(f"  {name:<32} {self_ms:10.4f} ms {s.calls / ops:10.3g} calls"
              f"  <- {', '.join(callers.get(name, []))}")
    traced = sum(by_module.values())
    print("self time by module: " + ", ".join(
        f"{m} {100 * v / traced:.1f}%" for m, v in
        sorted(by_module.items(), key=lambda kv: -kv[1])))


def run_workload(cli, wl, seed: int, seconds: int, trace: bool) -> dict:
    cases = fixture_cases(SRC) if wl.with_fixtures else []
    frozen = {text: js for _, text, js in cases}
    # a traced run analyzes each map twice, so it takes the first half
    count = batch_size(wl, seconds)
    texts = run_maps(wl, cases, seed, count // 2 if trace else count)
    print(f"workload {wl.name} seed {seed} trace {int(trace)}: {len(texts)} "
          f"maps (n {wl.n_lo}-{wl.n_hi}, words <= {wl.len_max} letters, "
          f"horizon {wl.horizon}, oracle "
          f"{'off' if wl.no_oracle else f'depth {wl.oracle_depth}'})")
    if not trace:
        setup_s, setup_raw = measure_setup()
        p = timed_pass(cli, wl, texts, frozen)
        metrics, note = end_to_end(p, setup_s)
        note += (f"; as measured, report p50 "
                 f"{1000 * statistics.median(p.latencies):.4g} ms, mean "
                 f"{1000 * statistics.mean(p.latencies):.4g} ms, setup "
                 f"{setup_raw:.4g} s")
    else:
        from tracer import Tracer

        tr = Tracer()
        p = traced_pass(cli, wl, texts, frozen, tr)
        overhead = statistics.median(
            t / u for t, u in zip(p.latencies, p.untraced)) - 1
        metrics = per_layer(tr, p, overhead)
        note = (f"traced reports took {sum(p.latencies):.3f} s, the same "
                f"reports untraced {sum(p.untraced):.3f} s; "
                f"{p.trace_diffs} traced reports differ from untraced ones")
        print_trace_breakdown(tr, len(p.latencies),
                              1000 * sum(p.latencies) / len(p.latencies))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{seed}.csv"
        tr.write_spans(spans)
        print(f"{len(tr.spans)} spans written to {spans.relative_to(ROOT)}")
    correct = (p.crashed == 0 and p.fixture_diffs == 0
               and p.trace_diffs == 0)
    ops = len(p.latencies)
    print(f"{ops} reports, {p.failed} failed gate ({100 * p.failed / ops:.1f}%)"
          + "".join(f"; {n} {r}" for r, n in sorted(p.reasons.items())))
    print(f"report_sha256 of all {ops}: {p.digest.hexdigest()}")
    print(note)
    print_metrics(metrics)
    return {"correct": correct, "attempted": ops, "failed": p.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: int) -> dict:
    """Each workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                raise RuntimeError(f"{name} trace {trace} exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            if not trace:
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                merged["metrics"][f"{name}.{k}"] = v
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(cli, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

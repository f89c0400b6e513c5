"""Self-check of the benchmark harness (not of the program).

    python3 perfbench/selfcheck.py

Shows that the map generator is deterministic for a seed and stays in its
stated domain, that the correctness gate passes an untouched fixture report
and flags each kind of deliberately altered report, that the tail
percentile has ten samples beyond it, that a run's batch of maps is fixed
by its arguments, and how a latency is rescaled to reference speed.  Exit
code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys

import run
from workloads import (
    WORKLOADS,
    fixture_cases,
    gate,
    generate_maps,
    tail_percentile,
)


def first(wl, seed: int, k: int) -> list[str]:
    return list(itertools.islice(generate_maps(wl, seed), k))


def main() -> int:
    cli = run.load_program()
    from bouquet_dyn.pl_oracle import build_lift, lift_branch_period
    from bouquet_dyn.words import BRANCH_FREE

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for wl in WORKLOADS.values():
        a, b, c = first(wl, 7, 40), first(wl, 7, 40), first(wl, 8, 40)
        check(a == b, f"{wl.name}: same seed gives the same maps")
        check(a != c, f"{wl.name}: another seed gives other maps")
        check(len(set(a)) == len(a), f"{wl.name}: no map repeats")
        in_domain = True
        for text in a:
            f = cli.parse_spec(text).action
            words = [f.image(j) for j in range(1, f.n + 1)]
            in_domain &= wl.n_lo <= f.n <= wl.n_hi
            in_domain &= all(1 <= len(w) <= wl.len_max for w in words)
            in_domain &= len(words[0]) >= 2
            in_domain &= all(any(l.index == 1 for l in w) for w in words)
            observed = lift_branch_period(build_lift(f), wl.branch_depth)
            declared = None if f.branch_class == BRANCH_FREE else f.branch_class
            in_domain &= observed == declared
        check(in_domain, f"{wl.name}: maps are lift-viable and declare the "
              "branch period their lift shows")

    name, text, frozen = fixture_cases(run.SRC)[0]
    report = cli.run_report(cli.parse_spec(text), cli.ReportOptions())
    rendered = cli.render_json(report)
    has_failures = cli.report_has_failures
    check(gate(report, rendered, frozen, has_failures) == [],
          f"gate passes the untouched {name} report")

    def flagged(altered: dict, reason: str, text: str | None = None) -> bool:
        out = text if text is not None else cli.render_json(altered)
        return reason in gate(altered, out, frozen, has_failures)

    altered = copy.deepcopy(report)
    altered["census"]["fix"][0] = str(int(altered["census"]["fix"][0]) + 1)
    check(flagged(altered, "differs from frozen fixture"),
          "gate flags a fixture report with one fix count changed")
    altered = copy.deepcopy(report)
    altered["lefschetz_fix_checks"][0]["passed"] = False
    check(flagged(altered, "report_has_failures"),
          "gate flags a report with a failed Lefschetz/fix check")
    altered = copy.deepcopy(report)
    altered["oracle"]["status"] = "mismatch"
    check(flagged(altered, "report_has_failures"),
          "gate flags a report with an oracle mismatch")
    altered = copy.deepcopy(report)
    sigma = float(altered["spectrum"]["spectral_radius"])
    altered["entropy"]["gap_at_horizon"] = repr(0.1 * (1 + sigma) + 1e-9)
    check(flagged(altered, "entropy gap above 0.1*(1+sigma)"),
          "gate flags an entropy gap just above 0.1*(1+sigma)")
    check(flagged(report, "rendered JSON does not round-trip",
                  text=json.dumps({**report, "schema": 2})),
          "gate flags rendered JSON that is not the report")

    check(tail_percentile([float(x) for x in range(1, 101)]) == (90.0, 90.0),
          "tail of 100 samples is p90: 10 samples beyond it")
    check(tail_percentile([float(x) for x in range(1, 1001)]) == (99.0, 990.0),
          "tail of 1000 samples is p99: 10 samples beyond it")

    wl = WORKLOADS["corpus_default"]
    cases = fixture_cases(run.SRC)
    count = run.batch_size(wl, 2)
    batch = run.run_maps(wl, cases, 7, count)
    check(len(batch) == count and batch == run.run_maps(wl, cases, 7, count)
          and batch[:len(cases)] == [text for _, text, _ in cases],
          "a run's batch is the fixtures, then the seed's maps, "
          "the same on every call")
    quick = run.REFERENCE_MS / 1000
    check(abs(run.at_reference_speed(0.1, [quick, 3 * quick]) - 0.05) < 1e-12,
          "a latency is rescaled by the mean of its reference readings")

    print(f"{len(failures)} of the checks failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

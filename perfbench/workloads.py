"""Seeded map generator, workload table and correctness gate.

Every workload draws its maps from one generator; the workloads differ
only in their size parameters.  The generator's domain is the lift-viable
shape used by the test suite: every image word visits circle 1, and the
image of circle 1 has at least two letters, so the canonical
piecewise-linear lift always exists.  The declared branch class is the
period that the map's own canonical lift shows; nothing is filtered on the
result of the analysis.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n_lo: int
    n_hi: int
    len_max: int
    horizon: int
    oracle_depth: int
    no_oracle: bool
    #: mean latency of one report, as measured, on a slow spell of the
    #: machine the benchmark was tuned on; it sizes a run's batch of maps
    #: and nothing else
    nominal_ms: float = 50.0
    entropy_horizon: int = 30
    with_fixtures: bool = False

    @property
    def branch_depth(self) -> int:
        """Depth to which the generator follows the lift's branch orbit."""
        return max(13, self.horizon, self.oracle_depth + 1)


# Why each workload exists (also recorded in BENCHMARK.json):
# corpus_default is the everyday `analyze` run with CLI defaults, where the
#   fixed per-map costs (the m0 scan, parsing, rendering) dominate;
# census_deep is the horizon axis: the O(n^3 H^2) census recomputation in
#   `words`, `homology` and `periods` dominates and the oracle is off;
# oracle_deep is the oracle-depth axis: composing and counting the PL lift
#   dominates, and its composite cache dominates memory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus_default", 1, 4, 3, 12, 6, False, nominal_ms=48,
                 with_fixtures=True),
        Workload("census_deep", 2, 6, 3, 40, 6, True, nominal_ms=144),
        Workload("oracle_deep", 1, 3, 3, 12, 8, False, nominal_ms=108),
    )
}


def _map_text(n: int, images: list[str], period: int | None) -> str:
    branch = "free" if period is None else f"period {period}"
    lines = [f"n={n}", f"branch: {branch}"]
    lines += [f"a{j} -> {w}" for j, w in enumerate(images, start=1)]
    return "\n".join(lines) + "\n"


def _shapes(n: int, len_max: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (image lengths, sign) a map with n circles can have."""
    lengths = itertools.product(range(2, len_max + 1),
                                *[range(1, len_max + 1)] * (n - 1))
    return [(ls, sign) for ls in lengths for sign in (1, -1)]


def _draw_images(rng: random.Random, n: int, lengths, sign: int) -> list[str]:
    mark = "" if sign > 0 else "'"
    images = []
    for r in lengths:
        idxs = [1] + [rng.randint(1, n) for _ in range(r - 1)]
        rng.shuffle(idxs)
        images.append(" ".join(f"a{i}{mark}" for i in idxs))
    return images


def generate_maps(wl: Workload, seed: int, exclude=()):
    """Yield distinct map texts for one workload, from one seed.

    The circle count cycles through n_lo..n_hi, and for each n the image
    lengths and the sign run through all their combinations in a seeded
    order before any repeats.  The lengths set the spectral radius of a
    map, and so most of its cost, within a factor of the sign; sampling
    them this way keeps the mix of costs the same from seed to seed while
    each map is still a uniform draw from the domain.  The seed picks the
    letters.  A draw that repeats an earlier map (or one of `exclude`) is
    redrawn; a size with no unused maps left drops out of the cycle.
    """
    from bouquet_dyn.pl_oracle import build_lift, lift_branch_period
    from bouquet_dyn.words import MapAction

    rng = random.Random(seed)
    seen = set(exclude)
    sizes = list(range(wl.n_lo, wl.n_hi + 1))
    queue = {n: [] for n in sizes}
    stale = dict.fromkeys(sizes, 0)
    slot = 0
    while sizes:
        n = sizes[slot % len(sizes)]
        if not queue[n]:
            queue[n] = _shapes(n, wl.len_max)
            rng.shuffle(queue[n])
        lengths, sign = queue[n].pop()
        for _ in range(50):
            images = _draw_images(rng, n, lengths, sign)
            if tuple(images) not in seen:
                break
        else:
            stale[n] += 1
            if stale[n] > len(_shapes(n, wl.len_max)):
                sizes.remove(n)
            continue
        stale[n] = 0
        slot += 1
        seen.add(tuple(images))
        lift = build_lift(MapAction.from_texts(images))
        period = lift_branch_period(lift, wl.branch_depth)
        yield _map_text(n, images, period)
    raise RuntimeError(f"{wl.name}: generator ran out of distinct maps")


def fixture_cases(src: Path) -> list[tuple[str, str, str]]:
    """(name, map text, frozen JSON text) for every bundled fixture."""
    root = src / "bouquet_dyn" / "fixtures"
    return [
        (p.stem, p.read_text(encoding="utf-8"),
         p.with_suffix(".json").read_text(encoding="utf-8"))
        for p in sorted(root.glob("*.bqd"))
    ]


def fixture_images(cases) -> set[tuple[str, ...]]:
    out = set()
    for _, text, _ in cases:
        images = [line.split("->", 1)[1].split("#", 1)[0].strip()
                  for line in text.splitlines() if "->" in line]
        out.add(tuple(images))
    return out


def gate(report: dict, rendered: str, frozen: str | None,
         has_failures) -> list[str]:
    """Reasons one operation failed; empty when it passed.

    `has_failures` is the program's own `report_has_failures`.  The entropy
    bound is the one the property suite uses for the two entropy routes.
    """
    reasons = []
    if has_failures(report):
        reasons.append("report_has_failures")
    if frozen is not None and rendered != frozen:
        reasons.append("differs from frozen fixture")
    gap = float(report["entropy"]["gap_at_horizon"])
    sigma = float(report["spectrum"]["spectral_radius"])
    if not gap <= 0.1 * (1 + sigma):
        reasons.append("entropy gap above 0.1*(1+sigma)")
    if json.loads(rendered) != report:
        reasons.append("rendered JSON does not round-trip")
    return reasons


def oracle_pieces(report: dict) -> int:
    """Sum of norm1(M^m) over the oracle depths the report counted.

    The composed lift at depth m has norm1(M^m) pieces, so this counts the
    pieces the oracle composed; 0 when the oracle did not run.
    """
    oracle = report["oracle"]
    depths = [v["m"] for v in oracle.get("verdicts", []) if "lift_count" in v]
    if not depths:
        return 0
    mat = [[int(x) for x in row] for row in report["abelianization"]]
    n = len(mat)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = 0
    for m in range(1, max(depths) + 1):
        power = [[sum(power[i][k] * mat[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        if m in depths:
            total += sum(abs(x) for row in power for x in row)
    return total


def budget_skips(report: dict) -> int:
    oracle = report["oracle"]
    checks = oracle.get("verdicts", []) + oracle.get("cover_checks", [])
    return sum(1 for v in checks if v.get("reason", "").startswith("budget"))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least 10
    samples beyond it: the 11th largest sample."""
    xs = sorted(samples)
    k = len(xs)
    if k <= 10:
        return 100.0, xs[-1]
    return 100 * (k - 10) / k, xs[k - 11]

"""Command-line front end: parse map descriptions, run every analysis,
emit reports.

The input format is line-based:

    n=3
    branch: free            # or: branch: period 1
    horizon: 12             # optional, default 12
    a1 -> a1 a3
    a2 -> a1
    a3 -> a1 a3
    claim: l(3) = 2         # optional; mismatches become warnings

Exit codes: 0 all checks pass, 1 input error, 2 cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from importlib import resources

from .errors import (
    BudgetError,
    InputError,
    LiftConstructionError,
)
from .homology import Ladder, LefschetzTable, abelianize, norm1, powers
from .periods import (
    FixCountTable,
    PeriodCertificate,
    criteria_delaylowgrow,
    criteria_doubling,
    criteria_lowgrow,
    dominant_periods,
    fix_counts,
    fmbig_test,
    lefschetz_fix_check,
    per_census,
)
from .pl_oracle import (
    build_lift,
    count_fixed,
    cover_growth,
    lift_branch_period,
)
from .spectral import eigenvalues, entropy_limit
from .words import BRANCH_FREE, MapAction, Word, orientation

DEFAULT_HORIZON = 12
DEFAULT_ORACLE_DEPTH = 6
DEFAULT_ENTROPY_HORIZON = 30

_CLAIM_RE = re.compile(
    r"^claim:\s*(L|l|fix|per)\s*\(\s*(\d+)\s*\)\s*=\s*(-?\d+)\s*$"
)
_IMAGE_RE = re.compile(r"^a([1-9][0-9]*)\s*->\s*(.+)$")


@dataclass(frozen=True)
class Claim:
    quantity: str
    m: int
    value: int
    text: str


@dataclass(frozen=True)
class MapSpecDocument:
    """A parsed map description plus optional horizon and claims."""

    action: MapAction
    horizon: int | None = None
    claims: tuple[Claim, ...] = ()


def parse_spec(text: str) -> MapSpecDocument:
    """Parse the line-based map description; diagnostics carry line numbers."""
    n = None
    branch: float | None = None
    horizon = None
    images: dict[int, Word] = {}
    claims: list[Claim] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg: str) -> InputError:
            return InputError(f"line {lineno}: {msg}")

        if line.replace(" ", "").startswith("n="):
            if n is not None:
                raise err("duplicate n= declaration")
            value = line.split("=", 1)[1].strip()
            if not value.isdigit() or int(value) < 1:
                raise err(f"bad circle count {value!r}")
            n = int(value)
            continue
        if line.startswith("branch:"):
            if branch is not None:
                raise err("duplicate branch declaration")
            rest = line[len("branch:"):].strip()
            if rest == "free":
                branch = BRANCH_FREE
            elif rest.startswith("period"):
                value = rest[len("period"):].strip()
                if not value.isdigit() or int(value) < 1:
                    raise err(f"bad branch period {value!r}")
                branch = int(value)
            else:
                raise err(f"bad branch declaration {rest!r}")
            continue
        if line.startswith("horizon:"):
            value = line[len("horizon:"):].strip()
            if not value.isdigit() or int(value) < 1:
                raise err(f"bad horizon {value!r}")
            horizon = int(value)
            continue
        claim_match = _CLAIM_RE.match(line)
        if line.startswith("claim:"):
            if claim_match is None:
                raise err(f"bad claim syntax {line!r}")
            claims.append(
                Claim(
                    claim_match.group(1),
                    int(claim_match.group(2)),
                    int(claim_match.group(3)),
                    line,
                )
            )
            continue
        image_match = _IMAGE_RE.match(line)
        if image_match is not None:
            j = int(image_match.group(1))
            if j in images:
                raise err(f"duplicate image line for a{j}")
            try:
                images[j] = Word.parse(image_match.group(2))
            except InputError as e:
                raise err(str(e)) from None
            continue
        raise err(f"unrecognized line {line!r}")
    if n is None:
        raise InputError("missing n= declaration")
    if branch is None:
        raise InputError("missing branch declaration (branch: free or branch: period <k>)")
    missing = [j for j in range(1, n + 1) if j not in images]
    if missing:
        raise InputError(f"missing image line for a{missing[0]}")
    extra = [j for j in images if j > n]
    if extra:
        raise InputError(f"image line for a{extra[0]} but n={n}")
    action = MapAction(n, tuple(images[j] for j in range(1, n + 1)), branch)
    return MapSpecDocument(action, horizon, tuple(claims))


def print_spec(doc: MapSpecDocument) -> str:
    """Canonical serialization; parse(print(doc)) round-trips."""
    f = doc.action
    lines = [f"n={f.n}"]
    if f.branch_class == BRANCH_FREE:
        lines.append("branch: free")
    else:
        lines.append(f"branch: period {int(f.branch_class)}")
    if doc.horizon is not None:
        lines.append(f"horizon: {doc.horizon}")
    for j in range(1, f.n + 1):
        lines.append(f"a{j} -> {f.image(j).text()}")
    for c in doc.claims:
        lines.append(f"claim: {c.quantity}({c.m}) = {c.value}")
    return "\n".join(lines) + "\n"


@dataclass
class ReportOptions:
    horizon: int | None = None
    oracle_depth: int = DEFAULT_ORACLE_DEPTH
    no_oracle: bool = False
    entropy_horizon: int = DEFAULT_ENTROPY_HORIZON


def _fmt_real(x: float) -> str:
    return format(x, ".15g")


def _fmt_int(v: int) -> str:
    return str(v)


def _certificate_json(cert: PeriodCertificate) -> dict:
    return {
        "rule": cert.rule,
        "conclusion": cert.conclusion,
        "witness": {k: _fmt_int(v) if isinstance(v, int) else str(v)
                    for k, v in cert.witness.items()},
    }


def _claim_value(
    c: Claim, table: LefschetzTable, census: FixCountTable
) -> int | None:
    if c.m < 1:
        return None
    if c.quantity == "L" and c.m <= table.horizon:
        return table.lefschetz_of(c.m)
    if c.quantity == "l" and c.m <= table.horizon:
        return table.periodic_lefschetz_of(c.m)
    if c.quantity == "fix" and c.m <= census.horizon:
        return census.fix_of(c.m)
    if c.quantity == "per" and c.m <= census.horizon:
        return census.per_of(c.m)
    return None


def run_report(doc: MapSpecDocument, options: ReportOptions) -> dict:
    """One deterministic machine-readable report for one map description.

    Big integers serialize as decimal strings, rationals as p/q, reals
    with 15 significant digits, so the output round-trips losslessly.
    Every matrix power and fixed-point count is computed once, on one
    ladder M^1..M^K, and read by each consumer.
    """
    f = doc.action
    horizon = options.horizon
    if horizon is None:
        horizon = DEFAULT_HORIZON if doc.horizon is None else doc.horizon
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if options.entropy_horizon < 1:
        raise InputError(
            f"entropy horizon must be >= 1, got {options.entropy_horizon}"
        )
    oracle_depth = 0 if options.no_oracle else options.oracle_depth
    warnings: list[str] = []
    mat = abelianize(f)
    ladder = powers(mat, max(horizon, options.entropy_horizon, oracle_depth))
    fixes = fix_counts(f, ladder[: max(horizon, oracle_depth)])
    table = LefschetzTable.of(ladder[:horizon])
    census = per_census(fixes[:horizon])
    spectrum = eigenvalues(mat)
    limit_seq = entropy_limit(ladder[: options.entropy_horizon])
    h_spec = spectrum.entropy
    if spectrum.spectral_radius < 1.0 - 1e-12:
        warnings.append("spectral radius below 1; entropy clamped to 0")

    checks = []
    for m in range(1, horizon + 1):
        c = lefschetz_fix_check(f, m, table.lefschetz_of(m), census.fix_of(m))
        checks.append(
            {
                "m": m,
                "mode": c.mode,
                "passed": c.passed,
                "L": _fmt_int(c.lefschetz_value),
                "fix": _fmt_int(c.fix_value),
            }
        )
        if c.mode == "bound-abs":
            note = (
                "branch-periodic bound checked with |L| (preserving iterate)"
            )
            if note not in warnings:
                warnings.append(note)

    certificates: list[PeriodCertificate] = []
    for maker in (criteria_doubling, criteria_lowgrow):
        cert = maker(f)
        if cert is not None:
            certificates.append(cert)
    cert = criteria_delaylowgrow(f, ladder[: min(horizon, 6)])
    if cert is not None:
        certificates.append(cert)
    for m in range(1, horizon + 1):
        cert = fmbig_test(census, m)
        if cert is not None:
            certificates.append(cert)
    cert = dominant_periods(f, spectrum, census)
    if cert is not None:
        certificates.append(cert)

    oracle = _run_oracle(f, options, ladder, fixes, warnings)

    claims = []
    for c in doc.claims:
        computed = _claim_value(c, table, census)
        if computed is None:
            verdict = "out-of-range"
            warnings.append(f"claim beyond computed horizon: {c.text}")
        elif computed == c.value:
            verdict = "match"
        else:
            verdict = "mismatch"
            warnings.append(
                f"stated {c.quantity}({c.m}) = {c.value} but the "
                f"definition gives {computed}"
            )
        claims.append(
            {
                "text": c.text,
                "computed": None if computed is None else _fmt_int(computed),
                "verdict": verdict,
            }
        )

    report = {
        "schema": 1,
        "input": {
            "n": f.n,
            "branch": "free" if f.branch_class == BRANCH_FREE
            else _fmt_int(int(f.branch_class)),
            "images": [f.image(j).text() for j in range(1, f.n + 1)],
            "horizon": horizon,
        },
        "orientation": orientation(f),
        "abelianization": [[_fmt_int(v) for v in row] for row in mat],
        "lefschetz": {
            "horizon": horizon,
            "trace": [_fmt_int(v) for v in table.traces],
            "L": [_fmt_int(v) for v in table.lefschetz_numbers],
            "l": [_fmt_int(v) for v in table.periodic_lefschetz_numbers],
        },
        "census": {
            "fix": [_fmt_int(v) for v in census.fix_counts],
            "per": [_fmt_int(v) for v in census.per_counts],
            "period_set": sorted(census.period_set()),
        },
        "lefschetz_fix_checks": checks,
        "spectrum": {
            "char_poly": [_fmt_int(c) for c in spectrum.char_coeffs],
            "eigenvalues": [
                {
                    "re": _fmt_real(z.real),
                    "im": _fmt_real(z.imag),
                    "modulus": _fmt_real(abs(z)),
                }
                for z in spectrum.values
            ],
            "spectral_radius": _fmt_real(spectrum.spectral_radius),
            "residual": _fmt_real(spectrum.residual),
        },
        "entropy": {
            "spectral": _fmt_real(h_spec),
            "spectral_log2": _fmt_real(h_spec / math.log(2)),
            "limit_horizon": options.entropy_horizon,
            "limit_sequence": [_fmt_real(s) for s in limit_seq],
            "gap_at_horizon": _fmt_real(abs(limit_seq[-1] - h_spec)),
        },
        "certificates": [_certificate_json(c) for c in certificates],
        "oracle": oracle,
        "claims": claims,
        "warnings": warnings,
    }
    return report


def _run_oracle(
    f: MapAction,
    options: ReportOptions,
    ladder: Ladder,
    fixes: tuple[int, ...],
    warnings: list[str],
) -> dict:
    if options.no_oracle:
        return {"status": "skipped", "reason": "disabled by flag"}
    try:
        lift = build_lift(f)
    except LiftConstructionError as e:
        return {"status": "unavailable", "reason": str(e)}
    observed = lift_branch_period(lift, max(13, options.oracle_depth + 1))
    declared_free = f.branch_class == BRANCH_FREE
    branch_mismatch = (
        (declared_free and observed is not None)
        or (not declared_free and observed != int(f.branch_class))
    )
    if branch_mismatch:
        warnings.append(
            "branch-orbit mismatch: the canonical lift's branching point "
            f"has period {observed if observed else 'none observed'} but "
            "the declaration says "
            + ("free" if declared_free else str(int(f.branch_class)))
        )
    verdicts = []
    for m in range(1, options.oracle_depth + 1):
        formula = fixes[m - 1]
        try:
            lifted = count_fixed(lift, m)
        except BudgetError as e:
            verdicts.append(
                {"m": m, "verdict": "skipped", "reason": f"budget: {e}"}
            )
            continue
        if lifted == formula:
            verdict = "match"
        elif branch_mismatch:
            verdict = "skipped (branch-orbit mismatch)"
        else:
            verdict = "mismatch"
        verdicts.append(
            {
                "m": m,
                "lift_count": _fmt_int(lifted),
                "formula_count": _fmt_int(formula),
                "verdict": verdict,
            }
        )
    cover_checks = []
    for m in range(1, min(options.oracle_depth, 8) + 1):
        try:
            cov = cover_growth(lift, m)
        except BudgetError as e:
            cover_checks.append(
                {"m": m, "verdict": "skipped", "reason": f"budget: {e}"}
            )
            continue
        nrm = norm1(ladder[m - 1])
        cover_checks.append(
            {
                "m": m,
                "cover": _fmt_int(cov),
                "norm": _fmt_int(nrm),
                "verdict": "match" if cov == nrm else "mismatch",
            }
        )
    status = "ok"
    if any(v["verdict"] == "mismatch" for v in verdicts + cover_checks):
        status = "mismatch"
    return {
        "status": status,
        "branch_period_observed": observed,
        "verdicts": verdicts,
        "cover_checks": cover_checks,
    }


def report_has_failures(report: dict) -> bool:
    if any(not c["passed"] for c in report["lefschetz_fix_checks"]):
        return True
    oracle = report["oracle"]
    return oracle.get("status") == "mismatch"


# ---------------------------------------------------------------------------
# rendering

def render_text(report: dict) -> str:
    lines = []
    inp = report["input"]
    lines.append(f"bouquet of {inp['n']} circle(s), branch {inp['branch']}, "
                 f"{report['orientation']}")
    for j, img in enumerate(inp["images"], start=1):
        lines.append(f"  a{j} -> {img}")
    lines.append("")
    lines.append("homology matrix:")
    for row in report["abelianization"]:
        lines.append("  [" + " ".join(f"{v:>4}" for v in row) + "]")
    lines.append("")
    horizon = inp["horizon"]
    lef = report["lefschetz"]
    cen = report["census"]
    lines.append(f"{'m':>3} {'Tr':>8} {'L':>8} {'l':>8} {'fix':>8} {'per':>8}")
    for i in range(horizon):
        lines.append(
            f"{i + 1:>3} {lef['trace'][i]:>8} {lef['L'][i]:>8} "
            f"{lef['l'][i]:>8} {cen['fix'][i]:>8} {cen['per'][i]:>8}"
        )
    lines.append("")
    lines.append(f"period set up to {horizon}: {cen['period_set']}")
    spec = report["spectrum"]
    mods = ", ".join(e["modulus"] for e in spec["eigenvalues"])
    lines.append(f"eigenvalue moduli: {mods}")
    ent = report["entropy"]
    lines.append(
        f"entropy: {ent['spectral']} (log2: {ent['spectral_log2']}); "
        f"limit-route gap at m={ent['limit_horizon']}: {ent['gap_at_horizon']}"
    )
    lines.append("")
    if report["certificates"]:
        lines.append("certificates:")
        for c in report["certificates"]:
            lines.append(f"  {c['rule']}: {c['conclusion']}")
    else:
        lines.append("certificates: none fired")
    oracle = report["oracle"]
    lines.append(f"oracle: {oracle.get('status')}"
                 + (f" ({oracle['reason']})" if "reason" in oracle else ""))
    for v in oracle.get("verdicts", []):
        detail = ""
        if "lift_count" in v:
            detail = f" lift={v['lift_count']} formula={v['formula_count']}"
        lines.append(f"  m={v['m']}: {v['verdict']}{detail}")
    failed = [c for c in report["lefschetz_fix_checks"] if not c["passed"]]
    if failed:
        lines.append("FAILED Lefschetz/fixed-point checks: "
                     + ", ".join(str(c["m"]) for c in failed))
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    for c in report["claims"]:
        lines.append(f"claim check: {c['text']} -> {c['verdict']}"
                     + (f" (computed {c['computed']})" if c["computed"] else ""))
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# entry points

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=None,
                   help="census/Lefschetz horizon (default: spec file or 12)")
    p.add_argument("--oracle-depth", type=int, default=DEFAULT_ORACLE_DEPTH,
                   help="validate lift fixed-point counts up to this iterate")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the piecewise-linear lift cross-validation")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--entropy-horizon", type=int,
                   default=DEFAULT_ENTROPY_HORIZON,
                   help="terms of the norm-growth entropy sequence")


def _options_from(args: argparse.Namespace) -> ReportOptions:
    return ReportOptions(
        horizon=args.horizon,
        oracle_depth=args.oracle_depth,
        no_oracle=args.no_oracle,
        entropy_horizon=args.entropy_horizon,
    )


def _analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.spec_file, encoding="utf-8") as fh:
            doc = parse_spec(fh.read())
        report = run_report(doc, _options_from(args))
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(out)
    return 2 if report_has_failures(report) else 0


def fixture_names() -> list[str]:
    root = resources.files("bouquet_dyn") / "fixtures"
    return sorted(
        p.name[: -len(".bqd")] for p in root.iterdir()
        if p.name.endswith(".bqd")
    )


def load_fixture(name: str) -> tuple[MapSpecDocument, dict | None]:
    root = resources.files("bouquet_dyn") / "fixtures"
    doc = parse_spec((root / f"{name}.bqd").read_text(encoding="utf-8"))
    expected = None
    expected_path = root / f"{name}.json"
    if expected_path.is_file():
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
    return doc, expected


def _fixtures(args: argparse.Namespace) -> int:
    failures = 0
    for name in fixture_names():
        doc, expected = load_fixture(name)
        report = run_report(doc, _options_from(args))
        if expected is None:
            status = "NO EXPECTED OUTPUT"
            failures += 1
        elif report == expected:
            status = "ok"
        else:
            status = "DIFFERS FROM EXPECTED"
            failures += 1
        print(f"{name}: {status}")
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bouquet-dyn",
        description="Fixed points, periods and entropy for monotone "
        "self-maps of a bouquet of circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze", help="analyze one map description")
    p_analyze.add_argument("spec_file")
    _add_common_flags(p_analyze)
    p_analyze.set_defaults(func=_analyze)
    p_fixtures = sub.add_parser(
        "fixtures", help="run the bundled corpus against expected reports"
    )
    _add_common_flags(p_fixtures)
    p_fixtures.set_defaults(func=_fixtures)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

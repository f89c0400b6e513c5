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

Exit codes: 0 all checks pass, 1 input or usage error (a declared branch
period k with per(k) < k included: the branching point's orbit alone has
k points of least period k), 2 cross-check mismatch, a printed spectral
radius that an exact test puts more than a relative 1e-9 from the Perron
root of |M|, a certificate that promises a period the
census does not have, or two exact routes that disagree
(`InconsistencyError`; a census count per(m) that is negative or that m
does not divide among them).

Entropy prints as h = log of the spectral radius, and of the norm-growth
limit route only the gap |log ||M^E|| / E - h| at E = 30.  The oracle
prints one verdict to its depth D, the least m at which the lift's fix
counts differ from the formula's, or null; neither those counts, which
repeat the census, nor its covers, ||M^m||_1, print (schema 11).
"""

import math
import sys

from .errors import (DIGIT_CAP, ITERATE_CAP, InconsistencyError, InputError,
                     LiftConstructionError, Record, check_int, digit_count,
                     shown)
from .homology import PowerSequences, abelianize, invert_divisor_sums
from .periods import (
    PeriodCertificate,
    fix_counts,
    lefschetz_fix_check,
    per_census,
    period_certificates,
)
from .spectral import (DOMINANCE_EPS, SpectrumReport, eigenvalues,
                       exceeds_perron_root)
from .words import (BRANCH_FREE, CIRCLE_CAP, MapAction, Word, generator_index,
                    orientation)

DEFAULT_HORIZON = 12
DEFAULT_ORACLE_DEPTH = 6
DEFAULT_ENTROPY_HORIZON = 30

#: a claim line, matched only on a line that starts with "claim:": `re` is
#: loaded there, so importing this module does not load it
_CLAIM_PATTERN = r"^claim:\s*(L|l|fix|per)\s*\(\s*(\d+)\s*\)\s*=\s*(-?\d+)\s*$"


class Claim(Record, fields="quantity m value text"):
    """One claim line: the str `quantity` ("L", "l", "fix" or "per"), the
    int iterate `m` >= 1, the int `value`, of at most DIGIT_CAP digits as
    a report's integers are, and the line's `text`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Claim":
        claim = super().__new__(cls, *args, **kwargs)
        check_int(claim.m, "claim iterate", 1)
        if digit_count(check_int(claim.value, "claim value")) > DIGIT_CAP:
            raise InputError(f"claim value has {digit_count(claim.value)} "
                             f"digits, over the cap of {DIGIT_CAP} digits")
        if claim.quantity not in ("L", "l", "fix", "per"):
            raise InputError(f"claim quantity {shown(claim.quantity)} is not "
                             "L, l, fix or per")
        if not isinstance(claim.text, str):
            raise InputError(f"claim text must be a str, got {shown(claim.text)}")
        return claim


class MapSpecDocument(Record, fields="action horizon claims",
                      defaults=(None, ())):
    """A parsed map description, its `MapAction`, plus an optional int
    `horizon` >= 1 and the `Claim`s, stored as a tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "MapSpecDocument":
        action, horizon, claims = super().__new__(cls, *args, **kwargs)
        if not isinstance(action, MapAction):
            raise InputError(f"document action must be a MapAction, got {shown(action)}")
        if horizon is not None:
            check_int(horizon, "horizon", 1)
        claims = tuple(claims)
        for claim in claims:
            if not isinstance(claim, Claim):
                raise InputError(f"document claims must be Claims, got {shown(claim)}")
        return tuple.__new__(cls, (action, horizon, claims))


def _integer(value: str, what: str, err: "Callable[[str], Exception]") -> int:
    """The integer that `value`, an optional minus sign and ASCII digits,
    spells; past DIGIT_CAP digits `err` builds the error to raise before
    int() sees them (Python 3.11+ refuses over 4 300 digits)."""
    digits = len(value.lstrip("-"))
    if digits > DIGIT_CAP:
        raise err(f"{what} has {digits} digits, over the cap of {DIGIT_CAP} digits")
    return int(value)


def _positive(value: str, what: str, err: "Callable[[str], InputError]") -> int:
    """A positive integer written in ASCII decimal digits; `err` builds
    the line's InputError otherwise."""
    ascii_digits = value.isascii() and value.isdigit()
    number = _integer(value, what, err) if ascii_digits else 0
    if number < 1:
        raise err(f"bad {what} {shown(value)}")
    return number


def _image_line(line: str) -> tuple[int, str] | None:
    """(j, word) of an image line, `a<j>`, optional whitespace, "->" and a
    nonempty word, or None; `generator_index` reads j."""
    head, _, body = line.partition("->")
    if not (head.startswith("a") and body):
        return None
    j = generator_index(head[1:].rstrip())
    return None if j is None else (j, body.lstrip())


def parse_spec(text: str) -> MapSpecDocument:
    """Parse the line-based map description; diagnostics carry line numbers."""
    n = None
    branch = BRANCH_FREE
    branch_seen = False
    horizon = None
    images: dict[int, Word] = {}
    claims: list[Claim] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg: str) -> InputError:
            return InputError(f"line {lineno}: {msg}")

        head, eq, value = line.partition("=")
        if eq and head.rstrip() == "n":
            if n is not None:
                raise err("duplicate n= declaration")
            n = _positive(value.strip(), "circle count", err)
            if n > CIRCLE_CAP:
                raise err(f"circle count {n} over the cap of {CIRCLE_CAP} circles")
            continue
        if line.startswith("branch:"):
            if branch_seen:
                raise err("duplicate branch declaration")
            branch_seen = True
            rest = line[len("branch:"):].strip()
            if rest.startswith("period"):
                branch = _positive(rest[len("period"):].strip(),
                                   "branch period", err)
            elif rest != "free":
                raise err(f"bad branch declaration {shown(rest)}")
            continue
        if line.startswith("horizon:"):
            if horizon is not None:
                raise err("duplicate horizon declaration")
            horizon = _positive(line[len("horizon:"):].strip(), "horizon", err)
            continue
        if line.startswith("claim:"):
            import re

            claim_match = re.match(_CLAIM_PATTERN, line, re.ASCII)
            if claim_match is None:
                raise err(f"bad claim syntax {shown(line)}")
            quantity, m, value = claim_match.groups()
            claims.append(Claim(quantity, _positive(m, "claim iterate", err),
                                _integer(value, "claim value", err), line))
            continue
        try:
            j, body = _image_line(line) or (None, "")
            if j is not None and j not in images:
                images[j] = Word.parse(body)
                continue
        except InputError as e:
            raise err(str(e)) from None
        if j is not None:
            raise err(f"duplicate image line for a{j}")
        raise err(f"unrecognized line {shown(line)}")
    if n is None:
        raise InputError("missing n= declaration")
    if not branch_seen:
        raise InputError("missing branch declaration (branch: free or branch: period <k>)")
    missing = [j for j in range(1, n + 1) if j not in images]
    if missing:
        raise InputError(f"missing image line for a{missing[0]}")
    extra = [j for j in images if j > n]
    if extra:
        raise InputError(f"image line for a{extra[0]} but n={n}")
    action = MapAction(n, tuple(images[j] for j in range(1, n + 1)), branch)
    return MapSpecDocument(action, horizon, tuple(claims))


class ReportOptions(
        Record, fields="horizon oracle_depth no_oracle entropy_horizon",
        defaults=(None, DEFAULT_ORACLE_DEPTH, False, DEFAULT_ENTROPY_HORIZON)):
    """The options of one report: the int or None `horizon`, the int
    `oracle_depth`, the bool `no_oracle` and the int `entropy_horizon`
    E.  E only places the limit-route gap |log ||M^E|| / E - h|; no
    flag sets it, and the field stays because the frozen benchmark
    passes it.  Each int is >= 1, the depth only when the oracle runs;
    `no_oracle` is True or False, never another value read for its
    truth."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ReportOptions":
        options = super().__new__(cls, *args, **kwargs)
        if type(options.no_oracle) is not bool:
            raise InputError(f"no_oracle must be a bool, got {shown(options.no_oracle)}")
        if options.horizon is not None:
            check_int(options.horizon, "horizon", 1)
        check_int(options.entropy_horizon, "entropy horizon", 1)
        if not options.no_oracle:
            check_int(options.oracle_depth, "oracle depth", 1)
        return options


def _fmt_real(x: float) -> str:
    return format(x, ".15g")


def _branch_text(k: int | None) -> str:
    return "free" if k is None else str(k)


def _certificate_json(cert: PeriodCertificate, period_set: list[int],
                      horizon: int) -> dict:
    """Witness integers print as strings, and a conclusion that the
    census breaks gets the `failure` text of `Conclusion.failure`."""
    out = {
        "rule": cert.rule,
        "conclusion": cert.conclusion.text(),
        "witness": {k: str(v) for k, v in cert.witness.items()},
    }
    failure = cert.conclusion.failure(period_set, horizon)
    return out if failure is None else {**out, "failure": failure}


def _digit_bound(col_sums: list[int], iterates: int) -> float:
    """An upper bound on the decimal digits of every integer a report
    prints or holds, when its record, census, Lefschetz table and oracle
    reach iterate `iterates`; `col_sums` are the column sums of |M|.

    Let c be the largest column sum of |M|, the longest image word.  The
    column sums of |M^m| are at most c^m, so every trace, fix count
    and norm up to iterate K is at most 1 + n c^K + 2n <= 4 n c^K,
    and every Moebius sum of them (l and per) at most K times that: fewer
    than K log10 c + log10(4 n K) + 1 digits.
    A coefficient of the characteristic polynomial is at most
    binomial(n, i) rho^i <= (2c)^n, for the spectral radius rho <= c.
    """
    n = len(col_sums)
    c = max(col_sums)
    return 1 + max(
        iterates * math.log10(c) + math.log10(4 * n * iterates),
        n * math.log10(2 * c),
    )


def _radius_failure(spectrum: SpectrumReport, char: tuple[int, ...],
                    sign: int, col_sums: list[int]) -> str | None:
    """Why the solver's spectrum cannot be right, or None.

    M = s|M| for the `sign` s, so its spectral radius is lambda, the
    Perron root of |M|, whose det(xI - |M|) is `char` = det(xI - M) with
    c_i times s^(n-i).  The solver's radius r passes when lambda lies in
    [r - w, r + w), w = min(1e-9 r, DOMINANCE_EPS), each end rounded
    outward to a multiple of 2^-40: one `exceeds_perron_root` call
    decides both sides exactly.  Every modulus must be finite, since a
    nan sorts anywhere; one that is not fails untested.  lambda lies
    between the least and the largest column sum of |M| (the
    Collatz-Wielandt bounds with x = 1, on |M| transposed), which the
    failure names.
    """
    r = spectrum.spectral_radius
    if all(math.isfinite(abs(z)) for z in spectrum.values):
        perron = [c * sign ** (len(char) - 1 - i) for i, c in enumerate(char)]
        w = min(1e-9 * r, DOMINANCE_EPS)
        scale = 1 << 40
        hi_num, hi_den = (r + w).as_integer_ratio()
        lo_num, lo_den = (r - w).as_integer_ratio()
        above, below = exceeds_perron_root(
            perron, (-(-hi_num * scale // hi_den), lo_num * scale // lo_den),
            scale)
        if above and not below:
            return None
    return (f"eigenvalue moduli must be finite, the largest within a relative "
            f"1e-9 (at most {DOMINANCE_EPS}) of the Perron root of |M|, in "
            f"[{min(col_sums)}, {max(col_sums)}] (the least and largest "
            f"column sums of |M|); the solver gives spectral radius "
            f"{_fmt_real(r)}")


def run_report(doc: MapSpecDocument, options: ReportOptions) -> dict:
    """One deterministic machine-readable report for one map description.

    Big integers serialize as decimal strings, rationals as p/q, reals
    with 15 significant digits, so the output round-trips losslessly.
    Every per-iterate quantity is computed once, in one
    `PowerSequences` record, and read by each consumer: its traces run to
    the largest of the horizon, the oracle depth and the declared class
    k, and its norms to the entropy horizon E, the one norm read.  An
    input whose K, the largest of all four, is over ITERATE_CAP, or whose
    integers up to M^K could have more than DIGIT_CAP digits, is refused
    before the record is built.  The census runs to max(H, k),
    since the branching point's orbit needs per(k) >= k, a check made
    past H too; a map whose census breaks it is refused, and only the
    first H entries print.
    """
    f = doc.action
    horizon = options.horizon or doc.horizon or DEFAULT_HORIZON
    oracle_depth = 0 if options.no_oracle else options.oracle_depth
    warnings: list[str] = []
    mat = abelianize(f)
    col_sums = [sum(map(abs, col)) for col in zip(*mat)]
    k = f.branch_class or 0
    census = max(horizon, k)
    counted = max(census, oracle_depth)
    e = options.entropy_horizon
    iterates = max(counted, e)
    # the iterate cap first: past it, `_digit_bound` may overflow a float
    if iterates > ITERATE_CAP:
        raise InputError(f"iterates up to {shown(iterates)} requested, over "
                         f"the cap of {ITERATE_CAP} iterates")
    digits = _digit_bound(col_sums, iterates)
    if digits > DIGIT_CAP:
        raise InputError(f"iterates up to {iterates} could need integers of "
                         f"{math.ceil(digits)} digits, over the cap of "
                         f"{DIGIT_CAP} digits")
    seqs = PowerSequences.of(mat, counted, e)
    fixes = fix_counts(f, seqs.traces)
    pers = per_census(fixes[:census])
    if k and pers[k - 1] < k:
        raise InputError(
            f"branch period {k} is declared, but per({k}) = {pers[k - 1]} < "
            f"{k}, too few points for the branching point's orbit")
    lefs = [1 - t for t in seqs.traces[:horizon]]
    values = {"L": lefs, "l": invert_divisor_sums(lefs),
              "fix": fixes[:horizon], "per": pers[:horizon]}
    period_set = [m for m, p in enumerate(values["per"], start=1) if p > 0]
    spectrum = eigenvalues(seqs.char)
    h_spec = spectrum.entropy
    # the limit route's term log ||M^E|| / E; every column of |M| sums
    # to 1 or more, so the norm is positive
    h_limit = math.log(seqs.norms[e - 1]) / e

    certificates = period_certificates(f, seqs, horizon, spectrum)

    oracle = _run_oracle(f, options, fixes, warnings)

    claims = []
    for c in doc.claims:
        # the claimed quantity at c.m, None past the horizon
        computed = values[c.quantity][c.m - 1] if c.m <= horizon else None
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
        claims.append({"text": c.text, "verdict": verdict,
                       "computed": None if computed is None else str(computed)})

    report = {
        "schema": 11,
        "input": {
            "n": f.n,
            "branch": _branch_text(f.branch_class),
            "images": [f.image(j).text() for j in range(1, f.n + 1)],
            "horizon": horizon,
        },
        "orientation": orientation(f),
        "abelianization": [list(map(str, row)) for row in mat],
        "lefschetz": {
            "L": list(map(str, lefs)),
            "l": list(map(str, values["l"])),
        },
        "census": {
            "fix": list(map(str, values["fix"])),
            "per": list(map(str, values["per"])),
            "period_set": period_set,
        },
        "lefschetz_fix_checks": lefschetz_fix_check(f, lefs, values["fix"]),
        "spectrum": {
            "char_poly": list(map(str, seqs.char)),
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
            "gap_at_horizon": _fmt_real(abs(h_limit - h_spec)),
            "horizon": e,
        },
        "certificates": [_certificate_json(c, period_set, horizon)
                         for c in certificates],
        "oracle": oracle,
        "claims": claims,
        "warnings": warnings,
    }
    failure = _radius_failure(spectrum, seqs.char, f.global_sign, col_sums)
    if failure is not None:
        report["spectrum"]["failure"] = failure
    return report


def _run_oracle(f: MapAction, options: ReportOptions, fixes: tuple[int, ...],
                warnings: list[str]) -> dict:
    if options.no_oracle:
        return {"status": "skipped", "reason": "disabled by flag"}
    # imported here, not at the top: a `--no-oracle` process never loads it
    from .pl_oracle import build_lift, oracle_counts

    try:
        lift = build_lift(f)
    except LiftConstructionError as e:
        return {"status": "unavailable", "reason": str(e)}
    counts = oracle_counts(lift, options.oracle_depth)
    observed = counts.branch_period
    branch_mismatch = observed != f.branch_class
    if branch_mismatch:
        warnings.append(
            "branch-orbit mismatch: the canonical lift's branching point "
            f"has period {observed if observed else 'none observed'} but "
            f"the declaration says {_branch_text(f.branch_class)}"
        )
    # the least m <= D at which the lift's count differs from the formula's
    first = next((m for m, (a, b) in enumerate(zip(counts.lift_fix, fixes), start=1)
                  if a != b), None)
    # a lift whose branch orbit is not the declared one counts another
    # map: its first difference is named, but neither it nor an agreement
    # is judged
    passed = None if branch_mismatch else first is None
    return {"status": "mismatch" if passed is False else "ok",
            "branch_period_observed": observed, "depth": options.oracle_depth,
            "first_difference": first, "passed": passed}


def report_has_failures(report: dict) -> bool:
    """Whether the Lefschetz statement failed (the preserving equality
    on some m <= H; class 1 has no statement), the spectrum or a
    certificate carries a `failure`, or the oracle mismatched: the cases
    that exit 2."""
    return (any(not c["passed"] for c in report["lefschetz_fix_checks"])
            or "failure" in report["spectrum"]
            or any("failure" in c for c in report["certificates"])
            or report["oracle"]["status"] == "mismatch")


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
    lines.append(f"{'m':>3} {'L':>8} {'l':>8} {'fix':>8} {'per':>8}")
    for i in range(horizon):
        lines.append(f"{i + 1:>3} {lef['L'][i]:>8} {lef['l'][i]:>8} "
                     f"{cen['fix'][i]:>8} {cen['per'][i]:>8}")
    lines.append("")
    lines.append(f"period set up to {horizon}: {cen['period_set']}")
    spec = report["spectrum"]
    mods = ", ".join(e["modulus"] for e in spec["eigenvalues"])
    lines.append(f"eigenvalue moduli: {mods}")
    if "failure" in spec:
        lines.append(f"FAILED spectrum: {spec['failure']}")
    ent = report["entropy"]
    lines.append(
        f"entropy: {ent['spectral']}; limit-route gap at "
        f"m={ent['horizon']}: {ent['gap_at_horizon']}"
    )
    lines.append("")
    if report["certificates"]:
        lines.append("certificates:")
        for c in report["certificates"]:
            lines.append(f"  {c['rule']}: {c['conclusion']}")
            if "failure" in c:
                lines.append(f"FAILED certificate {c['rule']}: {c['failure']}")
    else:
        lines.append("certificates: none fired")
    oracle = report["oracle"]
    lines.append(f"oracle: {oracle['status']}"
                 + (f" ({oracle['reason']})" if "reason" in oracle else ""))
    if "depth" in oracle:
        m = oracle["first_difference"]
        verdict = {True: "match", False: "mismatch",
                   None: "skipped (branch-orbit mismatch)"}[oracle["passed"]]
        lines.append(f"  fix counts to m={oracle['depth']}: {verdict}"
                     + (f", first difference at m={m}" if m else ""))
        if oracle["passed"] is False:
            lines.append(f"FAILED oracle fix check: {m}")
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


def _quote(s: str) -> str:
    """The JSON string literal of `s`, in ASCII with `\\u` escapes.  Its
    first call loads the C encoder from `_json` (the `json` package
    itself is not needed) and rebinds `_quote` and `_ENCODERS[str]` to
    it, so a text report never loads `_json` and every later string
    goes straight to C."""
    global _quote
    from _json import encode_basestring_ascii as _quote
    _ENCODERS[str] = _quote
    return _quote(s)


#: the C encoder of each scalar type, applied by `map` to a whole list;
#: str's is `_quote`'s loader until the first string is written
_ENCODERS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_pieces(value, out: list, nl: str = "\n") -> list:
    """Append to `out` the pieces of `json.dumps(value, indent=2,
    sort_keys=True)`, byte for byte, for values built from dict, list,
    str, int, bool and None, and return `out`; `nl` is the newline plus
    the enclosing indent.  No piece is copied into an enclosing string,
    and a list of scalars of one type, the bulk of a report, is one piece
    joined in one C-level pass."""
    t = type(value)
    if t in _ENCODERS:
        out.append(_ENCODERS[t](value))
        return out
    if t is not list and t is not dict:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not value:
        out.append("[]" if t is list else "{}")
        return out
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        out.append("{" + inner)
        for k in sorted(value):
            out.append(_quote(k) + ": ")
            json_pieces(value[k], out, inner)
            out.append(sep)
        # the separator after the last item becomes the closing brace
        out[-1] = nl + "}"
        return out
    types = set(map(type, value))
    kind = types.pop() if len(types) == 1 else None
    if kind in _ENCODERS:
        out += ("[" + inner, sep.join(map(_ENCODERS[kind], value)), nl + "]")
        return out
    out.append("[" + inner)
    for v in value:
        json_pieces(v, out, inner)
        out.append(sep)
    out[-1] = nl + "]"
    return out


def render_json(report: dict) -> str:
    pieces = json_pieces(report, [])
    pieces.append("\n")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# entry points

def _flag_integer(value: str) -> int:
    """The argparse type of the integer flags: over DIGIT_CAP digits the
    usage error names the count, where int's would echo the value."""
    import argparse

    try:
        return _integer(value, "value", argparse.ArgumentTypeError)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(value)}") from None


def _analyze(args: "argparse.Namespace") -> int:
    try:
        with open(args.spec_file, encoding="utf-8-sig") as fh:
            doc = parse_spec(fh.read())
        report = run_report(doc, ReportOptions(
            args.horizon, args.oracle_depth, args.no_oracle))
    except (InputError, OSError, UnicodeDecodeError, InconsistencyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InconsistencyError) else 1
    if args.format == "json":
        # piece by piece: the report's text is never held whole
        sys.stdout.writelines(json_pieces(report, []))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_text(report))
    return 2 if report_has_failures(report) else 0


def _fixture_dir():
    from importlib import resources

    return resources.files("bouquet_dyn") / "fixtures"


def fixture_names() -> list[str]:
    return sorted(
        p.name[: -len(".bqd")] for p in _fixture_dir().iterdir()
        if p.name.endswith(".bqd")
    )


def _fixture_texts(name: str) -> tuple[str, str | None]:
    """The fixture's map text and its frozen JSON report text, if any."""
    root = _fixture_dir()
    expected = root / f"{name}.json"
    return (
        (root / f"{name}.bqd").read_text(encoding="utf-8"),
        expected.read_text(encoding="utf-8") if expected.is_file() else None,
    )


def _fixtures(args: "argparse.Namespace") -> int:
    """Each fixture's default-options JSON report against its frozen
    text, byte for byte."""
    failures = 0
    for name in fixture_names():
        text, expected = _fixture_texts(name)
        report = run_report(parse_spec(text), ReportOptions())
        if expected is None:
            status = "NO EXPECTED OUTPUT"
            failures += 1
        elif render_json(report) == expected:
            status = "ok"
        else:
            status = "DIFFERS FROM EXPECTED"
            failures += 1
        print(f"{name}: {status}")
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    # argparse is loaded here, by the entry point alone: a library import
    # of this module does not pay for it
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors exit 1, the input-error
        code; its subcommand parsers are of the same class."""

        def error(self, message: str) -> "NoReturn":
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="bouquet-dyn", description="Fixed points, periods "
                     "and entropy for monotone self-maps of a bouquet of circles.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("analyze", help="analyze one map description")
    p.add_argument("spec_file")
    p.add_argument("--horizon", type=_flag_integer, default=None,
                   help="census/Lefschetz horizon (default: spec file or 12)")
    p.add_argument("--oracle-depth", type=_flag_integer,
                   default=DEFAULT_ORACLE_DEPTH,
                   help="validate lift fixed-point counts up to this iterate")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the piecewise-linear lift cross-validation")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_analyze)
    sub.add_parser("fixtures", help="run the bundled corpus against expected "
                   "reports").set_defaults(func=_fixtures)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Exact periodic-point counts and period certificates.

The census (Moebius inversion of exact fixed-point counts) is the ground
truth here; Lefschetz-based counts serve as cross-checks, since the
census also covers the orientation-reversing m = 2 (mod 4) case where the
periodic Lefschetz number mixes two period counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InconsistencyError, InputError
from .homology import (
    IntMatrix,
    Ladder,
    abelianize,
    divisors,
    mobius,
    periodic_lefschetz,
    trace,
)
from .spectral import SpectrumReport, dominant_test, m0_bound
from .words import (
    BRANCH_FREE,
    Letter,
    MapAction,
    first_letter,
    orientation_of_power,
)


# ---------------------------------------------------------------------------
# exact counts

def fix_counts(f: MapAction, ladder: Ladder) -> tuple[int, ...]:
    """Number of fixed points of every iterate m = 1..len(ladder), exactly.

    ladder[m-1] is M^m, whose diagonal entry j is chi_j of the iterate
    image of generator j.  When the branching point is not m-periodic
    (k infinite or k not dividing m) the count is |1 - tr M^m|; when it
    is, the branching point contributes 1 and the interior crossings are
    counted by gamma instead: chi_j less the first and last letters of
    the iterate image when they are a_j (an image of one letter has no
    interior).  Those letters are followed along the orbits of a_j and
    a_j' under the one-step letter map, in one forward pass.
    """
    k = f.branch_class
    gens = range(1, f.n + 1)
    firsts = [Letter(j, 1) for j in gens]
    # the last letter of an image is the inverse of the first letter of
    # the image of the inverse word
    lasts_inv = [Letter(j, -1) for j in gens]
    out = []
    for m, power in enumerate(ladder, start=1):
        firsts = [first_letter(f, l) for l in firsts]
        lasts_inv = [first_letter(f, l) for l in lasts_inv]
        if k == BRANCH_FREE or m % int(k) != 0:
            out.append(abs(1 - trace(power)))
            continue
        total = 0
        for j, first, last_inv in zip(gens, firsts, lasts_inv):
            if sum(abs(row[j - 1]) for row in power) <= 1:
                continue
            total += power[j - 1][j - 1]
            if first.index == j:
                total -= first.sign
            if last_inv.index == j:
                total += last_inv.sign
        out.append(1 + abs(total))
    return tuple(out)


@dataclass(frozen=True)
class FixCountTable:
    """Fixed-point and least-period counts for every m up to a horizon."""

    horizon: int
    fix_counts: tuple[int, ...]
    per_counts: tuple[int, ...]

    def fix_of(self, m: int) -> int:
        return self.fix_counts[m - 1]

    def per_of(self, m: int) -> int:
        return self.per_counts[m - 1]

    def period_set(self) -> set[int]:
        """All m up to the horizon with at least one period-m orbit."""
        return {m for m in range(1, self.horizon + 1) if self.per_of(m) > 0}


def per_census(fixes: tuple[int, ...]) -> FixCountTable:
    """Full census up to horizon len(fixes), where fixes[m-1] = fix(m):
    per(m) by Moebius inversion of the divisor identity
    fix(m) = sum over r|m of per(r).

    A negative per count would mean the fixed-point formulas and the
    inversion disagree, which cannot happen for valid input; it is raised
    as an internal inconsistency naming the offending m.
    """
    horizon = len(fixes)
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    pers = []
    for m in range(1, horizon + 1):
        p = sum(mobius(m // r) * fixes[r - 1] for r in divisors(m))
        if p < 0:
            raise InconsistencyError(
                f"census produced negative period count {p} at m={m}"
            )
        pers.append(p)
    table = FixCountTable(horizon, fixes, tuple(pers))
    for m in range(1, horizon + 1):
        if table.fix_of(m) != sum(table.per_of(r) for r in divisors(m)):
            raise InconsistencyError(f"census divisor identity broken at m={m}")
    return table


# ---------------------------------------------------------------------------
# Lefschetz cross-checks

def lefschetz_per_count(f: MapAction, m: int) -> int | None:
    """|l(f^m)| as a period-m orbit-point count, when the theory applies.

    Applies to maps whose branching point is never periodic, for
    orientation-preserving f, or reversing f with m odd or divisible
    by 4.  Returns None in the remaining reversing case m = 2 (mod 4),
    where l(f^m) mixes the period-m and period-(m/2) counts.
    """
    if m < 1:
        raise InputError(f"iterate must be >= 1, got {m}")
    if f.branch_class != BRANCH_FREE:
        raise InputError(
            "Lefschetz period counts need a never-periodic branching point"
        )
    if f.global_sign < 0 and m % 2 == 0 and m % 4 != 0:
        return None
    return abs(periodic_lefschetz(abelianize(f), m))


@dataclass(frozen=True)
class LefschetzFixCheck:
    """Outcome of comparing L(f^m) against the exact fixed-point count."""

    passed: bool
    mode: str
    lefschetz_value: int
    fix_value: int


def lefschetz_fix_check(
    f: MapAction, m: int, lef: int, fix: int
) -> LefschetzFixCheck:
    """Check the sign-matched Lefschetz/fixed-point relation between
    lef = L(f^m) and fix = #Fix(f^m).

    With a never-periodic (or not-yet-returned) branching point the
    relation is an equality: L = -#Fix when the iterate preserves
    orientation, L = +#Fix when it reverses.  When the branching point is
    m-periodic only a two-sided bound holds: L <= #Fix <= 2n - 1 + L,
    with L replaced by |L| for a preserving iterate (the equality case
    fixes L <= 0 there, so the printed bound would be vacuous otherwise;
    the chosen convention is recorded in the mode string).
    """
    if m < 1:
        raise InputError(f"iterate must be >= 1, got {m}")
    k = f.branch_class
    preserving = orientation_of_power(f, m) == "preserving"
    if k == BRANCH_FREE or m % int(k) != 0:
        if preserving:
            return LefschetzFixCheck(lef == -fix, "equality-preserving", lef, fix)
        return LefschetzFixCheck(lef == fix, "equality-reversing", lef, fix)
    bound_l = abs(lef) if preserving else lef
    mode = "bound-abs" if preserving else "bound"
    passed = bound_l <= fix <= 2 * f.n - 1 + bound_l
    return LefschetzFixCheck(passed, mode, lef, fix)


# ---------------------------------------------------------------------------
# certificates

#: conclusion strings, kept stable for machine-readable output
ALL_PERIODS = "Per = N"
ALL_BUT_1 = "Per contains N \\ {1}"
ALL_BUT_2 = "Per contains N \\ {2}"
PAIRWISE = "for every m, m or m+1 in Per"


def multiples_of(m: int) -> str:
    return f"Per contains {m}N"


def multiples_without(m: int, excluded: int) -> str:
    return f"Per contains {m}N \\ {{{excluded}}}"


def tail_from(m0: int) -> str:
    return f"Per contains [{m0}, inf)"


def nonempty_at(m: int) -> str:
    return f"Per_{m} nonempty"


@dataclass(frozen=True)
class PeriodCertificate:
    """One applied period criterion with its re-checkable witness data."""

    rule: str
    conclusion: str
    witness: dict = field(default_factory=dict)


def _branch_is_fixed(branch_class: float) -> bool:
    return branch_class == 1


def _doubling_on(mat: IntMatrix, branch_class: float) -> tuple[str, str, dict] | None:
    """Entry-doubling cases on a chi-matrix; returns (case, conclusion, witness)."""
    n = len(mat)
    for j in range(2, n + 1):
        if abs(mat[j - 1][j - 1]) >= 2:
            return ("a", ALL_PERIODS, {"j": j, "d_jj": mat[j - 1][j - 1]})
    d11 = mat[0][0]
    if d11 >= 2:
        return ("b", ALL_PERIODS, {"d_11": d11})
    if d11 < -2:
        return ("c", ALL_PERIODS, {"d_11": d11})
    if d11 == -2 and _branch_is_fixed(branch_class):
        return ("d", ALL_PERIODS, {"d_11": d11, "branch_class": 1})
    if d11 == -2:
        return ("e", ALL_BUT_2, {"d_11": d11})
    return None


def _lowgrow_pair(mat: IntMatrix, lo: int) -> tuple[int, int] | None:
    """A pair i != j, both >= lo, with |d_ij|,|d_ji| >= 1 and |d_ii|+|d_jj| >= 1."""
    n = len(mat)
    for i in range(lo, n + 1):
        for j in range(lo, n + 1):
            if i == j:
                continue
            if (
                abs(mat[i - 1][j - 1]) >= 1
                and abs(mat[j - 1][i - 1]) >= 1
                and abs(mat[i - 1][i - 1]) + abs(mat[j - 1][j - 1]) >= 1
            ):
                return (i, j)
    return None


def _lowgrow_on(mat: IntMatrix, branch_class: float) -> tuple[str, str, dict] | None:
    """Low-growth cases on a chi-matrix; returns (case, conclusion, witness)."""
    n = len(mat)
    if branch_class == BRANCH_FREE:
        pair = _lowgrow_pair(mat, 2)
        if pair is not None:
            i, j = pair
            return ("a", ALL_PERIODS, {"i": i, "j": j})
        for i in range(2, n + 1):
            if mat[i - 1][0] not in (0, -1):
                return ("b", ALL_BUT_1, {"i": i, "d_i1": mat[i - 1][0]})
        for i in range(2, n + 1):
            if mat[i - 1][0] == -1:
                return ("c", PAIRWISE, {"i": i, "d_i1": -1})
        return None
    if _branch_is_fixed(branch_class):
        pair = _lowgrow_pair(mat, 1)
        if pair is not None:
            i, j = pair
            return ("d", ALL_PERIODS, {"i": i, "j": j})
    return None


def criteria_doubling(f: MapAction) -> PeriodCertificate | None:
    """First firing entry-doubling case on the homology matrix, if any."""
    hit = _doubling_on(abelianize(f), f.branch_class)
    if hit is None:
        return None
    case, conclusion, witness = hit
    return PeriodCertificate(f"doubling({case})", conclusion, witness)


def criteria_lowgrow(f: MapAction) -> PeriodCertificate | None:
    """First firing low-growth case on the homology matrix, if any."""
    hit = _lowgrow_on(abelianize(f), f.branch_class)
    if hit is None:
        return None
    case, conclusion, witness = hit
    return PeriodCertificate(f"lowgrow({case})", conclusion, witness)


def _reinterpret_branch(branch_class: float, m: int) -> float:
    """Least period of the branching point under the m-th iterate."""
    if branch_class == BRANCH_FREE:
        return BRANCH_FREE
    k = int(branch_class)
    return k // math.gcd(k, m)


def criteria_delaylowgrow(f: MapAction, ladder: Ladder) -> PeriodCertificate | None:
    """Apply the period criteria to iterates f^m for m = 2..len(ladder).

    The chi-matrix of f^m is ladder[m-1] = M^m, and the branching
    point's least period rescales to k / gcd(k, m).  Both the doubling
    and the low-growth hypothesis families are tried; a hit at m turns
    the all-periods conclusions into containments over multiples of m.
    A ladder shorter than 2 gives no certificate.
    """
    promote = {
        ALL_PERIODS: lambda m: multiples_of(m),
        ALL_BUT_1: lambda m: multiples_without(m, m),
        ALL_BUT_2: lambda m: multiples_without(m, 2 * m),
    }
    for m, mat in enumerate(ladder[1:], start=2):
        k_m = _reinterpret_branch(f.branch_class, m)
        for family, tester in (("doubling", _doubling_on), ("lowgrow", _lowgrow_on)):
            hit = tester(mat, k_m)
            if hit is None:
                continue
            case, conclusion, witness = hit
            if conclusion not in promote:
                continue
            return PeriodCertificate(
                f"delaylowgrow(m={m}; {family}({case}))",
                promote[conclusion](m),
                {"m": m, **witness},
            )
    return None


def fmbig_test(table: FixCountTable, m: int) -> PeriodCertificate | None:
    """Certify a period-m orbit when fix(m) beats the sum of the fix
    counts at m/p over the primes p dividing m."""
    if not 1 <= m <= table.horizon:
        raise InputError(f"m={m} outside table horizon {table.horizon}")
    # the primes are the divisors with exactly two divisors
    proper = [m // p for p in divisors(m) if len(divisors(p)) == 2]
    bound = sum(table.fix_of(r) for r in proper)
    if table.fix_of(m) > bound:
        return PeriodCertificate(
            "fmbig",
            nonempty_at(m),
            {"m": m, "fix_m": table.fix_of(m), "divisor_sum": bound},
        )
    return None


def dominant_periods(
    f: MapAction, spectrum: SpectrumReport, table: FixCountTable
) -> PeriodCertificate | None:
    """All sufficiently large periods, under a dominant leading eigenvalue.

    The analytic threshold comes from the eigenvalue inequality behind
    m0_bound; the usually much smaller empirical threshold is the least m
    from which the fix-count comparison test fires at every iterate up to
    the census horizon.
    """
    if not dominant_test(spectrum):
        return None
    m0 = m0_bound(spectrum, f.n)
    if m0 is None:
        return None
    horizon = table.horizon
    empirical = None
    for start in range(horizon, 0, -1):
        if fmbig_test(table, start) is None:
            break
        empirical = start
    witness = {"m0_analytic": m0, "horizon": horizon}
    if empirical is not None:
        witness["m0_empirical"] = empirical
    return PeriodCertificate("dominant", tail_from(m0), witness)


# ---------------------------------------------------------------------------
# certified period sets (for census cross-validation)

def certified_periods(cert: PeriodCertificate, horizon: int) -> set[int]:
    """Periods up to the horizon that the certificate promises are present.

    The pairwise conclusion promises no individual period, so it yields
    the empty set.
    """
    c = cert.conclusion
    if c == ALL_PERIODS:
        return set(range(1, horizon + 1))
    if c == ALL_BUT_1:
        return set(range(2, horizon + 1))
    if c == ALL_BUT_2:
        return set(range(1, horizon + 1)) - {2}
    if c == PAIRWISE:
        return set()
    if c.startswith("Per_"):
        m = int(c.split("_")[1].split()[0])
        return {m} if m <= horizon else set()
    if c.startswith("Per contains ["):
        m0 = int(c.split("[")[1].split(",")[0])
        return set(range(m0, horizon + 1))
    if c.startswith("Per contains "):
        rest = c[len("Per contains "):]
        excluded: set[int] = set()
        if "\\" in rest:
            rest, exc = rest.split("\\")
            excluded = {int(x) for x in exc.strip(" {}").split(",")}
        m = int(rest.strip().rstrip("N"))
        return {v for v in range(m, horizon + 1, m)} - excluded
    raise InputError(f"unknown certificate conclusion {c!r}")

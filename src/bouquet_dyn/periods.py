"""Exact periodic-point counts and period certificates.

The census (Moebius inversion of exact fixed-point counts) is the ground
truth here; Lefschetz-based counts serve as cross-checks, since the
census also covers the orientation-reversing m = 2 (mod 4) case where the
periodic Lefschetz number mixes two period counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .errors import InconsistencyError, InputError
from .homology import (
    HEAD_POWERS,
    IntMatrix,
    PowerSequences,
    divisor_sums,
    invert_divisor_sums,
)
from .spectral import SpectrumReport, dominant_test, m0_bound
from .words import (
    Letter,
    MapAction,
    branch_period_under,
    first_letter,
    orientation_of_power,
)


# ---------------------------------------------------------------------------
# exact counts

def fix_counts(
    f: MapAction, seqs: PowerSequences, horizon: int | None = None
) -> tuple[int, ...]:
    """Number of fixed points of every iterate m = 1..horizon (default:
    every iterate the record holds), exactly.

    The record holds, per iterate, the diagonal of M^m, whose entry j is
    chi_j of the iterate image of generator j, and the column sums of
    M^m, whose modulus is the length of that image.  When the branching
    point is not fixed by f^m (`branch_period_under` is not 1) the count
    is |1 - tr M^m|; when it is, the branching point contributes 1 and
    the interior crossings are counted by gamma instead: chi_j less the
    first and last letters of the iterate image when they are a_j (an
    image of one letter has no interior).  Those letters are followed
    along the orbits of a_j and a_j' under the one-step letter map
    (`words.first_letter`), in one forward pass.  Letters are signed
    codes here: a_j is j and a_j' is -j, and the one-step map is one dict
    over the codes +-1..+-n, built from `first_letter` once per call.
    """
    gens = range(1, f.n + 1)
    step = {}
    for j in gens:
        for sign in (1, -1):
            letter = first_letter(f, Letter(j, sign))
            step[sign * j] = letter.sign * letter.index
    firsts = list(gens)
    lasts_inv = [-j for j in gens]
    out = []
    per_iterate = zip(seqs.traces, seqs.diagonals, seqs.column_sums)
    if horizon is not None:
        per_iterate = islice(per_iterate, horizon)
    for m, (tr, diagonal, sums) in enumerate(per_iterate, start=1):
        firsts = [step[c] for c in firsts]
        lasts_inv = [step[c] for c in lasts_inv]
        if branch_period_under(f.branch_class, m) != 1:
            out.append(abs(1 - tr))
            continue
        total = 0
        for j, d_jj, sum_j, first, last_inv in zip(
            gens, diagonal, sums, firsts, lasts_inv
        ):
            if abs(sum_j) <= 1:
                continue
            total += d_jj
            # an end letter a_j (a_j') is not interior: take off +1 (-1)
            if abs(first) == j:
                total -= first // j
            if abs(last_inv) == j:
                total += last_inv // j
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
    per(m) by Moebius inversion (`homology.invert_divisor_sums`) of the
    divisor identity fix(m) = sum over r|m of per(r).

    A negative per count would mean the fixed-point formulas and the
    inversion disagree, which cannot happen for valid input; it is raised
    as an internal inconsistency naming the offending m, as is a broken
    divisor identity, checked by one forward divisor-sum pass.
    """
    horizon = len(fixes)
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    pers = invert_divisor_sums(fixes)
    for m, p in enumerate(pers, start=1):
        if p < 0:
            raise InconsistencyError(
                f"census produced negative period count {p} at m={m}"
            )
    for m, (fix, total) in enumerate(zip(fixes, divisor_sums(pers)), start=1):
        if fix != total:
            raise InconsistencyError(f"census divisor identity broken at m={m}")
    return FixCountTable(horizon, fixes, tuple(pers))


# ---------------------------------------------------------------------------
# Lefschetz cross-checks

@dataclass(frozen=True)
class LefschetzFixCheck:
    """Outcome of comparing L(f^m) against the exact fixed-point count."""

    passed: bool
    mode: str


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
    preserving = orientation_of_power(f, m) == "preserving"
    if branch_period_under(f.branch_class, m) != 1:
        if preserving:
            return LefschetzFixCheck(lef == -fix, "equality-preserving")
        return LefschetzFixCheck(lef == fix, "equality-reversing")
    bound_l = abs(lef) if preserving else lef
    mode = "bound-abs" if preserving else "bound"
    passed = bound_l <= fix <= 2 * f.n - 1 + bound_l
    return LefschetzFixCheck(passed, mode)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Conclusion:
    """What a certificate promises about the period set Per, as data.

    kind is one of
      "multiples": every multiple of m is a period, except `excluded`;
      "tail":      every integer from m on is a period;
      "single":    m is a period;
      "pairwise":  of every two consecutive integers one is a period
                   (m and excluded unused).
    """

    kind: str
    m: int = 1
    excluded: int | None = None

    def text(self) -> str:
        """The conclusion as printed in reports."""
        if self.kind == "pairwise":
            return "for every m, m or m+1 in Per"
        if self.kind == "single":
            return f"Per_{self.m} nonempty"
        if self.kind == "tail":
            return f"Per contains [{self.m}, inf)"
        if self.m == 1 and self.excluded is None:
            return "Per = N"
        step = "N" if self.m == 1 else f"{self.m}N"
        if self.excluded is None:
            return f"Per contains {step}"
        return f"Per contains {step} \\ {{{self.excluded}}}"

    def periods(self, horizon: int) -> set[int]:
        """Periods up to the horizon that the conclusion promises; the
        pairwise conclusion promises no individual period."""
        if self.kind == "pairwise":
            return set()
        if self.kind == "single":
            return {self.m} if self.m <= horizon else set()
        step = 1 if self.kind == "tail" else self.m
        return set(range(self.m, horizon + 1, step)) - {self.excluded}

    def promoted(self, m: int) -> Conclusion | None:
        """The delayed rule: this conclusion about f^m, read as one about
        f over multiples of m, the step and the excluded period scaled by
        m.  Only "multiples" conclusions promote.

        Not sound as it stands: a point of period 1 under f^m may have a
        period under f that properly divides m, so a promised multiple can
        be missing from Per (tests/test_periods.py pins a case).
        """
        if self.kind != "multiples":
            return None
        excluded = None if self.excluded is None else m * self.excluded
        return Conclusion("multiples", m * self.m, excluded)


ALL_PERIODS = Conclusion("multiples")
ALL_BUT_1 = Conclusion("multiples", 1, 1)
ALL_BUT_2 = Conclusion("multiples", 1, 2)
PAIRWISE = Conclusion("pairwise")


@dataclass(frozen=True)
class PeriodCertificate:
    """One applied period criterion with its re-checkable witness data."""

    rule: str
    conclusion: Conclusion
    witness: dict = field(default_factory=dict)


def _doubling_on(mat: IntMatrix, k: int | None) -> tuple[str, Conclusion, dict] | None:
    """Entry-doubling cases on a chi-matrix whose branching point has
    least period k; returns (case, conclusion, witness)."""
    n = len(mat)
    for j in range(2, n + 1):
        if abs(mat[j - 1][j - 1]) >= 2:
            return ("a", ALL_PERIODS, {"j": j, "d_jj": mat[j - 1][j - 1]})
    d11 = mat[0][0]
    if d11 >= 2:
        return ("b", ALL_PERIODS, {"d_11": d11})
    if d11 < -2:
        return ("c", ALL_PERIODS, {"d_11": d11})
    if d11 == -2 and k == 1:
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


def _lowgrow_on(mat: IntMatrix, k: int | None) -> tuple[str, Conclusion, dict] | None:
    """Low-growth cases on a chi-matrix whose branching point has least
    period k; returns (case, conclusion, witness)."""
    n = len(mat)
    if k is None:
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
    if k == 1:
        pair = _lowgrow_pair(mat, 1)
        if pair is not None:
            i, j = pair
            return ("d", ALL_PERIODS, {"i": i, "j": j})
    return None


def _criteria_hits(f: MapAction, head: tuple[IntMatrix, ...]):
    """Yield (m, family, case, conclusion, witness) for each hypothesis
    family that fires on the chi-matrix head[m-1] = M^m of f^m, in order
    of m, doubling before low growth.

    The branching point's least period rescales to k / gcd(k, m).
    """
    for m, mat in enumerate(head, start=1):
        k_m = branch_period_under(f.branch_class, m)
        for family, tester in (("doubling", _doubling_on), ("lowgrow", _lowgrow_on)):
            hit = tester(mat, k_m)
            if hit is not None:
                yield (m, family, *hit)


def _primes_of(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def fmbig_test(table: FixCountTable, m: int) -> PeriodCertificate | None:
    """Certify a period-m orbit when fix(m) beats the sum of the fix
    counts at m/p over the primes p dividing m."""
    if not 1 <= m <= table.horizon:
        raise InputError(f"m={m} outside table horizon {table.horizon}")
    bound = sum(table.fix_of(m // p) for p in _primes_of(m))
    if table.fix_of(m) > bound:
        return PeriodCertificate(
            "fmbig",
            Conclusion("single", m),
            {"m": m, "fix_m": table.fix_of(m), "divisor_sum": bound},
        )
    return None


def dominant_periods(
    f: MapAction,
    spectrum: SpectrumReport,
    fmbig: list[PeriodCertificate | None],
) -> PeriodCertificate | None:
    """All sufficiently large periods, under a dominant leading eigenvalue.

    fmbig[m-1] is fmbig_test at m, for every m up to the census horizon.
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
    horizon = len(fmbig)
    empirical = None
    for start in range(horizon, 0, -1):
        if fmbig[start - 1] is None:
            break
        empirical = start
    witness = {"m0_analytic": m0, "horizon": horizon}
    if empirical is not None:
        witness["m0_empirical"] = empirical
    return PeriodCertificate("dominant", Conclusion("tail", m0), witness)


def period_certificates(
    f: MapAction,
    seqs: PowerSequences,
    census: FixCountTable,
    spectrum: SpectrumReport,
) -> list[PeriodCertificate]:
    """Every period certificate that fires for f, in report order.

    The doubling and low-growth families are tried on M^1..M^min(H, 6),
    read off the record's head, H being the census horizon.  At m = 1 each
    family that fires gives its own certificate.  The first later hit
    whose conclusion promotes gives one delayed certificate over
    multiples of m.  Then fmbig is tested once at each m up to H, and the
    dominant-eigenvalue certificate reads those same results.
    """
    certs = []
    for m, family, case, conclusion, witness in _criteria_hits(
        f, seqs.head[: min(census.horizon, HEAD_POWERS)]
    ):
        if m == 1:
            certs.append(PeriodCertificate(f"{family}({case})", conclusion, witness))
            continue
        promoted = conclusion.promoted(m)
        if promoted is not None:
            certs.append(PeriodCertificate(
                f"delaylowgrow(m={m}; {family}({case}))",
                promoted,
                {"m": m, **witness},
            ))
            break
    fmbig = [fmbig_test(census, m) for m in range(1, census.horizon + 1)]
    certs += [c for c in fmbig if c is not None]
    dominant = dominant_periods(f, spectrum, fmbig)
    if dominant is not None:
        certs.append(dominant)
    return certs

"""Exact periodic-point counts and period certificates.

The census (Moebius inversion of exact fixed-point counts) is the ground
truth here; Lefschetz-based counts serve as cross-checks, since the
census also covers the orientation-reversing m = 2 (mod 4) case where the
periodic Lefschetz number mixes two period counts.
"""

from __future__ import annotations

from itertools import count
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .errors import InconsistencyError, InputError
from .homology import IntMatrix, PowerSequences, invert_divisor_sums
from .spectral import SpectrumReport, m0_bound
from .words import MapAction


# ---------------------------------------------------------------------------
# exact counts

def fix_counts(f: MapAction, traces: Sequence[int]) -> tuple[int, ...]:
    """Number of fixed points of every iterate m = 1..len(traces),
    exactly, where traces[m-1] = tr M^m.

    Unless f fixes the branching point as a based vertex (branch class 1)
    the count is |1 - tr M^m|, at every m: an iterate f^m that fixes a
    branching point of least period k >= 2 fixes it, but not as a based
    vertex, and the count is the same.  At class 1 the branching point
    contributes 1 and the interior crossings are counted by gamma: chi_j
    of the iterate image of a_j, the diagonal entry j of M^m, less its
    first and last letters when they are a_j or a_j'.  Summed over j that
    is the trace less the end letters:

        1 + |tr M^m - sum_j e(first_j) - sum_j e(last_j)|,

    with e(a_j) = +1, e(a_j') = -1 and e = 0 for any other letter, and
    the first-letter term dropped when the image of a_j is one letter,
    which is then both ends.  Allowed words never cancel, so the end
    letters of every iterate image of a_j follow the orbits of a_j and
    a_j' under the one-step first-letter map, in one forward pass: a_j
    goes to the first letter of A_j, a_j' to the inverse of its last.  The
    image of a_j is one letter exactly when every letter on its
    first-letter orbit so far has a one-letter image.  Letters are signed
    codes here, a_j is j and a_j' is -j, and the one-step map is one dict
    over the codes +-1..+-n, read off the image words once per call.
    """
    if f.branch_class != 1:
        return tuple(abs(1 - tr) for tr in traces)
    gens = range(1, f.n + 1)
    step = {}
    short = {}
    for j, image in enumerate(f.images, start=1):
        (first, first_sign), (last, last_sign) = image[0], image[-1]
        step[j], step[-j] = first_sign * first, -last_sign * last
        short[j] = short[-j] = len(image) == 1
    firsts = list(gens)
    lasts_inv = [-j for j in gens]
    singles = [True] * f.n
    out = []
    for tr in traces:
        singles = [one and short[c] for one, c in zip(singles, firsts)]
        firsts = [step[c] for c in firsts]
        lasts_inv = [step[c] for c in lasts_inv]
        ends = 0
        for j, first, last_inv, single in zip(gens, firsts, lasts_inv, singles):
            if not single:
                ends += (first == j) - (first == -j)
            # the last letter is the inverse of last_inv
            ends += (last_inv == -j) - (last_inv == j)
        out.append(1 + abs(tr - ends))
    return tuple(out)


class FixCountTable(NamedTuple):
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

    The inversion is exact, so the identity holds by construction.  A
    negative per count means the fix counts cannot all be right, and is
    raised as an internal inconsistency naming the offending m.
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
    return FixCountTable(horizon, fixes, tuple(pers))


# ---------------------------------------------------------------------------
# Lefschetz cross-checks

def lefschetz_fix_check(
    f: MapAction, lefs: Sequence[int], fixes: Sequence[int]
) -> list[dict]:
    """The report's check row {"m", "mode", "passed"} of every iterate
    m = 1..len(lefs), comparing lefs[m-1] = L(f^m) with fixes[m-1] =
    #Fix(f^m) by the sign-matched Lefschetz/fixed-point relation, in one
    pass.

    Unless f fixes the branching point as a based vertex (branch class 1)
    the relation is an equality: L = -#Fix when the iterate preserves
    orientation, L = +#Fix when it reverses.  At class 1 only a two-sided
    bound holds: L <= #Fix <= 2n - 1 + L, with L replaced by |L| for a
    preserving iterate (the equality case fixes L <= 0 there, so the
    printed bound would be vacuous otherwise; the chosen convention is
    recorded in the mode string).  An iterate reverses orientation when f
    does and m is odd.
    """
    reversing = f.global_sign < 0
    rows = []
    if f.branch_class != 1:
        for m, lef, fix in zip(count(1), lefs, fixes):
            if reversing and m % 2:
                rows.append({"m": m, "mode": "equality-reversing",
                             "passed": lef == fix})
            else:
                rows.append({"m": m, "mode": "equality-preserving",
                             "passed": lef == -fix})
        return rows
    top = 2 * f.n - 1
    for m, lef, fix in zip(count(1), lefs, fixes):
        if reversing and m % 2:
            rows.append({"m": m, "mode": "bound",
                         "passed": lef <= fix <= top + lef})
        else:
            lef = abs(lef)
            rows.append({"m": m, "mode": "bound-abs",
                         "passed": lef <= fix <= top + lef})
    return rows


# ---------------------------------------------------------------------------
# certificates

class Conclusion(NamedTuple):
    """What a certificate promises about the period set Per, as data.

    kind is one of
      "multiples": every multiple of m is a period, except `excluded`;
      "tail":      every integer from m on is a period;
      "listed":    every m in `listed` is a period;
      "pairwise":  of every two consecutive integers one is a period
                   (m and excluded unused).
    """

    kind: str
    m: int = 1
    excluded: int | None = None
    listed: tuple[int, ...] = ()

    def text(self) -> str:
        """The conclusion as printed in reports."""
        if self.kind == "pairwise":
            return "for every m, m or m+1 in Per"
        if self.kind == "listed":
            return "Per_m nonempty at every listed m"
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
        if self.kind == "listed":
            return {m for m in self.listed if m <= horizon}
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


#: the doubling and low-growth families are tried on f^1..f^CRITERIA_POWERS
CRITERIA_POWERS = 6

ALL_PERIODS = Conclusion("multiples")
ALL_BUT_1 = Conclusion("multiples", 1, 1)
ALL_BUT_2 = Conclusion("multiples", 1, 2)
PAIRWISE = Conclusion("pairwise")


class PeriodCertificate(NamedTuple):
    """One applied period criterion with its re-checkable witness data."""

    rule: str
    conclusion: Conclusion
    witness: dict


def _doubling_on(mat: IntMatrix, k: int | None) -> tuple[str, Conclusion, dict] | None:
    """Entry-doubling cases on the chi-matrix of an iterate of f, whose
    branching point has least period k under f; returns (case,
    conclusion, witness)."""
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
    """Low-growth cases on the chi-matrix of an iterate of f, whose
    branching point has least period k under f; returns (case,
    conclusion, witness)."""
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


def _criteria_hits(f: MapAction, powers: Iterable[IntMatrix]):
    """Yield (m, family, case, conclusion, witness) for each hypothesis
    family that fires on the chi-matrix M^m of f^m, the m-th of `powers`,
    in order of m, doubling before low growth.  Every tester reads the
    branch class of f itself: only class 1 fixes the branching point as a
    based vertex, under every iterate.
    """
    for m, mat in enumerate(powers, start=1):
        for family, tester in (("doubling", _doubling_on), ("lowgrow", _lowgrow_on)):
            hit = tester(mat, f.branch_class)
            if hit is not None:
                yield (m, family, *hit)


def fmbig_periods(fixes: Sequence[int]) -> list[int]:
    """Every m up to len(fixes) where fix(m) = fixes[m-1] beats the sum of
    fix(m/p) over the primes p dividing m, each certifying a period-m
    orbit.  One sieve adds fix(1..H/p) into the multiples of each prime
    p, O(H log log H) additions."""
    horizon = len(fixes)
    fix = (0, *fixes)
    bound = [0] * (horizon + 1)
    sieved = bytearray(horizon + 1)
    for p in range(2, horizon + 1):
        if not sieved[p]:
            sieved[p::p] = b"\x01" * (horizon // p)
            bound[p::p] = map(add, bound[p::p], fix[1:horizon // p + 1])
    return [m for m in range(1, horizon + 1) if fix[m] > bound[m]]


def dominant_periods(
    f: MapAction, spectrum: SpectrumReport, fmbig: list[int], horizon: int
) -> PeriodCertificate | None:
    """All sufficiently large periods, under a dominant leading eigenvalue.

    fmbig is `fmbig_periods` of the census up to the horizon.  The
    analytic threshold comes from the eigenvalue inequality behind
    m0_bound; the usually much smaller empirical threshold is the least m
    from which the fix-count comparison test fires at every iterate up to
    the census horizon.  None when `m0_bound` gives no threshold.
    """
    m0 = m0_bound(spectrum, f.n)
    if m0 is None:
        return None
    witness = {"m0_analytic": m0, "horizon": horizon}
    start = horizon + 1
    for m in reversed(fmbig):
        if m != start - 1:
            break
        start = m
    if start <= horizon:
        witness["m0_empirical"] = start
    return PeriodCertificate("dominant", Conclusion("tail", m0), witness)


def period_certificates(
    f: MapAction,
    seqs: PowerSequences,
    census: FixCountTable,
    spectrum: SpectrumReport,
) -> list[PeriodCertificate]:
    """Every period certificate that fires for f, in report order.

    The doubling and low-growth families are tried on M^1..M^min(H,
    CRITERIA_POWERS), H being the census horizon, walked lazily by
    `PowerSequences.matrix_powers`: the record's baby steps first, and a
    later power is multiplied only when the walk reaches it.  At m = 1
    each family that fires gives its own certificate.  The first later
    hit whose conclusion promotes gives one delayed certificate over
    multiples of m and ends the walk, for most maps at m = 2, so past
    the baby steps nothing is multiplied.  Then one fmbig certificate
    lists every m up to H that `fmbig_periods` certifies, and the
    dominant-eigenvalue certificate reads that same list.
    """
    certs = []
    for m, family, case, conclusion, witness in _criteria_hits(
        f, seqs.matrix_powers(min(census.horizon, CRITERIA_POWERS))
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
    fmbig = fmbig_periods(census.fix_counts)
    if fmbig:
        certs.append(PeriodCertificate(
            "fmbig", Conclusion("listed", listed=tuple(fmbig)), {}
        ))
    dominant = dominant_periods(f, spectrum, fmbig, census.horizon)
    if dominant is not None:
        certs.append(dominant)
    return certs

"""Exact periodic-point counts and period certificates.

The census (Moebius inversion of exact fixed-point counts) is the ground
truth here; Lefschetz-based counts serve as cross-checks, since the
census also covers the orientation-reversing m = 2 (mod 4) case where the
periodic Lefschetz number mixes two period counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import InconsistencyError, InputError, Record
from .homology import IntMatrix, PowerSequences, invert_divisor_sums
from .spectral import SpectrumReport, m0_bound
from .words import MapAction


# ---------------------------------------------------------------------------
# exact counts

def fix_counts(f: MapAction, traces: Sequence[int]) -> tuple[int, ...]:
    """Number of fixed points of every iterate m = 1..len(traces),
    exactly, where traces[m-1] = tr M^m.

    The count is |1 - tr M^m| unless f^m preserves orientation (f does,
    or m is even) and f fixes the branching point as a based vertex
    (branch class 1).  There the branching point contributes 1 and the
    interior crossings are counted by gamma: chi_j of the iterate image
    of a_j, the diagonal entry j of M^m, less its first and last letters
    when they are a_j or a_j'.  Summed over j that is the trace less the
    end letters:

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
    reversing = f.global_sign < 0
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
    for m, tr in enumerate(traces, start=1):
        singles = [one and short[c] for one, c in zip(singles, firsts)]
        firsts = [step[c] for c in firsts]
        lasts_inv = [step[c] for c in lasts_inv]
        if reversing and m % 2:
            out.append(abs(1 - tr))
            continue
        ends = 0
        for j, first, last_inv, single in zip(gens, firsts, lasts_inv, singles):
            if not single:
                ends += (first == j) - (first == -j)
            # the last letter is the inverse of last_inv
            ends += (last_inv == -j) - (last_inv == j)
        out.append(1 + abs(tr - ends))
    return tuple(out)


def per_census(fixes: Sequence[int]) -> tuple[int, ...]:
    """per(m) for m = 1..len(fixes), where fixes[m-1] = fix(m), by Moebius
    inversion (`homology.invert_divisor_sums`) of the divisor identity
    fix(m) = sum over r|m of per(r).

    The inversion is exact, so the identity holds by construction.  A
    negative per count means the fix counts cannot all be right, and is
    raised as an internal inconsistency naming the offending m.
    """
    if not fixes:
        raise InputError("horizon must be >= 1, got 0")
    pers = tuple(invert_divisor_sums(fixes))
    for m, p in enumerate(pers, start=1):
        if p < 0:
            raise InconsistencyError(
                f"census produced negative period count {p} at m={m}"
            )
    return pers


# ---------------------------------------------------------------------------
# Lefschetz cross-checks

def lefschetz_fix_check(
    f: MapAction, lefs: Sequence[int], fixes: Sequence[int]
) -> list[dict]:
    """The report's check rows {"m", "mode", "passed"}: lefs[m-1] =
    L(f^m) against fixes[m-1] = #Fix(f^m), m = 1..H = len(lefs), on the
    preserving iterates (every m, or the even m when f reverses).

    A fixed point has index +1 on a reversing iterate and -1 on a
    preserving one, except a based fixed vertex (class 1), whose index
    lies in [1 - 2n, 1] (B. Jiang, Lectures on Nielsen Fixed Point
    Theory, 1983).  A reversing iterate gets no row: M's entries share
    the sign -1 (`PowerSequences.of` enforces one sign), so on odd m,
    tr M^m <= 0 and fix = |L| = L.  At class 1 each preserving m gets a
    "bound" row, 2 - 2n - L <= #Fix <= 2 - L.  Otherwise L = -#Fix on
    every preserving m <= H is one "equality-preserving" row, its m the
    least failing iterate, else None; no row when no m <= H preserves.
    """
    step = 2 if f.global_sign < 0 else 1
    iterates = range(step, len(lefs) + 1, step)
    rows = zip(iterates, lefs[step - 1::step], fixes[step - 1::step])
    if f.branch_class == 1:
        return [{"m": m, "mode": "bound",
                 "passed": 2 - 2 * f.n - lef <= fix <= 2 - lef}
                for m, lef, fix in rows]
    failing = next((m for m, lef, fix in rows if lef != -fix), None)
    return [{"m": failing, "mode": "equality-preserving",
             "passed": failing is None}] if iterates else []


# ---------------------------------------------------------------------------
# certificates

class Conclusion(Record, fields="kind m excluded", defaults=(1, None)):
    """What a certificate promises about the period set Per, as data: the
    str `kind`, int `m` and int or None `excluded`.

    kind is one of
      "multiples": every multiple of m is a period, except `excluded`;
      "tail":      every integer from m on is a period;
      "pairwise":  of every two consecutive integers one is a period
                   (m and excluded unused).
    """

    __slots__ = ()

    def text(self) -> str:
        """The conclusion as printed in reports."""
        if self.kind == "pairwise":
            return "for every m, m or m+1 in Per"
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
        step = 1 if self.kind == "tail" else self.m
        return set(range(self.m, horizon + 1, step)) - {self.excluded}

    def missing(self, period_set: Iterable[int], horizon: int) -> list[int]:
        """Each promised period up to the horizon outside the period set,
        or for "pairwise" each m < horizon with neither m nor m + 1 in it."""
        present = set(period_set)
        if self.kind == "pairwise":
            return [m for m in range(1, horizon)
                    if m not in present and m + 1 not in present]
        return sorted(self.periods(horizon) - present)

    def promoted(self, m: int) -> Conclusion | None:
        """The delayed rule: "Per(f^m) contains sN \\ {e}" read as
        "Per(f) contains m lcm(s, rad(m)) N \\ {m e}", the exclusion kept
        only when lcm(s, rad(m)) divides e.  Only "multiples" conclusions
        promote.

        A point of period p under f has period q = p / g under f^m, g =
        gcd(p, m).  With m = gh, g = gcd(qg, gh) = g gcd(q, h), so h is
        coprime to q.  When rad(m) divides q, every prime of h divides q,
        so h = 1 and p = mq: each promised period q of f^m that rad(m)
        divides gives the period mq of f.
        """
        if self.kind != "multiples":
            return None
        step = math.lcm(self.m, _radical(m))
        kept = self.excluded is not None and self.excluded % step == 0
        return Conclusion("multiples", m * step,
                          m * self.excluded if kept else None)


def _radical(m: int) -> int:
    """The product of the distinct primes dividing m >= 1."""
    out, p = 1, 2
    while m > 1:
        if m % p == 0:
            out *= p
            while m % p == 0:
                m //= p
        p += 1
    return out


#: the doubling and low-growth families are tried on f^1..f^CRITERIA_POWERS
CRITERIA_POWERS = 6

ALL_PERIODS = Conclusion("multiples")
ALL_BUT_1 = Conclusion("multiples", 1, 1)
ALL_BUT_2 = Conclusion("multiples", 1, 2)
PAIRWISE = Conclusion("pairwise")


class PeriodCertificate(Record, fields="rule conclusion witness"):
    """One applied period criterion, its str `rule` and its `Conclusion`,
    with its re-checkable witness data, the dict `witness`."""

    __slots__ = ()


def _doubling_on(mat: IntMatrix) -> tuple[str, Conclusion, dict] | None:
    """The degree rule on every petal j of the chi-matrix of an iterate
    of f, d = d_jj: Per = N when d >= 2 or d < -2, and Per containing
    N \\ {2} when d = -2 (Alseda, Llibre and Misiurewicz, Combinatorial
    Dynamics and Entropy in Dimension One, ch. 4), read only when no
    petal gives Per = N.  Returns (case, conclusion, witness): case a
    for j >= 2, tried first, and b, c, e for d >= 2, < -2, = -2 on j = 1.
    """
    hit = None
    for j in (*range(2, len(mat) + 1), 1):
        d = mat[j - 1][j - 1]
        if -1 <= d <= 1 or (d == -2 and hit is not None):
            continue
        case = "a" if j > 1 else "b" if d > 0 else "c" if d < -2 else "e"
        witness = {"j": j, "d_jj": d} if j > 1 else {"d_11": d}
        hit = (case, ALL_BUT_2 if d == -2 else ALL_PERIODS, witness)
        if d != -2:
            return hit
    return hit


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
            if mat[i - 1][0] >= 1:
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
    in order of m, doubling before low growth.  The degree rule reads the
    matrix alone; the low-growth cases also read the branch class of f
    itself: only class 1 fixes the branching point as a based vertex,
    under every iterate.
    """
    for m, mat in enumerate(powers, start=1):
        for family, hit in (("doubling", _doubling_on(mat)),
                            ("lowgrow", _lowgrow_on(mat, f.branch_class))):
            if hit is not None:
                yield (m, family, *hit)


def dominant_periods(f: MapAction,
                     spectrum: SpectrumReport) -> PeriodCertificate | None:
    """All sufficiently large periods, under a dominant leading eigenvalue:
    every m from the analytic threshold m0 on, which the eigenvalue
    inequality behind `m0_bound` gives.  None when `m0_bound` gives no
    threshold.  The census's period set shows which periods below m0 the
    map has up to the horizon.
    """
    m0 = m0_bound(spectrum, f.n)
    if m0 is None:
        return None
    return PeriodCertificate("dominant", Conclusion("tail", m0, None),
                             {"m0_analytic": m0})


def period_certificates(
    f: MapAction,
    seqs: PowerSequences,
    horizon: int,
    spectrum: SpectrumReport,
) -> list[PeriodCertificate]:
    """Every period certificate that fires for f, in report order, for a
    census up to the horizon H.

    The doubling and low-growth families are tried on M^1..M^min(H,
    CRITERIA_POWERS), walked lazily by
    `PowerSequences.matrix_powers`: the record's baby steps first, and a
    later power is multiplied only when the walk reaches it.  At m = 1
    each family that fires gives its own certificate.  The first later
    hit whose conclusion promotes gives one delayed certificate over
    multiples of m and ends the walk, for most maps at m = 2, so past
    the baby steps nothing is multiplied.  The dominant-eigenvalue
    certificate comes last.
    """
    certs = []
    for m, family, case, conclusion, witness in _criteria_hits(
        f, seqs.matrix_powers(min(horizon, CRITERIA_POWERS))
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
    dominant = dominant_periods(f, spectrum)
    if dominant is not None:
        certs.append(dominant)
    return certs

"""Exact periodic-point counts and period certificates.

The census (Moebius inversion of exact fixed-point counts) is the ground
truth here; Lefschetz-based counts serve as cross-checks, since the
census also covers the orientation-reversing m = 2 (mod 4) case where the
periodic Lefschetz number mixes two period counts.
"""

import math

from .errors import InconsistencyError, Record, check_int, check_ints, shown
from .homology import IntMatrix, PowerSequences, cycles, invert_divisor_sums
from .spectral import SpectrumReport, m0_bound
from .words import MapAction


# ---------------------------------------------------------------------------
# exact counts

def fix_counts(f: MapAction, traces: "Sequence[int]") -> tuple[int, ...]:
    """Number of fixed points of every iterate m = 1..len(traces),
    exactly, where traces[m-1] = tr M^m.

    The count is |1 - tr M^m| unless f fixes the branching point as a
    based vertex (branch class 1).  There it is, in closed form,

        fix(m) = 1 + |tr M^m| - sum of w(C) over the cycles C of phi
                 whose length divides m,

    phi the one-step first-letter map on the 2n letters (a_j goes to the
    first letter of A_j, a_j' to the inverse of its last) and w(C) the
    number of a_j' on C, plus its a_j unless every letter on C has a
    one-letter image.

    Why: on a preserving iterate the image words are plain, so tr M^m
    counts each a_j in the image of a_j; with the based vertex these are
    the fixed points, less the last letter and, in an image of two
    letters or more, the first, each if it is a_j.  Allowed words never
    cancel, so f^m(a_j) starts with a_j exactly when phi^m fixes a_j,
    that is when a_j lies on a cycle whose length divides m, and ends
    with a_j when phi^m fixes a_j'.  The first m letters of the orbit of
    a_j then cover its cycle, so the image is one letter exactly when
    every letter on the cycle has a one-letter image: the correction has
    no preperiod, and its period is the lcm of the cycle lengths.  On a
    reversing f, phi flips every sign, so every cycle has even length:
    at odd m none counts, and tr M^m <= 0 gives |1 - tr M^m|.  For
    `cycles`, a_j is the code 2j - 2 and a_j' the code 2j - 1.
    """
    check_ints(traces, "trace")
    if f.branch_class != 1:
        return tuple(abs(1 - tr) for tr in traces)
    step = []
    for image in f.images:
        (first, first_sign), (last, last_sign) = image[0], image[-1]
        step += [2 * first - 1 - (first_sign > 0),
                 2 * last - 1 - (last_sign < 0)]
    out = [1 + abs(tr) for tr in traces]
    for cycle in cycles(step):
        short = all(len(f.images[c // 2]) == 1 for c in cycle)
        weight = sum(c % 2 for c in cycle) if short else len(cycle)
        for m in range(len(cycle), len(out) + 1, len(cycle)):
            out[m - 1] -= weight
    return tuple(out)


def per_census(fixes: "Sequence[int]") -> tuple[int, ...]:
    """per(m) for m = 1..len(fixes), where fixes[m-1] = fix(m), by Moebius
    inversion (`homology.invert_divisor_sums`) of the divisor identity
    fix(m) = sum over r|m of per(r).

    The inversion is exact, so the identity holds by construction.
    per(m) counts the points of the orbits of least period m, so a per
    count that is negative, or else one that m does not divide (A. Dold,
    Invent. Math. 74, 1983), means the fix counts cannot all be right,
    and is raised as an internal inconsistency naming the offending m.
    """
    check_int(len(fixes), "horizon", 1)
    check_ints(fixes, "fix count")
    pers = tuple(invert_divisor_sums(fixes))
    for m, p in enumerate(pers, start=1):
        if p < 0:
            raise InconsistencyError(
                f"census produced negative period count {shown(p)} at m={m}")
    for m, p in enumerate(pers, start=1):
        if p % m:
            raise InconsistencyError(f"census produced period count {shown(p)} "
                                     f"at m={m}, not a multiple of {m}")
    return pers


# ---------------------------------------------------------------------------
# Lefschetz cross-checks

def lefschetz_fix_check(
    f: MapAction, lefs: "Sequence[int]", fixes: "Sequence[int]"
) -> list[dict]:
    """The report's check rows {"m", "mode", "passed"}: lefs[m-1] =
    L(f^m) against fixes[m-1] = #Fix(f^m), m = 1..H = len(lefs), on the
    preserving iterates (every m, or the even m when f reverses).

    A fixed point has index +1 on a reversing iterate and -1 on a
    preserving one, except a based fixed vertex (class 1), whose index
    lies in [1 - 2n, 1] (B. Jiang, Lectures on Nielsen Fixed Point
    Theory, 1983).  A reversing iterate gets no row: M's entries share
    the sign -1 (`PowerSequences.of` enforces one sign), so on odd m,
    tr M^m <= 0 and fix = |L| = L.  Class 1 gets no row: its bound
    2 - 2n - L <= #Fix <= 2 - L reads 0 <= sum w(C) <= 2n, which
    `fix_counts`'s disjoint cycles give.  Otherwise L = -#Fix on every
    preserving m <= H is one "equality-preserving" row, its m the least
    failing iterate, else None; no row when no m <= H preserves.
    """
    step = 2 if f.global_sign < 0 else 1
    iterates = range(step, len(lefs) + 1, step)
    if f.branch_class == 1 or not iterates:
        return []
    rows = zip(iterates, lefs[step - 1::step], fixes[step - 1::step])
    failing = next((m for m, lef, fix in rows if lef != -fix), None)
    return [{"m": failing, "mode": "equality-preserving",
             "passed": failing is None}]


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

    def failure(self, period_set: "Iterable[int]", horizon: int) -> str | None:
        """Where the census's period set up to the horizon breaks the
        conclusion, as the report's `failure` text, or None when it holds:
        each promised period outside the set, or for "pairwise" each m <
        horizon with neither m nor m + 1 in it."""
        present = set(period_set)
        pairwise = self.kind == "pairwise"
        gaps = ([m for m in range(1, horizon) if present.isdisjoint((m, m + 1))]
                if pairwise else sorted(self.periods(horizon) - present))
        if not gaps:
            return None
        at = ", ".join(map(str, gaps))
        return f"the census up to horizon {horizon} has " + (
            f"neither period m nor m+1 at m = {at}, and the conclusion "
            "promises one of them" if pairwise
            else f"no period {at}, which the conclusion promises")

    def promoted(self, m: int) -> "Conclusion | None":
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


def _doubling_on(mat: IntMatrix) -> PeriodCertificate | None:
    """The degree rule on every petal j of the chi-matrix of an iterate
    of f, d = d_jj: Per = N when d >= 2 or d < -2, and Per containing
    N \\ {2} when d = -2 (Alseda, Llibre and Misiurewicz, Combinatorial
    Dynamics and Entropy in Dimension One, ch. 4), read only when no
    petal gives Per = N.  The rule is doubling(a) for j >= 2, tried
    first, and doubling(b), (c), (e) for d >= 2, < -2, = -2 on j = 1.
    """
    hit = None
    for j in (*range(2, len(mat) + 1), 1):
        d = mat[j - 1][j - 1]
        if -1 <= d <= 1 or (d == -2 and hit is not None):
            continue
        case = "a" if j > 1 else "b" if d > 0 else "c" if d < -2 else "e"
        witness = {"j": j, "d_jj": d} if j > 1 else {"d_11": d}
        hit = PeriodCertificate(f"doubling({case})",
                                ALL_BUT_2 if d == -2 else ALL_PERIODS, witness)
        if d != -2:
            return hit
    return hit


def _lowgrow_pair(mat: IntMatrix, lo: int) -> tuple[int, int] | None:
    """The first pair i != j, both >= lo, with d_ij, d_ji nonzero and d_ii
    or d_jj nonzero."""
    ids = range(lo, len(mat) + 1)
    for i in ids:
        for j in ids:
            if (i != j and mat[i - 1][j - 1] and mat[j - 1][i - 1]
                    and (mat[i - 1][i - 1] or mat[j - 1][j - 1])):
                return (i, j)
    return None


def _lowgrow_on(mat: IntMatrix, k: int | None) -> PeriodCertificate | None:
    """The low-growth rule on the chi-matrix of an iterate of f, whose
    branching point has least period k under f.  Free (k None):
    lowgrow(a) from a pair i, j >= 2, else lowgrow(b) from some d_i1 >= 1,
    else lowgrow(c) from some d_i1 = -1, i >= 2.  Class 1, the only class
    that fixes the branching point as a based vertex under every iterate:
    lowgrow(d) from a pair i, j >= 1.  No rule reads another class."""
    if k not in (None, 1):
        return None
    pair = _lowgrow_pair(mat, 1 if k == 1 else 2)
    if pair is not None:
        i, j = pair
        return PeriodCertificate("lowgrow(d)" if k == 1 else "lowgrow(a)",
                                 ALL_PERIODS, {"i": i, "j": j})
    if k == 1:
        return None
    for i in range(2, len(mat) + 1):
        if mat[i - 1][0] >= 1:
            return PeriodCertificate("lowgrow(b)", ALL_BUT_1,
                                     {"i": i, "d_i1": mat[i - 1][0]})
    for i in range(2, len(mat) + 1):
        if mat[i - 1][0] == -1:
            return PeriodCertificate("lowgrow(c)", PAIRWISE,
                                     {"i": i, "d_i1": -1})
    return None


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

    The degree and low-growth rules are tried on M^1..M^min(H,
    CRITERIA_POWERS), walked lazily by `PowerSequences.matrix_powers`:
    the record's baby steps first, and a later power is multiplied only
    when the walk reaches it.  At m = 1 each rule that fires gives its
    own certificate, the degree rule first.  On M^m, m > 1, the first
    hit whose conclusion promotes gives one delayed certificate over
    multiples of m and ends the walk, for most maps at m = 2, so past
    the baby steps nothing is multiplied.  The dominant-eigenvalue
    certificate comes last.
    """
    certs = []
    powers = seqs.matrix_powers(min(horizon, CRITERIA_POWERS))
    for m, mat in enumerate(powers, start=1):
        hits = [cert for cert in (_doubling_on(mat),
                                  _lowgrow_on(mat, f.branch_class))
                if cert is not None]
        if m == 1:
            certs += hits
            continue
        delayed = [PeriodCertificate(f"delaylowgrow(m={m}; {cert.rule})",
                                     promoted, {"m": m, **cert.witness})
                   for cert in hits
                   if (promoted := cert.conclusion.promoted(m)) is not None]
        if delayed:
            certs.append(delayed[0])
            break
    dominant = dominant_periods(f, spectrum)
    if dominant is not None:
        certs.append(dominant)
    return certs

"""Shared helpers: seeded random map generators, paper-derived fixtures,
and the independent references that the library's one route per
quantity is checked against (a ladder of matrix products and repeated
squaring for the power sequences, Faddeev-LeVerrier for their
characteristic polynomial, a Bareiss elimination of pI - q|M| for the
shift test of the Perron root, Euclid's algorithm in `Fraction`s for the
squarefree parts of one, the spectrum block one call per step for the
bits of `spectral`'s roots, residual, m0 bound and radius check, divisors and mu for the Moebius sieve and its
forward divisor sums, the fix-count comparison test for the census's
period set, the per-iterate Lefschetz check rows for their one-row
statement, letter orbits for the fix counts' signed codes, iterate
images expanded word by word for the per-iterate counts, a depth-first
walk over every piece of the composed lifts for the oracle's count on
the Markov partition, and the same walk's cover counts for the norms
||M^m||_1), the one `record`, `census`, `certificates`
and `certificate` the suite reads a map's census and certificates with,
and the one set of a report's entropy keys."""

import json
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import zip_longest

import pytest

from bouquet_dyn import cli, spectral
from bouquet_dyn.errors import (InputError, LiftConstructionError, check_int,
                                shown)
from bouquet_dyn.homology import (IntMatrix, PowerSequences, abelianize,
                                  invert_divisor_sums, mat_mul)
from bouquet_dyn.periods import fix_counts, per_census, period_certificates
from bouquet_dyn.pl_oracle import PLLift, build_lift, lift_branch_period
from bouquet_dyn.spectral import eigenvalues
from bouquet_dyn.words import BRANCH_FREE, Letter, MapAction, Word


class BudgetError(RuntimeError):
    """A reference computation exceeded its size budget; `smallest_m` is
    the smallest iterate that does not fit."""

    def __init__(self, message, smallest_m=None):
        super().__init__(message)
        self.smallest_m = smallest_m


#: the keys of a report's `entropy` block (schema 9 and on)
ENTROPY_KEYS = {"spectral", "gap_at_horizon", "horizon"}


def load_fixture(name: str) -> tuple[cli.MapSpecDocument, dict | None]:
    """A bundled fixture's parsed map and its frozen report, if any."""
    text, expected = cli._fixture_texts(name)
    return cli.parse_spec(text), None if expected is None else json.loads(expected)


# ---------------------------------------------------------------------------
# the census and the certificates, read as a report reads them

def record(f: MapAction, k: int) -> PowerSequences:
    return PowerSequences.of(abelianize(f), k)


def census(f: MapAction, horizon: int) -> tuple[int, ...]:
    """per(m) for m = 1..horizon."""
    return per_census(fix_counts(f, record(f, horizon).traces))


def certificates(f: MapAction, horizon: int = 12):
    seqs = record(f, horizon)
    per_census(fix_counts(f, seqs.traces))  # a report raises here first
    return period_certificates(f, seqs, horizon, eigenvalues(seqs.char))


def certificate(f: MapAction, rule: str, horizon: int = 12, **witness):
    """The first certificate whose rule starts with `rule` and whose
    witness holds the given entries, or None."""
    for cert in certificates(f, horizon):
        if cert.rule.startswith(rule) and all(
            cert.witness.get(k) == v for k, v in witness.items()
        ):
            return cert
    return None


# ---------------------------------------------------------------------------
# word expansion: the iterate images letter by letter

def inverse(w: Word) -> Word:
    """The reversed, sign-flipped word."""
    return Word(Letter(index, -sign) for index, sign in reversed(w))


def concat(u: Word, v: Word) -> Word:
    return Word(u + v)


def chi(w: Word, j: int) -> int:
    """Signed number of occurrences of generator j anywhere in w: a
    reference for `abelianize`, which counts each word in one pass."""
    return sum(l.sign for l in w if l.index == j)


def gamma(w: Word, j: int) -> int:
    """Signed occurrence count of generator j at strictly interior positions."""
    return sum(l.sign for l in w[1:-1] if l.index == j)


def apply_endo(f: MapAction, w: Word) -> Word:
    """Image of w under the endomorphism induced by f: each plain letter
    aj becomes its image word, each inverse letter the inverse of it.
    Allowed words never cancel, so no reduction is needed."""
    out: list[Letter] = []
    for l in w:
        img = f.image(l.index)
        out.extend(img if l.sign > 0 else inverse(img))
    return Word(out)


def branch_period_under(k: int | None, m: int) -> int | None:
    """Least period of the branching point under f^m, given its least
    period k under f (None: never periodic).  It is 1, so the branching
    point is fixed by f^m, exactly when k divides m."""
    return None if k is None else k // math.gcd(k, m)


def iterate_action(f: MapAction, m: int, budget: int = 10**6) -> MapAction:
    """The action of the m-th iterate, with image words fully expanded.

    Its branch class is 1 when f's is: f, and so f^m, fixes the branching
    point as a based vertex.  Otherwise it is the branching point's least
    period under f^m, `branch_period_under(k, m)`, or free where that is
    1: f^m then fixes the branching point, but not as a based vertex, and
    only class 1 changes a count.  Raises BudgetError (naming the
    smallest offending iterate) if the expanded words would exceed
    `budget` letters in total."""
    assert m >= 1, m
    words = f.images
    for step in range(2, m + 1):
        words = tuple(apply_endo(f, w) for w in words)
        total = sum(len(w) for w in words)
        if total > budget:
            raise BudgetError(
                f"expanded words of iterate {step} need {total} letters "
                f"(budget {budget})",
                smallest_m=step,
            )
    k_m = branch_period_under(f.branch_class, m)
    if k_m == 1 and f.branch_class != 1:
        k_m = BRANCH_FREE
    return MapAction(f.n, words, k_m)


def random_action(
    rng: random.Random, n_max: int = 3, len_max: int = 4, sign: int | None = None
) -> MapAction:
    """Any sign-homogeneous action; no expansion guarantees."""
    n = rng.randint(1, n_max)
    s = sign if sign is not None else rng.choice((1, -1))
    images = []
    for _ in range(n):
        r = rng.randint(1, len_max)
        images.append(Word(tuple(Letter(rng.randint(1, n), s) for _ in range(r))))
    return MapAction(n, tuple(images), BRANCH_FREE)


def _random_anchored_action(
    rng: random.Random, n_max: int, len_max: int, sign: int | None
) -> MapAction:
    """A free-declared action whose every image word visits circle 1 (so
    the canonical lift can exist) and whose image of circle 1 has at
    least two letters (so no circle maps to itself by an isometry)."""
    n = rng.randint(1, n_max)
    s = sign if sign is not None else rng.choice((1, -1))
    images = []
    for j in range(n):
        r = rng.randint(2, len_max) if j == 0 else rng.randint(1, len_max)
        idxs = [1] + [rng.randint(1, n) for _ in range(r - 1)]
        rng.shuffle(idxs)
        images.append(Word(tuple(Letter(i, s) for i in idxs)))
    return MapAction(n, tuple(images), BRANCH_FREE)


def random_expanding_action(
    rng: random.Random,
    n_max: int = 3,
    len_max: int = 4,
    sign: int | None = None,
    max_tries: int = 2000,
) -> tuple[MapAction, PLLift]:
    """A lift-viable action whose branch orbit stays off the integers.

    Every image word visits circle 1 (so the canonical lift exists), the
    image of circle 1 has at least two letters (so no circle maps to
    itself by an isometry), and the lift's branch orbit avoids integers
    to depth 13, matching the declared never-periodic branching point.
    """
    for _ in range(max_tries):
        f = _random_anchored_action(rng, n_max, len_max, sign)
        try:
            lift = build_lift(f)
        except LiftConstructionError:
            continue
        if lift_branch_period(lift, 13) is not None:
            continue
        return f, lift
    raise AssertionError("could not generate a lift-viable action")


def random_branch_periodic_action(
    rng: random.Random,
    n_max: int = 4,
    len_max: int = 4,
    watch: int = 13,
) -> tuple[MapAction, PLLift]:
    """A lift-viable action whose lift's branch orbit returns to an
    integer within `watch` steps, declared with that period k.  The
    canonical lift sends the branching point to the midpoint of circle 1,
    so k >= 2."""
    for _ in range(2000):
        f = _random_anchored_action(rng, n_max, len_max, None)
        try:
            lift = build_lift(f)
        except LiftConstructionError:
            continue
        k = lift_branch_period(lift, watch)
        if k is None:
            continue
        assert k >= 2, (f, k)
        return MapAction(f.n, f.images, k), lift
    raise AssertionError("could not generate a branch-periodic action")


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n)
    )


def random_signed_matrix(rng: random.Random, n: int, hi: int = 3):
    """A random matrix whose entries share one sign, as an abelianized
    map's do."""
    sign = rng.choice((1, -1))
    return tuple(
        tuple(sign * x for x in row) for row in random_matrix(rng, n, 0, hi)
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xB0C1E7)


#: (M^1, ..., M^k): ladder[m-1] is the m-th power
Ladder = tuple[IntMatrix, ...]


def identity(n: int) -> IntMatrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def norm1(a: IntMatrix) -> int:
    """Sum of absolute values of all entries."""
    return sum(sum(map(abs, row)) for row in a)


def powers(a: IntMatrix, k: int) -> Ladder:
    """The ladder (M^1, ..., M^k) as a running product, one multiplication
    per power: a reference for `PowerSequences`, which builds only the
    first few powers as matrices."""
    out = [a] if k else []
    while len(out) < k:
        out.append(mat_mul(out[-1], a))
    return tuple(out)


def cap_edge_spec() -> str:
    """A map on the cap's 64 circles whose every image has 64 letters:
    a_j -> a1 a_((j i + i^2) mod 64 + 1) for i = 1..63."""
    return "n=64\nbranch: free\n" + "".join(
        f"a{j} -> a1 " + " ".join(f"a{(j * i + i * i) % 64 + 1}"
                                  for i in range(1, 64)) + "\n"
        for j in range(1, 65))


def twin32_spec() -> str:
    """Two equal 32-generator blocks of 64-letter words: every column sum
    of |M| is 64, so the Perron root is 64, and the float solver overflows
    to nan on the squarefree part's 45-digit coefficients."""
    r = random.Random(1)
    words = [[r.randint(1, 32) for _ in range(64)] for _ in range(32)]
    return "n=64\nbranch: free\n" + "".join(
        f"a{b + j + 1} -> " + " ".join(f"a{b + x}" for x in words[j]) + "\n"
        for b in (0, 32) for j in range(32))


def probe64_spec(index: int) -> str:
    """Map `index` of a seeded draw of n = 64 maps whose images are plain
    words of 1-3 uniform letters."""
    rng = random.Random(7)
    for _ in range(index + 1):
        images = [" ".join(f"a{rng.randint(1, 64)}"
                           for _ in range(rng.randint(1, 3)))
                  for _ in range(64)]
    return "n=64\nbranch: free\n" + "".join(
        f"a{j} -> {w}\n" for j, w in enumerate(images, start=1))


def char_poly(a: IntMatrix) -> list[int]:
    """Coefficients [c_0, ..., c_n] of det(xI - A), c_n = 1, by the
    Faddeev-LeVerrier recursion (n matrix products, every division exact):
    a reference for `PowerSequences.char`, which reads Newton's
    identities off the traces."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n)
    for i in range(1, n + 1):
        am = mat_mul(a, m)
        t = trace(am)
        assert t % i == 0, "inexact division in characteristic polynomial"
        c = -t // i
        coeffs[n - i] = c
        m = tuple(
            tuple(am[r][s] + (c if r == s else 0) for s in range(n))
            for r in range(n)
        )
    return coeffs


def bareiss_exceeds_perron_root(a: IntMatrix, p: int, q: int) -> bool:
    """Whether p/q > lambda, the Perron root of the entrywise |a|, for q
    >= 1, by a matrix test: a reference for
    `spectral.exceeds_perron_root`, which reads the characteristic
    polynomial instead.

    That holds exactly when every leading principal minor of B = pI -
    q|a| is positive, B then being a nonsingular M-matrix, whether |a| is
    irreducible or not (Berman and Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6; Fiedler and Ptak, Czech. Math. J. 12,
    1962).  One fraction-free (Bareiss) elimination of B decides it: each
    step's pivot is the next leading minor, every division is exact, and
    it stops at the first pivot <= 0.
    """
    n = len(a)
    b = [[-q * abs(x) for x in row] for row in a]
    for i, row in enumerate(b):
        row[i] += p
    prev = 1
    for k in range(n):
        top = b[k]
        pivot = top[k]
        if pivot <= 0:
            return False
        for row in b[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return True


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials [c_0, ..., c_d]."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_gcd(a: list[int], b: list[int]) -> list[Fraction]:
    """The monic gcd over Q of two polynomials [c_0, ..., c_d], not both
    zero, by Euclid's algorithm in `Fraction`s: a reference for
    `spectral.squarefree_parts`, which stays in the integers."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            trim(a)
        a, b = b, a
    return [c / a[-1] for c in a]


# ---------------------------------------------------------------------------
# the spectrum block one call per step: the references that `spectral`
# and `cli._radius_failure` must match bit for bit

def horner(coeffs: list[float], z: complex) -> complex:
    """The polynomial [c_0, ..., c_d] at z by Horner's rule, from 0j."""
    out = complex(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def durand_kerner_stepwise(coeffs: list[float]) -> list[complex]:
    """`spectral._durand_kerner` with a `horner` call per root per sweep."""
    d = len(coeffs) - 1
    if d == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    turns = [2 * math.pi * (i + 0.25) / d for i in range(d)]
    roots = [radius * complex(math.cos(t), math.sin(t)) for t in turns]
    for _ in range(200):
        moved = 0.0
        new = list(roots)
        for i in range(d):
            denom = complex(1)
            for j in range(d):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                continue
            step = horner(coeffs, roots[i]) / denom
            new[i] = roots[i] - step
            moved = max(moved, abs(step))
        roots = new
        if moved < 1e-14:
            break
    return roots


def yun_parts(char: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """`spectral.squarefree_parts` with Yun's second pass run on every
    polynomial, a squarefree one too."""
    spectral._check_monic(char)
    df = spectral._derivative(char)
    g = spectral._gcd(list(char), df)
    b, c = spectral._div_monic(char, g), spectral._div_monic(df, g)
    parts = []
    i = 1
    while len(b) > 1:
        d = spectral._trim([x - y for x, y in
                            zip_longest(c, spectral._derivative(b),
                                        fillvalue=0)])
        a = spectral._gcd(b, d)
        b, c = spectral._div_monic(b, a), spectral._div_monic(d, a)
        if len(a) > 1:
            parts.append((tuple(a), i))
        i += 1
    return parts


def eigenvalues_stepwise(char: Sequence[int]) -> spectral.SpectrumReport:
    """`spectral.eigenvalues` from `yun_parts`, a fresh float copy of each
    part, `durand_kerner_stepwise`, and the residual as `max` over every
    root, repeated ones too."""
    spectral._check_monic(char)
    zeros = next(i for i, c in enumerate(char) if c)
    coeffs = list(char[zeros:])
    try:
        monic = [float(c) for c in coeffs]
        found = [z for part, i in yun_parts(coeffs)
                 for z in durand_kerner_stepwise([float(c) for c in part]) * i]
        scale = 1.0 + max(abs(c) for c in monic)
        residual = max((abs(horner(monic, z)) / scale for z in found),
                       default=0.0)
        roots = found + [complex(0)] * zeros
        roots.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    except OverflowError:
        raise InputError("polynomial overflows a float, got "
                         + shown(tuple(char))) from None
    return spectral.SpectrumReport(tuple(roots), residual)


def logsumexp(vals: list[float]) -> float:
    top = max(vals)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


def m0_bound_stepwise(s: spectral.SpectrumReport, dim: int) -> int | None:
    """`spectral.m0_bound` with a `logsumexp` call over a list per step."""
    if not spectral.dominant_test(s):
        return None
    s1 = s.spectral_radius
    s2 = s.second_modulus
    log_s1 = math.log(s1)
    log_s2 = math.log(s2) if s2 > 0 else -math.inf
    log_d = math.log(dim)

    def passes(m: int) -> bool:
        rhs = logsumexp([
            log_d + (m / 2) * log_s1,
            log_d,
            log_d + m * log_s2,
            0.0,
        ])
        lhs = m * log_s1
        return lhs - rhs > 1e-12 * max(1.0, lhs)

    lo, m = 0, 1
    while not passes(m):
        if m == spectral.M0_SCAN_CAP:
            return None
        lo, m = m, min(2 * m, spectral.M0_SCAN_CAP)
    return lo + 1 + bisect_left(range(lo + 1, m), True, key=passes)


def shift_exceeds_perron_root(char: Sequence[int], p: int, q: int) -> bool:
    """`spectral.exceeds_perron_root` for one p, validated and scaled
    on its own."""
    check_int(p, "p")
    check_int(q, "q", 1)
    spectral._check_monic(char)
    d = len(char) - 1
    shifted = [c * q ** (d - i) for i, c in enumerate(char)]
    for i in range(d):
        for j in reversed(range(i, d)):
            shifted[j] += p * shifted[j + 1]
        if shifted[i] <= 0:
            return False
    return True


def radius_failure_stepwise(spectrum: spectral.SpectrumReport,
                            char: tuple[int, ...], sign: int,
                            col_sums: list[int]) -> str | None:
    """`cli._radius_failure` with one `shift_exceeds_perron_root` call
    per side, the lower one only when the upper one holds."""
    r = spectrum.spectral_radius
    if all(math.isfinite(abs(z)) for z in spectrum.values):
        perron = [c * sign ** (len(char) - 1 - i) for i, c in enumerate(char)]
        w = min(1e-9 * r, spectral.DOMINANCE_EPS)
        scale = 1 << 40
        hi_num, hi_den = (r + w).as_integer_ratio()
        lo_num, lo_den = (r - w).as_integer_ratio()
        if (shift_exceeds_perron_root(perron, -(-hi_num * scale // hi_den),
                                      scale)
                and not shift_exceeds_perron_root(
                    perron, lo_num * scale // lo_den, scale)):
            return None
    return (f"eigenvalue moduli must be finite, the largest within a relative "
            f"1e-9 (at most {spectral.DOMINANCE_EPS}) of the Perron root of "
            f"|M|, in [{min(col_sums)}, {max(col_sums)}] (the least and "
            f"largest column sums of |M|); the solver gives spectral radius "
            f"{cli._fmt_real(r)}")


def mat_pow(a: IntMatrix, m: int) -> IntMatrix:
    """Exact m-th power by repeated squaring (m >= 0): a reference for
    the ladder, which builds M^1..M^k as a running product."""
    assert m >= 0, m
    out = identity(len(a))
    base = a
    while m:
        if m & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        m >>= 1
    return out


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending (trial division to sqrt m)."""
    if m < 1:
        raise InputError(f"need a positive integer, got {m}")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def divisor_sums(values: Sequence[int]) -> list[int]:
    """out[m-1] = sum of values[d-1] over the divisors d of m, for every m
    up to len(values): each d is added into its multiples, O(H log H).
    The forward pass that `homology.invert_divisor_sums` inverts."""
    horizon = len(values)
    out = [0] * horizon
    for d, v in enumerate(values, start=1):
        for multiple in range(d - 1, horizon, d):
            out[multiple] += v
    return out


def primes_of(m: int) -> list[int]:
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


def fmbig_reference(fixes: Sequence[int]) -> list[int]:
    """Every m <= len(fixes) with fix(m) > sum of fix(m/p) over the primes
    p dividing m, fixes[m-1] = fix(m), each m tested on its own.  A point
    of least period below m lies in some Fix(f^(m/p)), so each such m has
    per(m) > 0: the list lies in the census's period set."""
    return [
        m for m in range(1, len(fixes) + 1)
        if fixes[m - 1] > sum(fixes[m // p - 1] for p in primes_of(m))
    ]


def mobius(m: int) -> int:
    """Moebius function: 1, 0 on square factors, else (-1)^(#prime factors)."""
    if m < 1:
        raise InputError(f"need a positive integer, got {m}")
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def lefschetz_numbers(mat: IntMatrix, horizon: int
                      ) -> tuple[list[int], list[int]]:
    """L(f^m) and l(f^m) for m = 1..horizon, as two lists indexed by m - 1,
    read off the traces of the reference ladder (so the entries of mat
    may have both signs), the second by the report's Moebius sieve."""
    lefs = [1 - trace(power) for power in powers(mat, horizon)]
    return lefs, invert_divisor_sums(lefs)


def check_rows_reference(f: MapAction, lefs: Sequence[int],
                         fixes: Sequence[int]) -> list[dict]:
    """The check rows of schema 8, built from schema 5's per-iterate rule:
    one row per iterate m, "equality-reversing" (L = fix) when f^m
    reverses, none when it preserves at class 1 (where `fix_counts` makes
    the index bound an identity), "equality-preserving" (L = -fix)
    otherwise; then the reversing rows dropped and the preserving rows
    folded into one, whose m is the first that fails, else None."""
    rows = []
    for m, (lef, fix) in enumerate(zip(lefs, fixes), start=1):
        if f.global_sign < 0 and m % 2:
            mode, passed = "equality-reversing", lef == fix
        elif f.branch_class == 1:
            continue
        else:
            mode, passed = "equality-preserving", lef == -fix
        rows.append({"m": m, "mode": mode, "passed": passed})
    equalities = [row for row in rows if row["mode"] == "equality-preserving"]
    failing = [row["m"] for row in equalities if not row["passed"]]
    if not equalities:
        return []
    return [{"m": failing[0] if failing else None,
             "mode": "equality-preserving", "passed": not failing}]


def period_set(pers: Sequence[int]) -> set[int]:
    """Every m with a period-m orbit, for pers[m-1] = per(m)."""
    return {m for m, p in enumerate(pers, start=1) if p > 0}


def first_letter(f: MapAction, l: Letter) -> Letter:
    """First letter of the image of the one-letter word l.

    Allowed words never cancel, so the first letter of f(w) is the first
    letter of the image of w's first letter, and the last letter of f(w)
    is the inverse of the first letter of f(w^-1).  The orbits of a_j and
    a_j' under this map therefore give the first and last letters of
    every iterate image of a_j.
    """
    img = f.image(l.index)
    return img[0] if l.sign > 0 else inverse(img)[0]


def letter_fix_counts(f: MapAction, ladder: Ladder) -> tuple[int, ...]:
    """fix(m) for m = 1..len(ladder): |1 - tr M^m| unless the branch
    class is 1 and f^m preserves orientation, and there the based count,
    following the first letters of the iterate images of a_j and a_j' as
    `Letter`s along `first_letter`: a reference for `fix_counts`, which
    follows them as signed codes."""
    if f.branch_class != 1:
        return tuple(abs(1 - trace(power)) for power in ladder)
    gens = range(1, f.n + 1)
    firsts = [Letter(j, 1) for j in gens]
    lasts_inv = [Letter(j, -1) for j in gens]
    out = []
    for m, power in enumerate(ladder, start=1):
        firsts = [first_letter(f, l) for l in firsts]
        lasts_inv = [first_letter(f, l) for l in lasts_inv]
        if f.global_sign ** m < 0:
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


#: composed lifts may not exceed this many linear pieces
PIECE_BUDGET = 10**7


def _scaled(
    lift: PLLift, depth: int
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The scale of a walk to `depth` and the lift's pieces in units of
    1/scale.

    A child's cut divides by its parent's slope, a product of at most
    depth - 1 lift slopes, so the lift's units refined by
    lcm(|slopes|)^(depth-1) keep every cut and intercept integral.
    """
    grow = math.lcm(*(s for _, _, s, _ in lift.pieces)) ** (depth - 1)
    return lift.scale * grow, [(lo * grow, hi * grow, s, b * grow)
                               for lo, hi, s, b in lift.pieces]


def _children(
    base: list[tuple[int, int, int, int]], los: list[int],
    lo: int, hi: int, s: int, b: int,
) -> Iterator[tuple[int, int, int, int]]:
    """The pieces of f^(k+1) inside the piece (lo, hi, s, b) of f^k, right
    to left: f after it, cut where its image crosses a breakpoint of f."""
    # los[i0:i1] are the breakpoints strictly inside the image
    v_lo, v_hi = s * lo + b, s * hi + b
    if s > 0:
        i0, i1 = bisect_right(los, v_lo), bisect_left(los, v_hi)
        order = range(i1 - 1, i0 - 2, -1)
    else:
        i0, i1 = bisect_right(los, v_hi), bisect_left(los, v_lo)
        order = range(i0 - 1, i1)
    x_hi = hi
    for p in order:
        t = p + (s < 0)  # the breakpoint at the child's left end
        x_lo = (los[t] - b) // s if i0 <= t < i1 else lo
        _, _, ps, pb = base[p]
        yield x_lo, x_hi, ps * s, ps * b + pb
        x_hi = x_lo


class Walk:
    """Depth-first walk, on an explicit stack, over the linear pieces of
    f^1..f^depth, yielding (k, lo, hi, slope, intercept) as integers in
    units of 1/scale; the children of a piece come left to right.

    `pieces[k]` counts the pieces of f^k met; once it passes `budget`
    (k >= 2) the walk stops going to depth k, so the first such k is the
    first iterate over budget and shallower pieces are complete.
    """

    def __init__(self, lift: PLLift, depth: int, budget: int):
        self.scale, self.base = _scaled(lift, depth)
        self.depth, self.budget = depth, budget
        self.pieces = [0] * (depth + 1)

    def __iter__(self) -> Iterator[tuple[int, int, int, int, int]]:
        base, pieces, budget = self.base, self.pieces, self.budget
        los = [lo for lo, _, _, _ in base]
        limit = self.depth
        stack = [(1, *piece) for piece in reversed(base)]
        while stack:
            node = stack.pop()
            k = node[0]
            if k > limit:
                continue
            pieces[k] += 1
            if k > 1 and pieces[k] > budget:
                limit = k - 1
                continue
            yield node
            if k < limit:
                stack.extend((k + 1, *child)
                             for child in _children(base, los, *node[1:]))

    def over_budget(self) -> int | None:
        return next((k for k in range(2, self.depth + 1)
                     if self.pieces[k] > self.budget), None)


def walk_covers(lift: PLLift, depth: int) -> tuple[int, ...]:
    """covers[m-1], m = 1..depth: the integers in the images of the
    pieces of f^m, each counted at its piece's start ([v_lo, v_hi) when
    ascending, (v_hi, v_lo] when descending), over the walk's pieces of
    f^1..f^depth.  The pieces below a piece of f^k are f's pieces over
    its image, composed, so the walk counts the subtree below each
    (k, image) once, the image ordered by the piece's orientation."""
    scale, base = _scaled(lift, depth)
    los = [lo for lo, _, _, _ in base]
    memo: dict[tuple[int, int, int], list[int]] = {}

    def tally(k: int, lo: int, hi: int, s: int, b: int) -> list[int]:
        v_lo, v_hi = s * lo + b, s * hi + b
        key = (k, v_lo, v_hi)
        if key not in memo:
            row = [0] * (depth + 1)
            row[k] = (-(-v_hi // scale) - -(-v_lo // scale) if s > 0
                      else v_lo // scale - v_hi // scale)
            for child in _children(base, los, lo, hi, s, b) if k < depth else ():
                row = [a + c for a, c in zip(row, tally(k + 1, *child))]
            memo[key] = row
        return memo[key]

    rows = [tally(1, *piece) for piece in base]
    return tuple(map(sum, zip(*rows)))[1:]


def iterate_lift(lift: PLLift, m: int, budget: int = PIECE_BUDGET) -> PLLift:
    """Exact m-fold composition of the lift: the walk's depth-m pieces, in
    the walk's units."""
    assert m >= 1, m
    if m == 1:
        return lift
    walk = Walk(lift, m, budget)
    leaves = tuple(node[1:] for node in walk if node[0] == m)
    over = walk.over_budget()
    if over is not None:
        raise BudgetError(f"composed lift exceeds {budget} pieces",
                          smallest_m=over)
    return PLLift(lift.n, walk.scale, leaves)


def fraction_pieces(
    lift: PLLift,
) -> list[tuple[Fraction, Fraction, int, Fraction]]:
    """The lift's pieces as (lo, hi, slope, intercept) with the ends and
    the intercept read out of units of 1/scale into `Fraction`s."""
    scale = lift.scale
    return [(Fraction(lo, scale), Fraction(hi, scale), s, Fraction(b, scale))
            for lo, hi, s, b in lift.pieces]


def lift_value(lift: PLLift, x: Fraction) -> Fraction:
    """The lift at x in [0, n], read off the piece that holds x."""
    if not 0 <= x <= lift.n:
        raise ValueError(f"{x} outside [0, {lift.n}]")
    pieces = fraction_pieces(lift)
    _, _, s, b = pieces[bisect_right(pieces, x, key=lambda p: p[0]) - 1]
    return s * x + b

"""Spectral data of the homology matrix: eigenvalues, entropy, growth bounds.

The exact integer characteristic polynomial comes from the report's
`homology.PowerSequences` record.  Zero roots are stripped exactly, the
rest is split exactly into its squarefree parts (Yun, 1976), so every
multiplicity is exact, and the roots of each part come from a
deterministic simultaneous-iteration solver.  A polynomial prime to its
derivative is its own only part, found by the first gcd alone; the
solver then runs on the one float copy of it that the residual reads,
and the residual is read in the same pass over the roots, once per
distinct root.  Entropy is the natural log of the spectral radius,
clamped at zero for degenerate inputs; the report compares it with one
term of the norm-growth limit, read off the record's norms
(`cli.run_report`).  `exceeds_perron_root` certifies the solver's radius
on the same exact polynomial, one integer Taylor shift per bound on one
scaled copy of it (its docstring gives the proof).
"""

import math
from bisect import bisect_left
from itertools import zip_longest

from .errors import (InconsistencyError, InputError, Record, check_int,
                     check_ints, shown)

#: modulus gap below which two leading eigenvalues count as tied
DOMINANCE_EPS = 1e-8

#: the largest m that `m0_bound` tests
M0_SCAN_CAP = 10_000


def _durand_kerner(coeffs: list[float]) -> list[complex]:
    """All roots of a monic polynomial [c_0, ..., c_d], c_d = 1.

    Deterministic start: points on a circle of radius 1 + max |c_i|,
    rotated off the real axis so real-coefficient symmetry cannot stall
    the iteration.  At most 200 sweeps, each evaluating the polynomial at
    a root by Horner's rule from c_d down, starting from 0j.
    """
    d = len(coeffs) - 1
    if d == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    turns = [2 * math.pi * (i + 0.25) / d for i in range(d)]
    roots = [radius * complex(math.cos(t), math.sin(t)) for t in turns]
    downward = coeffs[::-1]
    for _ in range(200):
        moved = 0.0
        new = list(roots)
        for i, z in enumerate(roots):
            denom = 1 + 0j
            for j, other in enumerate(roots):
                if j != i:
                    denom *= z - other
            if denom == 0:
                continue
            value = 0j
            for c in downward:
                value = value * z + c
            step = value / denom
            new[i] = z - step
            size = abs(step)
            if size > moved:  # max(moved, size): a nan size leaves moved
                moved = size
        roots = new
        if moved < 1e-14:
            break
    return roots


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: "Sequence[int]") -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients, leading coefficient positive."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) by primitive pseudo-remainders, leading coefficient
    positive.  A monic integer a has only monic integer divisors, so the
    gcd is monic then."""
    a = _primitive(a)
    b = _primitive(b) if b else b
    while b:
        r, lb, db = a, b[-1], len(b) - 1
        while len(r) > db:
            lr, shift = r[-1], len(r) - 1 - db
            r = [lb * c for c in r]
            for i in range(db):
                r[shift + i] -= lr * b[i]
            r.pop()
            _trim(r)
        a, b = b, _primitive(r) if r else r
    return a


def _div_monic(p: "Sequence[int]", q: list[int]) -> list[int]:
    """p / q for a monic q that divides p."""
    p, dq = list(p), len(q) - 1
    out = [0] * max(len(p) - dq, 0)
    for k in reversed(range(len(out))):
        c = out[k] = p[k + dq]
        for i in range(dq):
            p[k + i] -= c * q[i]
    if any(p[:dq]):
        raise InconsistencyError("inexact division by a squarefree part")
    return out


def _check_monic(char: "Sequence[int]") -> None:
    """Refuse char unless it is monic with int coefficients, as given."""
    check_ints(char, "polynomial coefficient")
    if not char or char[-1] != 1:
        raise InputError(f"polynomial must be monic, got {shown(tuple(char))}")


def squarefree_parts(char: "Sequence[int]") -> list[tuple[tuple[int, ...], int]]:
    """Yun's squarefree decomposition of a monic integer polynomial
    char = [c_0, ..., c_d]: the pairs (a_i, i) with the a_i monic,
    squarefree, pairwise coprime and nonconstant, and char = prod a_i^i.

    Integers only: every gcd is a primitive pseudo-remainder sequence and
    every division is by a monic divisor.  A constant char has no part,
    and a char prime to its derivative is its own only part, read off the
    first gcd without the second pass.
    """
    _check_monic(char)
    df = _derivative(char)
    g = _gcd(list(char), df)
    if g == [1]:
        return [(tuple(char), 1)] if df else []
    b, c = _div_monic(char, g), _div_monic(df, g)
    parts = []
    i = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in
                   zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d)
        b, c = _div_monic(b, a), _div_monic(d, a)
        if len(a) > 1:
            parts.append((tuple(a), i))
        i += 1
    return parts


def exceeds_perron_root(char: "Sequence[int]", ps: "Sequence[int]",
                        q: int) -> list[bool]:
    """Whether p/q > lambda, for each int p of `ps`, an int q >= 1 and
    the characteristic polynomial char = c = [c_0, ..., c_d] of a
    nonnegative matrix, lambda its Perron root (its spectral radius).

    That holds exactly when every coefficient of q^d c((y + p)/q) is
    positive: one integer Taylor shift by p of the c_i q^(d-i), scaled
    once for every p, O(d^2) steps, stopped at the first coefficient <=
    0.  By Perron-Frobenius, lambda is a root of c and no root has a
    larger modulus (Seneta, Non-negative Matrices and Markov Chains,
    ch. 1).  If t = p/q > lambda, every root of c(x + t) has a negative
    real part, so c(x + t) is a product of factors x + a and x^2 + 2bx +
    b^2 + e^2 with a, b > 0, and all its coefficients are positive.  If
    t <= lambda, c(x + t) has the root lambda - t >= 0, and a polynomial
    whose coefficients are all positive has no root in [0, oo).  Zero
    roots of c need no special case.
    """
    check_ints(ps, "p")
    check_int(q, "q", 1)
    _check_monic(char)
    d = len(char) - 1
    scaled = [c * q ** (d - i) for i, c in enumerate(char)]

    def shifted_positive(p: int) -> bool:
        shifted = list(scaled)
        # after pass i, coefficient i is final: no later pass reaches it
        for i in range(d):
            for j in reversed(range(i, d)):
                shifted[j] += p * shifted[j + 1]
            if shifted[i] <= 0:
                return False
        return True

    return [shifted_positive(p) for p in ps]


class SpectrumReport(Record, fields="values residual"):
    """Eigenvalues sorted by nonincreasing modulus, a tuple of complex
    `values`, with the float `residual` and derived data."""

    __slots__ = ()

    @property
    def spectral_radius(self) -> float:
        return abs(self.values[0]) if self.values else 0.0

    @property
    def second_modulus(self) -> float:
        return abs(self.values[1]) if len(self.values) > 1 else 0.0

    @property
    def entropy(self) -> float:
        s = self.spectral_radius
        # radii within root-finder noise of 1 are genuinely 1 (the exact
        # characteristic polynomial has integer coefficients)
        return math.log(s) if s > 1.0 + 1e-12 else 0.0


def eigenvalues(char: "Sequence[int]") -> SpectrumReport:
    """All roots, with multiplicity, of the characteristic polynomial
    char = [c_0, ..., c_n], c_n = 1 (`PowerSequences.char`).  Zero roots
    are split off exactly; the solver runs on each squarefree part of the
    rest, and a part of multiplicity i gives each of its roots i times,
    as equal values.

    Sorted by modulus descending, ties broken by real part then imaginary
    part, both descending.  The residual is |p(z)| / (1 + max |c_i|),
    largest over the roots z, for p = [c_0, ..., c_d] the polynomial with
    its zero roots stripped, evaluated in floats by Horner's rule: it
    grows with the size of the coefficients, and is no bound on any
    root's error.  It is read once per distinct root, starting from the
    first root's value as `max` does, so a first value of nan stays.
    A coefficient too large for a float is refused, and so is a root
    whose modulus overflows one; a root the solver leaves nan or
    infinite is returned as it is, and the report's radius check fails
    it (`cli._radius_failure`, exit 2).
    """
    _check_monic(char)
    zeros = next(i for i, c in enumerate(char) if c)
    coeffs = list(char[zeros:])
    try:
        monic = [float(c) for c in coeffs]
        downward, scale = monic[::-1], 1.0 + max(map(abs, monic))
        found, residual = [], None
        for part, i in squarefree_parts(coeffs):
            # the whole polynomial is its own only part: one float copy
            part_roots = _durand_kerner(monic if len(part) == len(monic)
                                        else [float(c) for c in part])
            for z in part_roots:
                value = 0j
                for c in downward:
                    value = value * z + c
                size = abs(value) / scale
                if residual is None or size > residual:
                    residual = size
            found += part_roots * i
        roots = found + [complex(0)] * zeros
        roots.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    except OverflowError:
        raise InputError("polynomial overflows a float, got "
                         + shown(tuple(char))) from None
    return SpectrumReport(tuple(roots), 0.0 if residual is None else residual)


def dominant_test(s: SpectrumReport) -> bool:
    """True when the leading modulus exceeds both 1 and the runner-up by
    DOMINANCE_EPS."""
    if not s.values:
        return False
    return (
        s.spectral_radius > 1.0 + DOMINANCE_EPS
        and s.spectral_radius > s.second_modulus + DOMINANCE_EPS
    )


def m0_bound(s: SpectrumReport, dim: int) -> int | None:
    """Threshold m0 past which every period is guaranteed to occur.

    Returns the least m0 such that s1^m > d (s1^(m/2) + 1 + s2^m) + 1 for
    every m >= m0, where s1 >= s2 are the two largest eigenvalue moduli
    and d the matrix dimension.  Divided by s1^m the right-hand side is
    d s1^(-m/2) + (d + 1) s1^(-m) + d (s2/s1)^m, which strictly
    decreases in m once s1 > max(1, s2), as dominance guarantees; so the
    first m that passes is final, and every later m passes.  That first m
    is found by testing m = 1, 2, 4, .. up to M0_SCAN_CAP and bisecting
    inside the last doubling, in about 2 log2 m0 steps.  Computed in log
    space so huge powers never overflow.
    Returns None when the spectrum is not dominant (`dominant_test`), or
    when no m up to the cap passes.
    """
    if not dominant_test(s):
        return None
    s1 = s.spectral_radius
    s2 = s.second_modulus
    log_s1 = math.log(s1)
    log_s2 = math.log(s2) if s2 > 0 else -math.inf
    log_d = math.log(dim)

    exp = math.exp

    def passes(m: int) -> bool:
        # log(d s1^(m/2) + d + d s2^m + 1) as a log-sum-exp, whose top
        # is >= 0; fsum is correctly rounded, so it sums alike on every
        # Python
        half, tail = log_d + (m / 2) * log_s1, log_d + m * log_s2
        top = max(half, log_d, tail, 0.0)
        rhs = top + math.log(math.fsum((exp(half - top), exp(log_d - top),
                                        exp(tail - top), exp(-top))))
        # a margin makes an exact tie fail on every interpreter; it can
        # only move m0 up, which keeps the bound sound
        lhs = m * log_s1
        return lhs - rhs > 1e-12 * max(1.0, lhs)

    lo, m = 0, 1
    while not passes(m):
        if m == M0_SCAN_CAP:
            return None
        lo, m = m, min(2 * m, M0_SCAN_CAP)
    return lo + 1 + bisect_left(range(lo + 1, m), True, key=passes)

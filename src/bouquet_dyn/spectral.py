"""Spectral data of the homology matrix: eigenvalues, entropy, growth bounds.

The exact integer characteristic polynomial comes from the report's
`homology.PowerSequences` record, zero roots are stripped exactly, and
the remaining roots come from a deterministic simultaneous-iteration
solver.  Entropy is the natural log of the spectral radius, clamped at
zero for degenerate inputs.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError

#: modulus gap below which two leading eigenvalues count as tied
DOMINANCE_EPS = 1e-8

#: upper end of the range `m0_bound` bisects
M0_SCAN_CAP = 10_000


def _eval_poly(coeffs: list[float], z: complex) -> complex:
    out = complex(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _durand_kerner(coeffs: list[float], iterations: int = 200) -> list[complex]:
    """All roots of a monic polynomial [c_0, ..., c_d], c_d = 1.

    Deterministic start: points on a circle of radius 1 + max |c_i|,
    rotated off the real axis so real-coefficient symmetry cannot stall
    the iteration.
    """
    d = len(coeffs) - 1
    if d == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [
        radius * cmath.exp(2j * math.pi * (i + 0.25) / d) for i in range(d)
    ]
    for _ in range(iterations):
        moved = 0.0
        new = list(roots)
        for i in range(d):
            denom = complex(1)
            for j in range(d):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                continue
            step = _eval_poly(coeffs, roots[i]) / denom
            new[i] = roots[i] - step
            moved = max(moved, abs(step))
        roots = new
        if moved < 1e-14:
            break
    return roots


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by nonincreasing modulus, with derived data."""

    char_coeffs: tuple[int, ...]
    values: tuple[complex, ...]
    residual: float

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


def eigenvalues(char: Sequence[int]) -> SpectrumReport:
    """All roots, with multiplicity, of the characteristic polynomial
    char = [c_0, ..., c_n], c_n = 1 (`PowerSequences.char`); zero roots
    are split off exactly.

    Sorted by modulus descending, ties broken by real part then imaginary
    part, both descending.  The residual is the largest |p(lambda)| over
    the scaled characteristic polynomial.
    """
    coeffs = list(char)
    zeros = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        zeros += 1
        coeffs = coeffs[1:]
    monic = [float(c) for c in coeffs]
    found = _durand_kerner(monic)
    scale = 1.0 + max(abs(c) for c in monic)
    residual = max(
        (abs(_eval_poly(monic, z)) / scale for z in found), default=0.0
    )
    roots = found + [complex(0)] * zeros
    roots.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    return SpectrumReport(tuple(char), tuple(roots), residual)


def _log_int(v: int) -> float:
    """log of a positive integer without overflowing float conversion."""
    if v < 10**300:
        return math.log(v)
    bits = v.bit_length() - 60
    return math.log(v >> bits) + bits * math.log(2)


def entropy_limit(norms: Sequence[int]) -> list[float]:
    """The sequence s_m = log ||M^m|| / m for m = 1..len(norms), where
    norms[m-1] = ||M^m||_1 (`PowerSequences.norms`).

    Norms are exact big integers; one float log per term.
    """
    if not norms:
        raise InputError("entropy horizon must be >= 1, got 0")
    out = []
    for m, nrm in enumerate(norms, start=1):
        out.append(_log_int(nrm) / m if nrm > 0 else 0.0)
    return out


def dominant_test(s: SpectrumReport) -> bool:
    """True when the leading modulus exceeds both 1 and the runner-up by
    DOMINANCE_EPS."""
    if not s.values:
        return False
    return (
        s.spectral_radius > 1.0 + DOMINANCE_EPS
        and s.spectral_radius > s.second_modulus + DOMINANCE_EPS
    )


def _logsumexp(vals: list[float]) -> float:
    top = max(vals)
    if top == -math.inf:
        return top
    # fsum is correctly rounded, so the sum is the same on every Python
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


def m0_bound(s: SpectrumReport, dim: int) -> int | None:
    """Threshold m0 past which every period is guaranteed to occur.

    Returns the least m0 such that s1^m > d (s1^(m/2) + 1 + s2^m) + 1 for
    every m >= m0, where s1 >= s2 are the two largest eigenvalue moduli
    and d the matrix dimension.  Divided by s1^m the right-hand side is
    d s1^(-m/2) + (d + 1) s1^(-m) + d (s2/s1)^m, which strictly
    decreases in m once s1 > max(1, s2), as dominance guarantees; so the
    first m that passes is final, and every later m passes.  That first m
    is found by bisection over 1..M0_SCAN_CAP, in a few steps whatever
    the spectrum.  Computed in log space so huge powers never overflow.
    Returns None when no m up to the cap passes.
    """
    if not dominant_test(s):
        raise InputError("m0 bound needs a dominant leading eigenvalue")
    s1 = s.spectral_radius
    s2 = s.second_modulus
    log_s1 = math.log(s1)
    log_s2 = math.log(s2) if s2 > 0 else -math.inf
    log_d = math.log(dim)

    def passes(m: int) -> bool:
        rhs = _logsumexp([
            log_d + (m / 2) * log_s1,
            log_d,
            log_d + m * log_s2,
            0.0,
        ])
        # a margin makes an exact tie fail on every interpreter; it can
        # only move m0 up, which keeps the bound sound
        lhs = m * log_s1
        return lhs - rhs > 1e-12 * max(1.0, lhs)

    m0 = bisect_left(range(1, M0_SCAN_CAP + 1), True, key=passes) + 1
    return m0 if m0 <= M0_SCAN_CAP else None

"""First-homology data of a bouquet self-map.

Abelianizing the induced endomorphism gives an n-by-n integer matrix M
whose (i, j) entry is the signed occurrence count of generator i in the
image of generator j.  A report builds one `PowerSequences` record of
M^1..M^K and reads every per-iterate quantity from it: only the first
few powers are built as matrices, and past them the record holds two
sequences, the traces and the norms, which follow the recurrence of the
characteristic polynomial.  `LefschetzTable.of(traces)` is the one route
to the Lefschetz numbers L(f^m) = 1 - tr M^m (a bouquet has homology in
dimensions 0 and 1 only, and every iterate acts on dimension 0 as the
identity) and to their Moebius inversions l(f^m).  `invert_divisor_sums`
is the one Moebius inversion, read by l(f^m) here and by the census's
per(m); it sieves instead of summing mu(r) over the divisors of each m.
All of it is exact integer arithmetic: no floating point appears
anywhere in this module, since traces grow like the spectral radius to
the m-th power.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .words import MapAction, chi

IntMatrix = tuple[tuple[int, ...], ...]

#: the record holds M^1..M^HEAD_POWERS as matrices (more when n is larger)
HEAD_POWERS = 6


def abelianize(f: MapAction) -> IntMatrix:
    """The occurrence-count matrix of f acting on first homology."""
    return tuple(
        tuple(chi(f.image(j), i) for j in range(1, f.n + 1))
        for i in range(1, f.n + 1)
    )


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a
    )


@dataclass(frozen=True)
class PowerSequences:
    """Per-iterate data of M^1..M^K, for a matrix M whose entries share
    one sign s (every abelianized map's do: its image words share one).

    `head` holds the full matrices M^1..M^h, h = max(n, min(K,
    HEAD_POWERS)).  `char` is det(xI - M) as [c_0, ..., c_n], c_n = 1,
    from Newton's identities on tr M^1..M^n; every division is exact,
    which is asserted.  For m = 1..K, `traces[m-1]` is tr M^m, and
    `norms[m-1]` is ||M^m||_1, the sum of |entries|: every entry of M^m
    has the sign s^m, so that is the modulus of the sum of its entries.
    Past the head the trace and the sum of entries both follow x_m =
    -(c_0 x_(m-n) + ... + c_(n-1) x_(m-1)), because Cayley-Hamilton holds
    entry by entry; zero coefficients are skipped.  The record holds two
    sequences whatever n is.
    """

    head: tuple[IntMatrix, ...]
    char: tuple[int, ...]
    traces: tuple[int, ...]
    norms: tuple[int, ...]

    @staticmethod
    def of(a: IntMatrix, k: int) -> "PowerSequences":
        """The record of M^1..M^k for M = a."""
        if k < 0:
            raise InputError(f"power count must be >= 0, got {k}")
        if {x > 0 for row in a for x in row if x} == {True, False}:
            raise InputError("matrix entries must share one sign")
        n = len(a)
        head = [a]
        while len(head) < max(n, min(k, HEAD_POWERS)):
            head.append(mat_mul(head[-1], a))
        # one pair per power: its trace and the sum of its entries
        pairs = [(sum(p[j][j] for j in range(n)), sum(map(sum, p)))
                 for p in head]
        head_traces = [tr for tr, _ in pairs[:n]]
        char = [0] * n + [1]
        for i in range(1, n + 1):
            t = sum(map(operator.mul, char[n - i + 1:], head_traces))
            assert t % i == 0, "inexact division in characteristic polynomial"
            char[n - i] = -t // i
        lags = [n - i for i in range(n) if char[i]]
        coeffs = [-char[i] for i in range(n) if char[i]]
        for m in range(len(head), k):
            rows = [pairs[m - lag] for lag in lags]
            pairs.append(tuple(sum(map(operator.mul, coeffs, col))
                               for col in zip(*rows)) or (0, 0))
        del pairs[k:]
        return PowerSequences(
            tuple(head), tuple(char),
            tuple(tr for tr, _ in pairs),
            tuple(abs(total) for _, total in pairs),
        )


def divisor_sums(values: Sequence[int]) -> list[int]:
    """out[m-1] = sum of values[d-1] over the divisors d of m, for every m
    up to len(values): each d is added into its multiples, O(H log H)."""
    horizon = len(values)
    out = [0] * horizon
    for d, v in enumerate(values, start=1):
        for multiple in range(d - 1, horizon, d):
            out[multiple] += v
    return out


def invert_divisor_sums(sums: Sequence[int]) -> list[int]:
    """The sequence g with sums[m-1] = sum of g(d) over d | m: Moebius
    inversion by the subtraction sieve.  In ascending d, out[d-1] is
    final once every proper divisor of d is taken out, and is then taken
    out of every proper multiple of d; O(H log H), no mu table."""
    out = list(sums)
    horizon = len(out)
    for d in range(1, horizon + 1):
        g = out[d - 1]
        for multiple in range(2 * d - 1, horizon, d):
            out[multiple] -= g
    return out


@dataclass(frozen=True)
class LefschetzTable:
    """Traces, Lefschetz and periodic Lefschetz numbers up to a horizon."""

    horizon: int
    traces: tuple[int, ...]
    lefschetz_numbers: tuple[int, ...]
    periodic_lefschetz_numbers: tuple[int, ...]

    @staticmethod
    def of(traces: Sequence[int]) -> "LefschetzTable":
        """The table up to horizon len(traces), traces[m-1] = tr M^m."""
        horizon = len(traces)
        if horizon < 1:
            raise InputError(f"horizon must be >= 1, got {horizon}")
        traces = tuple(traces)
        lef = tuple(1 - t for t in traces)
        per = tuple(invert_divisor_sums(lef))
        return LefschetzTable(horizon, traces, lef, per)

    def lefschetz_of(self, m: int) -> int:
        return self.lefschetz_numbers[m - 1]

    def periodic_lefschetz_of(self, m: int) -> int:
        return self.periodic_lefschetz_numbers[m - 1]

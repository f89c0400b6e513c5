"""First-homology data of a bouquet self-map.

Abelianizing the induced endomorphism gives an n-by-n integer matrix M
whose (i, j) entry is the signed occurrence count of generator i in the
image of generator j.  A report builds the ladder M^1..M^K once
(`powers`) and reads every per-iterate quantity from it.
`LefschetzTable.of(ladder)` is the one route to the Lefschetz numbers
L(f^m) = 1 - tr M^m (a bouquet has homology in dimensions 0 and 1 only,
and every iterate acts on dimension 0 as the identity) and to their
Moebius inversions l(f^m).  `invert_divisor_sums` is the one Moebius
inversion, read by l(f^m) here and by the census's per(m); it sieves
instead of summing mu(r) over the divisors of each m.  All of it is
exact integer arithmetic: no floating point appears anywhere in this
module, since traces grow like the spectral radius to the m-th power.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .words import MapAction, chi

IntMatrix = tuple[tuple[int, ...], ...]

#: (M^1, ..., M^k): ladder[m-1] is the m-th power
Ladder = tuple[IntMatrix, ...]


def abelianize(f: MapAction) -> IntMatrix:
    """The occurrence-count matrix of f acting on first homology."""
    return tuple(
        tuple(chi(f.image(j), i) for j in range(1, f.n + 1))
        for i in range(1, f.n + 1)
    )


def identity(n: int) -> IntMatrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a
    )


def powers(a: IntMatrix, k: int) -> Ladder:
    """The ladder (M^1, ..., M^k) as a running product, one multiplication
    per power; every report reads its matrix powers from one ladder."""
    if k < 0:
        raise InputError(f"ladder length must be >= 0, got {k}")
    out = [a] if k else []
    while len(out) < k:
        out.append(mat_mul(out[-1], a))
    return tuple(out)


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def norm1(a: IntMatrix) -> int:
    """Sum of absolute values of all entries."""
    return sum(sum(map(abs, row)) for row in a)


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
    def of(ladder: Ladder) -> "LefschetzTable":
        """The table up to horizon len(ladder), read off the ladder's traces."""
        horizon = len(ladder)
        if horizon < 1:
            raise InputError(f"horizon must be >= 1, got {horizon}")
        traces = tuple(trace(power) for power in ladder)
        lef = tuple(1 - t for t in traces)
        per = tuple(invert_divisor_sums(lef))
        return LefschetzTable(horizon, traces, lef, per)

    def lefschetz_of(self, m: int) -> int:
        return self.lefschetz_numbers[m - 1]

    def periodic_lefschetz_of(self, m: int) -> int:
        return self.periodic_lefschetz_numbers[m - 1]

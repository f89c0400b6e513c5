"""First-homology data of a bouquet self-map.

Abelianizing the induced endomorphism gives an n-by-n integer matrix M
whose (i, j) entry is the signed occurrence count of generator i in the
image of generator j.  A report builds the ladder M^1..M^K once
(`powers`) and reads every per-iterate quantity from it.
`LefschetzTable.of(ladder)` is the one route to the Lefschetz numbers
L(f^m) = 1 - tr M^m (a bouquet has homology in dimensions 0 and 1 only,
and every iterate acts on dimension 0 as the identity) and to their
Moebius inversions l(f^m).  All of it is exact integer arithmetic: no
floating point appears anywhere in this module, since traces grow like
the spectral radius to the m-th power.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a
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
    return sum(abs(x) for row in a for x in row)


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
        per = tuple(
            sum(mobius(r) * lef[m // r - 1] for r in divisors(m))
            for m in range(1, horizon + 1)
        )
        return LefschetzTable(horizon, traces, lef, per)

    def lefschetz_of(self, m: int) -> int:
        return self.lefschetz_numbers[m - 1]

    def periodic_lefschetz_of(self, m: int) -> int:
        return self.periodic_lefschetz_numbers[m - 1]

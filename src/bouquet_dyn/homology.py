"""First-homology data of a bouquet self-map.

Abelianizing the induced endomorphism gives an n-by-n integer matrix M
whose (i, j) entry is the signed occurrence count of generator i in the
image of generator j.  A report builds one `PowerSequences` record of
M^1..M^K, with the norms to M^E, and reads every per-iterate quantity
from it: `power_traces`,
the one routine that raises M to powers, gives the first n traces and
entry sums by baby and giant steps, and past them they follow the
characteristic recurrence.  The record keeps only the baby steps as
matrices; a reader of a later power (the certificate walk) multiplies
it when it reaches it, through `PowerSequences.matrix_powers`.
The Lefschetz numbers are L(f^m) = 1 - tr M^m (a bouquet has homology
in dimensions 0 and 1 only, and every iterate acts on dimension 0 as the
identity).  `invert_divisor_sums` is the one Moebius inversion, read by
the report's periodic Lefschetz numbers l(f^m) and by the census's
per(m); it sieves instead of summing mu(r) over the divisors of each m.
`cycles` is the one cycle finder of a self-map of range(k), read by the
PL oracle's counts and by the class-1 fix count.
All of it is exact integer arithmetic: no floating point appears
anywhere in this module, since traces grow like the spectral radius to
the m-th power.
"""

import math
import operator
from itertools import chain

from .errors import (ITERATE_CAP, InconsistencyError, InputError, Record,
                     check_int, check_ints, shown)
from .words import MapAction

IntMatrix = tuple[tuple[int, ...], ...]

#: the record holds M^1..M^min(K, HEAD_POWERS), or to M^isqrt(n) if more:
#: the certificate walk reads M^2 of nearly every map, and rarely more
HEAD_POWERS = 2


def abelianize(f: MapAction) -> IntMatrix:
    """The occurrence-count matrix of f acting on first homology: entry
    (i, j) is the signed count of generator i in the image of generator
    j, column j counted in one pass over that word."""
    columns = []
    for word in f.images:
        column = [0] * f.n
        for index, sign in word:
            column[index - 1] += sign
        columns.append(column)
    return tuple(zip(*columns))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a
    )


class PowerSequences(Record, fields="head char traces norms"):
    """Per-iterate data of M^1..M^K, for a matrix M whose entries share
    one sign s (every abelianized map's do: its image words share one);
    each field is a tuple.

    `head` holds the matrices M^1..M^h, h = max(isqrt(n), min(K,
    HEAD_POWERS)), the baby steps of `power_traces`; `matrix_powers` goes
    on from them.  `char` is det(xI - M) (`char_from_traces`).  For m =
    1..K, `traces[m-1]` is tr M^m, and for m = 1..E, E = K unless given,
    `norms[m-1]` is ||M^m||_1, the sum of |entries|: every entry of M^m
    has the sign s^m, so that is the modulus of the sum of its entries.
    Up to m = n both come from `power_traces`, past it from the
    characteristic recurrence (`recur`), whatever n is.
    """

    __slots__ = ()

    @staticmethod
    def of(a: IntMatrix, k: int, norms: int | None = None
           ) -> "PowerSequences":
        """The record of M^1..M^k for M = a, with the norms of
        M^1..M^norms (k unless given), each count at most ITERATE_CAP; a
        row of the wrong length is named whole."""
        check_int(k, "power count", 0, ITERATE_CAP)
        norms = k if norms is None else check_int(norms, "norm count", 0,
                                                  ITERATE_CAP)
        n = len(a)
        for row in a:
            if len(row) != n:
                raise InputError(f"matrix must be n rows of n ints, got {shown(row)}")
            check_ints(row, "matrix entry")
        if {x > 0 for row in a for x in row if x} == {True, False}:
            raise InputError("matrix entries must share one sign")
        h = max(math.isqrt(n), min(k, HEAD_POWERS))
        head, traces, totals = power_traces(a, n, h)
        char = char_from_traces(traces)
        return PowerSequences(
            tuple(head), tuple(char),
            tuple(recur(char, traces, k)),
            tuple(map(abs, recur(char, totals, norms))),
        )

    def matrix_powers(self, count: int) -> "Iterator[IntMatrix]":
        """M^1..M^count, lazily: the baby steps, then one product per
        further power, made only when the consumer reaches it."""
        yield from self.head[:count]
        power, a = self.head[-1], self.head[0]
        for _ in range(len(self.head), count):
            power = mat_mul(power, a)
            yield power


def power_traces(a: IntMatrix, k: int, h: int, sums: bool = True
                 ) -> tuple[list[IntMatrix], list[int], list[int]]:
    """The baby steps M^1..M^h (h >= 1) and, for m = 1..k, tr M^m and the
    sum of the entries of M^m (none unless `sums`), by baby and giant
    steps (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  Each giant
    step M^(hb) costs one product and gives M^(hb+a) = M^a M^(hb), a =
    1..h: its trace is one dot product per row of M^a, its entry sum M^a's
    column sums dotted with M^(hb)'s row sums, formed only when k > h."""
    baby = [a]
    while len(baby) < h:
        baby.append(mat_mul(baby[-1], a))
    traces = [sum(p[i][i] for i in range(len(p))) for p in baby[:k]]
    totals = [sum(map(sum, p)) for p in baby[:k]] if sums else []
    col_sums = ([tuple(map(sum, zip(*p))) for p in baby]
                if sums and k > h else [])
    giant = baby[-1]
    for hb in range(h, k, h):
        # tr(P G) is P's entries dotted with those of G transposed
        cols = (*chain.from_iterable(zip(*giant)),)
        for p in baby[:k - hb]:
            traces.append(sum(map(operator.mul, chain.from_iterable(p), cols)))
        row_sums = tuple(map(sum, giant)) if sums else ()
        totals += (sum(map(operator.mul, c, row_sums))
                   for c in col_sums[:k - hb])
        if hb + h < k:
            giant = mat_mul(giant, baby[-1])
    return baby, traces, totals


def char_from_traces(traces: "Sequence[int]") -> list[int]:
    """det(xI - M) as [c_0, ..., c_n], c_n = 1, for an n-by-n matrix M
    with tr M^m = traces[m-1], m = 1..n, by Newton's identities; every
    division is exact, and an inexact one is an inconsistency."""
    n = len(traces)
    char = [0] * n + [1]
    for i in range(1, n + 1):
        t = sum(map(operator.mul, char[n - i + 1:], traces))
        if t % i:
            raise InconsistencyError("inexact division in characteristic polynomial")
        char[n - i] = -t // i
    return char


def recur(char: "Sequence[int]", head: "Sequence[int]", k: int) -> list[int]:
    """The first k terms of the sequence that starts with `head` and then
    follows x_m = -(c_0 x_(m-n) + ... + c_(n-1) x_(m-1)), for `char` =
    [c_0, ..., c_n] and len(head) >= n.  Each term is one dot product of
    the whole coefficient vector, zeros included, with the slice of the n
    terms before it, so no list is built per term.
    By Cayley-Hamilton every entry of M^m, and so every trace and sum of
    entries, follows the recurrence of M's characteristic polynomial."""
    n = len(char) - 1
    coeffs = [-c for c in char[:n]]
    out = list(head[:k])
    for m in range(len(out), k):
        out.append(sum(map(operator.mul, coeffs, out[m - n:m])))
    return out


def invert_divisor_sums(sums: "Sequence[int]") -> list[int]:
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


def cycles(step: "Sequence[int]") -> "Iterator[list[int]]":
    """Each cycle of the map i -> step[i] on range(len(step)) once, as
    the list of its points in orbit order; step[i] < 0 ends a path."""
    mark = [-1] * len(step)  # the start whose path first met each point
    for start in range(len(step)):
        i = start
        while i >= 0 and mark[i] < 0:
            mark[i] = start
            i = step[i]
        if i >= 0 and mark[i] == start:  # the path closed a new cycle at i
            cycle = [i]
            while step[cycle[-1]] != i:
                cycle.append(step[cycle[-1]])
            yield cycle

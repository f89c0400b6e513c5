"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  It is written in exact integers, in units of 1/scale, scale
= 2 lcm(len(A_j)); the counts must be exact, so no floating point
appears anywhere in this module.  The lift maps (1/scale)Z into itself,
so it is a Markov map on a finite invariant set, and `oracle_counts`
counts every iterate f^1..f^depth on that one partition, composing none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain

from .errors import (ITERATE_CAP, DegenerateMapError, InconsistencyError,
                     InputError, LiftConstructionError, Record, check_int,
                     check_ints, shown)
from .homology import char_from_traces, cycles, power_traces, recur
from .words import Letter, MapAction, Word

#: `oracle_counts` counts covers to this iterate, the last a report prints
COVER_DEPTH = 8


class PLLift(Record, fields="n scale pieces"):
    """A piecewise-linear self-map of [0, n] in units of 1/scale (ints).

    Each piece (lo, hi, slope, intercept) of the tuple `pieces`, four
    ints, is x -> slope*x + intercept on [lo, hi), x and the intercept in
    those units; the pieces tile [0, n*scale] in order, the final piece
    closed at its right end.  Anything else is refused with an
    `InputError`, so no float reaches the counts."""

    __slots__ = ()

    def __new__(cls, n: int, scale: int, pieces) -> PLLift:
        check_int(n, "lift n", 1)
        check_int(scale, "lift scale", 1)
        pieces = tuple(map(tuple, pieces))
        flat = [*chain.from_iterable(pieces)]
        check_ints(flat, "lift piece value")
        # 0 = lo_1 < hi_1 = lo_2 < .. < hi_k = n * scale
        cuts = [0, *flat[1::4]]
        if ({*map(len, pieces)} != {4} or flat[::4] != cuts[:-1]
                or cuts[-1] != n * scale or cuts != sorted({*cuts})):
            raise InputError(f"lift pieces must be four ints each and tile [0, {shown(n)}]")
        return tuple.__new__(cls, (n, scale, pieces))


def _rotate_to_base(w: Word) -> tuple[Letter, ...]:
    """Cyclic rotation bringing a generator-1 letter to the front.

    Rotation is a free homotopy of the underlying loop, so the realized
    map stays in the same homotopy class; the construction needs the
    traversal of every circle to start and end at the midpoint of
    circle 1.
    """
    for p, letter in enumerate(w):
        if letter.index == 1:
            return w[p:] + w[:p]
    raise LiftConstructionError(
        f"image word '{w.text()}' never visits circle 1; the canonical "
        "lift construction cannot anchor it at the branch image"
    )


def build_lift(f: MapAction) -> PLLift:
    """The canonical piecewise-linear lift of the action.

    Every integer maps to 1/2 (the branch image), and the restriction to
    [j-1, j] has constant slope of modulus len(A_j), traversing the
    circles in the order of A_j's letters.  The pieces are written in
    units of 1/scale, scale = 2 lcm(len(A_j)), the least in which every
    half and full sub-arc, 1/(2 len(A_j)) and 1/len(A_j), is whole.
    Every piece end maps to an integer or to 1/2, so the lift is
    continuous on the quotient, as `oracle_counts` requires.
    """
    rotated = [_rotate_to_base(f.image(j)) for j in range(1, f.n + 1)]
    if len(rotated[0]) == 1:
        raise DegenerateMapError(
            "the image of circle 1 is a single letter, so circle 1 maps to "
            "itself with slope of modulus 1; some iterate would be the "
            "identity on it"
        )
    sign = f.global_sign
    scale = 2 * math.lcm(*map(len, rotated))
    # a letter's arc starts at its circle's left end, or right end when
    # reversing, and the traversal ends at that end of circle 1
    end = 0 if sign > 0 else scale
    pieces: list[tuple[int, int, int, int]] = []
    for j, w in enumerate(rotated):
        slope = sign * len(w)
        full = scale // len(w)
        x = j * scale
        # (width, start value) per sub-arc of the traversal
        stops = [(full // 2, scale // 2)]
        stops += [(full, (l.index - 1) * scale + end) for l in w[1:]]
        stops.append((full // 2, end))
        for width, start_value in stops:
            pieces.append((x, x + width, slope, start_value - slope * x))
            x += width
        if x != (j + 1) * scale:
            raise InconsistencyError("circle traversal does not tile the interval")
    return PLLift(f.n, scale, pieces)


class OracleCounts(Record, fields="lift_fix covers branch_period"):
    """The lift's counts on the bouquet for each iterate m = 1..depth of
    one call.

    `lift_fix` and `covers` are tuples of ints: `lift_fix[m-1]` counts
    the fixed points of f^m on the circles, the branching point (every
    integer) one point among them, and `covers[m-1]` the preimages of
    the branching point under f^m in [0, n) (the refined cover size) for
    m <= min(depth, COVER_DEPTH).  At a point where f^m jumps (between
    two integers) the cover counts by its value from the right.
    `branch_period` is the least t >= 1 with f^t fixing the branching
    point, or None if there is none: the lift's branch period, exact at
    every depth (the cycle through point 0 of `oracle_counts`' point map).
    """

    __slots__ = ()

    def fixed(self, m: int) -> int:
        """`lift_fix[m-1]`, the fixed points of f^m, m = 1..depth."""
        return self.lift_fix[check_int(m, "iterate", 1, len(self.lift_fix)) - 1]


def _ratio(x: int, scale: int) -> str:
    """x / scale in lowest terms, printed as `str(Fraction(x, scale))`."""
    g = math.gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def _points(lift: PLLift) -> dict[int, tuple]:
    """O*, the integers, the piece ends and all their forward orbits, each
    with the (value, slope) of the pieces to its left and right (None
    past 0 and n).

    Refuses a lift that is not continuous on the quotient: its two
    one-sided values at a point off the integers must agree or both be
    integers, and its values at the integers must all agree or all be
    integers; every value must lie in [0, n]."""
    scale, pieces = lift.scale, lift.pieces
    top = lift.n * scale
    los = [lo for lo, _, _, _ in pieces]
    todo = [*range(0, top + 1, scale), *los]
    ends = {}
    at_integers = set()
    while todo:
        x = todo.pop()
        if x in ends:
            continue
        p = bisect_right(los, x) - 1
        _, _, s, b = pieces[p]
        right = (s * x + b, s) if x < top else None
        if x == los[p]:  # a piece end: the piece to its left is the one before
            _, _, s, b = pieces[p - 1]
        left = (s * x + b, s) if x else None
        ends[x] = left, right
        values = {end[0] for end in (left, right) if end}
        if x % scale == 0:
            at_integers |= values
        elif len(values) > 1 and any(v % scale for v in values):
            raise InputError(f"the lift is not continuous at "
                             f"{_ratio(x, scale)}")
        if not all(0 <= v <= top for v in values):
            raise InputError(f"the lift leaves [0, {lift.n}]")
        todo.extend(values)
    if len(at_integers) > 1 and any(v % scale for v in at_integers):
        raise InputError("the lift is not continuous at the branching point")
    return ends


def oracle_counts(lift: PLLift, depth: int) -> OracleCounts:
    """Fixed-point and cover counts of f^1..f^depth on the bouquet, read
    off the lift's Markov partition (Block, Guckenheimer, Misiurewicz
    and Young, LNM 819, 1980).

    O* (`_points`) is finite, and f maps each cell between neighbouring
    points of O* linearly onto a run of cells; every map below is read
    off the one walk of O* by index.  On the bouquet every integer is
    one point, the branching point, so the point map sends each point of
    O* whose value is an integer to point 0.  A closed itinerary of m
    cells has one fixed point of f^m in its closure: inside the cell, or
    a point of O* whose germ (point, side) returns to itself after m
    steps.  So the fixed points are tr T^m, T the cells' transition
    matrix, less the germs that return after m steps, plus the points of
    O* that f^m fixes; both corrections are read off the cycles of two
    finite maps, and the cycle through point 0, if any, is the branch
    period.  tr T^m = tr S^m for the smaller S below, by baby and giant
    steps (`power_traces`) up to dim S and its characteristic recurrence
    past it.  A cycle of cells that slope +-1 maps onto each other makes
    an iterate the identity there; it is refused when that iterate is at
    most `depth`.  A depth past ITERATE_CAP is refused before any work.
    """
    check_int(depth, "depth", 1, ITERATE_CAP)
    scale = lift.scale
    ends = _points(lift)
    pts = sorted(ends)
    index = {x: i for i, x in enumerate(pts)}
    cells = len(pts) - 1
    # the point map on the interval (by the value from the right, from
    # the left at n), the germ map (germ 2i + 1 is right of point i, 2i
    # left of it), and each cell's image (u, v): the cells u..v-1,
    # between its ends' images
    point = [0] * len(pts)
    germ = [-1] * (2 * len(pts))
    images = []
    for i, x in enumerate(pts):
        left, right = ends[x]
        if left:
            v, s = left
            j = point[i] = index[v]
            germ[2 * i] = 2 * j + (s < 0)
            u = point[i - 1]
            images.append((u, j, s) if s > 0 else (j, u, s))
        if right:
            v, s = right
            if s == 0:
                raise InputError(f"the lift is constant at {_ratio(x, scale)}")
            j = point[i] = index[v]
            germ[2 * i + 1] = 2 * j + (s > 0)
    # cells that slope +-1 maps onto one cell: a cycle of them is the
    # identity at its length, or at twice it when it reverses
    unit = [u if abs(s) == 1 and v == u + 1 else -1 for u, v, s in images]
    for cycle in cycles(unit):
        turns = sum(images[c][2] < 0 for c in cycle) % 2
        k = len(cycle) << turns
        if k <= depth:
            c = min(cycle)
            raise DegenerateMapError(
                f"iterate {k} of the lift is the identity on "
                f"[{_ratio(pts[c], scale)}, {_ratio(pts[c + 1], scale)}); "
                "the map is not expanding")
    # cut at every end of an image, the cells fall into blocks and each
    # image is a run of blocks; S[a][b] counts the cells in block a whose
    # image holds block b
    edges = sorted({0, cells, *(e for u, v, _ in images for e in (u, v))})
    block = {e: a for a, e in enumerate(edges)}
    mat = []
    for lo, hi in zip(edges, edges[1:]):
        row = [0] * len(edges)
        for u, v, _ in images[lo:hi]:
            row[block[u]] += 1
            row[block[v]] -= 1
        mat.append(tuple(accumulate(row[:-1])))
    k = min(depth, len(mat))
    _, lift_fix, _ = power_traces(tuple(mat), k, math.isqrt(k), sums=False)
    if depth > len(mat):
        lift_fix = recur(char_from_traces(lift_fix), lift_fix, depth)
    # the bouquet point map; f^m fixes the points of a cycle of length L,
    # and returns its germs, exactly when L divides m; the cycle through
    # point 0, found first, is the branch period
    point = [j if pts[j] % scale else 0 for j in point]
    branch_period = None
    for sign, step in ((-1, germ), (1, point)):
        for cycle in cycles(step):
            if step is point and cycle[0] == 0:
                branch_period = len(cycle)
            for m in range(len(cycle), depth + 1, len(cycle)):
                lift_fix[m - 1] += sign * len(cycle)
    # one row over point 0, cell 0, point 1, .., point C: a point's entry
    # is 1 when f^m sends it to an integer, a cell's counts the points
    # inside it that f^m does, the entries strictly inside the cell's
    # image one iterate earlier; covers[m-1] sums the row on [0, n)
    entries = [0] * (2 * cells + 1)
    entries[::2] = [x % scale == 0 for x in pts]
    covers = []
    for _ in range(min(depth, COVER_DEPTH)):
        before = list(accumulate(entries, initial=0))
        entries[1::2] = [before[2 * v] - before[2 * u + 1] for u, v, _ in images]
        entries[::2] = [entries[2 * j] for j in point]
        covers.append(sum(entries) - entries[-1])
    return OracleCounts(tuple(lift_fix), tuple(covers), branch_period)


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """The lift's branch period, `oracle_counts`' exact one, when it is
    at most `depth`, else None; a lift or a depth that it refuses is
    refused."""
    check_int(depth, "depth", 1, ITERATE_CAP)
    period = oracle_counts(lift, 1).branch_period
    return period if period is not None and period <= depth else None

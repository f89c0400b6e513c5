"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  It is written in exact integers, in units of 1/scale, scale
= 2 lcm(len(A_j)); the counts must be exact, so no floating point
appears anywhere in this module.  The lift maps (1/scale)Z into itself,
so it is a Markov map on a finite invariant set, and `oracle_counts`
counts the fixed points of every iterate f^1..f^depth on that one
partition, composing none.  It counts no covers: on its lifts they are
||M^m||_1, as `oracle_counts` proves.
"""

import math
from bisect import bisect_right
from itertools import accumulate, chain

from .errors import (ITERATE_CAP, DegenerateMapError, InconsistencyError,
                     InputError, LiftConstructionError, Record, check_int,
                     check_ints, shown)
from .homology import char_from_traces, cycles, power_traces, recur
from .words import Letter, MapAction, Word


class PLLift(Record, fields="n scale pieces"):
    """A piecewise-linear self-map of [0, n] in units of 1/scale (ints).

    Each piece (lo, hi, slope, intercept) of the tuple `pieces`, four
    ints, is x -> slope*x + intercept on [lo, hi), x and the intercept in
    those units; the pieces tile [0, n*scale] in order, the final piece
    closed at its right end.  Anything else is refused with an
    `InputError`, so no float reaches the counts."""

    __slots__ = ()

    def __new__(cls, n: int, scale: int, pieces) -> "PLLift":
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
    # built to `PLLift`'s contract, so not checked against it again
    return tuple.__new__(PLLift, (f.n, scale, tuple(pieces)))


class OracleCounts(Record, fields="lift_fix branch_period"):
    """The lift's counts on the bouquet for each iterate m = 1..depth of
    one call.

    `lift_fix` is a tuple of ints: `lift_fix[m-1]` counts the fixed
    points of f^m on the circles, the branching point (every integer)
    one point among them.  `branch_period` is the least t >= 1 with f^t
    fixing the branching point, or None if there is none: the lift's
    branch period, exact at every depth (the cycle through point 0 of
    `oracle_counts`' point map).
    """

    __slots__ = ()

    def fixed(self, m: int) -> int:
        """`lift_fix[m-1]`, the fixed points of f^m, m = 1..depth."""
        return self.lift_fix[check_int(m, "iterate", 1, len(self.lift_fix)) - 1]


def _ratio(x: int, scale: int) -> str:
    """x / scale in lowest terms, printed as `str(Fraction(x, scale))`."""
    g = math.gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def _walk(lift: PLLift, depth: int) -> tuple[list, list, list, list]:
    """O*, the integers, the piece ends and all their forward orbits, in
    order, and the maps read off it in one pass that gives each point its
    index: the point map on the interval (by the value from the right,
    from the left at n), the germ map (germ 2i + 1 is right of point i,
    2i left of it, -1 past 0 and n) and each cell's image (u, v, slope),
    the cells u..v-1 between the images of its ends.

    Refuses a lift that is not continuous on the quotient: its one-sided
    values at a point off the integers must agree or both be integers,
    and its values at the integers must all agree or all be integers;
    every value must lie in [0, n], and no piece may be constant.  A
    cycle of cells that slope +-1 maps onto each other is the identity
    at its length, or at twice it when it reverses: it is refused when
    that iterate is at most `depth`."""
    scale, pieces = lift.scale, lift.pieces
    top = lift.n * scale
    los = [lo for lo, _, _, _ in pieces]
    # each point's (value, slope) from the left, then from the right, the
    # one side doubled at 0 and n
    ends = {}
    todo = [*range(0, top + 1, scale), *los]
    at_integers = set()
    while todo:
        x = todo.pop()
        if x in ends:
            continue
        p = bisect_right(los, x) - 1
        _, _, s, b = pieces[p]
        v = s * x + b
        if x == los[p] and x:  # a piece end: the piece to its left is the one before
            _, _, t, c = pieces[p - 1]
            u = t * x + c
        else:
            t, u = s, v
        values = (u, v) if 0 < x < top else (u,) if x else (v,)
        if x % scale == 0:
            at_integers.update(values)
        elif u != v and (u % scale or v % scale):
            raise InputError(f"the lift is not continuous at {_ratio(x, scale)}")
        if min(values) < 0 or max(values) > top:
            raise InputError(f"the lift leaves [0, {lift.n}]")
        ends[x] = u, t, v, s
        todo += values
    if len(at_integers) > 1 and any(v % scale for v in at_integers):
        raise InputError("the lift is not continuous at the branching point")
    walked = sorted(ends.items())
    pts = [x for x, _ in walked]
    index = {x: i for i, x in enumerate(pts)}
    point, germ, images = [], [], []
    for x, (u, t, v, s) in walked:
        if x:
            j = index[u]
            germ.append(2 * j + (t < 0))
            images.append((point[-1], j, t) if t > 0 else (j, point[-1], t))
        else:
            germ.append(-1)
        if x == top:
            germ.append(-1)
        elif s:
            j = index[v]
            germ.append(2 * j + (s > 0))
        else:
            raise InputError(f"the lift is constant at {_ratio(x, scale)}")
        point.append(j)
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
    return pts, point, germ, images


def oracle_counts(lift: PLLift, depth: int) -> OracleCounts:
    """Fixed-point counts of f^1..f^depth on the bouquet, and the branch
    period, read off the lift's Markov partition (Block, Guckenheimer,
    Misiurewicz and Young, LNM 819, 1980).

    O* (`_walk`) is finite, and f maps each cell between neighbouring
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
    past it.  A depth past ITERATE_CAP is refused before any work, and a
    lift or a depth that `_walk` refuses after it.

    The covers, the preimages of the branching point under f^m, are not
    counted: on every lift that `build_lift` makes, covers[m-1] = sum over
    j of |f^m(a_j)| = ||M^m||_1, which the report already holds.  The lift
    runs [j-1, j] through the letters of A_j in order, and each letter's
    arc (circle 1's in two halves, at the ends) meets the integers once,
    counted by the value from the right.  The words of a monotone map
    share one sign and never cancel, so f^m runs [j-1, j] through the
    letters of f^m(a_j) in the same way, |f^m(a_j)| of them: the column
    sums of |M^m|.
    """
    check_int(depth, "depth", 1, ITERATE_CAP)
    scale = lift.scale
    pts, point, germ, images = _walk(lift, depth)
    # cut at every end of an image, the cells fall into blocks and each
    # image is a run of blocks; S[a][b] counts the cells in block a whose
    # image holds block b
    edges = sorted({0, len(images), *(e for u, v, _ in images for e in (u, v))})
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
    return OracleCounts(tuple(lift_fix), branch_period)


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """The lift's branch period, `oracle_counts`' exact one, when it is
    at most `depth`, else None; a lift that `oracle_counts` refuses at
    depth 1, or a depth past ITERATE_CAP, is refused."""
    check_int(depth, "depth", 1, ITERATE_CAP)
    period = oracle_counts(lift, 1).branch_period
    return period if period is not None and period <= depth else None

"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  All arithmetic is exact rational: crossing counts must be
exact, so no floating point appears anywhere in this module.  Iterates
are not stored.  `oracle_counts` sweeps f^1..f^depth one depth at a
time through one table per depth, local to the call: a piece that
touches the integers or the branch orbit is an entry of its own, and the
pieces that share an image and a cell between those points are one entry
with their count.  Each entry is counted and expanded once.
`OracleCounts` holds every iterate's counts from that one sweep, and the
branch period it observes on the one walk of the branch orbit that also
marks the cells; `lift_branch_period` gives that period alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateMapError, InputError, LiftConstructionError
from .words import MapAction, Word, branch_period_under

HALF = Fraction(1, 2)

#: composed lifts may not exceed this many linear pieces
PIECE_BUDGET = 10**7

#: `oracle_counts` follows the branch orbit at least this many steps
BRANCH_WATCH = 13


@dataclass(frozen=True)
class Piece:
    """One linear piece x -> slope*x + intercept on [lo, hi)."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction


@dataclass(frozen=True)
class PLLift:
    """A piecewise-linear self-map of [0, n], pieces half-open with the
    final piece closed at n."""

    n: int
    pieces: tuple[Piece, ...]


def _rotate_to_base(w: Word) -> Word:
    """Cyclic rotation bringing a generator-1 letter to the front.

    Rotation is a free homotopy of the underlying loop, so the realized
    map stays in the same homotopy class; the construction needs the
    traversal of every circle to start and end at the midpoint of
    circle 1.
    """
    for p, letter in enumerate(w.letters):
        if letter.index == 1:
            return Word(w.letters[p:] + w.letters[:p])
    raise LiftConstructionError(
        f"image word '{w.text()}' never visits circle 1; the canonical "
        "lift construction cannot anchor it at the branch image"
    )


def build_lift(f: MapAction) -> PLLift:
    """The canonical piecewise-linear lift of the action.

    Every integer maps to 1/2 (the branch image), and the restriction to
    [j-1, j] has constant slope of modulus len(A_j), traversing the
    circles in the order of A_j's letters.
    """
    d11 = sum(l.sign for l in f.image(1) if l.index == 1)
    visits_others = any(l.index != 1 for l in f.image(1))
    if not visits_others and d11 == -1:
        raise LiftConstructionError(
            "circle 1 maps to itself with degree -1 and visits no other "
            "circle; the construction would force slope-1 contact with "
            "the diagonal"
        )
    rotated = [_rotate_to_base(f.image(j)) for j in range(1, f.n + 1)]
    if len(rotated[0]) == 1:
        raise DegenerateMapError(
            "the image of circle 1 is a single letter, so circle 1 maps to "
            "itself with slope of modulus 1; some iterate would be the "
            "identity on it"
        )
    sign = f.global_sign
    pieces: list[Piece] = []
    for j, w in enumerate(rotated, start=1):
        r = len(w)
        slope = Fraction(sign * r)
        x = Fraction(j - 1)
        half = Fraction(1, 2 * r)
        full = Fraction(1, r)
        # (start x, width, start value) per sub-arc of the traversal
        if sign > 0:
            stops: list[tuple[Fraction, Fraction]] = [(half, HALF)]
            for letter in w.letters[1:]:
                stops.append((full, Fraction(letter.index - 1)))
            stops.append((half, Fraction(0)))
        else:
            stops = [(half, HALF)]
            for letter in w.letters[1:]:
                stops.append((full, Fraction(letter.index)))
            stops.append((half, Fraction(1)))
        for width, start_value in stops:
            pieces.append(
                Piece(x, x + width, slope, start_value - slope * x)
            )
            x += width
        assert x == j, "circle traversal does not tile the interval"
    return PLLift(f.n, tuple(pieces))


@dataclass(frozen=True)
class OracleCounts:
    """One call's counts for each iterate m = 1..len(crossings) in budget.

    `crossings[m-1]` counts the diagonal crossings of f^m at non-integer
    points, `covers[m-1]` the preimages of the branching point under f^m
    (the refined cover size).  `over_budget` is the first iterate with
    more pieces than the sweep's budget, or None.  `branch_period` is
    the least t <= max(BRANCH_WATCH, depth + 1) with f^t(0) at an
    integer, or None: the lift's branch period, as `lift_branch_period`
    gives it.
    """

    crossings: tuple[int, ...]
    covers: tuple[int, ...]
    over_budget: int | None
    branch_period: int | None

    def fixed(self, m: int) -> int:
        """Fixed points of f^m on the circles: the crossings, plus 1 when
        f^m fixes the branching point, by the observed `branch_period`."""
        branch_fixed = branch_period_under(self.branch_period, m) == 1
        return self.crossings[m - 1] + int(branch_fixed)


def _scaled(
    lift: PLLift, depth: int
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The scale of a sweep to `depth` and the lift's pieces as integer
    (lo, hi, slope, intercept) in units of 1/scale.

    A child's cut divides by its parent's slope, a product of at most
    depth - 1 lift slopes, so the lift's denominators times
    lcm(|slopes|)^(depth-1) keep every cut and intercept integral.
    """
    assert all(p.slope.denominator == 1 for p in lift.pieces), (
        "lift slopes must be integers")
    scale = math.lcm(*(q.denominator for p in lift.pieces
                       for q in (p.lo, p.hi, p.intercept)))
    slopes = math.lcm(*(p.slope.numerator for p in lift.pieces))
    scale *= slopes ** (depth - 1)
    return scale, [(int(p.lo * scale), int(p.hi * scale), p.slope.numerator,
                    int(p.intercept * scale)) for p in lift.pieces]


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


def _count(
    piece: tuple[int, int, int, int], k: int, scale: int, top: int
) -> tuple[int, int]:
    """Diagonal crossings off the integers (0 or 1) and cover count of one
    piece of f^k."""
    lo, hi, s, b = piece
    v_lo, v_hi = s * lo + b, s * hi + b
    # integers in the half-open image: [v_lo, v_hi) ascending, (v_hi, v_lo]
    # descending
    if v_lo < v_hi:
        covered = -(-v_hi // scale) - -(-v_lo // scale)
    else:
        covered = v_lo // scale - v_hi // scale
    if s == 1:
        if b == 0:
            raise DegenerateMapError(
                f"iterate {k} of the lift is the identity on "
                f"[{Fraction(lo, scale)}, {Fraction(hi, scale)}); "
                "the map is not expanding"
            )
        return 0, covered
    # fixed point x = b / (scale * (1 - s)); compare by cross-multiplying
    d = 1 - s
    lod, hid = lo * d, hi * d
    in_piece = (lod <= b < hid) if d > 0 else (hid < b <= lod)
    if not in_piece and hi == top and b == hid:
        in_piece = True
    return int(in_piece and b % (scale * d) != 0), covered


def _next_depth(
    base: list[tuple[int, int, int, int]], los: list[int], points: list[int],
    entries: list[list],
) -> list[list]:
    """The [piece, count] entries of f^(k+1) from those of f^k.

    A clean child is keyed by its oriented image and its O-cell, any other
    child by itself (the pieces of f^(k+1) tile [0, n], so that key is
    unique).  The children of a clean piece lie in its domain and their
    slopes are multiples of its own, so they are clean and in its cell:
    one piece stands for each key, and its children, counted `count`
    times, stand for all of the key's."""
    table: dict[tuple, list] = {}
    for piece, count in entries:
        for child in _children(base, los, *piece):
            lo, hi, s, b = child
            cell = bisect_left(points, lo)
            if abs(s) >= 2 and points[cell] > hi:
                key = (s * lo + b, s * hi + b, cell)
            else:
                key = child
            if key in table:
                table[key][1] += count
            else:
                table[key] = [child, count]
    return list(table.values())


def _branch_orbit(
    steps: int, scale: int,
    base: list[tuple[int, int, int, int]], los: list[int],
) -> tuple[list[int], int | None]:
    """f^1(0), f^2(0), ... in units of 1/scale, up to `steps` points or
    to the first integer among them, and the number t of that integer
    (None if none is met), read through the lift's integer pieces."""
    orbit: list[int] = []
    x = 0
    for t in range(1, steps + 1):
        _, _, s, b = base[bisect_right(los, x) - 1]
        x = s * x + b
        orbit.append(x)
        if x % scale == 0:
            return orbit, t
    return orbit, None


def _marks(
    depth: int, scale: int, top: int,
    base: list[tuple[int, int, int, int]], los: list[int],
) -> tuple[list[int], int | None]:
    """O in units of 1/scale, sorted, and the lift's branch period to
    max(BRANCH_WATCH, depth + 1).  O holds the integers 0..n, and each
    value v the lift takes at a piece end, with f(v) .. f^(depth-1)(v)
    when v is not an integer.

    A piece of f^k has image endpoints f_p(x) for lift pieces p and x an
    end of p or an image endpoint of a piece of f^(k-1), so by induction
    they all lie in O (an integer is always a piece end).  On a canonical
    lift those values are the integers and 1/2 = f(0), and O is the
    integers and f^1..f^depth of the branching point.  That orbit is
    followed once, past depth for the branch period; only its first
    depth points go into O.  After an integer f^t(0) the orbit goes on
    as the orbit of f(f^t(0)), a piece-end value of its own.
    """
    assert set(range(0, top, scale)) <= set(los), (
        "every integer must be a piece end")
    orbit, period = _branch_orbit(max(BRANCH_WATCH, depth + 1), scale,
                                  base, los)
    points = set(range(0, top + 1, scale))
    points.update(orbit[:depth])
    starts = {s * x + b for lo, hi, s, b in base for x in (lo, hi)}
    starts.discard(orbit[0])
    for x in starts:
        if x % scale:
            points.add(x)
            for _ in range(depth - 1):
                _, _, s, b = base[bisect_right(los, x) - 1]
                x = s * x + b
                points.add(x)
    return sorted(points), period


def oracle_counts(
    lift: PLLift, depth: int, budget: int = PIECE_BUDGET
) -> OracleCounts:
    """Crossing and cover counts of f^1..f^depth, one depth at a time.

    Let O be the integers 0..n and the branch orbit f^t(0), 1 <= t <=
    depth: every image endpoint of a piece of f^k (k <= depth) lies in O,
    because the lift maps its breakpoints to integers or to 1/2 = f(0)
    (`_marks` widens O for a lift that is not canonical).  A piece of f^k
    is *clean* when k >= 2, its slope has modulus >= 2 and its closed
    domain holds no point of O, so that it lies inside one open O-cell.
    Every descendant of a clean piece lies in that cell too, and crosses
    the diagonal (once, off the integers) exactly when its image contains
    the cell; the children are the lift's pieces over the image, so they
    depend on the image alone.  All the counts below a clean piece thus
    depend only on its oriented image and its cell.

    So each depth is one table of [piece, count] entries: one entry per
    (oriented image, cell) of clean pieces, holding how many there are,
    and one entry of count 1 per other piece (at most 2|O| per depth on a
    canonical lift).  Every entry is counted once, with the full crossing
    test and the identity check, and its children are expanded once.  The
    table lives for one call and is freed on return; no composite is
    kept.  Piece counts are exact per depth, so the sweep stops at the
    first depth k >= 2 with more than `budget` pieces (`over_budget`) and
    every shallower count is complete.  A piece of f^k within budget that
    lies on the diagonal means the map is not expanding and is rejected.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    scale, base = _scaled(lift, depth)
    top = lift.n * scale
    los = [lo for lo, _, _, _ in base]
    points, branch_period = _marks(depth, scale, top, base, los)
    entries = [[piece, 1] for piece in base]
    crossings: list[int] = []
    covers: list[int] = []
    over = None
    for k in range(1, depth + 1):
        if k > 1 and sum(count for _, count in entries) > budget:
            over = k
            break
        crossed = covered = 0
        for piece, count in entries:
            crossing, cover = _count(piece, k, scale, top)
            crossed += count * crossing
            covered += count * cover
        crossings.append(crossed)
        covers.append(covered)
        if k < depth:
            entries = _next_depth(base, los, points, entries)
    return OracleCounts(tuple(crossings), tuple(covers), over, branch_period)


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """Least t <= depth with f^t(0), the branch orbit, at an integer, or
    None."""
    scale, base = _scaled(lift, 1)
    return _branch_orbit(depth, scale, base, [lo for lo, _, _, _ in base])[1]

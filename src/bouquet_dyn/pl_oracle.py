"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  All arithmetic is in exact integers: the lift is built in
units of 1/scale, scale = 2 lcm(len(A_j)), and a sweep refines those
units once so that every cut it makes stays integral.  Crossing counts
must be exact, so no floating point appears anywhere in this module.
Iterates are not stored.  `oracle_counts` sweeps f^1..f^depth one depth
at a time through one table per depth, local to the call: a piece that
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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateMapError, InputError, LiftConstructionError
from .words import MapAction, Word, branch_period_under

#: composed lifts may not exceed this many linear pieces
PIECE_BUDGET = 10**7

#: `oracle_counts` follows the branch orbit at least this many steps
BRANCH_WATCH = 13


@dataclass(frozen=True)
class PLLift:
    """A piecewise-linear self-map of [0, n] in units of 1/scale.

    Each piece (lo, hi, slope, intercept) is x -> slope*x + intercept on
    [lo, hi), x and the intercept in those units; the pieces tile
    [0, n*scale] in order, the final piece closed at its right end."""

    n: int
    scale: int
    pieces: tuple[tuple[int, int, int, int], ...]


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
    circles in the order of A_j's letters.  The pieces are written in
    units of 1/scale, scale = 2 lcm(len(A_j)), the least in which every
    half and full sub-arc, 1/(2 len(A_j)) and 1/len(A_j), is whole.
    The contract `oracle_counts` relies on and checks: every integer is a
    piece end, and every piece end maps to an integer or to f(0).
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
        stops += [(full, (l.index - 1) * scale + end) for l in w.letters[1:]]
        stops.append((full // 2, end))
        for width, start_value in stops:
            pieces.append((x, x + width, slope, start_value - slope * x))
            x += width
        assert x == (j + 1) * scale, (
            "circle traversal does not tile the interval")
    return PLLift(f.n, scale, tuple(pieces))


@dataclass(frozen=True)
class OracleCounts:
    """One call's counts for each iterate m = 1..len(crossings) in budget.

    `crossings[m-1]` counts the diagonal crossings of f^m at non-integer
    points, `covers[m-1]` the preimages of the branching point under f^m
    (the refined cover size).  The sweep stops before the first iterate
    with more pieces than its budget, so len(crossings) < depth means
    iterate len(crossings) + 1 was over budget.  `branch_period` is the
    least t <= max(BRANCH_WATCH, depth + 1) with f^t(0) at an
    integer, or None: the lift's branch period, as `lift_branch_period`
    gives it.
    """

    crossings: tuple[int, ...]
    covers: tuple[int, ...]
    branch_period: int | None

    def fixed(self, m: int) -> int:
        """Fixed points of f^m on the circles: the crossings, plus 1 when
        f^m fixes the branching point, by the observed `branch_period`."""
        branch_fixed = branch_period_under(self.branch_period, m) == 1
        return self.crossings[m - 1] + int(branch_fixed)


def _scaled(
    lift: PLLift, depth: int
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The scale of a sweep to `depth` and the lift's pieces in units of
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


def _count(
    piece: tuple[int, int, int, int], k: int, scale: int
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
    in_piece = (lo * d <= b < hi * d) if d > 0 else (hi * d < b <= lo * d)
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
    base: Sequence[tuple[int, int, int, int]], los: list[int],
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


def _meets_contract(lift: PLLift) -> bool:
    """Whether every integer is a piece end of the lift and every piece
    end maps to an integer or to f(0), in one pass over its pieces."""
    scale, f0 = lift.scale, lift.pieces[0][3]
    ends = set()
    for lo, hi, s, b in lift.pieces:
        ends.update((lo, hi))
        if any(v % scale and v != f0 for v in (s * lo + b, s * hi + b)):
            return False
    return ends.issuperset(range(0, lift.n * scale + 1, scale))


def _marks(
    depth: int, scale: int, top: int,
    base: list[tuple[int, int, int, int]], los: list[int],
) -> tuple[list[int], int | None]:
    """O in units of 1/scale, sorted: the integers 0..n and f^1(0) ..
    f^depth(0); and the lift's branch period to max(BRANCH_WATCH,
    depth + 1), from one walk of the orbit to its first integer.

    An image endpoint of a piece of f^k is f_p(x), p a lift piece and x
    an end of p or an image endpoint of a piece of f^(k-1).  By the
    contract f_p maps an end of p into O, and a non-integer f^t(0) inside
    p to f^(t+1)(0), so by induction it lies in O.
    """
    orbit, period = _branch_orbit(max(BRANCH_WATCH, depth + 1), scale,
                                  base, los)
    return sorted({*range(0, top + 1, scale), *orbit[:depth]}), period


def oracle_counts(
    lift: PLLift, depth: int, budget: int = PIECE_BUDGET
) -> OracleCounts:
    """Crossing and cover counts of f^1..f^depth, one depth at a time.

    Let O be the integers 0..n and the branch orbit f^t(0), 1 <= t <=
    depth: every image endpoint of a piece of f^k (k <= depth) lies in O
    by `build_lift`'s contract, and a lift that breaks it is refused with
    an InputError.  A piece of f^k is *clean* when k >= 2, its slope has
    modulus >= 2 and its closed domain holds no point of O, so that it
    lies inside one open O-cell.  Every descendant of a clean piece lies
    in that cell too, and crosses the diagonal (once, off the integers)
    exactly when its image contains the cell; the children are the
    lift's pieces over the image, so they depend on the image alone.  All
    the counts below a clean piece thus depend only on its oriented image
    and its cell.

    So each depth is one table of [piece, count] entries: one entry per
    (oriented image, cell) of clean pieces, holding how many there are, and
    one entry of count 1 per other piece (at most 2|O| per depth).  Every
    entry is counted once, with the full crossing test and the identity
    check, and its children are expanded once.  The table lives for one call
    and is freed on return; no composite is kept.  Piece counts are exact
    per depth, so the sweep stops before the first depth k >= 2 with more
    than `budget` pieces and every shallower count is complete.  A piece of
    f^k within budget that lies on the diagonal means the map is not
    expanding and is rejected.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    if not _meets_contract(lift):
        raise InputError(
            "the lift breaks build_lift's contract: every integer must be "
            "a piece end, and every piece end map to an integer or to f(0)")
    scale, base = _scaled(lift, depth)
    top = lift.n * scale
    los = [lo for lo, _, _, _ in base]
    points, branch_period = _marks(depth, scale, top, base, los)
    entries = [[piece, 1] for piece in base]
    crossings: list[int] = []
    covers: list[int] = []
    for k in range(1, depth + 1):
        if k > 1 and sum(count for _, count in entries) > budget:
            break
        crossed = covered = 0
        for piece, count in entries:
            crossing, cover = _count(piece, k, scale)
            crossed += count * crossing
            covered += count * cover
        crossings.append(crossed)
        covers.append(covered)
        if k < depth:
            entries = _next_depth(base, los, points, entries)
    return OracleCounts(tuple(crossings), tuple(covers), branch_period)


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """Least t <= depth with f^t(0), the branch orbit, at an integer, or
    None."""
    los = [lo for lo, _, _, _ in lift.pieces]
    return _branch_orbit(depth, lift.scale, lift.pieces, los)[1]

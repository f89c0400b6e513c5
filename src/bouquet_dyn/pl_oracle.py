"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  All arithmetic is exact rational: crossing counts must be
exact, so no floating point appears anywhere in this module.  Iterates
are not stored.  `oracle_counts` sweeps f^1..f^depth one depth at a
time: it walks one by one only the pieces that touch the integers or the
branch orbit, and counts every other piece through a table, local to the
call, of how many pieces share an image and a cell between those points.
`OracleCounts` holds every iterate's counts from that one sweep, and
`lift_branch_period` follows the branch orbit to its first integer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetError,
    DegenerateMapError,
    InputError,
    LiftConstructionError,
)
from .words import MapAction, Word, branch_period_under

HALF = Fraction(1, 2)

#: composed lifts may not exceed this many linear pieces
PIECE_BUDGET = 10**7


@dataclass(frozen=True)
class Piece:
    """One linear piece x -> slope*x + intercept on [lo, hi)."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PLLift:
    """A piecewise-linear self-map of [0, n], pieces half-open with the
    final piece closed at n."""

    n: int
    pieces: tuple[Piece, ...]

    def piece_at(self, x: Fraction) -> Piece:
        if not 0 <= x <= self.n:
            raise ValueError(f"{x} outside [0, {self.n}]")
        return self.pieces[bisect_right(self.pieces, x, key=lambda p: p.lo) - 1]

    def value(self, x: Fraction) -> Fraction:
        return self.piece_at(x).value(x)

    def dump(self) -> str:
        """One line per piece: `lo hi slope intercept` in p/q notation."""
        return "\n".join(
            f"{p.lo} {p.hi} {p.slope} {p.intercept}" for p in self.pieces
        )


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
    more than `budget` pieces, or None.
    """

    crossings: tuple[int, ...]
    covers: tuple[int, ...]
    over_budget: int | None
    budget: int

    def fixed(self, m: int, branch_period: int | None) -> int:
        """Fixed points of f^m on the circles: the crossings, plus 1 when
        f^m fixes the branching point (`branch_period` is the lift's,
        observed to depth >= m)."""
        branch_fixed = branch_period_under(branch_period, m) == 1
        return self.crossings[m - 1] + int(branch_fixed)

    def budget_error(self) -> BudgetError:
        return BudgetError(f"composed lift exceeds {self.budget} pieces",
                           smallest_m=self.over_budget)


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


def _cover(v_lo: int, v_hi: int, scale: int) -> int:
    """Integers in a piece's half-open image, from the images of its left
    and right ends: [v_lo, v_hi) ascending, (v_hi, v_lo] descending."""
    if v_lo < v_hi:
        return -(-v_hi // scale) - -(-v_lo // scale)
    return v_lo // scale - v_hi // scale


#: (image of left end, image of right end, O-cell) -> [a piece, count]
_Table = dict[tuple[int, int, int], list]


def _count_walked(
    walked: list[tuple[int, int, int, int]], k: int, scale: int, top: int
) -> tuple[int, int]:
    """Diagonal crossings off the integers and cover count of the pieces
    of f^k handled one by one."""
    crossed = covered = 0
    for lo, hi, s, b in walked:
        covered += _cover(s * lo + b, s * hi + b, scale)
        if s == 1:
            if b == 0:
                raise DegenerateMapError(
                    f"iterate {k} of the lift is the identity on "
                    f"[{Fraction(lo, scale)}, {Fraction(hi, scale)}); "
                    "the map is not expanding"
                )
            continue
        # fixed point x = b / (scale * (1 - s)); compare by cross-multiplying
        d = 1 - s
        lod, hid = lo * d, hi * d
        in_piece = (lod <= b < hid) if d > 0 else (hid < b <= lod)
        if not in_piece and hi == top and b == hid:
            in_piece = True
        if in_piece and b % (scale * d) != 0:
            crossed += 1
    return crossed, covered


def _tally(table: _Table, piece: tuple[int, int, int, int], cell: int,
           count: int) -> None:
    lo, hi, s, b = piece
    key = (s * lo + b, s * hi + b, cell)
    if key in table:
        table[key][1] += count
    else:
        table[key] = [piece, count]


def _next_depth(
    base: list[tuple[int, int, int, int]], los: list[int], points: list[int],
    walked: list[tuple[int, int, int, int]], table: _Table,
) -> tuple[list[tuple[int, int, int, int]], _Table]:
    """The pieces of f^(k+1): the children of walked pieces that are not
    clean, and the clean ones tallied by key.  One piece stands for each
    key; its children, in its own cell, stand for all of the key's."""
    next_walked: list[tuple[int, int, int, int]] = []
    next_table: _Table = {}
    for piece in walked:
        for child in _children(base, los, *piece):
            lo, hi, s, _ = child
            cell = bisect_left(points, lo)
            if abs(s) >= 2 and points[cell] > hi:
                _tally(next_table, child, cell, 1)
            else:
                next_walked.append(child)
    for (_, _, cell), (piece, count) in table.items():
        for child in _children(base, los, *piece):
            _tally(next_table, child, cell, count)
    return next_walked, next_table


def _marks(
    lift: PLLift, depth: int, scale: int,
    base: list[tuple[int, int, int, int]], los: list[int],
) -> list[int]:
    """O in units of 1/scale, sorted: the integers 0..n, and each value v
    the lift takes at a piece end, with f(v) .. f^(depth-1)(v) when v is
    not an integer.

    A piece of f^k has image endpoints f_p(x) for lift pieces p and x an
    end of p or an image endpoint of a piece of f^(k-1), so by induction
    they all lie in O (an integer is always a piece end).  On a canonical
    lift those values are the integers and 1/2 = f(0), and O is the
    integers and f^1..f^depth of the branching point.
    """
    top = lift.n * scale
    assert set(range(0, top, scale)) <= set(los), (
        "every integer must be a piece end")
    starts = {s * x + b for lo, hi, s, b in base for x in (lo, hi)}
    points = set(range(0, top + 1, scale))
    for v in starts:
        if v % scale:
            points.add(v)
            points.update(int(x * scale) for x in
                          _orbit(lift, Fraction(v, scale), depth - 1))
    return sorted(points)


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

    So the pieces of depth 1 and the pieces that are not clean (those
    touching O: at most 2|O| per depth on a canonical lift) are walked
    one by one, with the full crossing test and the identity check.  The
    clean pieces of each depth live in a table keyed by (oriented image,
    cell) that holds how many there are; each key's counts and children
    are computed once.  The table lives for one call and is freed on
    return; no composite is kept.  Piece counts are exact per depth, so
    the sweep stops at the first depth k >= 2 with more than `budget`
    pieces (`over_budget`) and every shallower count is complete.  A
    piece of f^k within budget that lies on the diagonal means the map is
    not expanding and is rejected.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    scale, base = _scaled(lift, depth)
    los = [lo for lo, _, _, _ in base]
    points = _marks(lift, depth, scale, base, los)
    walked, table = base, {}
    crossings: list[int] = []
    covers: list[int] = []
    over = None
    for k in range(1, depth + 1):
        if k > 1 and len(walked) + sum(c for _, c in table.values()) > budget:
            over = k
            break
        crossed, covered = _count_walked(walked, k, scale, lift.n * scale)
        for (v_lo, v_hi, cell), (_, count) in table.items():
            covered += count * _cover(v_lo, v_hi, scale)
            if (min(v_lo, v_hi) <= points[cell - 1]
                    and max(v_lo, v_hi) >= points[cell]):
                crossed += count
        crossings.append(crossed)
        covers.append(covered)
        if k < depth:
            walked, table = _next_depth(base, los, points, walked, table)
    return OracleCounts(tuple(crossings), tuple(covers), over, budget)


def _orbit(lift: PLLift, x: Fraction, steps: int) -> list[Fraction]:
    """f(x), f^2(x), .., f^steps(x), evaluated pointwise and exactly."""
    out = []
    for _ in range(steps):
        x = lift.value(x)
        out.append(x)
    return out


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """Least t <= depth with f^t(0), the branch orbit, at an integer, or
    None."""
    x = Fraction(0)
    for t in range(1, depth + 1):
        x = lift.value(x)
        if x.denominator == 1:
            return t
    return None

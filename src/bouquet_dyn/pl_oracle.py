"""Exact piecewise-linear realization of a bouquet self-map.

The lift is a map of [0, n] with all integers identified to the branching
point.  Each circle [j-1, j] starts and ends at height 1/2, covers the
second half of circle 1, then one full circle per remaining letter of the
image word, then the first half of circle 1 (mirrored when orientation
reverses).  All arithmetic is exact rational: crossing counts must be
exact, so no floating point appears anywhere in this module.  Iterates
are not stored: one depth-first walk over their linear pieces yields
every count (`oracle_counts`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DegenerateMapError, LiftConstructionError
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
    """One walk's counts for each iterate m = 1..len(crossings) in budget.

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
        return _budget_error(self.budget, self.over_budget)


def _budget_error(budget: int, m: int | None) -> BudgetError:
    return BudgetError(f"composed lift exceeds {budget} pieces", smallest_m=m)


class _Walk:
    """Depth-first walk, on an explicit stack, over the linear pieces of
    f^1..f^depth, yielding (k, lo, hi, slope, intercept) as integers in
    units of 1/scale.

    The children of a piece of f^k are f after it, cut where its image
    crosses a breakpoint of f; they come left to right.  A cut divides by
    the piece's slope, a product of k lift slopes, so a scale of the
    lift's denominators times lcm(|slopes|)^(depth-1) keeps every cut and
    intercept integral.  `pieces[k]` counts the pieces of f^k met; once it
    passes `budget` (k >= 2) the walk stops going to depth k, so the first
    such k is the first iterate over budget and shallower counts are
    complete.
    """

    def __init__(self, lift: PLLift, depth: int, budget: int):
        assert all(p.slope.denominator == 1 for p in lift.pieces), (
            "lift slopes must be integers")
        scale = math.lcm(*(q.denominator for p in lift.pieces
                           for q in (p.lo, p.hi, p.intercept)))
        slopes = math.lcm(*(p.slope.numerator for p in lift.pieces))
        self.scale = scale * slopes ** (depth - 1)
        self.base = [(int(p.lo * self.scale), int(p.hi * self.scale),
                      p.slope.numerator, int(p.intercept * self.scale))
                     for p in lift.pieces]
        self.depth, self.budget = depth, budget
        self.pieces = [0] * (depth + 1)

    def __iter__(self) -> Iterator[tuple[int, int, int, int, int]]:
        base, pieces, budget = self.base, self.pieces, self.budget
        los = [lo for lo, _, _, _ in base]
        limit = self.depth
        stack = [(1, *piece) for piece in reversed(base)]
        while stack:
            node = stack.pop()
            k, lo, hi, s, b = node
            if k > limit:
                continue
            pieces[k] += 1
            if k > 1 and pieces[k] > budget:
                limit = k - 1
                continue
            yield node
            if k == limit:
                continue
            # los[i0:i1] are the breakpoints strictly inside the image;
            # push the children right to left so they pop left to right
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
                stack.append((k + 1, x_lo, x_hi, ps * s, ps * b + pb))
                x_hi = x_lo

    def over_budget(self) -> int | None:
        return next((k for k in range(2, self.depth + 1)
                     if self.pieces[k] > self.budget), None)


def oracle_counts(
    lift: PLLift, depth: int, budget: int = PIECE_BUDGET
) -> OracleCounts:
    """Crossing and cover counts of f^1..f^depth from one depth-first walk.

    Memory is the walk's stack, at most one lift's pieces per depth; no
    composite is kept.  A piece lying on the diagonal means the map is
    not expanding and is rejected.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    walk = _Walk(lift, depth, budget)
    scale = walk.scale
    top = lift.n * scale
    crossings = [0] * (depth + 1)
    covers = [0] * (depth + 1)
    for k, lo, hi, s, b in walk:
        # integers in the half-open image: [v_lo, v_hi) when ascending,
        # (v_hi, v_lo] when descending
        v_lo = s * lo + b
        v_hi = s * hi + b
        if s > 0:
            covers[k] += -(-v_hi // scale) - -(-v_lo // scale)
        else:
            covers[k] += v_lo // scale - v_hi // scale
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
            crossings[k] += 1
    over = walk.over_budget()
    counted = depth if over is None else over - 1
    return OracleCounts(tuple(crossings[1 : counted + 1]),
                        tuple(covers[1 : counted + 1]), over, budget)


def _counts_to(lift: PLLift, m: int, budget: int) -> OracleCounts:
    counts = oracle_counts(lift, m, budget)
    if counts.over_budget is not None:
        raise counts.budget_error()
    return counts


def iterate_lift(lift: PLLift, m: int, budget: int = PIECE_BUDGET) -> PLLift:
    """Exact m-fold composition of the lift: the walk's depth-m pieces."""
    if m < 1:
        raise ValueError(f"iterate must be >= 1, got {m}")
    if m == 1:
        return lift
    walk = _Walk(lift, m, budget)
    scale = walk.scale
    leaves = tuple(
        Piece(Fraction(lo, scale), Fraction(hi, scale), Fraction(s),
              Fraction(b, scale))
        for k, lo, hi, s, b in walk if k == m
    )
    over = walk.over_budget()
    if over is not None:
        raise _budget_error(budget, over)
    return PLLift(lift.n, leaves)


def branch_orbit(lift: PLLift, depth: int) -> list[Fraction]:
    """Successive images of the branching point (coordinate 0) under the
    lift, evaluated pointwise and exactly."""
    out = []
    x = Fraction(0)
    for _ in range(depth):
        x = lift.value(x)
        out.append(x)
    return out


def lift_branch_period(lift: PLLift, depth: int) -> int | None:
    """Least t <= depth with the branch orbit back at an integer, or None."""
    for t, x in enumerate(branch_orbit(lift, depth), start=1):
        if x.denominator == 1:
            return t
    return None


def count_fixed(lift: PLLift, m: int, budget: int = PIECE_BUDGET) -> int:
    """Fixed points of the m-th iterate of the projected circle map.

    Counts exact diagonal crossings of the composed lift at non-integer
    points, plus 1 when the branching point itself is m-periodic.  This
    walks to depth m; `oracle_counts` gives every m <= depth in one walk.
    """
    counts = _counts_to(lift, m, budget)
    return counts.fixed(m, lift_branch_period(lift, m))


def mono_cover_size(lift: PLLift) -> int:
    """Number of preimages of the branching point, piece by piece.

    Equals the entry-sum norm of the homology matrix: each monotone arc
    between consecutive preimages covers one full circle.
    """
    return oracle_counts(lift, 1).covers[0]


def cover_growth(lift: PLLift, m: int, budget: int = PIECE_BUDGET) -> int:
    """Branch-preimage count of the m-th iterate (the refined cover size)."""
    return _counts_to(lift, m, budget).covers[m - 1]

"""Piecewise-linear lift: construction, composition, crossing counts,
and the cover identity that lets the oracle count no covers."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from bouquet_dyn import (
    PowerSequences,
    abelianize,
    action,
    fix_counts,
    homology,
    pl_oracle,
)
from bouquet_dyn.errors import (
    DegenerateMapError,
    InputError,
    LiftConstructionError,
)
from bouquet_dyn.homology import mat_mul, power_traces, recur
from bouquet_dyn.pl_oracle import (OracleCounts, PLLift, build_lift,
                                   lift_branch_period, oracle_counts)

from conftest import (
    PIECE_BUDGET,
    BudgetError,
    Walk,
    census,
    divisors,
    domain_maps,
    fraction_pieces,
    iterate_action,
    iterate_lift,
    lift_value,
    mat_pow,
    norm1,
    random_action,
    random_branch_periodic_action,
    random_expanding_action,
    walk_covers,
)

REFLECT = action("a1' a1'")
DOUBLE = action("a1 a1")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
# x -> 2 - x on [0, 2]
FLIP = PLLift(2, 1, ((0, 1, -1, 2), (1, 2, -1, 2)))
# x -> x + 1/20 on [0, 19/20), then down from 1 to 1/20: the orbit of 0
# climbs by 1/20 a step and first meets an integer at step 20
SLOW_RETURN = PLLift(1, 20, ((0, 19, 1, 1), (19, 20, -19, 381)))


def formula_fixes(f, depth):
    return fix_counts(f, PowerSequences.of(abelianize(f), depth).traces)


def lift_fix(lift, m):
    """Fixed points of f^m on the circles, read off one oracle call."""
    return oracle_counts(lift, m).fixed(m)


def orbit(lift, x, steps):
    """f(x), f^2(x), .., f^steps(x), evaluated pointwise and exactly."""
    out = []
    for _ in range(steps):
        x = lift_value(lift, x)
        out.append(x)
    return out


def orbit_period(lift, depth=None):
    """Least t <= depth (any t, when depth is None) with f^t(0) an
    integer, or None, on the pointwise `Fraction` orbit: a reference for
    the oracle's integer walk.  A point seen twice off the integers means
    the orbit has cycled without meeting one."""
    x, seen, t = Fraction(0), set(), 0
    while depth is None or t < depth:
        x, t = lift_value(lift, x), t + 1
        if x.denominator == 1:
            return t
        if x in seen:
            return None
        seen.add(x)
    return None


def walk_counts(lift, depth):
    """Reference for `oracle_counts`: count every piece of the depth-first
    walk over the composed lifts f^1..f^depth, one at a time, for the
    fixed points off the integers, and add the branching point where the
    pointwise `orbit_period` divides m."""
    walk = Walk(lift, depth, PIECE_BUDGET)
    scale = walk.scale
    top = lift.n * scale
    crossings = [0] * (depth + 1)
    for k, lo, hi, s, b in walk:
        if s == 1:
            if b == 0:
                raise DegenerateMapError(f"iterate {k} is the identity")
            continue
        # fixed point x = b / (scale * (1 - s)); compare by cross-multiplying
        d = 1 - s
        lod, hid = lo * d, hi * d
        in_piece = (lod <= b < hid) if d > 0 else (hid < b <= lod)
        if not in_piece and hi == top and b == hid:
            in_piece = True
        if in_piece and b % (scale * d) != 0:
            crossings[k] += 1
    assert walk.over_budget() is None, "reference walk over its budget"
    period = orbit_period(lift)
    lift_fix = tuple(c + (period is not None and m % period == 0)
                     for m, c in enumerate(crossings[1:], start=1))
    return OracleCounts(lift_fix, period)


def counts_or_degenerate(count, lift, depth):
    try:
        return count(lift, depth)
    except DegenerateMapError:
        return DegenerateMapError


class TestBuildLift:
    def test_lemma_example_slopes_and_pieces(self):
        # a1 -> a1 a3 a1 a2 a2 within a G3 map: slope 5, six pieces on [0,1]
        f = action("a1 a3 a1 a2 a2", "a1 a1", "a1 a3")
        lift = build_lift(f)
        first_circle = [p for p in fraction_pieces(lift) if p[1] <= 1]
        assert len(first_circle) == 6
        assert all(s == 5 for _, _, s, _ in first_circle)
        bounds = [lo for lo, _, _, _ in first_circle] + [Fraction(1)]
        assert bounds == [Fraction(v, 10) for v in (0, 1, 3, 5, 7, 9, 10)]
        starts = [lift_value(lift, lo) for lo, _, _, _ in first_circle]
        assert starts == [Fraction(1, 2), 2, 0, 1, 1, 0]

    def test_integer_heights(self):
        f, lift = random_expanding_action(__import__("random").Random(7))
        for j in range(0, f.n + 1):
            assert lift_value(lift, Fraction(j)) == Fraction(1, 2)

    def test_scale_is_least(self):
        # whole entries with no factor shared by the scale and every end
        # and intercept, so the oracle's integers never grow for nothing
        rng = random.Random(13)
        for sign in (1, -1):
            for _ in range(100):
                _, lift = random_expanding_action(rng, sign=sign)
                entries = [lift.scale, *(v for p in lift.pieces for v in p)]
                assert all(type(v) is int for v in entries), lift
                ends = [v for lo, hi, _, b in lift.pieces for v in (lo, hi, b)]
                assert math.gcd(lift.scale, *ends) == 1, lift

    def test_single_letter_circle_one_rejected(self):
        with pytest.raises(DegenerateMapError):
            build_lift(action("a1", "a1 a2"))

    def test_reflected_circle_one_gets_single_letter_refusal(self):
        # the image a1' is one letter, so circle 1 maps to itself with
        # slope -1, and the single-letter refusal names that
        with pytest.raises(DegenerateMapError, match="single letter"):
            build_lift(action("a1'", "a1' a2' a2'"))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateMapError):
            build_lift(action("a1"))

    def test_word_missing_circle_one_rejected(self):
        with pytest.raises(LiftConstructionError):
            build_lift(action("a1 a2", "a2 a2"))

    def test_reflection_pieces(self):
        lift = build_lift(REFLECT)
        assert [s for _, _, s, _ in lift.pieces] == [-2, -2, -2]
        assert lift_value(lift, Fraction(0)) == Fraction(1, 2)
        assert lift_value(lift, Fraction(1)) == Fraction(1, 2)

    def test_dump_format(self):
        lift = build_lift(DOUBLE)
        assert fraction_pieces(lift)[0] == (
            Fraction(0), Fraction(1, 4), Fraction(2), Fraction(1, 2))


class TestIterateLift:
    def test_first_iterate_unchanged(self):
        lift = build_lift(DOUBLE)
        assert iterate_lift(lift, 1) is lift

    def test_doubling_composition(self):
        lift = build_lift(DOUBLE)
        cubed = iterate_lift(lift, 3)
        assert all(s == 8 for _, _, s, _ in cubed.pieces)

    def test_composition_is_pointwise_power(self):
        # the walk's depth-2 leaves tile [0, n] and agree with f(f(x)) at
        # their left ends, their midpoints and interior sample points
        rng = __import__("random").Random(11)
        f, lift = random_expanding_action(rng)
        squared = iterate_lift(lift, 2)
        pieces = fraction_pieces(squared)
        assert pieces[0][0] == 0 and pieces[-1][1] == f.n
        for p, q in zip(pieces, pieces[1:]):
            assert p[1] == q[0]
        points = [Fraction(k, 41) * f.n for k in range(1, 40)]
        points += [lo for lo, _, _, _ in pieces]
        points += [(lo + hi) / 2 for lo, hi, _, _ in pieces]
        for x in points:
            assert lift_value(squared, x) == lift_value(lift, lift_value(lift, x))

    def test_budget_error(self):
        lift = build_lift(DOUBLE)
        with pytest.raises(BudgetError) as e:
            iterate_lift(lift, 12, budget=100)
        m = e.value.smallest_m
        assert len(iterate_lift(lift, m).pieces) > 100
        assert len(iterate_lift(lift, m - 1).pieces) <= 100


class TestBranchOrbit:
    def test_reflection_orbit_stays_at_half(self):
        lift = build_lift(REFLECT)
        assert orbit(lift, Fraction(0), 4) == [Fraction(1, 2)] * 4
        assert lift_branch_period(lift, 12) is None

    def test_rotating_word_fixes_branch_orbit(self):
        # a1 -> a3 a1 rotates to a1 a3: the orbit lands on circle 3's
        # midpoint and stays there
        f = action("a3 a1", "a1 a1", "a1 a3")
        lift = build_lift(f)
        assert all(x.denominator == 2 for x in orbit(lift, Fraction(0), 6))
        assert lift_branch_period(lift, 6) is None

    def test_sweep_period_matches_lift_branch_period(self):
        # the oracle follows the branch orbit through its point map until
        # it cycles; on canonical lifts whose orbit may or may not return
        # to an integer, at depths 1-7 and 13-40, and on their composed
        # squares, it gives the exact period of the pointwise orbit, which
        # the public helper finds within that many steps
        rng = random.Random(12)
        depths = random.Random(13)
        returns = []
        deep_returns = set()
        while len(returns) < 150:
            f = random_action(rng, n_max=4, len_max=3)
            try:
                lift = build_lift(f)
                depth = rng.randint(1, 7)
                counts = oracle_counts(lift, depth)
            except LiftConstructionError:
                continue
            period = orbit_period(lift)
            assert counts.branch_period == period, (f, depth)
            if period is not None:
                assert lift_branch_period(lift, period) == period, f
            for steps in (1, 2, 5):
                assert lift_branch_period(lift, steps) == orbit_period(
                    lift, steps), (f, steps)
            returns.append(period is not None)
            for case in (lift, iterate_lift(lift, 2)):
                depth = depths.randint(13, 40)
                try:
                    counts = oracle_counts(case, depth)
                except DegenerateMapError:
                    continue
                period = orbit_period(case)
                assert counts.branch_period == period, (f, depth)
                assert lift_branch_period(case, depth + 1) == orbit_period(
                    case, depth + 1), f
                deep_returns.add(period is not None)
        assert set(returns) == deep_returns == {True, False}

    def test_late_return_is_exact(self):
        # the first return at step 20 is seen at every depth, however far
        # below 20; the public helper sees it only within its depth
        assert orbit_period(SLOW_RETURN) == 20
        for depth in range(1, 31):
            assert oracle_counts(SLOW_RETURN, depth).branch_period == 20
        assert lift_branch_period(SLOW_RETURN, 19) is None
        assert lift_branch_period(SLOW_RETURN, 20) == 20

    def test_helper_reads_the_counts_period(self):
        # the helper reads the counts' period at depth 1, so that period
        # must not depend on the depth: on seeded lifts of both signs,
        # branch orbits periodic or not, the counts give it at every depth
        # they reach, and the helper gives it capped at its own depth
        rng = random.Random(41)
        cases = [SLOW_RETURN, FLIP]
        for sign in (1, -1):
            cases += [random_expanding_action(rng, sign=sign)[1]
                      for _ in range(30)]
        cases += [random_branch_periodic_action(rng)[1] for _ in range(60)]
        periods = set()
        for lift in cases:
            period = oracle_counts(lift, 1).branch_period
            for depth in (1, 2, 3, 5, 8, 13, 21, 30):
                capped = period if period is not None and period <= depth else None
                assert lift_branch_period(lift, depth) == capped, (lift, depth)
                periods.add(capped)
                try:
                    counts = oracle_counts(lift, depth)
                except DegenerateMapError:
                    continue
                assert counts.branch_period == period, (lift, depth)
        assert {None, 1, 2, 3, 20} <= periods, periods


class TestCountFixed:
    def test_reflection_fixed_points(self):
        lift = build_lift(REFLECT)
        assert lift_fix(lift, 1) == 3

    def test_doubling_square(self):
        lift = build_lift(DOUBLE)
        assert lift_fix(lift, 2) == 3

    def test_divisor_identity_against_census(self):
        f = action("a1 a2", "a1 a2")
        lift = build_lift(f)
        pers = census(f, 6)
        counts = oracle_counts(lift, 6)
        for m in range(1, 7):
            expected = sum(pers[r - 1] for r in divisors(m))
            assert counts.fixed(m) == expected

    def test_fixed_branch_counted(self):
        lift = build_lift(LOW_GROWTH)
        assert lift_fix(lift, 1) == formula_fixes(LOW_GROWTH, 1)[0] == 1

    def test_matches_formula_on_random_actions(self, rng):
        for _ in range(10):
            f, lift = random_expanding_action(rng)
            fixes = formula_fixes(f, 8)
            counts = oracle_counts(lift, 8)
            for m in range(1, 9):
                assert counts.fixed(m) == fixes[m - 1], (f, m)

    def test_periodic_branch_matches_formula(self):
        f = action("a2 a1", "a4 a1", "a1", "a1", k=4)
        lift = build_lift(f)
        assert lift_branch_period(lift, 4) == 4
        assert lift_fix(lift, 4) == formula_fixes(f, 4)[3]


class TestTableMatchesWalk:
    """`oracle_counts` against the piece-by-piece reference walk."""

    def test_lift_viable_to_depth_8(self):
        # the sizes of the benchmark's oracle workload: words <= 3 letters
        rng = random.Random(21)
        for _ in range(150):
            f, lift = random_expanding_action(rng, len_max=3)
            assert oracle_counts(lift, 8) == walk_counts(lift, 8), f

    def test_single_letter_images_to_depth_7(self):
        # any random action with a lift, branch orbits that return to an
        # integer included; single-letter images give slope-1 pieces
        rng = random.Random(22)
        compared = single = 0
        for _ in range(600):
            f = random_action(rng, n_max=4, len_max=3)
            try:
                lift = build_lift(f)
            except LiftConstructionError:
                continue
            compared += 1
            single += any(len(f.image(j)) == 1 for j in range(1, f.n + 1))
            assert (counts_or_degenerate(oracle_counts, lift, 7)
                    == counts_or_degenerate(walk_counts, lift, 7)), f
        assert compared > 100 and single > 20, (compared, single)
        # x -> 2 - x on [0, 2]: f^2 is the identity, so both must raise
        for count in (oracle_counts, walk_counts):
            assert counts_or_degenerate(count, FLIP, 7) is DegenerateMapError
        with pytest.raises(DegenerateMapError) as e:
            oracle_counts(FLIP, 7)
        assert str(e.value) == ("iterate 2 of the lift is the identity on "
                                "[0, 1); the map is not expanding")

    def test_flip_counted_at_depth_1(self):
        # f itself is no identity: its one fixed point, 1, is an integer
        counts = oracle_counts(FLIP, 1)
        assert counts == walk_counts(FLIP, 1)
        assert counts.lift_fix == (1,) and walk_covers(FLIP, 1) == (2,)

    def test_integers_mapping_to_other_integers(self):
        # expanding lifts that jump at an integer, so integers map to
        # other integers: x -> 2x, 2x - 2 on [0, 2] (1 goes to 2 and 0,
        # 2 to itself), x -> 3x - 3(j - 1) on each circle of [0, 3],
        # x -> 2 - 2x, 4 - 2x (0 and 2 swap) and x -> 2x, 4 - 2x (1 goes
        # to 2, 2 to 0); on the bouquet every integer is the branching
        # point, which f fixes
        lifts = [PLLift(2, 1, ((0, 1, 2, 0), (1, 2, 2, -2))),
                 PLLift(3, 1, ((0, 1, 3, 0), (1, 2, 3, -3), (2, 3, 3, -6))),
                 PLLift(2, 1, ((0, 1, -2, 2), (1, 2, -2, 4))),
                 PLLift(2, 1, ((0, 1, 2, 0), (1, 2, -2, 4)))]
        for lift in lifts:
            counts = oracle_counts(lift, 8)
            assert counts == walk_counts(lift, 8), lift
            assert counts.branch_period == 1, lift
        assert (oracle_counts(lifts[0], 8).lift_fix
                == tuple(2**m - 1 for m in range(1, 9)))

    def test_both_trace_routes(self, monkeypatch):
        # tr S^m comes from matrix products for m <= dim S and from the
        # characteristic recurrence past it; random lifts at depths 1-8
        # take both routes, and both match the walk
        recurred = []

        def spy(*args):
            recurred[-1] = True
            return recur(*args)

        monkeypatch.setattr(pl_oracle, "recur", spy)
        rng = random.Random(23)
        for _ in range(300):
            f = random_action(rng, n_max=3, len_max=3)
            try:
                lift = build_lift(f)
            except LiftConstructionError:
                continue
            depth = rng.randint(1, 8)
            recurred.append(False)
            assert oracle_counts(lift, depth) == walk_counts(lift, depth), f
        assert recurred.count(True) > 20 and recurred.count(False) > 20

    def test_products_up_to_dim_eight(self, monkeypatch):
        # tr S^1..S^k, k = min(depth, dim S), by baby steps S^1..S^isqrt(k)
        # and one product per further giant step; k <= 2 takes none
        products = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3}
        calls, dims = [], []

        def counted(a, b):
            calls.append(1)
            return mat_mul(a, b)

        def spy(a, *args, **kwargs):
            dims.append(len(a))
            return power_traces(a, *args, **kwargs)

        monkeypatch.setattr(homology, "mat_mul", counted)
        monkeypatch.setattr(pl_oracle, "power_traces", spy)
        rng = random.Random(24)
        seen = set()
        for _ in range(400):
            f = random_action(rng, n_max=5, len_max=4)
            try:
                lift = build_lift(f)
            except LiftConstructionError:
                continue
            for depth in (*range(1, 9), 40):
                calls.clear()
                dims.clear()
                try:
                    oracle_counts(lift, depth)
                except DegenerateMapError:
                    continue
                (dim,) = dims
                if dim <= 8:
                    k = min(depth, dim)
                    assert len(calls) == products[k], (f, depth, dim)
                    seen.add(k)
        assert seen == set(products)

    def test_composed_lifts(self):
        # f^2 and f^3, composed by the walk, are lifts whose piece ends
        # need not map to an integer or to their own value at 0, as a
        # canonical lift's do; they are counted all the same
        rng = random.Random(3)
        for _ in range(40):
            _, lift = random_expanding_action(rng, len_max=3)
            counts = oracle_counts(lift, 6)
            covers = walk_covers(lift, 6)
            for m, depth in ((2, 3), (3, 2)):
                composed = iterate_lift(lift, m)
                walked = walk_counts(composed, depth)
                assert oracle_counts(composed, depth) == walked
                assert walked.lift_fix == counts.lift_fix[m - 1::m]
                assert walk_covers(composed, depth) == covers[m - 1::m]

    def test_lifts_breaking_the_contract_refused(self):
        # `FLIP`'s map x -> 2 - x, cut so that a piece end (5/3) maps to
        # 1/3, or left uncut at the integer 1: both are the identity at
        # iterate 2
        thirds = PLLift(2, 3, ((0, 3, -1, 6), (3, 5, -1, 6), (5, 6, -1, 6)))
        uncut = PLLift(2, 1, ((0, 2, -1, 2),))
        for lift in (thirds, uncut):
            with pytest.raises(DegenerateMapError, match="iterate 2 "):
                oracle_counts(lift, 3)
            assert oracle_counts(lift, 1).lift_fix == (1,)

    @pytest.mark.parametrize("lift, message", [
        # one-sided values 1 and 3/4 at the piece end 1/4
        (PLLift(1, 4, ((0, 1, 2, 2), (1, 3, -1, 4), (3, 4, 1, -2))),
         "the lift is not continuous at 1/4"),
        # 0 goes to 1/2 and 1 to 0: two values at the branching point
        (PLLift(1, 2, ((0, 1, 1, 1), (1, 2, -2, 4))),
         "the lift is not continuous at the branching point"),
        # x -> 2x - 1 on [1, 2] sends 2 to 3
        (PLLift(2, 1, ((0, 1, 2, 0), (1, 2, 2, -1))), "the lift leaves [0, 2]"),
        # 1 on [1/2, 1]
        (PLLift(1, 2, ((0, 1, 2, 0), (1, 2, 0, 2))),
         "the lift is constant at 1/2"),
        # x -> x on [0, 1/2), then 1 - x: the identity from iterate 1
        (PLLift(1, 2, ((0, 1, 1, 0), (1, 2, -1, 2))),
         "iterate 1 of the lift is the identity on [0, 1/2); the map is "
         "not expanding"),
    ], ids=["torn", "branching-point", "leaves", "constant", "identity"])
    def test_each_refusal_names_its_reason(self, lift, message):
        # the counts and the branch period refuse a lift with one text
        for call in (oracle_counts, lift_branch_period):
            with pytest.raises(InputError) as e:
                call(lift, 1)
            assert str(e.value) == message


def lift_viable_domain():
    """(action, lift) for every map of the exhaustive domain
    (`conftest.domain_maps`, declared free) that has a canonical lift."""
    for k, texts, _ in domain_maps():
        if k is None:
            f = action(*texts)
            try:
                yield f, build_lift(f)
            except LiftConstructionError:
                continue


class TestCover:
    """The identity that lets the oracle count no covers: on every lift
    that `build_lift` makes, the walk's covers of f^m are ||M^m||_1, the
    report's `PowerSequences.norms` (see `oracle_counts`)."""

    def test_low_growth_cover(self):
        lift = build_lift(LOW_GROWTH)
        cover = walk_covers(lift, 1)[0]
        assert cover == 5 == norm1(abelianize(LOW_GROWTH))

    def test_two_circle_permutation_style(self):
        f = action("a1 a2", "a1")
        assert walk_covers(build_lift(f), 1) == (3,)

    def test_low_growth_cube(self):
        lift = build_lift(LOW_GROWTH)
        assert walk_covers(lift, 3)[2] == 20

    def test_growth_matches_norms(self, rng):
        for _ in range(5):
            f, lift = random_expanding_action(rng)
            mat = abelianize(f)
            covers = walk_covers(lift, 8)
            for m in range(1, 9):
                assert covers[m - 1] == norm1(mat_pow(mat, m))

    def test_entropy_sequence_agreement(self):
        lift = build_lift(LOW_GROWTH)
        mat = abelianize(LOW_GROWTH)
        covers = walk_covers(lift, 7)
        for m in range(1, 8):
            assert covers[m - 1] == norm1(mat_pow(mat, m))

    def test_covers_are_the_norms(self):
        # every lift-viable map of the domain to depth 10, and seeded maps
        # of both signs, branch orbits periodic or not, to depth 12, past
        # the 8 iterates that reports printed covers for until schema 10
        cases = [(f, lift, 10) for f, lift in lift_viable_domain()]
        assert len(cases) == 224
        rng = random.Random(29)
        for sign in (1, -1):
            for _ in range(15):
                cases.append((*random_expanding_action(rng, sign=sign), 12))
                f, lift = random_branch_periodic_action(rng)
                cases.append((f, lift, 12))
        assert {f.global_sign for f, _, _ in cases} == {1, -1}
        for f, lift, depth in cases:
            norms = PowerSequences.of(abelianize(f), depth).norms
            assert walk_covers(lift, depth) == norms, f


class TestOracleArguments:
    def test_depth_zero_rejected(self):
        lift = build_lift(DOUBLE)
        with pytest.raises(InputError):
            oracle_counts(lift, 0)

    @pytest.mark.parametrize("m", [0, -1, 6])
    def test_iterate_outside_depth_rejected(self, m):
        # m = 0 read the f^5 count through index -1
        counts = oracle_counts(build_lift(DOUBLE), 5)
        assert [counts.fixed(k) for k in range(1, 6)] == [1, 3, 7, 15, 31]
        with pytest.raises(InputError, match=f"^iterate must be in 1..5, got {m}$"):
            counts.fixed(m)


class TestOracleMemory:
    def test_walk_memory_is_bounded(self):
        # the heaviest lift of acceptance criterion 6: covers 12 ... 12288
        # to depth 6; a materialized f^6 alone took about 7 MB
        rng = random.Random(0xACCE55)
        f, lift = max(
            (random_expanding_action(rng) for _ in range(20)),
            key=lambda case: norm1(abelianize(case[0])),
        )
        assert PowerSequences.of(abelianize(f), 6).norms == (
            12, 48, 192, 768, 3072, 12288)
        tracemalloc.start()
        try:
            oracle_counts(lift, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        # a1 -> a1 a1 to depth 200: 2^200 pieces of f^200, counted on
        # the lift's cells and read off the recurrence past dim S
        doubling = build_lift(DOUBLE)
        tracemalloc.start()
        try:
            counts = oracle_counts(doubling, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.lift_fix == tuple(2**m - 1 for m in range(1, 201))
        assert peak < 256 * 1024
        assert not any(
            callable(getattr(v, "cache_clear", None))
            for v in vars(pl_oracle).values()
        )


class TestIterateConsistency:
    def test_lift_of_iterate_counts_match(self):
        f = action("a1 a2", "a1 a2")
        lift = build_lift(f)
        for m in (2, 3, 4):
            g = iterate_action(f, m)
            lift_m = build_lift(g)
            assert lift_fix(lift_m, 1) == lift_fix(lift, m)

"""Piecewise-linear lift: construction, composition, crossing counts."""

from fractions import Fraction

import pytest

from bouquet_dyn import (
    abelianize,
    action,
    build_lift,
    count_fixed,
    cover_growth,
    fix_counts,
    iterate_lift,
    mat_pow,
    mono_cover_size,
    norm1,
    per_census,
    powers,
)
from bouquet_dyn.errors import (
    BudgetError,
    DegenerateMapError,
    LiftConstructionError,
)
from bouquet_dyn.homology import divisors
from bouquet_dyn.pl_oracle import branch_orbit, lift_branch_period

from conftest import random_expanding_action

REFLECT = action("a1' a1'")
DOUBLE = action("a1 a1")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)


def formula_fixes(f, depth):
    return fix_counts(f, powers(abelianize(f), depth))


class TestBuildLift:
    def test_lemma_example_slopes_and_pieces(self):
        # a1 -> a1 a3 a1 a2 a2 within a G3 map: slope 5, six pieces on [0,1]
        f = action("a1 a3 a1 a2 a2", "a1 a1", "a1 a3")
        lift = build_lift(f)
        first_circle = [p for p in lift.pieces if p.hi <= 1]
        assert len(first_circle) == 6
        assert all(p.slope == 5 for p in first_circle)
        bounds = [p.lo for p in first_circle] + [Fraction(1)]
        assert bounds == [Fraction(v, 10) for v in (0, 1, 3, 5, 7, 9, 10)]
        starts = [p.value(p.lo) for p in first_circle]
        assert starts == [Fraction(1, 2), 2, 0, 1, 1, 0]

    def test_integer_heights(self):
        f, lift = random_expanding_action(__import__("random").Random(7))
        for j in range(0, f.n + 1):
            assert lift.value(Fraction(j)) == Fraction(1, 2)

    def test_single_letter_circle_one_rejected(self):
        with pytest.raises(DegenerateMapError):
            build_lift(action("a1", "a1 a2"))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateMapError):
            build_lift(action("a1"))

    def test_word_missing_circle_one_rejected(self):
        with pytest.raises(LiftConstructionError):
            build_lift(action("a1 a2", "a2 a2"))

    def test_reflection_pieces(self):
        lift = build_lift(REFLECT)
        assert [p.slope for p in lift.pieces] == [-2, -2, -2]
        assert lift.value(Fraction(0)) == Fraction(1, 2)
        assert lift.value(Fraction(1)) == Fraction(1, 2)

    def test_dump_format(self):
        lift = build_lift(DOUBLE)
        lines = lift.dump().splitlines()
        assert lines[0].split() == ["0", "1/4", "2", "1/2"]


class TestIterateLift:
    def test_first_iterate_unchanged(self):
        lift = build_lift(DOUBLE)
        assert iterate_lift(lift, 1) is lift

    def test_doubling_composition(self):
        lift = build_lift(DOUBLE)
        cubed = iterate_lift(lift, 3)
        assert all(p.slope == 8 for p in cubed.pieces)

    def test_composition_is_pointwise_power(self):
        rng = __import__("random").Random(11)
        f, lift = random_expanding_action(rng)
        squared = iterate_lift(lift, 2)
        for k in range(1, 40):
            x = Fraction(k, 41) * f.n
            assert squared.value(x) == lift.value(lift.value(x))

    def test_budget_error(self):
        lift = build_lift(DOUBLE)
        with pytest.raises(BudgetError) as e:
            iterate_lift(lift, 12, budget=100)
        assert e.value.smallest_m is not None


class TestBranchOrbit:
    def test_reflection_orbit_stays_at_half(self):
        lift = build_lift(REFLECT)
        assert branch_orbit(lift, 4) == [Fraction(1, 2)] * 4
        assert lift_branch_period(lift, 12) is None

    def test_rotating_word_fixes_branch_orbit(self):
        # a1 -> a3 a1 rotates to a1 a3: the orbit lands on circle 3's
        # midpoint and stays there
        f = action("a3 a1", "a1 a1", "a1 a3")
        lift = build_lift(f)
        orbit = branch_orbit(lift, 6)
        assert all(x.denominator == 2 for x in orbit)


class TestCountFixed:
    def test_reflection_fixed_points(self):
        lift = build_lift(REFLECT)
        assert count_fixed(lift, 1) == 3

    def test_doubling_square(self):
        lift = build_lift(DOUBLE)
        assert count_fixed(lift, 2) == 3

    def test_divisor_identity_against_census(self):
        f = action("a1 a2", "a1 a2")
        lift = build_lift(f)
        census = per_census(formula_fixes(f, 6))
        for m in range(1, 7):
            expected = sum(census.per_of(r) for r in divisors(m))
            assert count_fixed(lift, m) == expected

    def test_fixed_branch_counted(self):
        lift = build_lift(LOW_GROWTH)
        assert count_fixed(lift, 1) == formula_fixes(LOW_GROWTH, 1)[0] == 1

    def test_matches_formula_on_random_actions(self, rng):
        for _ in range(10):
            f, lift = random_expanding_action(rng)
            fixes = formula_fixes(f, 6)
            for m in range(1, 7):
                assert count_fixed(lift, m) == fixes[m - 1], (f, m)


class TestCover:
    def test_low_growth_cover(self):
        lift = build_lift(LOW_GROWTH)
        assert mono_cover_size(lift) == 5 == norm1(abelianize(LOW_GROWTH))

    def test_two_circle_permutation_style(self):
        f = action("a1 a2", "a1")
        assert mono_cover_size(build_lift(f)) == 3

    def test_low_growth_cube(self):
        lift = build_lift(LOW_GROWTH)
        assert cover_growth(lift, 3) == 20

    def test_growth_matches_norms(self, rng):
        for _ in range(5):
            f, lift = random_expanding_action(rng)
            mat = abelianize(f)
            for m in range(1, 9):
                assert cover_growth(lift, m) == norm1(mat_pow(mat, m))

    def test_entropy_sequence_agreement(self):
        lift = build_lift(LOW_GROWTH)
        mat = abelianize(LOW_GROWTH)
        for m in range(1, 8):
            assert cover_growth(lift, m) == norm1(mat_pow(mat, m))


class TestIterateConsistency:
    def test_lift_of_iterate_counts_match(self):
        from bouquet_dyn import iterate_action

        f = action("a1 a2", "a1 a2")
        lift = build_lift(f)
        for m in (2, 3, 4):
            g = iterate_action(f, m)
            lift_m = build_lift(g)
            assert count_fixed(lift_m, 1) == count_fixed(lift, m)

"""Fixed-point counts, the census, and the certificate engine."""

import pytest

from bouquet_dyn import (
    abelianize,
    action,
    criteria_delaylowgrow,
    criteria_doubling,
    criteria_lowgrow,
    dominant_periods,
    eigenvalues,
    fix_counts,
    fmbig_test,
    lefschetz_fix_check,
    lefschetz_per_count,
    per_census,
    powers,
    trace,
)
from bouquet_dyn.errors import InputError
from bouquet_dyn.periods import (
    ALL_BUT_1,
    ALL_BUT_2,
    ALL_PERIODS,
    PAIRWISE,
    certified_periods,
)

REFLECT = action("a1' a1'")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
DELAYED = action("a1", "a1 a3", "a1 a4 a4", "a1 a2")
DOMINANT = action("a1", "a1 a3", "a1 a4", "a1 a2 a4")


def fix_count(f, m):
    return fix_counts(f, powers(abelianize(f), m))[m - 1]


def census(f, horizon):
    return per_census(fix_counts(f, powers(abelianize(f), horizon)))


def check(f, m):
    ladder = powers(abelianize(f), m)
    return lefschetz_fix_check(
        f, m, 1 - trace(ladder[-1]), fix_counts(f, ladder)[-1]
    )


class TestFixCount:
    def test_counts_independent_of_ladder_length(self):
        f = action("a1 a1 a1", k=2)
        fixes = fix_counts(f, powers(abelianize(f), 6))
        assert fixes == tuple(fix_count(f, m) for m in range(1, 7))
        assert fix_counts(f, ()) == ()

    def test_reflect_doubling(self):
        assert fix_count(REFLECT, 1) == 3
        assert fix_count(REFLECT, 2) == 3

    def test_branch_only_fixed_point(self):
        assert fix_count(action("a1", k=1), 1) == 1

    def test_tripling_with_fixed_branch(self):
        assert fix_count(action("a1 a1 a1", k=1), 1) == 2

    def test_branch_formula_switch(self):
        f = action("a1 a1 a1", k=2)
        # k does not divide odd m: ordinary crossing formula
        assert fix_count(f, 1) == abs(1 - 3)
        # k divides m = 2: the branching point joins the count
        assert fix_count(f, 2) == 1 + 7


class TestCensus:
    def test_reflect_census(self):
        t = census(REFLECT, 2)
        assert t.per_of(1) == 3
        assert t.per_of(2) == 0

    def test_preserving_doubling(self):
        t = census(action("a1 a1"), 4)
        assert t.fix_of(1) == 1 and t.fix_of(2) == 3
        assert t.per_of(2) == 2

    def test_empty_counts_rejected(self):
        with pytest.raises(InputError):
            per_census(())

    def test_horizon_one(self):
        t = census(REFLECT, 1)
        assert t.per_of(1) == t.fix_of(1) == 3

    def test_divisor_identity(self):
        t = census(DOMINANT, 12)
        from bouquet_dyn.homology import divisors
        for m in range(1, 13):
            assert t.fix_of(m) == sum(t.per_of(r) for r in divisors(m))

    def test_period_set(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        assert census(six, 12).period_set() == {3}


class TestLefschetzPerCount:
    def test_reversing_even_not_applicable(self):
        assert lefschetz_per_count(REFLECT, 2) is None

    def test_reversing_odd(self):
        assert lefschetz_per_count(REFLECT, 3) == 6
        assert census(REFLECT, 3).per_of(3) == 6

    def test_preserving(self):
        f = action("a1 a3", "a1", "a1 a3")
        t = census(f, 4)
        for m in range(1, 5):
            assert lefschetz_per_count(f, m) == t.per_of(m)

    def test_requires_free_branch(self):
        with pytest.raises(InputError):
            lefschetz_per_count(LOW_GROWTH, 1)


class TestLefschetzFixCheck:
    def test_reversing_equality(self):
        c = check(REFLECT, 1)
        assert c.passed and c.mode == "equality-reversing"
        assert c.lefschetz_value == 3 == c.fix_value

    def test_preserving_square(self):
        c = check(REFLECT, 2)
        assert c.passed and c.mode == "equality-preserving"
        assert c.lefschetz_value == -3 and c.fix_value == 3

    def test_branch_periodic_bound(self):
        c = check(action("a1 a1 a1", k=1), 1)
        assert c.passed and c.mode == "bound-abs"
        assert c.lefschetz_value == -2 and c.fix_value == 2


class TestDoubling:
    def test_case_b(self):
        cert = criteria_doubling(action("a1 a1"))
        assert cert.rule == "doubling(b)" and cert.conclusion == ALL_PERIODS

    def test_case_e(self):
        cert = criteria_doubling(REFLECT)
        assert cert.rule == "doubling(e)" and cert.conclusion == ALL_BUT_2
        assert census(REFLECT, 2).per_of(2) == 0

    def test_case_a(self):
        cert = criteria_doubling(action("a1", "a2 a2"))
        assert cert.rule == "doubling(a)"

    def test_case_c(self):
        cert = criteria_doubling(action("a1' a1' a1'"))
        assert cert.rule == "doubling(c)"

    def test_case_d_needs_fixed_branch(self):
        free = action("a1' a1'")
        fixed = action("a1' a1'", k=1)
        assert criteria_doubling(free).rule == "doubling(e)"
        assert criteria_doubling(fixed).rule == "doubling(d)"

    def test_low_growth_none(self):
        assert criteria_doubling(action("a1 a3", "a1", "a1 a3")) is None


class TestLowGrowth:
    def test_case_d_fixed_branch(self):
        cert = criteria_lowgrow(LOW_GROWTH)
        assert cert.rule == "lowgrow(d)" and cert.conclusion == ALL_PERIODS

    def test_case_b(self):
        cert = criteria_lowgrow(action("a1 a2", "a1"))
        assert cert.rule == "lowgrow(b)" and cert.conclusion == ALL_BUT_1

    def test_case_c(self):
        cert = criteria_lowgrow(action("a1' a2'", "a1'"))
        assert cert.rule == "lowgrow(c)" and cert.conclusion == PAIRWISE

    def test_case_a(self):
        f = action("a1", "a2 a3", "a2")
        cert = criteria_lowgrow(f)
        assert cert.rule == "lowgrow(a)" and cert.conclusion == ALL_PERIODS

    def test_finite_branch_above_one_blocks(self):
        f = action("a1", "a2 a3", "a2", k=2)
        assert criteria_lowgrow(f) is None


class TestDelayedLowGrowth:
    def test_delayed_fixture_fires_at_three(self):
        cert = criteria_delaylowgrow(DELAYED, powers(abelianize(DELAYED), 6))
        assert cert is not None
        assert cert.witness["m"] == 3
        assert cert.conclusion == "Per contains 3N"

    def test_identity_action_none(self):
        f = action("a1", "a2")
        assert criteria_delaylowgrow(f, powers(abelianize(f), 6)) is None

    def test_low_growth_monotone(self):
        ladder = powers(abelianize(LOW_GROWTH), 6)
        cert = criteria_delaylowgrow(LOW_GROWTH, ladder)
        assert cert is not None and cert.witness["m"] == 2
        # a ladder without M^2 has no iterate to try
        assert criteria_delaylowgrow(LOW_GROWTH, ladder[:1]) is None


class TestFmBig:
    def test_power_of_two(self):
        t = census(action("a1 a1"), 4)
        cert = fmbig_test(t, 4)
        assert cert is not None
        assert t.per_of(4) == 12

    def test_prime_case(self):
        t = census(REFLECT, 3)
        assert fmbig_test(t, 3) is not None

    def test_base_case(self):
        t = census(REFLECT, 1)
        assert fmbig_test(t, 1) is not None

    def test_no_fire_when_flat(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        t = census(six, 6)
        assert fmbig_test(t, 6) is None


class TestDominantPeriods:
    def test_dominant_fixture(self):
        cert = dominant_periods(
            DOMINANT, eigenvalues(abelianize(DOMINANT)), census(DOMINANT, 12)
        )
        assert cert is not None
        assert cert.witness["m0_analytic"] == 10
        assert cert.witness["m0_empirical"] == 3

    def test_non_dominant_none(self):
        cert = dominant_periods(
            DELAYED, eigenvalues(abelianize(DELAYED)), census(DELAYED, 12)
        )
        assert cert is None

    def test_pure_doubling(self):
        f = action("a1 a1")
        cert = dominant_periods(f, eigenvalues(abelianize(f)), census(f, 12))
        assert cert.witness["m0_analytic"] == 3
        assert cert.witness["m0_empirical"] == 1


class TestCertifiedPeriods:
    def test_conclusion_parsing(self):
        from bouquet_dyn.periods import PeriodCertificate
        cases = {
            ALL_PERIODS: set(range(1, 9)),
            ALL_BUT_1: set(range(2, 9)),
            ALL_BUT_2: set(range(1, 9)) - {2},
            PAIRWISE: set(),
            "Per contains 3N": {3, 6},
            "Per contains 3N \\ {3}": {6},
            "Per contains [5, inf)": {5, 6, 7, 8},
            "Per_4 nonempty": {4},
        }
        for conclusion, expected in cases.items():
            cert = PeriodCertificate("test", conclusion)
            assert certified_periods(cert, 8) == expected

    def test_certificates_agree_with_census(self):
        for f in (REFLECT, LOW_GROWTH, action("a1 a1"), DOMINANT):
            t = census(f, 10)
            for maker in (criteria_doubling, criteria_lowgrow):
                cert = maker(f)
                if cert is None:
                    continue
                for m in certified_periods(cert, 10):
                    assert t.per_of(m) > 0, (f, cert, m)

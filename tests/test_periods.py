"""Fixed-point counts, the census, and the certificate engine."""

import random

import pytest

from bouquet_dyn import (
    PowerSequences,
    abelianize,
    action,
    eigenvalues,
    fix_counts,
    per_census,
)
from bouquet_dyn.errors import InconsistencyError, InputError
from bouquet_dyn.periods import (
    ALL_BUT_1,
    ALL_BUT_2,
    ALL_PERIODS,
    PAIRWISE,
    Conclusion,
    FixCountTable,
    fmbig_test,
    lefschetz_fix_check,
    period_certificates,
)

from conftest import divisors, lefschetz_table, load_fixture

REFLECT = action("a1' a1'")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
DELAYED = action("a1", "a1 a3", "a1 a4 a4", "a1 a2")
DOMINANT = action("a1", "a1 a3", "a1 a4", "a1 a2 a4")


def record(f, k):
    return PowerSequences.of(abelianize(f), k)


def fix_count(f, m):
    return fix_counts(f, record(f, m).traces)[m - 1]


def census(f, horizon):
    return per_census(fix_counts(f, record(f, horizon).traces))


def certificates(f, horizon=12):
    seqs = record(f, horizon)
    return period_certificates(
        f, seqs, per_census(fix_counts(f, seqs.traces)), eigenvalues(seqs.char)
    )


def certificate(f, rule, horizon=12, **witness):
    """The first certificate whose rule starts with `rule` and whose
    witness holds the given entries, or None."""
    for cert in certificates(f, horizon):
        if cert.rule.startswith(rule) and all(
            cert.witness.get(k) == v for k, v in witness.items()
        ):
            return cert
    return None


def check(f, m):
    """The check of f^m, with the L(f^m) and fix(f^m) it was given."""
    seqs = record(f, m)
    lef, fix = 1 - seqs.traces[-1], fix_counts(f, seqs.traces)[-1]
    return lefschetz_fix_check(f, m, lef, fix), lef, fix


class TestFixCount:
    def test_counts_independent_of_ladder_length(self):
        f = action("a1 a1 a1", k=2)
        fixes = fix_counts(f, record(f, 6).traces)
        assert fixes == tuple(fix_count(f, m) for m in range(1, 7))
        assert fix_counts(f, record(f, 6).traces[:4]) == fixes[:4]
        assert fix_counts(f, record(f, 0).traces) == ()

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

    def test_negative_count_names_first_m(self):
        # fix(1) = 3 but fix(2) = 1 would need per(2) = -2
        with pytest.raises(InconsistencyError, match=r"count -2 at m=2"):
            per_census((3, 1, 3, 1))

    def test_horizon_one(self):
        t = census(REFLECT, 1)
        assert t.per_of(1) == t.fix_of(1) == 3

    def test_divisor_identity(self):
        t = census(DOMINANT, 12)
        for m in range(1, 13):
            assert t.fix_of(m) == sum(t.per_of(r) for r in divisors(m))

    def test_period_set(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        assert census(six, 12).period_set() == {3}


class TestLefschetzPerCount:
    """|l(f^m)| counts the period-m points of a map whose branching point
    is never periodic, except for a reversing map at m = 2 (mod 4)."""

    def test_reversing_even_not_applicable(self):
        # l(f^2) = -per(2) - 2 per(1) mixes two period counts
        l2 = lefschetz_table(abelianize(REFLECT), 2).periodic_lefschetz_of(2)
        t = census(REFLECT, 2)
        assert (l2, t.per_of(2), t.per_of(1)) == (-6, 0, 3)
        assert abs(l2) != t.per_of(2)

    def test_reversing_odd(self):
        lef = lefschetz_table(abelianize(REFLECT), 3)
        assert lef.periodic_lefschetz_of(3) == 6
        assert census(REFLECT, 3).per_of(3) == 6

    def test_preserving(self):
        f = action("a1 a3", "a1", "a1 a3")
        t = census(f, 4)
        lef = lefschetz_table(abelianize(f), 4)
        for m in range(1, 5):
            assert abs(lef.periodic_lefschetz_of(m)) == t.per_of(m)


class TestLefschetzFixCheck:
    def test_reversing_equality(self):
        c, lef, fix = check(REFLECT, 1)
        assert c.passed and c.mode == "equality-reversing"
        assert lef == 3 == fix

    def test_preserving_square(self):
        c, lef, fix = check(REFLECT, 2)
        assert c.passed and c.mode == "equality-preserving"
        assert lef == -3 and fix == 3

    def test_branch_periodic_bound(self):
        c, lef, fix = check(action("a1 a1 a1", k=1), 1)
        assert c.passed and c.mode == "bound-abs"
        assert lef == -2 and fix == 2


class TestDoubling:
    def test_case_b(self):
        cert = certificate(action("a1 a1"), "doubling(")
        assert cert.rule == "doubling(b)" and cert.conclusion == ALL_PERIODS
        assert cert.conclusion.text() == "Per = N"

    def test_case_e(self):
        cert = certificate(REFLECT, "doubling(")
        assert cert.rule == "doubling(e)" and cert.conclusion == ALL_BUT_2
        assert cert.conclusion.text() == "Per contains N \\ {2}"
        assert census(REFLECT, 2).per_of(2) == 0

    def test_case_a(self):
        cert = certificate(action("a1", "a2 a2"), "doubling(")
        assert cert.rule == "doubling(a)"

    def test_case_c(self):
        cert = certificate(action("a1' a1' a1'"), "doubling(")
        assert cert.rule == "doubling(c)"

    def test_case_d_needs_fixed_branch(self):
        free = action("a1' a1'")
        fixed = action("a1' a1'", k=1)
        assert certificate(free, "doubling(").rule == "doubling(e)"
        assert certificate(fixed, "doubling(").rule == "doubling(d)"

    def test_low_growth_none(self):
        assert certificate(action("a1 a3", "a1", "a1 a3"), "doubling(") is None


class TestLowGrowth:
    def test_case_d_fixed_branch(self):
        cert = certificate(LOW_GROWTH, "lowgrow(")
        assert cert.rule == "lowgrow(d)" and cert.conclusion == ALL_PERIODS

    def test_case_b(self):
        cert = certificate(action("a1 a2", "a1"), "lowgrow(")
        assert cert.rule == "lowgrow(b)" and cert.conclusion == ALL_BUT_1
        assert cert.conclusion.text() == "Per contains N \\ {1}"

    def test_case_c(self):
        cert = certificate(action("a1' a2'", "a1'"), "lowgrow(")
        assert cert.rule == "lowgrow(c)" and cert.conclusion == PAIRWISE
        assert cert.conclusion.text() == "for every m, m or m+1 in Per"

    def test_case_a(self):
        f = action("a1", "a2 a3", "a2")
        cert = certificate(f, "lowgrow(")
        assert cert.rule == "lowgrow(a)" and cert.conclusion == ALL_PERIODS

    def test_finite_branch_above_one_blocks(self):
        f = action("a1", "a2 a3", "a2", k=2)
        assert certificate(f, "lowgrow(") is None


class TestDelayedLowGrowth:
    def test_delayed_fixture_fires_at_three(self):
        cert = certificate(DELAYED, "delaylowgrow(")
        assert cert is not None
        assert cert.witness["m"] == 3
        assert cert.conclusion.text() == "Per contains 3N"

    def test_identity_action_none(self):
        assert certificate(action("a1", "a2"), "delaylowgrow(") is None

    def test_low_growth_monotone(self):
        cert = certificate(LOW_GROWTH, "delaylowgrow(")
        assert cert is not None and cert.witness["m"] == 2
        # a horizon-1 census leaves no iterate to try
        assert certificate(LOW_GROWTH, "delaylowgrow(", horizon=1) is None

    def test_promotion_scales_step_and_exclusion(self):
        assert ALL_PERIODS.promoted(3).text() == "Per contains 3N"
        assert ALL_BUT_1.promoted(3).text() == "Per contains 3N \\ {3}"
        assert ALL_BUT_2.promoted(3).text() == "Per contains 3N \\ {6}"
        assert PAIRWISE.promoted(3) is None

    @pytest.mark.xfail(
        strict=True,
        reason="delaylowgrow promotes 'every period of f^2' to 'Per contains "
        "2N', but a fixed point of f^2 may already be fixed by f: "
        "reflect_double_g1 has per(2) = 0",
    )
    def test_promotion_agrees_with_census(self):
        doc, _ = load_fixture("reflect_double_g1")
        f, horizon = doc.action, doc.horizon or 12
        t = census(f, horizon)
        for cert in certificates(f, horizon):
            assert cert.conclusion.periods(horizon) <= t.period_set(), cert


class TestFmBig:
    def test_power_of_two(self):
        t = census(action("a1 a1"), 4)
        cert = certificate(action("a1 a1"), "fmbig", horizon=4, m=4)
        assert cert is not None
        assert cert.conclusion.text() == "Per_4 nonempty"
        assert t.per_of(4) == 12

    def test_prime_case(self):
        assert certificate(REFLECT, "fmbig", horizon=3, m=3) is not None

    def test_base_case(self):
        assert certificate(REFLECT, "fmbig", horizon=1, m=1) is not None

    def test_no_fire_when_flat(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        assert certificate(six, "fmbig", horizon=6, m=6) is None

    def test_prime_rule_matches_two_divisor_rule(self):
        # the primes of m by trial division against the earlier rule,
        # "the divisors of m with exactly two divisors": on counts that
        # grow fast enough for the test to fire at every m the witness
        # sums agree, and on small random counts so does whether it fires
        horizon = 1000
        rng = random.Random(11)
        growing = tuple(rng.randint(10**m, 2 * 10**m) for m in range(1, horizon + 1))
        flat = tuple(rng.randint(0, 50) for _ in range(horizon))
        for fixes in (growing, flat):
            table = FixCountTable(horizon, fixes, (0,) * horizon)
            for m in range(1, horizon + 1):
                primes = [p for p in divisors(m) if len(divisors(p)) == 2]
                bound = sum(table.fix_of(m // p) for p in primes)
                cert = fmbig_test(table, m)
                if fixes is growing:
                    assert cert is not None, m
                if cert is None:
                    assert table.fix_of(m) <= bound, m
                else:
                    assert cert.witness["divisor_sum"] == bound, m


class TestDominantPeriods:
    def test_dominant_fixture(self):
        cert = certificate(DOMINANT, "dominant")
        assert cert is not None
        assert cert.witness["m0_analytic"] == 10
        assert cert.witness["m0_empirical"] == 3
        assert cert.conclusion.text() == "Per contains [10, inf)"

    def test_non_dominant_none(self):
        assert certificate(DELAYED, "dominant") is None

    def test_pure_doubling(self):
        cert = certificate(action("a1 a1"), "dominant")
        assert cert.witness["m0_analytic"] == 3
        assert cert.witness["m0_empirical"] == 1


class TestCertifiedPeriods:
    def test_conclusion_parsing(self):
        cases = [
            (ALL_PERIODS, "Per = N", set(range(1, 9))),
            (ALL_BUT_1, "Per contains N \\ {1}", set(range(2, 9))),
            (ALL_BUT_2, "Per contains N \\ {2}", set(range(1, 9)) - {2}),
            (PAIRWISE, "for every m, m or m+1 in Per", set()),
            (Conclusion("multiples", 3), "Per contains 3N", {3, 6}),
            (Conclusion("multiples", 3, 3), "Per contains 3N \\ {3}", {6}),
            (Conclusion("tail", 5), "Per contains [5, inf)", {5, 6, 7, 8}),
            (Conclusion("single", 4), "Per_4 nonempty", {4}),
        ]
        for conclusion, text, expected in cases:
            assert conclusion.text() == text
            assert conclusion.periods(8) == expected

    def test_certificates_agree_with_census(self):
        for f in (REFLECT, LOW_GROWTH, action("a1 a1"), DOMINANT):
            t = census(f, 10)
            for cert in certificates(f, 10):
                if not cert.rule.startswith(("doubling(", "lowgrow(")):
                    continue
                for m in cert.conclusion.periods(10):
                    assert t.per_of(m) > 0, (f, cert, m)

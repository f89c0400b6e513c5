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
from bouquet_dyn.cli import fixture_names
from bouquet_dyn.errors import InconsistencyError, InputError
from bouquet_dyn.periods import (
    ALL_BUT_1,
    ALL_BUT_2,
    ALL_PERIODS,
    PAIRWISE,
    Conclusion,
    lefschetz_fix_check,
    period_certificates,
)
from bouquet_dyn.words import MapAction

from conftest import (
    divisors,
    fmbig_reference,
    lefschetz_numbers,
    load_fixture,
    period_set,
    random_action,
)

REFLECT = action("a1' a1'")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
DELAYED = action("a1", "a1 a3", "a1 a4 a4", "a1 a2")
DOMINANT = action("a1", "a1 a3", "a1 a4", "a1 a2 a4")


def record(f, k):
    return PowerSequences.of(abelianize(f), k)


def fix_count(f, m):
    return fix_counts(f, record(f, m).traces)[m - 1]


def census(f, horizon):
    """per(m) for m = 1..horizon."""
    return per_census(fix_counts(f, record(f, horizon).traces))


def certificates(f, horizon=12):
    seqs = record(f, horizon)
    fixes = fix_counts(f, seqs.traces)
    per_census(fixes)  # a report raises here, before any certificate
    return period_certificates(f, seqs, horizon, eigenvalues(seqs.char))


def certificate(f, rule, horizon=12, **witness):
    """The first certificate whose rule starts with `rule` and whose
    witness holds the given entries, or None."""
    for cert in certificates(f, horizon):
        if cert.rule.startswith(rule) and all(
            cert.witness.get(k) == v for k, v in witness.items()
        ):
            return cert
    return None


def fmbig_within_census(f, horizon):
    """The fix-count comparison test's iterates up to the horizon, after
    checking that they lie in the census's period set."""
    fixes = fix_counts(f, record(f, horizon).traces)
    listed = fmbig_reference(fixes)
    assert set(listed) <= period_set(per_census(fixes)), (f, listed)
    return listed


def check(f, m):
    """The check rows of f^1..f^m, from one call, with the L(f^m) and
    fix(f^m) it was given."""
    seqs = record(f, m)
    lefs = [1 - t for t in seqs.traces]
    fixes = fix_counts(f, seqs.traces)
    return lefschetz_fix_check(f, lefs, fixes), lefs[-1], fixes[-1]


def statement(m=None):
    """The one row that states L = -fix on every preserving iterate; m is
    the least that fails it."""
    return [{"m": m, "mode": "equality-preserving", "passed": m is None}]


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
        # only class 1 switches to the based count: class 2 reads the
        # crossing formula at odd m, and at m = 2 too, where f^2 fixes the
        # branching point but not as a based vertex
        assert fix_count(f, 1) == abs(1 - 3)
        assert fix_count(f, 2) == abs(1 - 9)


    def test_reflect_doubling_fixed_branch(self):
        # z -> z^-2 with v fixed: a reversing iterate counts |1 - tr M^m|,
        # a preserving one the based count; z^-2 = z, z^4 = z, z^-8 = z,
        # z^16 = z have 3, 3, 9 and 15 solutions
        f = action("a1' a1'", k=1)
        assert fix_counts(f, record(f, 4).traces) == (3, 3, 9, 15)
        assert all(row["passed"] for row in lefschetz_fix_check(
            f, [1 - t for t in record(f, 12).traces],
            fix_counts(f, record(f, 12).traces)))


class TestCensus:
    def test_reflect_census(self):
        assert census(REFLECT, 2) == (3, 0)

    def test_preserving_doubling(self):
        f = action("a1 a1")
        assert fix_counts(f, record(f, 4).traces)[:2] == (1, 3)
        assert census(f, 4)[1] == 2

    def test_empty_counts_rejected(self):
        with pytest.raises(InputError):
            per_census(())

    def test_negative_count_names_first_m(self):
        # fix(1) = 3 but fix(2) = 1 would need per(2) = -2
        with pytest.raises(InconsistencyError, match=r"count -2 at m=2"):
            per_census((3, 1, 3, 1))

    def test_horizon_one(self):
        fixes = fix_counts(REFLECT, record(REFLECT, 1).traces)
        assert per_census(fixes) == fixes == (3,)

    def test_divisor_identity(self):
        fixes = fix_counts(DOMINANT, record(DOMINANT, 12).traces)
        pers = per_census(fixes)
        for m in range(1, 13):
            assert fixes[m - 1] == sum(pers[r - 1] for r in divisors(m))

    def test_period_set(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        assert period_set(census(six, 12)) == {3}


class TestLefschetzPerCount:
    """|l(f^m)| counts the period-m points of a map whose branching point
    is never periodic, except for a reversing map at m = 2 (mod 4)."""

    def test_reversing_even_not_applicable(self):
        # l(f^2) = -per(2) - 2 per(1) mixes two period counts
        _, (_, l2) = lefschetz_numbers(abelianize(REFLECT), 2)
        per1, per2 = census(REFLECT, 2)
        assert (l2, per2, per1) == (-6, 0, 3)
        assert abs(l2) != per2

    def test_reversing_odd(self):
        _, l = lefschetz_numbers(abelianize(REFLECT), 3)
        assert l[2] == 6
        assert census(REFLECT, 3)[2] == 6

    def test_preserving(self):
        f = action("a1 a3", "a1", "a1 a3")
        _, l = lefschetz_numbers(abelianize(f), 4)
        assert list(map(abs, l)) == list(census(f, 4))


class TestLefschetzFixCheck:
    def test_reversing_equality(self):
        # L = fix on a reversing iterate by the sign of M alone, so f^1
        # of a reversing map gets no row
        rows, lef, fix = check(REFLECT, 1)
        assert rows == []
        assert lef == 3 == fix

    def test_preserving_square(self):
        rows, lef, fix = check(REFLECT, 2)
        assert rows == statement()
        assert lef == -3 and fix == 3
        assert check(REFLECT, 40)[0] == statement()

    def test_statement_names_least_failing_iterate(self):
        # one row for every preserving m <= H: on a reversing map the
        # odd m are not read, whatever their counts
        f = action("a1 a1")
        assert lefschetz_fix_check(f, [-1, -1, 5, 2], [1, 1, 4, 2]) == (
            statement(3))
        assert lefschetz_fix_check(f, [0, -1], [0, 1]) == statement()
        g = action("a1' a1'")
        assert lefschetz_fix_check(g, [9, -1, 9, -3], [1, 1, 1, 2]) == (
            statement(4))
        assert lefschetz_fix_check(g, [9, -1, 9], [1, 1, 1]) == statement()

    def test_branch_periodic_bound(self):
        # a preserving iterate at class 1: the based vertex has index in
        # [1 - 2n, 1] and every other fixed point -1, so
        # 2 - 2n - L <= #Fix <= 2 - L
        f = action("a1 a1 a1", k=1)
        rows, lef, fix = check(f, 1)
        assert rows == [{"m": 1, "mode": "bound", "passed": True}]
        assert lef == -2 and fix == 2
        assert [row["m"] for row in check(f, 6)[0]] == list(range(1, 7))
        outcomes = [row["passed"] for row in
                    lefschetz_fix_check(f, [lef] * 6, range(6))]
        assert outcomes == [False, False, True, True, True, False]

    def test_branch_periodic_reversing_bound(self):
        # class 1, reversing: an odd iterate reverses, and every fixed
        # point, the based vertex too, has index +1, so L = #Fix whatever
        # the class, and it gets no row; an even iterate preserves and
        # takes the bound
        f = action("a1' a1'", k=1)
        for m in (1, 2, 3, 4):
            rows, lef, fix = check(f, m)
            assert rows == [{"m": e, "mode": "bound", "passed": True}
                            for e in range(2, m + 1, 2)], m
            if m % 2:
                assert lef == fix, m
            else:
                assert 2 - 2 * f.n - lef <= fix <= 2 - lef, m
        assert lefschetz_fix_check(f, [3], [4]) == []


class TestDoubling:
    def test_case_b(self):
        cert = certificate(action("a1 a1"), "doubling(")
        assert cert.rule == "doubling(b)" and cert.conclusion == ALL_PERIODS
        assert cert.conclusion.text() == "Per = N"

    def test_case_e(self):
        cert = certificate(REFLECT, "doubling(")
        assert cert.rule == "doubling(e)" and cert.conclusion == ALL_BUT_2
        assert cert.conclusion.text() == "Per contains N \\ {2}"
        assert census(REFLECT, 2)[1] == 0

    def test_case_a(self):
        cert = certificate(action("a1", "a2 a2"), "doubling(")
        assert cert.rule == "doubling(a)"

    def test_case_c(self):
        cert = certificate(action("a1' a1' a1'"), "doubling(")
        assert cert.rule == "doubling(c)"

    def test_minus_two_reads_no_class(self):
        # z -> z^-2 gives Per containing N \ {2}, with its branching
        # point free or fixed: the degree rule reads no branch class
        for k in (None, 1):
            cert = certificate(action("a1' a1'", k=k), "doubling(")
            assert cert.rule == "doubling(e)" and cert.conclusion == ALL_BUT_2

    def test_every_petal(self):
        # d = -2 on petal 2 gives N \ {2} as case a, not Per = N
        cert = certificate(action("a2'", "a2' a2'"), "doubling(")
        assert cert.rule == "doubling(a)" and cert.conclusion == ALL_BUT_2
        assert cert.witness == {"j": 2, "d_jj": -2}
        assert 2 not in period_set(census(action("a2'", "a2' a2'"), 12))
        # a d = -2 petal is read only when no petal gives Per = N
        cert = certificate(action("a1' a1' a1'", "a2' a2'"), "doubling(")
        assert cert.rule == "doubling(c)" and cert.conclusion == ALL_PERIODS
        cert = certificate(action("a1' a1'", "a2' a2' a2'"), "doubling(")
        assert cert.rule == "doubling(a)" and cert.conclusion == ALL_PERIODS
        assert cert.witness == {"j": 2, "d_jj": -3}

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
        # d_i1 >= 1 is the preserving case; on a reversing map d_i1 <= -2
        # gives no lowgrow(b)
        assert certificate(action("a2' a2'", "a1' a1' a2'"), "lowgrow(b)") is None

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
        # Per(f^3) = N gives 3q in Per(f) only where 3 divides q
        cert = certificate(DELAYED, "delaylowgrow(")
        assert cert is not None
        assert cert.witness["m"] == 3
        assert cert.conclusion.text() == "Per contains 9N"

    def test_identity_action_none(self):
        assert certificate(action("a1", "a2"), "delaylowgrow(") is None

    def test_low_growth_monotone(self):
        cert = certificate(LOW_GROWTH, "delaylowgrow(")
        assert cert is not None and cert.witness["m"] == 2
        # a horizon-1 census leaves no iterate to try
        assert certificate(LOW_GROWTH, "delaylowgrow(", horizon=1) is None

    def test_promotion_scales_step_and_exclusion(self):
        # sN \\ {e} about f^m promotes to m lcm(s, rad(m)) N, less m e
        # only when lcm(s, rad(m)) divides e
        assert ALL_PERIODS.promoted(3).text() == "Per contains 9N"
        assert ALL_PERIODS.promoted(4).text() == "Per contains 8N"
        assert ALL_PERIODS.promoted(6).text() == "Per contains 36N"
        assert ALL_BUT_1.promoted(3).text() == "Per contains 9N"
        assert ALL_BUT_2.promoted(3).text() == "Per contains 9N"
        assert ALL_BUT_2.promoted(2).text() == "Per contains 4N \\ {4}"
        assert ALL_BUT_2.promoted(4).text() == "Per contains 8N \\ {8}"
        assert Conclusion("multiples", 2, 6).promoted(3).text() == \
            "Per contains 18N \\ {18}"
        assert Conclusion("multiples", 2, 4).promoted(3).text() == \
            "Per contains 18N"
        assert PAIRWISE.promoted(3) is None

    def test_promotion_agrees_with_census(self):
        # reflect_double_g1 has per(2) = 0: its f^2 certificate promotes
        # to 4N, not 2N
        for name in fixture_names():
            doc, _ = load_fixture(name)
            f, horizon = doc.action, doc.horizon or 12
            periods = period_set(census(f, horizon))
            for cert in certificates(f, horizon):
                assert cert.conclusion.periods(horizon) <= periods, (
                    name, cert)


class TestFmBig:
    def test_power_of_two(self):
        assert 4 in fmbig_within_census(action("a1 a1"), 4)
        assert census(action("a1 a1"), 4)[3] == 12

    def test_prime_case(self):
        assert 3 in fmbig_within_census(REFLECT, 3)

    def test_base_case(self):
        assert fmbig_within_census(REFLECT, 1) == [1]

    def test_no_fire_when_flat(self):
        six = action("a1", "a1 a3", "a1 a4", "a1 a2")
        assert 6 not in fmbig_within_census(six, 6)

    def test_prime_rule_matches_two_divisor_rule(self):
        # the primes of m by trial division (the reference) against the
        # earlier rule, "the divisors of m with exactly two divisors": on
        # counts that grow fast enough for the test to fire at every m, and
        # on small random counts
        horizon = 1000
        rng = random.Random(11)
        growing = tuple(rng.randint(10**m, 2 * 10**m) for m in range(1, horizon + 1))
        flat = tuple(rng.randint(0, 50) for _ in range(horizon))
        for fixes in (growing, flat):
            two_divisor = [
                m for m in range(1, horizon + 1)
                if fixes[m - 1] > sum(fixes[m // p - 1] for p in divisors(m)
                                      if len(divisors(p)) == 2)
            ]
            assert fmbig_reference(fixes) == two_divisor
        assert fmbig_reference(growing) == list(range(1, horizon + 1))
        assert 0 < len(fmbig_reference(flat)) < horizon

    def test_within_period_set_on_random_censuses(self):
        # every branch class and both orientations at H = 40, wherever the
        # census exists (a branch class the map does not have can make it
        # negative)
        rng = random.Random(12)
        horizon = 40
        seen = set()
        for _ in range(60):
            base = random_action(rng, n_max=4, len_max=3)
            for k in (None, 1, 2, 3, 4):
                f = MapAction(base.n, base.images, k)
                try:
                    listed = fmbig_within_census(f, horizon)
                except InconsistencyError:
                    continue
                seen.add((f.global_sign, k, 0 < len(listed) < horizon))
        for sign in (1, -1):
            for k in (None, 1, 2, 3, 4):
                assert {(sign, k, True), (sign, k, False)} <= seen, (sign, k)


class TestDominantPeriods:
    def test_dominant_fixture(self):
        cert = certificate(DOMINANT, "dominant")
        assert cert is not None
        assert cert.witness == {"m0_analytic": 10}
        assert cert.conclusion.text() == "Per contains [10, inf)"
        # the census shows every period from 3 on, up to the horizon
        assert period_set(census(DOMINANT, 12)) == set(range(3, 13)) | {1}

    def test_non_dominant_none(self):
        assert certificate(DELAYED, "dominant") is None

    def test_pure_doubling(self):
        cert = certificate(action("a1 a1"), "dominant")
        assert cert.witness == {"m0_analytic": 3}
        assert period_set(census(action("a1 a1"), 12)) == set(range(1, 13))


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
        ]
        for conclusion, text, expected in cases:
            assert conclusion.text() == text
            assert conclusion.periods(8) == expected

    def test_certificates_agree_with_census(self):
        for f in (REFLECT, LOW_GROWTH, action("a1 a1"), DOMINANT):
            pers = census(f, 10)
            for cert in certificates(f, 10):
                if not cert.rule.startswith(("doubling(", "lowgrow(")):
                    continue
                for m in cert.conclusion.periods(10):
                    assert pers[m - 1] > 0, (f, cert, m)

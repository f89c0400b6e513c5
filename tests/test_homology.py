"""Homology matrix, Lefschetz numbers, Moebius machinery."""

import random

import pytest

from bouquet_dyn import (
    LefschetzTable,
    abelianize,
    action,
    iterate_action,
    norm1,
    powers,
    trace,
)
from bouquet_dyn.errors import InputError
from bouquet_dyn.homology import divisor_sums, identity, invert_divisor_sums
from bouquet_dyn.words import chi

from conftest import (
    divisors,
    lefschetz_table,
    mat_pow,
    mobius,
    random_action,
    random_matrix,
)

LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
SIX_CYCLE = action("a1", "a1 a3", "a1 a4", "a1 a2")


def inversion_holds(t):
    """The Moebius identity: sum over r|m of l(f^r) = L(f^m), every m."""
    return all(
        sum(t.periodic_lefschetz_of(r) for r in divisors(m))
        == t.lefschetz_of(m)
        for m in range(1, t.horizon + 1)
    )


class TestAbelianize:
    def test_low_growth_matrix(self):
        assert abelianize(LOW_GROWTH) == ((1, 1, 1), (0, 0, 0), (1, 0, 1))

    def test_reversing_doubling(self):
        assert abelianize(action("a1' a1'")) == ((-2,),)

    def test_identity_action(self):
        f = action("a1", "a2", "a3")
        assert abelianize(f) == identity(3)

    def test_functoriality(self, rng):
        for _ in range(30):
            f = random_action(rng)
            for m in (1, 2, 3):
                assert abelianize(iterate_action(f, m, budget=50000)) == \
                    mat_pow(abelianize(f), m)


class TestMatrixOps:
    def test_low_growth_cube(self):
        m3 = powers(abelianize(LOW_GROWTH), 3)[2]
        assert m3 == ((4, 2, 4), (0, 0, 0), (4, 2, 4))

    def test_six_cycle_sixth_power(self):
        m6 = powers(abelianize(SIX_CYCLE), 6)[5]
        assert m6[0] == (1, 6, 6, 6)
        assert tuple(row[1:] for row in m6[1:]) == identity(3)

    def test_norm1_identity(self):
        assert norm1(identity(3)) == 3

    def test_power_zero(self):
        # the reference's zeroth power, which the ladder does not hold
        assert mat_pow(((5,),), 0) == ((1,),)

    def test_trace_bridge(self, rng):
        for _ in range(30):
            f = random_action(rng)
            ladder = powers(abelianize(f), 4)
            for m in (1, 2, 3, 4):
                g = iterate_action(f, m, budget=50000)
                total = sum(chi(g.image(j), j) for j in range(1, f.n + 1))
                assert total == trace(ladder[m - 1])

    def test_ladder_matches_squaring(self, rng):
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4))
            ladder = powers(m, 9)
            assert len(ladder) == 9
            for k in range(1, 10):
                assert ladder[k - 1] == mat_pow(m, k)

    def test_empty_ladder(self):
        assert powers(((2,),), 0) == ()
        with pytest.raises(InputError):
            powers(((2,),), -1)


class TestMobius:
    def test_base(self):
        assert mobius(1) == 1

    def test_square_factor(self):
        assert mobius(4) == 0

    def test_two_primes(self):
        assert mobius(6) == 1

    def test_divisor_sum(self):
        for m in range(1, 60):
            total = sum(mobius(d) for d in divisors(m))
            assert total == (1 if m == 1 else 0)

    def test_multiplicative(self):
        import math
        for a in range(1, 30):
            for b in range(1, 30):
                if math.gcd(a, b) == 1:
                    assert mobius(a * b) == mobius(a) * mobius(b)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            mobius(0)


def big_sequence(rng, horizon):
    """A seeded sequence of signed integers of up to 200 bits."""
    return [rng.randint(-(2**200), 2**200) for _ in range(horizon)]


class TestDivisorSieve:
    """The subtraction sieve and the forward divisor-sum pass, against
    the divisor-by-divisor sums with the reference divisors and mu."""

    HORIZONS = (*range(1, 61), 300)

    def test_inversion_matches_mobius_sum(self):
        rng = random.Random(8)
        for horizon in self.HORIZONS:
            seq = big_sequence(rng, horizon)
            assert invert_divisor_sums(seq) == [
                sum(mobius(m // r) * seq[r - 1] for r in divisors(m))
                for m in range(1, horizon + 1)
            ], horizon

    def test_forward_matches_divisor_sum(self):
        rng = random.Random(9)
        for horizon in self.HORIZONS:
            seq = big_sequence(rng, horizon)
            assert divisor_sums(seq) == [
                sum(seq[r - 1] for r in divisors(m))
                for m in range(1, horizon + 1)
            ], horizon

    def test_round_trip(self):
        rng = random.Random(10)
        for horizon in (1, 2, 12, 300):
            seq = big_sequence(rng, horizon)
            assert divisor_sums(invert_divisor_sums(seq)) == seq
            assert invert_divisor_sums(divisor_sums(seq)) == seq

    def test_empty_sequence(self):
        assert divisor_sums(()) == invert_divisor_sums(()) == []


class TestLefschetz:
    def test_reversing_doubling(self):
        t = lefschetz_table(((-2,),), 2)
        assert t.lefschetz_of(1) == 3
        assert t.lefschetz_of(2) == -3

    def test_six_cycle(self):
        t = lefschetz_table(abelianize(SIX_CYCLE), 3)
        assert t.lefschetz_of(2) == 0
        assert t.lefschetz_of(3) == -3

    def test_zero_matrix(self):
        assert lefschetz_table(((0, 0), (0, 0)), 5).lefschetz_of(5) == 1

    def test_periodic_doubling(self):
        assert lefschetz_table(((-2,),), 2).periodic_lefschetz_of(2) == -6

    def test_periodic_base_case(self, rng):
        for _ in range(20):
            t = lefschetz_table(random_matrix(rng, rng.randint(1, 4)), 1)
            assert t.periodic_lefschetz_of(1) == t.lefschetz_of(1)

    def test_six_cycle_periodic(self):
        t = lefschetz_table(abelianize(SIX_CYCLE), 12)
        assert t.periodic_lefschetz_of(3) == -3
        for k in range(4, 13):
            assert t.periodic_lefschetz_of(k) == 0


class TestMif:
    def test_low_growth(self):
        assert inversion_holds(lefschetz_table(abelianize(LOW_GROWTH), 12))

    def test_doubling(self):
        assert inversion_holds(lefschetz_table(((-2,),), 12))

    def test_random_matrices(self, rng):
        for _ in range(30):
            assert inversion_holds(lefschetz_table(random_matrix(rng, 4), 10))


class TestLefschetzTable:
    def test_consistency_with_pointwise(self, rng):
        # against L(f^i) = 1 - tr M^i from repeated squaring, and its
        # Moebius inversion summed divisor by divisor
        m = random_matrix(rng, 3)
        t = lefschetz_table(m, 10)
        pointwise = {i: 1 - trace(mat_pow(m, i)) for i in range(1, 11)}
        for i in range(1, 11):
            assert t.lefschetz_of(i) == pointwise[i]
            assert t.periodic_lefschetz_of(i) == sum(
                mobius(r) * pointwise[i // r] for r in divisors(i)
            )

    def test_empty_ladder_rejected(self):
        with pytest.raises(InputError):
            LefschetzTable.of(())

    def test_inversion_identity(self, rng):
        m = random_matrix(rng, 4)
        t = LefschetzTable.of(powers(m, 12))
        for i in range(1, 13):
            total = sum(t.periodic_lefschetz_of(r) for r in divisors(i))
            assert total == t.lefschetz_of(i)

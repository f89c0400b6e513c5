"""Homology matrix, Lefschetz numbers, Moebius machinery."""

import pytest

from bouquet_dyn import (
    LefschetzTable,
    abelianize,
    action,
    iterate_action,
    lefschetz,
    mat_pow,
    mif_check,
    mobius,
    norm1,
    periodic_lefschetz,
    powers,
    trace,
)
from bouquet_dyn.errors import InputError
from bouquet_dyn.homology import divisors, identity
from bouquet_dyn.words import chi

from conftest import random_action, random_matrix

LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
SIX_CYCLE = action("a1", "a1 a3", "a1 a4", "a1 a2")


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
        m3 = mat_pow(abelianize(LOW_GROWTH), 3)
        assert m3 == ((4, 2, 4), (0, 0, 0), (4, 2, 4))

    def test_six_cycle_sixth_power(self):
        m6 = mat_pow(abelianize(SIX_CYCLE), 6)
        assert m6[0] == (1, 6, 6, 6)
        assert tuple(row[1:] for row in m6[1:]) == identity(3)

    def test_norm1_identity(self):
        assert norm1(identity(3)) == 3

    def test_power_zero(self):
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


class TestLefschetz:
    def test_reversing_doubling(self):
        m = ((-2,),)
        assert lefschetz(m, 1) == 3
        assert lefschetz(m, 2) == -3

    def test_six_cycle(self):
        m = abelianize(SIX_CYCLE)
        assert lefschetz(m, 2) == 0
        assert lefschetz(m, 3) == -3

    def test_zero_matrix(self):
        assert lefschetz(((0, 0), (0, 0)), 5) == 1

    def test_periodic_doubling(self):
        assert periodic_lefschetz(((-2,),), 2) == -6

    def test_periodic_base_case(self, rng):
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4))
            assert periodic_lefschetz(m, 1) == lefschetz(m, 1)

    def test_six_cycle_periodic(self):
        m = abelianize(SIX_CYCLE)
        assert periodic_lefschetz(m, 3) == -3
        for k in range(4, 13):
            assert periodic_lefschetz(m, k) == 0


class TestMif:
    def test_low_growth(self):
        assert mif_check(abelianize(LOW_GROWTH), 12)

    def test_doubling(self):
        assert mif_check(((-2,),), 12)

    def test_random_matrices(self, rng):
        for _ in range(30):
            assert mif_check(random_matrix(rng, 4), 10)


class TestLefschetzTable:
    def test_consistency_with_pointwise(self, rng):
        m = random_matrix(rng, 3)
        t = LefschetzTable.of(powers(m, 10))
        for i in range(1, 11):
            assert t.lefschetz_of(i) == lefschetz(m, i)
            assert t.periodic_lefschetz_of(i) == periodic_lefschetz(m, i)

    def test_inversion_identity(self, rng):
        m = random_matrix(rng, 4)
        t = LefschetzTable.of(powers(m, 12))
        for i in range(1, 13):
            total = sum(t.periodic_lefschetz_of(r) for r in divisors(i))
            assert total == t.lefschetz_of(i)

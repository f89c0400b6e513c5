"""Homology matrix, Lefschetz numbers, Moebius machinery."""

import math
import random
import tracemalloc

import pytest

from bouquet_dyn import (
    PowerSequences,
    abelianize,
    action,
    eigenvalues,
    fix_counts,
)
from bouquet_dyn.errors import InputError
from bouquet_dyn import homology
from bouquet_dyn.cli import parse_spec
from bouquet_dyn.homology import invert_divisor_sums, mat_mul, power_traces
from bouquet_dyn.periods import period_certificates
from bouquet_dyn.spectral import exceeds_perron_root
from bouquet_dyn.words import Letter, MapAction, Word

from conftest import (
    cap_edge_spec,
    char_poly,
    chi,
    divisor_sums,
    divisors,
    identity,
    iterate_action,
    lefschetz_numbers,
    letter_fix_counts,
    mat_pow,
    mobius,
    norm1,
    powers,
    random_action,
    random_matrix,
    random_signed_matrix,
    record,
    trace,
)

LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
SIX_CYCLE = action("a1", "a1 a3", "a1 a4", "a1 a2")


def inversion_holds(numbers):
    """The Moebius identity: sum over r|m of l(f^r) = L(f^m), every m."""
    lefs, pers = numbers
    return all(
        sum(pers[r - 1] for r in divisors(m)) == lefs[m - 1]
        for m in range(1, len(lefs) + 1)
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
        m3 = [*PowerSequences.of(abelianize(LOW_GROWTH), 3).matrix_powers(3)][2]
        assert m3 == ((4, 2, 4), (0, 0, 0), (4, 2, 4))

    def test_six_cycle_sixth_power(self):
        m6 = [*PowerSequences.of(abelianize(SIX_CYCLE), 6).matrix_powers(6)][5]
        assert m6[0] == (1, 6, 6, 6)
        assert tuple(row[1:] for row in m6[1:]) == identity(3)

    def test_norm1_identity(self):
        assert PowerSequences.of(identity(3), 4).norms == (3, 3, 3, 3)

    def test_power_zero(self):
        # the reference's zeroth power, which the record does not hold
        assert mat_pow(((5,),), 0) == ((1,),)

    def test_trace_bridge(self, rng):
        for _ in range(30):
            f = random_action(rng)
            traces = PowerSequences.of(abelianize(f), 4).traces
            for m in (1, 2, 3, 4):
                g = iterate_action(f, m, budget=50000)
                total = sum(chi(g.image(j), j) for j in range(1, f.n + 1))
                assert total == traces[m - 1]

    def test_ladder_matches_squaring(self, rng):
        for _ in range(20):
            m = random_signed_matrix(rng, rng.randint(1, 8))
            seqs = PowerSequences.of(m, 9)
            assert len(seqs.head) == max(math.isqrt(len(m)), 2)
            for k, power in enumerate(seqs.matrix_powers(9), start=1):
                assert power == mat_pow(m, k)
            for k in range(1, 10):
                assert seqs.traces[k - 1] == trace(mat_pow(m, k))

    def test_empty_ladder(self):
        seqs = PowerSequences.of(((2,),), 0)
        assert seqs.traces == seqs.norms == ()
        assert seqs.head == (((2,),),) and seqs.char == (-2, 1)
        with pytest.raises(InputError):
            PowerSequences.of(((2,),), -1)

    def test_norm_count_apart_from_power_count(self, rng):
        # a report reads traces to max(H, k, D) and the one norm at E
        for _ in range(30):
            m = random_signed_matrix(rng, rng.randint(1, 8))
            k, e = rng.randint(0, 12), rng.randint(0, 40)
            full = PowerSequences.of(m, max(k, e))
            seqs = PowerSequences.of(m, k, e)
            assert seqs.traces == full.traces[:k]
            assert seqs.norms == full.norms[:e]
            assert seqs.char == full.char
        for bad in (-1, homology.ITERATE_CAP + 1, 2.0, True):
            with pytest.raises(InputError, match="norm count"):
                PowerSequences.of(((2,),), 3, bad)


def shift(n, sign=1):
    """The nilpotent n-by-n shift, entries sign on the superdiagonal."""
    return tuple(tuple(sign * (j == i + 1) for j in range(n)) for i in range(n))


def cycle(n):
    """The permutation matrix of an n-cycle: characteristic x^n - 1."""
    return tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                 for i in range(n))


#: matrices whose characteristic polynomials are mostly zeros: nilpotent
#: (x^n), permutations (x^n - 1, (x^2 - 1)(x - 1)) and a zero block
#: beside a golden-mean block (x^3 (x^2 - x - 1))
SPARSE = (
    shift(5), shift(7, -1), cycle(4), cycle(9),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    tuple(row + (0,) * 3 for row in ((1, 1), (1, 0))) + ((0,) * 5,) * 3,
)


def random_map(rng, n, sign, branch_class):
    """A map on n circles with image words of 1 to 4 letters."""
    images = tuple(
        Word(tuple(Letter(rng.randint(1, n), sign)
                   for _ in range(rng.randint(1, 4))))
        for _ in range(n)
    )
    return MapAction(n, images, branch_class)


def traced_peak(build, *args):
    """The `tracemalloc` peak, in bytes, of one call build(*args)."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def two_letter_map(n):
    """`a1 -> a1 a1` on one circle; `a1 -> a1 a2` and `aj -> a1 a(j+1)`,
    indices mod n, on more.  Every image has two letters."""
    if n == 1:
        return action("a1 a1")
    return action("a1 a2", *(f"a1 a{j % n + 1}" for j in range(2, n + 1)))


class TestPowerSequences:
    """The record against the reference ladder: matrix products, their
    traces and 1-norms, and Faddeev-LeVerrier."""

    def test_matches_reference_ladder(self):
        rng = random.Random(0x5E9)
        seen = set()
        for n in range(1, 13):
            for k in sorted({1, 2, max(1, n - 1), 5, 6, 7,
                             rng.randint(8, 60), 60}):
                sign = rng.choice((1, -1))
                branch = rng.choice((None, 1, 2, 3))
                f = random_map(rng, n, sign, branch)
                mat = abelianize(f)
                seqs = PowerSequences.of(mat, k)
                h = max(math.isqrt(n), min(k, 2))
                ladder = powers(mat, max(h, k))
                assert seqs.head == ladder[:h], (f, k)
                assert tuple(seqs.matrix_powers(max(h, k))) == ladder, (f, k)
                assert seqs.char == tuple(char_poly(mat)), f
                ladder = ladder[:k]
                assert seqs.traces == tuple(map(trace, ladder)), (f, k)
                assert seqs.norms == tuple(map(norm1, ladder)), (f, k)
                assert fix_counts(f, seqs.traces) == \
                    letter_fix_counts(f, ladder)
                # class 1 takes the gamma route on preserving iterates
                # only, and reads chi on the reversing ones
                gamma_route = branch == 1 and any(
                    sign ** m > 0 and any(abs(sum(col)) > 1
                                          for col in zip(*power))
                    for m, power in enumerate(ladder, start=1)
                )
                seen |= {("K < n", k < n), ("K <= 6", k <= 6),
                         ("n > 6", n > 6), ("reversing", sign < 0),
                         ("gamma route", gamma_route),
                         ("class 1 reversing", branch == 1 and sign < 0)}
        assert all((what, True) in seen for what, _ in seen), seen
        # sparse characteristic polynomials, K below and above n: the
        # recurrence dots its whole coefficient vector, zeros included
        for mat in SPARSE:
            n = len(mat)
            for k in range(3 * n + 2):
                seqs = PowerSequences.of(mat, k)
                ladder = powers(mat, k)
                assert seqs.char == tuple(char_poly(mat)), mat
                assert seqs.traces == tuple(map(trace, ladder)), (mat, k)
                assert seqs.norms == tuple(map(norm1, ladder)), (mat, k)
                assert tuple(seqs.matrix_powers(k)) == ladder, (mat, k)

    def test_rejects_mixed_signs(self):
        with pytest.raises(InputError):
            PowerSequences.of(((1, -1), (0, 1)), 3)
        assert PowerSequences.of(((0, -1), (-2, 0)), 3).norms == (3, 4, 6)

    def test_memory_below_half_the_ladder(self):
        # n = 12, H = 400: the ladder holds 400 n^2 integers, the record
        # n matrices and two integers per iterate
        mat = abelianize(random_map(random.Random(0x3E3), 12, 1, None))
        peaks = [traced_peak(build, mat, 400)
                 for build in (PowerSequences.of, powers)]
        assert peaks[0] < peaks[1] / 2, peaks

    def test_memory_flat_in_circle_count(self):
        # K = 2000, spectral radius 2 at every n: the record holds the
        # traces and norms, two sequences whatever n is
        peaks = [traced_peak(PowerSequences.of, abelianize(two_letter_map(n)),
                             2000) for n in (1, 8)]
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestPowerTraces:
    """Baby and giant steps against the reference ladder."""

    def test_matches_reference_ladder(self, rng):
        # signed (one sign, either) and nonnegative matrices; every entry
        # of M^m has the sign s^m, so the entry sum is s^m ||M^m||_1
        for n in range(1, 9):
            for mat in (random_signed_matrix(rng, n),
                        random_matrix(rng, n, 0, 3)):
                s = -1 if any(x < 0 for row in mat for x in row) else 1
                ladder = powers(mat, 3 * n + 1)
                for h in range(1, n + 2):
                    for k in range(3 * n + 1):
                        baby, traces, totals = power_traces(mat, k, h)
                        assert baby == list(ladder[:h]), (mat, k, h)
                        assert traces == list(map(trace, ladder[:k]))
                        assert totals == [s ** m * norm1(p) for m, p in
                                          enumerate(ladder[:k], start=1)]

    def count_products(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr(homology, "mat_mul", counted)
        return calls

    def test_products_up_to_six_circles(self, monkeypatch, rng):
        # baby steps M^1, M^2: one product, and n <= 4 traces need no
        # more; n = 5, 6 take one giant step M^4
        calls = self.count_products(monkeypatch)
        for n in range(1, 7):
            for k in (6, 7, 40):
                calls.clear()
                PowerSequences.of(random_signed_matrix(rng, n), k)
                assert len(calls) == (1 if n <= 4 else 2), (n, k)

    @pytest.mark.parametrize("images, products", [
        # doubling at m = 1, then a promoted hit on M^2 ends the walk
        (("a1 a1",), 0),
        # no family fires on the identity, so the walk reaches M^6
        (("a1", "a2"), 4),
    ])
    def test_certificate_walk(self, monkeypatch, images, products):
        # the walk over M^1..M^6 multiplies a power past the record's
        # baby steps M^1, M^2 only when it reaches it
        f = action(*images)
        seqs = PowerSequences.of(abelianize(f), 12)
        calls = self.count_products(monkeypatch)
        period_certificates(f, seqs, 12, eigenvalues(seqs.char))
        assert len(calls) == products

    def test_cap_edge(self, monkeypatch):
        # n = 64: 7 products for the baby steps M^1..M^8 and one for each
        # giant step M^16..M^56; M^1..M^64 one at a time would take 63
        mat = abelianize(parse_spec(cap_edge_spec()).action)
        calls = self.count_products(monkeypatch)
        seqs = PowerSequences.of(mat, 70)
        assert len(calls) <= 16, len(calls)
        ladder = powers(mat, 70)
        assert seqs.char == tuple(char_poly(mat))
        assert seqs.traces == tuple(map(trace, ladder))
        assert seqs.norms == tuple(map(norm1, ladder))


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
        lefs, _ = lefschetz_numbers(((-2,),), 2)
        assert lefs == [3, -3]

    def test_six_cycle(self):
        lefs, _ = lefschetz_numbers(abelianize(SIX_CYCLE), 3)
        assert lefs[1:] == [0, -3]

    def test_zero_matrix(self):
        assert lefschetz_numbers(((0, 0), (0, 0)), 5)[0][4] == 1

    def test_periodic_doubling(self):
        assert lefschetz_numbers(((-2,),), 2)[1][1] == -6

    def test_periodic_base_case(self, rng):
        for _ in range(20):
            lefs, pers = lefschetz_numbers(
                random_matrix(rng, rng.randint(1, 4)), 1)
            assert pers == lefs

    def test_six_cycle_periodic(self):
        _, pers = lefschetz_numbers(abelianize(SIX_CYCLE), 12)
        assert pers[2] == -3
        assert pers[3:] == [0] * 9


class TestMif:
    def test_low_growth(self):
        assert inversion_holds(lefschetz_numbers(abelianize(LOW_GROWTH), 12))

    def test_doubling(self):
        assert inversion_holds(lefschetz_numbers(((-2,),), 12))

    def test_random_matrices(self, rng):
        for _ in range(30):
            assert inversion_holds(lefschetz_numbers(random_matrix(rng, 4), 10))


class TestLefschetzTable:
    def test_consistency_with_pointwise(self, rng):
        # against L(f^i) = 1 - tr M^i from repeated squaring, and its
        # Moebius inversion summed divisor by divisor
        m = random_matrix(rng, 3)
        lefs, pers = lefschetz_numbers(m, 10)
        pointwise = {i: 1 - trace(mat_pow(m, i)) for i in range(1, 11)}
        for i in range(1, 11):
            assert lefs[i - 1] == pointwise[i]
            assert pers[i - 1] == sum(
                mobius(r) * pointwise[i // r] for r in divisors(i)
            )

    def test_inversion_identity(self, rng):
        m = random_matrix(rng, 4)
        lefs, pers = lefschetz_numbers(m, 12)
        for i in range(1, 13):
            total = sum(pers[r - 1] for r in divisors(i))
            assert total == lefs[i - 1]


class TestPerronRootBound:
    """`exceeds_perron_root(c, ps, q)` decides p/q > lambda exactly for
    each p of ps, c = det(xI - |a|) and lambda the Perron root of |a|: at
    t = lambda it is false, and one step of 2^-40 above it true."""

    @pytest.mark.parametrize("char, lam", [
        # (x - 2)^64
        (record(action(*(f"a{j} a{j}" for j in range(1, 65))), 1).char, 2),
        # |M| is a 5-cycle, c(x) = x^5 - 1; only the constant term of
        # c(x + 1) is 0
        (record(action(*(f"a{j % 5 + 1}" for j in range(1, 6))), 1).char, 1),
        # no map's |M| is nilpotent: its every column sums to at least 1
        (char_poly(((0, 3, 1, 0), (0, 0, 2, 5), (0, 0, 0, 1), (0, 0, 0, 0))),
         0),
    ], ids=["64-fold-root", "cyclic-permutation", "nilpotent"])
    def test_both_sides_at_exact_root(self, char, lam):
        q = 1 << 40
        assert exceeds_perron_root(char, [lam * q + 1, lam * q, lam * q - 1],
                                   q) == [True, False, False]
        assert exceeds_perron_root(char, [lam], 1) == [False]

"""Characteristic polynomial, eigenvalues, entropy, growth thresholds."""

import cmath
import itertools
import math
import random

import pytest

from bouquet_dyn import PowerSequences, abelianize, action, cli, eigenvalues, spectral
from bouquet_dyn.cli import (MapSpecDocument, ReportOptions, fixture_names,
                             parse_spec, run_report)
from bouquet_dyn.errors import InputError
from bouquet_dyn.spectral import (
    DOMINANCE_EPS,
    M0_SCAN_CAP,
    SpectrumReport,
    _durand_kerner,
    dominant_test,
    exceeds_perron_root,
    m0_bound,
    squarefree_parts,
)
from bouquet_dyn.words import Letter, MapAction, Word

from conftest import (
    bareiss_exceeds_perron_root,
    cap_edge_spec,
    char_poly,
    eigenvalues_stepwise,
    horner,
    load_fixture,
    m0_bound_stepwise,
    mat_pow,
    norm1,
    poly_gcd,
    poly_mul,
    probe64_spec,
    random_branch_periodic_action,
    random_expanding_action,
    random_matrix,
    radius_failure_stepwise,
    random_signed_matrix,
    record,
    trace,
    twin32_spec,
    yun_parts,
)


def record_char(mat):
    """The characteristic polynomial a report reads, from the record."""
    return list(PowerSequences.of(mat, 1).char)

LOW_GROWTH = abelianize(action("a1 a3", "a1", "a1 a3", k=1))
SIX_CYCLE = abelianize(action("a1", "a1 a3", "a1 a4", "a1 a2"))
DELAYED = abelianize(action("a1", "a1 a3", "a1 a4 a4", "a1 a2"))
DOMINANT = abelianize(action("a1", "a1 a3", "a1 a4", "a1 a2 a4"))


class TestCharPoly:
    def test_scalar(self):
        assert record_char(((2,),)) == char_poly(((2,),)) == [-2, 1]

    def test_low_growth(self):
        # x^3 - 2x^2, roots {0, 0, 2}
        assert record_char(LOW_GROWTH) == char_poly(LOW_GROWTH)
        assert record_char(LOW_GROWTH) == [0, 0, -2, 1]

    def test_matches_eigenvalue_product(self, rng):
        for _ in range(20):
            m = random_signed_matrix(rng, 3)
            coeffs = record_char(m)
            assert coeffs == char_poly(m)
            assert coeffs[-1] == 1
            assert coeffs[2] == -trace(m)

    def test_root_residuals(self, rng):
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 5))
            s = eigenvalues(char_poly(m))
            assert s.residual <= 1e-10


class TestEigenvalues:
    def test_low_growth_roots(self):
        s = eigenvalues(char_poly(LOW_GROWTH))
        assert abs(s.values[0] - 2) < 1e-10
        assert abs(s.values[1]) < 1e-12 and abs(s.values[2]) < 1e-12

    def test_six_cycle_moduli(self):
        s = eigenvalues(char_poly(SIX_CYCLE))
        for z in s.values:
            assert abs(abs(z) - 1) < 1e-8

    def test_delayed_moduli(self):
        s = eigenvalues(char_poly(DELAYED))
        target = 2 ** (1 / 3)
        moduli = sorted(abs(z) for z in s.values)
        assert abs(moduli[0] - 1) < 1e-8
        for v in moduli[1:]:
            assert abs(v - target) < 1e-8

    def test_dominant_leading_value(self):
        s = eigenvalues(char_poly(DOMINANT))
        assert abs(s.values[0].real - 1.47) < 0.01
        assert abs(s.values[0].imag) < 1e-10
        assert abs(s.values[1] - 1) < 1e-8

    def test_identity_matrix(self):
        s = eigenvalues(char_poly(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        # a triple root clusters with accuracy ~ cbrt(eps); the residual
        # stays tight
        assert all(abs(z - 1) < 1e-4 for z in s.values)
        assert s.residual <= 1e-10

    def test_sorted_by_modulus(self, rng):
        for _ in range(20):
            s = eigenvalues(char_poly(random_matrix(rng, 4)))
            mods = [abs(z) for z in s.values]
            assert all(a >= b - 1e-9 for a, b in zip(mods, mods[1:]))

    def test_trace_identity(self, rng):
        for _ in range(10):
            m = random_matrix(rng, 3, lo=-2, hi=2)
            s = eigenvalues(char_poly(m))
            for k in (1, 2, 3, 4):
                approx = sum(z**k for z in s.values)
                exact = trace(mat_pow(m, k))
                assert abs(approx - exact) <= 1e-6 * (1 + abs(exact))


def strip_zeros(char):
    """char without its zero roots, and their number."""
    zeros = next(i for i, c in enumerate(char) if c or i == len(char) - 1)
    return list(char[zeros:]), zeros


def random_product(rng):
    """A monic integer polynomial of degree at most 12: a product of
    random monic factors of degree 1-3, each to a power 1-3."""
    char = [1]
    while len(char) < 10:
        factor = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
        for _ in range(rng.randint(1, 3)):
            if len(char) + len(factor) - 2 > 12:
                break
            char = poly_mul(char, factor)
    return char


class TestSquarefreeParts:
    def test_random_products(self, rng):
        for _ in range(200):
            char = random_product(rng)
            parts = squarefree_parts(char)
            product = [1]
            for part, i in parts:
                assert len(part) > 1 and part[-1] == 1
                for _ in range(i):
                    product = poly_mul(product, list(part))
            assert product == char
            assert [i for _, i in parts] == sorted({i for _, i in parts})
            for k, (part, _) in enumerate(parts):
                derivative = [j * c for j, c in enumerate(part)][1:]
                assert poly_gcd(list(part), derivative) == [1]
                for other, _ in parts[k + 1:]:
                    assert poly_gcd(list(part), list(other)) == [1]

    def test_sixty_four_fold_root(self):
        char = [1]
        for _ in range(64):
            char = poly_mul(char, [-2, 1])
        assert squarefree_parts(char) == [((-2, 1), 64)]

    def test_squarefree_spectrum_is_the_solvers(self, rng):
        # a nonconstant squarefree polynomial is one part, and the solver
        # runs on the whole of it; a constant one (a nilpotent matrix's,
        # its zero roots stripped) has no part and no root
        seen = constant = 0
        for _ in range(200):
            char = char_poly(random_matrix(rng, rng.randint(1, 6)))
            stripped, zeros = strip_zeros(char)
            derivative = [j * c for j, c in enumerate(stripped)][1:]
            if poly_gcd(stripped, derivative) != [1]:
                continue
            seen += 1
            if stripped == [1]:
                constant += 1
                assert squarefree_parts(stripped) == []
            else:
                assert squarefree_parts(stripped) == [(tuple(stripped), 1)]
            roots = _durand_kerner([float(c) for c in stripped])
            roots += [complex(0)] * zeros
            roots.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
            assert eigenvalues(char).values == tuple(roots)
        assert seen > 150 and constant > 0

    def test_repeated_roots_are_equal_values(self, rng):
        for _ in range(50):
            char = random_product(rng)
            s = eigenvalues(char)
            assert s.residual <= 1e-6
            for part, i in squarefree_parts(strip_zeros(char)[0]):
                for z in _durand_kerner([float(c) for c in part]):
                    assert s.values.count(z) >= i

    def test_identity_roots_exact(self):
        s = eigenvalues(char_poly(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert s.values == (1, 1, 1)
        assert s.residual == 0.0


def bits(values):
    """The exact bits of each complex value, signed zeros and nan too."""
    return [(z.real.hex(), z.imag.hex()) for z in values]


def durand_kerner_cmath(coeffs):
    """`_durand_kerner` as written with `cmath`: the start points are
    radius * exp(2 pi i (i + 1/4) / d)."""
    d = len(coeffs) - 1
    if d == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [radius * cmath.exp(2j * math.pi * (i + 0.25) / d)
             for i in range(d)]
    for _ in range(200):
        moved = 0.0
        new = list(roots)
        for i in range(d):
            denom = complex(1)
            for j in range(d):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                continue
            step = horner(coeffs, roots[i]) / denom
            new[i] = roots[i] - step
            moved = max(moved, abs(step))
        roots = new
        if moved < 1e-14:
            break
    return roots


class TestStartPoints:
    def test_math_start_is_cmath_start(self):
        # exp(it) of a pure-imaginary argument is exp(0.0) cos t, exp(0.0)
        # sin t, so cos and sin of the same float t give the same bits
        for d in range(1, 65):
            for radius in (1.0, 2.5, 1e300):
                got = [radius * complex(math.cos(t), math.sin(t))
                       for t in (2 * math.pi * (i + 0.25) / d for i in range(d))]
                want = [radius * cmath.exp(2j * math.pi * (i + 0.25) / d)
                        for i in range(d)]
                assert bits(got) == bits(want), d

    def test_solver_matches_cmath_start(self, rng):
        # the same start points give the same sweeps, so the same roots
        seen = 0
        for _ in range(80):
            char = char_poly(random_matrix(rng, rng.randint(1, 7)))
            for part, _ in squarefree_parts(strip_zeros(char)[0]):
                coeffs = [float(c) for c in part]
                assert bits(_durand_kerner(coeffs)) == bits(
                    durand_kerner_cmath(coeffs))
                seen += 1
        assert seen > 60


class TestEntropy:
    def test_low_growth(self):
        s = eigenvalues(char_poly(LOW_GROWTH))
        assert abs(s.entropy - math.log(2)) < 1e-9

    def test_six_cycle_zero(self):
        assert eigenvalues(char_poly(SIX_CYCLE)).entropy == 0.0

    def test_delayed(self):
        s = eigenvalues(char_poly(DELAYED))
        assert abs(s.entropy - math.log(2) / 3) < 1e-9

    def test_clamped_below_one(self):
        # no parsed map has a radius below 1 (test_properties), but the
        # clamp keeps a hand-made one at entropy 0
        s = eigenvalues(char_poly(((0,),)))
        assert s.spectral_radius < 1
        assert s.entropy == 0.0

    def test_huge_norms(self):
        # ||M^400|| = 10^400 is past the float range; math.log takes the
        # int whole, so the report's gap at E = 400 is a rounding error
        f = action(" ".join(["a1"] * 10))
        assert PowerSequences.of(abelianize(f), 400).norms[-1] == 10**400
        entropy = run_report(MapSpecDocument(f), ReportOptions(
            no_oracle=True, entropy_horizon=400))["entropy"]
        assert entropy["horizon"] == 400
        assert float(entropy["gap_at_horizon"]) <= 1e-15

    def test_empty_ladder_rejected(self):
        # E = 0 would read the gap off an empty ladder of norms
        with pytest.raises(InputError) as raised:
            ReportOptions(no_oracle=True, entropy_horizon=0)
        assert str(raised.value) == "entropy horizon must be >= 1, got 0"

    def test_gelfand_agreement(self):
        for mat in (LOW_GROWTH, SIX_CYCLE, DELAYED, DOMINANT):
            s = eigenvalues(char_poly(mat))
            sigma = s.spectral_radius
            nrm = norm1(mat_pow(mat, 30))
            assert abs(nrm ** (1 / 30) - sigma) <= 0.15 * (1 + sigma)


class TestDominance:
    def test_dominant_fixture(self):
        assert dominant_test(eigenvalues(char_poly(DOMINANT)))

    def test_tied_moduli(self):
        assert not dominant_test(eigenvalues(char_poly(DELAYED)))

    def test_identity_not_dominant(self):
        assert not dominant_test(eigenvalues(char_poly(((1, 0), (0, 1)))))


class TestM0Bound:
    def test_dominant_fixture_threshold(self):
        assert m0_bound(eigenvalues(char_poly(DOMINANT)), 4) == 10

    def test_pure_doubling(self):
        assert m0_bound(eigenvalues(char_poly(((2,),))), 1) == 3

    def test_requires_dominance(self):
        assert m0_bound(eigenvalues(char_poly(((1, 0), (0, 1)))), 2) is None

    def test_large_radius_small_threshold(self):
        assert m0_bound(eigenvalues(char_poly(((10,),))), 1) == 1

    def test_first_pass_is_final(self):
        # the inequality divided by s1^m: 1 > d s1^(-m/2) + (d + 1) s1^(-m)
        # + d (s2/s1)^m, evaluated independently of m0_bound's log space
        def passes(s1, s2, d, m):
            rhs = d * s1 ** (-m / 2) + (d + 1) * s1 ** (-m) + d * (s2 / s1) ** m
            return rhs < 1

        rng = random.Random(0x30B0)
        cases = []
        while len(cases) < 60:
            n = rng.randint(1, 8)
            s = eigenvalues(char_poly(random_matrix(rng, n, lo=-1, hi=2)))
            if dominant_test(s):
                cases.append((s, n))
        # a radius barely above 1 never passes; one near 1 passes late
        for values in ((1 + 1e-6, 0.5), (1.001, 0.5)):
            cases.append((SpectrumReport(values, 0.0), 1))
        # the double root -2 of this Jordan block comes out as two equal
        # values, so it is not dominant and has no m0
        jordan = eigenvalues(char_poly(((-2, -1), (0, -2))))
        assert jordan.values[0] == jordan.values[1]
        assert not dominant_test(jordan)
        found = set()
        for s, n in cases:
            s1, s2 = s.spectral_radius, s.second_modulus
            m0 = m0_bound(s, n)
            found.add(m0 is None or m0 > 100)
            if m0 is None:
                assert not passes(s1, s2, n, M0_SCAN_CAP)
                continue
            assert passes(s1, s2, n, m0)
            assert m0 == 1 or not passes(s1, s2, n, m0 - 1)
            assert all(passes(s1, s2, n, m) for m in range(m0, M0_SCAN_CAP + 1))
        assert found == {True, False}

    def test_doubling_search_steps(self, monkeypatch):
        # m = 1, 2, 4, .. until one passes, then bisection inside the last
        # doubling: each evaluation of the inequality is one log-sum-exp,
        # and so one fsum
        calls = []
        real = math.fsum

        def counted(vals):
            calls.append(1)
            return real(vals)

        monkeypatch.setattr(math, "fsum", counted)
        rng = random.Random(0x30B1)
        cases = [(SpectrumReport(values, 0.0), 1)
                 for values in ((1 + 1e-6, 0.5), (1.001, 0.5), (10.0, 0.0))]
        while len(cases) < 60:
            n = rng.randint(1, 8)
            s = eigenvalues(char_poly(random_matrix(rng, n, lo=-1, hi=2)))
            if dominant_test(s):
                cases.append((s, n))
        found = set()
        for s, n in cases:
            calls.clear()
            m0 = m0_bound(s, n)
            top = M0_SCAN_CAP if m0 is None else m0
            bound = 2 * math.ceil(math.log2(top)) + 2
            assert 0 < len(calls) <= bound, (m0, calls)
            found.add(m0 is None or m0 > 100)
        assert found == {True, False}

    def test_trace_growth_estimate(self):
        # |Tr(M^40)|^(1/40) approaches the dominant eigenvalue modulus
        s = eigenvalues(char_poly(DOMINANT))
        t = abs(trace(mat_pow(DOMINANT, 40)))
        assert abs(t ** (1 / 40) - s.spectral_radius) <= 0.05


#: the report tests the solver's radius on multiples of 2^-40
GRID = 1 << 40


def drawn_map(rng: random.Random, n: int, sign: int, len_max: int) -> MapAction:
    """A map on n circles of the given sign, each image 1..len_max
    uniform letters."""
    return MapAction(n, tuple(
        Word(Letter(rng.randint(1, n), sign)
             for _ in range(rng.randint(1, len_max)))
        for _ in range(n)))


class TestPerronRootCrossCheck:
    """The shift test on the report's polynomial gives the verdict of
    the Bareiss M-matrix test of pI - q|M| (`conftest`'s reference) at
    each point a report tests, and the report's radius check passes
    exactly when the reference brackets lambda there.  The points are
    the solver's r + w and r - w, on the report's grid, and lambda q - 1,
    lambda q and lambda q + 1 where lambda is a known integer."""

    @staticmethod
    def assert_same_verdicts(f: MapAction, lam: int | None = None) -> None:
        a = abelianize(f)
        seqs = record(f, 1)
        n = f.n
        # M = s|M|, so det(xI - |M|) takes c_i times s^(n-i)
        char = [c * f.global_sign ** (n - i) for i, c in enumerate(seqs.char)]
        if n <= 8:
            assert char == char_poly(tuple(tuple(map(abs, row)) for row in a))
        spectrum = eigenvalues(seqs.char)
        r = spectrum.spectral_radius
        finite = all(math.isfinite(abs(z)) for z in spectrum.values)
        points = []
        if finite:
            w = min(1e-9 * r, DOMINANCE_EPS)
            hi_num, hi_den = (r + w).as_integer_ratio()
            lo_num, lo_den = (r - w).as_integer_ratio()
            points += [(-(-hi_num * GRID // hi_den), GRID),
                       (lo_num * GRID // lo_den, GRID)]
        if lam is not None:
            points += [(lam * GRID + d, GRID) for d in (-1, 0, 1)]
        verdicts = [bareiss_exceeds_perron_root(a, p, q) for p, q in points]
        for (p, q), verdict in zip(points, verdicts):
            assert exceeds_perron_root(char, [p], q) == [verdict], (f, p, q)
        col_sums = [sum(map(abs, col)) for col in zip(*a)]
        passed = finite and verdicts[0] and not verdicts[1]
        failure = cli._radius_failure(spectrum, seqs.char, f.global_sign,
                                      col_sums)
        assert (failure is None) == passed, (f, failure)

    def test_seeded_maps(self):
        # every n from 1 to 16 and three larger, both signs; the radius
        # check fails on some of them
        rng = random.Random(46)
        for n in [*range(1, 17), 24, 32, 48]:
            for sign in (1, -1):
                for _ in range(3 if n <= 16 else 1):
                    self.assert_same_verdicts(
                        drawn_map(rng, n, sign, 4 if n <= 16 else 3))

    def test_maps_of_every_branch_class(self):
        # the census reads the class, |M| does not: the lift-viable draws
        # that each class's generator makes, and the fixtures
        rng = random.Random(46)
        for _ in range(8):
            self.assert_same_verdicts(random_expanding_action(rng, 4)[0])
            self.assert_same_verdicts(random_branch_periodic_action(rng)[0])
        for name in fixture_names():
            self.assert_same_verdicts(load_fixture(name)[0].action)

    @pytest.mark.parametrize("f, lam", [
        (parse_spec(twin32_spec()).action, 64),
        (parse_spec(cap_edge_spec()).action, 64),
        # M = -2I, a 64-fold root of |M|
        (action(*(f"a{j}' a{j}'" for j in range(1, 65))), 2),
        # the solver is off in the fifth digit here
        (parse_spec(probe64_spec(9)).action, None),
    ], ids=["twin32", "cap-edge", "64-fold-root", "probe64-9"])
    def test_sixty_four_circles(self, f, lam):
        self.assert_same_verdicts(f, lam)


def seeded_polynomials(rng: random.Random, count: int):
    """`count` monic integer polynomials of degree 1-16, low degrees the
    likelier, with coefficients of either sign in -4..4; about three in
    ten of degree >= 2 carry a factor (x - r)^2."""
    for _ in range(count):
        degree = 1 + int(16 * rng.random() ** 4)
        char = [1]
        if degree >= 2 and rng.random() < 0.3:
            r = rng.randint(-3, 3)
            char = poly_mul([-r, 1], [-r, 1])
        while len(char) <= degree:
            k = min(rng.randint(1, 3), degree + 1 - len(char))
            char = poly_mul(char, [rng.randint(-4, 4) for _ in range(k)] + [1])
        yield char


def domain_polynomials():
    """The characteristic polynomials of the n <= 2 domain's matrices:
    M = s|M| for a sign s, and each column of |M| sums to an image word's
    length, 1-3."""
    columns = {1: [(1,), (2,), (3,)],
               2: [(a, s - a) for s in (1, 2, 3) for a in range(s + 1)]}
    chars = set()
    for n, choices in columns.items():
        for cols in itertools.product(choices, repeat=n):
            for sign in (1, -1):
                rows = tuple(tuple(sign * x for x in row) for row in zip(*cols))
                chars.add(tuple(record_char(rows)))
    return chars


class TestStepwiseReference:
    """The spectrum block gives, bit for bit, what the references in
    `conftest` that make one call per step give: every root, the residual
    (nan included), the squarefree parts, the m0 bound, and the radius
    check's verdict for M = |M| and for M = -|M|."""

    @staticmethod
    def assert_same_block(char, dim):
        char = tuple(char)
        for poly in (char, strip_zeros(char)[0]):
            assert squarefree_parts(poly) == yun_parts(poly), poly
        got, want = eigenvalues(char), eigenvalues_stepwise(char)
        assert bits(got.values) == bits(want.values), char
        assert got.residual.hex() == want.residual.hex(), char
        assert m0_bound(got, dim) == m0_bound_stepwise(got, dim), char
        for sign in (1, -1):
            assert (cli._radius_failure(got, char, sign, [1, dim])
                    == radius_failure_stepwise(got, char, sign, [1, dim])), char
        return got

    def test_seeded_polynomials(self):
        degrees, repeated, zeros = set(), 0, 0
        for char in seeded_polynomials(random.Random(48), 5000):
            self.assert_same_block(char, len(char) - 1)
            degrees.add(len(char) - 1)
            repeated += any(i > 1 for _, i in squarefree_parts(char))
            zeros += char[0] == 0
        assert degrees == set(range(1, 17))
        assert repeated > 1000 and zeros > 300

    def test_report_polynomials(self):
        # the fixtures', the n <= 2 domain's, and the n = 64 maps whose
        # solver fails: twin32's roots and residual are nan
        chars = {(tuple(record(f, 1).char), f.n) for f in (
            [load_fixture(name)[0].action for name in fixture_names()]
            + [parse_spec(twin32_spec()).action]
            + [parse_spec(probe64_spec(i)).action for i in range(20)])}
        chars |= {(char, len(char) - 1) for char in domain_polynomials()}
        assert len(chars) > 70
        nans = 0
        for char, dim in chars:
            nans += math.isnan(self.assert_same_block(char, dim).residual)
        assert nans == 1

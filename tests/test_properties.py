"""Randomized property suites, 100 seeded cases each.

Expanding cases come from the lift-viable generator (every image word
visits circle 1 and the canonical lift's branch orbit stays off the
integers), which models the maps the counting formulas are stated for.
"""

import math
import random

from bouquet_dyn import (
    abelianize,
    eigenvalues,
    entropy_limit,
    entropy_spectral,
    iterate_action,
    lefschetz,
    lefschetz_per_count,
    mat_pow,
    mif_check,
    fix_counts,
    per_census,
    periodic_lefschetz,
    powers,
    trace,
)
from bouquet_dyn.errors import BudgetError
from bouquet_dyn.homology import divisors
from bouquet_dyn.words import chi

from conftest import random_action, random_expanding_action, random_matrix

CASES = 100


def census(f, horizon):
    return per_census(fix_counts(f, powers(abelianize(f), horizon)))


def test_mif_round_trip():
    rng = random.Random(101)
    for _ in range(CASES):
        mat = random_matrix(rng, rng.randint(1, 4))
        assert mif_check(mat, 10)
        # explicit inversion both ways
        for m in range(1, 11):
            recovered = sum(
                periodic_lefschetz(mat, r) for r in divisors(m)
            )
            assert recovered == lefschetz(mat, m)


def test_abelianization_functoriality():
    rng = random.Random(102)
    done = 0
    while done < CASES:
        f = random_action(rng, len_max=3)
        mat = abelianize(f)
        for m in range(1, 6):
            try:
                g = iterate_action(f, m, budget=200000)
            except Exception:
                break
            assert abelianize(g) == mat_pow(mat, m)
        done += 1


def test_trace_bridge():
    # the ladder's traces against repeated squaring, and against the
    # expanded words while they fit the budget
    rng = random.Random(103)
    for _ in range(CASES):
        f = random_action(rng)
        mat = abelianize(f)
        ladder = powers(mat, 8)
        for m in (1, 2, 3, 5, 8):
            assert trace(ladder[m - 1]) == trace(mat_pow(mat, m))
            try:
                g = iterate_action(f, m, budget=20000)
            except BudgetError:
                continue
            total = sum(chi(g.image(j), j) for j in range(1, f.n + 1))
            assert total == trace(ladder[m - 1])


def test_census_nonnegative():
    rng = random.Random(104)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        table = census(f, 10)  # raises on any negative count
        assert all(v >= 0 for v in table.per_counts)


def test_periodic_lefschetz_counts_orbits():
    rng = random.Random(105)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        table = census(f, 10)
        for m in range(1, 11):
            expected = lefschetz_per_count(f, m)
            if expected is None:
                continue  # reversing with m = 2 mod 4
            assert expected == table.per_of(m), (f, m)


def test_even_iterate_identity():
    # reversing maps, m = 2p for odd prime p:
    # l(f^2p) = -per(2p) - 2 per(p)
    rng = random.Random(106)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng, sign=-1)
        mat = abelianize(f)
        table = census(f, 10)
        for p in (3, 5):
            lval = periodic_lefschetz(mat, 2 * p)
            assert lval == -table.per_of(2 * p) - 2 * table.per_of(p), (f, p)


def test_entropy_two_route_gap():
    rng = random.Random(107)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        mat = abelianize(f)
        sigma = eigenvalues(mat).spectral_radius
        s30 = entropy_limit(powers(mat, 30))[-1]
        assert abs(s30 - entropy_spectral(mat)) <= 0.1 * (1 + sigma), f

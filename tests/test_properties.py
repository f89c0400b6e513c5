"""Randomized property suites, 100 seeded cases each (300 for the
spectral radius bound).

Expanding cases come from the lift-viable generator (every image word
visits circle 1 and the canonical lift's branch orbit stays off the
integers), which models the maps the counting formulas are stated for.
"""

import random

from bouquet_dyn import (
    PowerSequences,
    abelianize,
    eigenvalues,
    fix_counts,
)
from bouquet_dyn.cli import MapSpecDocument, ReportOptions, run_report
from bouquet_dyn.periods import lefschetz_fix_check
from bouquet_dyn.spectral import entropy_limit
from bouquet_dyn.words import BRANCH_FREE, MapAction

from conftest import (
    BudgetError,
    census,
    certificates,
    check_rows_reference,
    chi,
    divisors,
    iterate_action,
    lefschetz_numbers,
    mat_pow,
    mobius,
    period_set,
    random_action,
    random_branch_periodic_action,
    random_expanding_action,
    random_matrix,
    trace,
)

CASES = 100


def test_mif_round_trip():
    rng = random.Random(101)
    for _ in range(CASES):
        mat = random_matrix(rng, rng.randint(1, 4))
        lefs, pers = lefschetz_numbers(mat, 10)
        # inversion both ways, against L(f^m) = 1 - tr M^m from
        # repeated squaring
        pointwise = {m: 1 - trace(mat_pow(mat, m)) for m in range(1, 11)}
        for m in range(1, 11):
            assert lefs[m - 1] == pointwise[m]
            assert pers[m - 1] == sum(
                mobius(r) * pointwise[m // r] for r in divisors(m)
            )
            recovered = sum(pers[r - 1] for r in divisors(m))
            assert recovered == pointwise[m]


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
    # the record's traces against repeated squaring, and against the
    # expanded words while they fit the budget
    rng = random.Random(103)
    for _ in range(CASES):
        f = random_action(rng)
        mat = abelianize(f)
        traces = PowerSequences.of(mat, 8).traces
        for m in (1, 2, 3, 5, 8):
            assert traces[m - 1] == trace(mat_pow(mat, m))
            try:
                g = iterate_action(f, m, budget=20000)
            except BudgetError:
                continue
            total = sum(chi(g.image(j), j) for j in range(1, f.n + 1))
            assert total == traces[m - 1]


def test_census_nonnegative():
    rng = random.Random(104)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        pers = census(f, 10)  # raises on any negative count
        assert all(v >= 0 for v in pers)


def test_periodic_lefschetz_counts_orbits():
    # never-periodic branching point: |l(f^m)| = per(m), except that a
    # reversing map at m = 2 (mod 4) has l(f^m) = -per(m) - 2 per(m/2)
    rng = random.Random(105)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        pers = census(f, 10)
        _, lvals = lefschetz_numbers(abelianize(f), 10)
        for m in range(1, 11):
            lval = lvals[m - 1]
            if f.global_sign < 0 and m % 4 == 2:
                mixed = -pers[m - 1] - 2 * pers[m // 2 - 1]
                assert lval == mixed, (f, m)
            else:
                assert abs(lval) == pers[m - 1], (f, m)


def test_even_iterate_identity():
    # reversing maps, m = 2p for odd prime p:
    # l(f^2p) = -per(2p) - 2 per(p)
    rng = random.Random(106)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng, sign=-1)
        _, lvals = lefschetz_numbers(abelianize(f), 10)
        pers = census(f, 10)
        for p in (3, 5):
            lval = lvals[2 * p - 1]
            assert lval == -pers[2 * p - 1] - 2 * pers[p - 1], (f, p)


def test_check_rows_fold_the_per_iterate_rule():
    # the dropped "equality-reversing" row could not fail: on an odd
    # iterate of a reversing map M^m = -|M|^m, so tr M^m <= 0 and
    # fix = |1 - tr M^m| = L; the rows printed are the per-iterate rule,
    # folded, at every horizon, the one-iterate one included
    rng = random.Random(33)
    horizon = 40
    failing = 0
    for i in range(CASES):
        base = random_action(rng, n_max=8, len_max=3, sign=(1, -1)[i % 2])
        traces = PowerSequences.of(abelianize(base), horizon).traces
        lefs = [1 - t for t in traces]
        for k in (BRANCH_FREE, 1, 2, 3):
            f = MapAction(base.n, base.images, k)
            fixes = fix_counts(f, traces)
            if f.global_sign < 0:
                for m in range(1, horizon + 1, 2):
                    assert traces[m - 1] <= 0, (f, m)
                    assert fixes[m - 1] == lefs[m - 1], (f, m)
            for h in (1, 2, 3, horizon):
                rows = lefschetz_fix_check(f, lefs[:h], fixes[:h])
                assert rows == check_rows_reference(f, lefs[:h], fixes[:h]), (f, h)
                failing += not all(row["passed"] for row in rows)
    assert failing  # some statements fail, so both outcomes are compared


def test_entropy_two_route_gap():
    rng = random.Random(107)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        seqs = PowerSequences.of(abelianize(f), 30)
        spectrum = eigenvalues(seqs.char)
        sigma = spectrum.spectral_radius
        s30 = entropy_limit(seqs.norms)[-1]
        assert abs(s30 - spectrum.entropy) <= 0.1 * (1 + sigma), f


def test_certificates_agree_with_census():
    # every period a certificate promises shows in the census
    rng = random.Random(108)
    for _ in range(CASES):
        f, _ = random_expanding_action(rng)
        periods = period_set(census(f, 12))
        for cert in certificates(f, 12):
            assert cert.conclusion.periods(12) <= periods, (f, cert)


def test_spectral_radius_at_least_one():
    # image words are non-empty and sign-homogeneous, so +-M is
    # nonnegative with every column sum >= 1: the radius is >= 1 and the
    # entropy clamp never fires on a parsed map
    rng = random.Random(109)
    for _ in range(3 * CASES):
        f = random_action(rng)
        char = PowerSequences.of(abelianize(f), 1).char
        assert eigenvalues(char).spectral_radius >= 1 - 1e-12, f


def test_census_check_flags_no_lift_viable_map():
    # the report's census check flags no certificate of a lift-viable
    # map of either sign, declared free and declared with its lift's own
    # branch class (the same, for a map whose branch orbit stays off the
    # integers), at horizon 40
    rng = random.Random(110)
    options = ReportOptions(horizon=40, no_oracle=True)
    seen = set()
    for i in range(CASES):
        if i % 2:
            f, _ = random_branch_periodic_action(rng)
        else:
            f, _ = random_expanding_action(rng, sign=(1, -1)[i // 2 % 2])
        for k in {BRANCH_FREE, f.branch_class}:
            g = MapAction(f.n, f.images, k)
            report = run_report(MapSpecDocument(g), options)
            assert all("failure" not in c for c in report["certificates"]), g
            seen.add((f.global_sign, k is BRANCH_FREE))
    assert len(seen) == 4, seen

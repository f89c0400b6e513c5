"""Acceptance suite: the headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Criterion 7, the randomized property suites, is
`tests/test_properties.py`, whose suites run on their own.
"""

import math
import random

from bouquet_dyn import (
    PowerSequences,
    abelianize,
    action,
    build_lift,
    eigenvalues,
    fix_counts,
    oracle_counts,
)
from bouquet_dyn.cli import ReportOptions, run_report
from bouquet_dyn.homology import invert_divisor_sums
from bouquet_dyn.periods import ALL_PERIODS
from bouquet_dyn.spectral import dominant_test, m0_bound

from conftest import (
    census,
    certificate,
    load_fixture,
    period_set,
    random_expanding_action,
    walk_covers,
)

REFLECT = action("a1' a1'")
LOW_GROWTH = action("a1 a3", "a1", "a1 a3", k=1)
SIX_CYCLE = action("a1", "a1 a3", "a1 a4", "a1 a2")
DELAYED = action("a1", "a1 a3", "a1 a4 a4", "a1 a2")
DOMINANT = action("a1", "a1 a3", "a1 a4", "a1 a2 a4")

#: the five bundled maps whose canonical lift exists and whose branch
#: orbit matches the declared class (the remaining corpus maps send
#: circle 1 to itself by an isometry, which the expanding-lift
#: construction rightly refuses)
ORACLE_FIXTURES = [
    REFLECT,
    action("a1 a1"),
    LOW_GROWTH,
    action("a1' a1'", "a1'", "a1'"),
    action("a1 a2", "a1 a2"),
]


def lefschetz(f, horizon):
    """L(f^m) and l(f^m) for m = 1..horizon, as the report prints them."""
    traces = PowerSequences.of(abelianize(f), horizon).traces
    lefs = [1 - t for t in traces]
    return lefs, invert_divisor_sums(lefs)


def spectrum(mat):
    return eigenvalues(PowerSequences.of(mat, 1).char)


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_reflect_doubling():
    lefs, pers = lefschetz(REFLECT, 2)
    ok = lefs == [3, -3] and pers[1] == -6 and census(REFLECT, 2)[1] == 0
    _verdict(1, "degree -2 reflection: L, l and empty period 2", ok)


def test_criterion_2_low_growth():
    mat = abelianize(LOW_GROWTH)
    powers = [*PowerSequences.of(mat, 4).matrix_powers(4)]
    ok = mat == ((1, 1, 1), (0, 0, 0), (1, 0, 1))
    for m in (2, 3, 4):
        a, b = 2 ** (m - 1), 2 ** (m - 2)
        ok = ok and powers[m - 1] == ((a, b, a), (0, 0, 0), (a, b, a))
    s = spectrum(mat)
    ok = ok and s.residual <= 1e-10
    ok = ok and abs(s.values[0] - 2) < 1e-10
    ok = ok and abs(s.values[1]) < 1e-10 and abs(s.values[2]) < 1e-10
    ok = ok and abs(s.entropy - math.log(2)) <= 1e-9
    cert = certificate(LOW_GROWTH, "lowgrow(")
    ok = ok and cert is not None and cert.conclusion == ALL_PERIODS
    _verdict(2, "low-growth map: matrix powers, spectrum, all periods", ok)


def test_criterion_3_six_cycle():
    mat = abelianize(SIX_CYCLE)
    lefs, pers = lefschetz(SIX_CYCLE, 12)
    ok = lefs == [-3 if m % 3 == 0 else 0 for m in range(1, 13)]
    ok = ok and pers[3:] == [0] * 9
    s = spectrum(mat)
    ok = ok and all(abs(abs(z) - 1) <= 1e-8 for z in s.values)
    ok = ok and s.entropy == 0.0
    ok = ok and period_set(census(SIX_CYCLE, 12)) == {3}
    doc, _ = load_fixture("rotor_g4")
    report = run_report(doc, ReportOptions())
    ok = ok and any("l(3) = 2" in w for w in report["warnings"])
    _verdict(3, "rotor map: Lefschetz pattern, period set {3}, "
                "printed-value warning", ok)


def test_criterion_4_delayed_growth():
    mat = abelianize(DELAYED)
    s = spectrum(mat)
    target = 2 ** (1 / 3)
    moduli = sorted(abs(z) for z in s.values)
    ok = abs(moduli[0] - 1) <= 1e-8
    ok = ok and all(abs(v - target) <= 1e-8 for v in moduli[1:])
    ok = ok and abs(s.entropy - math.log(2) / 3) <= 1e-9
    ok = ok and not dominant_test(s)
    cert = certificate(DELAYED, "delaylowgrow(")
    ok = (
        ok
        and cert is not None
        and cert.witness["m"] == 3
        and cert.conclusion.text() == "Per contains 9N"
    )
    _verdict(4, "delayed-growth map: cube-root spectrum, certificate "
                "over multiples of 9", ok)


def test_criterion_5_dominant_map():
    mat = abelianize(DOMINANT)
    powers = [*PowerSequences.of(mat, 3).matrix_powers(3)]
    ok = powers[1] == (
        (1, 2, 2, 3), (0, 0, 1, 1), (0, 0, 0, 1), (0, 1, 1, 1)
    )
    ok = ok and powers[2] == (
        (1, 3, 4, 6), (0, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 2)
    )
    s = spectrum(mat)
    ok = ok and s.residual <= 1e-10
    ok = ok and abs(s.spectral_radius - 1.47) <= 0.01
    ok = ok and m0_bound(s, 4) == 10
    cert = certificate(DOMINANT, "dominant")
    ok = ok and cert is not None and cert.witness == {"m0_analytic": 10}
    periods = period_set(census(DOMINANT, 12))
    ok = ok and periods == set(range(1, 13)) - {2}
    # the least m from which every iterate up to the horizon is a period
    ok = ok and min(m for m in range(1, 14) if set(range(m, 13)) <= periods) == 3
    _verdict(5, "dominant-eigenvalue map: printed powers, thresholds "
                "10 and 3, census", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    rng = random.Random(0xACCE55)
    cases = [(f, build_lift(f)) for f in ORACLE_FIXTURES]
    cases += [random_expanding_action(rng) for _ in range(20)]
    for f, lift in cases:
        seqs = PowerSequences.of(abelianize(f), 8)
        fixes = fix_counts(f, seqs.traces[:6])
        counts = oracle_counts(lift, 8)
        for m in range(1, 7):
            if counts.fixed(m) != fixes[m - 1]:
                ok = False
        # the covers, which the oracle need not count (`oracle_counts`)
        if walk_covers(lift, 8) != seqs.norms:
            ok = False
    _verdict(6, "lift oracle: crossing counts and cover growth match "
                "the word formulas exactly", ok)


def test_criterion_8_trace_growth():
    ok = True
    for f in (DOMINANT, action("a1 a1"), action("a1 a2", "a1 a2")):
        mat = abelianize(f)
        s = spectrum(mat)
        if not dominant_test(s):
            continue
        t = abs(PowerSequences.of(mat, 40).traces[-1])
        if abs(t ** (1 / 40) - s.spectral_radius) > 0.05:
            ok = False
    _verdict(8, "trace of the 40th power recovers the leading "
                "eigenvalue modulus", ok)

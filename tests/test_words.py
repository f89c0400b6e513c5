"""Word algebra: counting functions, substitution, iteration."""

import random

import pytest

from bouquet_dyn import PowerSequences, abelianize, action, fix_counts
from bouquet_dyn.errors import InputError
from bouquet_dyn.words import BRANCH_FREE, Letter, MapAction, Word, orientation

from conftest import (
    BudgetError,
    apply_endo,
    branch_period_under,
    chi,
    concat,
    first_letter,
    gamma,
    inverse,
    iterate_action,
    letter_fix_counts,
    powers,
    random_action,
    random_expanding_action,
)


class TestLetters:
    def test_parse_plain(self):
        assert Letter.parse("a3") == Letter(3, 1)

    def test_parse_inverse(self):
        assert Letter.parse("a12'") == Letter(12, -1)

    def test_roundtrip(self):
        for tok in ("a1", "a7'", "a10"):
            assert Letter.parse(tok).token() == tok

    @pytest.mark.parametrize("bad", ["a0", "b1", "a", "a1''", "a-2", "a01"])
    def test_bad_tokens(self, bad):
        with pytest.raises(InputError):
            Letter.parse(bad)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_index_refused(self, value):
        # True == 1, so only its type tells it from a1
        with pytest.raises(InputError, match="generator index"):
            Letter(value, 1)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_sign_refused(self, value):
        with pytest.raises(InputError, match="letter sign"):
            Letter(1, value)

    def test_float_index_refused(self):
        # it printed as a1.5
        with pytest.raises(InputError, match="generator index"):
            Letter(1.5, 1)

    def test_float_sign_refused(self):
        # 1.0 == 1, so only its type tells it from a plain letter
        with pytest.raises(InputError, match="letter sign"):
            Letter(1, 1.0)

    def test_inverse_involution(self):
        w = Word([Letter(2, -1)])
        assert inverse(w) == Word([Letter(2, 1)])
        assert inverse(inverse(w)) == w


class TestWords:
    def test_mixed_sign_rejected(self):
        with pytest.raises(InputError):
            Word((Letter(1, 1), Letter(2, -1)))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Word(())
        with pytest.raises(InputError):
            Word.parse("   ")

    def test_inverse_reverses_and_flips(self):
        w = Word.parse("a1 a2 a3")
        assert inverse(w).text() == "a3' a2' a1'"


class TestChiGamma:
    def test_chi_repeated_generator(self):
        # chi_j(a_j a_{j+1} a_j) = 2
        assert chi(Word.parse("a2 a3 a2"), 2) == 2

    def test_chi_absent(self):
        assert chi(Word.parse("a2 a3"), 1) == 0

    def test_chi_inverse_pair(self):
        assert chi(Word.parse("a1' a1'"), 1) == -2

    def test_gamma_boundary_only(self):
        # both occurrences of a_2 sit on the boundary
        assert gamma(Word.parse("a2 a3 a2"), 2) == 0

    def test_gamma_single_letter(self):
        assert gamma(Word.parse("a2"), 2) == 0

    def test_gamma_interior(self):
        assert gamma(Word.parse("a2 a1 a1 a3"), 1) == 2

    def test_chi_concat_additive(self, rng):
        for _ in range(50):
            f = random_action(rng)
            u = f.image(1)
            v = f.image(f.n)
            if u.sign != v.sign:
                continue
            uv = concat(u, v)
            for j in range(1, f.n + 1):
                assert chi(uv, j) == chi(u, j) + chi(v, j)

    def test_gamma_chi_gap_bound(self, rng):
        for _ in range(50):
            w = random_action(rng, n_max=4, len_max=6).image(1)
            for j in range(1, 5):
                assert abs(gamma(w, j)) >= abs(chi(w, j)) - 2


class TestApplyEndo:
    def test_direct_substitution(self):
        f = action("a1 a2", "a1")
        assert apply_endo(f, Word.parse("a2")).text() == "a1"

    def test_inverse_reversal_rule(self):
        f = action("a1' a1'")
        assert apply_endo(f, Word.parse("a1'")).text() == "a1 a1"

    def test_concatenation(self):
        f = action("a1 a2", "a1")
        assert apply_endo(f, Word.parse("a1 a2")).text() == "a1 a2 a1"

    def test_homomorphism_law(self, rng):
        for _ in range(30):
            f = random_action(rng)
            u, v = f.image(1), f.image(f.n)
            if u.sign != v.sign:
                continue
            lhs = apply_endo(f, concat(u, v))
            rhs = concat(apply_endo(f, u), apply_endo(f, v))
            assert lhs == rhs

    def test_inverse_law(self, rng):
        for _ in range(30):
            f = random_action(rng)
            w = f.image(1)
            assert apply_endo(f, inverse(w)) == inverse(apply_endo(f, w))

    def test_closure_sign(self, rng):
        for _ in range(30):
            f = random_action(rng)
            w = f.image(1)
            assert apply_endo(f, w).sign == w.sign * f.global_sign


class TestIterateAction:
    def test_first_iterate_is_identity(self):
        f = action("a1 a2", "a1")
        assert iterate_action(f, 1) == f

    def test_reversing_square(self):
        f = action("a1' a1'")
        assert iterate_action(f, 2).image(1).text() == "a1 a1 a1 a1"

    def test_third_iterate(self):
        f = action("a1 a2", "a1")
        assert iterate_action(f, 3).image(1).text() == "a1 a2 a1 a1 a2"

    def test_budget_error_names_smallest_m(self):
        f = action("a1 a1")
        with pytest.raises(BudgetError) as e:
            iterate_action(f, 40, budget=100)
        assert e.value.smallest_m is not None
        assert 2 <= e.value.smallest_m <= 8

    def test_branch_period_of_iterate(self):
        # f^m fixes the branching point as a based vertex exactly when f
        # does; at class k >= 2 it fixes it when k divides m, but not as a
        # based vertex, so the iterate is declared free there and has
        # least period k / gcd(k, m) elsewhere.  Either way fix(1) of the
        # expanded iterate is fix(m) of f
        rng = random.Random(1)
        for _ in range(300):
            base = random_action(rng)
            seqs = PowerSequences.of(abelianize(base), 4)
            for k in (BRANCH_FREE, 1, 2, 3):
                f = _with_branch(base, k)
                fixes = fix_counts(f, seqs.traces)
                for m in (2, 3, 4):
                    g = iterate_action(f, m)
                    if k == 1:
                        assert g.branch_class == 1
                    elif branch_period_under(k, m) in (None, 1):
                        assert g.branch_class is BRANCH_FREE
                    else:
                        assert g.branch_class == branch_period_under(k, m)
                    seqs_g = PowerSequences.of(abelianize(g), 1)
                    first = fix_counts(g, seqs_g.traces)[0]
                    assert first == fixes[m - 1], (f, m)


def _with_branch(f: MapAction, k) -> MapAction:
    return MapAction(f.n, f.images, k)


def _expanded_fix(f: MapAction, m: int) -> int:
    """fix(m) counted on the expanded words of the m-th iterate."""
    g = iterate_action(f, m, budget=20000)
    if f.branch_class != 1 or g.global_sign < 0:
        return abs(1 - sum(chi(g.image(j), j) for j in range(1, f.n + 1)))
    return 1 + abs(sum(gamma(g.image(j), j) for j in range(1, f.n + 1)))


class TestIterateCounts:
    """Iterate counts read off the power sequences and the letter orbits,
    checked against expanded words."""

    def test_chi_of_square(self):
        f = action("a1' a1'")
        assert PowerSequences.of(abelianize(f), 2).head[1] == ((4,),)
        assert chi(iterate_action(f, 2).image(1), 1) == 4

    def test_chi_base_case(self, rng):
        for _ in range(20):
            f = random_action(rng)
            first = PowerSequences.of(abelianize(f), 1).head[0]
            for j in range(1, f.n + 1):
                assert first[j - 1][j - 1] == chi(f.image(j), j)

    def test_gamma_single_interior(self):
        f = action("a1 a1 a1", k=1)
        assert gamma(f.image(1), 1) == 1
        assert fix_counts(f, PowerSequences.of(abelianize(f), 1).traces) == (1 + 1,)

    def test_counts_match_expansion(self, rng):
        # class 1 reads gamma at every preserving iterate; its reversing
        # iterates, and free and class 2 at every iterate, even ones
        # included, read chi off the record's traces
        for _ in range(40):
            base = random_action(rng)
            for k in (BRANCH_FREE, 1, 2):
                f = _with_branch(base, k)
                fixes = fix_counts(f, PowerSequences.of(abelianize(f), 4).traces)
                for m in (1, 2, 3, 4):
                    try:
                        expected = _expanded_fix(f, m)
                    except BudgetError:
                        break
                    assert fixes[m - 1] == expected, (f, m)

    def test_codes_match_letter_orbits(self):
        # census-sized maps (n <= 6, words <= 3 letters, horizon 40) in
        # every branch class: the signed codes against `Letter` orbits
        rng = random.Random(40)
        for _ in range(300):
            base, _ = random_expanding_action(rng, n_max=6, len_max=3)
            mat = abelianize(base)
            seqs, ladder = PowerSequences.of(mat, 40), powers(mat, 40)
            for k in (BRANCH_FREE, 1, 2, 3, 4):
                f = _with_branch(base, k)
                assert fix_counts(f, seqs.traces) == letter_fix_counts(f, ladder), f

    def test_boundary_letters_match_expansion(self, rng):
        for _ in range(40):
            f = random_action(rng)
            for j in range(1, f.n + 1):
                first, last_inv = Letter(j, 1), Letter(j, -1)
                for m in (1, 2, 3):
                    first = first_letter(f, first)
                    last_inv = first_letter(f, last_inv)
                    try:
                        w = iterate_action(f, m, budget=20000).image(j)
                    except BudgetError:
                        break
                    assert first == w[0]
                    assert inverse(Word([last_inv])) == w[-1:]


class TestMapAction:
    def test_global_sign_required(self):
        with pytest.raises(InputError):
            MapAction(2, (Word.parse("a1 a2"), Word.parse("a1'")), BRANCH_FREE)

    def test_index_range_checked(self):
        with pytest.raises(InputError):
            action("a1 a3", "a1")

    def test_branch_class_validation(self):
        with pytest.raises(InputError):
            action("a1 a1", k=0)
        with pytest.raises(InputError):
            action("a1 a1", k=2.5)

    def test_bool_circle_count_refused(self):
        with pytest.raises(InputError, match="circle count must be an int, got True"):
            MapAction(True, (Word.parse("a1 a1"),))

    def test_float_circle_count_refused(self):
        # run_report raised TypeError on it, past the constructor
        with pytest.raises(InputError, match="circle count must be an int, got 1.0"):
            MapAction(1.0, (Word.parse("a1 a1"),))

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_branch_class_refused(self, value):
        # k=True would otherwise report as "period True" on the based route
        with pytest.raises(InputError, match="branch class"):
            action("a1 a1", "a1 a2", k=value)

    def test_orientation(self):
        assert orientation(action("a1 a1")) == "preserving"
        assert orientation(action("a1' a1'")) == "reversing"

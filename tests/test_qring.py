"""Tests for exact Laurent polynomial arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import compositions, convolved_qmultinomial

from demchar import qring
from demchar.qring import (
    ONE,
    ZERO,
    InexactDivisionError,
    LaurentPoly,
    exact_div,
    qmultinomial,
)


def poly_of(*pairs):
    return LaurentPoly.from_terms(pairs)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(lambda d: LaurentPoly.from_terms((e, c) for e, c in d.items()))

nonzero_polys = small_polys.filter(bool)


class TestBasics:
    def test_zero_is_empty(self):
        assert not ZERO
        assert list(ZERO.terms()) == []
        assert ZERO == LaurentPoly.monomial(0, 5)

    def test_monomial_and_coeff(self):
        p = LaurentPoly.monomial(3, -2)
        assert p.coeff(-2) == 3
        assert p.coeff(0) == 0

    def test_half_integer_exponents(self):
        # Exponents are integers: a half-integer is rejected, an integral
        # Fraction is read as its int.
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, Fraction(1, 3))
        p = LaurentPoly.monomial(1, Fraction(2))
        assert p == LaurentPoly.monomial(1, 2)
        assert [type(e) for e, _ in p.terms()] == [int]

    def test_non_integral_exponents_rejected_everywhere(self):
        p = poly_of((0, 1), (1, 2))
        for call in (
            lambda: LaurentPoly.monomial(1, 0.5),
            lambda: poly_of((Fraction(1, 2), 1)),
            lambda: LaurentPoly.from_dense(Fraction(1, 2), (1,)),
            lambda: p.coeff(Fraction(1, 2)),
            lambda: p.shift(Fraction(1, 2)),
            lambda: p.truncate(1.5),
        ):
            with pytest.raises(ValueError):
                call()

    def test_untrusted_terms_reject_non_integers(self):
        with pytest.raises(ValueError):
            LaurentPoly({1: 2.7})
        with pytest.raises(ValueError):
            LaurentPoly({Fraction(1, 2): 1})
        assert LaurentPoly({1: 2.0, 3: 0}) == LaurentPoly.monomial(2, 1)

    def test_from_dense(self):
        assert LaurentPoly.from_dense(-1, (2, 0, 3)) == poly_of((-1, 2), (1, 3))
        assert LaurentPoly.from_dense(1, (1, 0, 0)) == LaurentPoly.monomial(1, 1)
        assert LaurentPoly.from_dense(4, (0, 0)) == ZERO

    def test_cancellation(self):
        p = poly_of((0, 1), (1, 2))
        q = poly_of((0, -1), (1, -2), (2, 5))
        assert (p + q) == LaurentPoly.monomial(5, 2)

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(poly_of((0, 1), (1, -1), (2, 3))) == "1 - q + 3*q^2"
        assert str(poly_of((-1, -1),)) == "-q^-1"

    def test_shift_and_scale(self):
        p = poly_of((0, 1), (1, 1))
        assert p.shift(2) == poly_of((2, 1), (3, 1))

    def test_truncate(self):
        p = poly_of((0, 1), (1, 2), (5, 3))
        assert p.truncate(1) == poly_of((0, 1), (1, 2))

    def test_json_layout(self):
        # The JSON form keeps its doubled exponents.
        p = poly_of((3, 3), (-1, -2), (0, 7))
        assert p.to_json_obj() == {"terms": [[-2, "-2"], [0, "7"], [6, "3"]]}

    def test_hash_consistency(self):
        assert hash(poly_of((1, 2))) == hash(LaurentPoly.monomial(2, 1))


class TestFactorials:
    def test_qmultinomial_examples(self):
        # [3; (2,1)] = 1 + q + q^2
        assert qmultinomial(3, (2, 1)) == poly_of((0, 1), (1, 1), (2, 1))
        # [2; (1,1)] = 1 + q
        assert qmultinomial(2, (1, 1)) == poly_of((0, 1), (1, 1))
        # invalid gamma gives zero
        assert qmultinomial(2, (3, -1)) == ZERO
        assert qmultinomial(2, (1, 2)) == ZERO

    def test_qmultinomial_base_two(self):
        assert qmultinomial(3, (2, 1), base_exp=2) == poly_of((0, 1), (2, 1), (4, 1))

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)
    )
    def test_qmultinomial_at_one_is_multinomial(self, gamma):
        j = sum(gamma)
        value = sum(c for _, c in qmultinomial(j, gamma).terms())
        expected = math.factorial(j)
        for g in gamma:
            expected //= math.factorial(g)
        assert value == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_qmultinomial_permutation_symmetric(self, gamma, rng):
        shuffled = list(gamma)
        rng.shuffle(shuffled)
        assert qmultinomial(sum(gamma), gamma) == qmultinomial(sum(gamma), shuffled)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
    def test_qmultinomial_coeffs_nonnegative_up_to_sign(self, gamma):
        # [j; gamma]_q has nonnegative coefficients after the sign
        # normalization q -> 1/q ... equivalently |[j;gamma]| evaluated at 1
        # equals the multinomial; here we check the alternating-sign-free
        # Gaussian form: reversing (1-q^i) -> (q^i-1) flips (j - sum g) signs,
        # which cancel, so all coefficients are >= 0.
        j = sum(gamma)
        poly = qmultinomial(j, gamma)
        assert all(c >= 0 for _, c in poly.terms())


class TestPackedMultinomial:
    @pytest.mark.parametrize("base_exp", [1, 2])
    def test_equals_dict_convolution(self, base_exp):
        # Every composition of j <= 12 into at most five parts, zero parts
        # anywhere among them.
        for parts in range(1, 6):
            for j in range(13):
                for gamma in compositions(j, parts):
                    want = convolved_qmultinomial(j, gamma, base_exp)
                    assert qmultinomial(j, gamma, base_exp) == want, gamma

    @pytest.mark.parametrize("j,gamma,width", [
        (40, (10, 10, 10, 10), 128),
        (30, (5, 5, 5, 5, 5, 5), 128),
        (70, (14, 14, 14, 14, 14), 192),
    ])
    def test_wide_slots(self, j, gamma, width):
        # The coefficient sum passes 2^64, so the slots are wider than a
        # machine word; the sum is the multinomial coefficient and the
        # coefficients are palindromic about half the top degree.
        assert qring._slot_width(j, len(gamma)) == width
        coeffs = dict(qmultinomial(j, gamma).terms())
        total = math.factorial(j)
        for g in gamma:
            total //= math.factorial(g)
        assert sum(coeffs.values()) == total > 2**64
        top = (j * j - sum(g * g for g in gamma)) // 2
        assert min(coeffs) == 0 and max(coeffs) == top
        assert all(coeffs[top - e] == c for e, c in coeffs.items())
        assert max(coeffs.values()) < 2 ** (width - 1)

    def test_wide_slot_equals_dict_convolution(self):
        gamma = (10, 10, 10, 10)
        assert max(c for _, c in qmultinomial(40, gamma).terms()) > 2**64
        assert qmultinomial(40, gamma) == convolved_qmultinomial(40, gamma)

    def test_rows_are_shared_by_one_width(self):
        # Every count vector of one length and part count reads the same
        # cached rows.
        qring._qbinomial_rows.cache_clear()
        for gamma in compositions(6, 3):
            qmultinomial(6, gamma)
        assert qring._qbinomial_rows.cache_info().currsize == 7  # rows 0..6, one width


class TestDivision:
    def test_exact_div_simple(self):
        # (1-q)(1-q^2)(1-q^3) / (1-q)(1-q^2)
        num = poly_of((0, 1), (1, -1), (2, -1), (4, 1), (5, 1), (6, -1))
        den = poly_of((0, 1), (1, -1), (2, -1), (3, 1))
        assert exact_div(num, den) == ONE - LaurentPoly.monomial(1, 3)

    def test_exact_div_laurent(self):
        p = poly_of((-2, 1), (3, 5))
        q = poly_of((0, 2), (1, 1))
        assert exact_div(p * q, q) == p

    def test_inexact_division_raises_with_remainder(self):
        num = poly_of((0, 1), (1, 1))
        den = poly_of((0, 1), (2, 1))
        with pytest.raises(InexactDivisionError) as err:
            exact_div(num, den)
        assert err.value.remainder

    def test_inexact_integer_coefficient(self):
        with pytest.raises(InexactDivisionError):
            exact_div(poly_of((0, 3)), poly_of((0, 2)))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    @given(small_polys, nonzero_polys)
    @settings(max_examples=200)
    def test_exact_div_inverts_multiplication(self, a, b):
        assert exact_div(a * b, b) == a


class TestRingAxioms:
    @given(small_polys, small_polys, small_polys)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(small_polys, small_polys, small_polys)
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys)
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO

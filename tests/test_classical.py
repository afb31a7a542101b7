"""Bernoulli/Euler numbers, power sums, and the two determinant forms."""

import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from polyeuler.classical import (
    EulerConvention,
    _bernoulli_series,
    bernoulli_det,
    bernoulli_numbers,
    bernoulli_polynomial,
    euler_det,
    euler_numbers,
    poly_eval,
    power_sum,
    power_sum_closed,
)
from polyeuler.exact import Egf, egf_exp_linear, egf_mul

from oracles import egf_from_ord, ord_div, tanh_ordinary

F = Fraction

# classical table, long since settled
BERNOULLI = [
    F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
    F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
]
SECANT = [F(1), F(-1), F(5), F(-61), F(1385), F(-50521), F(2702765)]


class TestBernoulliNumbers:
    def test_table(self):
        assert bernoulli_numbers(12) == BERNOULLI

    def test_odd_vanish(self):
        values = bernoulli_numbers(15)
        assert all(values[n] == 0 for n in range(3, 16, 2))

    def test_order_300_matches_long_division(self):
        """The divisor (e^t-1)/t has denominators up to 301!; the division must
        keep its integers near the size of the result to finish quickly."""
        order = 300
        divisor = [F(1, factorial(m + 1)) for m in range(order + 1)]
        expected = egf_from_ord(ord_div([F(1)] + [F(0)] * order, divisor, order))
        _bernoulli_series.cache_clear()
        start = time.perf_counter()
        got = bernoulli_numbers(order)
        assert time.perf_counter() - start < 5
        assert got == expected

    @pytest.mark.parametrize("order", [-1, -3])
    def test_negative_order_rejected(self, order):
        """Order -1 asks for t at order 0 and -3 for e^t - 1 at order -2:
        both are one ValueError."""
        with pytest.raises(ValueError):
            bernoulli_numbers(order)


class TestBernoulliPolynomial:
    def test_degree_zero(self):
        assert bernoulli_polynomial(0, 4) == [1]

    def test_degree_one(self):
        assert bernoulli_polynomial(1, 4) == [F(-1, 2), F(1)]

    @pytest.mark.parametrize("n", range(11))
    def test_value_at_zero_is_bernoulli(self, n):
        assert poly_eval(bernoulli_polynomial(n, 10), F(0)) == BERNOULLI[n]

    @pytest.mark.parametrize("x", [F(1), F(-1), F(1, 2), F(3, 7)])
    def test_against_generating_function(self, x):
        """Evaluating the coefficient lists must match the EGF of t e^{xt}/(e^t-1)."""
        order = 10
        bern_egf = Egf(tuple(bernoulli_numbers(order)))
        series = egf_mul(bern_egf, egf_exp_linear(x, order))
        for n in range(order + 1):
            assert poly_eval(bernoulli_polynomial(n, order), x) == series.coeffs[n]

    def test_degree_above_order_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_polynomial(5, 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_polynomial(-2, 3)


class TestPowerSums:
    @pytest.mark.parametrize("m,n,value", [(1, 4, 10), (2, 3, 14), (0, 7, 7)])
    def test_direct(self, m, n, value):
        assert power_sum(m, n) == value

    def test_closed_plus_examples(self):
        assert power_sum_closed(1, 4, "plus") == 10
        assert power_sum_closed(0, 7, "plus") == 7

    def test_closed_minus_shifts(self):
        assert power_sum_closed(1, 4, "minus") == 6  # = S_1(3)

    def test_plus_matches_direct_everywhere(self):
        for m in range(9):
            for n in range(21):
                assert power_sum_closed(m, n, "plus") == power_sum(m, n)

    def test_minus_matches_shifted_direct_for_positive_m(self):
        # At m = 0 the shifted reading breaks down: the closed form counts the
        # k = 0 term (0^0 = 1) and yields n, not n-1.  Documented, not hidden.
        for m in range(1, 9):
            for n in range(1, 21):
                assert power_sum_closed(m, n, "minus") == power_sum(m, n - 1)
        assert power_sum_closed(0, 7, "minus") == 7

    @given(m=st.integers(min_value=0, max_value=12), n=st.integers(min_value=0, max_value=30))
    def test_closed_form_matches_direct_sum(self, m, n):
        """"plus" is S_m(n); "minus" is S_m(n - 1) for every m >= 1, and the
        empty sum 0 at n = 0."""
        assert power_sum_closed(m, n, "plus") == power_sum(m, n)
        if m >= 1:
            assert power_sum_closed(m, n, "minus") == power_sum(m, max(n - 1, 0))

    def test_rejects_unknown_sign(self):
        with pytest.raises(ValueError):
            power_sum_closed(1, 1, "both")

    def test_direct_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power_sum(-1, 3)

    @pytest.mark.parametrize("m, sign", [(-1, "minus"), (-2, "plus")])
    def test_closed_rejects_negative_exponent(self, m, sign):
        with pytest.raises(ValueError):
            power_sum_closed(m, 3, sign)

    def test_direct_rejects_negative_upper_limit(self):
        with pytest.raises(ValueError):
            power_sum(2, -3)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_closed_rejects_negative_upper_limit(self, sign):
        """The closed form is a polynomial in n: at n = -3 it read -5, not a
        sum."""
        with pytest.raises(ValueError):
            power_sum_closed(2, -3, sign)

    CALLS = {
        "direct.m": lambda v: power_sum(v, 3),
        "direct.n": lambda v: power_sum(2, v),
        "closed.m": lambda v: power_sum_closed(v, 3, "plus"),
        "closed.n": lambda v: power_sum_closed(2, v, "plus"),
    }

    @pytest.mark.parametrize("value", [2.0, F(2), "2"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_exponent_and_limit_must_be_ints(self, call, value):
        """m and n are read as indices: power_sum(2.0, 3) summed to the float
        14.0, and a ``Fraction`` m or n gave a value too."""
        with pytest.raises(TypeError):
            self.CALLS[call](value)


class TestEulerNumbers:
    @pytest.mark.parametrize("convention", list(EulerConvention))
    def test_negative_order_rejected(self, convention):
        with pytest.raises(ValueError):
            euler_numbers(-1, convention)

    @pytest.mark.parametrize("convention", ["genocchi", "secant", None, 0])
    def test_convention_must_be_a_member(self, convention):
        """A value of a member, or any other object, is not the secant
        convention by default."""
        with pytest.raises(ValueError):
            euler_numbers(4, convention)

    def test_genocchi_values(self):
        got = euler_numbers(5, EulerConvention.GENOCCHI_TYPE)
        assert got == [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2)]

    def test_genocchi_is_one_minus_tanh_half(self):
        order = 12
        tanh = tanh_ordinary(order)
        half = [tanh[n] * F(1, 2) ** n for n in range(order + 1)]
        expected = egf_from_ord([F(1) - half[0]] + [-c for c in half[1:]])
        assert euler_numbers(order, EulerConvention.GENOCCHI_TYPE) == expected

    def test_secant_values(self):
        got = euler_numbers(12, EulerConvention.SECANT_TYPE)
        assert got[::2] == SECANT
        assert all(v == 0 for v in got[1::2])

    def test_cosh_relation_is_misprinted(self):
        # the printed relation would need cosh t itself to generate these
        # numbers; it does not (its EGF coefficients are 1, 0, 1, 0, ...)
        secant = euler_numbers(4, EulerConvention.SECANT_TYPE)
        assert secant[2] == -1 != 1


class TestDeterminantForms:
    def test_bernoulli_first_values(self):
        assert bernoulli_det(1) == F(-1, 2)
        assert bernoulli_det(2) == F(1, 6)
        assert bernoulli_det(4) == F(-1, 30)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bernoulli_matches_series(self, n):
        assert bernoulli_det(n) == BERNOULLI[n]

    def test_euler_first_values(self):
        assert euler_det(1) == F(-1)
        assert euler_det(2) == F(5)
        assert euler_det(3) == F(-61)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_euler_matches_series(self, n):
        assert euler_det(n) == SECANT[n]

    @pytest.mark.parametrize("form", [bernoulli_det, euler_det])
    def test_values_are_fractions(self, form):
        assert all(type(form(n)) is Fraction for n in range(1, 5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bernoulli_det(0)
        with pytest.raises(ValueError):
            euler_det(0)

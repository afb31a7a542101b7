"""Poly-Bernoulli/Euler sequences and the lonesum enumeration oracle."""

from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, strategies as st

from polyeuler import exact, polyfamily
from polyeuler.classical import bernoulli_numbers, bernoulli_polynomial, poly_eval
from polyeuler.polylog import li_of_inner
from polyeuler.exact import (
    Egf,
    _div_exp_sum,
    _integer_terms,
    egf_add,
    egf_exp_linear,
    egf_exp_sum,
    egf_mul,
    egf_scale,
)
from polyeuler.polyfamily import (
    TooLarge,
    _euler_terms,
    _one_minus_exp,
    _plain_euler,
    lonesum_count,
    poly_bernoulli,
    poly_euler,
    poly_euler_sasaki,
)

import oracles

F = Fraction

ORACLE_XS = [F(0), F(1, 2), F(-7, 3)]


class TestPolyBernoulli:
    def test_k1_is_plus_convention_bernoulli(self):
        """Li_1(1-e^{-t})/(1-e^{-t}) = t e^t/(e^t-1), the B_1 = +1/2 numbers."""
        got = poly_bernoulli(1, 0, 10)
        plus = bernoulli_numbers(10)
        plus[1] = F(1, 2)
        assert got == plus

    def test_k2_first_values(self):
        got = poly_bernoulli(2, 0, 4)
        assert got[0] == 1
        assert got[1] == F(1, 4)

    def test_negative_one_gives_powers_of_two(self):
        assert poly_bernoulli(-1, 0, 8) == [F(2) ** n for n in range(9)]

    @pytest.mark.parametrize("n", range(7))
    def test_bridge_to_bernoulli_polynomials(self, n):
        """(-1)^n B_n^{(1)}(-x) = B_n(x), checked pointwise past the degree."""
        xs = [F(j, 2) for j in range(-n - 1, n + 2)] + [F(5)]
        for x in xs:
            left = (-1) ** n * poly_bernoulli(1, -x, n)[n]
            assert left == poly_eval(bernoulli_polynomial(n, n), x)

    @pytest.mark.parametrize("x", ORACLE_XS)
    @pytest.mark.parametrize("k", range(-2, 4))
    def test_matches_oracle(self, k, x):
        assert poly_bernoulli(k, x, 8) == oracles.poly_bernoulli_egf(k, x, 8)

    def test_negative_indices_match_kaneko_closed_formula(self):
        """All 289 cells n, k <= 16, the CLI's index limit, against Kaneko's
        B_n^{(-k)} = sum_j (j!)^2 S(n+1, j+1) S(k+1, j+1)."""
        table = oracles.poly_bernoulli_negative(16)
        for k in range(17):
            assert poly_bernoulli(-k, 0, 16) == [row[k] for row in table]

    def test_negative_index_duality(self):
        """B_n^{(-k)} = B_k^{(-n)} on the package's own values."""
        rows = [poly_bernoulli(-k, 0, 16) for k in range(17)]
        assert rows == [list(column) for column in zip(*rows)]

    def test_kaneko_with_one_factorial_disagrees(self):
        """Negative control: with j! in place of (j!)^2 the formula still
        holds where min(n, k) <= 1, which leaves 81 of the 121 cells at
        n, k <= 10 wrong."""
        slip = oracles.poly_bernoulli_negative(10, factorial_power=1)
        wrong = {(n, k) for k in range(11) for n, v in enumerate(poly_bernoulli(-k, 0, 10)) if v != slip[n][k]}
        assert wrong == {(n, k) for n in range(2, 11) for k in range(2, 11)}

    @pytest.mark.parametrize("x", [F(-9, 7), F(0)])
    def test_e_xt_is_multiplied_in_by_the_taylor_shift(self, x, monkeypatch):
        """The shape's one egf_mul call hands e^{xt} to ``exact._times_exp``
        at x != 0, and at x = 0 returns the quotient, its second factor."""
        calls, inside = [], []
        mul, shift = polyfamily.egf_mul, exact._times_exp

        def mul_spy(f, g):
            inside.append(True)
            product = mul(f, g)
            inside.pop()
            calls.append(("egf_mul", product is g))
            return product

        def shift_spy(a, d, value):
            calls.append(("_times_exp", bool(inside), value))
            return shift(a, d, value)

        monkeypatch.setattr(polyfamily, "egf_mul", mul_spy)
        monkeypatch.setattr(exact, "_times_exp", shift_spy)
        assert poly_bernoulli(2, x, 12) == oracles.poly_bernoulli_egf(2, x, 12)
        through_shift = [("_times_exp", True, x.as_integer_ratio()), ("egf_mul", False)]
        assert calls == (through_shift if x else [("egf_mul", True)])


class TestPolyEuler:
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_constant_term_vanishes(self, k):
        assert poly_euler(k, 0, 4)[0] == 0

    def test_k1_values(self):
        got = poly_euler(1, 0, 2)
        assert got == [F(0), F(1), F(-1)]

    def test_k1_at_one(self):
        assert poly_euler(1, 1, 1)[1] == 1

    @pytest.mark.parametrize("x", ORACLE_XS)
    @pytest.mark.parametrize("k", range(-2, 4))
    def test_matches_oracle(self, k, x):
        assert poly_euler(k, x, 8) == oracles.multi_poly_euler_egf((k,), x, 8)


class TestPolyEulerNegativeIndices:
    """E_n^{(-k)} by Li_{-k}'s Stirling form, a route that shares no code
    with the package's nested sum and composition."""

    def test_negative_indices_match_the_stirling_formula(self):
        """All 289 cells n, k <= 16, the CLI's index limit."""
        table = oracles.poly_euler_negative(16)
        for k in range(17):
            assert poly_euler(-k, 0, 16) == [row[k] for row in table]

    def test_formula_with_unshifted_stirling_numbers_disagrees(self):
        """Negative control: with S(k, j) in place of S(k+1, j+1), 248 of the
        272 cells with 1 <= k <= 16 differ."""
        slip = oracles.poly_euler_negative(16, stirling_shift=0)
        rows = [poly_euler(-k, 0, 16) for k in range(17)]
        assert sum(rows[k][n] != slip[n][k] for n in range(17) for k in range(1, 17)) == 248

    def test_table_is_not_symmetric(self):
        """The symmetry control: unlike B_n^{(-k)}, E_n^{(-k)} has no duality,
        and 98 of the 121 cells at n, k <= 10 differ from the transpose."""
        rows = [poly_euler(-k, 0, 10) for k in range(11)]
        assert sum(rows[k][n] != rows[n][k] for n in range(11) for k in range(11)) == 98


class TestDef1ScaledPolyEuler:
    """What holds in place of the def1-sasaki-bridge discrepancy: 4^n
    E_n^{(k)}(1/2) is coefficient n of Li_k(1-e^{-4t})/cosh 2t, which is not
    the 4t-cosh-t series, so no constant relates the two."""

    KS = (-3, -1, 1, 2, 3)

    @staticmethod
    def scaled(k):
        return [4**n * v for n, v in enumerate(poly_euler(k, F(1, 2), 12))]

    def test_scaled_values_are_over_cosh_2t(self):
        """65 cells, against the oracles' ordinary series."""
        cosh_2t = [F(2**n, factorial(n)) if n % 2 == 0 else F(0) for n in range(13)]
        for k in self.KS:
            li = oracles.ord_compose(oracles.multi_li_ordinary((k,), 12), oracles.one_minus_exp(-4, 12), 12)
            assert self.scaled(k) == oracles.egf_from_ord(oracles.ord_div(li, cosh_2t, 12))

    def test_sasaki_numbers_differ_everywhere(self):
        """Negative control, the printed bridge: all 65 cells differ from the
        4t-cosh-t numbers."""
        pairs = [(v, s) for k in self.KS for v, s in zip(self.scaled(k), poly_euler_sasaki(k, 12))]
        assert len(pairs) == 65
        assert all(v != s for v, s in pairs)


class TestPolyEulerSasaki:
    @pytest.mark.parametrize("k", range(-2, 4))
    def test_leading_value_is_one(self, k):
        assert poly_euler_sasaki(k, 2)[0] == 1

    def test_k1_is_secant_series(self):
        got = poly_euler_sasaki(1, 8)
        assert got == [F(1), F(0), F(-1), F(0), F(5), F(0), F(-61), F(0), F(1385)]

    def test_k1_odd_indices_vanish(self):
        assert poly_euler_sasaki(1, 5)[1] == 0
        assert poly_euler_sasaki(1, 5)[3] == 0

    @pytest.mark.parametrize("k", range(-2, 4))
    def test_matches_oracle(self, k):
        """Against ord_compose with 1-e^{-4t}, which shares no code with the
        package's composition; orders 0 and 1 are the edge of the
        t-cancellation."""
        for order in (0, 1, 12):
            assert poly_euler_sasaki(k, order) == oracles.poly_euler_sasaki_egf(k, order)


class TestLonesum:
    @pytest.mark.parametrize("n,k,count", [(1, 1, 2), (2, 2, 14), (1, 3, 8), (3, 1, 8)])
    def test_small_counts(self, n, k, count):
        assert lonesum_count(n, k) == count

    def test_symmetry(self):
        for n in range(1, 4):
            for k in range(1, 4):
                assert lonesum_count(n, k) == lonesum_count(k, n)

    @pytest.mark.parametrize("n", range(1, 4))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_matches_negative_index_poly_bernoulli(self, n, k):
        assert lonesum_count(n, k) == poly_bernoulli(-k, 0, n)[n]

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 13) for k in range(1, 13) if n * k <= 12]
    )
    def test_matches_bucket_oracle(self, n, k):
        assert lonesum_count(n, k) == oracles.lonesum_count(n, k)

    def test_four_by_five(self):
        assert lonesum_count(4, 5) == lonesum_count(5, 4) == 41506

    def test_guard(self):
        with pytest.raises(TooLarge):
            lonesum_count(5, 5)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            lonesum_count(0, 3)


def _power(base, r):
    """base^r as r products from the constant 1, so base^0 = 1."""
    power = Egf.constant(1, base.order)
    for _ in range(r):
        power = egf_mul(power, base)
    return power


class TestBinomialDenominators:
    """Both family denominators are binomial sums of exponentials, the Euler
    shape's built by egf_exp_sum and the Bernoulli shape's by
    polyfamily._one_minus_exp; each must equal the r-th power of its base,
    one product per factor."""

    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    depths = st.integers(min_value=0, max_value=8)
    orders = st.integers(min_value=0, max_value=12)

    @given(alpha=rationals, beta=rationals, r=depths, order=orders)
    def test_euler_shape_equals_the_power_of_its_base(self, alpha, beta, r, order):
        base = egf_add(egf_exp_linear(-alpha, order), egf_exp_linear(beta, order))
        weights, tops, den = _euler_terms(alpha.as_integer_ratio(), beta.as_integer_ratio(), r)
        terms = [(weight, F(top, den)) for weight, top in zip(weights, tops)]
        assert egf_exp_sum(terms, order) == _power(base, r)

    pairs = st.fractions(max_denominator=10**6).map(Fraction.as_integer_ratio)

    @given(alpha=pairs, beta=pairs, r=depths)
    def test_euler_terms_are_the_binomial_rates(self, alpha, beta, r):
        """Weight i is C(r, i) and rate i, formed over integers, is
        i beta - (r-i) alpha in Fraction arithmetic; the rates share one
        positive denominator that no factor of all the tops divides."""
        weights, tops, den = _euler_terms(alpha, beta, r)
        assert weights == tuple(comb(r, i) for i in range(r + 1))
        assert [F(top, den) for top in tops] == [
            i * F(*beta) - (r - i) * F(*alpha) for i in range(r + 1)
        ]
        assert den > 0 and gcd(den, *tops) == 1

    @given(alpha=pairs, beta=pairs, r=st.integers(min_value=1, max_value=8))
    def test_euler_terms_are_the_integer_terms_of_the_rates(self, alpha, beta, r):
        """The integers equal what ``exact._integer_terms`` makes of the
        Fraction rates, so ``classical.euler_numbers``, which passes its
        rates as ints, and the Euler shape key one division table alike."""
        rates = [(comb(r, i), i * F(*beta) - (r - i) * F(*alpha)) for i in range(r + 1)]
        assert _euler_terms(alpha, beta, r) == _integer_terms(rates)

    @given(r=depths, order=orders)
    def test_bernoulli_shape_equals_the_power_of_its_base(self, r, order):
        base = egf_add(Egf.constant(1, order), egf_scale(egf_exp_linear(-1, order), -1))
        assert _one_minus_exp(order, r) == _power(base, r)


@given(
    ks=st.lists(st.integers(min_value=-3, max_value=4), min_size=1, max_size=5).map(tuple),
    order=st.integers(min_value=0, max_value=24),
)
def test_plain_euler_composed_equals_the_division(ks, order):
    """G(1 - e^{-t}) with G(z) = 2 Li_ks(z) (1-z)^r / (2-z)^r is the quotient
    2 Li_ks(1 - e^{-t}) / (1 + e^t)^r that every other (alpha, beta) still
    forms by division, as the same reduced series."""
    nums, den = li_of_inner(ks, _one_minus_exp(order), order).numerators()
    divided = _div_exp_sum([2 * v for v in nums], den, *_euler_terms((0, 1), (1, 1), len(ks)))
    assert _plain_euler(ks, order).numerators() == divided.numerators()

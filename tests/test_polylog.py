"""Polylogarithm series tests against hand sums and closed-form oracles."""

from fractions import Fraction
from itertools import product

import pytest

from polyeuler import exact, polyfamily
from polyeuler.exact import Egf, NonNilpotentInner, egf_add, egf_exp_linear, egf_mul, egf_scale
from polyeuler.multifamily import (
    LogParams,
    multi_poly_bernoulli,
    multi_poly_euler,
    thm3_explicit,
    thm4_explicit,
)
from polyeuler.polyfamily import poly_bernoulli, poly_euler, poly_euler_sasaki
from polyeuler.polylog import li_of_inner, multi_li_series, parse_kvector

from oracles import ord_mul, ord_scale

F = Fraction


def one_minus_exp(value, order):
    return egf_add(Egf.constant(1, order), egf_scale(egf_exp_linear(value, order), -1))


class TestLiSeries:
    """Li_k(z) is the nested sum at the one-entry index vector (k,)."""

    def test_k1_is_minus_log(self):
        assert multi_li_series((1,), 3).coeffs == (0, 1, F(1, 2), F(1, 3))

    def test_k0_is_geometric(self):
        assert multi_li_series((0,), 3).coeffs == (0, 1, 1, 1)

    def test_k_minus_one(self):
        assert multi_li_series((-1,), 3).coeffs == (0, 1, 2, 3)

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_singleton_vector_matches(self, k):
        """Coefficient m is 1/m^k."""
        assert multi_li_series((k,), 16).coeffs == (0, *(F(1, m) ** k for m in range(1, 17)))


class TestMultiLiSeries:
    def test_depth_two_by_hand(self):
        # sum over m1 < m2 of z^{m2}/(m1 m2), expanded by hand to z^4
        assert multi_li_series((1, 1), 4).coeffs == (0, 0, F(1, 2), F(1, 2), F(11, 24))

    def test_depth_two_is_half_squared_log(self):
        n = 12
        log = [F(0)] + [F(1, m) for m in range(1, n + 1)]
        half_log_sq = ord_scale(ord_mul(log, log, n), F(1, 2), n)
        assert list(multi_li_series((1, 1), n).coeffs) == half_log_sq

    def test_depth_exceeding_order_is_zero(self):
        for ks in [(1, 1, 1), (2, -1, 0)]:
            assert multi_li_series(ks, 2) == Egf.zero(2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lowest_degree_is_depth(self, r):
        """The first nonzero coefficient sits exactly at degree r."""
        for ks in product((-1, 0, 1, 2), repeat=r):
            coeffs = multi_li_series(ks, 8).coeffs
            assert all(c == 0 for c in coeffs[:r])
            assert coeffs[r] != 0

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            multi_li_series((), 4)


class TestIndicesAreInts:
    """An index that is not an int raises TypeError from ``validate_kvector``
    before any arithmetic: it is neither truncated (1.9 to 1, 5/2 to 2) nor
    parsed ("3"), even where a cache already holds the equal int index, and
    the failed call caches nothing."""

    FAMILIES = {
        "multi-li": lambda k: multi_li_series([k], 3),
        "multi-poly-bernoulli": lambda k: multi_poly_bernoulli([k], 4),
        "multi-poly-euler": lambda k: multi_poly_euler([1, k], F(1, 3), 4),
        "poly-bernoulli": lambda k: poly_bernoulli(k, 0, 4),
        "poly-euler": lambda k: poly_euler(k, F(1, 3), 4),
        "poly-euler-sasaki": lambda k: poly_euler_sasaki(k, 4),
        "thm3-explicit": lambda k: thm3_explicit([k], F(1, 3), 3, 2, 2),
        "thm4-explicit": lambda k: thm4_explicit(k, F(1, 3), LogParams(1, 2, 1), 3, "proof"),
    }

    @pytest.mark.parametrize("k", [1.9, 2.0, F(5, 2), F(2), "3"], ids=repr)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_non_int_index_raises_type_error(self, family, k):
        caches = (polyfamily._li_numerator, polyfamily._euler_egf)
        for cache in caches:
            cache.cache_clear()
        with exact.cache_scope():
            self.FAMILIES[family](2)
            sizes = [cache.cache_info().currsize for cache in caches]
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                self.FAMILIES[family](k)
            assert [cache.cache_info().currsize for cache in caches] == sizes

    @pytest.mark.parametrize("ks", [{-1, 3, 2}, frozenset({2, 1}), {2: 0, 1: 0}, {2: 0, 1: 0}.keys()])
    def test_unordered_indices_raise_type_error(self, ks):
        """A set or a mapping has no index order: its iteration order would
        silently pick one, as {-1, 3, 2} once gave the values for (2, 3, -1)."""
        with pytest.raises(TypeError, match="an index vector must be ordered"):
            multi_poly_euler(ks, 0, 5)
        with pytest.raises(TypeError, match="an index vector must be ordered"):
            multi_li_series(ks, 5)


class TestParseKVector:
    def test_basic(self):
        assert parse_kvector("2,1,-1") == (2, 1, -1)

    def test_single(self):
        assert parse_kvector("-3") == (-3,)

    def test_trims_whitespace(self):
        assert parse_kvector(" 2, -1 ") == (2, -1)

    def test_trims_ascii_whitespace_and_tabs(self):
        assert parse_kvector("\t2,\t-1 \n") == (2, -1)

    @pytest.mark.parametrize("bad", ["\u30001, 2", "1,\u20032", "2, -1\u3000", "\xa01"])
    def test_rejects_unicode_space(self, bad):
        """Only ASCII whitespace is trimmed around each index."""
        with pytest.raises(ValueError):
            parse_kvector(bad)

    @pytest.mark.parametrize("bad", ["", "1,,2", "a", "1;2", "+1", "1_0", "١,2", "𝟏", "- 1", "1-"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_kvector(bad)


class TestLiOfInner:
    def test_li1_gives_t(self):
        """Li_1(1-e^{-t}) = -ln(e^{-t}) = t, with every higher coefficient zero."""
        for order in (4, 8, 16):
            got = li_of_inner((1,), one_minus_exp(-1, order), order)
            assert got == Egf.t(order)

    def test_depth_two_gives_half_t_squared(self):
        got = li_of_inner((1, 1), one_minus_exp(-1, 10), 10)
        expected = Egf.zero(10).coeffs[:2] + (F(1),) + Egf.zero(7).coeffs
        assert got.coeffs == expected

    def test_negative_index_closed_form(self):
        # Li_{-1}(z) = z/(1-z)^2, so at z = 1-e^{-t} it equals (1-e^{-t}) e^{2t}
        order = 9
        got = li_of_inner((-1,), one_minus_exp(-1, order), order)
        expected = egf_mul(one_minus_exp(-1, order), egf_exp_linear(2, order))
        assert got == expected

    def test_rejects_unit_inner(self):
        with pytest.raises(NonNilpotentInner):
            li_of_inner((1,), egf_exp_linear(1, 5), 5)

    @pytest.mark.parametrize("ks", [(1,), (2, 1), (-1, 0, 2)])
    def test_prefix_stability(self, ks):
        """Recomputing at a higher order never disturbs earlier coefficients."""
        lo = li_of_inner(ks, one_minus_exp(-1, 6), 6)
        hi = li_of_inner(ks, one_minus_exp(-1, 12), 12)
        assert hi.coeffs[:7] == lo.coeffs

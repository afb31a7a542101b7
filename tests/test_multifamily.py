"""Multi-family sequences, the (a,b,c) deformations, and the identity RHS
evaluators, cross-checked against the independent ordinary-series oracles."""

import ast
import copy
import importlib
import pickle
import pkgutil
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import polyeuler
from polyeuler import audit, classical, exact, multifamily, polyfamily
from polyeuler.multifamily import (
    CappedSum,
    DegenerateParams,
    LogParams,
    _binomial_shift,
    _lift,
    _shift_table,
    _thm2_sum,
    _xab_egf,
    addition_rhs,
    combined_rhs,
    combined_rhs_printed,
    cor1_rhs,
    multi_poly_bernoulli,
    multi_poly_euler,
    multi_poly_euler_ab,
    multi_poly_euler_xab,
    poly_euler_abc,
    thm1_rhs,
    thm2_rhs,
    thm3_explicit,
    thm4_explicit,
)
from polyeuler.classical import (
    EulerConvention,
    bernoulli_numbers,
    bernoulli_polynomial,
    euler_numbers,
)
from polyeuler.polyfamily import poly_bernoulli, poly_euler, poly_euler_sasaki
from polyeuler.polylog import li_of_inner, multi_li_series

import oracles

F = Fraction

PARAM_SAMPLES = [
    (F(1), F(1)),
    (F(0), F(1)),
    (F(2), F(1)),
    (F(-5, 7), F(9, 4)),
    (F(3, 10), F(7, 10)),
]
KVECTORS = [(1,), (2,), (-1,), (1, 1), (2, -1), (1, 1, 2)]


class TestMultiPolyBernoulli:
    def test_depth_one_reduces(self):
        assert multi_poly_bernoulli((1,), 8) == poly_bernoulli(1, 0, 8)

    def test_depth_two_leading_values(self):
        got = multi_poly_bernoulli((1, 1), 3)
        assert got[0] == F(1, 2)
        assert got[1] == F(1, 2)

    @pytest.mark.parametrize("ks", KVECTORS)
    def test_matches_oracle(self, ks):
        assert multi_poly_bernoulli(ks, 7) == oracles.multi_poly_bernoulli_egf(ks, 7)

    @pytest.mark.parametrize("k", range(-2, 3))
    def test_depth_one_tracks_polyfamily(self, k):
        assert multi_poly_bernoulli((k,), 10) == poly_bernoulli(k, 0, 10)


class TestMultiPolyEuler:
    def test_depth_two_values(self):
        got = multi_poly_euler((1, 1), 0, 4)
        assert got[:3] == [F(0), F(0), F(1, 2)]

    @pytest.mark.parametrize("ks", KVECTORS)
    def test_vanishing_below_depth(self, ks):
        got = multi_poly_euler(ks, 0, 8)
        assert all(got[n] == 0 for n in range(len(ks)))

    @pytest.mark.parametrize("k", range(-2, 3))
    def test_depth_one_tracks_polyfamily(self, k):
        assert multi_poly_euler((k,), 0, 10) == poly_euler(k, 0, 10)

    @pytest.mark.parametrize("ks", KVECTORS)
    def test_matches_oracle(self, ks):
        x = F(1, 3)
        assert multi_poly_euler(ks, x, 7) == oracles.multi_poly_euler_egf(ks, x, 7)


class TestValueTypes:
    """The public behaviour of LogParams and CappedSum: immutable values
    with field equality, hashing and a keyword repr."""

    def test_equal_fields_are_equal_and_hash_alike(self):
        assert LogParams(F(1), F(2, 3)) == LogParams(F(1), F(2, 3), None)
        assert hash(LogParams(F(1), F(2, 3))) == hash(LogParams(F(1), F(2, 3)))
        assert LogParams(F(1), F(2), F(3)) != LogParams(F(1), F(2))
        assert CappedSum(F(1, 2), 3) == CappedSum(F(1, 2), 3)
        assert hash(CappedSum(F(1, 2), 3)) == hash(CappedSum(F(1, 2), 3))
        assert CappedSum(F(1, 2), 3) != CappedSum(F(1, 2), 4)
        assert len({LogParams(1, 2), LogParams(F(1), F(2)), LogParams(2, 1)}) == 2

    def test_not_equal_to_a_plain_tuple(self):
        assert LogParams(F(1), F(2)) != (F(1), F(2), None)
        assert CappedSum(F(1), 0) != (F(1), 0)

    @pytest.mark.parametrize(
        "value, field",
        [
            (LogParams(F(1), F(2)), "alpha"),
            (LogParams(F(1), F(2)), "gamma"),
            (CappedSum(F(1), 0), "skipped_terms"),
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, F(5))

    @pytest.mark.parametrize("value", [LogParams(F(1), F(2, 3), F(-1)), CappedSum(F(1, 2), 3)])
    def test_copies_and_pickles_are_equal(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)

    def test_repr(self):
        assert repr(LogParams(1, F(2, 3))) == (
            "LogParams(alpha=Fraction(1, 1), beta=Fraction(2, 3), gamma=None)"
        )
        assert repr(LogParams(1, 2, -3)) == (
            "LogParams(alpha=Fraction(1, 1), beta=Fraction(2, 1), gamma=Fraction(-3, 1))"
        )
        assert repr(CappedSum(F(1, 2), 3)) == "CappedSum(value=Fraction(1, 2), skipped_terms=3)"

    def test_ints_become_fractions(self):
        p = LogParams(1, 2, 3)
        assert [type(v) for v in (p.alpha, p.beta, p.gamma)] == [Fraction] * 3
        assert (p.alpha, p.beta, p.gamma) == (1, 2, 3)

    def test_gamma_defaults_to_none(self):
        assert LogParams(F(1), F(2)).gamma is None

    def test_replace_and_make_read_their_fields_as_new_does(self):
        assert type(LogParams(1, 2)._replace(alpha=1).alpha) is Fraction
        with pytest.raises(TypeError):
            LogParams._make([0.5, 1, None])


_P = LogParams(F(1, 2), F(1, 3), F(2))


class TestRationalsAreIntOrFraction:
    """Every entry that takes a rational reads it through ``exact._ratio``:
    a float is refused, not read as its binary expansion (0.1 would be
    3602879701896397/36028797018963968), and so is text."""

    CALLS = {
        "poly_bernoulli": lambda: poly_bernoulli(1, 0.1, 2),
        "poly_euler": lambda: poly_euler(1, 0.1, 2),
        "multi_poly_euler": lambda: multi_poly_euler((1, 2), 0.5, 2),
        "multi_poly_euler_xab": lambda: multi_poly_euler_xab((1,), 0.5, _P, 2),
        "poly_euler_abc": lambda: poly_euler_abc(1, 0.5, _P, 2),
        "LogParams.alpha": lambda: LogParams(0.5, 1),
        "LogParams.beta": lambda: LogParams(1, 0.5),
        "LogParams.gamma": lambda: LogParams(1, 1, 0.5),
        "LogParams.text": lambda: LogParams("1/2", 1),
        "cor1_rhs": lambda: cor1_rhs((1,), 0.5, _P, 2),
        "combined_rhs": lambda: combined_rhs((1,), 0.5, _P, 2),
        "combined_rhs_printed": lambda: combined_rhs_printed((1,), 0.5, _P, 2),
        "addition_rhs.x": lambda: addition_rhs((1,), 0.5, F(1), _P, 2),
        "addition_rhs.y": lambda: addition_rhs((1,), F(1), 0.5, _P, 2),
        "thm3_explicit": lambda: thm3_explicit((1,), 0.5, 2, 2, 2),
        "thm4_explicit": lambda: thm4_explicit(1, 0.5, _P, 2, "statement"),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_anything_else_raises_type_error(self, entry):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            self.CALLS[entry]()


class TestNegativeOrderIsRefused:
    """Every entry that takes an order refuses a negative one with the one
    message, not with the error of a shift or a series it then cannot form."""

    CALLS = {
        "poly_bernoulli": lambda: poly_bernoulli(1, 0, -1),
        "poly_euler": lambda: poly_euler(1, 0, -1),
        "poly_euler_sasaki": lambda: poly_euler_sasaki(1, -1),
        "multi_poly_bernoulli": lambda: multi_poly_bernoulli((1,), -1),
        "multi_poly_euler": lambda: multi_poly_euler((1, 2), 0, -1),
        "multi_poly_euler_ab": lambda: multi_poly_euler_ab((1,), _P, -1),
        "multi_poly_euler_xab": lambda: multi_poly_euler_xab((1,), 1, _P, -1),
        "poly_euler_abc": lambda: poly_euler_abc(1, 1, _P, -1),
        "thm1_rhs": lambda: thm1_rhs((1,), _P, -1),
        "thm2_rhs": lambda: thm2_rhs((1,), _P, -1),
        "cor1_rhs": lambda: cor1_rhs((1,), 1, _P, -1),
        "combined_rhs": lambda: combined_rhs((1,), 1, _P, -1),
        "combined_rhs_printed": lambda: combined_rhs_printed((1,), 1, _P, -1),
        "addition_rhs": lambda: addition_rhs((1,), 1, 1, _P, -1),
        "multi_li_series": lambda: multi_li_series((1,), -1),
        "li_of_inner": lambda: li_of_inner((1,), exact.Egf.of([0, 1]), -1),
        "Egf.truncate": lambda: exact.Egf.of((1, 2, 3, 4, 5, 6)).truncate(-3),
        "Egf.zero": lambda: exact.Egf.zero(-1),
        "Egf.constant": lambda: exact.Egf.constant(1, -1),
        "egf_exp_linear": lambda: exact.egf_exp_linear(1, -1),
        "egf_exp_sum": lambda: exact.egf_exp_sum(((1, 1),), -1),
        "bernoulli_numbers": lambda: bernoulli_numbers(-1),
        "bernoulli_polynomial": lambda: bernoulli_polynomial(0, -1),
        "euler_numbers": lambda: euler_numbers(-1, EulerConvention.GENOCCHI_TYPE),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_raises_the_order_error(self, entry):
        with pytest.raises(ValueError, match="a series needs order >= 0"):
            self.CALLS[entry]()


_LI, _EULER, _TABLE = polyfamily._li_numerator, polyfamily._euler_egf, exact._division_table
_SHIFT, _BERNOULLI = multifamily._shift_table, classical._bernoulli_series


class TestOrderIsAnInt:
    """An order that is not an int raises TypeError from ``exact._order``
    before any cache is read: 4.0 and ``Fraction(4)`` hash like 4, so they
    must not be served the cached order-4 series, nor "4" be parsed, and the
    failed call caches nothing.  Each entry maps to the caches it reaches:
    the plain shape (alpha, beta) = (0, 1) is composed, so its readers reach
    neither the numerator cache nor a division table."""

    CALLS = {
        "poly_bernoulli": (lambda n: poly_bernoulli(1, 0, n), (_LI,)),
        "poly_euler": (lambda n: poly_euler(1, F(1, 2), n), (_EULER,)),
        "poly_euler_sasaki": (lambda n: poly_euler_sasaki(1, n), (_LI, _TABLE)),
        "multi_poly_bernoulli": (lambda n: multi_poly_bernoulli((1, 2), n), (_LI,)),
        "multi_poly_euler": (lambda n: multi_poly_euler((1, 2), F(1, 3), n), (_EULER,)),
        "multi_poly_euler_ab": (lambda n: multi_poly_euler_ab((1,), _P, n), (_LI, _EULER, _TABLE)),
        "multi_poly_euler_xab": (
            lambda n: multi_poly_euler_xab((1,), 1, _P, n),
            (_LI, _EULER, _TABLE),
        ),
        "poly_euler_abc": (lambda n: poly_euler_abc(1, 1, _P, n), (_LI, _EULER, _TABLE)),
        "thm1_rhs": (lambda n: thm1_rhs((1,), _P, n), (_EULER,)),
        "thm2_rhs": (lambda n: thm2_rhs((1,), _P, n), (_EULER, _SHIFT)),
        "cor1_rhs": (lambda n: cor1_rhs((1,), 1, _P, n), (_LI, _EULER, _TABLE, _SHIFT)),
        "combined_rhs": (lambda n: combined_rhs((1,), 1, _P, n), (_EULER, _SHIFT)),
        "combined_rhs_printed": (lambda n: combined_rhs_printed((1,), 1, _P, n), (_EULER, _SHIFT)),
        "addition_rhs": (
            lambda n: addition_rhs((1,), 1, 1, _P, n),
            (_LI, _EULER, _TABLE, _SHIFT),
        ),
        "bernoulli_numbers": (bernoulli_numbers, (_BERNOULLI,)),
        "bernoulli_polynomial": (lambda n: bernoulli_polynomial(2, n), (_BERNOULLI,)),
        "euler_numbers": (lambda n: euler_numbers(n, EulerConvention.SECANT_TYPE), (_TABLE,)),
    }

    @pytest.mark.parametrize("order", [4.0, F(4), "4"], ids=repr)
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_non_int_order_raises_type_error(self, entry, order):
        call, reached = self.CALLS[entry]
        caches = (_LI, _EULER, _TABLE, _SHIFT, _BERNOULLI)
        for cache in caches:
            cache.cache_clear()
        with exact.cache_scope():
            call(4)
            # The caches it fills are exactly those it reaches.
            assert [cache for cache in caches if cache.cache_info().currsize] == [
                cache for cache in caches if cache in reached
            ]
            sizes = [cache.cache_info().currsize for cache in caches]
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(order)
            assert [cache.cache_info().currsize for cache in caches] == sizes


_CAPS = "caps must be positive and n nonnegative"


class TestCountsReadThroughOrder:
    """The determinants' n, lonesum's dimensions and thm3's n and caps are
    read by ``exact._order`` before any work: a float or ``Fraction`` count
    raises the index TypeError (thm3 at n = 2.0 used to fail deep inside, on
    a list repeated a float number of times), text raises TypeError, and a
    count below its bound raises ValueError with the entry's message."""

    CALLS = {
        "bernoulli_det": (classical.bernoulli_det, 1, "n must be >= 1"),
        "euler_det": (classical.euler_det, 1, "n must be >= 1"),
        "lonesum_count rows": (lambda v: polyfamily.lonesum_count(v, 2), 1, "matrix dimensions"),
        "lonesum_count cols": (lambda v: polyfamily.lonesum_count(2, v), 1, "matrix dimensions"),
        "thm3_explicit n": (lambda v: thm3_explicit((1,), 0, v, 4, 4), 0, _CAPS),
        "thm3_explicit m_cap": (lambda v: thm3_explicit((1,), 0, 2, v, 4), 0, _CAPS),
        "thm3_explicit part_cap": (lambda v: thm3_explicit((1,), 0, 2, 4, v), 1, _CAPS),
    }

    NOT_INT = "cannot be interpreted as an integer"

    @pytest.mark.parametrize(
        "count, match", [(2.0, NOT_INT), (F(2), NOT_INT), ("2", None)], ids=["float", "Fraction", "str"]
    )
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_non_int_count_raises_type_error(self, entry, count, match):
        with pytest.raises(TypeError, match=match):
            self.CALLS[entry][0](count)

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_count_below_its_bound_keeps_its_message(self, entry):
        call, bound, message = self.CALLS[entry]
        with pytest.raises(ValueError, match=message):
            call(bound - 1)


class TestTwoParameterFamily:
    def test_alpha_zero_gives_plain_numbers(self):
        p = LogParams(F(0), F(1))
        assert multi_poly_euler_ab((1, 2), p, 8) == multi_poly_euler((1, 2), 0, 8)

    def test_equal_logs_double_argument(self):
        p = LogParams(F(1), F(1))
        plain_half = multi_poly_euler((1, 1), F(1, 2), 8)
        expected = [plain_half[n] * F(2) ** n for n in range(9)]
        assert multi_poly_euler_ab((1, 1), p, 8) == expected

    def test_opposite_logs_give_zero(self):
        p = LogParams(F(1), F(-1))
        assert multi_poly_euler_ab((1, 1), p, 6) == [F(0)] * 7

    def test_xab_at_zero_is_ab(self):
        p = LogParams(F(2), F(3, 2))
        assert multi_poly_euler_xab((2,), 0, p, 6) == multi_poly_euler_ab((2,), p, 6)

    def test_degenerate_logs_zero_even_with_x(self):
        p = LogParams(F(0), F(0))
        assert multi_poly_euler_xab((1,), 1, p, 5) == [F(0)] * 6

    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_matches_oracle(self, alpha, beta):
        p = LogParams(alpha, beta)
        got = multi_poly_euler_xab((1, 1), F(2, 3), p, 6)
        assert got == oracles.multi_poly_euler_xab_egf((1, 1), F(2, 3), alpha, beta, 6)


class TestListAndSeriesPaths:
    """The list families are the audit's series ``_xab_egf`` turned into
    rationals, whichever of the two paths a caller takes."""

    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    kvectors = st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=3)
    orders = st.integers(min_value=0, max_value=8)

    @given(ks=kvectors, x=rationals, alpha=rationals, beta=rationals, order=orders)
    def test_list_families_read_the_series(self, ks, x, alpha, beta, order):
        p = LogParams(alpha, beta)
        assert multi_poly_euler_xab(ks, x, p, order) == list(
            _xab_egf(ks, x, alpha, beta, order).coeffs
        )
        assert multi_poly_euler_ab(ks, p, order) == list(_xab_egf(ks, 0, alpha, beta, order).coeffs)
        assert multi_poly_euler(ks, x, order) == list(_xab_egf(ks, x, F(0), F(1), order).coeffs)

    def test_series_path_validates_the_indices(self):
        with pytest.raises(ValueError):
            _xab_egf((), F(0), F(0), F(1), 4)


class TestThreeParameterFamily:
    def test_gamma_zero_reduces_to_ab(self):
        p0 = LogParams(F(1), F(2), F(0))
        assert poly_euler_abc(1, F(5), p0, 6) == multi_poly_euler_ab((1,), LogParams(F(1), F(2)), 6)

    def test_x_zero_reduces_to_ab(self):
        p = LogParams(F(1), F(2), F(3))
        assert poly_euler_abc(2, 0, p, 6) == multi_poly_euler_ab((2,), LogParams(F(1), F(2)), 6)

    def test_unit_a_natural_bc_is_plain_family(self):
        p = LogParams(F(0), F(1), F(1))
        for x in (F(0), F(1), F(-1, 2)):
            assert poly_euler_abc(1, x, p, 8) == poly_euler(1, x, 8)

    def test_opposite_logs_give_zero(self):
        p = LogParams(F(1), F(-1), F(1))
        assert poly_euler_abc(1, 1, p, 5) == [F(0)] * 6

    def test_matches_oracle(self):
        p = LogParams(F(3, 10), F(7, 10), F(-2, 5))
        got = poly_euler_abc(-1, F(1, 2), p, 6)
        assert got == oracles.poly_euler_abc_egf(-1, F(1, 2), F(3, 10), F(7, 10), F(-2, 5), 6)


class TestEulerShapeFiniteFormula:
    """The Euler shape at any (w, alpha, beta) is the plain shape at lam t
    times e^{ct}, lam = alpha + beta and c = w + r alpha: one binomial sum
    over Kaneko's finite plain numbers, with no package code, gives the
    rational families exactly at 4-digit parameters."""

    N = 60
    KS = (2, -1, 3)
    X, ALPHA, BETA, GAMMA = F(-9997, 9991), F(1234, 9871), F(-5678, 4321), F(8765, 4321)

    @staticmethod
    def plain(ks, order):
        li = oracles.multi_li_running(ks, order)
        return oracles.multi_poly_euler_finite(li, len(ks), oracles.stirling2_rows(order))

    def xab(self, w):
        lam, r = self.ALPHA + self.BETA, len(self.KS)
        return oracles.euler_shape_finite(self.plain(self.KS, self.N), lam, w + r * self.ALPHA)

    def test_multi_poly_euler_xab(self):
        got = multi_poly_euler_xab(self.KS, self.X, LogParams(self.ALPHA, self.BETA), self.N)
        assert got == self.xab(len(self.KS) * self.X)

    @pytest.mark.parametrize("k", [-16, -2, 0, 3, 16])
    def test_poly_euler_abc(self, k):
        """r = 1 and w = gamma x, so c = gamma x + alpha."""
        got = poly_euler_abc(k, self.X, LogParams(self.ALPHA, self.BETA, self.GAMMA), 40)
        c = self.GAMMA * self.X + self.ALPHA
        assert got == oracles.euler_shape_finite(self.plain((k,), 40), self.ALPHA + self.BETA, c)

    def test_w_equal_to_x_disagrees(self):
        """Negative control: with w = x in place of r x, 57 of the 61 values
        differ; the first three, which vanish, and one more agree."""
        got = multi_poly_euler_xab(self.KS, self.X, LogParams(self.ALPHA, self.BETA), self.N)
        assert sum(a != b for a, b in zip(got, self.xab(self.X))) == 57


class TestIdentityRightSides:
    """The five registered equalities, on a small grid (the audit runs the
    full 25-sample grid; these keep the unit suite fast)."""

    @pytest.mark.parametrize("ks", [(1,), (1, 1), (2, -1)])
    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_thm1(self, ks, alpha, beta):
        p = LogParams(alpha, beta)
        assert multi_poly_euler_ab(ks, p, 8) == list(thm1_rhs(ks, p, 8).coeffs)

    @pytest.mark.parametrize("ks", [(1,), (1, 1), (2, -1)])
    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_thm2(self, ks, alpha, beta):
        p = LogParams(alpha, beta)
        assert multi_poly_euler_ab(ks, p, 8) == list(thm2_rhs(ks, p, 8).coeffs)

    @pytest.mark.parametrize("ks", [(1,), (1, 1)])
    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_cor1(self, ks, alpha, beta):
        p = LogParams(alpha, beta)
        x = F(3, 4)
        assert multi_poly_euler_xab(ks, x, p, 8) == list(cor1_rhs(ks, x, p, 8).coeffs)

    @pytest.mark.parametrize("ks", [(1,), (1, 1)])
    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_combined(self, ks, alpha, beta):
        p = LogParams(alpha, beta)
        x = F(-2, 3)
        assert multi_poly_euler_xab(ks, x, p, 8) == list(combined_rhs(ks, x, p, 8).coeffs)

    @pytest.mark.parametrize("ks", [(1,), (1, 1)])
    @pytest.mark.parametrize("alpha,beta", PARAM_SAMPLES)
    def test_cor2_addition(self, ks, alpha, beta):
        p = LogParams(alpha, beta)
        x, y = F(1, 2), F(-3, 5)
        assert multi_poly_euler_xab(ks, x + y, p, 8) == list(addition_rhs(ks, x, y, p, 8).coeffs)

    def test_addition_is_symmetric(self):
        p = LogParams(F(2), F(1))
        x, y = F(1, 3), F(4, 7)
        assert addition_rhs((1, 1), x, y, p, 8) == addition_rhs((1, 1), y, x, p, 8)

    def test_thm1_rejects_degenerate_logs(self):
        with pytest.raises(DegenerateParams):
            thm1_rhs((1,), LogParams(F(1), F(-1)), 4)

    def test_thm2_worked_example(self):
        # r=2, ks=(1,1), alpha=beta=1, n=2: only the i=2 term survives and
        # contributes (alpha+beta)^2 E_2 = 4 * (1/2) = 2
        assert list(thm2_rhs((1, 1), LogParams(F(1), F(1)), 2).coeffs)[2] == 2

    def test_thm2_alpha_zero_collapses(self):
        p = LogParams(F(0), F(1))
        assert list(thm2_rhs((1, 2), p, 8).coeffs) == multi_poly_euler((1, 2), 0, 8)

    def test_cor1_at_zero_argument(self):
        p = LogParams(F(1), F(2))
        assert list(cor1_rhs((1,), 0, p, 6).coeffs) == multi_poly_euler_ab((1,), p, 6)

    def test_combined_collapses_to_thm2_at_zero_argument(self):
        p = LogParams(F(1), F(1))
        assert combined_rhs((1, 1), 0, p, 8) == thm2_rhs((1, 1), p, 8)

    def test_printed_combined_differs_for_depth_two(self):
        """The r^{n-k} transcription loses a factor r^{k-j}; first visible at
        n = 3 for depth 2 with a nonzero alpha."""
        p = LogParams(F(1), F(1))
        printed = list(combined_rhs_printed((1, 1), 1, p, 4).coeffs)
        true = multi_poly_euler_xab((1, 1), 1, p, 4)
        assert printed[:3] == true[:3]
        assert printed[3] != true[3]

    def test_printed_combined_agrees_for_depth_one(self):
        p = LogParams(F(2), F(1))
        assert combined_rhs_printed((1,), F(1, 2), p, 8) == combined_rhs((1,), F(1, 2), p, 8)

    def test_addition_y_zero(self):
        p = LogParams(F(1), F(2))
        assert list(addition_rhs((1,), F(1, 3), 0, p, 6).coeffs) == multi_poly_euler_xab(
            (1,), F(1, 3), p, 6
        )


class TestThm3Instrument:
    @pytest.mark.parametrize(
        "ks,x,n,m_cap,part_cap",
        [
            ((1,), F(0), 0, 4, 3),
            ((1,), F(1, 2), 2, 5, 4),
            ((1, 1), F(0), 1, 4, 3),
            ((0, -1), F(1), 2, 3, 2),
        ],
    )
    def test_matches_literal_quadruple_sum(self, ks, x, n, m_cap, part_cap):
        """The factored evaluation is a regrouping of the literal sum."""
        got = thm3_explicit(ks, x, n, m_cap, part_cap)
        value, skipped = oracles.thm3_quadruple_sum(ks, x, n, m_cap, part_cap)
        assert got == CappedSum(value, skipped)

    def test_part_cap_changes_value(self):
        """The rearranged expansion is not stable in the number of part slots:
        at n = 1 the value oscillates as slots are added."""
        values = [thm3_explicit((1,), 0, 1, 4, pc).value for pc in (1, 2, 3)]
        assert values[0] != values[1]
        assert values[0] == values[2]  # oscillation, not convergence

    def test_deterministic(self):
        assert thm3_explicit((1, 1), F(1, 2), 2, 8, 8) == thm3_explicit((1, 1), F(1, 2), 2, 8, 8)

    def test_matches_per_term_loop_on_audit_grid(self):
        """Grouping the index tuples by j changes no partial sum or tally."""
        (case,) = [c for c in audit.build_registry(0, audit.DEFAULT_ORDER) if c.id == "thm3-explicit"]
        grid = case.grid
        for ks in grid["kvectors"]:
            for x in grid["x_points"]:
                for n in grid["n_points"]:
                    for m_cap in grid["caps"]:
                        for part_cap in grid["caps"]:
                            got = thm3_explicit(ks, x, n, m_cap, part_cap)
                            value, skipped = oracles.thm3_explicit_sum(ks, x, n, m_cap, part_cap)
                            assert got == CappedSum(value, skipped)

    def test_skip_tally_counts_zero_index_terms(self):
        # ks=(1): only the tuple (0,) is skipped.  It stands for one j (j <= m_r
        # = 0), 2 compositions of 1 over 2 part positions and n + 1 = 2 powers.
        res = thm3_explicit((1,), 0, 1, 3, 2)
        assert res.skipped_terms == 1 * 2 * 2


class TestThm4Instrument:
    P = LogParams(F(1), F(1), F(1))

    def test_variants_disagree_eventually(self):
        s = thm4_explicit(2, F(1, 2), self.P, 3, "statement")
        p = thm4_explicit(2, F(1, 2), self.P, 3, "proof")
        assert s.value == F(1133, 3)
        assert p.value == F(845, 3)

    def test_variants_can_coincide_at_low_degree(self):
        s = thm4_explicit(2, F(1, 2), self.P, 1, "statement")
        p = thm4_explicit(2, F(1, 2), self.P, 1, "proof")
        assert s.value == p.value == 4

    def test_degree_zero_matches_series_for_positive_k(self):
        # every term hits the skipped 1/0^k, so the sum is empty and equals
        # the vanishing constant term of the generating function
        got = thm4_explicit(3, F(1, 2), self.P, 0, "statement")
        assert got.value == 0
        assert got.skipped_terms == 1
        assert poly_euler_abc(3, F(1, 2), self.P, 0)[0] == 0

    def test_k_zero_keeps_j_zero_term(self):
        got = thm4_explicit(0, F(0), LogParams(F(1), F(0), F(0)), 0, "proof")
        # single (0,0,0) term: 2 * (-1)^0 * 0^0-convention * (stuff)^0 = 2
        assert got == CappedSum(F(2), 0)

    def test_negative_k_j_zero_term_vanishes(self):
        got = thm4_explicit(-1, F(0), LogParams(F(1), F(0), F(0)), 0, "proof")
        assert got == CappedSum(F(0), 0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            thm4_explicit(1, F(0), self.P, 1, "fixed")

    @pytest.mark.parametrize("variant", ["statement", "proof"])
    def test_rejects_negative_degree(self, variant):
        with pytest.raises(ValueError):
            thm4_explicit(1, F(1, 2), self.P, -1, variant)


def _package_caches():
    """Every cache (an ``exact._memo``) defined at module level in the package."""
    found = {}
    for info in pkgutil.iter_modules(polyeuler.__path__):
        module = importlib.import_module(f"polyeuler.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


class TestEulerShapeCaches:
    """The Euler shape is cached once per (ks, w, alpha, beta, order), the
    three rationals as integer pairs in lowest terms; the w = 0 entry is the quotient that every other w multiplies by e^{wt}.
    Below the entries at (alpha, beta) != (0, 1) sit the numerator per
    (ks, order) and, in ``exact``, one division row table per denominator,
    r + 1 exponentials, and order; the plain shape is composed and reaches
    neither.
    Every key must tell apart the requests it serves, in any order of
    arrival."""

    # (ks, x, alpha, beta, order), in an order that mixes cold and warm keys.
    REQUESTS = [
        ((1, 2), F(1, 3), F(1, 2), F(2, 3), 6),
        ((1, 2), F(-2, 5), F(1, 2), F(2, 3), 6),  # another x, same quotient
        ((1, 2), F(0), F(1, 2), F(2, 3), 6),  # w = 0: the quotient itself
        ((1, 2), F(1, 3), F(2, 3), F(1, 2), 6),  # alpha and beta swapped
        ((-1,), F(1, 3), F(1, 2), F(2, 3), 6),  # depth 1, same alpha, beta
        ((1, 2, -1), F(1, 3), F(1, 2), F(2, 3), 6),  # depth 3
        ((2, 1), F(1, 3), F(1, 2), F(2, 3), 6),  # same depth, indices swapped
        ((1, 2), F(1, 3), F(1, 2), F(2, 3), 10),  # order 6, then 10
        ((-1,), F(1, 3), F(1, 2), F(2, 3), 10),
        ((-1,), F(1, 3), F(1, 2), F(2, 3), 6),  # order 10, then 6
        ((1, 2), F(1, 3), F(3, 2), F(-3, 2), 6),  # alpha + beta = 0
        ((1, 2), F(1, 3), F(-3, 2), F(3, 2), 6),
    ]

    @pytest.mark.parametrize("requests", [REQUESTS, REQUESTS[::-1]], ids=["forward", "reversed"])
    def test_cold_then_warm_match_oracle(self, requests):
        for cache in _package_caches():
            cache.cache_clear()
        expected = [oracles.multi_poly_euler_xab_egf(*request) for request in requests]
        counts = []
        with exact.cache_scope():
            for _ in ("cold", "warm"):
                for (ks, x, alpha, beta, order), want in zip(requests, expected):
                    assert multi_poly_euler_xab(ks, x, LogParams(alpha, beta), order) == want
                counts.append(polyfamily._euler_egf.cache_info())
        # Every warm request is read from the scope: no new miss, one hit each.
        cold, warm = counts
        assert warm.misses == cold.misses
        assert warm.hits - cold.hits == len(requests)

    def test_argument_zero_shares_the_quotient(self):
        """Every w reads the one w = 0 entry: two cold requests at w != 0 miss
        three times, and the w = 0 request after them misses no more."""
        ks, alpha, beta, order = (1, -1), (2, 3), (-1, 4), 5
        polyfamily._euler_egf.cache_clear()
        with exact.cache_scope():
            polyfamily._euler_egf(ks, (1, 3), alpha, beta, order)
            polyfamily._euler_egf(ks, (-2, 5), alpha, beta, order)
            assert polyfamily._euler_egf.cache_info().misses == 3
            polyfamily._euler_egf(ks, (0, 1), alpha, beta, order)
        assert polyfamily._euler_egf.cache_info().misses == 3

    @pytest.mark.parametrize(
        "first, second",
        [
            (lambda: _xab_egf((1, 2), 0, F(1), F(2), 4), lambda: _xab_egf((1, 2), F(0), 1, 2, 4)),
            (lambda: poly_euler(1, F(2, 4), 4), lambda: poly_euler(1, F(1, 2), 4)),
            (
                lambda: _xab_egf((1,), 0, F(2, 4), F(-3, 6), 4),
                lambda: _xab_egf((1,), 0, F(1, 2), F(-1, 2), 4),
            ),
            # r x with r = 2 and x = 3/2: the pair 6/2 is reduced to 3/1.
            (
                lambda: _xab_egf((1, 2), F(3, 2), F(1, 3), F(2, 3), 4),
                lambda: addition_rhs((1, 2), F(3, 2), F(-1, 4), LogParams(F(1, 3), F(2, 3)), 4),
            ),
            # thm1 reads w = r alpha / (alpha + beta) = 2 (2/3) / (4/3) = 1.
            (
                lambda: _xab_egf((1, -1), F(1, 2), F(0), F(1), 4),
                lambda: thm1_rhs((1, -1), LogParams(F(2, 3), F(2, 3)), 4),
            ),
        ],
        ids=["zero", "x-unreduced", "alpha-beta-unreduced", "r-x-addition", "r-x-thm1"],
    )
    def test_equal_rationals_share_one_entry(self, first, second):
        """The cache keys are integer pairs in lowest terms, so the second
        request, the same rationals in another form or formed by another
        caller, misses no more."""
        polyfamily._euler_egf.cache_clear()
        with exact.cache_scope():
            first()
            misses = polyfamily._euler_egf.cache_info().misses
            assert misses
            second()
        assert polyfamily._euler_egf.cache_info().misses == misses

    CACHES = {"_euler_egf", "_li_numerator", "_shift_table", "_bernoulli_series", "_division_table"}

    def test_every_cache_is_scoped(self):
        """A call made outside a cache scope reaches every cache and keeps
        nothing: the same call made again misses every cache again."""
        caches = _package_caches()
        assert {c.__name__ for c in caches} == self.CACHES
        for cache in caches:
            cache.cache_clear()

        def calls():
            # thm2 reads the composed plain shape; cor1 divides at _P's own
            # (alpha, beta), through the numerator and a division table.
            thm2_rhs((1,), _P, 6)
            cor1_rhs((1,), 1, _P, 6)
            bernoulli_numbers(6)

        calls()
        first = {cache: cache.cache_info() for cache in caches}
        calls()
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize is None, cache.__qualname__
            assert info.misses == 2 * first[cache].misses > 0, cache.__qualname__
            assert info.hits == 2 * first[cache].hits, cache.__qualname__

    def test_every_cache_is_reused(self):
        """A cache that the audit never hits again only holds memory."""
        caches = _package_caches()
        assert {c.__name__ for c in caches} == self.CACHES
        for cache in caches:
            cache.cache_clear()
        audit.run_all(0, 3)
        for cache in caches:
            assert cache.cache_info().hits, cache.__qualname__

    def test_integer_and_fraction_callers_share_a_division_table(self):
        """``classical.euler_numbers`` divides by e^t + e^{-t} with integer
        rates, the Euler shape at alpha = beta = -1, r = 1 with the integers
        of its key's pairs, read from ``Fraction`` parameters: one table
        serves both."""
        exact._division_table.cache_clear()
        polyfamily._euler_egf.cache_clear()
        with exact.cache_scope():
            euler_numbers(8, EulerConvention.SECANT_TYPE)
            multi_poly_euler_ab((1,), LogParams(F(-2, 2), F(-1)), 8)
        info = exact._division_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_order_ten_audit_divides_once_per_divisor(self, monkeypatch):
        """A count guard, not a timing: the seed-0 order-10 audit from cold
        caches makes 990 Euler-shape divisions by 80 distinct divisors, all
        at (alpha, beta) != (0, 1) since the plain shape is composed, 6
        divisions by the secant ``classical.euler_numbers``'s e^t + e^{-t}
        and 3 Sasaki divisions by 2e^t + 2e^{-t}, so the division table
        builds 82 times and is read 917 times more."""
        calls = []
        original = exact._div_exp_sum

        def counted(nums, den, *divisor):
            calls.append(len(nums) - 1)
            return original(nums, den, *divisor)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: counted})
        audit.run_all(0, 10)
        table, euler = exact._division_table.cache_info(), polyfamily._euler_egf.cache_info()
        assert len(calls) == 999
        assert (table.hits, table.misses) == (917, 82)
        assert (euler.hits, euler.misses) == (10704, 3747)

    def test_order_ten_audit_reads_rationals_once(self, monkeypatch):
        """A count guard, not a timing: the seed-0 order-10 audit from cold
        caches reads 36,795 rationals through the checked ``exact._ratio``,
        24 of them the report's values read by ``format_rational``; the
        integer rates of 1 - e^{-t} are read by none.  Below it every
        rational is an integer pair, so a value turned back into a
        ``Fraction`` and read again shows here as a higher count."""
        calls = []
        original = exact._ratio

        def counted(value):
            calls.append(None)
            return original(value)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: counted})
        audit.run_all(0, 10)
        assert len(calls) == 36795


class TestCacheScope:
    """Every cache keeps its entries in the open ``exact.cache_scope`` and
    for as long as it is open; outside any scope nothing is kept."""

    @staticmethod
    def requests(params):
        thm2_rhs((1,), params, 64)
        multi_poly_euler_xab((1,), F(1, 3), params, 64)

    def test_a_loop_outside_a_scope_keeps_nothing(self):
        """Eight distinct order-64 requests outside a scope leave under 0.2 MB
        traced, where size-bounded global caches kept about 2 MB of them;
        inside one scope a repeated request hits."""
        self.requests(LogParams(F(9, 7), F(-1, 5)))
        for cache in _package_caches():
            cache.cache_clear()
        tracemalloc.start()
        try:
            for i in range(8):
                self.requests(LogParams(F(i + 1, 7), F(-2, 2 * i + 3)))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 0.2e6
        with exact.cache_scope():
            for _ in ("cold", "warm"):
                self.requests(_P)
        assert polyfamily._euler_egf.cache_info().hits
        assert _shift_table.cache_info().hits

    def test_an_inner_scope_reuses_the_outer_one(self):
        _shift_table.cache_clear()
        with exact.cache_scope():
            thm2_rhs((1,), _P, 6)
            with exact.cache_scope():
                thm2_rhs((1,), _P, 6)
                assert _shift_table.cache_info()[:2] == (1, 1)
            assert _shift_table.cache_info().currsize == 1
        assert _shift_table.cache_info().currsize == 0

    def test_a_scope_that_raises_drops_its_tables(self):
        class Stop(Exception):
            pass

        _shift_table.cache_clear()
        with pytest.raises(Stop):
            with exact.cache_scope():
                thm2_rhs((1,), _P, 6)
                assert _shift_table.cache_info().currsize == 1
                raise Stop
        assert _shift_table.cache_info().currsize == 0
        with exact.cache_scope():
            thm2_rhs((1,), _P, 6)
        assert _shift_table.cache_info()[:2] == (0, 2)


class TestSeriesPassAsIntegers:
    """Between the private helpers a series passes as integer numerators
    over one denominator: with every cache it reads warm in an open scope, a
    call builds one ``Egf``, its result, and none for the next step to take
    apart."""

    @pytest.mark.parametrize(
        "call, forget",
        [
            # One miss at (alpha, beta) != (0, 1), numerator and table warm.
            (lambda: polyfamily._euler_egf((1, 2), (0, 1), (2, 3), (-1, 4), 8), True),
            # One plain miss, which reads no other cache: the nested sum,
            # its differences and prefix sums and the composition with
            # 1 - e^{-t} build no series before the result.
            (lambda: polyfamily._euler_egf((1, 2), (0, 1), (0, 1), (1, 1), 8), True),
            (lambda: poly_euler_sasaki(2, 8), False),
            (lambda: combined_rhs((1, 2), F(1, 3), _P, 8), False),
            (lambda: thm2_rhs((1, 2), _P, 8), False),
        ],
        ids=["euler-miss", "plain-miss", "sasaki", "combined", "thm2"],
    )
    def test_a_warm_call_builds_one_series(self, call, forget, monkeypatch):
        built = []
        original = exact.Egf.of.__func__

        def counted(cls, *args):
            built.append(args)
            return original(cls, *args)

        for cache in _package_caches():
            cache.cache_clear()
        with exact.cache_scope():
            call()
            if forget:
                polyfamily._euler_egf.cache_clear()
            monkeypatch.setattr(exact.Egf, "of", classmethod(counted))
            call()
        assert len(built) == 1


def _literal_shift(values, den, shift, order):
    """sum_i C(n,i) shift^{n-i} values_i / den, one Fraction per term."""
    return [
        sum((comb(n, i) * shift ** (n - i) * F(values[i], den) for i in range(n + 1)), F(0))
        for n in range(order + 1)
    ]


class TestBinomialShift:
    """``_binomial_shift`` is the printed sum, whatever rows its cached
    table holds."""

    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)

    @given(
        order=st.integers(min_value=0, max_value=12),
        shift=rationals,
        nums=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=13, max_size=13),
        den=st.integers(min_value=1, max_value=10**4),
    )
    @example(order=12, shift=F(0), nums=[1] * 13, den=1)
    @example(order=7, shift=F(-3, 4), nums=list(range(-6, 7)), den=5)
    @example(order=0, shift=F(-2), nums=[7] * 13, den=3)
    def test_matches_the_literal_double_loop(self, order, shift, nums, den):
        values = nums[: order + 1]
        got, got_den = _binomial_shift(values, den, _pair(shift), order)
        assert [F(v, got_den) for v in got] == _literal_shift(values, den, shift, order)

    def test_matches_when_a_fresh_scope_rebuilds_the_tables(self):
        """Many shifts, read once in each of two scopes, so every read in the
        second scope rebuilds its table."""
        shifts = [F(s, 7) for s in range(-40, 41)]
        values, order = [3, -1, 4, 1, -5, 9, 2, -6, 5], 8
        _shift_table.cache_clear()
        for _ in ("cold", "rebuilt"):
            with exact.cache_scope():
                for shift in shifts:
                    nums, den = _binomial_shift(values, 2, _pair(shift), order)
                    assert [F(v, den) for v in nums] == _literal_shift(values, 2, shift, order)
                assert _shift_table.cache_info().currsize == len(shifts)
        info = _shift_table.cache_info()
        assert (info.currsize, info.misses) == (0, 2 * len(shifts))

    def test_thm2_and_cor1_share_a_table(self):
        """At r = 1 and x = ln a, thm2 shifts its lifted numbers by ln a and
        cor1 its two-parameter numbers by x: one table serves both."""
        p = LogParams(F(2, 3), F(-1, 4))
        _shift_table.cache_clear()
        with exact.cache_scope():
            thm2_rhs((1,), p, 8)
            cor1_rhs((1,), p.alpha, p, 8)
        info = _shift_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_order_ten_audit_shift_table_traffic(self):
        """A count guard, not a timing: the seed-0 order-10 audit from cold
        caches builds one shift table per distinct (shift, order) key, 107,
        and reads them 6,718 times more.  A key that held a second rational
        shows here as more misses."""
        for cache in _package_caches():
            cache.cache_clear()
        audit.run_all(0, 10)
        info = _shift_table.cache_info()
        assert (info.hits, info.misses) == (6718, 107)


class TestLift:
    """``_lift`` is lam^n values_n, whatever denominator it leaves."""

    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)

    @given(
        order=st.integers(min_value=0, max_value=12),
        lam=rationals,
        nums=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=13, max_size=13),
        den=st.integers(min_value=1, max_value=10**4),
    )
    @example(order=6, lam=F(0), nums=list(range(1, 14)), den=7)
    @example(order=9, lam=F(-5, 3), nums=list(range(-6, 7)), den=4)
    def test_matches_fraction_powers(self, order, lam, nums, den):
        values = nums[: order + 1]
        lifted, lifted_den = _lift(values, den, _pair(lam), order)
        assert [F(v, lifted_den) for v in lifted] == [
            lam**n * F(v, den) for n, v in enumerate(values)
        ]


class TestThm2Sum:
    """``_thm2_sum`` is the printed sum over ``Fraction``s, at the s = r of
    thm2 and the s = 1 of the as-printed "combined" side."""

    @pytest.mark.parametrize("ks", [(1,), (2, -1), (1, 1, 2)])
    @pytest.mark.parametrize("alpha, beta", [(F(2, 3), F(-1, 4)), (F(-5, 7), F(9, 4)), (F(3), F(-3))])
    @pytest.mark.parametrize("scale", ["one", "r"])
    def test_matches_the_literal_sum(self, ks, alpha, beta, scale):
        order = 7
        s = 1 if scale == "one" else len(ks)
        plain = oracles.multi_poly_euler_egf(ks, 0, order)
        lam = alpha + beta
        literal = [
            sum(
                (comb(n, i) * (s * alpha) ** (n - i) * lam**i * plain[i] for i in range(n + 1)),
                F(0),
            )
            for n in range(order + 1)
        ]
        nums, den = _thm2_sum(ks, s, LogParams(alpha, beta), order)
        assert [F(v, den) for v in nums] == literal


def _wrap_bindings(monkeypatch, wrappers):
    """Put ``wrappers[f]`` in place of every binding of f in every package
    module, so the package's own calls of f go through the wrapper."""
    for info in pkgutil.iter_modules(polyeuler.__path__):
        module = importlib.import_module(f"polyeuler.{info.name}")
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])


SERIES_KERNELS = (
    "egf_mul",
    "egf_div",
    "egf_div_shifted",
    "egf_div_exp_sum",
    "_div_exp_sum",
    "_dilate",
    "egf_times_exp",
    "_times_exp",
    "egf_compose",
    "_compose_one_minus_exp",
)


# The right sides' private helpers, which read no Euler numbers themselves.
HELPERS = ("_binomial_shift", "_lift")


class TestRightSidesCallNoSeriesKernel:
    """A right side adds up the printed terms over the numbers it reads from
    the Euler cache; it never forms a series product, quotient, shift or
    composition itself, which could carry the very law its identity
    asserts.  Kernel calls inside its ``_euler_egf`` reads build the numbers
    it reads and do not count."""

    CALLS = {
        "_binomial_shift": lambda p: _binomial_shift([0, 1, -2, 3], 5, (2, 3), 3),
        "_lift": lambda p: _lift([0, 1, -2, 3], 5, (-5, 7), 3),
        "thm1_rhs": lambda p: thm1_rhs((1, 2), p, 6),
        "thm2_rhs": lambda p: thm2_rhs((1, 2), p, 6),
        "cor1_rhs": lambda p: cor1_rhs((1, 2), F(1, 3), p, 6),
        "addition_rhs": lambda p: addition_rhs((1, 2), F(1, 3), F(-2, 5), p, 6),
        "combined_rhs": lambda p: combined_rhs((1, 2), F(1, 3), p, 6),
        "combined_rhs_printed": lambda p: combined_rhs_printed((1, 2), F(1, 3), p, 6),
    }

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Wrap every module binding of the series kernels and of
        ``_euler_egf``, and clear the caches; yields the kernel calls made
        outside and inside ``_euler_egf`` reads."""
        calls = {"outside": [], "inside": []}
        depth = [0]
        caches = _package_caches()
        for cache in caches:
            cache.cache_clear()

        def kernel_wrapper(name, original):
            def wrapper(*args, **kwargs):
                calls["inside" if depth[0] else "outside"].append(name)
                return original(*args, **kwargs)

            return wrapper

        def euler_wrapper(original):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        wrappers = {
            getattr(exact, name): kernel_wrapper(name, getattr(exact, name))
            for name in SERIES_KERNELS
        }
        wrappers[polyfamily._euler_egf] = euler_wrapper(polyfamily._euler_egf)
        _wrap_bindings(monkeypatch, wrappers)
        yield calls
        for cache in caches:
            cache.cache_clear()

    # The right sides that read only the plain shape, which is composed.
    PLAIN_READERS = ("thm1_rhs", "thm2_rhs", "combined_rhs", "combined_rhs_printed")

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_makes_no_series_kernel_call(self, name, recorded):
        self.CALLS[name](LogParams(F(2, 3), F(-1, 4)))
        assert recorded["outside"] == []
        if name not in HELPERS:
            # The wrappers are live: the cold Euler reads composed the plain
            # shape with 1 - e^{-t}, or divided at the point's own (alpha, beta).
            kernel = "_compose_one_minus_exp" if name in self.PLAIN_READERS else "_div_exp_sum"
            assert kernel in recorded["inside"]


# One request of every polyseq family, each at a nonzero x where it reads one.
EVERY_FAMILY = (
    ["bernoulli", "--n=12"],
    ["euler", "--n=12"],
    ["poly-bernoulli", "--k=2", "--x=1/3", "--n=12"],
    ["poly-euler", "--k=-2", "--x=1/2", "--n=12"],
    ["poly-euler-sasaki", "--k=2", "--n=12"],
    ["multi-poly-bernoulli", "--ks=2,1", "--n=12"],
    ["multi-poly-euler", "--ks=1,2", "--x=1/3", "--alpha=2/3", "--beta=-1/4", "--n=12"],
    ["poly-euler-abc", "--k=2", "--x=1/3", "--alpha=2/3", "--beta=-1/4", "--gamma=3/7", "--n=12"],
    ["lonesum", "--rows=2", "--cols=3"],
)


def test_production_composes_only_with_one_minus_exp(monkeypatch, capsys):
    """Every ``egf_compose`` call of the seed-0 order-4 audit and of one
    request of every polyseq family takes the u' = 1 - u recurrence
    (``exact._compose_one_minus_exp``), the only composition tuned for speed."""
    from polyeuler.cli import main_audit, main_seq

    compose, recurrence = exact.egf_compose, exact._compose_one_minus_exp
    recurrences, composed = [], []

    def recurrence_wrapper(*args):
        recurrences.append(args)
        return recurrence(*args)

    def compose_wrapper(f, g):
        before = len(recurrences)
        result = compose(f, g)
        composed.append((g.order, len(recurrences) > before))
        return result

    _wrap_bindings(monkeypatch, {compose: compose_wrapper, recurrence: recurrence_wrapper})
    assert main_audit(["--order", "4", "--seed", "0"]) == 0
    for argv in EVERY_FAMILY:
        assert main_seq(argv) == 0
    capsys.readouterr()
    assert composed
    general = [order for order, took_recurrence in composed if not took_recurrence]
    assert not general, (
        f"{len(general)} of {len(composed)} egf_compose calls (inner orders {general}) took "
        "the general branch, the sum of the inner series' powers, about 30x slower than "
        "the recurrence at N = 40"
    )


def _pair(value):
    return value.numerator, value.denominator


class TestRightSidesReadOnlyTheirPrintedTerms:
    """Each right side reads the Euler shape only at the (w, alpha, beta) its
    printed formula names, and calls no list family and no other right side:
    its numbers then cannot come from the left side's series or from the law
    its identity asserts.  Reads made inside an ``_euler_egf`` read (the
    w = 0 entry behind a w != 0 one) do not count."""

    # Each call reads ks = (1, 2) at order 6, x = 1/3 and y = -2/5.
    KS, ORDER = (1, 2), 6
    ALPHA, BETA, X = F(2, 3), F(-1, 4), F(1, 3)
    CALLS = {
        name: call
        for name, call in TestRightSidesCallNoSeriesKernel.CALLS.items()
        if name not in HELPERS
    }
    # (w, alpha, beta) of each right side's reads, r = 2: thm1 at
    # w = r alpha/(alpha + beta) on the plain numbers, thm2 and both
    # "combined" sides on the plain numbers at w = 0, cor1 on the point's
    # own (alpha, beta) at w = 0, and cor2 there at w = r x.
    PLAIN = (F(0), F(0), F(1))
    READS = {
        "thm1_rhs": (2 * ALPHA / (ALPHA + BETA), F(0), F(1)),
        "thm2_rhs": PLAIN,
        "cor1_rhs": (F(0), ALPHA, BETA),
        "addition_rhs": (2 * X, ALPHA, BETA),
        "combined_rhs": PLAIN,
        "combined_rhs_printed": PLAIN,
    }
    FORBIDDEN = (
        polyfamily.poly_bernoulli,
        polyfamily.poly_euler,
        polyfamily.poly_euler_sasaki,
        multi_poly_bernoulli,
        multi_poly_euler,
        multi_poly_euler_ab,
        multi_poly_euler_xab,
        poly_euler_abc,
        _xab_egf,
        *(getattr(multifamily, name) for name in CALLS),
    )

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Wrap every module binding of the list families, the left side's
        ``_xab_egf``, the right sides and ``_euler_egf``, and clear the
        caches; yields the forbidden calls and the outermost Euler reads."""
        calls = {"forbidden": [], "reads": []}
        depth = [0]
        for cache in _package_caches():
            cache.cache_clear()

        def forbidden(original):
            def wrapper(*args, **kwargs):
                calls["forbidden"].append(original.__name__)
                return original(*args, **kwargs)

            return wrapper

        def euler_read(original):
            def wrapper(*args):
                if not depth[0]:
                    calls["reads"].append(args)
                depth[0] += 1
                try:
                    return original(*args)
                finally:
                    depth[0] -= 1

            return wrapper

        wrappers = {f: forbidden(f) for f in self.FORBIDDEN}
        wrappers[polyfamily._euler_egf] = euler_read(polyfamily._euler_egf)
        _wrap_bindings(monkeypatch, wrappers)
        yield calls
        for cache in _package_caches():
            cache.cache_clear()

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_calls_no_list_family_or_other_right_side(self, name, recorded):
        self.CALLS[name](LogParams(self.ALPHA, self.BETA))
        assert recorded["forbidden"] == []

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_reads_the_euler_shape_only_where_printed(self, name, recorded):
        self.CALLS[name](LogParams(self.ALPHA, self.BETA))
        w, alpha, beta = self.READS[name]
        expected = (self.KS, _pair(w), _pair(alpha), _pair(beta), self.ORDER)
        assert recorded["reads"]
        assert set(recorded["reads"]) == {expected}


class TestLeftSidesDivideByTheirOwnTerms:
    """A theorem row's left side at (alpha, beta) is the quotient by that
    point's own (e^{-alpha t} + e^{beta t})^r, never a (0, 1) series
    rescaled: that rescaling is the law thm1 asserts."""

    CASES = [
        ("thm1", None),
        ("thm2", None),
        ("cor1", None),
        ("cor2", None),
        ("combined", None),
        ("combined", "as-printed"),
        ("thm4-explicit", "statement"),
        ("thm4-explicit", "proof"),
    ]

    @pytest.fixture
    def divisions(self, monkeypatch):
        """Wrap every module binding of ``exact._div_exp_sum`` and clear the
        caches; yields the integers of each divisor."""
        terms = []
        original = exact._div_exp_sum

        def wrapper(nums, den, *divisor):
            terms.append(divisor)
            return original(nums, den, *divisor)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: wrapper})
        yield terms
        for cache in _package_caches():
            cache.cache_clear()

    @pytest.mark.parametrize("case_id, variant", CASES)
    @pytest.mark.parametrize("alpha, beta", [(F(2, 3), F(-1, 4)), (F(-5, 7), F(9, 4))])
    def test_divides_by_the_points_own_terms(self, case_id, variant, alpha, beta, divisions):
        (case,) = [
            c for c in audit.build_registry(0, 6) if (c.id, c.variant) == (case_id, variant)
        ]
        if case_id == "thm4-explicit":
            point, r = {"k": 2, "alpha": alpha, "beta": beta, "gamma": F(3, 7), "x": F(1, 3)}, 1
        else:
            point, r = {"ks": (1, 2), "alpha": alpha, "beta": beta, "x": F(1, 3), "y": F(-2, 5)}, 2
        audit._TABLE[case_id].expected(case, point)
        pairs = alpha.as_integer_ratio(), beta.as_integer_ratio()
        assert divisions == [polyfamily._euler_terms(*pairs, r)]


class TestPlainShapeIsComposed:
    """The plain shape, exactly (alpha, beta) = (0, 1), is composed as
    G(1 - e^{-t}) and divides nothing; every other (alpha, beta) divides its
    own numerator by its own exponentials.  So thm1 and thm2 compare a
    divided left side with a composed right side: the two sides share no
    division kernel."""

    @pytest.fixture
    def reached(self, monkeypatch):
        """Wrap every module binding of ``exact._div_exp_sum``; yields a
        function that makes one cold call in a scope and returns the
        division tables it built, the numerators it read and the divisions
        it made."""
        divisions = []
        original = exact._div_exp_sum

        def wrapper(nums, den, *divisor):
            divisions.append(divisor)
            return original(nums, den, *divisor)

        _wrap_bindings(monkeypatch, {original: wrapper})

        def run(call):
            for cache in _package_caches():
                cache.cache_clear()
            divisions.clear()
            with exact.cache_scope():
                call()
            return _TABLE.cache_info().misses, _LI.cache_info().misses, len(divisions)

        yield run
        for cache in _package_caches():
            cache.cache_clear()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: multi_poly_euler((1, 2, -1), 0, 10),
            lambda: thm1_rhs((1, 2, -1), LogParams(F(2, 3), F(-1, 4)), 10),
        ],
        ids=["multi_poly_euler", "thm1_rhs"],
    )
    def test_plain_reads_divide_nothing(self, call, reached):
        assert reached(call) == (0, 0, 0)

    def test_other_reads_divide_by_their_own_terms(self, reached):
        call = lambda: _xab_egf((1, 2, -1), F(1, 3), F(2, 3), F(-1, 4), 10)
        assert reached(call) == (1, 1, 1)

    def test_a_faulty_division_fails_thm1_and_thm2(self, monkeypatch):
        """Mutation control: with the last numerator of every division off by
        one, the divided left sides no longer match the composed right
        sides, so thm1 and thm2 both fail at order 4."""
        original = exact._div_exp_sum

        def faulty(*args):
            nums, den = original(*args).numerators()
            return exact.Egf.of([*nums[:-1], nums[-1] + 1], den)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: faulty})
        cases = {(c.id, c.variant): c for c in audit.build_registry(0, 4)}
        for case_id in ("thm1", "thm2"):
            assert audit.run_identity(cases[(case_id, None)]).verdict == audit.FAIL, case_id


def test_oracles_import_only_the_standard_library():
    """The oracles share no code with the package: every import names a
    standard-library module, and nothing is imported by name at run time."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.append(node.module)
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
    assert modules
    assert {name.partition(".")[0] for name in modules} <= sys.stdlib_module_names
    assert "importlib" not in modules

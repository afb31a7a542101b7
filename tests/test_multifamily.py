"""Multi-family sequences, the (a,b,c) deformations, and the identity RHS
evaluators, cross-checked against the independent ordinary-series oracles."""

import ast
import copy
import importlib
import pickle
import pkgutil
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import polyeuler
from polyeuler import audit, exact, multifamily, polyfamily
from polyeuler.multifamily import (
    CappedSum,
    DegenerateParams,
    LogParams,
    _binomial_shift,
    _shift_table,
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
from polyeuler.classical import EulerConvention, euler_numbers
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
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_raises_the_order_error(self, entry):
        with pytest.raises(ValueError, match="a series needs order >= 0"):
            self.CALLS[entry]()


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
    """Every functools cache defined at module level in the package."""
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
    Below it sit the numerator per (ks, order) and, in ``exact``, one
    division row table per denominator, r + 1 exponentials, and order.
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
        for _ in ("cold", "warm"):
            for (ks, x, alpha, beta, order), want in zip(requests, expected):
                assert multi_poly_euler_xab(ks, x, LogParams(alpha, beta), order) == want

    def test_argument_zero_shares_the_quotient(self):
        """Every w reads the one w = 0 entry: two cold requests at w != 0 miss
        three times, and the w = 0 request after them misses no more."""
        ks, alpha, beta, order = (1, -1), (2, 3), (-1, 4), 5
        polyfamily._euler_egf.cache_clear()
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
        first()
        misses = polyfamily._euler_egf.cache_info().misses
        assert misses
        second()
        assert polyfamily._euler_egf.cache_info().misses == misses

    CACHES = {"_euler_egf", "_li_numerator", "_shift_table", "_bernoulli_series", "_division_table"}

    def test_every_cache_is_bounded(self):
        caches = _package_caches()
        assert {c.__name__ for c in caches} == self.CACHES
        for cache in caches:
            assert cache.cache_info().maxsize is not None, cache.__qualname__

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
        """``classical.euler_numbers`` divides by 1 + e^t with integer rates,
        the Euler shape at alpha = 0, beta = 1, r = 1 with ``Fraction``
        rates: one table serves both."""
        exact._division_table.cache_clear()
        polyfamily._euler_egf.cache_clear()
        euler_numbers(8, EulerConvention.GENOCCHI_TYPE)
        poly_euler(1, 0, 8)
        info = exact._division_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_order_ten_audit_divides_once_per_divisor(self, monkeypatch):
        """A count guard, not a timing: the seed-0 order-10 audit from cold
        caches makes 1,041 Euler-shape divisions by 87 distinct divisors and
        3 Sasaki divisions by 2e^t + 2e^{-t}, so the division table builds
        88 times and is read 956 times more."""
        calls = []
        original = exact.egf_div_exp_sum

        def counted(f, terms):
            calls.append(f.order)
            return original(f, terms)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: counted})
        audit.run_all(0, 10)
        table, euler = exact._division_table.cache_info(), polyfamily._euler_egf.cache_info()
        assert len(calls) == 1044
        assert (table.hits, table.misses) == (956, 88)
        assert (euler.hits, euler.misses) == (10704, 3747)

    def test_order_ten_audit_reads_rationals_once(self, monkeypatch):
        """A count guard, not a timing: the seed-0 order-10 audit from cold
        caches reads 39,655 rationals through the checked ``exact._ratio``.
        Below it every rational is an integer pair, so a value turned back
        into a ``Fraction`` and read again shows here as a higher count."""
        calls = []
        original = exact._ratio

        def counted(value):
            calls.append(None)
            return original(value)

        for cache in _package_caches():
            cache.cache_clear()
        _wrap_bindings(monkeypatch, {original: counted})
        audit.run_all(0, 10)
        assert len(calls) == 39655


def _literal_shift(values, den, shift, scale, order):
    """sum_i C(n,i) shift^{n-i} scale^i values_i / den, one Fraction per term."""
    return [
        sum(
            (comb(n, i) * shift ** (n - i) * scale**i * F(values[i], den) for i in range(n + 1)),
            F(0),
        )
        for n in range(order + 1)
    ]


class TestBinomialShift:
    """``_binomial_shift`` is the printed sum, whatever rows its cached
    table holds."""

    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)

    @given(
        order=st.integers(min_value=0, max_value=12),
        shift=rationals,
        scale=rationals,
        nums=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=13, max_size=13),
        den=st.integers(min_value=1, max_value=10**4),
    )
    @example(order=12, shift=F(0), scale=F(1), nums=[1] * 13, den=1)
    @example(order=7, shift=F(-3, 4), scale=F(1), nums=list(range(-6, 7)), den=5)
    @example(order=0, shift=F(-2), scale=F(5, 3), nums=[7] * 13, den=3)
    def test_matches_the_literal_double_loop(self, order, shift, scale, nums, den):
        values = nums[: order + 1]
        got = _binomial_shift(
            (values, den),
            (shift.numerator, shift.denominator),
            (scale.numerator, scale.denominator),
            order,
        )
        assert list(got.coeffs) == _literal_shift(values, den, shift, scale, order)

    def test_matches_after_the_table_cache_evicts(self):
        """More (shift, scale) pairs than the 64 tables the cache keeps, read
        twice in the same order, so every second read rebuilds its table."""
        pairs = [(F(s, 7), scale) for s in range(-20, 21) for scale in (F(1), F(-2, 3))]
        assert len(pairs) > _shift_table.cache_info().maxsize
        values, order = [3, -1, 4, 1, -5, 9, 2, -6, 5], 8
        _shift_table.cache_clear()
        for _ in ("cold", "evicted"):
            for shift, scale in pairs:
                got = _binomial_shift(
                    (values, 2),
                    (shift.numerator, shift.denominator),
                    (scale.numerator, scale.denominator),
                    order,
                )
                assert list(got.coeffs) == _literal_shift(values, 2, shift, scale, order)
        info = _shift_table.cache_info()
        assert info.currsize == info.maxsize
        assert info.misses == 2 * len(pairs)


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
    "egf_times_exp",
    "_times_exp",
    "egf_compose",
)


class TestRightSidesCallNoSeriesKernel:
    """A right side adds up the printed terms over the numbers it reads from
    the Euler cache; it never forms a series product, quotient, shift or
    composition itself, which could carry the very law its identity
    asserts.  Kernel calls inside its ``_euler_egf`` reads build the numbers
    it reads and do not count."""

    CALLS = {
        "_binomial_shift": lambda p: _binomial_shift(([0, 1, -2, 3], 5), (2, 3), (5, 7), 3),
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

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_makes_no_series_kernel_call(self, name, recorded):
        self.CALLS[name](LogParams(F(2, 3), F(-1, 4)))
        assert recorded["outside"] == []
        if name != "_binomial_shift":
            # The wrappers are live: the cold Euler reads divided.
            assert "egf_div_exp_sum" in recorded["inside"]


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
        if name != "_binomial_shift"
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
        """Wrap every module binding of ``egf_div_exp_sum`` and clear the
        caches; yields the terms of each division."""
        terms = []
        original = exact.egf_div_exp_sum

        def wrapper(f, divisor):
            divisor = tuple(divisor)
            terms.append(divisor)
            return original(f, divisor)

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

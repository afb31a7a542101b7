"""EGF kernels and the theorem right-hand sides against the naive oracles.

The oracles multiply and divide ordinary series over ``Fraction`` term by
term, compose through explicit powers, enumerate every index tuple of the
nested sum and evaluate the printed right-hand sums literally, so they share
no code path with the integer kernels, the u' = 1 - u recurrence or the
running-sum recursion.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyeuler import multifamily
from polyeuler.exact import (
    Egf,
    _dilate,
    egf_add,
    egf_compose,
    egf_div,
    egf_div_shifted,
    egf_mul,
    egf_scale,
    integer_numerators,
)
from polyeuler.multifamily import LogParams
from polyeuler.polyfamily import _li_numerator
from polyeuler.polylog import li_of_inner, multi_li_series

import oracles
from oracles import (
    egf_from_ord,
    multi_li_ordinary,
    one_minus_exp,
    ord_add,
    ord_compose,
    ord_div,
    ord_mul,
    ord_pow,
    ord_scale,
)

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = rationals.filter(bool)
orders = st.integers(min_value=0, max_value=20)
kvectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).map(tuple)


wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
# Divisor constants: units, powers of two as in (a^{-t} + b^t)^r, and others.
divisor_constants = st.sampled_from([F(1), F(-1), F(2), F(4), F(8), F(-7, 3)]) | nonzero_rationals


def padded(values, order):
    return list(values[: order + 1]) + [F(0)] * (order + 1 - len(values))


def compose_matches_oracle(outer, inner, order):
    got = egf_compose(Egf.from_ordinary(outer), Egf.from_ordinary(inner))
    assert list(got.ordinary()) == ord_compose(outer, inner, order)


@given(
    order=orders,
    outer=st.lists(rationals, max_size=21),
    lead=nonzero_rationals,
    tail=st.lists(rationals, max_size=3),
)
def test_compose_with_nonzero_linear_term(order, outer, lead, tail):
    """g_1 != 0: the general branch sums the powers of the inner series as it is."""
    inner = padded([F(0), lead] + tail, order)
    compose_matches_oracle(padded(outer, order), inner, order)


@given(order=orders, outer=st.lists(rationals, max_size=21), scale=nonzero_rationals)
@example(order=20, outer=[F(1, 3), F(-2), F(5, 4)] * 7, scale=F(-7, 3))
def test_compose_with_one_minus_exp(order, outer, scale):
    """1 - e^{-ct} for any rational c, the inner series every family uses."""
    compose_matches_oracle(padded(outer, order), one_minus_exp(-scale, order), order)


@given(
    f_order=st.integers(min_value=0, max_value=30),
    g_order=st.integers(min_value=0, max_value=30),
    outer=st.lists(rationals, max_size=31),
)
@example(f_order=30, g_order=30, outer=[F(1, 3), F(-2), F(5, 4)] * 11)
@example(f_order=12, g_order=30, outer=[F(-7, 6)] * 13)
@example(f_order=30, g_order=5, outer=[F(3, 2), F(0), F(-1, 4)] * 11)
def test_compose_with_one_minus_exp_by_its_recurrence(f_order, g_order, outer):
    """1 - e^{-t} itself, over denominator 1, whether g is longer than f,
    as long or shorter: the u' = 1 - u recurrence at the common order."""
    order = min(f_order, g_order)
    f = Egf.from_ordinary(padded(outer, f_order))
    g = Egf.from_ordinary(one_minus_exp(-1, g_order))
    assert g.numerators() == ((0,) + ((1, -1) * g_order)[:g_order], 1)
    got = egf_compose(f, g)
    assert list(got.ordinary()) == ord_compose(padded(outer, order), one_minus_exp(-1, order), order)


@given(
    order=orders,
    outer=st.lists(rationals, max_size=21),
    tail=st.lists(rationals, max_size=4),
)
def test_compose_with_zero_linear_term(order, outer, tail):
    """g_1 = 0: no rescaling, and powers of g vanish twice as fast."""
    inner = padded([F(0), F(0)] + tail, order)
    compose_matches_oracle(padded(outer, order), inner, order)


@given(
    order=orders,
    outer=st.lists(rationals, max_size=21),
    lead=st.sampled_from([F(-2), F(-7, 3), F(-3, 5), F(0)]),
    tail=st.lists(nonzero_rationals, min_size=1, max_size=5),
)
def test_compose_with_negative_or_zero_linear_term(order, outer, lead, tail):
    """g_1 negative and not a unit, or zero, ahead of an inner series that is
    not 1 - e^{-ct}."""
    compose_matches_oracle(padded(outer, order), padded([F(0), lead] + tail, order), order)


def alternating(order):
    """u_i = (-1)^{i-1} for i = 1..order: the EGF coefficients of 1 - e^{-t}."""
    return [F((-1) ** i) for i in range(order)]


# Inner series near 1 - e^{-t} that must take the general branch: the recurrence
# would miss their last coefficient or their scale.
NEAR_STIRLING = {
    "last-sign-flipped": alternating(11) + [F(1)],
    "last-coefficient-half": alternating(11) + [F(1, 2)],
    "one-minus-exp-2t-unnormalised": [-F(-2) ** i for i in range(1, 13)],
}


@pytest.mark.parametrize("name", sorted(NEAR_STIRLING))
def test_compose_near_one_minus_exp_is_generic(name):
    inner = [F(0)] + [c / factorial(i) for i, c in enumerate(NEAR_STIRLING[name], 1)]
    outer = [F(0)] + [F((-1) ** m * (m + 2), m * m + 1) for m in range(1, 13)]
    compose_matches_oracle(outer, inner, 12)


@pytest.mark.parametrize("scale", [F(1), F(4), F(-7, 3)])
def test_compose_with_one_minus_exp_at_order_40(scale):
    outer = [F(0)] + [F((-1) ** m * (m + 2), m * m + 1) for m in range(1, 41)]
    compose_matches_oracle(outer, one_minus_exp(-scale, 40), 40)


@settings(max_examples=30)
@given(
    ks=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(tuple),
    scale=rationals,
    order=st.integers(min_value=0, max_value=12),
)
@example(ks=(2,), scale=F(1), order=12)
@example(ks=(1, -2), scale=F(4), order=12)
@example(ks=(3, 1, -1), scale=F(-7, 3), order=12)
@example(ks=(-3, 2), scale=F(0), order=12)
def test_li_numerator_at_matches_composition(ks, scale, order):
    """Li_ks(1 - e^{-ct}) as the Euler shape forms it, the cached
    Li_ks(1 - e^{-t}) dilated by c, against composing the enumerated nested
    sum with 1 - e^{-ct}."""
    nums, den = _dilate(*_li_numerator(ks, order).numerators(), scale.as_integer_ratio())
    want = ord_compose(multi_li_ordinary(ks, order), one_minus_exp(-scale, order), order)
    assert [F(v, den) for v in nums] == egf_from_ord(want)


@given(order=orders, f=st.lists(wide_rationals, max_size=21), g=st.lists(wide_rationals, max_size=21))
@example(order=3, f=[F(1, 2), F(-3, 4), F(5, 6), F(-7, 9)], g=[F(-2, 3), F(1, 5), F(0), F(4, 7)])
def test_mul_matches_oracle(order, f, g):
    f, g = padded(f, order), padded(g, order)
    got = egf_mul(Egf.from_ordinary(f), Egf.from_ordinary(g))
    assert list(got.ordinary()) == ord_mul(f, g, order)


@given(
    order=orders,
    f=st.lists(wide_rationals, max_size=21),
    g0=divisor_constants,
    g_tail=st.lists(wide_rationals, max_size=20),
)
@example(order=20, f=[F(1, 3), F(-2), F(5, 4)] * 7, g0=F(-7, 3), g_tail=[F(1, 2), F(-5, 6)] * 10)
@example(order=10, f=[F(2)] * 11, g0=F(8), g_tail=[F(-1), F(3, 2)] * 5)
def test_div_matches_oracle(order, f, g0, g_tail):
    f, g = padded(f, order), padded([g0] + g_tail, order)
    got = egf_div(Egf.from_ordinary(f), Egf.from_ordinary(g))
    assert list(got.ordinary()) == ord_div(f, g, order)


theorem_kvectors = st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=3).map(tuple)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


# Each right side as (package, literal oracle), both called as f(ks, x, y, alpha, beta, order).
RIGHT_SIDES = {
    "thm2": (
        lambda ks, x, y, a, b, n: multifamily.thm2_rhs(ks, LogParams(a, b), n),
        lambda ks, x, y, a, b, n: oracles.thm2_sum(ks, a, b, n),
    ),
    "cor1": (
        lambda ks, x, y, a, b, n: multifamily.cor1_rhs(ks, x, LogParams(a, b), n),
        lambda ks, x, y, a, b, n: oracles.cor1_sum(ks, x, a, b, n),
    ),
    "cor2": (
        lambda ks, x, y, a, b, n: multifamily.addition_rhs(ks, x, y, LogParams(a, b), n),
        oracles.addition_sum,
    ),
    "combined": (
        lambda ks, x, y, a, b, n: multifamily.combined_rhs(ks, x, LogParams(a, b), n),
        lambda ks, x, y, a, b, n: oracles.combined_sum(ks, x, a, b, n),
    ),
    "combined-printed": (
        lambda ks, x, y, a, b, n: multifamily.combined_rhs_printed(ks, x, LogParams(a, b), n),
        lambda ks, x, y, a, b, n: oracles.combined_sum_printed(ks, x, a, b, n),
    ),
}


@pytest.mark.parametrize("side", sorted(RIGHT_SIDES))
@settings(max_examples=15)
@given(
    ks=theorem_kvectors,
    x=small_rationals,
    y=small_rationals,
    alpha=small_rationals,
    beta=small_rationals,
    order=st.integers(min_value=0, max_value=10),
)
@example(ks=(2, -1), x=F(-2, 3), y=F(5, 7), alpha=F(3, 4), beta=F(-1, 6), order=10)
def test_right_hand_sides_match_literal_sums(side, ks, x, y, alpha, beta, order):
    package, oracle = RIGHT_SIDES[side]
    got = package(ks, x, y, alpha, beta, order)
    assert list(got.coeffs) == oracle(ks, x, y, alpha, beta, order)


@settings(max_examples=20)
@given(
    ks=st.lists(st.integers(min_value=-2, max_value=3), min_size=2, max_size=3).map(tuple),
    x=small_rationals,
    alpha=small_rationals.filter(bool),
    beta=small_rationals,
    extra=st.integers(min_value=0, max_value=6),
)
def test_combined_variants_differ_for_r_at_least_two(ks, x, alpha, beta, extra):
    """At n = r + 1 the two exponents differ by (r+1)(r-1) alpha (alpha+beta)^r E_r."""
    assume(alpha + beta != 0)
    order = len(ks) + 1 + extra
    params = LogParams(alpha, beta)
    assert multifamily.combined_rhs(ks, x, params, order) != multifamily.combined_rhs_printed(
        ks, x, params, order
    )


@given(ks=kvectors, order=orders)
def test_multi_li_matches_enumeration(ks, order):
    assert list(multi_li_series(ks, order).coeffs) == multi_li_ordinary(ks, order)


@settings(max_examples=60)
@given(
    ks=st.lists(st.integers(min_value=-16, max_value=16), min_size=1, max_size=8).map(tuple),
    order=st.integers(min_value=0, max_value=12),
)
@example(ks=(16, -16, 0, 16, -16, 0, 16, -16), order=12)
@example(ks=(0,) * 8, order=12)
@example(ks=(16,), order=12)
def test_multi_li_matches_enumeration_at_depth_eight(ks, order):
    """Indices up to +-16 put the running sum over lcm(1..N)^k at each depth."""
    assert list(multi_li_series(ks, order).coeffs) == multi_li_ordinary(ks, order)


def both_forms(ordinary):
    """One series built twice: by ``Egf.from_ordinary``, and by ``Egf(coeffs)``
    from the rationals that the first one hands out."""
    direct = Egf.from_ordinary(ordinary)
    held = direct.numerators()
    coeffs = direct.coeffs
    assert direct.numerators() == held
    from_coeffs = Egf(coeffs)
    assert from_coeffs.numerators() == Egf.of(*integer_numerators(coeffs)).numerators()
    return direct, from_coeffs


@pytest.mark.parametrize("forms", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["ii", "ir", "ri", "rr"])
@settings(max_examples=15)
@given(
    order=st.integers(min_value=1, max_value=10),
    f=st.lists(wide_rationals, max_size=11),
    g0=divisor_constants,
    g_tail=st.lists(wide_rationals, max_size=10),
    ks=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(tuple),
)
def test_every_kernel_reads_both_forms(forms, order, f, g0, g_tail, ks):
    """Each kernel, fed operands from both constructors in every combination,
    against the oracles."""
    f, unit = padded(f, order), padded([g0] + g_tail, order)
    nil = [F(0)] + unit[1:]
    a = both_forms(f)[forms[0]]
    b, n = both_forms(unit)[forms[1]], both_forms(nil)[forms[1]]
    assert list(egf_add(a, b).ordinary()) == ord_add(f, unit, order)
    assert list(egf_scale(a, g0).ordinary()) == ord_scale(f, g0, order)
    assert list(egf_mul(a, b).ordinary()) == ord_mul(f, unit, order)
    assert list(egf_div(a, b).ordinary()) == ord_div(f, unit, order)
    assert list(egf_mul(egf_mul(b, b), b).ordinary()) == ord_pow(unit, 3, order)
    assert list(egf_compose(a, n).ordinary()) == ord_compose(f, nil, order)
    assert list(a.truncate(order - 1).ordinary()) == f[:order]
    shifted = both_forms([F(0)] + f[:order])[forms[0]]
    assert list(egf_div_shifted(shifted, both_forms([F(0)] + unit[:order])[forms[1]], 1).ordinary()) == (
        ord_div(f, unit, order - 1)
    )
    expected = ord_compose(multi_li_ordinary(ks, order), nil, order)
    assert list(li_of_inner(ks, n, order).ordinary()) == expected


@given(ks=kvectors, order=orders, scale=nonzero_rationals)
@example(ks=(2, -1, 3), order=20, scale=F(-7, 3))
def test_numerator_matches_oracle(ks, order, scale):
    """Li_ks(1 - e^{-ct}), the numerator of every family, end to end."""
    inner = one_minus_exp(-scale, order)
    got = li_of_inner(ks, Egf.from_ordinary(inner), order)
    expected = ord_compose(multi_li_ordinary(ks, order), inner, order)
    assert list(got.coeffs) == egf_from_ord(expected)


@settings(max_examples=30)
@given(
    ks=theorem_kvectors,
    x=small_rationals,
    alpha=small_rationals,
    beta=small_rationals,
    order=st.integers(min_value=0, max_value=8),
)
@example(ks=(1, -2, 3), x=F(2, 5), alpha=F(3, 2), beta=F(-3, 2), order=8)
def test_multi_poly_euler_xab_matches_oracle(ks, x, alpha, beta, order):
    """The Euler shape at (r x, alpha, beta), including alpha + beta = 0."""
    got = multifamily.multi_poly_euler_xab(ks, x, LogParams(alpha, beta), order)
    assert got == oracles.multi_poly_euler_xab_egf(ks, x, alpha, beta, order)


@settings(max_examples=40)
@given(
    ks=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(tuple),
    x=small_rationals,
    n=st.integers(min_value=0, max_value=4),
    m_cap=st.integers(min_value=0, max_value=6),
    part_cap=st.integers(min_value=1, max_value=6),
)
def test_thm3_explicit_matches_per_term_loop(ks, x, n, m_cap, part_cap):
    """thm3's grouping by j against one power term per (ms, j, e)."""
    got = multifamily.thm3_explicit(ks, x, n, m_cap, part_cap)
    assert (got.value, got.skipped_terms) == oracles.thm3_explicit_sum(ks, x, n, m_cap, part_cap)


@settings(max_examples=25)
@given(
    ks=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(tuple),
    x=st.fractions(min_value=-5, max_value=5, max_denominator=9),
    n=st.integers(min_value=0, max_value=4),
    m_cap=st.integers(min_value=0, max_value=8),
    part_cap=st.integers(min_value=1, max_value=4),
)
@example(ks=(2, 0, -1), x=F(-7, 9), n=4, m_cap=6, part_cap=4)
@example(ks=(0, -3), x=F(5, 8), n=3, m_cap=0, part_cap=1)
@example(ks=(3,), x=F(2, 5), n=4, m_cap=7, part_cap=4)
@example(ks=(2, -1), x=F(-4, 9), n=4, m_cap=7, part_cap=4)
def test_thm3_explicit_matches_literal_quadruple_sum(ks, x, n, m_cap, part_cap):
    """Off the audit grid: the weights over lcm(1..m_cap)^K, the compositions
    over r! and (r x - j)^e over q^e against the unfactored Fraction sum.
    The last two examples reach weights 1/m^k with m not dividing m_cap."""
    got = multifamily.thm3_explicit(ks, x, n, m_cap, part_cap)
    assert (got.value, got.skipped_terms) == oracles.thm3_quadruple_sum(ks, x, n, m_cap, part_cap)


@settings(max_examples=60)
@given(
    k=st.integers(min_value=-3, max_value=3),
    x=small_rationals,
    alpha=small_rationals,
    beta=small_rationals,
    gamma=st.none() | st.just(F(0)) | small_rationals,
    n=st.integers(min_value=0, max_value=7),
    variant=st.sampled_from(multifamily.THM4_VARIANTS),
)
@example(k=3, x=F(-4, 7), alpha=F(5, 6), beta=F(-2, 3), gamma=F(3, 5), n=7, variant="statement")
@example(k=0, x=F(1, 2), alpha=F(0), beta=F(0), gamma=None, n=0, variant="proof")
def test_thm4_explicit_matches_literal_triple_sum(k, x, alpha, beta, gamma, n, variant):
    """Value and skipped tally of thm4 against the Fraction triple sum, for
    every sign of k, with and without ln c."""
    got = multifamily.thm4_explicit(k, x, LogParams(alpha, beta, gamma), n, variant)
    expected = oracles.thm4_sum(k, x, alpha, beta, F(0) if gamma is None else gamma, n, variant)
    assert (got.value, got.skipped_terms) == expected

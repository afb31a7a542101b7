"""Composition and multi-Li kernels against the naive ordinary-series oracles.

The oracles compose term by term through explicit powers and enumerate every
index tuple of the nested sum, so they share no code path with the cached
Bell table or the running-sum recursion.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from polyeuler.exact import Egf, egf_compose
from polyeuler.polylog import li_of_inner, multi_li_series

from oracles import egf_from_ord, multi_li_ordinary, one_minus_exp, ord_compose

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = rationals.filter(bool)
orders = st.integers(min_value=0, max_value=20)
kvectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).map(tuple)


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
    """g_1 != 0: the inner series is rescaled by s = g_1 before the table."""
    inner = padded([F(0), lead] + tail, order)
    compose_matches_oracle(padded(outer, order), inner, order)


@given(order=orders, outer=st.lists(rationals, max_size=21), scale=nonzero_rationals)
@example(order=20, outer=[F(1, 3), F(-2), F(5, 4)] * 7, scale=F(-7, 3))
def test_compose_with_one_minus_exp(order, outer, scale):
    """1 - e^{-ct} for any rational c, the inner series every family uses."""
    compose_matches_oracle(padded(outer, order), one_minus_exp(-scale, order), order)


@given(
    order=orders,
    outer=st.lists(rationals, max_size=21),
    tail=st.lists(rationals, max_size=4),
)
def test_compose_with_zero_linear_term(order, outer, tail):
    """g_1 = 0: no rescaling, and powers of g vanish twice as fast."""
    inner = padded([F(0), F(0)] + tail, order)
    compose_matches_oracle(padded(outer, order), inner, order)


@given(ks=kvectors, order=orders)
def test_multi_li_matches_enumeration(ks, order):
    assert list(multi_li_series(ks, order).coeffs) == multi_li_ordinary(ks, order)


@given(ks=kvectors, order=orders, scale=nonzero_rationals)
@example(ks=(2, -1, 3), order=20, scale=F(-7, 3))
def test_numerator_matches_oracle(ks, order, scale):
    """Li_ks(1 - e^{-ct}), the numerator of every family, end to end."""
    inner = one_minus_exp(-scale, order)
    got = li_of_inner(ks, Egf.from_ordinary(inner), order)
    expected = ord_compose(multi_li_ordinary(ks, order), inner, order)
    assert list(got.coeffs) == egf_from_ord(expected)

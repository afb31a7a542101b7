"""Polylogarithm and multiple-polylogarithm truncated series.

Li_k(z) = sum_{m>=1} z^m / m^k, and the nested generalization over index
vectors (k_1, ..., k_r) summed over strictly increasing 1 <= m_1 < ... < m_r.
Truncated at z^N both are finite sums.  The nested sum is built depth by
depth with the running-sum recursion S_j(m) = (sum_{m' < m} S_{j-1}(m')) /
m^{k_j}, which costs O(rN) rather than one term per index tuple.  Negative
and zero indices go through the same recursion; no closed forms are
special-cased.  Substitution of an inner series goes through
``exact.egf_compose``.

Series in z are returned in the shared ``Egf`` container with the
coefficients read in the ordinary sense (coeffs[m] multiplies z^m).
"""

from __future__ import annotations

from math import factorial, lcm
from operator import index
from typing import Sequence

from .exact import Egf, NonNilpotentInner, egf_compose, parse_integer

KVector = tuple[int, ...]


def parse_kvector(text: str) -> KVector:
    """Parse comma-separated integer indices, e.g. ``"2,1,-1"``, each in
    ``exact.parse_integer``'s text form."""
    return validate_kvector([parse_integer(p) for p in text.split(",")])


def validate_kvector(ks: Sequence[int]) -> KVector:
    """The indices as a tuple of ints; any other type raises TypeError
    rather than being truncated or parsed."""
    ks = tuple(map(index, ks))
    if not ks:
        raise ValueError("index vector needs at least one entry")
    return ks


def multi_li_series(ks: Sequence[int], order: int) -> Egf:
    """Truncated nested sum over 1 <= m_1 < ... < m_r <= order.

    coeffs[m] collects every admissible index tuple ending at m_r = m, so
    the lowest possible nonzero degree is r.
    """
    if order < 0:
        raise ValueError("a series needs order >= 0")
    # row[m] / den = S_j(m), the sum over tuples of depth j ending at m_j = m;
    # the empty tuple (depth 0) ends at 0.  A positive index puts the row
    # over lcm(1..order)^k, so each depth divides by m^k exactly.  The rows
    # share that growing denominator and are reduced once, at the end.
    row, den = (1,) + (0,) * order, 1
    common = lcm(*range(1, order + 1))
    for k in validate_kvector(ks):
        below = 0
        nxt = [0] * (order + 1)
        for m in range(1, order + 1):
            below += row[m - 1]
            nxt[m] = below * (m**-k if k <= 0 else (common // m) ** k)
        row, den = nxt, den if k <= 0 else den * common**k
    return Egf.of(row, den)


def li_of_inner(ks: Sequence[int], inner: Egf, order: int) -> Egf:
    """Substitute a zero-constant-term series into the (multi-)polylogarithm.

    Only powers inner^m with m <= order contribute, so the truncated result
    is exact: recomputing at a higher order never changes earlier
    coefficients.
    """
    constant = inner.numerators()[0][0]
    if constant != 0:
        raise NonNilpotentInner("inner series has nonzero constant term")
    n = min(order, inner.order)
    nums, den = multi_li_series(ks, n).numerators()
    outer = Egf.of((v * factorial(m) for m, v in enumerate(nums)), den)
    return egf_compose(outer, inner.truncate(n))

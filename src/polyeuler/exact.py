"""Exact-arithmetic substrate: rational scalars, truncated EGF algebra, determinants.

A series is stored by its exponential-generating-function coefficients c_n,
where the series is sum c_n t^n / n!, as integer numerators over one positive
denominator in lowest terms, and only in that form.  The kernels run over
those integers; ``coeffs`` builds the ``fractions.Fraction`` values on each
read.  Nothing here ever touches floating point: every rational a caller
passes is read by ``_ratio``, which refuses a float or text, and is an
integer pair below it; the Taylor shift ``_times_exp`` takes its rate as
that pair.  The one cache here,
``_division_table``, keeps what a division by a sum of exponentials needs
of its divisor, so a repeated divisor is read instead of rebuilt.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


class DivisionByNonUnit(ZeroDivisionError):
    """Series division needs a nonzero constant term in the divisor."""


class InsufficientVanishing(ValueError):
    """Shifted division needs both operands to vanish to the stated order."""


class NonNilpotentInner(ValueError):
    """Series composition needs an inner series with zero constant term."""


class NotSquare(ValueError):
    """Determinants are only defined for square matrices."""


# The whitespace that text input may carry around a value: str.strip()
# without arguments would also remove Unicode spaces such as U+2003.
_ASCII_SPACE = " \t\n\r\f\v"


def parse_integer(text: str) -> int:
    """Parse the canonical integer text form: ASCII digits 0-9 with an
    optional '-', e.g. ``"-12"``.  Raises ValueError on anything else (ASCII
    whitespace is trimmed first; no '+', '_' or other Unicode digit)."""
    trimmed = text.strip(_ASCII_SPACE)
    if re.fullmatch("-?[0-9]+", trimmed) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(trimmed)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational text form: ASCII digits 0-9 with an
    optional '-' and '/den', e.g. ``"5"``, ``"-3/4"``.

    The Unicode minus sign is tolerated on input.  Raises ValueError on
    anything else (ASCII whitespace is trimmed first, and no other space).
    """
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text.strip(_ASCII_SPACE).replace("−", "-"))
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = match.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den or 1))


# Integers of at most this many bits (603 digits) go through str(); the
# interpreter's int-to-str digit limit cannot be set below 640.
_STR_BITS = 2000


def _decimal(value: int) -> str:
    """Decimal text of an integer of any size, whatever the interpreter's
    int-to-str digit limit: longer integers are split at a power of ten."""
    if value < 0:
        return "-" + _decimal(-value)
    if value.bit_length() <= _STR_BITS:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def format_rational(value: Fraction) -> str:
    """Render a rational in the canonical text form used across CLI and JSON."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


# A rational as (numerator, denominator) in lowest terms, denominator > 0:
# the form in which the Euler cache takes w, alpha and beta.
Ratio = tuple[int, int]


def _ratio(value: RationalLike) -> Ratio:
    """``value`` as a pair in lowest terms, as an int or a Fraction is already.
    Every caller's rational comes through here, so anything else raises
    TypeError: a float is not read as its binary expansion."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"a rational must be an int or a Fraction, not {type(value).__name__}")
    return value.as_integer_ratio()


def integer_numerators(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Put rationals over their least common denominator D.

    Returns (nums, D) with values[i] == nums[i] / D, so a sum of products can
    run over Python ints and become one ``Fraction`` at the end.  Each value
    is read by ``_ratio``, so it must be an int or a Fraction, and as every
    pair is in lowest terms, D and the nums share no factor.
    """
    ratios = [_ratio(v) for v in values]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def integer_powers(base: int, top: int) -> list[int]:
    """base^0, base^1, ..., base^top as Python ints."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _reduced(num: int, den: int) -> Ratio:
    """num/den (den != 0) as a pair in lowest terms, by one gcd."""
    common = gcd(num, den)
    if den < 0:
        common = -common
    return num // common, den // common


def lowest_terms(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """The rationals nums[i] / den over one positive denominator D with
    gcd(D, nums...) = 1, which is the least common denominator."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    nums = tuple(nums)
    common = gcd(den, *nums)
    if den < 0:
        common = -common
    if common == 1:
        return nums, den
    return tuple([v // common for v in nums]), den // common


class Egf:
    """Truncated series sum_{n=0}^{N} c_n t^n/n!, N = truncation order.

    Held only as integer numerators over one positive denominator in lowest
    terms: ``Egf.of(nums, den)`` and ``Egf(coeffs)`` both reduce to it, and
    ``numerators()`` reads it back.  ``coeffs``, the tuple of ``Fraction``
    c_n, is built on each read and not kept.

    Immutable; all operations return new series.  Binary operations truncate
    to the smaller order of the two operands, so a result never claims more
    precision than was computed.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RationalLike]) -> None:
        nums, den = integer_numerators(coeffs)
        if not nums:
            raise ValueError("series needs at least the constant coefficient")
        self._nums: tuple[int, ...] = tuple(nums)
        self._den = den

    @classmethod
    def of(cls, nums: Iterable[int], den: int = 1) -> "Egf":
        """The series with c_n = nums[n] / den, reduced to lowest terms."""
        nums, den = lowest_terms(nums, den)
        if not nums:
            raise ValueError("series needs at least the constant coefficient")
        series = cls.__new__(cls)
        series._nums, series._den = nums, den
        return series

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(v, den) for v in self._nums)

    def numerators(self) -> tuple[Sequence[int], int]:
        """(nums, D) with coeffs[n] == nums[n] / D and D the least common
        denominator."""
        return self._nums, self._den

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Egf):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Egf.of({list(self._nums)}, {self._den})"

    @classmethod
    def zero(cls, order: int) -> "Egf":
        return cls.of((0,) * (order + 1))

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "Egf":
        """The constant series ``value`` (requires order >= 0)."""
        if order < 0:
            raise ValueError("a series needs order >= 0")
        p, q = _ratio(value)
        return cls.of((p,) + (0,) * order, q)

    @classmethod
    def t(cls, order: int) -> "Egf":
        """The series t itself (requires order >= 1)."""
        if order < 1:
            raise ValueError("t needs order >= 1")
        return cls.of((0, 1) + (0,) * (order - 1))

    @classmethod
    def from_ordinary(cls, ordinary: Sequence[RationalLike]) -> "Egf":
        """Build from ordinary power-series coefficients a_n (c_n = n! a_n)."""
        nums, den = integer_numerators(ordinary)
        return cls.of((v * factorial(n) for n, v in enumerate(nums)), den)

    def ordinary(self) -> tuple[Fraction, ...]:
        """Ordinary power-series coefficients a_n = c_n / n!."""
        nums, den = self.numerators()
        return tuple(Fraction(v, den * factorial(n)) for n, v in enumerate(nums))

    def truncate(self, order: int) -> "Egf":
        if order >= self.order:
            return self
        nums, den = self.numerators()
        return Egf.of(nums[: order + 1], den)


def egf_add(f: Egf, g: Egf) -> Egf:
    """Coefficientwise sum, truncated to the smaller order."""
    n = min(f.order, g.order)
    a, df = f.numerators()
    b, dg = g.numerators()
    den = lcm(df, dg)
    sf, sg = den // df, den // dg
    return Egf.of((a[i] * sf + b[i] * sg for i in range(n + 1)), den)


def egf_scale(f: Egf, value: RationalLike) -> Egf:
    p, q = _ratio(value)
    a, den = f.numerators()
    return Egf.of((p * c for c in a), den * q)


def egf_mul(f: Egf, g: Egf) -> Egf:
    """Binomial-convolution product: c_n = sum_i C(n,i) f_i g_{n-i}.

    With f = a/D_f and g = b/D_g, c_n is the integer convolution of a and b
    over D_f D_g.
    """
    n = min(f.order, g.order)
    a, df = f.numerators()
    b, dg = g.numerators()
    out = []
    for m in range(n + 1):
        acc = 0
        for i in range(m + 1):
            if a[i]:
                acc += comb(m, i) * a[i] * b[m - i]
        out.append(acc)
    return Egf.of(out, df * dg)


def egf_div(f: Egf, g: Egf) -> Egf:
    """Quotient h with egf_mul(h, g) = f up to the common order.

    Solves the triangular system h_m g_0 = f_m - sum_{i<m} C(m,i) h_i g_{m-i};
    the divisor must have a nonzero constant term.  With f = a/D_f and
    g = b/D_g, and the quotients found so far carried as h_i = H_i / L over
    the running lcm L of their reduced denominators,
    h_m = (D_g a_m L - D_f sum_{i<m} C(m,i) H_i b_{m-i}) / (D_f L b_0),
    reduced before it joins them.  Carrying reduced quotients keeps the
    integers as small as the result.
    """
    b, dg = g.numerators()
    if b[0] == 0:
        raise DivisionByNonUnit("divisor has zero constant term")
    n = min(f.order, g.order)
    a, df = f.numerators()
    nums: list[int] = []
    den = 1
    for m in range(n + 1):
        acc = 0
        for i in range(m):
            if nums[i]:
                acc += comb(m, i) * nums[i] * b[m - i]
        top, bottom = _reduced(dg * a[m] * den - df * acc, df * den * b[0])
        if den % bottom:
            grown = lcm(den, bottom)
            nums = [v * (grown // den) for v in nums]
            den = grown
        nums.append(top * (den // bottom))
    return Egf.of(nums, den)


def egf_div_shifted(f: Egf, g: Egf, shift: int) -> Egf:
    """Divide f by g after cancelling a common factor t^shift from both.

    Both series must vanish to order ``shift`` and g's coefficient of
    t^shift must be nonzero; the result's truncation order drops by
    ``shift``.  This keeps divisions like t/(e^t - 1) well defined without
    silently guessing a cancellation.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if shift == 0:
        return egf_div(f, g)
    if f.order < shift or g.order < shift:
        raise InsufficientVanishing("series too short for the requested shift")
    a, _ = f.numerators()
    b, _ = g.numerators()
    for j in range(shift):
        if a[j] or b[j]:
            raise InsufficientVanishing(
                f"coefficient of t^{j} is nonzero; cannot cancel t^{shift}"
            )
    if not b[shift]:
        raise InsufficientVanishing(
            f"divisor vanishes beyond t^{shift}; quotient would not be a power series"
        )
    return egf_div(_shift_down(f, shift), _shift_down(g, shift))


def _shift_down(f: Egf, s: int) -> Egf:
    """Divide by t^s, assuming the first s coefficients vanish: coefficient
    m becomes c_{m+s} m!/(m+s)! = c_{m+s} / (s! C(m+s, s))."""
    nums, den = f.numerators()
    steps = [comb(m + s, s) for m in range(f.order - s + 1)]
    scale = lcm(*steps)
    return Egf.of(
        (nums[m + s] * (scale // step) for m, step in enumerate(steps)),
        den * factorial(s) * scale,
    )


def _bell_table(u: tuple[int, ...], den: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Partial Bell polynomials B_{j,m}(u_1, u_2, ...) for 0 <= m <= j <= len(u).

    Fraction-free: u_i = u[i-1] / den in lowest terms, and the result is
    (den, rows) where rows[j][m] = B_{j,m}(u[0], u[1], ...) is an integer,
    so B_{j,m}(u_1, u_2, ...) = rows[j][m] / den^m.  Filled by the O(N^3)
    recurrence B_{j,m} = sum_i C(j-1, i-1) u_i B_{j-i,m-1}.  Not cached:
    ``egf_compose`` composes with 1 - e^{-t}, the package's inner series,
    without a table.
    """
    rows: list[tuple[int, ...]] = [(1,)]
    v = (0,) + u
    for j in range(1, len(u) + 1):
        row = [0]
        for m in range(1, j + 1):
            acc = 0
            for i in range(1, j - m + 2):
                if v[i]:
                    acc += comb(j - 1, i - 1) * v[i] * rows[j - i][m - 1]
            row.append(acc)
        rows.append(tuple(row))
    return den, tuple(rows)


def egf_compose(f: Egf, g: Egf) -> Egf:
    """Composition f(g(t)), defined when g has zero constant term.

    For g = 1 - e^{-t} up to the common order N, g' = 1 - g: with
    f(u) = sum e_m u^m/m!, the t-derivative of f(g) is f'(g)(1 - g), the
    series whose coefficients are e'_m = e_{m+1} - m e_m.  So coefficient n
    of f(g) is e_0 after n such steps, each run in place over one entry
    fewer, over f's own denominator.  Any other g takes Faà di Bruno:
    h_n = sum_m f_m B_{n,m}(g_1, g_2, ...), over the Bell table of g.  With
    f = a/D_f and B_{n,m}(g) = rows[n][m] / D^m, every h_n is an integer
    over D_f D^N.
    """
    c, dg = g.numerators()
    if c[0] != 0:
        raise NonNilpotentInner("inner series has nonzero constant term")
    n = min(f.order, g.order)
    a, df = f.numerators()
    u, den = lowest_terms(c[1 : n + 1], dg)
    if den == 1 and u == ((1, -1) * n)[:n]:
        e = list(a[: n + 1])
        out = [e[0]]
        for width in range(n, 0, -1):
            for m in range(width):
                e[m] = e[m + 1] - m * e[m]
            out.append(e[0])
        return Egf.of(out, df)
    den, bell = _bell_table(u, den)
    d_pow = integer_powers(den, n)
    scaled = [a[m] * d_pow[n - m] for m in range(n + 1)]
    return Egf.of((sum(map(mul, scaled, row)) for row in bell), df * d_pow[n])


def egf_exp_linear(value: RationalLike, order: int) -> Egf:
    """The exponential e^{value * t}: with value = p/q, c_n = p^n q^{N-n} / q^N
    (requires order >= 0)."""
    if order < 0:
        raise ValueError("a series needs order >= 0")
    p, q = _ratio(value)
    tops = integer_powers(p, order)
    bottoms = integer_powers(q, order)
    return Egf.of((t * bottoms[order - n] for n, t in enumerate(tops)), bottoms[order])


def _integer_terms(
    terms: Iterable[tuple[int, RationalLike]],
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(weights, tops, K) for the terms (w_j, mu_j): the rates over their
    least common denominator K as mu_j = tops[j] / K.  An int rate and the
    equal ``Fraction`` give the same integers."""
    terms = tuple(terms)
    tops, den = integer_numerators([rate for _, rate in terms])
    return tuple([weight for weight, _ in terms]), tuple(tops), den


def _power_sums(weights: Sequence[int], tops: Sequence[int], order: int) -> list[int]:
    """G[n] = sum_j weights[j] tops[j]^n for n = 0..order."""
    sums = [0] * (order + 1)
    for weight, top in zip(weights, tops):
        sums = list(map(add, sums, accumulate(repeat(top, order), mul, initial=weight)))
    return sums


def egf_exp_sum(terms: Iterable[tuple[int, RationalLike]], order: int) -> Egf:
    """The finite sum of exponentials sum_j w_j e^{mu_j t} for (w_j, mu_j) in
    ``terms``, integer weights w_j and rational rates mu_j.

    With the rates over one denominator D (mu_j = M_j / D), coefficient n is
    sum_j w_j M_j^n / D^n, summed over integers and lifted to D^N: no series
    product is formed.  No terms give the zero series.  Requires order >= 0.
    """
    if order < 0:
        raise ValueError("a series needs order >= 0")
    weights, tops, den = _integer_terms(terms)
    den_pow = integer_powers(den, order)
    sums = _power_sums(weights, tops, order)
    return Egf.of((c * den_pow[order - n] for n, c in enumerate(sums)), den_pow[order])


# One table per divisor and order.  The audit's theorem grid cycles through
# its 25 (alpha, beta) samples for each index vector, beside the (0, 1)
# divisor of the right sides and Sasaki's 2e^t + 2e^{-t}: 27 live tables make
# every repeat of an order-10 audit a hit (956 hits, 88 misses, one per
# distinct divisor), and 32 bound what order-200 tables hold.
@lru_cache(maxsize=32)
def _division_table(
    weights: tuple[int, ...], tops: tuple[int, ...], den: int, order: int
) -> tuple[tuple[tuple[int, ...], ...], int, int, tuple[int, ...]]:
    """(rows, lift, s, den_pow) for dividing by sum_j w_j e^{(tops[j]/K) t},
    K = den, at the given order N: everything of ``egf_div_exp_sum`` that
    does not depend on the numerator.

    With G_m = sum_j w_j tops[j]^m and s = G_0: rows[m] holds
    C(m,1) G_1, ..., C(m,m) G_m, built from one Pascal row at a time,
    lift = s^N and den_pow[m] = K^m.
    """
    s, *sums = _power_sums(weights, tops, order)
    rows = [()]
    pascal: list[int] = []  # C(m, 1), ..., C(m, m)
    for _ in range(order):
        pascal = [*map(add, pascal, [1, *pascal]), 1]
        rows.append(tuple(map(mul, pascal, sums)))
    return tuple(rows), s**order, s, tuple(integer_powers(den, order))


def egf_div_exp_sum(f: Egf, terms: Iterable[tuple[int, RationalLike]]) -> Egf:
    """f divided by the sum of exponentials sum_j w_j e^{mu_j t}, the series
    ``egf_exp_sum(terms, f.order)``, fraction-free in the manner of Bareiss.

    With the rates over one denominator K (mu_j = M_j / K), the quotient at
    Kt is f(Kt) over the integer series G_n = sum_j w_j M_j^n.  So f(Kt),
    coefficient n times K^n, is put in lowest terms once as a'/d', and with
    s = G_0 the weight sum the quotient at order N is
    h_n = Y_n / (d' s^{N+1} K^n) for the integers
    Y_n = s^N a'_n - (sum_{j=1..n} C(n,j) G_j Y_{n-j}) / s,
    where the division by s is exact, so no step takes a gcd or rescales an
    earlier quotient; the result is reduced once, at the end.  Everything
    but a' is one cached row table per divisor and order
    (``_division_table``), so a repeated divisor costs one inner product
    per coefficient.  A zero weight sum raises DivisionByNonUnit.
    """
    weights, tops, den = _integer_terms(terms)
    if sum(weights) == 0:
        raise DivisionByNonUnit("divisor has zero constant term")
    rows, lift, s, den_pow = _division_table(weights, tops, den, f.order)
    nums, df = f.numerators()
    a, df = lowest_terms(map(mul, nums, den_pow), df)
    # Y_n = 0 below the first nonzero a'_z, so row n meets only Y_z..Y_{n-1}.
    z = next((n for n, v in enumerate(a) if v), len(a))
    known: list[int] = []  # Y_z, Y_{z+1}, ...
    for row, coeff in zip(rows[z:], a[z:]):
        known.append(lift * coeff - sum(map(mul, row, reversed(known))) // s)
    return Egf.of(list(map(mul, [0] * z + known, reversed(den_pow))), df * s * lift * den_pow[-1])


def egf_times_exp(f: Egf, value: RationalLike) -> Egf:
    """The product e^{value * t} f, by the Taylor shift ``_times_exp``."""
    return _times_exp(f, _ratio(value))


def _times_exp(f: Egf, value: Ratio) -> Egf:
    """The product e^{(p/q) t} f for value = (p, q), by a Taylor shift.

    With f = a/d, coefficient n is sum_i C(n,i) p^{n-i} q^i a_i / (d q^n).
    So the rows start from R_0[i] = q^i a_i, and
    R_{j+1}[i] = p R_j[i] + R_j[i+1] gives coefficient n as R_n[0] / (d q^n):
    the growing integers are only ever multiplied by p.  Each row overwrites
    the one before it in place, one entry shorter.
    """
    p, q = value
    a, df = f.numerators()
    n = f.order
    q_pow = integer_powers(q, n)
    row = list(map(mul, a, q_pow))
    tops = [row[0]]
    for width in range(n, 0, -1):
        for i in range(width):
            row[i] = p * row[i] + row[i + 1]
        tops.append(row[0])
    return Egf.of(list(map(mul, tops, reversed(q_pow))), df * q_pow[n])


def det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant of a square matrix given as rows, by Gaussian
    elimination with column pivoting.

    Runs entirely over rationals; row swaps only flip the sign, so the result
    is exact for any square input.  The empty matrix has determinant 1.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSquare(f"rows of lengths {[len(row) for row in rows]} have no determinant")
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(*_ratio(v)) for v in row] for row in rows]
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[col])]
    return sign * prod(rows[i][i] for i in range(n))

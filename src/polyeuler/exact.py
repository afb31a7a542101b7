"""Exact-arithmetic substrate: rational scalars, truncated EGF algebra, determinants.

A series is stored by its exponential-generating-function coefficients c_n,
where the series is sum c_n t^n / n!, as integer numerators over one positive
denominator in lowest terms, and only in that form.  The kernels run over
those integers; ``coeffs`` builds the ``fractions.Fraction`` values on each
read.  Nothing here ever touches floating point: every rational a caller
passes is read by ``_ratio``, which refuses a float or text, and every
order by ``_order``, which refuses a float order before a cache could
answer it.  Below them a rational is an integer pair, never turned back
into a ``Fraction`` to be read again, and a series passes between kernels
as integer numerators over one denominator, not reduced:
``_times_exp`` (the Taylor shift, which ``egf_mul`` runs for a factor
e^{ct}, so it is the one route of every e^{ct} product), ``_dilate`` (the
one dilation t -> ct), ``_shift_down`` (the division by t, which serves
only the Sasaki numerator; ``egf_div`` cancels a common t^s in its own
recurrence), ``_div_exp_sum`` and ``_compose_one_minus_exp`` (the
composition with 1 - e^{-t}) take it so, and only the ``Egf`` a caller
keeps is built.
This is the one home of that integer arithmetic: the other layers import
``_ratio``, ``_reduced``, ``lowest_terms`` and ``integer_numerators``
rather than reducing a rational or putting rationals over one denominator
themselves.
Every cache of the package, such as ``_division_table`` of a division's
divisor, is a ``_memo``: its values last one ``cache_scope``, opened only
where a memo is read again (the audit and polyverify; polyseq opens none).
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import wraps
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, index, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

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


def _is_integer_text(text: str) -> bool:
    """Whether ``text`` is an optional '-' and then ASCII digits 0-9 only,
    read without a regular expression."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def parse_integer(text: str) -> int:
    """Parse the canonical integer text form: ASCII digits 0-9 with an
    optional '-', e.g. ``"-12"``.  Raises ValueError on anything else (ASCII
    whitespace is trimmed first; no '+', '_' or other Unicode digit)."""
    trimmed = text.strip(_ASCII_SPACE)
    if not _is_integer_text(trimmed):
        raise ValueError(f"not an integer: {text!r}")
    return int(trimmed)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational text form: ASCII digits 0-9 with an
    optional '-' and '/den', e.g. ``"5"``, ``"-3/4"``.

    The Unicode minus sign is tolerated on input.  Raises ValueError on
    anything else (ASCII whitespace is trimmed first, and no other space).
    """
    num, slash, den = text.strip(_ASCII_SPACE).replace("−", "-").partition("/")
    if not _is_integer_text(num) or slash and not (den.isascii() and den.isdigit()):
        raise ValueError(f"not a rational: {text!r}")
    if slash and int(den) == 0:
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


def format_rational(value: RationalLike) -> str:
    """Render a rational, read by ``_ratio``, in the canonical text form used
    across CLI and JSON; this is the one writer of that form."""
    num, den = _ratio(value)
    if den == 1:
        return _decimal(num)
    return f"{_decimal(num)}/{_decimal(den)}"


# A rational as (numerator, denominator) in lowest terms, denominator > 0:
# the form in which the Euler cache takes w, alpha and beta.
Ratio = tuple[int, int]


def _ratio(value: RationalLike) -> Ratio:
    """``value`` as a pair in lowest terms, as an int or a Fraction is already.
    Every caller's rational comes through here, so anything else raises
    TypeError: a float is not read as its binary expansion, and text such as
    "1/2" is not parsed, as ``parse_rational`` is the one reader of text."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"a rational must be an int or a Fraction, not {type(value).__name__}")
    return value.as_integer_ratio()


def _order(value: int, message: str = "a series needs order >= 0") -> int:
    """A series order, or another count that must not be negative, read by
    ``operator.index`` before any cache is: a float, a ``Fraction`` or text
    raises TypeError (4.0 would hash like a cached 4), a negative value
    ValueError(message).  A count that must be at least 1 is read as
    ``_order(n - 1, message) + 1``, as ``Egf.t`` reads its order."""
    value = index(value)
    if value < 0:
        raise ValueError(message)
    return value


# The open scope: one table per memo, keyed by the memo's arguments.
_SCOPE: ContextVar[defaultdict | None] = ContextVar("cache_scope", default=None)
_MISSING = object()
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


@contextmanager
def cache_scope() -> Iterator[None]:
    """Keep what every ``_memo`` computes until the block ends, with no size
    bound; outside any scope nothing is kept.  A scope opened inside another
    reuses the outer one.  ``@cache_scope()`` also works as a decorator, as
    on ``audit.run_all`` and ``cli.cmd_verify``, whose cases read series again."""
    outer = _SCOPE.get()
    token = _SCOPE.set(defaultdict(dict) if outer is None else outer)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _memo(fn: Callable) -> Callable:
    """``fn`` kept in the open ``cache_scope``; ``cache_info()`` counts hits and
    misses across scopes until ``cache_clear()``, which drops the scope's table."""
    hits = misses = 0

    @wraps(fn)
    def cached(*args):
        nonlocal hits, misses
        scope = _SCOPE.get()
        table = {} if scope is None else scope[cached]  # {}: kept by no one
        value = table.get(args, _MISSING)
        if value is _MISSING:
            misses += 1
            value = table[args] = fn(*args)
        else:
            hits += 1
        return value

    def cache_info() -> CacheInfo:
        return CacheInfo(hits, misses, None, len((_SCOPE.get() or {}).get(cached, ())))

    def cache_clear() -> None:
        nonlocal hits, misses
        hits = misses = 0
        (_SCOPE.get() or {}).pop(cached, None)

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return cached


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
        self._nums, self._den = Egf.of(*integer_numerators(coeffs)).numerators()

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
        return cls.of((0,) * (_order(order) + 1))

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "Egf":
        """The constant series ``value`` (requires order >= 0)."""
        p, q = _ratio(value)
        return cls.of((p,) + (0,) * _order(order), q)

    @classmethod
    def t(cls, order: int) -> "Egf":
        """The series t itself (requires order >= 1)."""
        return cls.of((0, 1) + (0,) * _order(order - 1, "t needs order >= 1"))

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
        order = _order(order)
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
    """Product of f and g to the smaller order N of the two.

    A factor, in either argument, that is exactly e^{ct} to order N is
    multiplied in by the Taylor shift ``_times_exp`` of the other factor,
    the one kernel of every e^{ct} product the package forms; at c = 0 the
    product is the other factor, truncated.  On the factor's numerators e_n
    over E the test is c_0 = 1 (e_0 = E) and c_{m+1} c_0 = c_m c_1
    (e_{m+1} E = e_m e_1), O(N) products that stop at the first mismatch,
    and c = e_1/E in lowest terms.  Any other product is the binomial
    convolution c_n = sum_i C(n,i) f_i g_{n-i}, for f = a/D_f and
    g = b/D_g the integer convolution of a and b over D_f D_g.
    """
    n = min(f.order, g.order)
    for (e, den), other in ((f.numerators(), g.truncate(n)), (g.numerators(), f.truncate(n))):
        if e[0] == den and all(e[m + 1] * den == e[m] * e[1] for m in range(1, n)):
            return _times_exp(*other.numerators(), _reduced(e[1], den)) if n and e[1] else other
    a, df = f.numerators()
    b, dg = g.numerators()
    out = []
    for m in range(n + 1):
        acc = 0
        for i in range(m + 1):
            if a[i]:  # the powers g^m of egf_compose's general branch (1.3x)
                acc += comb(m, i) * a[i] * b[m - i]
        out.append(acc)
    return Egf.of(out, df * dg)


def egf_div(f: Egf, g: Egf, shift: int = 0) -> Egf:
    """Quotient h with egf_mul(h, g) = f, after cancelling a common factor
    t^shift from both: the result's order is the smaller operand order less
    ``shift``.

    Both series must vanish to order s = ``shift`` and g's coefficient of
    t^s must be nonzero (at s = 0 a zero constant term raises
    DivisionByNonUnit), so a division like t/(e^t - 1) is well defined
    without silently guessing a cancellation.  Coefficient m + s of f = h g
    is f_{m+s} = sum_{i<=m} C(m+s,i) h_i g_{m+s-i}, a triangular system in
    h with pivots C(m+s,m) g_s, solved on the operands as they are.  With
    f = a/D_f and g = b/D_g, and the quotients found so far carried as
    h_i = H_i / L over the running lcm L of their reduced denominators,
    h_m = (D_g a_{m+s} L - D_f sum_{i<m} C(m+s,i) H_i b_{m+s-i})
    / (D_f L C(m+s,m) b_s), reduced before it joins them.  Carrying reduced
    quotients keeps the integers as small as the result.
    """
    s = _order(shift, "shift must be >= 0")
    if f.order < s or g.order < s:
        raise InsufficientVanishing("series too short for the requested shift")
    a, df = f.numerators()
    b, dg = g.numerators()
    for j in range(s):
        if a[j] or b[j]:
            raise InsufficientVanishing(f"coefficient of t^{j} is nonzero; cannot cancel t^{s}")
    if not s and not b[0]:
        raise DivisionByNonUnit("divisor has zero constant term")
    if not b[s]:
        raise InsufficientVanishing(f"divisor vanishes beyond t^{s}; quotient would not be a power series")
    nums: list[int] = []
    den = 1
    for m in range(min(f.order, g.order) - s + 1):
        k = m + s
        acc = 0
        for i in range(m):
            if nums[i]:  # the odd Bernoulli numbers: t/(e^t - 1) 1.5x faster at n = 200
                acc += comb(k, i) * nums[i] * b[k - i]
        top, bottom = _reduced(dg * a[k] * den - df * acc, df * den * comb(k, m) * b[s])
        if den % bottom:
            grown = lcm(den, bottom)
            nums = [v * (grown // den) for v in nums]
            den = grown
        nums.append(top * (den // bottom))
    return Egf.of(nums, den)


def _shift_down(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """nums/den divided by t, assuming c_0 vanishes: coefficient m becomes
    c_{m+1}/(m+1), over den lcm(1..N) for the order N of nums/den."""
    scale = lcm(*range(1, len(nums)))
    return [nums[m] * (scale // m) for m in range(1, len(nums))], den * scale


def egf_compose(f: Egf, g: Egf) -> Egf:
    """Composition f(g(t)), defined when g has zero constant term.

    For g = 1 - e^{-t} up to the common order N, g' = 1 - g: with
    f(u) = sum e_m u^m/m!, the t-derivative of f(g) is f'(g)(1 - g), the
    series whose coefficients are e'_m = e_{m+1} - m e_m.  So coefficient n
    of f(g) is e_0 after n such steps, the kernel ``_compose_one_minus_exp``,
    which takes f's integers as they are once g has been checked.  Any other
    g, 1 - e^{-ct} with c != 1 included, is summed as defined, with
    f = a/D_f: the integers a_m N!/m! times g^m, over D_f N!, so no
    ``Fraction`` is built, N products of O(N^2), ~30x the recurrence at
    N = 40.  No CLI command passes such a g, as
    ``test_production_composes_only_with_one_minus_exp`` checks.
    """
    c, dg = g.numerators()
    if c[0] != 0:
        raise NonNilpotentInner("inner series has nonzero constant term")
    n = min(f.order, g.order)
    a, df = f.numerators()
    u, den = lowest_terms(c[1 : n + 1], dg)
    if den == 1 and u == ((1, -1) * n)[:n]:
        return _compose_one_minus_exp(a[: n + 1], df)
    h, power = Egf.constant(a[0] * factorial(n), n), Egf.constant(1, n)
    for m in range(1, n + 1):
        power = egf_mul(power, g)
        h = egf_add(h, egf_scale(power, a[m] * factorial(n) // factorial(m)))
    nums, den = h.numerators()
    return Egf.of(nums, den * df * factorial(n))


def _compose_one_minus_exp(nums: Sequence[int], den: int) -> Egf:
    """f(1 - e^{-t}) for f = nums/den, f(u) = sum e_m u^m/m!, as
    ``egf_compose`` derives it: coefficient n is e_0 after n steps
    e_m <- e_{m+1} - m e_m, each run in place over one entry fewer, over
    f's own denominator, so the growing integers are only ever multiplied by
    the small integer m."""
    e = list(nums)
    out = [e[0]]
    for width in range(len(e) - 1, 0, -1):
        for m in range(width):
            e[m] = e[m + 1] - m * e[m]
        out.append(e[0])
    return Egf.of(out, den)


def _dilate(nums: Sequence[int], den: int, c: Ratio) -> tuple[list[int], int]:
    """The series nums/den at c t for c = (p, q), not reduced: coefficient n
    times p^n q^{N-n}, over den q^N, N = len(nums) - 1."""
    p, q = c
    tops, bottoms = integer_powers(p, len(nums) - 1), integer_powers(q, len(nums) - 1)
    return list(map(mul, map(mul, nums, tops), reversed(bottoms))), den * bottoms[-1]


def egf_exp_linear(value: RationalLike, order: int) -> Egf:
    """The exponential e^{value * t}, e^t dilated by value (requires order >= 0)."""
    return Egf.of(*_dilate([1] * (_order(order) + 1), 1, _ratio(value)))


def _integer_terms(
    terms: Iterable[tuple[int, RationalLike]],
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(weights, tops, K) for the terms (w_j, mu_j): the rates over their
    least common denominator K as mu_j = tops[j] / K.  An int rate and the
    equal ``Fraction`` give the same integers; each weight is read with
    ``operator.index``, so a float weight never keys a division table."""
    terms = tuple(terms)
    tops, den = integer_numerators([rate for _, rate in terms])
    return tuple([index(weight) for weight, _ in terms]), tuple(tops), den


def _power_sums(weights: Sequence[int], tops: Sequence[int], order: int) -> list[int]:
    """G[n] = sum_j weights[j] tops[j]^n for n = 0..order, the power sums that
    ``egf_exp_sum``, ``_division_table`` and ``polyfamily._one_minus_exp`` share."""
    sums = [0] * (order + 1)
    for weight, top in zip(weights, tops):
        sums = list(map(add, sums, accumulate(repeat(top, order), mul, initial=weight)))
    return sums


def egf_exp_sum(terms: Iterable[tuple[int, RationalLike]], order: int) -> Egf:
    """The finite sum of exponentials sum_j w_j e^{mu_j t} for (w_j, mu_j) in
    ``terms``, integer weights w_j and rational rates mu_j.

    With the rates over one denominator D (mu_j = M_j / D), coefficient n is
    sum_j w_j M_j^n / D^n: the integer power sums dilated by 1/D, so no
    series product is formed.  No terms give the zero series.  Requires
    order >= 0.  It builds each sum of exponentials that the package uses as
    a series: e^t - 1 of the Bernoulli numbers and the eq9 audit row's cosh t.
    """
    weights, tops, den = _integer_terms(terms)
    return Egf.of(*_dilate(_power_sums(weights, tops, _order(order)), 1, (1, den)))


@_memo
def _division_table(
    weights: tuple[int, ...], tops: tuple[int, ...], den: int, order: int
) -> tuple[tuple[tuple[int, ...], ...], int, int, tuple[int, ...]]:
    """(rows, lift, s, den_pow) for dividing by sum_j w_j e^{(tops[j]/K) t},
    K = den, at the given order N: everything of ``_div_exp_sum`` that
    does not depend on the numerator.

    With G_m = sum_j w_j tops[j]^m and s = G_0: rows[m] holds
    C(m,1) G_1, ..., C(m,m) G_m, built from one Pascal row at a time,
    lift = s^N and den_pow[m] = K^m.  How often the order-10 audit divides and
    builds a table is pinned by ``test_order_ten_audit_divides_once_per_divisor``.
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
    ``egf_exp_sum(terms, f.order)``, without building it: the weights, the
    rates over one denominator K, and K go as integers to the kernel
    ``_div_exp_sum``, with f dilated by K."""
    weights, tops, rate_den = _integer_terms(terms)
    return _div_exp_sum(*_dilate(*f.numerators(), (rate_den, 1)), weights, tops, rate_den)


def _div_exp_sum(
    nums: Sequence[int], den: int, weights: tuple[int, ...], tops: tuple[int, ...], rate_den: int
) -> Egf:
    """f divided by sum_j w_j e^{mu_j t}, all integers: f(Kt) = nums/den,
    the weights w_j and the rates mu_j = tops[j] / K over K = rate_den.

    Fraction-free in the manner of Bareiss: the quotient at Kt is f(Kt) over
    the integer series G_n = sum_j w_j tops[j]^n.  So f(Kt) is put in lowest
    terms once as a'/d', and with s = G_0 the weight sum the quotient at
    order N is h_n = Y_n / (d' s^{N+1} K^n) for the integers
    Y_n = s^N a'_n - (sum_{j=1..n} C(n,j) G_j Y_{n-j}) / s,
    where the division by s is exact, so no step takes a gcd or rescales an
    earlier quotient; the result is reduced once, at the end.  Everything
    but a' is one cached row table per divisor and order
    (``_division_table``), so a repeated divisor costs one inner product
    per coefficient.  A zero weight sum raises DivisionByNonUnit.
    """
    if sum(weights) == 0:
        raise DivisionByNonUnit("divisor has zero constant term")
    rows, lift, s, den_pow = _division_table(weights, tops, rate_den, len(nums) - 1)
    a, df = lowest_terms(nums, den)
    known: list[int] = []  # Y_0, Y_1, ...
    for row, coeff in zip(rows, a):
        known.append(lift * coeff - sum(map(mul, row, reversed(known))) // s)
    return Egf.of(list(map(mul, known, reversed(den_pow))), df * s * lift * den_pow[-1])


def _times_exp(a: Sequence[int], d: int, value: Ratio) -> Egf:
    """e^{(p/q) t} f for f = a/d and value = (p, q), by a Taylor shift
    (Horner's scheme): ``egf_mul`` with an e^{ct} factor, and the Euler
    shape's e^{wt}, which ``polyfamily._euler_egf`` passes as its pair.

    With f = a/d, coefficient n is sum_i C(n,i) p^{n-i} q^i a_i / (d q^n).
    So the rows start from R_0[i] = q^i a_i, and
    R_{j+1}[i] = p R_j[i] + R_j[i+1] gives coefficient n as R_n[0] / (d q^n):
    the growing integers are only ever multiplied by p.  Each row overwrites
    the one before it in place, one entry shorter.
    """
    p, q = value
    n = len(a) - 1
    q_pow = integer_powers(q, n)
    row = list(map(mul, a, q_pow))
    tops = [row[0]]
    for width in range(n, 0, -1):
        for i in range(width):
            row[i] = p * row[i] + row[i + 1]
        tops.append(row[0])
    return Egf.of(list(map(mul, tops, reversed(q_pow))), d * q_pow[n])


def det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant of a square matrix given as rows, 1 for none, by
    fraction-free (Bareiss) elimination on each row's integer numerators over
    its least common denominator d_r.  A row stands for itself times the last
    pivot over s_r, the one it last divided by; at column k, a row with
    a_rk != 0 becomes (t_k a_r - a_rk t) / s_r, exactly, for the pivot row t
    so scaled, and the others wait: O(n^2) steps if Hessenberg, else O(n^3).
    A row swap flips the sign; the result is the last pivot over prod(d_r)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSquare(f"rows of lengths {[len(row) for row in rows]} have no determinant")
    rows = [(*integer_numerators(row), 1) for row in rows]
    sign, last, den = 1, 1, prod(d for _, d, _ in rows)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][0][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        top = [v * last // rows[col][2] for v in rows[col][0]]
        last = top[col]
        for r, (row, d, scale) in enumerate(rows[col + 1 :], col + 1):
            if row[col]:
                rows[r] = [(last * v - row[col] * t) // scale for v, t in zip(row, top)], d, last
    return Fraction(sign * last, den)

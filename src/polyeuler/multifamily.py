"""Multi poly-Bernoulli/Euler sequences with optional (a,b,c) deformations.

The deformation parameters a, b, c enter every formula only through their
logarithms, so they are represented by exact rationals alpha = ln a,
beta = ln b, gamma = ln c.  Each identity in the audit registry is then a
polynomial identity in these rationals and can be certified point by point
with zero tolerance.

The right-hand-side evaluators (thm1_rhs .. addition_rhs) recompute the
registered identities' claimed expansions from more primitive sequences, read
as integer numerators off the cached Euler shape, whose keys they form as
integer (numerator, denominator) pairs in lowest terms with one gcd each
(r x, r alpha, alpha + beta, r alpha/(alpha + beta)).  They add up the printed
terms over Python ints, handed between helpers as numerators over one
denominator, into one ``Egf`` (``.coeffs`` reads its values), which the
audit compares by cross-multiplication with the family on the other side.
That side is the series ``_xab_egf`` returns, which the list families
(``multi_poly_euler*``) only turn into rationals; thm1 alone keeps the list
wrapper.  The rule that keeps the audit's two sides apart is stated once, in
``tests/test_multifamily.py::TestRightSidesLoadOnlyAllowedNames``.
thm1 and thm2 lift their numbers by (ln a + ln b)^n in one helper,
``_lift``.  thm2, cor1 and cor2 are one binomial shift each, summed term by
term; the factors of a shift that hold no series value, the binomial
coefficients times powers of the shift and of its denominator, come from
one row table per (shift, order), ``_shift_table``, a memo kept for one
``exact.cache_scope``.  The two "combined" sides shift thm2's sum
(``_thm2_sum``) once more, the printed double sum regrouped by
distributivity only, while ``tests/oracles._double_sum`` stays the literal
triple-loop reference they are tested against.

thm3_explicit and thm4_explicit are audit instruments that evaluate two
printed "explicit formulas" exactly as stated, caps and all, so the audit
can report how far their partial sums are from the series values.  Each
sums Python ints over one denominator and builds one ``Fraction``.

``LogParams`` and ``CappedSum`` are NamedTuples, not frozen dataclasses, so
that no multi-* or audit process pays for importing ``dataclasses`` and ``inspect``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .exact import Egf, Ratio, _memo, _order, _ratio, _reduced, integer_powers, lowest_terms
from .polyfamily import _bernoulli_egf, _euler_egf
from .polylog import KVector, validate_kvector


class DegenerateParams(ValueError):
    """Raised when an identity requires ln a + ln b != 0."""


class _Record:
    """Mixin for a NamedTuple record: equal only to a record of its own
    class, as a frozen dataclass is, never to a plain tuple; no instance dict."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__  # a class that defines __eq__ is otherwise unhashable


class LogParams(
    _Record,
    NamedTuple("LogParams", [("alpha", Fraction), ("beta", Fraction), ("gamma", Fraction | None)]),
):
    """Exact logarithms of the deformation parameters: alpha = ln a, etc."""

    __slots__ = ()

    def __new__(
        cls, alpha: Fraction | int, beta: Fraction | int, gamma: Fraction | int | None = None
    ) -> LogParams:
        # Only values that are not a Fraction yet go through the checked
        # ``exact._ratio``: the audit builds thousands from Fraction points.
        if type(alpha) is not Fraction:
            alpha = Fraction(*_ratio(alpha))
        if type(beta) is not Fraction:
            beta = Fraction(*_ratio(beta))
        if gamma is not None and type(gamma) is not Fraction:
            gamma = Fraction(*_ratio(gamma))
        return super().__new__(cls, alpha, beta, gamma)

    @classmethod
    def _make(cls, iterable: Iterable) -> LogParams:  # _replace builds through it too
        return cls(*iterable)


def multi_poly_bernoulli(ks: Sequence[int], order: int) -> list[Fraction]:
    """B_n^{(k_1..k_r)} from Li_{(k)}(1-e^{-t})/(1-e^{-t})^r."""
    return list(_bernoulli_egf(validate_kvector(ks), 0, order).coeffs)


def multi_poly_euler(ks: Sequence[int], x: Fraction | int, order: int) -> list[Fraction]:
    """E_n^{(k_1..k_r)}(x) from 2 Li_{(k)}(1-e^{-t})/(1+e^t)^r e^{rxt}.

    x = 0 gives the plain multi poly-Euler numbers; the first r of them
    always vanish because the numerator starts at degree r.
    """
    return list(_xab_egf(ks, x, 0, 1, order).coeffs)


def multi_poly_euler_ab(ks: Sequence[int], params: LogParams, order: int) -> list[Fraction]:
    """E_n^{(k)}(a,b) from 2 Li_{(k)}(1-(ab)^{-t})/(a^{-t}+b^t)^r.

    With alpha + beta = 0 the numerator argument 1-(ab)^{-t} collapses to 0,
    so the whole sequence is zero; no special-casing is needed because the
    denominator keeps its nonzero constant term 2^r.
    """
    return multi_poly_euler_xab(ks, 0, params, order)


def multi_poly_euler_xab(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """E_n^{(k)}(x; a, b): the two-parameter series times e^{rxt}."""
    return list(_xab_egf(ks, x, params.alpha, params.beta, order).coeffs)


def _xab_egf(
    ks: Sequence[int], x: Fraction | int, alpha: Fraction | int, beta: Fraction | int, order: int
) -> Egf:
    """E_n^{(k)}(x; a, b) as the cached series itself, the Euler shape at
    w = r x: the list families read it, and the audit compares it as it is."""
    ks = validate_kvector(ks)
    return _euler_egf(ks, _times(len(ks), x), _ratio(alpha), _ratio(beta), _order(order))


def poly_euler_abc(
    k: int, x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """E_n^{(k)}(x; a, b, c) from 2 Li_k(1-(ab)^{-t})/(a^{-t}+b^t) c^{xt}:
    the r = 1 Euler shape at w = gamma x, formed from the two pairs, as
    ``thm4_explicit`` forms it too."""
    (p, q), (g, g_den) = _ratio(x), _ratio(params.gamma or 0)
    alpha, beta = _ratio(params.alpha), _ratio(params.beta)
    w = _reduced(g * p, g_den * q)
    return list(_euler_egf(validate_kvector((k,)), w, alpha, beta, _order(order)).coeffs)


def _times(k: int, value: Fraction | int) -> Ratio:
    """k * value as a pair in lowest terms."""
    p, q = _ratio(value)
    return _reduced(k * p, q)


def _log_ratios(params: LogParams) -> tuple[Ratio, Ratio]:
    """ln a and ln a + ln b as pairs in lowest terms."""
    a, ad = _ratio(params.alpha)
    b, bd = _ratio(params.beta)
    return (a, ad), _reduced(a * bd + b * ad, ad * bd)


def _lift(v: Sequence[int], den: int, lam: Ratio, order: int) -> tuple[list[int], int]:
    """lam^n values_n for n = 0..order, over integers and not reduced.

    With values = v/D and lam = l/l' in lowest terms, term n is
    v_n l^n l'^{N-n} over D l'^N, summed here and not by the series kernel
    ``exact._dilate``.
    """
    top, bottom = integer_powers(lam[0], order), integer_powers(lam[1], order)
    return [v[n] * top[n] * bottom[order - n] for n in range(order + 1)], den * bottom[order]


def thm1_rhs(ks: Sequence[int], params: LogParams, order: int) -> Egf:
    """Registered identity thm1, right side: E_n(ln a/(ln a+ln b)) (ln a+ln b)^n,
    the plain shape at w = r ln a/(ln a+ln b) lifted by ``_lift``."""
    (a, ad), lab = _log_ratios(params)
    if lab[0] == 0:
        raise DegenerateParams("thm1 requires ln a + ln b != 0")
    ks = validate_kvector(ks)
    w = _reduced(len(ks) * a * lab[1], ad * lab[0])
    plain = _euler_egf(ks, w, (0, 1), (1, 1), _order(order)).numerators()
    return Egf.of(*_lift(*plain, lab, order))


@_memo
def _shift_table(shift: Ratio, order: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The parameter powers of ``_binomial_shift``, which hold no series value.

    With shift = s/s': the rows C(n,i) s^{n-i} s'^{N-n} for i <= n and the
    powers s'^i, for n, i = 0..N, N = order.  How many tables the order-10
    audit builds and reads is pinned by ``test_order_ten_audit_shift_table_traffic``.
    """
    s, sd = shift
    shift_pow = integer_powers(s, order)
    den_pow = integer_powers(sd, order)
    rows = tuple(
        tuple([comb(n, i) * shift_pow[n - i] * den_pow[order - n] for i in range(n + 1)])
        for n in range(order + 1)
    )
    return rows, tuple(den_pow)


def _binomial_shift(v: Sequence[int], den: int, shift: Ratio, order: int) -> tuple[list[int], int]:
    """sum_i C(n,i) shift^{n-i} values_i for n = 0..order, term by term.

    With shift = s/s' (a pair in lowest terms) and values = v/D over
    integers, term i of row n is C(n,i) s^{n-i} s'^i v_i over the row
    denominator s'^n D; every row is lifted to s'^N D, the one denominator
    of the result, which is not reduced.  The factors that do not depend on
    v come from the cached ``_shift_table``, so row n is the inner product
    of its table row with u_i = s'^i v_i.
    """
    rows, den_pow = _shift_table(shift, order)
    u = list(map(mul, den_pow, v))
    return [sum(map(mul, row, u)) for row in rows], den_pow[order] * den


def _thm2_sum(ks: KVector, s: int, params: LogParams, order: int) -> tuple[list[int], int]:
    """thm2's printed sum sum_i C(n,i) (s ln a)^{n-i} (ln a+ln b)^i E_i of the
    plain numbers E_i: the numbers lifted by ``_lift``, then one binomial
    shift by s ln a; thm2 itself takes s = r."""
    (a, ad), lab = _log_ratios(params)
    plain = _euler_egf(ks, (0, 1), (0, 1), (1, 1), _order(order)).numerators()
    return _binomial_shift(*_lift(*plain, lab, order), _reduced(s * a, ad), order)


def thm2_rhs(ks: Sequence[int], params: LogParams, order: int) -> Egf:
    """Registered identity thm2, right side: a binomial mix of the plain numbers,
    term i carrying r^{n-i} (ln a+ln b)^i (ln a)^{n-i} C(n,i) E_i."""
    ks = validate_kvector(ks)
    return Egf.of(*_thm2_sum(ks, len(ks), params, order))


def cor1_rhs(ks: Sequence[int], x: Fraction | int, params: LogParams, order: int) -> Egf:
    """Registered identity cor1, right side: sum_i C(n,i) r^{n-i} E_i(a,b) x^{n-i}."""
    ks = validate_kvector(ks)
    ab = _euler_egf(ks, (0, 1), _ratio(params.alpha), _ratio(params.beta), _order(order)).numerators()
    return Egf.of(*_binomial_shift(*ab, _times(len(ks), x), order))


def combined_rhs(ks: Sequence[int], x: Fraction | int, params: LogParams, order: int) -> Egf:
    """Registered identity "combined": the double sum obtained by feeding the
    thm2 expansion into cor1,
    sum_{k<=n} sum_{j<=k} r^{n-j} C(n,k) C(k,j) (ln a)^{k-j} (ln a+ln b)^j E_j x^{n-k}.

    Grouped as sum_k C(n,k) (r x)^{n-k} F_k with F_k thm2's sum
    ``_thm2_sum`` at s = r (r^{n-j} = r^{n-k} r^{k-j}): two binomial shifts,
    the same terms regrouped.  The printed source drops the r^{k-j} factor
    that the substitution produces (see combined_rhs_printed, which the audit
    keeps around to document the discrepancy).
    """
    ks = validate_kvector(ks)
    r = len(ks)
    return Egf.of(*_binomial_shift(*_thm2_sum(ks, r, params, order), _times(r, x), order))


def combined_rhs_printed(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> Egf:
    """The same double sum with r^{n-k} exactly as printed (audit instrument):
    F_k is thm2's sum at s = 1."""
    ks = validate_kvector(ks)
    return Egf.of(*_binomial_shift(*_thm2_sum(ks, 1, params, order), _times(len(ks), x), order))


def addition_rhs(
    ks: Sequence[int],
    x: Fraction | int,
    y: Fraction | int,
    params: LogParams,
    order: int,
) -> Egf:
    """Registered identity cor2, right side: sum_k C(n,k) r^{n-k} E_k(x;a,b) y^{n-k}."""
    ks = validate_kvector(ks)
    r = len(ks)
    alpha, beta = _ratio(params.alpha), _ratio(params.beta)
    base = _euler_egf(ks, _times(r, x), alpha, beta, _order(order)).numerators()
    return Egf.of(*_binomial_shift(*base, _times(r, y), order))


class CappedSum(_Record, NamedTuple("CappedSum", [("value", Fraction), ("skipped_terms", int)])):
    """Value of a capped formula evaluation plus the count of skipped terms
    (terms whose denominator would need division by zero)."""

    __slots__ = ()


def thm3_explicit(
    ks: Sequence[int],
    x: Fraction | int,
    n: int,
    m_cap: int,
    part_cap: int,
) -> CappedSum:
    """Capped evaluation of the registered quadruple-sum formula thm3.

    Index tuples run over 0 <= m_1 <= ... <= m_r <= m_cap (non-strict, from
    zero, exactly as stated) and compositions c_1 + c_2 + ... = r over part
    positions 1..part_cap.  The summand factors into an (m, j)-part and a
    composition part, which are summed separately; the grouping is exact.
    Both parts run over integers: the weights over L^K with L = lcm(1..m_cap)
    and K the sum of the positive indices, the compositions as counts, and
    (r x - j)^e over q^e for x = p/q, so the value is one ``Fraction``.

    The tuples are not enumerated: ending[m] sums the weights prod m_i^{-k_i}
    of those with m_r = m, one index at a time, as a running sum over the
    tuples one shorter ending at or below m.  A zero index weighs 0^{-k}: 1
    at k = 0, 0 at k < 0, undefined at k > 0, where the same recursion counts
    the tuples holding one; each skips m_r + 1 j-terms per composition and power.

    This is an audit instrument: the registry records how the value moves as
    the caps grow instead of asserting an equality.
    """
    ks = validate_kvector(ks)
    r = len(ks)
    p, q = _ratio(x)
    message = "caps must be positive and n nonnegative"
    n, m_cap = _order(n, message), _order(m_cap, message)
    part_cap = _order(part_cap - 1, message) + 1

    # A composition c_1 + ... + c_{part_cap} = r, with its multinomial
    # r!/prod c_i!, counts the ordered r-tuples of part positions 1..part_cap
    # filling position i c_i times, and its weight sum_i i c_i is their sum: so
    # the r-fold convolution counts[w] sums the multinomials of weight w.
    counts = [1]
    for _ in range(r):
        counts = [sum(counts[max(w - part_cap, 0) : w]) for w in range(len(counts) + part_cap)]
    comp_sums = [sum((-1) ** w * c * w**i for w, c in enumerate(counts)) for i in range(n + 1)]

    big = lcm(*range(1, m_cap + 1))
    ending, undefined = [1] + [0] * m_cap, [0] * (m_cap + 1)
    for k in ks:
        below = undefined_below = 0
        for m in range(m_cap + 1):
            below += ending[m]
            undefined_below += undefined[m]
            ending[m] = below * (m**-k if k <= 0 else (big // m) ** k if m else 0)
            undefined[m] = undefined_below
        if k > 0:
            undefined[0] = 1
    power_sums = [0] * (n + 1)
    for j in range(m_cap + 1):
        factor = sum(comb(m, j) * ending[m] for m in range(j, m_cap + 1))
        term = factor if j % 2 == 0 else -factor
        base = r * p - j * q
        for e in range(n + 1):
            power_sums[e] += term
            term *= base
    q_pow = integer_powers(q, n)
    total = sum(comb(n, i) * power_sums[n - i] * comp_sums[i] * q_pow[i] for i in range(n + 1))
    k_plus = sum(k for k in ks if k > 0)
    skipped = sum((m + 1) * u for m, u in enumerate(undefined)) * comb(part_cap + r - 1, r) * (n + 1)
    return CappedSum(Fraction(2 * total, big**k_plus * q_pow[n]), skipped)


THM4_VARIANTS = ("statement", "proof")


def thm4_explicit(
    k: int,
    x: Fraction | int,
    params: LogParams,
    n: int,
    variant: str,
) -> CappedSum:
    """Finite triple-sum formula thm4, in both printed variants.

    The variants differ in the multiplier of ln b inside the n-th power:
    (m-j+i+1) for "statement", (m-j+i) for "proof".  For k > 0 the j = 0
    terms, one per m, are skipped and their n + 1 reported; for k <= 0 the
    j = 0 term is defined (0^0 = 1, and 1/0^k vanishes for negative k).  The
    sum runs over integers over L^{max(k,0)} D^n, with L = lcm(1..n) and D
    the common denominator of x ln c, ln a and ln b.  The term depends on m
    only through s = m-j+i in (-1)^s P_s, P_s the n-th power, so the m-sum
    telescopes: with prefix[t] = sum_{s<t} (-1)^s P_s, the terms of (j, i)
    sum to prefix[n-j+i+1] - prefix[i].
    """
    (k,) = validate_kvector((k,))
    if variant not in THM4_VARIANTS:
        raise ValueError(f"variant must be one of {THM4_VARIANTS}, got {variant!r}")
    n = _order(n, "n must be nonnegative")
    delta = 1 if variant == "statement" else 0
    (p, q), (g, g_den) = _ratio(x), _ratio(params.gamma or 0)
    (a, a_den), (b, b_den) = _ratio(params.alpha), _ratio(params.beta)
    nums = (g * p * a_den * b_den, a * g_den * q * b_den, b * g_den * q * a_den)
    (g, a, b), den = lowest_terms(nums, g_den * q * a_den * b_den)
    prefix = [0]
    for s in range(n + 1):
        prefix.append(prefix[-1] + (-1) ** s * (g - (s + 1) * a - (s + delta) * b) ** n)
    big = lcm(*range(1, n + 1))
    total = 0
    for j in range(1 if k > 0 else 0, n + 1):
        steps = sum(comb(j, i) * (prefix[n - j + i + 1] - prefix[i]) for i in range(j + 1))
        total += ((big // j) ** k if k > 0 else j**-k) * steps
    skipped = n + 1 if k > 0 else 0
    return CappedSum(Fraction(2 * total, big ** max(k, 0) * den**n), skipped)

"""Multi poly-Bernoulli/Euler sequences with optional (a,b,c) deformations.

The deformation parameters a, b, c enter every formula only through their
logarithms, so they are represented by exact rationals alpha = ln a,
beta = ln b, gamma = ln c.  Each identity in the audit registry is then a
polynomial identity in these rationals and can be certified point by point
with zero tolerance.

The right-hand-side evaluators (thm1_rhs .. addition_rhs) recompute the
registered identities' claimed expansions from more primitive sequences,
read as integer numerators off the cached Euler shape, whose keys they
form as integer (numerator, denominator) pairs in lowest terms with one
gcd each (r x, r alpha, alpha + beta, r alpha/(alpha + beta)).  They add up
the printed terms over Python ints and return an integer-numerator ``Egf`` over
one denominator, which the audit compares by cross-multiplication with the
family on the other side.  That side is the series ``_xab_egf`` returns,
which the list families (``multi_poly_euler*``) only turn into rationals;
thm1 alone keeps the list wrapper.  The right sides never call a series
product or another right side, so the audit's two sides stay independent.
thm2, cor1 and cor2 are one binomial shift each, summed term by term; the
factors of a shift that hold no series value, the binomial coefficients
times powers of the shift and of the denominators, come from one cached row
table per (shift, scale, order), ``_shift_table``.  The two "combined" sides
are two nested shifts of the plain numbers, the printed double sum
regrouped by distributivity only, while ``tests/oracles._double_sum`` stays
the literal triple-loop reference they are tested against.

thm3_explicit and thm4_explicit are audit instruments that evaluate two
printed "explicit formulas" exactly as stated, caps and all, so the audit
can report how far their partial sums are from the series values.  Each
sums Python ints over one denominator and builds one ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Sequence

from .exact import Egf, Ratio, _ratio, _reduced, integer_numerators, integer_powers
from .polyfamily import _bernoulli_egf, _euler_egf
from .polylog import KVector, validate_kvector


class DegenerateParams(ValueError):
    """Raised when an identity requires ln a + ln b != 0."""


@dataclass(frozen=True)
class LogParams:
    """Exact logarithms of the deformation parameters: alpha = ln a, etc."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction | None = None

    def __post_init__(self) -> None:
        # Only values that are not a Fraction yet go through the checked
        # ``exact._ratio``: the audit builds thousands from Fraction points.
        if type(self.alpha) is not Fraction:
            object.__setattr__(self, "alpha", Fraction(*_ratio(self.alpha)))
        if type(self.beta) is not Fraction:
            object.__setattr__(self, "beta", Fraction(*_ratio(self.beta)))
        if self.gamma is not None and type(self.gamma) is not Fraction:
            object.__setattr__(self, "gamma", Fraction(*_ratio(self.gamma)))


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
    return _euler_egf(ks, _times(len(ks), x), _ratio(alpha), _ratio(beta), order)


def poly_euler_abc(
    k: int, x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """E_n^{(k)}(x; a, b, c) from 2 Li_k(1-(ab)^{-t})/(a^{-t}+b^t) c^{xt}:
    the r = 1 series at argument gamma x."""
    gamma_x = (params.gamma or 0) * Fraction(*_ratio(x))
    return list(_xab_egf((k,), gamma_x, params.alpha, params.beta, order).coeffs)


def _times(k: int, value: Fraction | int) -> Ratio:
    """k * value as a pair in lowest terms."""
    p, q = _ratio(value)
    return _reduced(k * p, q)


def _log_ratios(params: LogParams) -> tuple[Ratio, Ratio]:
    """ln a and ln a + ln b as pairs in lowest terms."""
    a, ad = _ratio(params.alpha)
    b, bd = _ratio(params.beta)
    return (a, ad), _reduced(a * bd + b * ad, ad * bd)


def thm1_rhs(ks: Sequence[int], params: LogParams, order: int) -> Egf:
    """Registered identity thm1, right side: E_n(ln a/(ln a+ln b)) (ln a+ln b)^n.

    With E_n = v_n / D and ln a+ln b = l/l', term n is v_n l^n l'^{N-n}
    over D l'^N.
    """
    (a, ad), (lab, lab_den) = _log_ratios(params)
    if lab == 0:
        raise DegenerateParams("thm1 requires ln a + ln b != 0")
    ks = validate_kvector(ks)
    w = _reduced(len(ks) * a * lab_den, ad * lab)
    v, den = _euler_egf(ks, w, (0, 1), (1, 1), order).numerators()
    top = integer_powers(lab, order)
    bottom = integer_powers(lab_den, order)
    nums = (v[n] * top[n] * bottom[order - n] for n in range(order + 1))
    return Egf.of(nums, den * bottom[order])


@lru_cache(maxsize=64)
def _shift_table(
    shift: Ratio, scale: Ratio, order: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """The parameter powers of ``_binomial_shift``, which hold no series value.

    With shift = s/s' and scale = c/c': the rows
    C(n,i) (s c')^{n-i} (s' c')^{N-n} for i <= n, the powers (c s')^i and
    the denominator (s' c')^N, for n = 0..N, N = order.
    """
    (s, sd), (c, cd) = shift, scale
    shift_pow = integer_powers(s * cd, order)
    row_den = integer_powers(sd * cd, order)
    rows = tuple(
        tuple([comb(n, i) * shift_pow[n - i] * row_den[order - n] for i in range(n + 1)])
        for n in range(order + 1)
    )
    return rows, tuple(integer_powers(c * sd, order)), row_den[order]


def _binomial_shift(
    values: tuple[Sequence[int], int], shift: Ratio, scale: Ratio, order: int
) -> Egf:
    """sum_i C(n,i) shift^{n-i} scale^i values_i for n = 0..order, term by term.

    With shift = s/s', scale = c/c' (pairs in lowest terms) and
    values = v/D over integers, term i of row n is
    C(n,i) (s c')^{n-i} (c s')^i v_i over the row denominator (s' c')^n D;
    every row is lifted to (s' c')^N D, the one denominator of the result.
    The factors that do not depend on v come from the cached
    ``_shift_table``, so row n is the inner product of its table row with
    u_i = (c s')^i v_i.
    """
    v, den = values
    rows, scale_pow, top_den = _shift_table(shift, scale, order)
    u = list(map(mul, scale_pow, v))
    return Egf.of([sum(map(mul, row, u)) for row in rows], top_den * den)


def thm2_rhs(ks: Sequence[int], params: LogParams, order: int) -> Egf:
    """Registered identity thm2, right side: a binomial mix of the plain numbers.

    Term i carries r^{n-i} (ln a+ln b)^i (ln a)^{n-i} C(n,i) E_i, summed over
    integers with one denominator.
    """
    ks = validate_kvector(ks)
    (a, ad), lab = _log_ratios(params)
    plain = _euler_egf(ks, (0, 1), (0, 1), (1, 1), order).numerators()
    return _binomial_shift(plain, _reduced(len(ks) * a, ad), lab, order)


def cor1_rhs(ks: Sequence[int], x: Fraction | int, params: LogParams, order: int) -> Egf:
    """Registered identity cor1, right side: sum_i C(n,i) r^{n-i} E_i(a,b) x^{n-i}."""
    ks = validate_kvector(ks)
    ab = _euler_egf(ks, (0, 1), _ratio(params.alpha), _ratio(params.beta), order).numerators()
    return _binomial_shift(ab, _times(len(ks), x), (1, 1), order)


def _combined_sum(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int, printed: bool
) -> Egf:
    """sum_{k<=n} sum_{j<=k} r^e C(n,k) C(k,j) (ln a)^{k-j} (ln a+ln b)^j E_j x^{n-k}
    with e = n-k when ``printed`` and e = n-j otherwise.

    Grouped as sum_k C(n,k) (r x)^{n-k} F_k with
    F_k = sum_j C(k,j) (s ln a)^{k-j} (ln a+ln b)^j E_j, where s = 1 when
    ``printed`` and s = r otherwise (r^{n-j} = r^{n-k} r^{k-j}): two
    binomial shifts, the same terms regrouped.
    """
    ks = validate_kvector(ks)
    r = len(ks)
    (a, ad), lab = _log_ratios(params)
    plain = _euler_egf(ks, (0, 1), (0, 1), (1, 1), order).numerators()
    alpha = (a, ad) if printed else _reduced(r * a, ad)
    inner = _binomial_shift(plain, alpha, lab, order)
    return _binomial_shift(inner.numerators(), _times(r, x), (1, 1), order)


def combined_rhs(ks: Sequence[int], x: Fraction | int, params: LogParams, order: int) -> Egf:
    """Registered identity "combined": the double sum obtained by feeding the
    thm2 expansion into cor1.

    The inner term carries r^{n-j}; the printed source drops the r^{k-j}
    factor that the substitution produces (see combined_rhs_printed, which
    the audit keeps around to document the discrepancy).
    """
    return _combined_sum(ks, x, params, order, printed=False)


def combined_rhs_printed(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> Egf:
    """The same double sum with r^{n-k} exactly as printed (audit instrument)."""
    return _combined_sum(ks, x, params, order, printed=True)


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
    base = _euler_egf(ks, _times(r, x), alpha, beta, order).numerators()
    return _binomial_shift(base, _times(r, y), (1, 1), order)


@dataclass(frozen=True)
class CappedSum:
    """Value of a capped formula evaluation plus the count of skipped terms
    (terms whose denominator would need division by zero)."""

    value: Fraction
    skipped_terms: int


def _index_tuple_weight(ms: tuple[int, ...], ks: KVector, big: int) -> int | None:
    """big^K / (m_1^{k_1} ... m_r^{k_r}) with 0^0 = 1 and K the sum of the
    positive k_i, an integer when big is a multiple of every nonzero m_i;
    None when a zero index meets a positive exponent (the genuinely
    undefined case)."""
    weight = 1
    for m, k in zip(ms, ks):
        if m == 0:
            if k > 0:
                return None
            if k < 0:
                weight = 0
        elif k > 0:
            weight *= (big // m) ** k
        else:
            weight *= m**-k
    return weight


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
    and K the sum of the positive indices, the compositions over r!, and
    (r x - j)^e over q^e for x = p/q, so the value is one ``Fraction``.

    This is an audit instrument: the registry records how the value moves as
    the caps grow instead of asserting an equality.
    """
    ks = validate_kvector(ks)
    r = len(ks)
    p, q = _ratio(x)
    if part_cap < 1 or m_cap < 0 or n < 0:
        raise ValueError("caps must be positive and n nonnegative")

    # A composition c_1 + ... + c_{part_cap} = r is the multiset of the r part
    # positions it fills, c_i being the multiplicity of position i, so its
    # weight sum_i i c_i is the sum of the multiset.
    comps = list(combinations_with_replacement(range(1, part_cap + 1), r))
    r_factorial = factorial(r)
    comp_sums = [0] * (n + 1)
    for comp in comps:
        w = sum(comp)
        denom = prod(factorial(comp.count(pos)) for pos in set(comp))
        multinomial = (-1 if w % 2 else 1) * (r_factorial // denom)
        for i in range(n + 1):
            comp_sums[i] += multinomial * w**i

    # The (m, j) term depends on the index tuple only through its weight and
    # m_r, so the weights are summed per m_r and the coefficient of each
    # power (r p - j q)^e is formed once per j.
    big = lcm(*range(1, m_cap + 1))
    last_sums = [0] * (m_cap + 1)
    skipped = 0
    for ms in combinations_with_replacement(range(m_cap + 1), r):
        weight = _index_tuple_weight(ms, ks, big)
        if weight is None:
            skipped += (ms[-1] + 1) * len(comps) * (n + 1)
            continue
        last_sums[ms[-1]] += weight
    power_sums = [0] * (n + 1)
    for j in range(m_cap + 1):
        factor = sum(comb(m, j) * last_sums[m] for m in range(j, m_cap + 1))
        if not factor:
            continue
        term = factor if j % 2 == 0 else -factor
        base = r * p - j * q
        for e in range(n + 1):
            power_sums[e] += term
            term *= base
    q_pow = integer_powers(q, n)
    total = sum(comb(n, i) * power_sums[n - i] * comp_sums[i] * q_pow[i] for i in range(n + 1))
    k_plus = sum(k for k in ks if k > 0)
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
    (m-j+i+1) for "statement", (m-j+i) for "proof".  Terms with j = 0 and
    k > 0 are skipped and tallied; for k <= 0 the j = 0 term is defined
    (0^0 = 1, and 1/0^k vanishes for negative k).  The sum runs over
    integers over L^{max(k,0)} D^n, with L = lcm(1..n) and D the common
    denominator of x ln c, ln a and ln b; the n-th power depends on (m, j, i)
    only through s = m-j+i and is taken once per s.
    """
    (k,) = validate_kvector((k,))
    if variant not in THM4_VARIANTS:
        raise ValueError(f"variant must be one of {THM4_VARIANTS}, got {variant!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    delta = 1 if variant == "statement" else 0
    shift = Fraction(*_ratio(x)) * (params.gamma or 0)
    (g, a, b), den = integer_numerators((shift, params.alpha, params.beta))
    powers = [(g - (s + 1) * a - (s + delta) * b) ** n for s in range(n + 1)]
    big = lcm(*range(1, n + 1))
    total = 0
    skipped = 0
    for m in range(n + 1):
        for j in range(m + 1):
            weight = _index_tuple_weight((j,), (k,), big)
            if weight is None:
                skipped += 1
                continue
            if not weight:
                continue
            for i in range(j + 1):
                s = m - j + i
                term = weight * comb(j, i) * powers[s]
                total += -term if s % 2 else term
    return CappedSum(Fraction(2 * total, big ** max(k, 0) * den**n), skipped)

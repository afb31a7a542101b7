"""Multi poly-Bernoulli/Euler sequences with optional (a,b,c) deformations.

The deformation parameters a, b, c enter every formula only through their
logarithms, so they are represented by exact rationals alpha = ln a,
beta = ln b, gamma = ln c.  Each identity in the audit registry is then a
polynomial identity in these rationals and can be certified point by point
with zero tolerance.

The right-hand-side evaluators (thm1_rhs .. addition_rhs) recompute the
registered identities' claimed expansions from more primitive sequences.
They add up every printed term, over Python ints with one denominator per
coefficient, and never call a series product or another right side, so the
audit's two sides stay independent; thm3_explicit and thm4_explicit are audit instruments that evaluate two
printed "explicit formulas" exactly as stated, caps and all, so the audit
can report how far their partial sums are from the series values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Sequence

from .exact import integer_numerators, integer_powers
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
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", Fraction(self.gamma))

    @property
    def log_ab(self) -> Fraction:
        return self.alpha + self.beta


def multi_poly_bernoulli(ks: Sequence[int], order: int) -> list[Fraction]:
    """B_n^{(k_1..k_r)} from Li_{(k)}(1-e^{-t})/(1-e^{-t})^r."""
    return list(_bernoulli_egf(validate_kvector(ks), Fraction(0), order).coeffs)


def multi_poly_euler(ks: Sequence[int], x: Fraction | int, order: int) -> list[Fraction]:
    """E_n^{(k_1..k_r)}(x) from 2 Li_{(k)}(1-e^{-t})/(1+e^t)^r e^{rxt}.

    x = 0 gives the plain multi poly-Euler numbers; the first r of them
    always vanish because the numerator starts at degree r.
    """
    ks = validate_kvector(ks)
    return list(_euler_egf(ks, len(ks) * Fraction(x), Fraction(0), Fraction(1), order).coeffs)


def multi_poly_euler_ab(ks: Sequence[int], params: LogParams, order: int) -> list[Fraction]:
    """E_n^{(k)}(a,b) from 2 Li_{(k)}(1-(ab)^{-t})/(a^{-t}+b^t)^r.

    With alpha + beta = 0 the numerator argument 1-(ab)^{-t} collapses to 0,
    so the whole sequence is zero; no special-casing is needed because the
    denominator keeps its nonzero constant term 2^r.
    """
    return multi_poly_euler_xab(ks, Fraction(0), params, order)


def multi_poly_euler_xab(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """E_n^{(k)}(x; a, b): the two-parameter series times e^{rxt}."""
    ks = validate_kvector(ks)
    return list(_euler_egf(ks, len(ks) * Fraction(x), params.alpha, params.beta, order).coeffs)


def poly_euler_abc(
    k: int, x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """E_n^{(k)}(x; a, b, c) from 2 Li_k(1-(ab)^{-t})/(a^{-t}+b^t) c^{xt}."""
    gamma = params.gamma if params.gamma is not None else Fraction(0)
    return list(_euler_egf((k,), gamma * Fraction(x), params.alpha, params.beta, order).coeffs)


@dataclass(frozen=True)
class MultiPolyEulerSpec:
    """One fully-specified sequence request (used by the CLI front end)."""

    ks: KVector
    x: Fraction
    params: LogParams | None
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", validate_kvector(self.ks))
        object.__setattr__(self, "x", Fraction(self.x))
        if self.order < 0:
            raise ValueError("order must be >= 0")

    def evaluate(self) -> list[Fraction]:
        if self.params is None:
            return multi_poly_euler(self.ks, self.x, self.order)
        if self.params.gamma is None:
            return multi_poly_euler_xab(self.ks, self.x, self.params, self.order)
        if len(self.ks) != 1:
            raise ValueError("the three-parameter family is defined for a single index")
        return poly_euler_abc(self.ks[0], self.x, self.params, self.order)


def thm1_rhs(ks: Sequence[int], params: LogParams, order: int) -> list[Fraction]:
    """Registered identity thm1, right side: E_n(ln a/(ln a+ln b)) (ln a+ln b)^n."""
    if params.log_ab == 0:
        raise DegenerateParams("thm1 requires ln a + ln b != 0")
    plain = multi_poly_euler(ks, params.alpha / params.log_ab, order)
    return [plain[n] * params.log_ab**n for n in range(order + 1)]


def _binomial_shift(
    values: Sequence[Fraction], shift: Fraction, scale: Fraction, order: int
) -> list[Fraction]:
    """sum_i C(n,i) shift^{n-i} scale^i values_i for n = 0..order, term by term.

    With shift = s/s', scale = c/c' and values = v/D over integers, term i
    of row n is C(n,i) (s c')^{n-i} (c s')^i v_i over the row denominator
    (s' c')^n D, so each row builds a single ``Fraction``.
    """
    v, den = integer_numerators(values[: order + 1])
    s, sd = shift.numerator, shift.denominator
    c, cd = scale.numerator, scale.denominator
    shift_pow = integer_powers(s * cd, order)
    scale_pow = integer_powers(c * sd, order)
    row_den = integer_powers(sd * cd, order)
    out = []
    for n in range(order + 1):
        total = 0
        for i in range(n + 1):
            if v[i]:
                total += comb(n, i) * shift_pow[n - i] * scale_pow[i] * v[i]
        out.append(Fraction(total, row_den[n] * den))
    return out


def thm2_rhs(ks: Sequence[int], params: LogParams, order: int) -> list[Fraction]:
    """Registered identity thm2, right side: a binomial mix of the plain numbers.

    Term i carries r^{n-i} (ln a+ln b)^i (ln a)^{n-i} C(n,i) E_i, summed over
    integers with one denominator per n.
    """
    r = len(validate_kvector(ks))
    plain = multi_poly_euler(ks, Fraction(0), order)
    return _binomial_shift(plain, r * params.alpha, params.log_ab, order)


def cor1_rhs(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """Registered identity cor1, right side: sum_i C(n,i) r^{n-i} E_i(a,b) x^{n-i}."""
    r = len(validate_kvector(ks))
    ab = multi_poly_euler_ab(ks, params, order)
    return _binomial_shift(ab, r * Fraction(x), Fraction(1), order)


def _combined_sum(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int, printed: bool
) -> list[Fraction]:
    """sum_{k<=n} sum_{j<=k} r^e C(n,k) C(k,j) (ln a)^{k-j} (ln a+ln b)^j E_j x^{n-k}
    with e = n-k when ``printed`` and e = n-j otherwise.

    Every (n, k, j) term is summed over integers: with x = p/p', ln a = q/q'
    and ln a+ln b = l/l', the powers are rescaled to the row denominator
    (p' q' l')^n D, where D is the common denominator of the E_j.
    """
    r = len(validate_kvector(ks))
    x = Fraction(x)
    plain, den = integer_numerators(multi_poly_euler(ks, Fraction(0), order))
    p, pd = x.numerator, x.denominator
    q, qd = params.alpha.numerator, params.alpha.denominator
    lab, ld = params.log_ab.numerator, params.log_ab.denominator
    r_pow = integer_powers(r, order)
    x_pow = integer_powers(p * qd * ld, order)
    alpha_pow = integer_powers(q * pd * ld, order)
    log_ab_pow = integer_powers(lab * pd * qd, order)
    row_den = integer_powers(pd * qd * ld, order)
    out = []
    for n in range(order + 1):
        total = 0
        for k in range(n + 1):
            for j in range(k + 1):
                if plain[j]:
                    total += (
                        r_pow[n - k if printed else n - j]
                        * comb(n, k)
                        * comb(k, j)
                        * alpha_pow[k - j]
                        * log_ab_pow[j]
                        * plain[j]
                        * x_pow[n - k]
                    )
        out.append(Fraction(total, row_den[n] * den))
    return out


def combined_rhs(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """Registered identity "combined": the double sum obtained by feeding the
    thm2 expansion into cor1.

    The inner term carries r^{n-j}; the printed source drops the r^{k-j}
    factor that the substitution produces (see combined_rhs_printed, which
    the audit keeps around to document the discrepancy).
    """
    return _combined_sum(ks, x, params, order, printed=False)


def combined_rhs_printed(
    ks: Sequence[int], x: Fraction | int, params: LogParams, order: int
) -> list[Fraction]:
    """The same double sum with r^{n-k} exactly as printed (audit instrument)."""
    return _combined_sum(ks, x, params, order, printed=True)


def addition_rhs(
    ks: Sequence[int],
    x: Fraction | int,
    y: Fraction | int,
    params: LogParams,
    order: int,
) -> list[Fraction]:
    """Registered identity cor2, right side: sum_k C(n,k) r^{n-k} E_k(x;a,b) y^{n-k}."""
    r = len(validate_kvector(ks))
    base = multi_poly_euler_xab(ks, x, params, order)
    return _binomial_shift(base, r * Fraction(y), Fraction(1), order)


@dataclass(frozen=True)
class CappedSum:
    """Value of a capped formula evaluation plus the count of skipped terms
    (terms whose denominator would need division by zero)."""

    value: Fraction
    skipped_terms: int


@lru_cache(maxsize=256)
def _compositions(total: int, positions: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of ``positions`` nonnegative integers summing to ``total``."""
    if positions == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, positions - 1):
            out.append((first,) + rest)
    return tuple(out)


def _index_tuple_weight(ms: tuple[int, ...], ks: KVector) -> Fraction | None:
    """1 / (m_1^{k_1} ... m_r^{k_r}) with 0^0 = 1; None when a zero index
    meets a positive exponent (the genuinely undefined case)."""
    weight = Fraction(1)
    for m, k in zip(ms, ks):
        if m == 0:
            if k > 0:
                return None
            if k < 0:
                weight *= 0
        else:
            weight /= Fraction(m) ** k
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

    This is an audit instrument: the registry records how the value moves as
    the caps grow instead of asserting an equality.
    """
    ks = validate_kvector(ks)
    r = len(ks)
    x = Fraction(x)
    if part_cap < 1 or m_cap < 0 or n < 0:
        raise ValueError("caps must be positive and n nonnegative")

    comps = _compositions(r, part_cap)
    comp_sums = [Fraction(0)] * (n + 1)
    for comp in comps:
        w = sum((idx + 1) * c for idx, c in enumerate(comp))
        denom = 1
        for c in comp:
            denom *= factorial(c)
        sign = -1 if w % 2 else 1
        for i in range(n + 1):
            comp_sums[i] += Fraction(sign * w**i, denom)

    # The (m, j) term depends on the index tuple only through its weight and
    # m_r, so the weights are summed per m_r and the coefficient of each
    # power (r x - j)^e is formed once per j.
    last_sums = [Fraction(0)] * (m_cap + 1)
    skipped = 0
    for ms in combinations_with_replacement(range(m_cap + 1), r):
        weight = _index_tuple_weight(ms, ks)
        if weight is None:
            skipped += (ms[-1] + 1) * len(comps) * (n + 1)
            continue
        last_sums[ms[-1]] += weight
    power_sums = [Fraction(0)] * (n + 1)
    for j in range(m_cap + 1):
        factor = sum(comb(m, j) * last_sums[m] for m in range(j, m_cap + 1))
        if not factor:
            continue
        term = factor if j % 2 == 0 else -factor
        base = r * x - j
        for e in range(n + 1):
            power_sums[e] += term
            term *= base
    total = Fraction(0)
    for i in range(n + 1):
        total += 2 * factorial(r) * comb(n, i) * power_sums[n - i] * comp_sums[i]
    return CappedSum(total, skipped)


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
    (0^0 = 1, and 1/0^k vanishes for negative k).
    """
    if variant not in THM4_VARIANTS:
        raise ValueError(f"variant must be one of {THM4_VARIANTS}, got {variant!r}")
    delta = 1 if variant == "statement" else 0
    x = Fraction(x)
    gamma = params.gamma if params.gamma is not None else Fraction(0)
    total = Fraction(0)
    skipped = 0
    for m in range(n + 1):
        for j in range(m + 1):
            for i in range(j + 1):
                if j == 0:
                    if k > 0:
                        skipped += 1
                        continue
                    inv_jk = Fraction(1) if k == 0 else Fraction(0)
                else:
                    inv_jk = 1 / Fraction(j) ** k
                if inv_jk == 0:
                    continue
                sign = -1 if (m - j + i) % 2 else 1
                base = (
                    x * gamma
                    - (m - j + i + 1) * params.alpha
                    - (m - j + i + delta) * params.beta
                )
                total += 2 * sign * inv_jk * comb(j, i) * base**n
    return CappedSum(total, skipped)

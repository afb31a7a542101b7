"""Independent reference implementations used as test oracles.

Everything here works on ordinary power-series coefficients (plain a_n, not
the n!-scaled values the package stores) and uses naive algorithms: direct
convolution, long division, term-by-term composition, cofactor determinants,
literal multiple sums.  The point is that none of this shares a code path
with the package, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial


def ord_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def ord_add(a, b, order):
    pad = lambda s, n: s[n] if n < len(s) else Fraction(0)
    return [pad(a, n) + pad(b, n) for n in range(order + 1)]


def ord_scale(a, c, order):
    return [Fraction(c) * (a[n] if n < len(a) else Fraction(0)) for n in range(order + 1)]


def ord_div(a, b, order):
    if b[0] == 0:
        raise ZeroDivisionError("constant term of divisor is zero")
    q = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        s = a[n] if n < len(a) else Fraction(0)
        for i in range(n):
            s -= q[i] * (b[n - i] if n - i < len(b) else Fraction(0))
        q[n] = s / b[0]
    return q


def ord_pow(a, r, order):
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(r):
        out = ord_mul(out, a, order)
    return out


def ord_compose(outer, inner, order):
    assert inner[0] == 0
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(order + 1):
        am = outer[m] if m < len(outer) else Fraction(0)
        if am:
            for n in range(order + 1):
                out[n] += am * power[n]
        power = ord_mul(power, inner, order)
    return out


def ord_exp(value, order):
    """Ordinary coefficients of e^{value t}."""
    return [Fraction(value) ** n / factorial(n) for n in range(order + 1)]


def one(order):
    return [Fraction(1)] + [Fraction(0)] * order


def one_minus_exp(value, order):
    return ord_add(one(order), ord_scale(ord_exp(value, order), -1, order), order)


def egf_from_ord(a):
    return [a[n] * factorial(n) for n in range(len(a))]


def multi_li_ordinary(ks, order):
    """Coefficient list of the nested polylogarithm sum, by direct enumeration."""
    out = [Fraction(0)] * (order + 1)
    for ms in combinations(range(1, order + 1), len(ks)):
        term = Fraction(1)
        for m, k in zip(ms, ks):
            term /= Fraction(m) ** k
        out[ms[-1]] += term
    return out


def multi_poly_euler_egf(ks, x, order):
    """EGF coefficients of 2 Li_{(ks)}(1-e^{-t})/(1+e^t)^r e^{rxt}."""
    r = len(ks)
    num = ord_scale(ord_compose(multi_li_ordinary(ks, order), one_minus_exp(-1, order), order), 2, order)
    den = ord_pow(ord_add(one(order), ord_exp(1, order), order), r, order)
    q = ord_mul(ord_div(num, den, order), ord_exp(Fraction(r) * Fraction(x), order), order)
    return egf_from_ord(q)


def multi_poly_euler_xab_egf(ks, x, alpha, beta, order):
    """EGF coefficients of 2 Li_{(ks)}(1-(ab)^{-t})/(a^{-t}+b^t)^r e^{rxt}."""
    r = len(ks)
    lam = Fraction(alpha) + Fraction(beta)
    num = ord_scale(ord_compose(multi_li_ordinary(ks, order), one_minus_exp(-lam, order), order), 2, order)
    den = ord_pow(ord_add(ord_exp(-Fraction(alpha), order), ord_exp(Fraction(beta), order), order), r, order)
    q = ord_mul(ord_div(num, den, order), ord_exp(Fraction(r) * Fraction(x), order), order)
    return egf_from_ord(q)


def poly_euler_abc_egf(k, x, alpha, beta, gamma, order):
    lam = Fraction(alpha) + Fraction(beta)
    num = ord_scale(ord_compose(multi_li_ordinary((k,), order), one_minus_exp(-lam, order), order), 2, order)
    den = ord_add(ord_exp(-Fraction(alpha), order), ord_exp(Fraction(beta), order), order)
    q = ord_mul(ord_div(num, den, order), ord_exp(Fraction(gamma) * Fraction(x), order), order)
    return egf_from_ord(q)


def thm2_sum(ks, alpha, beta, order):
    """sum_i C(n,i) r^{n-i} (alpha+beta)^i alpha^{n-i} E_i over the plain numbers."""
    r = len(ks)
    alpha, lam = Fraction(alpha), Fraction(alpha) + Fraction(beta)
    plain = multi_poly_euler_egf(ks, 0, order)
    return [
        sum(
            (Fraction(r) ** (n - i) * lam**i * alpha ** (n - i) * comb(n, i) * plain[i]
             for i in range(n + 1)),
            Fraction(0),
        )
        for n in range(order + 1)
    ]


def cor1_sum(ks, x, alpha, beta, order):
    """sum_i C(n,i) r^{n-i} E_i(a,b) x^{n-i}."""
    r, x = len(ks), Fraction(x)
    ab = multi_poly_euler_xab_egf(ks, 0, alpha, beta, order)
    return [
        sum((comb(n, i) * Fraction(r) ** (n - i) * ab[i] * x ** (n - i) for i in range(n + 1)),
            Fraction(0))
        for n in range(order + 1)
    ]


def addition_sum(ks, x, y, alpha, beta, order):
    """sum_k C(n,k) r^{n-k} E_k(x;a,b) y^{n-k}."""
    r, y = len(ks), Fraction(y)
    base = multi_poly_euler_xab_egf(ks, x, alpha, beta, order)
    return [
        sum((comb(n, k) * Fraction(r) ** (n - k) * base[k] * y ** (n - k) for k in range(n + 1)),
            Fraction(0))
        for n in range(order + 1)
    ]


def _double_sum(ks, x, alpha, beta, order, r_exponent):
    r, x = len(ks), Fraction(x)
    alpha, lam = Fraction(alpha), Fraction(alpha) + Fraction(beta)
    plain = multi_poly_euler_egf(ks, 0, order)
    out = []
    for n in range(order + 1):
        total = Fraction(0)
        for k in range(n + 1):
            for j in range(k + 1):
                total += (
                    Fraction(r) ** r_exponent(n, k, j)
                    * comb(n, k)
                    * comb(k, j)
                    * alpha ** (k - j)
                    * lam**j
                    * plain[j]
                    * x ** (n - k)
                )
        out.append(total)
    return out


def combined_sum(ks, x, alpha, beta, order):
    """The thm2-into-cor1 double sum with r^{n-j}."""
    return _double_sum(ks, x, alpha, beta, order, lambda n, k, j: n - j)


def combined_sum_printed(ks, x, alpha, beta, order):
    """The same double sum with r^{n-k}, as printed."""
    return _double_sum(ks, x, alpha, beta, order, lambda n, k, j: n - k)


def multi_poly_bernoulli_egf(ks, order):
    """EGF coefficients of Li_{(ks)}(1-e^{-t})/(1-e^{-t})^r via t^r cancellation."""
    r = len(ks)
    work = order + r
    inner = one_minus_exp(-1, work)
    num = ord_compose(multi_li_ordinary(ks, work), inner, work)
    den = ord_pow(inner, r, work)
    q = ord_div(num[r:], den[r:], order)
    return egf_from_ord(q)


def poly_bernoulli_egf(k, x, order):
    """EGF coefficients of Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}."""
    plain = [c / factorial(n) for n, c in enumerate(multi_poly_bernoulli_egf((k,), order))]
    return egf_from_ord(ord_mul(plain, ord_exp(x, order), order))


def poly_euler_sasaki_egf(k, order):
    """EGF coefficients of Li_k(1-e^{-4t})/(4t cosh t) via t cancellation."""
    work = order + 1
    num = ord_compose(multi_li_ordinary((k,), work), one_minus_exp(-4, work), work)
    cosh = [Fraction(1, factorial(n)) if n % 2 == 0 else Fraction(0) for n in range(work)]
    return egf_from_ord(ord_div(num[1:], ord_scale(cosh, 4, order), order))


def stirling2(n, m):
    """S(n, m) by the explicit formula (1/m!) sum_i (-1)^{m-i} C(m, i) i^n."""
    return sum((-1) ** (m - i) * comb(m, i) * i**n for i in range(m + 1)) // factorial(m)


def lonesum_count(n, k):
    """Lonesum n x k matrices: bucket all 2^(nk) of them by the pair
    (row-sum vector, column-sum vector) and count the singleton buckets."""
    row_bits = [tuple((v >> j) & 1 for j in range(k)) for v in range(1 << k)]
    buckets = Counter()
    for rows in product(range(1 << k), repeat=n):
        rowsums = tuple(sum(row_bits[v]) for v in rows)
        colsums = tuple(sum(row_bits[v][j] for v in rows) for j in range(k))
        buckets[(rowsums, colsums)] += 1
    return sum(1 for size in buckets.values() if size == 1)


def cofactor_det(rows):
    """Determinant by literal cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * Fraction(head) * cofactor_det(minor)
    return total


def tanh_ordinary(order):
    """Ordinary coefficients of tanh t = sinh t / cosh t."""
    sinh = [Fraction(1, factorial(n)) if n % 2 else Fraction(0) for n in range(order + 1)]
    cosh = [Fraction(1, factorial(n)) if n % 2 == 0 else Fraction(0) for n in range(order + 1)]
    return ord_div(sinh, cosh, order)


def thm3_quadruple_sum(ks, x, n, m_cap, part_cap):
    """Literal transcription of the capped quadruple sum (no factoring).

    Returns (value, skipped) exactly like the package's evaluator; used to
    check that the package's factored summation is a pure regrouping.
    """
    from itertools import combinations_with_replacement

    def compositions(total, positions):
        if positions == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, positions - 1):
                yield (first,) + rest

    r = len(ks)
    x = Fraction(x)
    total = Fraction(0)
    skipped = 0
    comps = list(compositions(r, part_cap))
    for ms in combinations_with_replacement(range(m_cap + 1), r):
        undefined = any(m == 0 and k > 0 for m, k in zip(ms, ks))
        if undefined:
            skipped += (ms[-1] + 1) * len(comps) * (n + 1)
            continue
        weight = Fraction(1)
        for m, k in zip(ms, ks):  # m == 0 here implies k <= 0
            if m == 0:
                weight *= Fraction(1) if k == 0 else Fraction(0)
            else:
                weight /= Fraction(m) ** k
        for comp in comps:
            w = sum((idx + 1) * c for idx, c in enumerate(comp))
            cdenom = 1
            for c in comp:
                cdenom *= factorial(c)
            for j in range(ms[-1] + 1):
                for i in range(n + 1):
                    total += (
                        Fraction(2)
                        * (Fraction(r) * x - j) ** (n - i)
                        * factorial(r)
                        * Fraction(-1) ** (j + w)
                        * Fraction(w) ** i
                        * comb(ms[-1], j)
                        * comb(n, i)
                        / cdenom
                        * weight
                    )
    return total, skipped


def thm3_explicit_sum(ks, x, n, m_cap, part_cap):
    """The factored thm3 evaluation with one power term per (ms, j, e).

    A copy of the package loop before it grouped the index tuples by j: the
    composition part and the (m, j) part are summed separately, and every
    index tuple adds C(m_r, j) (-1)^j weight (r x - j)^e on its own.
    Returns (value, skipped).
    """
    from itertools import combinations_with_replacement

    def compositions(total, positions):
        if positions == 1:
            return [(total,)]
        return [
            (first,) + rest
            for first in range(total + 1)
            for rest in compositions(total - first, positions - 1)
        ]

    r = len(ks)
    x = Fraction(x)
    comps = compositions(r, part_cap)
    comp_sums = [Fraction(0)] * (n + 1)
    for comp in comps:
        w = sum((idx + 1) * c for idx, c in enumerate(comp))
        denom = 1
        for c in comp:
            denom *= factorial(c)
        for i in range(n + 1):
            comp_sums[i] += Fraction((-1) ** w * w**i, denom)

    power_sums = [Fraction(0)] * (n + 1)
    skipped = 0
    for ms in combinations_with_replacement(range(m_cap + 1), r):
        if any(m == 0 and k > 0 for m, k in zip(ms, ks)):
            skipped += (ms[-1] + 1) * len(comps) * (n + 1)
            continue
        weight = Fraction(1)
        for m, k in zip(ms, ks):
            if m == 0:
                weight *= Fraction(1) if k == 0 else Fraction(0)
            else:
                weight /= Fraction(m) ** k
        for j in range(ms[-1] + 1):
            factor = weight * comb(ms[-1], j) * (-1) ** j
            for e in range(n + 1):
                power_sums[e] += factor * (r * x - j) ** e
    total = Fraction(0)
    for i in range(n + 1):
        total += 2 * factorial(r) * comb(n, i) * power_sums[n - i] * comp_sums[i]
    return total, skipped


def thm4_sum(k, x, alpha, beta, gamma, n, variant):
    """Literal triple sum of thm4: sum over 0 <= i <= j <= m <= n of
    2 (-1)^{m-j+i} C(j, i) j^{-k} (x gamma - (m-j+i+1) alpha - (m-j+i+d) beta)^n,
    with d = 1 for the "statement" variant and d = 0 for the "proof" one.

    Terms with j = 0 and k > 0 are undefined; they are skipped and counted.
    0^0 = 1.  Returns (value, skipped).
    """
    x, alpha, beta, gamma = (Fraction(v) for v in (x, alpha, beta, gamma))
    d = 1 if variant == "statement" else 0
    total = Fraction(0)
    skipped = 0
    for m in range(n + 1):
        for j in range(m + 1):
            for i in range(j + 1):
                if j == 0 and k > 0:
                    skipped += 1
                    continue
                s = m - j + i
                total += (
                    2
                    * Fraction(-1) ** s
                    * comb(j, i)
                    * Fraction(j) ** -k
                    * (x * gamma - (s + 1) * alpha - (s + d) * beta) ** n
                )
    return total, skipped

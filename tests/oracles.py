"""Independent reference implementations used as test oracles.

Everything here works on ordinary power-series coefficients (plain a_n, not
the n!-scaled values the package stores) and uses naive algorithms: direct
convolution, long division, term-by-term composition, cofactor determinants,
literal multiple sums.  The finite closed forms and the mod-p transcriptions
at the end reach the CLI's largest order, exactly and on residues.  The point
is that none of this shares a code path with the package, so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, factorial, lcm
from operator import mul


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


# Finite closed forms, exact: the Bernoulli shape and the plain Euler shape
# (x = 0, alpha = 0, beta = 1) as finite sums over one table of Stirling
# numbers of the second kind, with a_m the nested sum's ordinary coefficients
# (Kaneko 1997, carried over to the nested sum):
#   B_n = sum_j (-1)^{n-j} j! S(n, j) a_{j+r}
#   E_n = 2^{1-r} sum_i C(n, i) Ê_i L_{n-i}, where
#   Ê_i = sum_q (-1)^q C(r+q-1, q) q! S(i, q) / 2^q, the coefficients of
#         (2/(1 + e^t))^r, and
#   L_j = sum_m a_m m! (-1)^{j-m} S(j, m), those of Li_ks(1 - e^{-t}).
# Any (w, alpha, beta) is the plain shape at lam t times e^{ct}, one binomial
# sum more, and B_n^{(-k)} has Kaneko's double Stirling sum.  Nothing is
# divided or composed as a series, and every sum is finite.


def multi_li_running(ks, order):
    """Ordinary coefficients a_0..a_order of Li_ks(z) as exact rationals:
    a_m sums prod_i m_i^{-k_i} over 0 < m_1 < ... < m_r = m, by a running
    sum over one index at a time."""
    ending = [Fraction(1)] + [Fraction(0)] * order  # the empty tuple, which ends at 0
    for k in ks:
        below, nxt = Fraction(0), [Fraction(0)] * (order + 1)
        for m in range(1, order + 1):
            below += ending[m - 1]
            nxt[m] = below / Fraction(m) ** k
        ending = nxt
    return ending


def stirling2_rows(order):
    """S(n, m) for 0 <= m <= n <= order, by S(n, m) = m S(n-1, m) + S(n-1, m-1)."""
    rows = [[1]]
    for n in range(1, order + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [m * prev[m] + prev[m - 1] for m in range(1, n + 1)])
    return rows


def _signed_factorial_terms(li):
    """(-1)^m m! a_m over the common denominator of the a_m: (terms, den)."""
    den = lcm(*(a.denominator for a in li))
    terms = [(-1) ** m * factorial(m) * a.numerator * (den // a.denominator) for m, a in enumerate(li)]
    return terms, den


def multi_poly_bernoulli_finite(li, r, stirling):
    """B_0..B_N of depth r from li = a_0..a_{N+r}, N = len(stirling) - 1."""
    terms, den = _signed_factorial_terms(li[r:])
    return [Fraction((-1) ** n * sum(map(mul, row, terms)), den) for n, row in enumerate(stirling)]


def multi_poly_euler_finite(li, r, stirling):
    """E_0..E_N of depth r at x = 0, alpha = 0, beta = 1 from li = a_0..a_N
    or longer, N = len(stirling) - 1.  Ê_i is held as 2^i Ê_i and L_j as
    2^j L_j, so the convolution runs over integers."""
    terms, den = _signed_factorial_terms(li[: len(stirling)])
    euler = [
        sum((-1) ** q * comb(r + q - 1, q) * factorial(q) * s * 2 ** (i - q) for q, s in enumerate(row))
        for i, row in enumerate(stirling)
    ]
    li_at = [(-2) ** j * sum(map(mul, row, terms)) for j, row in enumerate(stirling)]
    sums = [sum(comb(n, i) * euler[i] * li_at[n - i] for i in range(n + 1)) for n in range(len(stirling))]
    return [Fraction(total, 2 ** (n + r - 1) * den) for n, total in enumerate(sums)]


def euler_shape_finite(plain, lam, c):
    """E_0..E_N of the Euler shape at any (w, alpha, beta) from the plain
    numbers P_0..P_N of the same depth r: the shape's generating function
    2 Li_ks(1 - e^{-lam t}) / (e^{-alpha t} + e^{beta t})^r e^{wt} is
    P(lam t) e^{ct}, with lam = alpha + beta and c = w + r alpha, so
    E_n = sum_l C(n, l) c^l lam^{n-l} P_{n-l}."""
    lam, c = Fraction(lam), Fraction(c)
    return [
        sum(comb(n, l) * c**l * lam ** (n - l) * plain[n - l] for l in range(n + 1))
        for n in range(len(plain))
    ]


def poly_bernoulli_negative(size, factorial_power=2):
    """B_n^{(-k)} as rows [n][k] for n, k = 0..size, by Kaneko's closed
    formula (1997), B_n^{(-k)} = sum_{j <= min(n, k)} (j!)^2 S(n+1, j+1)
    S(k+1, j+1).  A ``factorial_power`` other than 2 is a slip, for the
    negative control."""
    s = stirling2_rows(size + 1)
    return [
        [
            sum(factorial(j) ** factorial_power * s[n + 1][j + 1] * s[k + 1][j + 1] for j in range(min(n, k) + 1))
            for k in range(size + 1)
        ]
        for n in range(size + 1)
    ]


def poly_euler_negative(size, stirling_shift=1):
    """E_n^{(-k)}, the poly-Euler numbers at x = 0, as rows [n][k] for
    n, k = 0..size.  Li_{-k}(z) = sum_{j <= k} j! S(k+1, j+1) (z/(1-z))^{j+1},
    and z/(1-z) = e^t - 1 at z = 1 - e^{-t}, so with eps_l the coefficients
    of 2/(1 + e^t), E_n^{(-k)} = sum_j j! S(k+1, j+1) sum_i C(j+1, i)
    (-1)^{j+1-i} sum_l C(n, l) i^{n-l} eps_l.  A ``stirling_shift`` other than
    1, S(k, j) in place of S(k+1, j+1) at 0, is a slip, for the negative control."""
    s = stirling2_rows(size + 1)
    eps = egf_from_ord(ord_div([Fraction(2)], ord_add(one(size), ord_exp(1, size), size), size))
    # Coefficient n of e^{it} 2/(1 + e^t), for i = 0..size + 1.
    shifted = [
        [sum(comb(n, l) * i ** (n - l) * eps[l] for l in range(n + 1)) for n in range(size + 1)]
        for i in range(size + 2)
    ]
    return [
        [
            sum(
                factorial(j)
                * s[k + stirling_shift][j + stirling_shift]
                * sum(comb(j + 1, i) * (-1) ** (j + 1 - i) * shifted[i][n] for i in range(j + 2))
                for j in range(k + 1)
            )
            for k in range(size + 1)
        ]
        for n in range(size + 1)
    ]


# Mod-p transcriptions: each family at the CLI's largest order, evaluated
# modulo a prime p larger than the order and than every denominator met.  The
# route is unlike the package's: the nested sum as ordinary coefficients,
# Li_ks(1 - e^{-t}) by Kaneko's Stirling-number formula, a plain O(N^2) EGF
# division by the sum of exponentials, and the product with e^{wt}.  Every
# value is a residue in 0..p-1.


def residue(value, p):
    """A rational mod p: its numerator times the inverse of its denominator."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def multi_li_mod(ks, order, p):
    """Ordinary coefficients a_0..a_order of Li_ks(z) mod p: a_m sums
    prod_i m_i^{-k_i} over 0 < m_1 < ... < m_r = m, one index at a time."""
    ending = [1] + [0] * order  # the empty tuple, which ends at 0
    for k in ks:
        below, nxt = 0, [0] * (order + 1)
        for m in range(1, order + 1):
            below = (below + ending[m - 1]) % p
            nxt[m] = below * pow(m, -k, p) % p
        ending = nxt
    return ending


@cache
def _stirling_mod(order, p):
    """Rows S(n, 0..n) mod p for n = 0..order, one table per (order, p)."""
    stirling = [(1,)]
    for n in range(1, order + 1):
        prev = stirling[-1] + (0,)
        stirling.append((0, *[(m * prev[m] + prev[m - 1]) % p for m in range(1, n + 1)]))
    return tuple(stirling)


def _kaneko_mod(coeffs, order, p):
    """EGF coefficients of sum_m c_m (1 - e^{-t})^m mod p, n = 0..order:
    n! [t^n] (1 - e^{-t})^m = (-1)^{n-m} m! S(n, m) (Kaneko 1997)."""
    weights = [1]
    for m in range(1, order + 1):
        weights.append(-weights[-1] * m % p)  # (-1)^m m!
    return [
        (-1) ** n * sum(weights[m] * coeffs[m] * row[m] for m in range(n + 1)) % p
        for n, row in enumerate(_stirling_mod(order, p))
    ]


@cache
def _binomials_mod(order, p):
    """Rows C(n, 0..n) mod p for n = 0..order by Pascal's rule, one table
    per (order, p)."""
    rows = [(1,)]
    for n in range(1, order + 1):
        prev = rows[-1]
        rows.append((1, *[(prev[j - 1] + prev[j]) % p for j in range(1, n)], 1))
    return tuple(rows)


def div_exp_sum_mod(f, terms, p):
    """EGF coefficients of f / sum_i c_i e^{mu_i t} mod p, ``terms`` holding
    the (c_i, mu_i) residues: q_n d_0 = f_n - sum_{j<n} C(n, j) q_j d_{n-j}."""
    order = len(f) - 1
    d = [sum(c * pow(mu, n, p) for c, mu in terms) % p for n in range(order + 1)]
    inv_d0 = pow(d[0], -1, p)
    q = []
    for n, row in enumerate(_binomials_mod(order, p)):
        q.append((f[n] - sum(row[j] * q[j] * d[n - j] for j in range(n))) * inv_d0 % p)
    return q


def times_exp_mod(f, w, p):
    """EGF coefficients of f e^{wt} mod p, w a residue."""
    powers = [pow(w, e, p) for e in range(len(f))]
    return [
        sum(row[j] * f[j] * powers[n - j] for j in range(n + 1)) % p
        for n, row in enumerate(_binomials_mod(len(f) - 1, p))
    ]


def bernoulli_mod(order, p):
    """B_0..B_order mod p, B_1 = -1/2, by the recurrence
    sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1."""
    b = [1]
    for n in range(1, order + 1):
        b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) * pow(n + 1, -1, p) % p)
    return b


def multi_poly_bernoulli_mod(ks, order, p):
    """B_n^{(ks)} mod p with no division: Li_ks(z)/z^r = sum_j a_{j+r} z^j,
    as a_m = 0 below m = r, so B_n = sum_j (-1)^{n-j} j! S(n, j) a_{j+r}."""
    r = len(ks)
    return _kaneko_mod(multi_li_mod(ks, order + r, p)[r:], order, p)


def euler_shape_mod(ks, alpha, beta, w, order, p):
    """EGF coefficients mod p of 2 Li_ks(1 - e^{-lam t}) e^{wt} /
    (e^{-alpha t} + e^{beta t})^r, lam = alpha + beta.  The multi-poly-Euler
    polynomials take w = r x, the three-parameter family w = gamma x."""
    r = len(ks)
    alpha, beta, w = (residue(v, p) for v in (alpha, beta, w))
    lam = (alpha + beta) % p
    li = _kaneko_mod(multi_li_mod(ks, order, p), order, p)
    num = [2 * c * pow(lam, n, p) % p for n, c in enumerate(li)]
    # (e^{-alpha t} + e^{beta t})^r = sum_i C(r, i) e^{(i beta - (r - i) alpha) t}
    terms = [(comb(r, i), (i * beta - (r - i) * alpha) % p) for i in range(r + 1)]
    return times_exp_mod(div_exp_sum_mod(num, terms, p), w, p)


def poly_euler_sasaki_mod(k, order, p):
    """Li_k(1 - e^{-4t})/(4t cosh t) mod p: the numerator at 4t, over t
    (n! [t^n] f/t = f_{n+1}/(n+1)), then over 2e^t + 2e^{-t}."""
    li = _kaneko_mod(multi_li_mod((k,), order + 1, p), order + 1, p)
    over_t = [li[n + 1] * pow(4, n + 1, p) * pow(n + 1, -1, p) % p for n in range(order + 1)]
    return div_exp_sum_mod(over_t, [(2, 1), (2, p - 1)], p)

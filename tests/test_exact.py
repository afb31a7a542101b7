"""Substrate tests: rationals, truncated EGF algebra, exact determinants."""

import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, strategies as st

from polyeuler import exact
from polyeuler.exact import (
    DivisionByNonUnit,
    Egf,
    InsufficientVanishing,
    NonNilpotentInner,
    NotSquare,
    _dilate,
    _div_exp_sum,
    _division_table,
    _integer_terms,
    _ratio,
    cache_scope,
    det,
    egf_add,
    egf_compose,
    egf_div,
    egf_div_exp_sum,
    egf_exp_linear,
    egf_exp_sum,
    egf_mul,
    egf_scale,
    format_rational,
    integer_numerators,
    parse_integer,
    parse_rational,
)

from oracles import cofactor_det, egf_from_ord, ord_exp, ord_mul, residue, times_exp_mod

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
series = st.lists(rationals, min_size=1, max_size=13).map(lambda cs: Egf(tuple(cs)))
matrices_3x3 = st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3)
matrices_4x4 = st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4)


def exp_t(order):
    return egf_exp_linear(1, order)


class TestIntegerText:
    @pytest.mark.parametrize("text,value", [("-0", 0), (" 7\t", 7), ("-12", -12), ("40", 40)])
    def test_parse(self, text, value):
        assert parse_integer(text) == value

    @pytest.mark.parametrize(
        "bad",
        ["+1", "1_0", "١", "𝟓", "\u30001", "1\u2003", "", "-", " ", "--1", "1.0", "1/1", "−1"]
        + ["--5", "5-", "1-2", "-+1", "²", "-²", "1²", "-1\u2003"],
    )
    def test_parse_rejects(self, bad):
        """Only an optional '-' and ASCII digits 0-9, with ASCII whitespace
        trimmed: no '+', '_', other Unicode digit or space, or Unicode minus,
        and no superscript digit, which str.isdigit alone would take."""
        with pytest.raises(ValueError):
            parse_integer(bad)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("5", F(5)),
            ("-3/4", F(-3, 4)),
            ("0", F(0)),
            ("10/4", F(5, 2)),
            (" 7/9 ", F(7, 9)),
            ("−3/4", F(-3, 4)),
            ("-0", F(0)),
            ("007/010", F(7, 10)),
            ("-0/5", F(0)),
            ("−3", F(-3)),
            (" -12/3 ", F(-4)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "bad",
        ["", "3/", "/4", "1.5", "a", "3/-4", "--3", "1/0x", "1/0", "-", "+1", "1_0", "١/٢", "𝟓", "1/٢"]
        + ["--5", "1/", "1/2/3", "1//2", "/", "−", "−−3/4", "-/4", "1/−2", "1 /2", "1/ 2", "²/3", "1/²"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["\t-3/4", "-3/4 \t", " \r\n-3/4\n", "\f-3/4\v"])
    def test_trims_ascii_whitespace(self, text):
        assert parse_rational(text) == F(-3, 4)

    @pytest.mark.parametrize(
        "bad", ["\u20031/2", "1/2\u3000", "\u3000 1/2", " 1/2\u2003 ", "\xa01/2", "1/\u20032"]
    )
    def test_rejects_unicode_space(self, bad):
        """Only ASCII whitespace is trimmed: an em space (U+2003), an
        ideographic space (U+3000) or a no-break space is not."""
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_roundtrip(self):
        for v in (F(5), F(-3, 4), F(0), F(123456789, 7)):
            assert parse_rational(format_rational(v)) == v

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    @pytest.mark.parametrize(
        "value", [F(-(3**20000), 7**9000), F(10**5000), F(-(10**5000) + 1, 2**2000)]
    )
    def test_format_ignores_the_str_digit_limit(self, value, limit):
        """Integers past the interpreter's int-to-str digit limit still print
        in full, digit for digit as str() prints them without a limit."""
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(value)
            sys.set_int_max_str_digits(limit)
            assert format_rational(value) == expected
        finally:
            sys.set_int_max_str_digits(saved)


class TestEgfBasics:
    def test_needs_constant_coefficient(self):
        with pytest.raises(ValueError):
            Egf(())

    def test_constant_needs_nonnegative_order(self):
        assert Egf.constant(2, 0).coeffs == (2,)
        with pytest.raises(ValueError):
            Egf.constant(2, -1)

    def test_order_and_truncate(self):
        f = exp_t(6)
        assert f.order == 6
        assert f.truncate(3).coeffs == (1, 1, 1, 1)
        assert f.truncate(9) is f

    def test_ordinary_roundtrip(self):
        f = Egf((F(1), F(3), F(5), F(-2)))
        assert Egf.from_ordinary(f.ordinary()) == f

    def test_equals_only_a_series(self):
        f = Egf.of((1, 2))
        assert f != (1, 2)
        assert f != f.numerators()


integers = st.integers(min_value=-(10**30), max_value=10**30)
nonzero_integers = integers.filter(bool)


class TestIntegerForm:
    @given(nums=st.lists(integers, min_size=1, max_size=12), den=nonzero_integers)
    def test_of_is_in_lowest_terms(self, nums, den):
        f = Egf.of(nums, den)
        got, d = f.numerators()
        assert d > 0
        assert gcd(d, *got) == 1
        assert [F(v, d) for v in got] == [F(v, den) for v in nums]

    def test_of_rejects_empty_and_zero_denominator(self):
        with pytest.raises(ValueError):
            Egf.of([], 3)
        with pytest.raises(ZeroDivisionError):
            Egf.of([1, 2], 0)

    @given(coeffs=st.lists(rationals, min_size=1, max_size=12), scale=nonzero_integers)
    def test_equal_however_built(self, coeffs, scale):
        """Egf(coeffs), Egf.of over any common denominator, and a series whose
        coeffs were read are one series: equal, with equal hashes."""
        nums, den = integer_numerators([F(c) for c in coeffs])
        built = [
            Egf(coeffs),
            Egf.of(nums, den),
            Egf.of([v * scale for v in nums], den * scale),
            Egf.of(nums, den),
        ]
        held = built[3].numerators()
        assert built[3].coeffs == tuple(coeffs)
        assert built[3].numerators() == held
        assert built[0].numerators() == Egf.of(nums, den).numerators()
        for f in built:
            assert f == built[0]
            assert hash(f) == hash(built[0])
        other = Egf.of([*nums[:-1], nums[-1] + 1], den)
        assert other != built[0] and other != built[1]

    @given(f=series, g=series)
    def test_rebuilt_from_coeffs_is_equal(self, f, g):
        inner = egf_add(g, Egf.constant(-g.coeffs[0], g.order))
        for h in (egf_mul(f, g), egf_add(f, g), egf_compose(f, inner)):
            held = h.numerators()
            rebuilt = Egf(h.coeffs)
            assert rebuilt == h
            assert h.numerators() == held
            assert rebuilt.numerators() == Egf.of(*integer_numerators(h.coeffs)).numerators()

    def test_coeffs_are_fractions_over_the_lowest_denominator(self):
        f = Egf.of([2, -4, 6, 0], -8)
        assert f.numerators() == ((-1, 2, -3, 0), 4)
        assert f.coeffs == (F(-1, 4), F(1, 2), F(-3, 4), 0)
        assert all(type(c) is F for c in f.coeffs)
        nums, den = f.numerators()
        assert (list(nums), den) == ([-1, 2, -3, 0], 4)
        assert Egf.zero(3).numerators() == ((0, 0, 0, 0), 1)


class TestAdd:
    def test_additive_identity(self):
        one = Egf.constant(1, 4)
        assert egf_add(one, Egf.zero(4)) == one

    def test_two_t(self):
        t = Egf.t(4)
        assert egf_add(t, t).coeffs == (0, 2, 0, 0, 0)

    def test_additive_inverse(self):
        e = exp_t(5)
        assert egf_add(e, egf_scale(e, -1)) == Egf.zero(5)

    def test_truncates_to_min_order(self):
        assert egf_add(exp_t(7), exp_t(3)).order == 3


class TestMul:
    def test_exponential_law(self):
        prod = egf_mul(exp_t(6), exp_t(6))
        assert prod.coeffs == tuple(F(2) ** n for n in range(7))

    def test_multiplicative_identity(self):
        f = Egf((F(3), F(-1, 2), F(7)))
        assert egf_mul(f, Egf.constant(1, 2)) == f

    def test_t_squared(self):
        # t * t = t^2 = 2 t^2/2!, so the EGF coefficient at n=2 is 2
        sq = egf_mul(Egf.t(4), Egf.t(4))
        assert sq.coeffs == (0, 0, 2, 0, 0)


class TestDiv:
    def test_rejects_zero_constant_term(self):
        with pytest.raises(DivisionByNonUnit):
            egf_div(Egf.t(5), egf_add(exp_t(5), Egf.constant(-1, 5)))

    def test_inverse_of_exp(self):
        inv = egf_div(Egf.constant(1, 6), exp_t(6))
        assert inv == egf_exp_linear(-1, 6)

    def test_two_over_one_plus_exp(self):
        # hand triangular solve to order 3: 1, -1/2, 0, 1/4
        q = egf_div(Egf.constant(2, 3), egf_add(Egf.constant(1, 3), exp_t(3)))
        assert q.coeffs == (1, F(-1, 2), 0, F(1, 4))

    @given(f=series, g=series)
    def test_mul_roundtrip(self, f, g):
        """egf_mul(egf_div(f, g), g) = f whenever g is a unit."""
        if g.coeffs[0] == 0:
            g = egf_add(g, Egf.constant(1, g.order))
        n = min(f.order, g.order)
        assert egf_mul(egf_div(f, g), g) == f.truncate(n)

    # Each refusal of egf_div as (f, g, shift, exception type, message).
    REFUSALS = {
        "unit": (Egf.t(5), Egf.t(5), 0, DivisionByNonUnit, "divisor has zero constant term"),
        # An operand shorter than the shift has fewer than shift coefficients.
        "too-short": (
            Egf.t(1), Egf.of((0, 0, 0, 1)), 2, InsufficientVanishing, "series too short for the requested shift"
        ),
        "numerator-below-shift": (
            exp_t(4), Egf.t(4), 1, InsufficientVanishing, "coefficient of t^0 is nonzero; cannot cancel t^1"
        ),
        "divisor-below-shift": (
            Egf.of((0, 0, 2)), Egf.of((0, 1, 1)), 2, InsufficientVanishing,
            "coefficient of t^1 is nonzero; cannot cancel t^2",
        ),
        "divisor-beyond-shift": (
            Egf.of((0, 0, 2, 1)), Egf.of((0, 0, 0, 6)), 2, InsufficientVanishing,
            "divisor vanishes beyond t^2; quotient would not be a power series",
        ),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_every_refusal_keeps_its_type_and_message(self, case):
        f, g, shift, refusal, message = self.REFUSALS[case]
        with pytest.raises(refusal) as caught:
            egf_div(f, g, shift)
        assert type(caught.value) is refusal
        assert caught.value.args == (message,)


class TestDivShifted:
    def test_bernoulli_series(self):
        b = egf_div(Egf.t(4), egf_add(exp_t(4), Egf.constant(-1, 4)), 1)
        assert b.order == 3
        assert b.coeffs[:3] == (1, F(-1, 2), F(1, 6))

    def test_t_over_t(self):
        assert egf_div(Egf.t(3), Egf.t(3), 1) == Egf.constant(1, 2)

    def test_t_squared_over_exp_minus_one(self):
        # t^2/(e^t-1) equals t * (t/(e^t-1))
        t2 = Egf((F(0), F(0), F(2), F(0), F(0), F(0)))
        em1 = egf_add(exp_t(5), Egf.constant(-1, 5))
        got = egf_div(t2, em1, 1)
        bern = egf_div(Egf.t(5), em1, 1)
        assert got == egf_mul(Egf.t(4), bern)

    def test_rejects_insufficient_vanishing(self):
        with pytest.raises(InsufficientVanishing):
            egf_div(exp_t(4), Egf.t(4), 1)
        with pytest.raises(InsufficientVanishing):
            egf_div(Egf.t(4), exp_t(4), 1)
        # An operand shorter than the shift has fewer than shift coefficients.
        with pytest.raises(InsufficientVanishing):
            egf_div(Egf.t(1), Egf.of((0, 0, 0, 1)), 2)

    def test_rejects_overvanishing_divisor(self):
        t2 = Egf((F(0), F(0), F(2), F(0)))
        with pytest.raises(InsufficientVanishing):
            egf_div(Egf.t(3), t2, 1)

    def test_shift_zero_is_plain_division(self):
        f, g = exp_t(4), egf_add(Egf.constant(2, 4), Egf.t(4))
        assert egf_div(f, g, 0) == egf_div(f, g)
        assert egf_mul(egf_div(f, g, 0), g) == f


class TestCompose:
    def test_identity_inner(self):
        assert egf_compose(exp_t(6), Egf.t(6)) == exp_t(6)

    def test_zero_inner_gives_constant(self):
        f = Egf((F(7), F(1), F(4)))
        assert egf_compose(f, Egf.zero(2)) == Egf.constant(7, 2)

    def test_log_undoes_exp(self):
        """-ln(1-z) at z = 1-e^{-t} is exactly t."""
        n = 10
        log_series = Egf.from_ordinary([F(0)] + [F(1, m) for m in range(1, n + 1)])
        inner = egf_add(Egf.constant(1, n), egf_scale(egf_exp_linear(-1, n), -1))
        assert egf_compose(log_series, inner) == Egf.t(n)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(NonNilpotentInner):
            egf_compose(Egf.t(3), exp_t(3))

    def test_one_minus_exp_at_order_zero(self):
        """No derivative step: only the constant of f survives."""
        inner = Egf.of((0, 1, -1, 1))
        assert egf_compose(Egf((F(5, 3),)), inner) == Egf.constant(F(5, 3), 0)
        assert egf_compose(Egf((F(5, 3), F(7))), Egf.zero(0)) == Egf.constant(F(5, 3), 0)

    def test_one_minus_exp_at_order_one(self):
        """One step: h_1 = e_1 - 0 e_0, as u = t + O(t^2)."""
        f = Egf((F(5, 3), F(-7, 2), F(11)))
        assert egf_compose(f, Egf.of((0, 1))) == Egf((F(5, 3), F(-7, 2)))
        assert egf_compose(f.truncate(1), Egf.of((0, 1, -1, 1))) == Egf((F(5, 3), F(-7, 2)))

    @given(
        outer=st.lists(rationals, min_size=1, max_size=9),
        inner_tail=st.lists(rationals, min_size=1, max_size=8),
    )
    def test_matches_bruteforce_expansion(self, outer, inner_tail):
        """f(g) equals the directly expanded sum a_m g^m for ordinary a_m."""
        f = Egf.from_ordinary(outer)
        g = Egf(tuple([F(0)] + inner_tail))
        n = min(f.order, g.order)
        expected, power = Egf.zero(n), Egf.constant(1, n)
        for am in outer[: n + 1]:
            expected = egf_add(expected, egf_scale(power, am))
            power = egf_mul(power, g.truncate(n))
        assert egf_compose(f, g) == expected


class TestExpLinearAndPow:
    def test_exp_zero(self):
        assert egf_exp_linear(0, 3) == Egf.constant(1, 3)

    def test_exp_one(self):
        assert egf_exp_linear(1, 5).coeffs == (1,) * 6

    def test_exp_minus_half(self):
        assert egf_exp_linear(F(-1, 2), 2).coeffs == (1, F(-1, 2), F(1, 4))

    def test_exp_powers(self):
        assert egf_exp_linear(F(-7, 3), 12).coeffs == tuple(F(-7, 3) ** n for n in range(13))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            egf_exp_linear(1, -1)


class TestDilate:
    """``_dilate`` is the series at c t, coefficient n times c^n."""

    @given(
        nums=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=13),
        den=st.integers(min_value=1, max_value=10**4),
        c=st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    @example(nums=[3, -1, 4, 1, -5], den=7, c=F(-7, 3))
    @example(nums=[3, -1, 4, 1, -5], den=7, c=F(0))
    @example(nums=[-2], den=9, c=F(5, 4))
    def test_matches_fraction_arithmetic(self, nums, den, c):
        scaled, scaled_den = _dilate(nums, den, c.as_integer_ratio())
        assert [F(v, scaled_den) for v in scaled] == [F(v, den) * c**n for n, v in enumerate(nums)]

    def test_is_not_reduced(self):
        """Coefficient n times p^n q^{N-n}, over den q^N."""
        assert _dilate([2, 4, 6], 3, (1, 2)) == ([8, 8, 6], 12)
        assert _dilate([2, 4, 6], 3, (-3, 2)) == ([8, -24, 54], 12)
        assert _dilate([2, 4, 6], 3, (0, 1)) == ([2, 0, 0], 3)


def _sum_of_exponentials(terms, order):
    """Reference sum w_j e^{mu_j t}, one exponential and one add per term."""
    total = Egf.zero(order)
    for weight, rate in terms:
        total = egf_add(total, egf_scale(egf_exp_linear(rate, order), weight))
    return total


class TestExpSum:
    rates = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = st.lists(st.tuples(st.integers(min_value=-4, max_value=4), rates), max_size=6)

    @given(terms=terms, order=st.integers(min_value=0, max_value=10))
    def test_matches_sum_of_exponentials(self, terms, order):
        assert egf_exp_sum(terms, order) == _sum_of_exponentials(terms, order)

    def test_repeated_rates_add_their_weights(self):
        terms = [(2, F(1, 3)), (-1, F(1, 3)), (3, F(-1, 2)), (-3, F(-1, 2))]
        assert egf_exp_sum(terms, 7) == egf_exp_linear(F(1, 3), 7)
        assert egf_exp_sum(terms, 7) == _sum_of_exponentials(terms, 7)

    def test_zero_weights_vanish(self):
        assert egf_exp_sum([(0, F(5, 7)), (0, -2)], 6) == Egf.zero(6)
        assert egf_exp_sum([(0, F(5, 7)), (1, 2)], 6) == egf_exp_linear(2, 6)

    def test_no_terms_is_zero(self):
        assert egf_exp_sum([], 5) == Egf.zero(5)
        assert egf_exp_sum([], 0) == Egf.zero(0)

    def test_order_zero_is_the_weight_sum(self):
        assert egf_exp_sum([(3, F(1, 2)), (-5, F(-7, 3)), (4, 0)], 0) == Egf.constant(2, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            egf_exp_sum(((1, 1),), -2)

    def test_exp_minus_one_and_cosh(self):
        assert egf_exp_sum([(1, 1), (-1, 0)], 4).coeffs == (0, 1, 1, 1, 1)
        assert egf_exp_sum([(1, 1), (1, -1)], 4).coeffs == (2, 0, 2, 0, 2)


class TestDivExpSum:
    """Fraction-free division by a sum of exponentials, against the generic
    division by that sum built as a series."""

    rates = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4), rates), min_size=1, max_size=9
    ).filter(lambda ts: sum(w for w, _ in ts) != 0)

    @given(f=series, terms=terms)
    @example(f=Egf.constant(F(3, 4), 0), terms=[(2, F(1, 3)), (-1, F(-2, 5))])
    @example(f=exp_t(6), terms=[(1, 0), (1, 1)])
    @example(f=Egf.t(8), terms=[(-1, F(-1, 2)), (3, 0), (1, F(2, 3)), (-5, F(-7, 4))])
    def test_matches_division_by_the_series(self, f, terms):
        assert egf_div_exp_sum(f, terms) == egf_div(f, egf_exp_sum(terms, f.order))

    @given(f=series, terms=terms)
    # The r = 2 Euler divisor (e^{-2t/3} + e^{-t/4})^2: rates -16, -11, -6 over K = 12.
    @example(f=exp_t(8), terms=[(1, F(-4, 3)), (2, F(-11, 12)), (1, F(-1, 2))])
    def test_kernel_takes_its_numerator_at_k_t(self, f, terms):
        """``_div_exp_sum`` reads f at Kt, K the rates' least common
        denominator, and lifts it no further."""
        weights, tops, rate_den = _integer_terms(terms)
        at_kt = Egf([c * rate_den**n for n, c in enumerate(f.coeffs)])
        quotient = _div_exp_sum(*at_kt.numerators(), weights, tops, rate_den)
        assert quotient == egf_div(f, egf_exp_sum(terms, f.order))

    def test_two_over_one_plus_exp(self):
        assert egf_div_exp_sum(Egf.constant(2, 3), [(1, 0), (1, 1)]).coeffs == (
            1,
            F(-1, 2),
            0,
            F(1, 4),
        )

    @pytest.mark.parametrize(
        "terms", [[], [(1, 1), (-1, 0)], [(2, F(1, 3)), (-2, F(-1, 2))], [(0, 5)]]
    )
    def test_zero_weight_sum_raises(self, terms):
        with pytest.raises(DivisionByNonUnit):
            egf_div_exp_sum(exp_t(5), terms)


class TestDivisionTable:
    """``egf_div_exp_sum`` reads one cached row table per divisor and order
    in the open cache scope.  A quotient must not depend on whether its table
    was just built, kept from an earlier division, or built again in a fresh
    scope."""

    @given(f=series, terms=TestDivExpSum.terms)
    @example(f=Egf.t(8), terms=[(-1, F(-1, 2)), (3, 0), (1, F(2, 3)), (-5, F(-7, 4))])
    def test_product_restores_the_numerator(self, f, terms):
        """egf_mul(f / g, g) = f on a cold and a warm table, and again on the
        table a fresh scope rebuilds."""
        divisor = egf_exp_sum(terms, f.order)
        _division_table.cache_clear()
        for scope in ("first", "fresh"):
            with cache_scope():
                for state in ("cold", "warm"):
                    assert egf_mul(egf_div_exp_sum(f, terms), divisor) == f, (scope, state)
        info = _division_table.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_matches_when_a_fresh_scope_rebuilds_the_tables(self):
        """Many divisors, read once in each of two scopes, so every read in
        the second scope rebuilds its table."""
        divisors = [[(1, F(s, 7)), (w, F(-1, 3))] for s in range(-20, 21) for w in (1, 2)]
        f = Egf.of([3, -1, 4, 1, -5, 9, 2, -6, 5], 2)
        _division_table.cache_clear()
        for _ in ("cold", "rebuilt"):
            with cache_scope():
                for terms in divisors:
                    assert egf_div_exp_sum(f, terms) == egf_div(f, egf_exp_sum(terms, f.order))
                assert _division_table.cache_info().currsize == len(divisors)
        info = _division_table.cache_info()
        assert (info.currsize, info.misses) == (0, 2 * len(divisors))

    def test_int_and_fraction_rates_share_one_table(self):
        """The key holds the rates as integers over their least common
        denominator, so equal rates meet in one table however they are
        written."""
        f = exp_t(7)
        _division_table.cache_clear()
        with cache_scope():
            quotients = {
                egf_div_exp_sum(f, terms)
                for terms in (
                    [(1, 1), (1, -1)],
                    [(1, F(1)), (1, F(-1))],
                    ((1, F(3, 3)), (1, F(-2, 2))),
                )
            }
        assert len(quotients) == 1
        info = _division_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_only_equal_divisors_share_a_table(self):
        """1 + e^t, 1 + e^{t/2} and 2 + 2e^t differ by a rescaled rate or
        weight: each builds its own table, and no quotient is read from
        another divisor's."""
        f = Egf.of([5, -2, 7, 0, 3, -1, 4], 3)
        divisors = [[(1, 0), (1, 1)], [(1, 0), (1, F(1, 2))], [(2, 0), (2, 1)]]
        _division_table.cache_clear()
        with cache_scope():
            for terms in divisors:
                assert egf_div_exp_sum(f, terms) == egf_div(f, egf_exp_sum(terms, f.order))
        info = _division_table.cache_info()
        assert (info.misses, info.hits) == (3, 0)

    def test_order_is_part_of_the_key(self):
        """A table holds rows up to its own order; a lower order builds its
        own, and its quotient is the truncation of the higher one."""
        f = Egf.of([3, 1, -4, 1, 5, -9, 2, 6, -5, 3], 7)
        terms = [(3, F(-1, 4)), (-1, F(2, 3))]
        _division_table.cache_clear()
        with cache_scope():
            high = egf_div_exp_sum(f, terms)
            low = egf_div_exp_sum(f.truncate(4), terms)
        assert low == high.truncate(4)
        info = _division_table.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    @pytest.mark.parametrize("weight", [2.0, F(2), "2"], ids=repr)
    def test_weights_are_ints_whatever_the_tables_hold(self, weight):
        """A weight is read with ``operator.index``: 2.0 would hash like the
        weight 2, so a cold call would leave a table of floats for the int
        divisor, and a warm one would be served the int divisor's quotient."""
        f = Egf.constant(2, 4)
        sech = Egf.of([1, 0, -1, 0, 5], 2)
        _division_table.cache_clear()
        with cache_scope():
            for state in ("cold", "warm"):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    egf_div_exp_sum(f, [(weight, 1), (weight, -1)])
                assert egf_div_exp_sum(f, [(2, 1), (2, -1)]) == sech, state
            assert _division_table.cache_info().currsize == 1

    @pytest.mark.parametrize("terms", [[(1, 1), (-1, 0)], [(2, F(1, 3)), (-2, F(-1, 2))]])
    def test_zero_weight_sum_raises_every_time(self, terms):
        _division_table.cache_clear()
        with cache_scope():
            for _ in ("first", "repeated"):
                with pytest.raises(DivisionByNonUnit):
                    egf_div_exp_sum(exp_t(5), terms)
            assert _division_table.cache_info().currsize == 0


class TestIntegerTerms:
    """Rates as integer pairs, and a divisor's rates over one denominator."""

    def test_ratio_reads_lowest_terms(self):
        assert [_ratio(v) for v in (5, -7, 0, F(-6, 4), F(9, 3))] == [
            (5, 1),
            (-7, 1),
            (0, 1),
            (-3, 2),
            (3, 1),
        ]

    def test_rates_over_their_least_common_denominator(self):
        terms = [(2, F(1, 3)), (-1, F(-1, 2)), (4, 0)]
        assert _integer_terms(terms) == ((2, -1, 4), (2, -3, 0), 6)

    def test_int_and_fraction_rates_give_the_same_integers(self):
        assert _integer_terms([(1, 2), (3, -1)]) == ((1, 3), (2, -1), 1)
        assert _integer_terms([(1, F(2)), (3, F(-3, 3))]) == ((1, 3), (2, -1), 1)


class TestEntriesReadIntOrFraction:
    """Every entry of ``exact`` reads a caller's rational through ``_ratio``:
    a float is refused, not read as its binary expansion (0.1 would be
    3602879701896397/36028797018963968), and so is text."""

    CALLS = {
        "Egf": lambda v: Egf((1, v)),
        "Egf.from_ordinary": lambda v: Egf.from_ordinary((v, 1)),
        "Egf.constant": lambda v: Egf.constant(v, 2),
        "egf_scale": lambda v: egf_scale(exp_t(2), v),
        "det": lambda v: det([[1, v], [v, 1]]),
        "integer_numerators": lambda v: integer_numerators([1, v]),
        "egf_exp_linear": lambda v: egf_exp_linear(v, 2),
        "egf_exp_sum": lambda v: egf_exp_sum(((1, v),), 2),
        "egf_div_exp_sum": lambda v: egf_div_exp_sum(exp_t(2), ((1, v),)),
        "format_rational": format_rational,
    }

    @pytest.mark.parametrize("value", [0.1, "1/2"], ids=["float", "str"])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_anything_else_raises_type_error(self, entry, value):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            self.CALLS[entry](value)


def wide_series(order):
    """A series whose numerators run to several hundred bits, signs mixed."""
    return Egf.of([(-1) ** n * (3 ** (n + 250) + 7**n) for n in range(order + 1)], 5**120)


class TestTimesExp:
    """``egf_mul`` with a factor e^{wt}, in either position, which it
    multiplies in by the Taylor shift ``_times_exp``, checked against the
    oracles' ordinary product at small n and mod two primes at n = 56 and
    n = 200; any other factor takes the binomial convolution."""

    @staticmethod
    def product(f, w, first, order=None):
        """e^{wt} f by ``egf_mul``, the exponential at ``order`` (f's own
        order if None) and in the first position if ``first``."""
        exp_wt = egf_exp_linear(w, f.order if order is None else order)
        return egf_mul(exp_wt, f) if first else egf_mul(f, exp_wt)

    @staticmethod
    def oracle(coeffs, w):
        """e^{wt} f for f's EGF coefficients, by the ordinary product."""
        order = len(coeffs) - 1
        ordinary = [c / factorial(n) for n, c in enumerate(coeffs)]
        return egf_from_ord(ord_mul(ord_exp(w, order), ordinary, order))

    @staticmethod
    def spied(monkeypatch):
        """The rates ``egf_mul`` hands to ``_times_exp`` from now on."""
        rates, shift = [], exact._times_exp

        def spy(a, d, value):
            rates.append(value)
            return shift(a, d, value)

        monkeypatch.setattr(exact, "_times_exp", spy)
        return rates

    @given(
        f=series,
        w=st.fractions(min_value=-5, max_value=5, max_denominator=7),
        first=st.booleans(),
        extra=st.integers(-2, 2),
    )
    @example(f=Egf.constant(F(5, 3), 0), w=F(7, 2), first=True, extra=0)
    @example(f=exp_t(6), w=F(0), first=True, extra=0)
    @example(f=exp_t(6), w=F(0), first=False, extra=-3)
    @example(f=exp_t(6), w=F(-3), first=False, extra=0)
    @example(f=exp_t(5), w=F(2), first=True, extra=0)
    @example(f=Egf((F(1, 2), F(-2, 3), F(0), F(4))), w=F(2), first=False, extra=2)
    def test_matches_the_ordinary_product(self, f, w, first, extra):
        """The exponential shorter or longer than f by up to two orders."""
        order = max(f.order + extra, 0)
        expected = self.oracle(f.coeffs[: order + 1], w)
        assert list(self.product(f, w, first, order).coeffs) == expected

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize(
        "order, w",
        [(56, F(-13, 6)), (56, F(0)), (200, F(-7, 3)), (200, F(0)), (200, F(11, 4))],
    )
    def test_wide_series_mod_both_primes(self, order, w, first):
        f = wide_series(order)
        product = self.product(f, w, first)
        for p in (2**61 - 1, 2**31 - 1):
            expected = times_exp_mod([residue(c, p) for c in f.coeffs], residue(w, p), p)
            assert [residue(c, p) for c in product.coeffs] == expected

    def test_rate_and_series_with_denominators(self):
        """e^{-2t/5} (1/3 + t/2 - t^2/2!), worked by hand as
        sum_i C(n,i) (-2/5)^{n-i} a_i: the rows start from 5^i a_i."""
        f = Egf((F(1, 3), F(1, 2), F(-1)))
        for first in (True, False):
            assert self.product(f, F(-2, 5), first).coeffs == (F(1, 3), F(11, 30), F(-101, 75))

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_an_exponential_factor_takes_the_taylor_shift(self, first, monkeypatch):
        """The rate goes to ``_times_exp`` in lowest terms; at rate 0 the
        product is the other factor itself, or that factor truncated."""
        rates = self.spied(monkeypatch)
        f = Egf((F(1, 3), F(1, 2), F(-1), F(5, 7)))
        self.product(f, F(-6, 4), first)
        assert rates == [(-3, 2)]
        assert self.product(f, 0, first) is f
        assert self.product(f, 0, first, 5) is f
        assert self.product(f, 0, first, 1) == f.truncate(1)
        assert rates == [(-3, 2)]

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize("bent", range(7))
    def test_a_factor_one_coefficient_off_e3t_takes_the_convolution(self, bent, first, monkeypatch):
        """Control: e^{3t} to t^6 with coefficient ``bent`` raised by 1 is no
        exponential, so the product is the convolution, and still right."""
        rates = self.spied(monkeypatch)
        coeffs = [F(3) ** n + (n == bent) for n in range(7)]
        f = Egf((F(1, 2), F(-2, 3), F(0), F(4), F(1, 5), F(-1), F(2, 9)))
        product = egf_mul(Egf(coeffs), f) if first else egf_mul(f, Egf(coeffs))
        ordinary = [c / factorial(n) for n, c in enumerate(coeffs)]
        expected = ord_mul(ordinary, [c / factorial(n) for n, c in enumerate(f.coeffs)], 6)
        assert list(product.coeffs) == egf_from_ord(expected)
        assert rates == []


class TestComposeBranches:
    def test_general_branch_matches_dilated_recurrence(self):
        """f(1 - e^{-2t}) takes the general branch, the sum of the inner
        series' powers, and f(1 - e^{-t}) the recurrence
        e'_m = e_{m+1} - m e_m; at N = 30 the first is the second dilated by 2."""
        n = 30
        f = Egf([F((-1) ** m * (3 * m + 1), m * m + 2) for m in range(n + 1)])
        recurrence = egf_compose(f, Egf.of((0,) + ((1, -1) * n)[:n]))
        general = egf_compose(f, Egf.of([0] + [-((-2) ** i) for i in range(1, n + 1)]))
        assert general == Egf.of(*_dilate(*recurrence.numerators(), (2, 1)))


class TestRingAxioms:
    """Ring structure of the truncated series algebra, checked exactly."""

    @given(f=series, g=series)
    def test_add_commutes(self, f, g):
        assert egf_add(f, g) == egf_add(g, f)

    @given(f=series, g=series)
    def test_mul_commutes(self, f, g):
        assert egf_mul(f, g) == egf_mul(g, f)

    @given(f=series, g=series, h=series)
    def test_add_associates(self, f, g, h):
        assert egf_add(egf_add(f, g), h) == egf_add(f, egf_add(g, h))

    @given(f=series, g=series, h=series)
    def test_mul_associates(self, f, g, h):
        assert egf_mul(egf_mul(f, g), h) == egf_mul(f, egf_mul(g, h))

    @given(f=series, g=series, h=series)
    def test_distributes(self, f, g, h):
        n = min(f.order, g.order, h.order)
        lhs = egf_mul(f.truncate(n), egf_add(g, h))
        rhs = egf_add(egf_mul(f, g), egf_mul(f, h))
        assert lhs == rhs.truncate(n)

    @given(f=series)
    def test_results_are_canonical(self, f):
        prod = egf_mul(f, f)
        for c in prod.coeffs:
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1


class TestDeterminant:
    def test_one_by_one(self):
        assert det([[F(1, 2)]]) == F(1, 2)

    def test_two_by_two(self):
        assert det([[F(1, 2), F(1, 3)], [1, 1]]) == F(1, 6)

    def test_identity(self):
        assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            det([[1, 2, 3], [4, 5, 6]])

    def test_empty_is_one(self):
        assert det([]) == 1

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_entry_count_validated(self):
        """Ragged rows are not square, even when the row count matches."""
        with pytest.raises(NotSquare):
            det([[F(1), F(2)], [F(3)]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[F(1, 2), 3, F(-2, 3)], [0, F(5, 4), 1], [0, 0, F(7, 3)]],
            [
                [F(2, 3), 1, F(1, 5), 2],
                [3, F(-1, 2), 4, 1],
                [0, F(4, 3), 2, F(1, 7)],
                [0, 0, F(-3, 2), 5],
            ],
            [[0, 0, 4], [0, F(1, 3), 2], [F(5, 2), 1, 0]],
        ],
        ids=["triangular", "hessenberg", "one-swap-then-waiting-pivots"],
    )
    def test_rows_with_no_entry_in_the_pivot_column_wait(self, rows):
        """A row with 0 under the pivot is not rescaled at that step, so it
        is brought up to date when it is next read."""
        assert det(rows) == cofactor_det(rows)

    @given(rows=matrices_3x3)
    def test_matches_cofactor_3x3(self, rows):
        assert det(rows) == cofactor_det(rows)

    @given(rows=matrices_4x4)
    def test_matches_cofactor_4x4(self, rows):
        assert det(rows) == cofactor_det(rows)

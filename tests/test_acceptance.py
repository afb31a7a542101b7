"""Acceptance suite: one test per criterion, exact comparisons, pinned runtimes.

Every comparison is zero-tolerance (exact rationals).  Each test prints one
pass line on success (run with ``pytest -s`` to see them); a failed assert is
the fail line.  Runtime ceilings come from the stated criteria and are
asserted with a wall clock.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from polyeuler import audit, exact
from polyeuler.classical import (
    EulerConvention,
    bernoulli_det,
    bernoulli_numbers,
    bernoulli_polynomial,
    euler_det,
    euler_numbers,
    poly_eval,
    power_sum,
    power_sum_closed,
)
from polyeuler.exact import Egf, egf_add, egf_exp_linear, egf_scale, parse_rational
from polyeuler.multifamily import multi_poly_euler
from polyeuler.polyfamily import lonesum_count, poly_bernoulli
from polyeuler.polylog import li_of_inner

F = Fraction


def _report(num, message):
    print(f"acceptance criterion {num}: PASS — {message}")


def _one_minus_exp_minus_t(order):
    return egf_add(Egf.constant(1, order), egf_scale(egf_exp_linear(-1, order), -1))


@pytest.fixture(scope="module")
def registry10():
    return {(c.id, c.variant): c for c in audit.build_registry(seed=0, order=10)}


def test_criterion_01_bernoulli_determinant_cross_check():
    start = time.perf_counter()
    series = bernoulli_numbers(10)
    for n in range(1, 11):
        assert bernoulli_det(n) == series[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"determinant equals series for n=1..10 ({elapsed:.3f}s)")


def test_criterion_02_euler_determinant_cross_check():
    start = time.perf_counter()
    series = euler_numbers(12, EulerConvention.SECANT_TYPE)
    for n in range(1, 7):
        assert euler_det(n) == series[2 * n]
    assert euler_det(3) == -61
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"determinant equals secant series for n=1..6, E_6 = -61 ({elapsed:.3f}s)")


def test_criterion_03_power_sum_audit():
    start = time.perf_counter()
    for m in range(9):
        for n in range(21):
            assert power_sum_closed(m, n, "plus") == power_sum(m, n)
    assert power_sum_closed(1, 1, "minus") == 0 != power_sum(1, 1)
    # both verdicts recorded by the registry
    cases = {(c.id, c.variant): c for c in audit.build_registry(seed=0, order=10)}
    plus = audit.run_identity(cases[("eq2-power-sum", "plus")])
    minus = audit.run_identity(cases[("eq2-power-sum", "minus")])
    assert plus.verdict == audit.PASS
    assert minus.verdict == audit.FAIL
    assert minus.counterexample["params"] == {"m": 1, "n": 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"B_1=+1/2 grid exact, B_1=-1/2 fails first at (1,1) ({elapsed:.3f}s)")


def test_criterion_04_polylog_identities_to_order_16():
    start = time.perf_counter()
    inner = _one_minus_exp_minus_t(16)
    assert li_of_inner((1,), inner, 16) == Egf.t(16)
    depth_two = li_of_inner((1, 1), inner, 16)
    expected = tuple(F(1) if n == 2 else F(0) for n in range(17))
    assert depth_two.coeffs == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"Li identities exact to order 16 ({elapsed:.3f}s)")


def test_criterion_05_poly_bernoulli_values_and_bridge():
    start = time.perf_counter()
    assert poly_bernoulli(-1, 0, 8) == [F(2) ** n for n in range(9)]
    # polynomial identity up to degree 12, certified on 14 > 12+1 points
    xs = [F(j, 2) for j in range(-7, 7)]
    assert len(set(xs)) == 14
    polys = [bernoulli_polynomial(n, 12) for n in range(13)]
    for x in xs:
        left = poly_bernoulli(1, -x, 12)
        for n in range(13):
            assert (-1) ** n * left[n] == poly_eval(polys[n], x)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(5, f"2^n values and the degree-12 bridge identity hold ({elapsed:.3f}s)")


def test_criterion_06_brewbaker_lonesum():
    start = time.perf_counter()
    for n in range(1, 4):
        for k in range(1, 4):
            assert lonesum_count(n, k) == poly_bernoulli(-k, 0, n)[n]
    assert lonesum_count(3, 3) == 230
    small_elapsed = time.perf_counter() - start
    assert small_elapsed < 1.0
    big_start = time.perf_counter()
    ground_truth = lonesum_count(4, 4)
    assert poly_bernoulli(-4, 0, 4)[4] == ground_truth
    big_elapsed = time.perf_counter() - big_start
    assert big_elapsed < 30.0
    _report(6, f"counts match for n,k<=3 and at 4x4 = {ground_truth} ({big_elapsed:.3f}s)")


def test_criterion_07_theorem_grid(registry10):
    start = time.perf_counter()
    for case_id in ("thm1", "thm2", "cor1", "cor2"):
        result = audit.run_identity(registry10[(case_id, None)])
        assert result.verdict == audit.PASS, result
        assert result.grid_size == 39 * 25 * 11
    combined = audit.run_identity(registry10[("combined", None)])
    assert combined.verdict == audit.PASS, combined
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, f"five identities exact on the 39x25 grid, n<=10 ({elapsed:.1f}s)")


def test_criterion_08_vanishing_law(registry10):
    grid = registry10[("thm1", None)].grid
    for ks in grid["kvectors"]:
        values = multi_poly_euler(ks, 0, grid["n_max"])
        for n in range(len(ks)):
            assert values[n] == 0
    _report(8, "plain multi values vanish below the depth for every index vector")


def test_criterion_09_thm4_audit(registry10):
    start = time.perf_counter()
    for variant in ("statement", "proof"):
        with exact.cache_scope():  # the second run reads the first one's caches
            first = audit.run_identity(registry10[("thm4-explicit", variant)])
            second = audit.run_identity(registry10[("thm4-explicit", variant)])
        assert first == second  # deterministic, cold and warm
        assert first.verdict in (audit.PASS, audit.FAIL)
        if first.verdict == audit.FAIL:
            ce = first.counterexample
            assert ce is not None
            parse_rational(ce["expected"])
            parse_rational(ce["actual"])
            assert {"k", "alpha", "beta", "gamma", "x", "n"} <= set(ce["params"])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(9, f"both variants produce deterministic documented verdicts ({elapsed:.1f}s)")


def test_criterion_10_thm3_partial_sums(registry10):
    start = time.perf_counter()
    with exact.cache_scope():  # the second run reads the first one's caches
        first = audit.run_identity(registry10[("thm3-explicit", None)])
        second = audit.run_identity(registry10[("thm3-explicit", None)])
    assert first == second
    assert first.verdict == audit.INCONCLUSIVE
    assert first.counterexample is None
    for m_cap, part_cap in product((4, 8, 12), repeat=2):
        assert f"m_cap={m_cap} part_cap={part_cap}:" in first.notes
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(10, f"capped tables deterministic and flagged INCONCLUSIVE ({elapsed:.1f}s)")


def test_criterion_11_audit_byte_determinism(tmp_path):
    files = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "polyeuler", "audit", "--order", "6", "--seed", "0",
             "--out", str(target)],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0
        files.append(target.read_bytes())
    assert files[0] == files[1]
    _report(11, "two audit runs with identical flags are byte-identical")

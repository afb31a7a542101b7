"""Audit registry behavior: verdicts, whitelisting, determinism, schema."""

import hashlib
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracles
import pytest

from polyeuler import audit, multifamily
from polyeuler.audit import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CaseResult,
    IdentityCase,
    UnknownIdentity,
    _Check,
    _compare,
    build_registry,
    expected_verdict,
    is_expected,
    registered_ids,
    report_ok,
    report_to_json,
    run_all,
    run_identity,
)
from polyeuler.cli import main_verify
from polyeuler.exact import Egf, parse_rational
from polyeuler.multifamily import LogParams

EXPECTED_IDS = {
    "eq2-power-sum",
    "eq3-bernoulli-det",
    "eq6-euler-det",
    "eq9-cosh",
    "bridge-poly-bernoulli",
    "brewbaker-lonesum",
    "thm1",
    "thm2",
    "cor1",
    "cor2",
    "combined",
    "thm3-explicit",
    "thm4-explicit",
    "def1-sasaki-bridge",
}


# sha256 of report_to_json(run_all(seed, order)).  Any moved number, verdict
# or note changes the hash; order 10 is the default `polyaudit` report.
REPORT_SHA256 = {
    (4, 0): "5d5ebb2c917c87a08d534d67fc0d7846f178e41cf0acc12bc4dbd507e99f3b1c",
    (4, 1): "68701876ee2d0cef6c9627116fffb61017e5c20e3521fd1f0a8e5a940390f38f",
    (6, 0): "47e71eca71abf73ce82a4601ea44e3efbce4f09731cb8e21a0570bfa16d2c572",
    (6, 1): "667538ddb6e773141fec48aa8dc14d044c630994bb91007abf1644296a04633a",
    (10, 0): "b649fe23a979c8d5c7f0a3d99910178308eed56f37c9041c47f7d532abe5892e",
    (10, 1): "b89d0a3dc9d95e9b7be0421a574aeba798061a5f1cdada234fd464f45867b04c",
}


@pytest.fixture(scope="module")
def report6():
    return run_all(seed=0, order=6)


@pytest.fixture(scope="module")
def cases6():
    return {(c.id, c.variant): c for c in build_registry(seed=0, order=6)}


class TestRegistry:
    def test_every_identity_registered_once(self):
        entries = [(c.id, c.variant) for c in build_registry(0, 6)]
        assert len(entries) == len(set(entries))
        assert {i for i, _ in entries} == EXPECTED_IDS == set(registered_ids())

    def test_at_least_thirteen_cases(self):
        assert len(build_registry(0, 10)) >= 13

    def test_orders_past_twelve_grow_only_eq9_cosh(self):
        """Every other grid is capped by order 12 (build_registry's docstring)."""
        grids = [{(c.id, c.variant): c.grid for c in build_registry(0, order)} for order in (12, 200)]
        assert {key for key, grid in grids[0].items() if grid != grids[1][key]} == {("eq9-cosh", None)}

    def test_unknown_identity_raises(self):
        with pytest.raises(UnknownIdentity):
            run_identity(IdentityCase("nosuch", None, {}))


def _readme_registry():
    """README's registry table as (id, variant, verdict) triples in its row
    order: a row's ids share its bracketed variants ("default" when it has
    none), and a variant reads the word after its name in the verdict
    column, or else the column's one verdict word."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.partition("\n## The registry\n")[2].partition("\n## ")[0]
    words = "PASS|FAIL|INCONCLUSIVE"
    triples = []
    for ids, verdict in re.findall(r"^\| (.+?) \| .+? \| (.+?) \|$", section, re.MULTILINE)[1:]:
        ids, _, variants = ids.partition(" [")
        for case_id in ids.split(", "):
            for variant in variants.rstrip("]").split(", ") if variants else ["default"]:
                named = re.search(rf"(?:^|; ){re.escape(variant)} ({words})\b", verdict)
                (word,) = [named[1]] if named else set(re.findall(rf"\b(?:{words})\b", verdict))
                triples.append((case_id, variant, word))
    return triples


class TestReadmeRegistry:
    def test_readme_table_lists_every_variant_with_its_documented_verdict(self):
        """In the registry's order; None is written "default"."""
        documented = [
            (case_id, variant or "default", verdict)
            for case_id, entry in audit._TABLE.items()
            for variant, verdict in entry.variants.items()
        ]
        assert _readme_registry() == documented


class TestSingleVerdicts:
    def test_bernoulli_det_passes(self, cases6):
        result = run_identity(cases6[("eq3-bernoulli-det", None)])
        assert result.verdict == PASS
        assert result.counterexample is None

    def test_power_sum_minus_first_counterexample(self, cases6):
        result = run_identity(cases6[("eq2-power-sum", "minus")])
        assert result.verdict == FAIL
        assert result.counterexample["params"] == {"m": 1, "n": 1}
        assert result.counterexample["expected"] == "1"
        assert result.counterexample["actual"] == "0"

    def test_power_sum_plus_passes(self, cases6):
        assert run_identity(cases6[("eq2-power-sum", "plus")]).verdict == PASS

    def test_cosh_misprint_fails_at_two(self, cases6):
        result = run_identity(cases6[("eq9-cosh", None)])
        assert result.verdict == FAIL
        assert result.counterexample["params"] == {"n": 2}

    def test_thm3_is_inconclusive_with_table(self, cases6):
        result = run_identity(cases6[("thm3-explicit", None)])
        assert result.verdict == INCONCLUSIVE
        assert result.counterexample is None
        for cap in (4, 8, 12):
            assert f"m_cap={cap}" in result.notes
            assert f"part_cap={cap}" in result.notes

    def test_sasaki_bridge_fails_with_ratio_table(self, cases6):
        result = run_identity(cases6[("def1-sasaki-bridge", None)])
        assert result.verdict == FAIL
        assert "k=1" in result.notes and "vs" in result.notes

    def test_combined_printed_variant_fails(self, cases6):
        result = run_identity(cases6[("combined", "as-printed")])
        assert result.verdict == FAIL
        assert result.counterexample is not None

    def test_combined_default_passes(self, cases6):
        assert run_identity(cases6[("combined", None)]).verdict == PASS


class TestRunAll:
    def test_whitelist_discipline(self, report6):
        """Only the documented discrepancies may be non-PASS."""
        non_pass = {(r.id, r.variant) for r in report6.cases if r.verdict != PASS}
        documented = {(r.id, r.variant) for r in report6.cases if expected_verdict(r) != PASS}
        assert non_pass <= documented
        assert report_ok(report6)

    def test_expected_failures_do_fail(self, report6):
        """The documented discrepancies really are discrepancies."""
        verdicts = {(r.id, r.variant): r.verdict for r in report6.cases}
        assert verdicts[("eq2-power-sum", "minus")] == FAIL
        assert verdicts[("eq9-cosh", None)] == FAIL
        assert verdicts[("combined", "as-printed")] == FAIL
        assert verdicts[("thm3-explicit", None)] == INCONCLUSIVE
        assert verdicts[("def1-sasaki-bridge", None)] == FAIL

    def test_sorted_by_id_and_variant(self, report6):
        keys = [(r.id, r.variant or "") for r in report6.cases]
        assert keys == sorted(keys)

    def test_deterministic_json(self, report6):
        again = run_all(seed=0, order=6)
        assert report_to_json(report6) == report_to_json(again)

    def test_verdicts_stable_across_orders(self, report6):
        """A lower truncation order audits a prefix of the same grid, so the
        verdicts must not move."""
        report4 = run_all(seed=0, order=4)
        v4 = {(r.id, r.variant): r.verdict for r in report4.cases}
        v6 = {(r.id, r.variant): r.verdict for r in report6.cases}
        assert v4 == v6

    def test_seed_changes_grid_not_verdicts(self, report6):
        report_other = run_all(seed=99, order=6)
        v0 = {(r.id, r.variant): r.verdict for r in report6.cases}
        v1 = {(r.id, r.variant): r.verdict for r in report_other.cases}
        assert v0 == v1

    def test_is_expected_logic(self, report6):
        for result in report6.cases:
            assert is_expected(result)

    @pytest.mark.parametrize("seed", range(2, 8))
    def test_every_variant_keeps_its_documented_verdict_at_other_seeds(self, seed):
        """Seeds 0 and 1 are pinned byte for byte (TestReportBytes): the
        verdicts must not move with the seed's grid at order 3 either."""
        report = run_all(seed=seed, order=3)
        assert [(r.id, r.variant, r.verdict) for r in report.cases if not is_expected(r)] == []


class TestDocumentedVerdicts:
    def test_whitelisted_case_must_keep_its_verdict(self):
        assert not is_expected(CaseResult("eq9-cosh", None, 1, PASS, None, ""))
        assert not is_expected(CaseResult("thm3-explicit", None, 1, FAIL, None, ""))
        assert is_expected(CaseResult("thm3-explicit", None, 1, INCONCLUSIVE, None, ""))
        assert is_expected(CaseResult("thm4-explicit", "proof", 1, FAIL, None, ""))

    def test_verdict_is_read_from_the_registry_entry(self, monkeypatch, capsys):
        """An entry that documents PASS makes its case's FAIL unexpected."""
        entry = audit._TABLE["eq9-cosh"]._replace(variants={None: PASS})
        monkeypatch.setitem(audit._TABLE, "eq9-cosh", entry)
        assert not is_expected(CaseResult("eq9-cosh", None, 1, FAIL, None, ""))
        assert main_verify(["eq9-cosh"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unregistered_variant_has_no_verdict(self):
        with pytest.raises(KeyError):
            expected_verdict(CaseResult("eq9-cosh", "as-printed", 1, FAIL, None, ""))

    @pytest.mark.parametrize(
        "order, passing_discrepancies",
        [
            (0, {("combined", "as-printed"), ("eq9-cosh", None), ("def1-sasaki-bridge", None),
                 ("thm4-explicit", "statement"), ("thm4-explicit", "proof")}),
            (1, {("combined", "as-printed"), ("eq9-cosh", None)}),
            (2, {("combined", "as-printed")}),
        ],
    )
    def test_small_orders_are_not_reported_ok(self, order, passing_discrepancies):
        """Below the minimum order the grids are too small to witness every
        documented discrepancy; the report must say so rather than PASS."""
        report = run_all(seed=0, order=order)
        unexpected = {(r.id, r.variant) for r in report.cases if not is_expected(r)}
        assert unexpected == passing_discrepancies
        assert not report_ok(report)


# The bounded search for a seed-free witness: integer entries in -bound..bound,
# nonzero indices as in the audit's grids, alpha + beta != 0 as in its
# samples, and n <= 6.  Points are ordered by the sum of their entries'
# absolute values, then as itertools.product gives them, entries ascending
# and depth 1 first.
_N_MAX = 6


def _thm4_points(bound):
    """(k, alpha, beta, gamma, x) in the search's order."""
    entries = range(-bound, bound + 1)
    points = ((k, *rest) for k in entries if k for rest in product(entries, repeat=4) if rest[0] + rest[1])
    return sorted(points, key=lambda point: sum(map(abs, point)))


def _combined_points(bound):
    """(ks, alpha, beta, x) in the search's order."""
    entries = range(-bound, bound + 1)
    indices = [k for k in entries if k]
    points = (
        (ks, *rest)
        for depth in (1, 2)
        for ks in product(indices, repeat=depth)
        for rest in product(entries, repeat=3)
        if rest[0] + rest[1]
    )
    return sorted(points, key=lambda point: sum(map(abs, point[0])) + sum(map(abs, point[1:])))


def _first_witness(points, sides):
    """The least n <= _N_MAX at which the package's two sides differ at some
    point, and the first such point in the order given: (n, point, series,
    printed), or None.  sides(point, order) gives both sides for n <= order;
    once a witness is known, later points are read only below its n."""
    found = None
    for point in points:
        order = _N_MAX if found is None else found[0] - 1
        series, printed = sides(point, order)
        n = next((n for n in range(order + 1) if series[n] != printed[n]), None)
        if n is not None:
            found = (n, point, series[n], printed[n])
    return found


def _thm4_sides(variant):
    def sides(point, order):
        k, alpha, beta, gamma, x = point
        params = LogParams(alpha, beta, gamma)
        printed = [multifamily.thm4_explicit(k, x, params, n, variant).value for n in range(order + 1)]
        return multifamily.poly_euler_abc(k, x, params, order), printed

    return sides


def _combined_sides(rhs):
    def sides(point, order):
        ks, alpha, beta, x = point
        params = LogParams(alpha, beta)
        return multifamily.multi_poly_euler_xab(ks, x, params, order), rhs(ks, x, params, order).coeffs

    return sides


class TestSeedFreeWitnesses:
    """The FAIL rows whose report counterexample comes from seeded rational
    samples, thm4 and combined[as-printed], fail at small integer points
    too.  Each witness's two values come from the oracles, and the
    package's two sides give the same two."""

    @pytest.mark.parametrize("variant", multifamily.THM4_VARIANTS)
    def test_thm4_fails_at_n_one(self, variant):
        """k = 1, (alpha, beta, gamma, x) = (0, 1, 1, 0): series 1, printed 2."""
        params = LogParams(0, 1, 1)
        assert oracles.poly_euler_abc_egf(1, 0, 0, 1, 1, 1)[1] == multifamily.poly_euler_abc(1, 0, params, 1)[1] == 1
        assert oracles.thm4_sum(1, 0, 0, 1, 1, 1, variant)[0] == 2
        assert multifamily.thm4_explicit(1, 0, params, 1, variant).value == 2

    def test_combined_as_printed_fails_at_n_three(self):
        """ks = (1, 1), alpha = beta = 1, x = 0: series 0, printed -6, and
        the repaired sum 0."""
        ks, params = (1, 1), LogParams(1, 1)
        assert oracles.multi_poly_euler_xab_egf(ks, 0, 1, 1, 3)[3] == 0
        assert multifamily.multi_poly_euler_xab(ks, 0, params, 3)[3] == 0
        assert oracles.combined_sum_printed(ks, 0, 1, 1, 3)[3] == -6
        assert multifamily.combined_rhs_printed(ks, 0, params, 3).coeffs[3] == -6
        assert oracles.combined_sum(ks, 0, 1, 1, 3)[3] == 0
        assert multifamily.combined_rhs(ks, 0, params, 3).coeffs[3] == 0

    @pytest.mark.parametrize("variant", multifamily.THM4_VARIANTS)
    def test_first_thm4_witness_of_the_search(self, variant):
        """k = -1, (alpha, beta, gamma, x) = (-1, 0, 0, 0) at n = 1: series
        -1, printed -2."""
        found = _first_witness(_thm4_points(2), _thm4_sides(variant))
        assert found == (1, (-1, -1, 0, 0, 0), -1, -2)
        assert oracles.poly_euler_abc_egf(-1, 0, -1, 0, 0, 1)[1] == -1
        assert oracles.thm4_sum(-1, 0, -1, 0, 0, 1, variant)[0] == -2

    def test_first_combined_as_printed_witness_of_the_search(self):
        """ks = (-1, -1), alpha = -1, beta = 0, x = 0 at n = 3: series -27,
        printed -21."""
        found = _first_witness(_combined_points(2), _combined_sides(multifamily.combined_rhs_printed))
        assert found == (3, ((-1, -1), -1, 0, 0), -27, -21)
        assert oracles.multi_poly_euler_xab_egf((-1, -1), 0, -1, 0, 3)[3] == -27
        assert oracles.combined_sum_printed((-1, -1), 0, -1, 0, 3)[3] == -21

    def test_repaired_combined_has_no_witness_within_the_bound(self):
        """The control, over entries in -1..1: the repaired double sum agrees
        with the series at all 108 points for every n <= 6."""
        points = _combined_points(1)
        assert len(points) == 108
        assert _first_witness(points, _combined_sides(multifamily.combined_rhs)) is None


class TestCompareControls:
    """The comparison loop reads a side given as an ``Egf`` by
    cross-multiplication; these controls pin what it reports."""

    CASE = IdentityCase("control", None, {})
    # Each value keeps its own denominator; over 12 they are 4, -10, 0, 42, 11.
    VALUES = [Fraction(1, 3), Fraction(-5, 6), Fraction(0), Fraction(7, 2), Fraction(11, 12)]
    NUMS = [4, -10, 0, 42, 11]

    def run(self, points, actual, expected=None):
        expected = expected or (lambda c, p: self.VALUES)
        check = _Check(lambda d: {}, lambda c: points, expected, actual, "ok", "bad")
        return _compare(self.CASE, check)

    def test_equal_values_pass(self):
        result = self.run([{}], lambda c, p: Egf.of(self.NUMS, 12))
        assert (result.verdict, result.grid_size, result.counterexample) == (PASS, 5, None)

    @pytest.mark.parametrize("n", range(5))
    def test_one_numerator_off_by_one_fails_there(self, n):
        nums = list(self.NUMS)
        nums[n] += 1
        off = Egf.of(nums, 12)
        result = self.run([{}], lambda c, p: off)
        as_fractions = self.run([{}], lambda c, p: list(off.coeffs))
        assert result.verdict == FAIL
        assert result.counterexample["params"] == {"n": n}
        assert result.counterexample == as_fractions.counterexample
        assert result.counterexample["expected"] == str(self.VALUES[n])
        assert result.counterexample["actual"] == str(Fraction(nums[n], 12))

    def test_two_equal_series_over_different_denominators_pass(self):
        """Equal series in lowest terms share their denominator, so the
        actual side carries one more coefficient, 1/5, past the compared
        prefix: it is over 60, the expected side over 12."""
        actual = Egf.of([5 * v for v in self.NUMS] + [12], 60)
        assert actual.numerators()[1] == 60
        result = self.run([{}], lambda c, p: actual, lambda c, p: Egf.of(self.NUMS, 12))
        assert (result.verdict, result.grid_size, result.counterexample) == (PASS, 5, None)

    @pytest.mark.parametrize("n", range(5))
    def test_two_series_one_numerator_off_by_one(self, n):
        """The expected side over 12, the actual side with numerator n over
        60 off by one, so over 60 or 30: the first counterexample is the
        list path's."""
        nums = [5 * v for v in self.NUMS]
        nums[n] += 1
        off = Egf.of(nums, 60)
        assert off.numerators()[1] in (30, 60)
        result = self.run([{}], lambda c, p: off, lambda c, p: Egf.of(self.NUMS, 12))
        as_lists = self.run([{}], lambda c, p: list(off.coeffs))
        assert result.verdict == FAIL
        assert result.counterexample["params"] == {"n": n}
        assert result.counterexample == as_lists.counterexample
        assert result.counterexample["actual"] == str(Fraction(nums[n], 60))

    @pytest.fixture
    def walks(self, monkeypatch):
        """Record each side read by the coefficient walk, two per walked point."""
        calls = []
        original = audit._ratios

        def counting(values):
            calls.append(values)
            return original(values)

        monkeypatch.setattr(audit, "_ratios", counting)
        return calls

    def test_equal_series_skip_the_walk_and_count_every_coefficient(self, walks):
        def series(c, p):
            return Egf.of(self.NUMS, 12)

        result = self.run([{"p": p} for p in range(4)], series, series)
        assert (result.verdict, result.grid_size, result.counterexample) == (PASS, 20, None)
        assert walks == []

    def test_equal_series_short_circuit_reports_what_the_walk_reports(self, walks):
        """Points 0 and 1 agree; point 2 is off at n = 3 and point 3 at
        n = 0.  Read as series, only the two unequal points are walked, and
        grid size and first counterexample are those of the walk over
        rational lists."""
        off = {2: Egf.of([4, -10, 0, 43, 11], 12), 3: Egf.of([5, -10, 0, 42, 11], 12)}
        points = [{"p": p} for p in range(4)]

        def actual(c, p):
            return off.get(p["p"], Egf.of(self.NUMS, 12))

        result = self.run(points, actual, lambda c, p: Egf.of(self.NUMS, 12))
        assert len(walks) == 2 * 2
        as_lists = self.run(points, lambda c, p: list(actual(c, p).coeffs))
        assert result == as_lists
        assert result.verdict == FAIL
        assert result.grid_size == 20
        assert result.counterexample == {
            "params": {"p": 2, "n": 3},
            "expected": "7/2",
            "actual": "43/12",
        }

    def test_only_the_first_mismatch_is_reported(self):
        """Point 0 is off at n = 1 and n = 3, point 1 at n = 0."""
        off = {0: Egf.of([4, -9, 0, 43, 11], 12), 1: Egf.of([5, -10, 0, 42, 11], 12)}
        result = self.run([{"p": 0}, {"p": 1}], lambda c, p: off[p["p"]])
        assert result.verdict == FAIL
        assert result.grid_size == 10
        assert result.counterexample == {
            "params": {"p": 0, "n": 1},
            "expected": "-5/6",
            "actual": "-3/4",
        }


class TestReportBytes:
    @pytest.mark.parametrize("order, seed", sorted(REPORT_SHA256))
    def test_report_hash_pinned(self, order, seed, report6):
        report = report6 if (order, seed) == (6, 0) else run_all(seed=seed, order=order)
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == REPORT_SHA256[(order, seed)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cli_report_hash_pinned(self, seed, tmp_path):
        """The default order-10 report as ``python -m polyeuler audit``
        writes it, in a child interpreter in which any warning is an error:
        seed 0 to stdout, seed 1 through --out."""
        target = tmp_path / "report.json"
        argv = ["--seed", "1", "--out", str(target)] if seed else []
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "polyeuler", "audit", "--order", "10", *argv],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        report = target.read_bytes() if seed else proc.stdout
        assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[(10, seed)]

    @pytest.mark.parametrize("seed", [0, 1, -5, 10**30])
    @pytest.mark.parametrize("label", ["theorem-grid", "thm4-grid"])
    def test_derived_rng_is_seeded_by_sha256(self, seed, label):
        """The grids' generators against hashlib's SHA-256, also at the
        seeds -5 and 10**30, which no pinned report hash covers."""
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        expected = random.Random(int.from_bytes(digest[:8], "big"))
        got = audit._derived_rng(seed, label)
        assert [got.getrandbits(64) for _ in range(8)] == [expected.getrandbits(64) for _ in range(8)]


class TestReportSchema:
    def test_json_shape(self, report6):
        payload = json.loads(report_to_json(report6))
        assert set(payload) == {"seed", "order", "cases"}
        assert payload["seed"] == 0
        assert payload["order"] == 6
        for case in payload["cases"]:
            assert set(case) == {"id", "variant", "grid_size", "verdict", "counterexample", "notes"}
            assert case["verdict"] in (PASS, FAIL, INCONCLUSIVE)
            assert isinstance(case["grid_size"], int) and case["grid_size"] > 0
            assert isinstance(case["notes"], str)
            if case["counterexample"] is not None:
                assert set(case["counterexample"]) == {"params", "expected", "actual"}
                parse_rational(case["counterexample"]["expected"])
                parse_rational(case["counterexample"]["actual"])

"""Registry of claimed identities, each checked by exact coefficient comparison.

Every case compares two independently computed exact values over a finite,
fully enumerated grid and reports PASS, FAIL, or INCONCLUSIVE.  A handful of
registered claims are wrong as printed; each registry entry documents the
verdict of every variant it runs, so the audit distinguishes "documented
discrepancy" from "regression" and also flags a documented discrepancy that
stops showing.
INCONCLUSIVE is reserved for the one capped, divergent formula
(thm3-explicit) where no equality is asserted at all.

Randomized parameters are small seeded rationals; identical (seed, order)
inputs always produce an identical report, byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import DEFAULT_ORDER, DEFAULT_SEED, classical, multifamily, polyfamily
from .classical import EulerConvention
from .exact import Egf, cache_scope, egf_exp_sum, egf_scale, format_rational
from .multifamily import LogParams

try:  # hashlib loads OpenSSL; random.py reads its SHA-512 from the built-in module the same way
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class UnknownIdentity(KeyError):
    """Requested identity id (or variant) is not in the registry."""


class IdentityCase(NamedTuple):
    """One executable audit case: an identity id, optional variant, and the
    fully materialized parameter grid it will be checked on."""

    id: str
    variant: str | None
    grid: Mapping


class CaseResult(NamedTuple):
    id: str
    variant: str | None
    grid_size: int
    verdict: str
    counterexample: dict | None
    notes: str

    @property
    def label(self) -> str:
        return self.id if self.variant is None else f"{self.id}[{self.variant}]"


class AuditReport(NamedTuple):
    seed: int
    order: int
    cases: tuple[CaseResult, ...]


# Smallest order whose grids witness every documented verdict: below it,
# claims that are false as printed (combined[as-printed], eq9-cosh, ...) run on
# too few coefficients to fail.
MIN_ORDER = 3

def _derived_rng(seed: int, label: str) -> random.Random:
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def _shared_samples(seed: int) -> tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]:
    """25 seeded (alpha, beta, x, y) tuples with alpha + beta != 0, shared by all
    cases that run on the theorem grid so their sequences can be reused."""
    rng = _derived_rng(seed, "theorem-grid")
    samples = []
    while len(samples) < 25:
        alpha, beta = _small_rational(rng), _small_rational(rng)
        if alpha + beta == 0:
            continue
        samples.append((alpha, beta, _small_rational(rng), _small_rational(rng)))
    return tuple(samples)


class _Draws(NamedTuple):
    """What grids are built from: the order and the two draws cases share."""

    order: int
    theorem: Mapping
    thm4: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]


def _fmt_params(params: Mapping) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, Fraction):
            out[key] = format_rational(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


class _Check(NamedTuple):
    """One row of the comparison table: grid, points, two sides and notes.

    ``variants`` maps each variant the case runs, in run order, to its
    documented verdict; the default is one unnamed variant that must PASS.
    ``grid`` builds the grid of each variant from ``_Draws``.
    ``expected`` and ``actual`` map (case, point) to one value, or to a list
    or an ``Egf`` of the values at n = 0, 1, ..., which are compared index by
    index with ``n`` appended to the point.  ``notes_fail`` may name the
    case's variant as ``%(variant)s``.
    """

    grid: Callable[[_Draws], Mapping]
    points: Callable[[IdentityCase], Iterable[dict]]
    expected: Callable[[IdentityCase, dict], object]
    actual: Callable[[IdentityCase, dict], object]
    notes_pass: str
    notes_fail: str
    variants: Mapping[str | None, str] = {None: PASS}


class _Runner(NamedTuple):
    """A case that asserts no plain equality (thm3-explicit's partial-sum table,
    def1-sasaki-bridge's constant-ratio probe): its grid, its own runner and,
    as in ``_Check``, its variants' documented verdicts."""

    grid: Callable[[_Draws], Mapping]
    run: Callable[[IdentityCase], CaseResult]
    variants: Mapping[str | None, str]


def _ratios(values) -> tuple[Sequence[int], Sequence[int]]:
    """Numerators and denominators of one side: an ``Egf`` gives its integer
    numerators over its one denominator, a list its rationals' own."""
    if isinstance(values, Egf):
        nums, den = values.numerators()
        return nums, [den] * len(nums)
    return [v.numerator for v in values], [v.denominator for v in values]


def _compare(case: IdentityCase, check: _Check) -> CaseResult:
    """Walk the grid in order, computing both sides once per point; report
    the first mismatch if any.

    Two equal ``Egf`` sides are settled by one comparison.  Otherwise values
    are compared by cross-multiplication, so a side given as an ``Egf`` is
    never turned into rationals; a ``Fraction`` is built only to format the
    first counterexample.
    """
    grid_size = 0
    first = None
    for point in check.points(case):
        expected = check.expected(case, point)
        actual = check.actual(case, point)
        if isinstance(expected, Egf) and expected == actual:
            # Both sides are canonical (lowest terms, positive denominator),
            # so equal series agree at every n: count them without the walk.
            grid_size += expected.order + 1
            continue
        sequence = isinstance(expected, (list, Egf))
        if not sequence:
            expected, actual = [expected], [actual]
        (e_num, e_den), (a_num, a_den) = _ratios(expected), _ratios(actual)
        for n in range(len(e_num)):
            grid_size += 1
            if first is None and e_num[n] * a_den[n] != a_num[n] * e_den[n]:
                first = {
                    "params": _fmt_params({**point, "n": n} if sequence else point),
                    "expected": format_rational(Fraction(e_num[n], e_den[n])),
                    "actual": format_rational(Fraction(a_num[n], a_den[n])),
                }
    if first is None:
        return CaseResult(case.id, case.variant, grid_size, PASS, None, check.notes_pass)
    notes = check.notes_fail % {"variant": case.variant}
    return CaseResult(case.id, case.variant, grid_size, FAIL, first, notes)


def _theorem_points(case: IdentityCase) -> list[dict]:
    return [
        {"ks": ks, "alpha": s[0], "beta": s[1], "x": s[2], "y": s[3]}
        for ks in case.grid["kvectors"]
        for s in case.grid["samples"]
    ]


def _theorem_row(expected, actual, notes_pass: str, notes_fail: str, **kwargs) -> _Check:
    """A row over the shared theorem grid, both sides series at each point."""
    return _Check(
        lambda d: d.theorem, _theorem_points, expected, actual, notes_pass, notes_fail, **kwargs
    )


def _log_params(point: dict) -> LogParams:
    return LogParams(point["alpha"], point["beta"], point.get("gamma"))


def _xab(case: IdentityCase, point: dict, x: Fraction | int) -> Egf:
    """The left side of thm2, cor1, cor2 and combined: E^{(ks)}(x; a, b) as
    the cached series, compared over its integer numerators."""
    return multifamily._xab_egf(point["ks"], x, point["alpha"], point["beta"], case.grid["n_max"])


def _run_thm3(case: IdentityCase) -> CaseResult:
    lines = []
    order = max(case.grid["n_points"])
    for ks, x in product(case.grid["kvectors"], case.grid["x_points"]):
        series = multifamily.multi_poly_euler(ks, x, order)
        for n, m_cap, part_cap in product(case.grid["n_points"], case.grid["caps"], case.grid["caps"]):
            result = multifamily.thm3_explicit(ks, x, n, m_cap, part_cap)
            lines.append(
                f"ks={','.join(map(str, ks))} x={x} n={n} "
                f"m_cap={m_cap} part_cap={part_cap}: "
                f"partial={result.value} skipped={result.skipped_terms} "
                f"series={series[n]}"
            )
    notes = (
        "capped partial sums of the printed quadruple-sum formula; the "
        "rearranged geometric expansion it relies on does not converge "
        "termwise, so no equality is asserted | " + " | ".join(lines)
    )
    return CaseResult(case.id, case.variant, len(lines), INCONCLUSIVE, None, notes)


def _run_def1_sasaki(case: IdentityCase) -> CaseResult:
    n_max = case.grid["n_max"]
    failing = []
    lines = []
    for k in case.grid["k_points"]:
        scaled = [
            Fraction(4) ** n * v
            for n, v in enumerate(polyfamily.poly_euler(k, Fraction(1, 2), n_max))
        ]
        sasaki = polyfamily.poly_euler_sasaki(k, n_max)
        # The claimed bridge: one constant relating the substituted values to
        # the 4t-cosh-t numbers.  Probe every constant candidate ratio.
        pairs = ", ".join(f"n={n}: {scaled[n]} vs {sasaki[n]}" for n in range(n_max + 1))
        lines.append(f"k={k}: {pairs}")
        candidates = {
            scaled[n] / sasaki[n] for n in range(n_max + 1) if sasaki[n] != 0
        }
        constant = next(iter(candidates)) if len(candidates) == 1 else None
        failing += [
            ({"k": k, "n": n}, sasaki[n], scaled[n])
            for n in range(n_max + 1)
            if constant is None or scaled[n] != constant * sasaki[n]
        ]
    grid_size = len(case.grid["k_points"]) * (n_max + 1)
    if not failing:
        return CaseResult(
            case.id, case.variant, grid_size, PASS, None, "a single constant relates the sequences"
        )
    params, expected, actual = failing[0]
    first = {"params": params, "expected": format_rational(expected), "actual": format_rational(actual)}
    notes = (
        "no constant multiple relates the substituted values (t -> 4t, "
        "x = 1/2, scaled by 4^n) to the 4t-cosh-t numbers; side-by-side "
        "values | " + " | ".join(lines)
    )
    return CaseResult(case.id, case.variant, grid_size, FAIL, first, notes)


_BRIDGE_X_POINTS = tuple(
    Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, Fraction(1, 2), Fraction(-1, 2))
)


# The registry: every identity, its variants in run order with their documented
# verdicts, its grid, and a pointwise row of the comparison table, or its own
# runner for the two cases that assert no plain equality.  Cases run in order.
# build_registry, registered_ids, run_identity, expected_verdict and polyverify's
# unknown-identity message all read it.
_TABLE: dict[str, _Check | _Runner] = {
    "eq2-power-sum": _Check(
        lambda d: {"m_max": 8, "n_max": 20},
        lambda c: [
            {"m": m, "n": n}
            for m in range(c.grid["m_max"] + 1)
            for n in range(c.grid["n_max"] + 1)
        ],
        lambda c, p: classical.power_sum(p["m"], p["n"]),
        lambda c, p: classical.power_sum_closed(p["m"], p["n"], c.variant),
        "closed form with B_1 = +1/2 reproduces every direct power sum",
        "documented convention clash: with B_1 = -1/2 the closed form yields the "
        "sum shifted by one (it equals S_m(n-1) for every m >= 1)",
        variants={"plus": PASS, "minus": FAIL},
    ),
    "eq3-bernoulli-det": _Check(
        lambda d: {"n_max": min(10, d.order)},
        lambda c: [{"n": n} for n in range(1, c.grid["n_max"] + 1)],
        lambda c, p: classical.bernoulli_numbers(c.grid["n_max"])[p["n"]],
        lambda c, p: classical.bernoulli_det(p["n"]),
        "determinant form agrees with the t/(e^t-1) series",
        "determinant form disagrees with the t/(e^t-1) series",
    ),
    "eq6-euler-det": _Check(
        lambda d: {"n_max": min(6, d.order // 2)},
        lambda c: [{"n": n} for n in range(1, c.grid["n_max"] + 1)],
        lambda c, p: classical.euler_numbers(
            2 * c.grid["n_max"], EulerConvention.SECANT_TYPE
        )[2 * p["n"]],
        lambda c, p: classical.euler_det(p["n"]),
        "determinant form agrees with the 1/cosh t series at even indices",
        "determinant form disagrees with the 1/cosh t series",
    ),
    "eq9-cosh": _Check(
        lambda d: {"n_max": d.order},
        lambda c: [{}],
        lambda c, p: classical.euler_numbers(c.grid["n_max"], EulerConvention.SECANT_TYPE),
        lambda c, p: egf_scale(egf_exp_sum(((1, 1), (1, -1)), c.grid["n_max"]), Fraction(1, 2)),
        "cosh t expands to the secant numbers",
        "documented misprint: the relation holds for 1/cosh t, not cosh t; "
        "the secant convention follows the determinant values",
        variants={None: FAIL},
    ),
    "bridge-poly-bernoulli": _Check(
        lambda d: {"n_max": min(12, d.order), "x_points": _BRIDGE_X_POINTS},
        lambda c: [{"x": x} for x in c.grid["x_points"]],
        lambda c, p: [
            classical.poly_eval(classical.bernoulli_polynomial(n, c.grid["n_max"]), p["x"])
            for n in range(c.grid["n_max"] + 1)
        ],
        lambda c, p: [
            (-1) ** n * v
            for n, v in enumerate(polyfamily.poly_bernoulli(1, -p["x"], c.grid["n_max"]))
        ],
        "(-1)^n B_n^{(1)}(-x) matches B_n(x) at more sample points than the degree",
        "(-1)^n B_n^{(1)}(-x) differs from B_n(x)",
    ),
    "brewbaker-lonesum": _Check(
        lambda d: {"shapes": tuple((n, k) for n in (1, 2, 3) for k in (1, 2, 3)) + ((4, 4),)},
        lambda c: [{"rows": n, "cols": k} for (n, k) in c.grid["shapes"]],
        lambda c, p: polyfamily.lonesum_count(p["rows"], p["cols"]),
        lambda c, p: polyfamily.poly_bernoulli(-p["cols"], 0, p["rows"])[p["rows"]],
        "negative-index values equal the lonesum matrix counts "
        "(enumeration is the ground truth)",
        "negative-index values disagree with the lonesum matrix counts",
    ),
    "thm1": _theorem_row(
        # The list wrapper, not _xab: the traced benchmark pass needs a call
        # of multi_poly_euler_ab (and, through it, multi_poly_euler_xab).
        lambda c, p: multifamily.multi_poly_euler_ab(p["ks"], _log_params(p), c.grid["n_max"]),
        lambda c, p: multifamily.thm1_rhs(p["ks"], _log_params(p), c.grid["n_max"]),
        "two-parameter numbers equal the rescaled polynomial values",
        "two-parameter numbers disagree with the rescaled polynomial values",
    ),
    "thm2": _theorem_row(
        lambda c, p: _xab(c, p, 0),
        lambda c, p: multifamily.thm2_rhs(p["ks"], _log_params(p), c.grid["n_max"]),
        "two-parameter numbers equal the binomial mix of the plain numbers",
        "two-parameter numbers disagree with the binomial mix of the plain numbers",
    ),
    "cor1": _theorem_row(
        lambda c, p: _xab(c, p, p["x"]),
        lambda c, p: multifamily.cor1_rhs(p["ks"], p["x"], _log_params(p), c.grid["n_max"]),
        "polynomial values expand binomially over the two-parameter numbers",
        "binomial expansion over the two-parameter numbers fails",
    ),
    "cor2": _theorem_row(
        lambda c, p: _xab(c, p, p["x"] + p["y"]),
        lambda c, p: multifamily.addition_rhs(
            p["ks"], p["x"], p["y"], _log_params(p), c.grid["n_max"]
        ),
        "shifting the argument by y matches the binomial addition expansion",
        "the binomial addition expansion fails",
    ),
    "combined": _theorem_row(
        lambda c, p: _xab(c, p, p["x"]),
        lambda c, p: (
            multifamily.combined_rhs if c.variant is None else multifamily.combined_rhs_printed
        )(p["ks"], p["x"], _log_params(p), c.grid["n_max"]),
        "double sum with the substituted exponent r^{n-j} matches the polynomial values",
        "documented misprint: the printed double sum carries r^{n-k}, but "
        "substituting the thm2 expansion into cor1 produces r^{n-j}; the "
        "repaired variant passes",
        variants={None: PASS, "as-printed": FAIL},
    ),
    "thm3-explicit": _Runner(
        lambda d: {
            "kvectors": ((1,), (2,), (1, 1)),
            "x_points": (Fraction(0), Fraction(1, 2)),
            "n_points": (0, 1, 2),
            "caps": (4, 8, 12),
        },
        _run_thm3,
        {None: INCONCLUSIVE},
    ),
    "thm4-explicit": _Check(
        lambda d: {"k_points": (-1, 1, 2), "samples": d.thm4, "n_max": min(6, d.order)},
        lambda c: [
            {"k": k, "alpha": s[0], "beta": s[1], "gamma": s[2], "x": s[3]}
            for k in c.grid["k_points"]
            for s in c.grid["samples"]
        ],
        # The list wrapper: the traced benchmark pass needs a call of
        # poly_euler_abc, and thm4 is the audit's only reader of it.
        lambda c, p: multifamily.poly_euler_abc(p["k"], p["x"], _log_params(p), c.grid["n_max"]),
        lambda c, p: [
            multifamily.thm4_explicit(p["k"], p["x"], _log_params(p), n, c.variant).value
            for n in range(c.grid["n_max"] + 1)
        ],
        "triple-sum formula reproduces the three-parameter series values",
        "triple-sum formula (variant %(variant)s) does not reproduce the "
        "three-parameter series; the truncation of the divergent rearrangement "
        "to m <= n is not justified",
        variants=dict.fromkeys(multifamily.THM4_VARIANTS, FAIL),
    ),
    "def1-sasaki-bridge": _Runner(
        lambda d: {"k_points": (1, 2, 3), "n_max": min(8, d.order)}, _run_def1_sasaki, {None: FAIL}
    ),
}


def build_registry(seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> list[IdentityCase]:
    """Materialize every registered case with concrete, finite grids.

    ``order`` bounds each series grid up to its row's cap, so that a lower
    order audits a prefix of the higher-order grid: the theorem rows (thm1,
    thm2, cor1, cor2, combined) take n <= 10, bridge-poly-bernoulli 12,
    eq3 10, eq6 6 (n <= order // 2), def1 8 and thm4 6, while the thm3,
    eq2 and lonesum grids are fixed.  So an order past 12 grows only
    eq9-cosh, whose n runs to ``order``.
    """
    samples = _shared_samples(seed)
    kvectors = tuple(ks for r in (1, 2, 3) for ks in product((-1, 1, 2), repeat=r))
    rng4 = _derived_rng(seed, "thm4-grid")
    thm4_samples = tuple(
        (alpha, beta, _small_rational(rng4), _small_rational(rng4))
        for alpha, beta, _, _ in samples[:5]
    )
    theorem = {"kvectors": kvectors, "samples": samples, "n_max": min(10, order)}
    draws = _Draws(order, theorem, thm4_samples)
    return [
        IdentityCase(case_id, variant, entry.grid(draws))
        for case_id, entry in _TABLE.items()
        for variant in entry.variants
    ]


def registered_ids() -> tuple[str, ...]:
    return tuple(sorted(_TABLE))


@cache_scope()
def run_identity(case: IdentityCase) -> CaseResult:
    """Execute one case; deterministic given the case's grid."""
    entry = _TABLE.get(case.id)
    if entry is None:
        raise UnknownIdentity(case.id)
    return _compare(case, entry) if isinstance(entry, _Check) else entry.run(case)


def expected_verdict(result: CaseResult) -> str:
    """The verdict the case's registry entry documents for its variant."""
    return _TABLE[result.id].variants[result.variant]


def is_expected(result: CaseResult) -> bool:
    """The verdict is the documented one: PASS, or a documented discrepancy's
    own FAIL or INCONCLUSIVE.  A documented discrepancy that passes is not."""
    return result.verdict == expected_verdict(result)


@cache_scope()
def run_all(seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> AuditReport:
    """Run every registered case in one cache scope; results are sorted by (id, variant)."""
    results = [run_identity(case) for case in build_registry(seed, order)]
    results.sort(key=lambda r: (r.id, r.variant or ""))
    return AuditReport(seed, order, tuple(results))


def report_ok(report: AuditReport) -> bool:
    return all(is_expected(result) for result in report.cases)


def report_to_json(report: AuditReport) -> str:
    """The report's keys are the fields of AuditReport and CaseResult, in
    the order they are declared.  json is imported here, its only reader,
    so that polyverify does not load it."""
    import json

    document = {**report._asdict(), "cases": [result._asdict() for result in report.cases]}
    return json.dumps(document, indent=2) + "\n"

"""Workload definitions: seeded seq requests, the audit verdict table, and
the calls each workload is expected to make.

The seed draws values (indices and rationals), never sizes: every pass of a
workload has the same request shapes, so its cost barely depends on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

AUDIT_ORDER = 10

# (family, n, depth).  Sizes are chosen so that requests of one workload cost
# about the same, which keeps the pooled median off a gap between sizes.
# seq-long: large n, index depth <= 2, non-integer parameters, so the EGF
# substrate (compose, mul, div) dominates and multi-Li enumeration is small.
# Depth 3 at n = 40 would already spend 6% of a pass enumerating C(40, 3).
SEQ_LONG_SHAPES = (
    ("poly-bernoulli", 50, 1),
    ("poly-euler", 50, 1),
    ("poly-euler-sasaki", 48, 1),
    ("multi-poly-euler", 45, 2),
    ("multi-poly-euler", 48, 2),
    ("poly-euler-abc", 48, 1),
    ("multi-poly-euler", 50, 1),
    ("poly-bernoulli", 55, 1),
    ("poly-euler", 56, 1),
)

# seq-deep: depth 4-6 at n = 22-28, so the C(N, depth) multi-Li enumeration
# dominates.  Costs run from 0.2 s to 2.5 s; most requests are depth 4, so a
# 25 s run still holds 36 of them.  Depth 5 and 6 stay on
# multi-poly-euler: multi-poly-bernoulli enumerates at N = n + depth, which
# takes 3 s at depth 5 and over 10 s at depth 6.
SEQ_DEEP_SHAPES = (
    ("multi-poly-euler", 22, 4),
    ("multi-poly-bernoulli", 22, 4),
    ("multi-poly-euler", 26, 4),
    ("multi-poly-bernoulli", 24, 4),
    ("multi-poly-euler", 28, 4),
    ("multi-poly-euler", 22, 5),
    ("multi-poly-bernoulli", 26, 4),
    ("multi-poly-euler", 24, 5),
    ("multi-poly-euler", 22, 6),
)

SEQ_SHAPES = {"seq-long": SEQ_LONG_SHAPES, "seq-deep": SEQ_DEEP_SHAPES}
WORKLOADS = ("seq-long", "seq-deep", "audit")

# Independent recomputations with tests/oracles.py per run, outside the
# timed region (the oracle costs about as much as the package per request).
ORACLE_CHECKS = {"seq-long": 2, "seq-deep": 1}


def case_label(case_id: str, variant: str | None) -> str:
    """Audit case name as used in metric names, e.g. ``combined.as-printed``."""
    return case_id if variant is None else f"{case_id}.{variant}"


# Documented verdicts of the audit registry at the default order.
EXPECTED_VERDICTS = {
    "eq2-power-sum.plus": "PASS",
    "eq2-power-sum.minus": "FAIL",
    "eq3-bernoulli-det": "PASS",
    "eq6-euler-det": "PASS",
    "eq9-cosh": "FAIL",
    "bridge-poly-bernoulli": "PASS",
    "brewbaker-lonesum": "PASS",
    "thm1": "PASS",
    "thm2": "PASS",
    "cor1": "PASS",
    "cor2": "PASS",
    "combined": "PASS",
    "combined.as-printed": "FAIL",
    "thm3-explicit": "INCONCLUSIVE",
    "thm4-explicit.statement": "FAIL",
    "thm4-explicit.proof": "FAIL",
    "def1-sasaki-bridge": "FAIL",
}

_SUBSTRATE = ("exact.egf_mul", "exact.egf_compose", "exact.egf_div", "polylog.li_of_inner")

# Wrapped functions that must record at least one call in a traced pass.
EXPECTED_CALLS = {
    "audit": _SUBSTRATE
    + (
        "polylog.multi_li_series",
        "classical.bernoulli_numbers",
        "classical.euler_numbers",
        "classical.bernoulli_det",
        "classical.euler_det",
        "classical.power_sum_closed",
        "classical.bernoulli_polynomial",
        "polyfamily.poly_bernoulli",
        "polyfamily.poly_euler",
        "polyfamily.poly_euler_sasaki",
        "polyfamily.lonesum_count",
        "multifamily.multi_poly_euler",
        "multifamily.multi_poly_euler_ab",
        "multifamily.multi_poly_euler_xab",
        "multifamily.poly_euler_abc",
        "multifamily.thm1_rhs",
        "multifamily.thm2_rhs",
        "multifamily.cor1_rhs",
        "multifamily.addition_rhs",
        "multifamily.combined_rhs",
        "multifamily.combined_rhs_printed",
        "multifamily.thm3_explicit",
        "multifamily.thm4_explicit",
        "audit.run_identity",
        "cli.main_audit",
    ),
    "seq-long": _SUBSTRATE
    + (
        "polylog.multi_li_series",
        "polyfamily.poly_bernoulli",
        "polyfamily.poly_euler",
        "polyfamily.poly_euler_sasaki",
        "multifamily.multi_poly_euler_xab",
        "multifamily.poly_euler_abc",
        "cli.main_seq",
    ),
    "seq-deep": _SUBSTRATE
    + (
        "polylog.multi_li_series",
        "multifamily.multi_poly_euler",
        "multifamily.multi_poly_bernoulli",
        "cli.main_seq",
    ),
}


def _index(rng: random.Random) -> int:
    return rng.randint(-2, 3)


def _rational(rng: random.Random) -> Fraction:
    """A non-integer rational with numerator and denominator below 10."""
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if value.denominator != 1:
            return value


def _params(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        alpha, beta = _rational(rng), _rational(rng)
        if alpha + beta != 0:
            return alpha, beta


def _request(rng: random.Random, family: str, n: int, depth: int) -> dict:
    req: dict = {"family": family, "n": n}
    if family in ("multi-poly-euler", "multi-poly-bernoulli"):
        req["ks"] = [_index(rng) for _ in range(depth)]
    else:
        req["k"] = _index(rng)
    if family in ("poly-bernoulli", "poly-euler", "poly-euler-abc"):
        req["x"] = str(_rational(rng))
    if family == "multi-poly-euler" and depth <= 3:
        req["x"] = str(_rational(rng))
        req["alpha"], req["beta"] = map(str, _params(rng))
    if family == "poly-euler-abc":
        req["alpha"], req["beta"] = map(str, _params(rng))
        req["gamma"] = str(_rational(rng))
    return req


def seq_pass(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The requests of one pass: one per shape, values drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return [_request(rng, *shape) for shape in SEQ_SHAPES[workload]]


def to_argv(req: dict) -> list[str]:
    """polyseq arguments; every value uses the --opt=value form, so negative
    rationals such as --x=-1/2 are not mistaken for flags."""
    argv = [req["family"], f"--n={req['n']}"]
    if "k" in req:
        argv.append(f"--k={req['k']}")
    if "ks" in req:
        argv.append("--ks=" + ",".join(map(str, req["ks"])))
    for key in ("x", "alpha", "beta", "gamma"):
        if key in req:
            argv.append(f"--{key}={req[key]}")
    return argv


def request_key(req: dict) -> str:
    return " ".join(to_argv(req))

"""Independent recomputation of seq requests with tests/oracles.py.

The oracles work on ordinary power-series coefficients with naive
algorithms and share no code with the package.  This module only combines
their primitives into the generating function of each family.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracles  # noqa: E402


def _rational(req: dict, key: str) -> Fraction:
    return Fraction(req.get(key, "0"))


def _times_exp(egf: list, value: Fraction, order: int) -> list:
    """EGF coefficients of egf(t) * e^{value t}."""
    ordinary = [c / factorial(n) for n, c in enumerate(egf)]
    return oracles.egf_from_ord(oracles.ord_mul(ordinary, oracles.ord_exp(value, order), order))


def _sasaki(k: int, order: int) -> list:
    """EGF coefficients of Li_k(1-e^{-4t}) / (4t cosh t), cancelling t."""
    work = order + 1
    num = oracles.ord_compose(
        oracles.multi_li_ordinary((k,), work), oracles.one_minus_exp(-4, work), work
    )
    den = [Fraction(0)] + [
        Fraction(4, factorial(m)) if m % 2 == 0 else Fraction(0) for m in range(work)
    ]
    return oracles.egf_from_ord(oracles.ord_div(num[1:], den[1:], order))


def expected_values(req: dict) -> list:
    """The sequence a polyseq request should print, from the oracles alone."""
    family, n = req["family"], req["n"]
    x = _rational(req, "x")
    if family == "poly-bernoulli":
        return _times_exp(oracles.multi_poly_bernoulli_egf((req["k"],), n), x, n)
    if family == "poly-euler":
        return oracles.multi_poly_euler_egf((req["k"],), x, n)
    if family == "poly-euler-sasaki":
        return _sasaki(req["k"], n)
    if family == "multi-poly-bernoulli":
        return oracles.multi_poly_bernoulli_egf(tuple(req["ks"]), n)
    alpha, beta = _rational(req, "alpha"), _rational(req, "beta")
    if family == "poly-euler-abc":
        return oracles.poly_euler_abc_egf(req["k"], x, alpha, beta, _rational(req, "gamma"), n)
    if family == "multi-poly-euler" and "alpha" in req:
        return oracles.multi_poly_euler_xab_egf(tuple(req["ks"]), x, alpha, beta, n)
    if family == "multi-poly-euler":
        return oracles.multi_poly_euler_egf(tuple(req["ks"]), x, n)
    raise ValueError(f"no reference for family {family!r}")


def parse_plain(text: str) -> list:
    """Values of polyseq's plain format, one ``n<TAB>value`` line each, in order."""
    values = []
    for n, line in enumerate(text.splitlines()):
        index, _, value = line.partition("\t")
        if index != str(n):
            raise ValueError(f"line {n} is {line!r}")
        values.append(Fraction(value))
    return values

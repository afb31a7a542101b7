"""Exact-rational generating-function toolkit for Bernoulli/Euler-type families.

The public names below, and the layers themselves (``polyeuler.exact`` and
so on), are imported on first access (PEP 562), so ``import polyeuler``
loads no layer and a command loads only the layers it runs: ``polyseq
bernoulli`` and ``euler`` load ``classical``, ``exact`` and ``polylog``, the
poly-* families and ``lonesum`` add ``polyfamily``, the multi-* families and
``poly-euler-abc`` add ``multifamily``, and only ``polyverify`` and
``polyaudit`` load ``audit``.
"""

# The default series order (polyseq --n, the audit's --order) and audit seed.
# They live here, in the package itself, so that the CLI reads them without
# loading the audit.
DEFAULT_ORDER = 10
DEFAULT_SEED = 0

__version__ = "0.1.0"

# Each layer and the public names it defines.
_EXPORTS = {
    "exact": (
        "DivisionByNonUnit",
        "Egf",
        "InsufficientVanishing",
        "NonNilpotentInner",
        "NotSquare",
        "det",
        "egf_add",
        "egf_compose",
        "egf_div",
        "egf_div_exp_sum",
        "egf_exp_linear",
        "egf_exp_sum",
        "egf_mul",
        "format_rational",
        "parse_rational",
    ),
    "classical": (
        "EulerConvention",
        "bernoulli_det",
        "bernoulli_numbers",
        "bernoulli_polynomial",
        "euler_det",
        "euler_numbers",
        "power_sum",
        "power_sum_closed",
    ),
    "multifamily": (
        "CappedSum",
        "DegenerateParams",
        "LogParams",
        "addition_rhs",
        "combined_rhs",
        "combined_rhs_printed",
        "cor1_rhs",
        "multi_poly_bernoulli",
        "multi_poly_euler",
        "multi_poly_euler_ab",
        "multi_poly_euler_xab",
        "poly_euler_abc",
        "thm1_rhs",
        "thm2_rhs",
        "thm3_explicit",
        "thm4_explicit",
    ),
    "polyfamily": ("TooLarge", "lonesum_count", "poly_bernoulli", "poly_euler", "poly_euler_sasaki"),
    "polylog": ("KVector", "li_of_inner", "multi_li_series", "parse_kvector"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a layer itself, e.g. polyeuler.exact
        return import_module(f"{__name__}.{name}")
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))

"""Span tracing installed from outside the package.

The tracer wraps chosen public functions of each ``polyeuler`` layer.  The
package imports them by name (``from .exact import egf_mul``), so a wrapper
is installed on every ``polyeuler.*`` module binding of the function, not
only on its home module.  Spans stay in memory as flat arrays and are
written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import pickle
import sys
from array import array
from collections import Counter
from math import comb
from time import perf_counter

from workloads import case_label

# Wrapped functions per layer module; the span name is "<layer>.<function>".
TRACED = {
    "exact": ("egf_mul", "egf_compose", "egf_div"),
    "polylog": ("multi_li_series", "li_of_inner"),
    "classical": (
        "bernoulli_numbers",
        "euler_numbers",
        "bernoulli_det",
        "euler_det",
        "power_sum_closed",
        "bernoulli_polynomial",
    ),
    "polyfamily": ("poly_bernoulli", "poly_euler", "poly_euler_sasaki", "lonesum_count"),
    "multifamily": (
        "multi_poly_bernoulli",
        "multi_poly_euler",
        "multi_poly_euler_ab",
        "multi_poly_euler_xab",
        "poly_euler_abc",
        "thm1_rhs",
        "thm2_rhs",
        "cor1_rhs",
        "addition_rhs",
        "combined_rhs",
        "combined_rhs_printed",
        "thm3_explicit",
        "thm4_explicit",
    ),
    "audit": ("run_identity",),
    "cli": ("main_seq", "main_audit"),
}

# Modules whose functools caches hold family series (the "builder" caches).
BUILDER_CACHE_LAYERS = ("polyfamily", "multifamily")
# Layers whose cache hit ratio is a per-layer metric.
CACHE_LAYERS = ("polylog", "polyfamily", "multifamily")


def _binary_order(args) -> int:
    f, g = args[0], args[1]
    return min(f.order, g.order)


def _mul_terms(args, result) -> int:
    n = _binary_order(args)
    return (n + 1) * (n + 2) // 2


def _div_terms(args, result) -> int:
    n = _binary_order(args)
    return n * (n + 1) // 2


def _multi_li_tuples(args, result) -> int:
    ks, order = args[0], args[1]
    return comb(order, len(ks))


def _lonesum_matrices(args, result) -> int:
    return 2 ** (args[0] * args[1])


# Work counts computed from a call's arguments: span name -> (counter, fn).
WORK_COUNTS = {
    "exact.egf_mul": ("exact.egf_mul.terms", _mul_terms),
    "exact.egf_div": ("exact.egf_div.terms", _div_terms),
    "polylog.multi_li_series": ("polylog.multi_li.tuples", _multi_li_tuples),
    "polyfamily.lonesum_count": ("polyfamily.lonesum.matrices", _lonesum_matrices),
}


def package_modules() -> dict[str, object]:
    """Every loaded polyeuler module, keyed by its short layer name."""
    return {
        name.rpartition(".")[2]: mod
        for name, mod in sorted(sys.modules.items())
        if name == "polyeuler" or name.startswith("polyeuler.")
    }


def package_caches() -> list[tuple[str, str, object]]:
    """(layer, attribute, cached function) for every module-level functools cache."""
    found = {}
    for layer, mod in package_modules().items():
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                found.setdefault(id(value), (layer, attr, value))
    return sorted(found.values(), key=lambda item: (item[0], item[1]))


class CacheStats:
    """Hit and miss totals per layer, kept across ``cache_clear`` calls."""

    def __init__(self, caches):
        self.caches = caches
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def collect_and_clear(self) -> None:
        for layer, _, fn in self.caches:
            info = fn.cache_info()
            self.hits[layer] += info.hits
            self.misses[layer] += info.misses
            fn.cache_clear()

    def builder_misses(self) -> int:
        """Misses of the builder caches since the last clear."""
        return sum(
            fn.cache_info().misses for layer, _, fn in self.caches if layer in BUILDER_CACHE_LAYERS
        )

    def hit_ratio(self, layer: str) -> float:
        total = self.hits[layer] + self.misses[layer]
        return self.hits[layer] / total if total else 0.0


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end, request.

    A span without a parent (a CLI entry point) starts a request; its index is
    the request identifier that every span below it shares.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        work = WORK_COUNTS.get(span_name)
        on_case = span_name == "audit.run_identity"
        name, parent, request = self.name, self.parent, self.request
        start, end, stack, counts = self.start, self.end, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name.append(nid)
            parent.append(up)
            request.append(idx if up < 0 else request[up])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                counts[work[0]] += work[1](args, result)
            if on_case:
                label = case_label(args[0].id, args[0].variant)
                counts[f"audit.case.{label}.wall_s"] += end[idx] - start[idx]
                counts[f"audit.case.{label}.grid_size"] += result.grid_size
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function on every polyeuler module that binds it."""
        modules = package_modules()
        for layer, fn_names in TRACED.items():
            home = modules[layer]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                self.originals[f"{layer}.{fn_name}"] = original
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that still point at an original (should be empty)."""
        left = []
        for span_name, original in self.originals.items():
            for layer, mod in package_modules().items():
                for attr, value in vars(mod).items():
                    if value is original:
                        left.append(f"{layer}.{attr} ({span_name})")
        return left

    def calls(self) -> Counter:
        return Counter(self.names[nid] for nid in self.name)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name.

        Spans nest strictly (one thread), so the children of a span cover
        disjoint intervals and their durations add up.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            totals[self.names[self.name[i]]] += duration[i] - covered[i]
        return totals

    def dump(self, path) -> None:
        """Write the spans; load with ``pickle.load`` (arrays of equal length)."""
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "request": self.request,
                    "start": self.start,
                    "end": self.end,
                },
                fh,
            )

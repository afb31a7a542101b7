"""The package's caches, found rather than listed, for the tests that clear
or read them.  It imports the package, so it is not part of ``oracles``."""

import importlib
import pkgutil

import polyeuler


def package_caches():
    """Every cache (an ``exact._memo``) defined at module level in the package."""
    found = {}
    for info in pkgutil.iter_modules(polyeuler.__path__):
        module = importlib.import_module(f"polyeuler.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())

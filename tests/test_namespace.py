"""The package namespace: every public name resolves to its home module's
object, and a bare ``import polyeuler`` loads no layer (checked in child
interpreters run with ``-W error``, so a warning fails the test)."""

import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polyeuler
from polyeuler import classical, exact, multifamily, polyfamily, polylog

HOMES = (exact, classical, multifamily, polyfamily, polylog)


def _home(name):
    """The layer that defines (or, for a plain alias, binds) a public name."""
    for module in HOMES:
        if name in vars(module):
            return module
    raise AssertionError(f"{name} is bound by no layer")


@pytest.mark.parametrize("name", polyeuler.__all__)
def test_public_name_is_its_home_object(name):
    assert getattr(polyeuler, name) is getattr(_home(name), name)


def test_all_lists_every_layer_export_once():
    assert len(set(polyeuler.__all__)) == len(polyeuler.__all__) == 50
    assert set(polyeuler.__all__) <= set(dir(polyeuler))


def test_star_import_binds_all():
    namespace = {}
    exec("from polyeuler import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(polyeuler.__all__)
    assert all(namespace[name] is getattr(polyeuler, name) for name in namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyeuler.no_such_name  # noqa: B018
    assert not hasattr(polyeuler, "_euler_egf")


def test_bare_import_loads_no_layer():
    code = (
        "import sys\n"
        "import polyeuler\n"
        "print(polyeuler.DEFAULT_ORDER, polyeuler.DEFAULT_SEED, polyeuler.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('polyeuler.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["10 0 0.1.0", "[]"]


def test_layers_resolve_as_attributes():
    """``polyeuler.exact`` and the other layers resolve after a bare import,
    as they did when the package imported every layer eagerly."""
    code = (
        "import polyeuler\n"
        "print(polyeuler.exact.Egf.__name__, polyeuler.classical.__name__)\n"
        "print([getattr(polyeuler, m).__name__ for m in "
        "('multifamily', 'polyfamily', 'polylog')])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Egf polyeuler.classical",
        "['polyeuler.multifamily', 'polyeuler.polyfamily', 'polyeuler.polylog']",
    ]
    assert {"exact", "classical", "multifamily", "polyfamily", "polylog"} <= set(dir(polyeuler))


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


class TestReadmeLayout:
    def test_layout_names_every_module(self):
        """README's module map names each ``polyeuler`` module once, and no
        other, as ``test_family_table_is_cli_families`` reads the family table."""
        section = README.partition("## Library layout")[2].partition("\n### ")[0]
        named = re.findall(r"^- `polyeuler\.(\w+)`", section, re.MULTILINE)
        modules = {m.name for m in pkgutil.iter_modules(polyeuler.__path__) if not m.name.startswith("_")}
        assert sorted(named) == sorted(modules)

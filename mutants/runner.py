"""Run the mutation catalogue: each mutant must meet its entry.

Usage (from the repository root):

    python3 mutants/runner.py              # every entry of catalogue.py
    python3 -m pytest -q mutants/tests     # the runner's own tests, on a toy tree

For each mutant it copies ``src/``, ``tests/``, ``tools/`` and
``README.md`` (which ``tests/test_cli.py`` reads at collection) into a
temporary directory, replaces the entry's old text, which must occur
exactly once, by its new text, and runs the entry's tests there with
``pytest -x``.  A failing test kills the mutant.  The exit status is 1
when an old text does not occur exactly once, when pytest ends in
anything but a pass or a failed test, when a mutant not marked
equivalent survives, or when one marked equivalent is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "README.md")


class CatalogueError(Exception):
    """An entry the runner cannot apply or a test run that neither passed nor failed."""


def apply(tree: Path, mutant: Mutant) -> None:
    """Put the mutant's new text in place of its old text in ``tree``."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise CatalogueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def outcome(mutant: Mutant, root: Path = ROOT) -> str:
    """``"killed"`` or ``"survived"``: the mutant's tests run on a mutated
    copy of ``root``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = root / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        apply(tree, mutant)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        result = subprocess.run(
            [*command, "--rootdir", str(tree), *mutant.tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
        )
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    raise CatalogueError(
        f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout[-2000:]}{result.stderr[-2000:]}"
    )


def problem(mutant: Mutant, seen: str) -> str | None:
    """Why ``seen`` breaks the entry, or None when it meets it."""
    equivalent = mutant.expect.startswith("equivalent:")
    if not equivalent and mutant.expect != "killed":
        return f"expect must be 'killed' or 'equivalent: <reason>', not {mutant.expect!r}"
    if seen == "survived" and not equivalent:
        return "survived, but no test should pass with it"
    if seen == "killed" and equivalent:
        return "killed, so it is not equivalent"
    return None


def main(mutants=MUTANTS, root: Path = ROOT) -> int:
    failures = 0
    for mutant in mutants:
        start = time.perf_counter()
        try:
            seen = outcome(mutant, root)
            why = problem(mutant, seen)
        except CatalogueError as exc:
            seen, why = "error", str(exc)
        failures += why is not None
        line = f"{mutant.name}: {seen} ({time.perf_counter() - start:.1f} s)"
        print(line if why is None else f"{line} FAIL: {why}", flush=True)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants meet their entries")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

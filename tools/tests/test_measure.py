"""Tests of measure.py: python3 -m pytest tools/tests

main() runs once, for the whole module: its lines are read against the
labels the job summary has always carried, and the cold-start requests
are rerun under ``python -v`` once per copy of the package, to see where
each module they load comes from."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import measure

INTEGER = r"(\d+)"
DECIMAL = r"(\d+\.\d)"
MS = r"(\d+\.\d{3}) ms \(best of 5\)"
MEDIAN = rf"(\d+\.\d) ms \(median of {measure.ROUNDS} fresh processes\)"
MODULES = sorted(path.name for path in (measure.SRC / "polyeuler").glob("*.py"))

# Every line main() prints, in order, as a pattern over its number.
LABELS = [
    rf"src/ lines: {INTEGER}",
    *(rf" *{INTEGER} src/polyeuler/{re.escape(name)}" for name in MODULES),
    rf"scoped memo decorators: {INTEGER}",
    rf"order-10 audit, Fraction constructions: {INTEGER}",
    rf"order-10 audit, Egf\.of constructions: {INTEGER}",
    rf"order-200 thm2_rhs shift table: {DECIMAL} MB \(tracemalloc\)",
    rf"egf_compose\(Li_2, 1 - e\^\(-2t\)\) at N = 10: {MS}",
    rf"egf_compose\(Li_2, 1 - e\^\(-2t\)\) at N = 40: {MS}",
    rf"det of the order-10 bernoulli_det matrix: {MS}",
    rf"thm3_explicit\(\(1, 2, -1, 1\), 1/3, n = 6, caps 20 and 4\): {MS}",
    rf"thm4_explicit\(3, 1/3, \(2/3, -1/4, 3/7\), statement, n = 40\): {MS}",
    rf"order-10 audit, max RSS: {DECIMAL} MB \(a fresh process\)",
    rf"at-limit rational multi-poly-euler, max RSS: {DECIMAL} MB \(a fresh process\)",
    rf"seq multi-poly-euler --ks=1,2 --alpha=1 --beta=2 --n=3: {MEDIAN}",
    rf"seq bernoulli --n=1: {MEDIAN}",
    rf"seq multi-poly-euler --ks=1,2 --alpha=1 --beta=2 --n=3 from bytecode: {MEDIAN}",
    rf"seq bernoulli --n=1 from bytecode: {MEDIAN}",
]

# -v names the file each module's code object comes from: the .pyc, quoted,
# when the bytecode is read, else the source.
_CODE_OBJECT = re.compile(r"# code object from '?(.+?)'?$")


@pytest.fixture(scope="module")
def measured():
    """main()'s lines, and per package copy the files that the first
    request run from it loaded its modules from, with the copy's bytecode
    as it stood then."""
    loaded = {}
    real_run = measure._run

    def spy(argv, path):
        if argv[1:4] == ["-m", "polyeuler", "seq"] and path not in loaded:  # a cold-start request
            verbose = real_run([argv[0], "-v", *argv[1:]], path)
            files = [Path(m.group(1)) for m in map(_CODE_OBJECT.match, verbose.stderr.splitlines()) if m]
            package = path / "polyeuler"
            loaded[path] = ([f for f in files if package in f.parents], sorted(path.rglob("*.pyc")))
        return real_run(argv, path)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(measure, "_run", spy)
        assert measure.main() == 0
    return out.getvalue().splitlines(), loaded


def test_every_label_once_in_order_with_a_number(measured):
    lines, _ = measured
    assert len(lines) == len(LABELS)
    for line, label in zip(lines, LABELS):
        assert re.fullmatch(label, line), (label, line)


def test_the_module_lines_add_up_to_the_total(measured):
    lines, _ = measured
    total = int(re.fullmatch(LABELS[0], lines[0]).group(1))
    assert sum(int(line.split()[0]) for line in lines[1 : 1 + len(MODULES)]) == total


def test_each_copy_runs_from_its_own_bytecode_or_none(measured):
    _, loaded = measured
    assert [path.name for path in loaded] == ["source", "bytecode"]
    for path, (files, pycs) in loaded.items():
        package = path / "polyeuler"
        # The seq command's own modules are among those it loaded.
        stems = {f.name.split(".")[0] for f in files}
        assert {"__init__", "__main__", "cli", "exact"} <= stems, stems
        if path.name == "source":
            assert pycs == [] and all(f.suffix == ".py" for f in files), files
        else:
            assert all(f.suffix == ".pyc" and f in pycs for f in files), (files, pycs)
            assert all(f.parent == package / "__pycache__" for f in pycs)

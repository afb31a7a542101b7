"""The figures CI writes to its job summary after each change, as Markdown.

Usage (from the repository root):

    python3 tools/measure.py              # one line per figure on stdout
    python3 -m pytest -q tools/tests      # its test runs main() once

Each figure is one function that returns its lines; ``main`` prints them in
order.  All of them read the ``src/`` of this checkout: the first four in
this process, the last three in fresh ones.  Tier 1 pins the rest of what
the package does exactly, so it is not measured here: the order-10 audit's
``_shift_table`` traffic and ``_ratio`` reads, and which standard modules
the audit and ``polyverify`` load (``tests/test_multifamily.py``,
``tests/test_cli.py::TestRootCommand``).
"""

from __future__ import annotations

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# The two cold-start requests: a multi-* family, which loads multifamily,
# and the smallest request, the one perfbench's setup_s times.
REQUESTS = ("multi-poly-euler --ks=1,2 --alpha=1 --beta=2 --n=3", "bernoulli --n=1")
ROUNDS = 9

# The rational multi-poly-euler request at every polyseq limit (cli.MAX_*):
# 8 indices of |k| = 16, n = 200, and x, alpha and beta of 4 digits.
AT_LIMIT = (
    "multi-poly-euler --ks=16,-16,16,-16,16,-16,16,-16"
    " --x=-9999/9998 --alpha=9998/9999 --beta=9999/9997 --n=200"
)

# A child's ru_maxrss starts at the RSS of the process it was forked from,
# and exec keeps it, so each request is forked from this launcher, which
# runs without site, far below the request's peak, and not from measure.py.
_RSS_LAUNCHER = """
import os, resource, sys
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.execv(sys.executable, [sys.executable, "-m", "polyeuler", *sys.argv[1:]])
if os.waitpid(pid, 0)[1]:
    sys.exit("the request failed")
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def source_size() -> list[str]:
    """The lines of ``src/polyeuler``, as ``wc -l`` counts and prints them,
    so that the size line names the module that moved, and its ``@_memo``
    decorators."""
    paths = sorted((SRC / "polyeuler").glob("*.py"))
    texts = [path.read_bytes() for path in paths]
    counts = [text.count(b"\n") for text in texts]
    # wc pads each count to the digits of the files' total byte size.
    width = len(str(sum(map(len, texts))))
    memos = sum(line.startswith(b"@_memo") for text in texts for line in text.splitlines())
    return [
        f"src/ lines: {sum(counts)}",
        *(f"{count:>{width}} {path.relative_to(ROOT)}" for count, path in zip(counts, paths)),
        f"scoped memo decorators: {memos}",
    ]


def constructions() -> list[str]:
    """The ``Fraction`` and ``Egf.of`` constructions of a cold seed-0
    order-10 audit, counted by cProfile."""
    import cProfile
    import pstats

    from polyeuler import audit

    profile = cProfile.Profile()
    profile.runcall(audit.run_all, 0, 10)
    stats = pstats.Stats(profile).stats

    def calls(module: str, name: str) -> int:
        return sum(s[1] for (path, _, f), s in stats.items() if path.endswith(module) and f == name)

    return [
        f"order-10 audit, Fraction constructions: {calls('fractions.py', '__new__')}",
        f"order-10 audit, Egf.of constructions: {calls('exact.py', 'of')}",
    ]


def shift_table_memory() -> list[str]:
    """The memory one order-200 ``thm2_rhs`` shift table holds under
    tracemalloc inside a cache scope: outside one nothing is kept."""
    import tracemalloc
    from fractions import Fraction

    from polyeuler import exact, multifamily

    params = multifamily.LogParams(Fraction(1234, 9871), Fraction(-5678, 4321))
    with exact.cache_scope():
        # The Euler numbers are read once first, so only the table is traced.
        multifamily.thm2_rhs((1,), params, 200)
        multifamily._shift_table.cache_clear()
        tracemalloc.start()
        try:
            multifamily.thm2_rhs((1,), params, 200)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return [f"order-200 thm2_rhs shift table: {size / 1e6:.1f} MB (tracemalloc)"]


def kernel_timings() -> list[str]:
    """Best-of-5 timings of what no benchmark workload reaches: the general
    ``egf_compose`` branch, ``det``, and ``thm3_explicit`` and
    ``thm4_explicit`` past the audit's caps and n."""
    import timeit
    from fractions import Fraction
    from math import comb, factorial

    from polyeuler import exact, multifamily, polylog

    def best_ms(call, number: int) -> float:
        return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e3

    lines = []
    for n in (10, 40):
        nums, den = polylog.multi_li_series((2,), n).numerators()
        li2 = exact.Egf.of([v * factorial(m) for m, v in enumerate(nums)], den)
        inner = exact.egf_add(exact.Egf.constant(1, n), exact.egf_scale(exact.egf_exp_linear(-2, n), -1))
        ms = best_ms(lambda: exact.egf_compose(li2, inner), 5)
        lines.append(f"egf_compose(Li_2, 1 - e^(-2t)) at N = {n}: {ms:.3f} ms (best of 5)")
    # The matrix classical.bernoulli_det(10) takes the determinant of.
    rows = [[Fraction(1, j + 1) for j in range(1, 11)]]
    rows += [[comb(j, r - 2) if j >= r - 1 else 0 for j in range(1, 11)] for r in range(2, 11)]
    ms = best_ms(lambda: exact.det(rows), 20)
    lines.append(f"det of the order-10 bernoulli_det matrix: {ms:.3f} ms (best of 5)")
    ms = best_ms(lambda: multifamily.thm3_explicit((1, 2, -1, 1), Fraction(1, 3), 6, 20, 4), 5)
    lines.append(f"thm3_explicit((1, 2, -1, 1), 1/3, n = 6, caps 20 and 4): {ms:.3f} ms (best of 5)")
    params = multifamily.LogParams(Fraction(2, 3), Fraction(-1, 4), Fraction(3, 7))
    ms = best_ms(lambda: multifamily.thm4_explicit(3, Fraction(1, 3), params, 40, "statement"), 5)
    lines.append(f"thm4_explicit(3, 1/3, (2/3, -1/4, 3/7), statement, n = 40): {ms:.3f} ms (best of 5)")
    return lines


def _run(argv: list[str], path: Path) -> subprocess.CompletedProcess:
    """``argv`` in a fresh process that imports polyeuler from ``path`` and
    writes no bytecode."""
    env = {**os.environ, "PYTHONPATH": str(path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(argv, cwd=path, env=env, check=True, capture_output=True, text=True)


def _max_rss_mb(request: str) -> float:
    """The max RSS of a fresh ``python -m polyeuler <request>``, in MB."""
    kib = int(_run([sys.executable, "-S", "-c", _RSS_LAUNCHER, *request.split()], SRC).stdout)
    return kib / 1024


def audit_max_rss() -> list[str]:
    """The max RSS of a fresh ``python -m polyeuler audit --order 10``."""
    return [f"order-10 audit, max RSS: {_max_rss_mb('audit --order 10'):.1f} MB (a fresh process)"]


def seq_max_rss() -> list[str]:
    """The max RSS of a fresh ``AT_LIMIT`` request, which builds the largest
    division table a polyseq request can."""
    mb = _max_rss_mb(f"seq {AT_LIMIT}")
    return [f"at-limit rational multi-poly-euler, max RSS: {mb:.1f} MB (a fresh process)"]


def _package_copy(into: Path, compiled: bool) -> Path:
    """A copy of ``src/polyeuler`` under ``into``, without bytecode, or
    with every module compiled once by compileall."""
    shutil.copytree(SRC / "polyeuler", into / "polyeuler", ignore=shutil.ignore_patterns("__pycache__"))
    if compiled and not compileall.compile_dir(into / "polyeuler", quiet=1):
        raise RuntimeError(f"compileall failed in {into}")
    return into


def cold_start() -> list[str]:
    """The median wall time of ``ROUNDS`` fresh ``seq`` processes per
    request, from a copy of the package without bytecode and from one
    compiled beforehand, so that the figures do not depend on whether a
    ``__pycache__`` is in ``src/``.  The rounds alternate, so that every
    request sees the same machine."""
    with tempfile.TemporaryDirectory() as tmp:
        copies = {
            "": _package_copy(Path(tmp) / "source", compiled=False),
            " from bytecode": _package_copy(Path(tmp) / "bytecode", compiled=True),
        }
        times = {(request, copy): [] for copy in copies for request in REQUESTS}
        for _ in range(ROUNDS):
            for (request, copy), samples in times.items():
                argv = [sys.executable, "-m", "polyeuler", "seq", *request.split()]
                start = time.perf_counter()
                _run(argv, copies[copy])
                samples.append(time.perf_counter() - start)
    return [
        f"seq {request}{copy}: {statistics.median(samples) * 1e3:.1f} ms (median of {ROUNDS} fresh processes)"
        for (request, copy), samples in times.items()
    ]


FIGURES = (
    source_size, constructions, shift_table_memory, kernel_timings, audit_max_rss, seq_max_rss, cold_start
)


def main() -> int:
    for figure in FIGURES:
        print(*figure(), sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

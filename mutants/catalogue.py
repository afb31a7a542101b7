"""The mutation catalogue: each entry is one deliberate fault and the tests
that must catch it.

``old`` must occur exactly once in ``file`` (a path from the repository
root); the runner puts ``new`` in its place in a copy of the tree and runs
``tests``, pytest arguments from the copy's root, with ``-x``.  ``expect`` is
``"killed"``, or ``"equivalent: <reason>"`` for a fault no test can see
because it changes no result.  A refactor that moves a target updates its
entry in the same change.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str


MUTANTS = (
    Mutant(
        "one-minus-exp-test-misses-last-coefficient",
        "src/polyeuler/exact.py",
        "    if den == 1 and u == ((1, -1) * n)[:n]:\n",
        "    if den == 1 and u[: n - 1] == ((1, -1) * n)[: n - 1]:\n",
        ("tests/test_oracle_properties.py::test_compose_near_one_minus_exp_is_generic",),
        "killed",
    ),
    Mutant(
        "horner-runs-upward",
        "src/polyeuler/exact.py",
        "    for m in range(n, -1, -1):\n",
        "    for m in range(n + 1):\n",
        ("tests/test_exact.py::TestCompose", "tests/test_exact.py::TestComposeBranches"),
        "killed",
    ),
    Mutant(
        # The same numbers by a series kernel, which a right side must not call.
        "binomial-shift-by-times-exp",
        "src/polyeuler/multifamily.py",
        "    rows, den_pow = _shift_table(shift, order)\n"
        "    u = list(map(mul, den_pow, v))\n"
        "    return [sum(map(mul, row, u)) for row in rows], den_pow[order] * den\n",
        "    from .exact import _times_exp\n"
        "\n"
        "    return _times_exp(v[: order + 1], den, shift).numerators()\n",
        ("tests/test_multifamily.py::TestRightSidesCallNoSeriesKernel",),
        "killed",
    ),
    Mutant(
        "ratio-reads-a-float",
        "src/polyeuler/exact.py",
        "    if type(value) not in (int, Fraction):\n",
        "    if type(value) not in (int, Fraction, float):\n",
        ("tests/test_exact.py::TestEntriesReadIntOrFraction",),
        "killed",
    ),
    Mutant(
        "def1-constant-by-min",
        "src/polyeuler/audit.py",
        "        constant = next(iter(candidates)) if len(candidates) == 1 else None\n",
        "        constant = min(candidates) if len(candidates) == 1 else None\n",
        ("tests/test_audit.py", "-k", "def1 or sasaki"),
        "equivalent: the set is read only when it holds one element, which is its min",
    ),
)

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
        "power-sum-drops-the-constant-term",
        "src/polyeuler/exact.py",
        "    h, power = Egf.constant(a[0] * factorial(n), n), Egf.constant(1, n)\n",
        "    h, power = Egf.zero(n), Egf.constant(1, n)\n",
        ("tests/test_exact.py::TestCompose", "tests/test_exact.py::TestComposeBranches"),
        "killed",
    ),
    Mutant(
        "det-swap-keeps-the-sign",
        "src/polyeuler/exact.py",
        "            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]\n"
        "            sign = -sign\n",
        "            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]\n",
        ("tests/test_exact.py::TestDeterminant",),
        "killed",
    ),
    Mutant(
        # A pivot row that waited is still at the scale of its own last pivot.
        "det-pivot-row-not-brought-up-to-date",
        "src/polyeuler/exact.py",
        "        top = [v * last // rows[col][2] for v in rows[col][0]]\n",
        "        top = list(rows[col][0])\n",
        ("tests/test_exact.py::TestDeterminant",),
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
        # 1 + e^{3t} multiplied in as e^{3t}: without c_0 = 1 the ratio
        # test passes a factor whose constant term is not 1.
        "exp-factor-test-skips-the-constant-term",
        "src/polyeuler/exact.py",
        "        if e[0] == den and all(e[m + 1] * den == e[m] * e[1] for m in range(1, n)):\n",
        "        if all(e[m + 1] * den == e[m] * e[1] for m in range(1, n)):\n",
        ("tests/test_exact.py::TestTimesExp",),
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
        # The same numbers as the left side, read at its (w, alpha, beta).
        "cor1-reads-the-left-side",
        "src/polyeuler/multifamily.py",
        "    ab = _euler_egf(ks, (0, 1), _ratio(params.alpha), _ratio(params.beta), _order(order))"
        ".numerators()\n"
        "    return Egf.of(*_binomial_shift(*ab, _times(len(ks), x), order))\n",
        "    return _euler_egf(ks, _times(len(ks), x), _ratio(params.alpha), _ratio(params.beta),"
        " _order(order))\n",
        ("tests/test_multifamily.py::TestRightSidesReadOnlyTheirPrintedTerms",),
        "killed",
    ),
    Mutant(
        # thm1's law used to build the left side: the plain shape at
        # w = r alpha/(alpha + beta), dilated by alpha + beta.
        "left-side-rescales-the-plain-shape",
        "src/polyeuler/polyfamily.py",
        "    weights, tops, rate_den = _euler_terms(alpha, beta, len(ks))\n"
        "    nums, den = _dilate(*_li_numerator(ks, order).numerators(), (tops[1] - tops[0], 1))\n"
        "    return _div_exp_sum([2 * v for v in nums], den, weights, tops, rate_den)\n",
        "    lam = (alpha[0] * beta[1] + beta[0] * alpha[1], alpha[1] * beta[1])\n"
        "    w = (len(ks) * alpha[0] * lam[1], alpha[1] * lam[0])\n"
        "    return Egf.of(*_dilate(*_euler_egf(ks, w, (0, 1), (1, 1), order).numerators(), lam))\n",
        ("tests/test_multifamily.py::TestLeftSidesDivideByTheirOwnTerms",),
        "killed",
    ),
    Mutant(
        "plain-shape-divided",
        "src/polyeuler/polyfamily.py",
        "    if alpha == (0, 1) and beta == (1, 1):\n        return _plain_euler(ks, order)\n",
        "",
        ("tests/test_multifamily.py::TestPlainShapeIsComposed",),
        "killed",
    ),
    Mutant(
        "documented-discrepancy-may-pass",
        "src/polyeuler/audit.py",
        "    return result.verdict == expected_verdict(result)\n",
        "    return result.verdict in (PASS, expected_verdict(result))\n",
        ("tests/test_audit.py::TestDocumentedVerdicts",),
        "killed",
    ),
    Mutant(
        "compare-numerators-only",
        "src/polyeuler/audit.py",
        "            if first is None and e_num[n] * a_den[n] != a_num[n] * e_den[n]:\n",
        "            if first is None and e_num[n] != a_num[n]:\n",
        ("tests/test_audit.py::TestCompareControls",),
        "killed",
    ),
    Mutant(
        # Right quotients, but 1 + e^t and 1 + e^{t/2} share one table.
        "division-table-keyed-without-k",
        "src/polyeuler/exact.py",
        "    rows, lift, s, den_pow = _division_table(weights, tops, rate_den, len(nums) - 1)\n",
        "    rows, lift, s, _ = _division_table(weights, tops, 1, len(nums) - 1)\n"
        "    den_pow = integer_powers(rate_den, len(nums) - 1)\n",
        ("tests/test_exact.py::TestDivisionTable",),
        "killed",
    ),
    Mutant(
        # Right series, but r x = 2 (1/2) keys the Euler memo as 2/2, not 1/1.
        "euler-key-not-in-lowest-terms",
        "src/polyeuler/multifamily.py",
        "    return _reduced(k * p, q)\n",
        "    return k * p, q\n",
        ("tests/test_multifamily.py::TestEulerShapeCaches",),
        "killed",
    ),
    Mutant(
        "order-reads-a-float",
        "src/polyeuler/exact.py",
        "    value = index(value)\n",
        "    value = int(value)\n",
        ("tests/test_multifamily.py::TestOrderIsAnInt",),
        "killed",
    ),
    Mutant(
        # --x -1/2 read as a value, where argparse refuses it as a flag.
        "seq-reader-takes-a-dash-value",
        "src/polyeuler/cli.py",
        "            if text.startswith(\"-\"):\n",
        "            if text == \"-\":\n",
        ("tests/test_cli.py::TestSeqReader::test_reader_agrees_with_argparse",),
        "killed",
    ),
    Mutant(
        "seq-reader-skips-the-allowed-values",
        "src/polyeuler/cli.py",
        "            if text not in read:\n",
        "            if not text:\n",
        ("tests/test_cli.py::TestSeqReader::test_reader_agrees_with_argparse",),
        "killed",
    ),
    Mutant(
        # Every request built and read by argparse, with the same values.
        "seq-parse-ignores-the-reader",
        "src/polyeuler/cli.py",
        "    return _seq_parser().parse_args(argv) if values is None else SimpleNamespace(**values)\n",
        "    return _seq_parser().parse_args(argv)\n",
        ("tests/test_cli.py::TestRootCommand::test_seq_does_not_load_the_audit",),
        "killed",
    ),
    Mutant(
        # Through a dangling link the check removes the link and leaves an
        # empty file at its target.
        "audit-out-check-removes-the-link",
        "src/polyeuler/cli.py",
        "                os.remove(os.path.realpath(args.out))\n",
        "                os.remove(args.out)\n",
        ("tests/test_cli.py::TestAuditCommand::test_failed_audit_keeps_the_old_report",),
        "killed",
    ),
    Mutant(
        # The same digests, through hashlib and with it OpenSSL's libcrypto.
        "audit-seeds-from-hashlib",
        "src/polyeuler/audit.py",
        "try:  # hashlib loads OpenSSL; random.py reads its SHA-512 from the built-in module the same way\n"
        "    from _sha2 import sha256  # Python 3.12+\n"
        "except ImportError:\n"
        "    try:\n"
        "        from _sha256 import sha256  # Python 3.10-3.11\n"
        "    except ImportError:\n"
        "        from hashlib import sha256\n",
        "from hashlib import sha256\n",
        ("tests/test_cli.py::TestRootCommand::test_audit_does_not_load_openssl",),
        "killed",
    ),
    Mutant(
        # The same report, at the cost of dataclasses, inspect, ast and dis.
        "audit-loads-dataclasses",
        "src/polyeuler/audit.py",
        "import random\n",
        "import dataclasses\nimport random\n",
        ("tests/test_cli.py::TestRootCommand::test_audit_and_verify_load_no_dataclasses",),
        "killed",
    ),
    Mutant(
        # A NamedTuple record then equals the plain tuple of its fields.
        "log-params-equal-a-tuple",
        "src/polyeuler/multifamily.py",
        "        return type(other) is type(self) and tuple.__eq__(self, other)\n",
        "        return tuple.__eq__(self, other)\n",
        ("tests/test_multifamily.py::TestValueTypes::test_not_equal_to_a_plain_tuple",),
        "killed",
    ),
    Mutant(
        # _make, and _replace through it, then build the tuple without
        # __new__, so a float or an int is kept as it is.
        "log-params-make-skips-new",
        "src/polyeuler/multifamily.py",
        "\n    @classmethod\n"
        "    def _make(cls, iterable: Iterable) -> LogParams:  # _replace builds through it too\n"
        "        return cls(*iterable)\n",
        "",
        ("tests/test_multifamily.py::TestValueTypes::test_replace_and_make_read_their_fields_as_new_does",),
        "killed",
    ),
    Mutant(
        # gamma = 0 read as absent, and so as 1: w = x in place of 0.
        "abc-gamma-zero-read-as-one",
        "src/polyeuler/multifamily.py",
        "    (p, q), (g, g_den) = _ratio(x), _ratio(params.gamma or 0)\n"
        "    alpha, beta = _ratio(params.alpha), _ratio(params.beta)\n",
        "    (p, q), (g, g_den) = _ratio(x), _ratio(params.gamma or 1)\n"
        "    alpha, beta = _ratio(params.alpha), _ratio(params.beta)\n",
        ("tests/test_cli.py::TestDrawnRequests",),
        "killed",
    ),
    Mutant(
        # The tuples holding a zero index under a positive k weigh 0, but
        # none is counted, so skipped_terms reads 0.
        "thm3-undefined-tuples-not-counted",
        "src/polyeuler/multifamily.py",
        "        if k > 0:\n            undefined[0] = 1\n",
        "",
        (
            "tests/test_oracle_properties.py::test_thm3_explicit_matches_literal_quadruple_sum",
            "tests/test_multifamily.py::TestThm3Instrument",
        ),
        "killed",
    ),
    Mutant(
        # The exclusive prefix: the index set 1 <= m_1 < ... < m_r, not the printed one.
        "thm3-index-sum-made-strict",
        "src/polyeuler/multifamily.py",
        "            below += ending[m]\n"
        "            undefined_below += undefined[m]\n"
        "            ending[m] = below * (m**-k if k <= 0 else (big // m) ** k if m else 0)\n",
        "            undefined_below += undefined[m]\n"
        "            ending[m], below = below * (m**-k if k <= 0 else (big // m) ** k if m else 0), "
        "below + ending[m]\n",
        (
            "tests/test_oracle_properties.py::test_thm3_explicit_matches_literal_quadruple_sum",
            "tests/test_multifamily.py::TestThm3Instrument",
        ),
        "killed",
    ),
    Mutant(
        "thm4-prefix-off-by-one",
        "src/polyeuler/multifamily.py",
        "(prefix[n - j + i + 1] - prefix[i])",
        "(prefix[n - j + i + 1] - prefix[i + 1])",
        (
            "tests/test_oracle_properties.py::test_thm4_explicit_matches_literal_triple_sum",
            "tests/test_multifamily.py::TestThm4Instrument",
        ),
        "killed",
    ),
    Mutant(
        # The order from POLYEULER_ORDER is range-checked once, where it is read.
        "env-order-left-unbounded",
        "src/polyeuler/cli.py",
        '        _require(0 <= value <= MAX_N, f"{ORDER_ENV} must be in 0..{MAX_N}, got {value}")\n',
        "",
        ("tests/test_cli.py::TestSizeBounds::test_order_env_above_limit_exits_2",),
        "killed",
    ),
    Mutant(
        "eq2-minus-reads-the-plus-convention",
        "src/polyeuler/classical.py",
        '    if b1_sign == "plus":\n',
        '    if b1_sign == "minus":\n',
        ("tests/test_classical.py::TestEq2MinusClosedForm",),
        "killed",
    ),
    Mutant(
        # 1/cosh 2t in place of 1/cosh t.
        "secant-numbers-at-twice-the-rate",
        "src/polyeuler/classical.py",
        "        terms = ((1, 1), (1, -1))\n",
        "        terms = ((1, 2), (1, -2))\n",
        ("tests/test_classical.py::TestEq9SecantNumbers",),
        "killed",
    ),
    Mutant(
        "poly-euler-reads-minus-x",
        "src/polyeuler/polyfamily.py",
        "_ratio(x), (0, 1), (1, 1), _order(order)).coeffs)",
        "_ratio(-x), (0, 1), (1, 1), _order(order)).coeffs)",
        ("tests/test_polyfamily.py::TestDef1ScaledPolyEuler",),
        "killed",
    ),
    Mutant(
        # Li_ks (1-z)^r with one first difference too few.
        "plain-euler-one-difference-short",
        "src/polyeuler/polyfamily.py",
        "    for _ in range(r):\n        for m in range(order, 0, -1):\n",
        "    for _ in range(r - 1):\n        for m in range(order, 0, -1):\n",
        ("tests/test_polyfamily.py::TestPolyEulerNegativeIndices",),
        "killed",
    ),
    Mutant(
        "readme-map-drops-a-module",
        "README.md",
        "- `polyeuler.polylog` — ",
        "- the polylog layer — ",
        ("tests/test_namespace.py::TestReadmeLayout",),
        "killed",
    ),
    Mutant(
        "measure-drops-a-figure",
        "tools/measure.py",
        "kernel_timings, audit_max_rss, seq_max_rss, cold_start\n",
        "kernel_timings, seq_max_rss, cold_start\n",
        ("tools/tests/test_measure.py",),
        "killed",
    ),
    Mutant(
        # Only a child interpreter run with -W error turns the warning into a failure.
        "audit-command-warns",
        "src/polyeuler/cli.py",
        "def cmd_audit(args: argparse.Namespace) -> int:\n    from . import audit\n",
        "def cmd_audit(args: argparse.Namespace) -> int:\n"
        "    import warnings\n"
        "\n"
        '    warnings.warn("the report format will change", DeprecationWarning)\n'
        "    from . import audit\n",
        ("tests/test_audit.py::TestReportBytes::test_cli_report_hash_pinned",),
        "killed",
    ),
    Mutant(
        # The --flag value spelling of a rational goes to argparse, which the
        # reader must not leave it to.
        "reader-leaves-a-spaced-rational-to-argparse",
        "src/polyeuler/cli.py",
        '            if text.startswith("-"):\n',
        '            if text.startswith("-") or "/" in text:\n',
        ("tests/test_cli.py::TestDrawnRequests::test_both_spellings_print_the_same_bytes",),
        "killed",
    ),
    Mutant(
        "digit-bound-reads-only-the-numerator",
        "src/polyeuler/cli.py",
        "            value is None or max(abs(value.numerator), value.denominator) < 10**MAX_DIGITS,\n",
        "            value is None or abs(value.numerator) < 10**MAX_DIGITS,\n",
        ("tests/test_cli.py::TestDrawnRequests::test_one_value_past_its_bound_is_a_usage_error",),
        "killed",
    ),
    Mutant(
        # Every command in a scope again: polyseq would hold its tables to exit.
        "seq-request-opens-a-scope",
        "src/polyeuler/cli.py",
        "def _dispatch(",
        "@cache_scope()\ndef _dispatch(",
        ("tests/test_cli.py::test_a_polyseq_request_opens_no_cache_scope",),
        "killed",
    ),
    Mutant(
        # r^{n-j} in place of the printed r^{n-k}: the as-printed row repaired.
        "combined-printed-sum-at-s-equal-r",
        "src/polyeuler/multifamily.py",
        "_thm2_sum(ks, 1, params, order)",
        "_thm2_sum(ks, len(ks), params, order)",
        ("tests/test_audit.py::TestSeedFreeWitnesses",),
        "killed",
    ),
    Mutant(
        "readme-registry-verdict-flipped",
        "README.md",
        "| eq3-bernoulli-det | determinant representation vs t/(e^t-1) series | PASS |\n",
        "| eq3-bernoulli-det | determinant representation vs t/(e^t-1) series | FAIL |\n",
        ("tests/test_audit.py::TestReadmeRegistry",),
        "killed",
    ),
    Mutant(
        # Any output passes: a request that prints other bytes is timed as correct.
        "limit-runner-skips-the-digest",
        "tools/bench_pairs.py",
        '        correct &= hashlib.sha256(stdout).hexdigest() == row["sha256"]\n',
        "        correct &= bool(stdout)\n",
        ("tools/tests/test_bench_pairs.py::test_a_wrong_digest_fails_the_limit_file",),
        "killed",
    ),
    Mutant(
        # h_m over g_s alone: the shifted system's pivot is C(m + s, m) g_s.
        "division-pivot-without-the-binomial",
        "src/polyeuler/exact.py",
        "df * den * comb(k, m) * b[s])",
        "df * den * b[s])",
        ("tests/test_oracle_properties.py::test_every_kernel_reads_both_forms",),
        "killed",
    ),
    Mutant(
        # A divisor with zero constant term at shift 0 refused as a shift error.
        "non-unit-divisor-refused-as-insufficient-vanishing",
        "src/polyeuler/exact.py",
        "    if not s and not b[0]:\n"
        '        raise DivisionByNonUnit("divisor has zero constant term")\n',
        "",
        ("tests/test_exact.py::TestDiv::test_every_refusal_keeps_its_type_and_message",),
        "killed",
    ),
    Mutant(
        # A closed stdout ends in a BrokenPipeError traceback and exit 1.
        "closed-stdout-not-caught",
        "src/polyeuler/cli.py",
        "    except BrokenPipeError:\n",
        "    except ZeroDivisionError:\n",
        ("tests/test_cli.py::TestClosedStdout",),
        "killed",
    ),
    Mutant(
        "seed-sweep-ignores-a-deviation",
        "tools/seed_sweep.py",
        "    return 1 if found else 0\n",
        "    return 0\n",
        ("tools/tests/test_seed_sweep.py",),
        "killed",
    ),
    Mutant(
        # The left side's own series as cor1's right side, on a branch that
        # no runtime soundness call reaches: the values do not move.
        "cor1-returns-the-left-side-past-depth-three",
        "src/polyeuler/multifamily.py",
        "    ab = _euler_egf(ks, (0, 1), _ratio(params.alpha), _ratio(params.beta), _order(order)).numerators()\n",
        "    if len(ks) > 3:\n"
        "        return _xab_egf(ks, x, params.alpha, params.beta, order)\n"
        "    ab = _euler_egf(ks, (0, 1), _ratio(params.alpha), _ratio(params.beta), _order(order)).numerators()\n",
        ("tests/test_multifamily.py::TestRightSidesLoadOnlyAllowedNames",),
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

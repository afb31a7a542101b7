"""CLI golden tests: output formats, exit codes, env override, determinism.

Every child interpreter these tests start runs with ``-W error``, so a
warning that the package raises fails the test."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from caches import package_caches
from hypothesis import given, settings, strategies as st

from polyeuler import audit, exact, polyfamily
from polyeuler.cli import (
    FAMILIES,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_K,
    MAX_N,
    _SEQ_FLAGS,
    _audit_parser,
    _read_seq,
    _result_line,
    _seq_parser,
    _verify_parser,
    cmd_seq,
    main_audit,
    main_seq,
    main_verify,
)
from polyeuler.exact import parse_rational
from polyeuler.polyfamily import poly_bernoulli


def _document_pass(monkeypatch, case_id):
    """Let the registry entry of ``case_id`` document PASS for every variant."""
    entry = audit._TABLE[case_id]
    variants = dict.fromkeys(entry.variants, audit.PASS)
    monkeypatch.setitem(audit._TABLE, case_id, entry._replace(variants=variants))


def run_cli(*args, env=None):
    """``python -m polyeuler`` in a child interpreter in which any warning
    is an error."""
    cmd = [sys.executable, "-W", "error", "-m", "polyeuler", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


def seq_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cmd_seq(_seq_parser().parse_args(argv))
    return code, out.getvalue()


class TestSeqFormats:
    def test_bernoulli_csv_golden(self):
        code, text = seq_output(["bernoulli", "--n", "4", "--format", "csv"])
        lines = text.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,value"
        assert lines[-1] == "4,-1/30"

    def test_lonesum_plain(self):
        code, text = seq_output(["lonesum", "--rows", "2", "--cols", "2"])
        assert code == 0
        assert text.strip() == "14"

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("csv", "rows,cols,value\n2,3,46\n"),
            ("json", '{\n  "rows": 2,\n  "cols": 3,\n  "value": "46"\n}\n'),
        ],
    )
    def test_lonesum_text(self, fmt, expected):
        assert seq_output(["lonesum", "--rows=2", "--cols=3", f"--format={fmt}"]) == (0, expected)

    def test_multi_poly_euler_plain(self):
        code, text = seq_output(["multi-poly-euler", "--ks", "1,1", "--n", "2"])
        assert code == 0
        assert text.splitlines() == ["0\t0", "1\t0", "2\t1/2"]
        # At alpha + beta = 0 every value is 0.
        code, text = seq_output(["multi-poly-euler", "--ks=1,2", "--alpha=1/2", "--beta=-1/2", "--n=6"])
        assert code == 0
        assert text.splitlines() == [f"{n}\t0" for n in range(7)]

    def test_json_round_trips(self):
        code, text = seq_output(["poly-bernoulli", "--k", "-2", "--n", "6", "--format", "json"])
        assert code == 0
        rows = json.loads(text)
        values = poly_bernoulli(-2, 0, 6)
        assert [r["n"] for r in rows] == list(range(7))
        assert [parse_rational(r["value"]) for r in rows] == values

    def test_euler_convention_flag(self):
        _, secant = seq_output(["euler", "--n", "4", "--convention", "secant"])
        assert secant.splitlines()[-1] == "4\t5"
        _, genocchi = seq_output(["euler", "--n", "3"])
        assert genocchi.splitlines()[-1] == "3\t1/4"

    def test_rational_arguments(self):
        code, text = seq_output(["poly-euler", "--k", "1", "--x", "1/2", "--n", "3"])
        assert code == 0
        # 2 Li_1(1-e^{-t})/(1+e^t) e^{t/2} = t e^{t/2} - ... starts 0, 1, 0
        assert text.splitlines()[0] == "0\t0"
        assert text.splitlines()[1] == "1\t1"

    def test_negative_rational_needs_equals_form(self):
        # argparse reads a bare "-1/2" as an option, so the documented form
        # for negative rationals is --x=-1/2
        code, text = seq_output(["poly-euler", "--k", "1", "--x=-1/2", "--n", "2"])
        assert code == 0
        assert text.splitlines()[1] == "1\t1"


class TestSeqErrors:
    def test_unknown_family_exits_2(self):
        proc = run_cli("seq", "nosuchfamily", "--n", "3")
        assert proc.returncode == 2

    def test_malformed_rational_exits_2(self):
        proc = run_cli("seq", "poly-euler", "--k", "1", "--x", "0.5", "--n", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "arg, expected",
        [
            ("--x=abc", "argument --x: invalid rational value: 'abc'"),
            ("--alpha=1/0", "argument --alpha: invalid rational value: '1/0'"),
            ("--ks=1,,2", "argument --ks: invalid index vector value: '1,,2'"),
            ("--ks=", "argument --ks: invalid index vector value: ''"),
            # Only an optional '-' and ASCII digits 0-9 are read: no other
            # Unicode digit, no '_' separator and no '+'.
            ("--x=١/٢", "argument --x: invalid rational value: '١/٢'"),
            ("--x=𝟓", "argument --x: invalid rational value: '𝟓'"),
            ("--alpha=1/٢", "argument --alpha: invalid rational value: '1/٢'"),
            ("--ks=1_0", "argument --ks: invalid index vector value: '1_0'"),
            ("--ks=١,2", "argument --ks: invalid index vector value: '١,2'"),
            ("--ks=+1", "argument --ks: invalid index vector value: '+1'"),
            ("--n=١", "argument --n: invalid int value: '١'"),
            ("--n=3.0", "argument --n: invalid int value: '3.0'"),
            ("--k=+1", "argument --k: invalid int value: '+1'"),
            ("--rows=1_0", "argument --rows: invalid int value: '1_0'"),
            # argparse prints the value's repr, which escapes the em space.
            ("--n=\u20033", "argument --n: invalid int value: '\\u20033'"),
        ],
    )
    def test_malformed_value_names_the_expected_form(self, arg, expected, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main_seq(["multi-poly-euler", "--n=3", arg])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyseq ")
        assert err.splitlines()[-1] == f"polyseq: error: {expected}"

    def test_unicode_digits_exit_2(self):
        proc = run_cli("seq", "poly-euler", "--k=1", "--x=١/٢", "--n=2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid rational value" in proc.stderr

    def test_unicode_space_exits_2(self):
        """An em space (U+2003) before the value is not trimmed."""
        proc = run_cli("seq", "poly-euler", "--k=1", "--x=\u20031/2", "--n=2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid rational value" in proc.stderr

    def test_missing_required_flag_exits_2(self):
        assert main_seq(["poly-bernoulli", "--n", "4"]) == 2
        assert main_seq(["lonesum", "--rows", "2"]) == 2
        assert main_seq(["multi-poly-euler", "--n", "4"]) == 2

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["poly-bernoulli", "--x=1/2"], "--k"),
            # The presence check runs before the size bounds.
            (["poly-bernoulli", "--n=300"], "--k"),
            (["poly-euler", "--n=3"], "--k"),
            (["poly-euler-sasaki"], "--k"),
            (["multi-poly-bernoulli", "--n=3"], "--ks"),
            (["multi-poly-euler", "--alpha=1", "--beta=2"], "--ks"),
            (["poly-euler-abc", "--k=1", "--alpha=1"], "--beta and --gamma"),
            (["poly-euler-abc", "--k=1", "--alpha=1", "--n=3"], "--beta and --gamma"),
            (["poly-euler-abc", "--alpha=1", "--beta=1", "--gamma=1"], "--k"),
            (["poly-euler-abc", "--k=99", "--gamma=1"], "--alpha and --beta"),
            (["poly-euler-abc"], "--k, --alpha, --beta and --gamma"),
            (["lonesum", "--rows=2"], "--cols"),
            (["lonesum", "--cols=9"], "--rows"),
            (["lonesum"], "--rows and --cols"),
        ],
    )
    def test_missing_flags_are_named(self, argv, missing, capsys):
        assert main_seq(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {argv[0]} needs {missing}"]

    def test_lonesum_guard_exits_2(self):
        assert main_seq(["lonesum", "--rows", "5", "--cols", "5"]) == 2

    # Per family: a valid request, then each flag that the family does not read.
    UNREAD_FLAG = {
        "bernoulli": (["--n=3"], "--k=1", "--convention=secant"),
        "euler": (["--n=3"], "--x=1/2"),
        "poly-bernoulli": (["--k=1", "--x=1/2", "--n=3"], "--ks=1,2"),
        "poly-euler": (["--k=1", "--x=1/2", "--n=3"], "--alpha=1"),
        "poly-euler-sasaki": (["--k=1", "--n=3"], "--x=1/2"),
        "multi-poly-bernoulli": (["--ks=1", "--n=3"], "--k=2"),
        "multi-poly-euler": (["--ks=1,2", "--x=1/2", "--alpha=1", "--beta=2", "--n=3"], "--k=2"),
        "poly-euler-abc": (
            ["--k=1", "--x=1", "--alpha=1", "--beta=1", "--gamma=1", "--n=3"],
            "--cols=2",
        ),
        "lonesum": (["--rows=2", "--cols=2"], "--x=0", "--n=99999"),
    }

    @pytest.mark.parametrize("family", sorted(UNREAD_FLAG))
    def test_flag_the_family_does_not_read_exits_2(self, family, capsys):
        argv, *unread_flags = self.UNREAD_FLAG[family]
        assert main_seq([family, *argv]) == 0
        capsys.readouterr()
        for unread in unread_flags:
            assert main_seq([family, *argv, unread]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            flag = unread.partition("=")[0]
            assert captured.err.splitlines() == [f"error: {family} does not read {flag}"]

    def test_gamma_with_depth_two_exits_2(self, capsys):
        code = main_seq(
            ["multi-poly-euler", "--ks", "1,2", "--n", "3", "--alpha", "1", "--beta", "1", "--gamma", "1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the three-parameter family is defined for a single index"
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha=1"], "--alpha and --beta must be given together"),
            (["--beta=1", "--gamma=1"], "--alpha and --beta must be given together"),
            (["--gamma=1"], "--gamma needs --alpha and --beta"),
            (["--ks=1,2", "--gamma=1"], "--gamma needs --alpha and --beta"),
        ],
    )
    def test_log_parameters_are_coupled(self, flags, message, capsys):
        """Checked in this order, before the single index of --gamma."""
        assert main_seq(["multi-poly-euler", "--ks=1", "--n=3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


class TestEnvOverride:
    def test_order_env_sets_default(self, monkeypatch, capsys):
        monkeypatch.setenv("POLYEULER_ORDER", "3")
        assert main_seq(["bernoulli"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_explicit_n_wins(self, monkeypatch, capsys):
        monkeypatch.setenv("POLYEULER_ORDER", "3")
        assert main_seq(["bernoulli", "--n", "5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_bad_env_value_exits_2(self, monkeypatch):
        monkeypatch.setenv("POLYEULER_ORDER", "ten")
        assert main_seq(["bernoulli"]) == 2

    @pytest.mark.parametrize("value", ["٣", "+3", "1_0", "\u20033", "3.0"])
    def test_env_value_outside_the_integer_form_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("POLYEULER_ORDER", value)
        assert main_seq(["bernoulli"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: POLYEULER_ORDER must be an integer, got {value!r}"]


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        assert main_verify(["eq3-bernoulli-det", "--order", "8", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("eq3-bernoulli-det: PASS (grid=")
        assert "[order=8 seed=7]" in out

    def test_whitelisted_fail_exit_zero(self, capsys):
        for order in ([], ["--order", "4"]):
            assert main_verify(["eq2-power-sum", "--variant", "minus", *order]) == 0
            out = capsys.readouterr().out
            assert "FAIL" in out and "(whitelisted)" in out

    def test_unknown_identity_exit_two(self):
        assert main_verify(["nosuch"]) == 2

    def test_unknown_identity_prints_the_registered_ones(self, capsys):
        assert main_verify(["nosuch", "--order", "4"]) == 2
        assert f"registered: {', '.join(audit.registered_ids())}" in capsys.readouterr().err

    @pytest.mark.parametrize("factory", [_seq_parser, _verify_parser, _audit_parser])
    def test_help_names_only_accepted_flags(self, factory):
        parser = factory()
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", parser.format_help()))
        accepted = {flag for action in parser._actions for flag in action.option_strings}
        assert named and named <= accepted

    @pytest.mark.parametrize("arg", ["--order=٤", "--seed=1_0", "--seed=+1"])
    def test_integer_outside_the_text_form_exits_2(self, arg, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main_verify(["thm2", "--order=4", arg])
        assert exit_info.value.code == 2
        flag, _, value = arg.partition("=")
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"polyverify: error: argument {flag}: invalid int value: '{value}'"

    def test_unknown_variant_exit_two(self):
        assert main_verify(["thm4-explicit", "--variant", "corrected"]) == 2

    def test_unexpected_fail_exit_one(self, monkeypatch, capsys):
        _document_pass(monkeypatch, "eq2-power-sum")
        assert main_verify(["eq2-power-sum", "--variant", "minus"]) == 1
        assert "(whitelisted)" not in capsys.readouterr().out

    def test_negative_order_exits_2(self, capsys):
        assert main_verify(["thm1", "--order", "-1"]) == 2
        assert "--order must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0", "1", "2"])
    def test_order_below_minimum_exits_2(self, order, capsys):
        assert main_verify(["combined", "--variant", "as-printed", "--order", order]) == 2
        assert "--order must be >= 3" in capsys.readouterr().err

    def test_order_env_below_minimum_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("POLYEULER_ORDER", "2")
        assert main_verify(["thm2"]) == 2
        assert "error: POLYEULER_ORDER must be >= 3" in capsys.readouterr().err

    def test_documented_discrepancy_that_passes_is_flagged(self):
        result = audit.CaseResult("eq9-cosh", None, 4, audit.PASS, None, "")
        assert _result_line(result, 4, 0).endswith("(expected FAIL)")

    def test_runs_every_variant_without_flag(self, capsys):
        assert main_verify(["eq2-power-sum", "--order", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert main_verify(["combined", "--order", "4"]) == 0
        combined, printed = capsys.readouterr().out.splitlines()
        assert combined.startswith("combined: PASS ")
        assert re.match(r"combined\[as-printed\]: FAIL .* \(whitelisted\) counterexample: ", printed)


class TestAuditCommand:
    def test_report_written_and_ok(self, tmp_path, capsys):
        """The summary marks the seven documented discrepancies, and only
        them, as whitelisted, down to the smallest order that witnesses them."""
        target = tmp_path / "report.json"
        for order, seed in ((4, 1), (3, 0)):
            target.write_text("x" * 100_000)  # an older, longer file is replaced, not appended to
            assert main_audit(["--order", str(order), "--seed", str(seed), "--out", str(target)]) == 0
            payload = json.loads(target.read_text())
            assert payload["order"] == order and payload["seed"] == seed
            assert len(payload["cases"]) >= 13
            summary = capsys.readouterr().err.strip().splitlines()
            assert len(summary) == len(payload["cases"])
            whitelisted = r" \(whitelisted\)( counterexample: .*)?$"
            assert sum(bool(re.search(whitelisted, line)) for line in summary) == 7
            assert not any("(expected " in line for line in summary)

    def test_stdout_when_no_out_flag(self, capsys):
        assert main_audit(["--order", "4"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["order"] == 4

    def test_order_outside_the_integer_form_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main_audit(["--order=+4"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "polyaudit: error: argument --order: invalid int value: '+4'"
        )

    def test_failed_audit_keeps_the_old_report(self, tmp_path, monkeypatch):
        """--out replaces a file only once the new report is ready, and its
        check creates none: an interrupted audit keeps an existing report's
        bytes and leaves no file where there was none, nor at the target of
        a dangling link."""
        target, new = tmp_path / "report.json", tmp_path / "new.json"
        link, linked = tmp_path / "link.json", tmp_path / "linked.json"
        target.write_bytes(b"old report\n")
        link.symlink_to(linked.name)

        def interrupted(seed, order):
            raise KeyboardInterrupt

        monkeypatch.setattr(audit, "run_all", interrupted)
        for path in (target, new, link):
            with pytest.raises(KeyboardInterrupt):
                main_audit(["--order", "4", "--out", str(path)])
        assert target.read_bytes() == b"old report\n"
        assert not new.exists()
        assert link.is_symlink() and os.readlink(link) == linked.name
        assert not linked.exists()

    def test_unwritable_out_exits_2(self, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        assert main_audit(["--order", "4", "--out", str(target)]) == 2

    def test_unexpected_fail_exit_one(self, monkeypatch, capsys):
        _document_pass(monkeypatch, "eq2-power-sum")
        assert main_audit(["--order", "4"]) == 1

    def test_negative_order_exits_2(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli("audit", "--order", "-1", "--out", str(target))
        assert proc.returncode == 2
        assert "--order must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not target.exists()


    @pytest.mark.parametrize("order", ["0", "1", "2"])
    def test_order_below_minimum_exits_2(self, order, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main_audit(["--order", order, "--out", str(target)]) == 2
        assert "--order must be >= 3" in capsys.readouterr().err
        assert not target.exists()

    def test_order_env_below_minimum_exits_2(self, monkeypatch, capsys):
        """The error names the variable the order came from, not --order."""
        monkeypatch.setenv("POLYEULER_ORDER", "2")
        assert main_audit([]) == 2
        assert "error: POLYEULER_ORDER must be >= 3" in capsys.readouterr().err


_KS = tuple(MAX_K * (-1) ** i for i in range(MAX_DEPTH))
_KS_AT_LIMIT = ",".join(map(str, _KS))
# x, alpha and beta with MAX_DIGITS digits in numerator and denominator, all
# distinct, as in the at-limit table below.
_TOP = 10**MAX_DIGITS - 1
_AT_DIGIT_LIMIT = [f"{-_TOP}/{_TOP - 1}", f"{_TOP - 1}/{_TOP}", f"{_TOP}/{_TOP - 2}"]
_X, _ALPHA, _BETA = map(Fraction, _AT_DIGIT_LIMIT)


# The at-limit polyseq requests and the sha256 of their stdout, each with
# the change before which it was recorded, so that no pin comes from the
# kernel it checks.  tools/bench_pairs.py's limit workload reads the same file.
_AT_LIMIT = json.loads((Path(__file__).resolve().parent / "at_limit.json").read_text())
# The same for the sweep below.
_SWEEP_SHA256 = "d671b4e7a72a054002050da0af899a970b42f18cbbec3adbcc1e47a056c011cf"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Two primes fixed in advance, each above MAX_N and every printed denominator's
# prime factors: a printed value a/b is compared with the oracles mod p.
_PRIMES = (2**61 - 1, 2**31 - 1)


def _decimal_mod(text, p):
    """A printed decimal integer mod p, read 18 digits at a time: the values
    at the limits run past the interpreter's int-from-str digit limit."""
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 18):
        chunk = digits[start : start + 18]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return -value % p if text.startswith("-") else value


def _printed_values(out, fmt="plain"):
    """The value column of a polyseq table, read by its format."""
    if fmt == "json":
        return [row["value"] for row in json.loads(out)]
    if fmt == "csv":
        return [line.split(",")[1] for line in out.splitlines()[1:]]
    return [line.split("\t")[1] for line in out.splitlines()]


def _printed_residues(out, p, fmt="plain"):
    """The values of a polyseq table mod p.  A denominator that p divides
    has no residue: it fails the check, it is never skipped."""
    residues = []
    for value in _printed_values(out, fmt):
        num, _, den = value.partition("/")
        den = _decimal_mod(den or "1", p)
        assert den, f"a printed denominator is divisible by {p}"
        residues.append(_decimal_mod(num, p) * pow(den, -1, p) % p)
    return residues


class TestSizeBounds:
    """Requests past MAX_N, MAX_K, MAX_DEPTH or MAX_DIGITS are usage errors
    (exit 2); a request at all the limits still runs."""

    def test_n_above_limit_exits_2(self, capsys):
        assert main_seq(["bernoulli", "--n", str(MAX_N + 1)]) == 2
        assert f"--n must be <= {MAX_N}" in capsys.readouterr().err

    def test_order_env_above_limit_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("POLYEULER_ORDER", str(MAX_N + 1))
        assert main_seq(["bernoulli"]) == 2
        assert f"POLYEULER_ORDER must be in 0..{MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("main, argv", [(main_audit, []), (main_verify, ["thm1"])])
    def test_audit_order_above_limit_exits_2(self, main, argv, capsys):
        assert main([*argv, "--order", str(MAX_N + 1)]) == 2
        assert f"--order must be <= {MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["poly-euler", "--k", "8000"], "--k"),
            (["poly-bernoulli", f"--k=-{MAX_K + 1}"], "--k"),
            (["multi-poly-euler", f"--ks=1,{MAX_K + 1}"], "--ks indices"),
        ],
    )
    def test_index_above_limit_exits_2(self, argv, named, capsys):
        assert main_seq([*argv, "--n", "4"]) == 2
        assert f"error: {named} must lie in -{MAX_K}..{MAX_K}\n" == capsys.readouterr().err

    def test_depth_above_limit_exits_2(self, capsys):
        ks = ",".join(["1"] * (MAX_DEPTH + 1))
        assert main_seq(["multi-poly-bernoulli", "--ks", ks, "--n", "4"]) == 2
        assert f"--ks takes at most {MAX_DEPTH} indices" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["x", "alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [f"{10**MAX_DIGITS}", f"-1/{10**MAX_DIGITS}"])
    def test_rational_above_digit_limit_exits_2(self, flag, value, capsys):
        argv = ["poly-euler-abc", "--k=1", "--n=4", "--x=1", "--alpha=1", "--beta=1", "--gamma=1"]
        assert main_seq([*argv, f"--{flag}={value}"]) == 2
        assert f"--{flag} takes at most {MAX_DIGITS} digits" in capsys.readouterr().err

    def test_long_rational_is_a_usage_error_not_a_traceback(self):
        """x^200 of this argument once overflowed the interpreter's
        int-to-str limit while the table was printed (exit 1, traceback)."""
        proc = run_cli(
            "seq", "poly-euler", "--k", "1", "--n", "200", "--x", "123456789012345678901234567/2"
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"--x takes at most {MAX_DIGITS} digits" in proc.stderr

    @pytest.mark.parametrize("command", list(_AT_LIMIT))
    def test_request_at_the_limits_runs(self, command, capsys):
        """Each request of the at-limit table prints MAX_N + 1 lines, its
        pinned bytes, and values that _sweep_oracle gives mod both primes."""
        family, *rest = command.split()
        assert main_seq(command.split()) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == MAX_N + 1
        assert _sha256(out) == _AT_LIMIT[command]["sha256"]
        flags = dict(flag[2:].split("=", 1) for flag in rest)
        for p in _PRIMES:
            assert _printed_residues(out, p) == _sweep_oracle(family, flags, p), p


def _plain_table(values):
    """Exact rationals as polyseq's plain table, formatted with no package code."""
    return "".join(
        f"{n}\t{v.numerator}{'' if v.denominator == 1 else f'/{v.denominator}'}\n"
        for n, v in enumerate(values)
    )


class TestFiniteFormulas:
    """Kaneko's finite Stirling-number formulas, exact and with no package
    code, rebuild the multi-poly-bernoulli and the plain multi-poly-euler
    tables at the limits byte for byte; with the index vector reversed,
    neither digest comes out."""

    PINNED = tuple(
        _AT_LIMIT[f"{family} --ks={_KS_AT_LIMIT} --n={MAX_N}"]["sha256"]
        for family in ("multi-poly-bernoulli", "multi-poly-euler")
    )

    @staticmethod
    def digests(ks):
        li = oracles.multi_li_running(ks, MAX_N + len(ks))
        stirling = oracles.stirling2_rows(MAX_N)
        tables = (
            oracles.multi_poly_bernoulli_finite(li, len(ks), stirling),
            oracles.multi_poly_euler_finite(li, len(ks), stirling),
        )
        return tuple(_sha256(_plain_table(values)) for values in tables)

    def test_finite_formulas_give_the_at_limit_digests(self):
        assert self.digests(_KS) == self.PINNED

    def test_reversed_index_vector_gives_neither_digest(self):
        for got, pinned in zip(self.digests(_KS[::-1]), self.PINNED):
            assert got != pinned


class TestModPControls:
    """The mod-p check tells a slip from the truth: on the rational
    multi-poly-euler request at the limits, cut to n = 60, the oracle agrees
    and the same oracle with the index vector reversed, or with w = x in
    place of r x, disagrees."""

    N = 60

    @pytest.fixture(scope="class")
    def printed(self):
        argv = ["multi-poly-euler", f"--ks={_KS_AT_LIMIT}", f"--n={self.N}"]
        argv += [f"--{flag}={v}" for flag, v in zip(("x", "alpha", "beta"), _AT_DIGIT_LIMIT)]
        code, out = seq_output(argv)
        assert code == 0
        return {p: _printed_residues(out, p) for p in _PRIMES}

    @pytest.mark.parametrize(
        "ks, w", [(_KS[::-1], len(_KS) * _X), (_KS, _X)], ids=["reversed-ks", "w=x"]
    )
    def test_a_slipped_oracle_disagrees(self, printed, ks, w):
        for p in _PRIMES:
            truth = oracles.euler_shape_mod(_KS, _ALPHA, _BETA, len(_KS) * _X, self.N, p)
            slipped = oracles.euler_shape_mod(ks, _ALPHA, _BETA, w, self.N, p)
            assert printed[p] == truth
            assert sum(a != b for a, b in zip(printed[p], slipped)) > self.N // 2


def _sweep_requests():
    """polyseq requests over every family: n <= 30, indices -2..3 and +-16,
    depth up to 6, zero and non-integer x, alpha, beta and gamma."""
    indices = (-16, -2, -1, 0, 1, 2, 3, 16)
    reqs = [["bernoulli", "--n=30"], ["euler", "--n=30"], ["euler", "--n=30", "--convention=secant"]]
    for k in indices:
        for x in ("0", "-7/3"):
            reqs.append(["poly-bernoulli", f"--k={k}", f"--x={x}", "--n=30"])
            reqs.append(["poly-euler", f"--k={k}", f"--x={x}", "--n=30"])
        reqs.append(["poly-euler-sasaki", f"--k={k}", "--n=30"])
    for ks in ("3", "-2,1", "16,-16", "1,1,1", "2,-1,0,3", "-2,3,0,1,-1", "1,2,3,-2,-1,0"):
        reqs.append(["multi-poly-bernoulli", f"--ks={ks}", "--n=24"])
        reqs.append(["multi-poly-euler", f"--ks={ks}", "--n=30"])
        reqs.append(["multi-poly-euler", f"--ks={ks}", "--x=5/4", "--n=30"])
        reqs.append(
            ["multi-poly-euler", f"--ks={ks}", "--x=-2/3", "--alpha=3/4", "--beta=-1/6", "--n=30"]
        )
        reqs.append(["multi-poly-euler", f"--ks={ks}", "--x=0", "--alpha=0", "--beta=0", "--n=30"])
    for k in indices:
        reqs.append(
            ["poly-euler-abc", f"--k={k}", "--x=3/5", "--alpha=-1/2", "--beta=7/3", "--gamma=-5/4", "--n=30"]
        )
        reqs.append(["poly-euler-abc", f"--k={k}", "--x=0", "--alpha=0", "--beta=1", "--gamma=0", "--n=30"])
    reqs.append(["multi-poly-euler", "--ks=2", "--x=1/3", "--alpha=2", "--beta=-1/2", "--gamma=3/7", "--n=30"])
    reqs.append(["poly-bernoulli", "--k=2", "--x=1/2", "--n=30", "--format=csv"])
    reqs.append(["multi-poly-euler", "--ks=1,-1", "--n=30", "--format=json"])
    reqs.append(["lonesum", "--rows=3", "--cols=4"])
    return reqs


def _sweep_oracle(family, flags, p):
    """What a sweep request of a sequence family prints, mod p, by the
    oracles' route."""
    order = int(flags["n"])
    x = Fraction(flags.get("x", 0))
    if family == "bernoulli":
        return oracles.bernoulli_mod(order, p)
    if family == "euler":
        # 2/(1 + e^t), or 2/(e^t + e^{-t}) under the secant convention
        rates = (1, p - 1) if flags.get("convention") == "secant" else (0, 1)
        return oracles.div_exp_sum_mod([2] + [0] * order, [(1, mu) for mu in rates], p)
    if family == "poly-bernoulli":
        plain = oracles.multi_poly_bernoulli_mod((int(flags["k"]),), order, p)
        return oracles.times_exp_mod(plain, oracles.residue(x, p), p)
    if family == "poly-euler":
        return oracles.euler_shape_mod((int(flags["k"]),), 0, 1, x, order, p)
    if family == "poly-euler-sasaki":
        return oracles.poly_euler_sasaki_mod(int(flags["k"]), order, p)
    ks = tuple(map(int, flags.get("ks", flags.get("k")).split(",")))
    if family == "multi-poly-bernoulli":
        return oracles.multi_poly_bernoulli_mod(ks, order, p)
    # multi-poly-euler and poly-euler-abc: w = gamma x once gamma is given
    alpha, beta = Fraction(flags.get("alpha", 0)), Fraction(flags.get("beta", 1))
    w = Fraction(flags["gamma"]) * x if "gamma" in flags else len(ks) * x
    return oracles.euler_shape_mod(ks, alpha, beta, w, order, p)


def test_sweep_of_every_family_is_pinned(capsys):
    """The stdout bytes of 98 requests, one digest for all of them, and each
    request's values against the oracles mod both primes."""
    digest = hashlib.sha256()
    for argv in _sweep_requests():
        assert main_seq(argv) == 0, argv
        out = capsys.readouterr().out
        digest.update(out.encode())
        family, *rest = argv
        flags = dict(flag[2:].split("=", 1) for flag in rest)
        if family == "lonesum":
            assert int(out) == oracles.lonesum_count(int(flags["rows"]), int(flags["cols"]))
            continue
        for p in _PRIMES:
            printed = _printed_residues(out, p, flags.get("format", "plain"))
            assert printed == _sweep_oracle(family, flags, p), (argv, p)
    assert digest.hexdigest() == _SWEEP_SHA256


# The families that print a sequence: lonesum prints one count, which the
# sweep checks.
_SEQUENCE_FAMILIES = tuple(family for family in FAMILIES if family != "lonesum")


def _flag_values(max_n, depths):
    """A strategy per polyseq flag inside the MAX_* bounds: the order, indices
    in -MAX_K..MAX_K, rationals of at most MAX_DIGITS digits, and the values
    _SEQ_FLAGS allows for the flags that take one of a set."""
    index = st.integers(-MAX_K, MAX_K)
    # 0 and 1 often: at gamma = 0 or x = 0 the shape takes w = 0, and at
    # alpha = 0, beta = 1 it is the plain quotient, composed, not divided.
    rational = st.one_of(
        st.sampled_from(("0", "1", "-1")),
        st.builds(Fraction, st.integers(-_TOP, _TOP), st.integers(1, _TOP)).map(str),
    )
    values = {
        "n": st.integers(0, max_n).map(str),
        "k": index.map(str),
        "ks": st.lists(index, min_size=depths[0], max_size=depths[1]).map(lambda ks: ",".join(map(str, ks))),
        **dict.fromkeys(("x", "alpha", "beta", "gamma"), rational),
    }
    values.update((flag, st.sampled_from(read)) for flag, (read, _) in _SEQ_FLAGS.items() if isinstance(read, tuple))
    return values


@st.composite
def _legal_requests(draw, families=_SEQUENCE_FAMILIES, max_n=30, depths=(1, 4)):
    """A legal polyseq request as its family and its flags in --help order:
    each needed flag, --n (the oracle needs the order), and any others the
    family reads.  Where every value is 0, at alpha + beta = 0: half of the
    two-parameter multi-poly-euler draws take --beta as -alpha with a
    nonzero --alpha and --n at least the depth, and a fifth of the other
    draws with --beta take it as -alpha."""
    family = draw(st.sampled_from(families))
    needed, optional = FAMILIES[family]
    values = _flag_values(max_n, depths)
    chosen = {*needed, "n", *(flag for flag in (*optional, "format") if draw(st.booleans()))}
    if family == "multi-poly-euler":
        # --alpha and --beta come together, and --gamma needs both.
        chosen -= {"alpha", "beta", "gamma"}
        chosen.update(draw(st.sampled_from(((), ("alpha", "beta"), ("alpha", "beta", "gamma")))))
    flags = {flag: draw(values[flag]) for flag in _SEQ_FLAGS if flag in chosen}
    if "gamma" in flags and "ks" in flags:
        flags["ks"] = flags["ks"].split(",")[0]  # the three-parameter family takes one index
    two_parameter = family == "multi-poly-euler" and flags.keys() & {"beta", "gamma"} == {"beta"}
    if two_parameter and draw(st.integers(0, 1)) == 0:
        flags["alpha"] = draw(values["alpha"].filter(lambda alpha: Fraction(alpha) != 0))
        flags["beta"] = str(-Fraction(flags["alpha"]))
        # past the first r values, which vanish at every alpha and beta
        flags["n"] = str(draw(st.integers(flags["ks"].count(",") + 1, max_n)))
    elif "beta" in flags and draw(st.integers(0, 4)) == 0:
        flags["beta"] = str(-Fraction(flags["alpha"]))
    return family, flags


def _opposite(family, flags):
    """Whether the request is the two-parameter multi-poly-euler family at
    alpha + beta = 0 with alpha != 0, every value of which is 0."""
    return (
        family == "multi-poly-euler"
        and "gamma" not in flags
        and Fraction(flags.get("alpha", 0)) != 0
        and Fraction(flags["alpha"]) + Fraction(flags["beta"]) == 0
    )


def _slipped(flags):
    """The flags with two slips an oracle could make: the index vector
    reversed and x negated."""
    slipped = dict(flags)
    if "ks" in flags:
        slipped["ks"] = ",".join(reversed(flags["ks"].split(",")))
    if "x" in flags:
        slipped["x"] = str(-Fraction(flags["x"]))
    return slipped


def _spellings(family, flags):
    """The request with every value after '=', and with each value that does
    not start with '-' as the next argument."""
    joined = [family, *(f"--{flag}={value}" for flag, value in flags.items())]
    spaced = [family]
    for flag, value in flags.items():
        spaced += [f"--{flag}={value}"] if value.startswith("-") else [f"--{flag}", value]
    return joined, spaced


@st.composite
def _requests_one_bound_past(draw):
    """A drawn legal request with exactly one value past its bound: --n at
    MAX_N + 1, one index at +-(MAX_K + 1), MAX_DEPTH + 1 indices, or a
    rational with MAX_DIGITS + 1 digits in its numerator or denominator;
    and the error polyseq names it by."""
    family, flags = draw(_legal_requests())
    bounds = [flag for flag in ("x", "alpha", "beta", "gamma", "k", "ks") if flag in flags]
    past = draw(st.sampled_from(bounds + ["depth"] * ("ks" in flags) + ["n"]))
    if past == "n":
        flags["n"], message = str(MAX_N + 1), f"--n must be <= {MAX_N}"
    elif past == "depth":
        ks = flags["ks"].split(",")
        ks += (draw(st.integers(-MAX_K, MAX_K).map(str)) for _ in range(MAX_DEPTH + 1 - len(ks)))
        flags["ks"], message = ",".join(ks), f"--ks takes at most {MAX_DEPTH} indices"
    elif past in ("k", "ks"):
        ks = flags[past].split(",")
        ks[draw(st.integers(0, len(ks) - 1))] = draw(st.sampled_from((str(MAX_K + 1), str(-MAX_K - 1))))
        named = "--k" if past == "k" else "--ks indices"
        flags[past], message = ",".join(ks), f"{named} must lie in -{MAX_K}..{MAX_K}"
    else:
        digits = draw(st.integers(10**MAX_DIGITS, 10 ** (MAX_DIGITS + 1) - 1))
        flags[past] = draw(st.sampled_from((f"{digits}", f"-{digits}", f"1/{digits}", f"-1/{digits}")))
        message = f"--{past} takes at most {MAX_DIGITS} digits in its numerator and denominator"
    return family, flags, message


class TestDrawnRequests:
    """Legal polyseq requests drawn by hypothesis (derandomized), each
    checked against _sweep_oracle mod both primes, as the sweep is; the same
    draws spelled both ways, and with one value past its bound."""

    @staticmethod
    def _check(family, flags):
        """Run the request; whether the slipped oracle disagrees with it."""
        argv = _spellings(family, flags)[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main_seq(argv) == 0, argv
        disagrees = False
        if _opposite(family, flags):
            assert set(_printed_values(out.getvalue(), flags.get("format", "plain"))) == {"0"}, argv
        for p in _PRIMES:
            printed = _printed_residues(out.getvalue(), p, flags.get("format", "plain"))
            assert printed == _sweep_oracle(family, flags, p), (argv, p)
            disagrees |= printed != _sweep_oracle(family, _slipped(flags), p)
        return disagrees

    def test_drawn_requests_match_the_oracles(self):
        """And, as a control, the slipped oracle disagrees on at least an
        eighth of the draws (16-28% of them over nine seeds): on the
        rest a slip changes nothing, as for one index, no x, n = 0 or
        alpha + beta = 0.  The draws reach the two-parameter shape at
        alpha + beta = 0 with alpha != 0 (11 of the 300 here)."""
        disagreed, opposite = [], []

        @settings(max_examples=300)
        @given(_legal_requests())
        def check(request):
            disagreed.append(self._check(*request))
            opposite.append(_opposite(*request))

        check()
        assert len(disagreed) >= 250 and 8 * sum(disagreed) >= len(disagreed), (sum(disagreed), len(disagreed))
        assert sum(opposite) >= 5, sum(opposite)

    @settings(max_examples=6)
    @given(_legal_requests(("multi-poly-bernoulli", "multi-poly-euler"), 60, (MAX_DEPTH, MAX_DEPTH)))
    def test_deep_drawn_requests_match_the_oracles(self, request):
        self._check(*request)

    @settings(max_examples=100)
    @given(_legal_requests())
    def test_both_spellings_print_the_same_bytes(self, request):
        """--flag=value and --flag value read to the same values, and print
        the same bytes through argparse and through main_seq."""
        spellings = _spellings(*request)
        read = [_typed(_read_seq(argv)) for argv in spellings]
        assert read[0] is not None and read[0] == read[1], spellings
        printed = set()
        for argv in spellings:
            printed.add(seq_output(argv))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                printed.add((main_seq(argv), out.getvalue()))
        assert len(printed) == 1 and printed.pop()[0] == 0, spellings

    @settings(max_examples=100)
    @given(_requests_one_bound_past())
    def test_one_value_past_its_bound_is_a_usage_error(self, request):
        """Exit 2 with no output and the one error line of that bound;
        main_seq raises nothing."""
        family, flags, message = request
        argv = _spellings(family, flags)[0]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main_seq(argv) == 2, argv
        assert out.getvalue() == "" and err.getvalue().splitlines() == [f"error: {message}"], argv


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# polyaudit is left out: one of its README lines writes report.json.
_README_RUNNERS = {"polyseq": main_seq, "polyverify": main_verify}


def _readme_commands():
    """The polyseq and polyverify lines of README's sh blocks, split as a shell would."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] in _README_RUNNERS:
                commands.append(argv)
    return commands


def _readme_family_table():
    """The family table under README's polyseq heading, as cli.FAMILIES
    holds it: family -> (needed flags, other flags read)."""
    section = README.partition("### polyseq")[2].partition("\n### ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|(.*)\|$", section, re.MULTILINE)
    return {
        family: tuple(tuple(re.findall(r"`--([a-z]+)`", cell)) for cell in cells)
        for family, *cells in rows
    }


class TestReadmeExamples:
    def test_family_table_is_cli_families(self):
        assert _readme_family_table() == FAMILIES

    @pytest.mark.parametrize("argv", _readme_commands(), ids=shlex.join)
    def test_example_exits_zero(self, argv, capsys):
        assert _README_RUNNERS[argv[0]](argv[1:]) == 0, capsys.readouterr().err

    def test_quoted_verdict_line_is_printed(self, capsys):
        assert ["polyverify", "thm2", "--order", "8", "--seed", "7"] in _readme_commands()
        quoted = re.search(r"Prints one verdict line per case, e\.g\. `([^`]*)`", README)
        assert main_verify(["thm2", "--order", "8", "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip() == " ".join(quoted.group(1).split())


def _family_requests():
    """Every family's request, with and without --format and a flag the
    family does not read, in the --opt=value and in the --opt value form."""
    requests = []
    for family, (argv, *unread) in TestSeqErrors.UNREAD_FLAG.items():
        for request in (argv, [*argv, "--format=csv"], [*argv, *unread]):
            requests.append([family, *request])
            requests.append([family, *(part for flag in request for part in flag.split("=", 1))])
    return requests


# Command lines that argparse reads and the reader leaves to it: a
# space-separated negative value, an abbreviated flag, "--", and help.
_ARGPARSE_READS = [
    ["poly-bernoulli", "--k", "-2", "--n", "3"],
    ["multi-poly-euler", "--ks=1", "--alph=1", "--beta=2"],
    ["--", "bernoulli"],
    ["-h"],
    ["bernoulli", "--help"],
]

# Negative values, odd spacing, repeated flags and usage errors.
_EDGE_CASES = [
    ["poly-euler", "--k=1", "--x=-1/2"],
    ["poly-euler", "--k=1", "--x", "-1/2"],
    ["poly-euler", "--k", "1", "--x", "\u22121/2", "--n", " 3 "],
    ["bernoulli", "--", "--n=3"],
    ["bernoulli", "--n=3", "--n=5"],
    ["bernoulli", "--n=x", "--n=5"],
    ["bernoulli", "--n"],
    ["bernoulli", "--n="],
    ["bernoulli", "--n", ""],
    ["euler", "--convention=sec"],
    ["bernoulli", "--format", "xml"],
    ["bernoulli", "--n=3.0"],
    ["poly-euler", "--k=1", "--x", "1/0"],
    ["bernoulli", "euler", "--n=3"],
    ["nosuchfamily", "--n=3"],
    ["bernoulli", "-n", "3"],
    ["bernoulli", "-5"],
    [],
]


def _typed(values):
    """Each value with its type, so that 3 and Fraction(3) differ."""
    return None if values is None else {name: (type(v), v) for name, v in values.items()}


class TestSeqReader:
    def test_reader_agrees_with_argparse(self, capsys):
        """On every command line of the corpus, the reader returns None or
        exactly what argparse returns."""
        readme = [argv[1:] for argv in _readme_commands() if argv[0] == "polyseq"]
        corpus = _sweep_requests() + readme + _family_requests() + _ARGPARSE_READS + _EDGE_CASES
        parser = _seq_parser()
        for argv in corpus:
            try:
                expected = vars(parser.parse_args(argv))
            except SystemExit:  # help, or a usage error
                expected = None
            got = _read_seq(argv)
            assert got is None or _typed(got) == _typed(expected), argv

    def test_reader_reads_every_fully_spelled_request(self):
        """The sweep, every family's requests and README's lines but its
        --k -2 skip argparse."""
        readme = [argv[1:] for argv in _readme_commands() if argv[0] == "polyseq" and "-2" not in argv]
        for argv in _sweep_requests() + _family_requests() + readme:
            assert _read_seq(argv) is not None, argv

    @pytest.mark.parametrize("argv", _ARGPARSE_READS, ids=shlex.join)
    def test_argparse_reads_the_rest(self, argv):
        assert _read_seq(argv) is None


class TestRootCommand:
    def test_unknown_subcommand(self):
        proc = run_cli("fly")
        assert proc.returncode == 2

    def test_seq_does_not_load_the_audit(self):
        """Each family group loads only the layers it runs, counted against
        the modules the bare interpreter had already loaded."""
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from polyeuler.cli import main_seq\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main_seq(sys.argv[1:])\n"
            "print(repr((code, out.getvalue(), sorted(set(sys.modules) - before))))\n"
        )
        base = {"polyeuler", "polyeuler.cli", "polyeuler.classical", "polyeuler.exact", "polyeuler.polylog"}
        poly = base | {"polyeuler.polyfamily"}
        multi = poly | {"polyeuler.multifamily"}
        # A fully spelled request skips argparse and gettext's locale lookup.
        unused = {"dataclasses", "inspect", "hashlib", "json", "argparse", "gettext", "locale"}
        for argv, layers, absent in [
            (["bernoulli", "--n=1"], base, unused),
            (["bernoulli", "--n=1", "--format=json"], base, unused - {"json"}),
            (["poly-euler", "--k=2", "--n=3"], poly, unused),
            (["lonesum", "--rows=2", "--cols=2"], poly, unused),
            (["multi-poly-euler", "--ks=1,2", "--alpha=1", "--beta=2", "--n=3"], multi, unused),
            (["poly-euler-abc", "--k=1", "--alpha=1", "--beta=2", "--gamma=1", "--n=2"], multi, unused),
            # Both Euler conventions, the 4t-cosh-t quotient, the smallest
            # orders and the plain quotient at x = 0.
            (["euler", "--convention=secant", "--n=12"], base, unused),
            (["poly-euler-sasaki", "--k=2", "--n=12"], poly, unused),
            (["poly-euler", "--k=-2", "--n=0"], poly, unused),
            (["poly-bernoulli", "--k=3", "--n=0"], poly, unused),
            (["multi-poly-bernoulli", "--ks=2,1", "--n=1"], multi, unused),
            (["multi-poly-euler", "--ks=2,1,-1", "--n=12"], multi, unused),
        ]:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-c", code, *argv], capture_output=True, text=True, timeout=60
            )
            assert proc.returncode == 0, proc.stderr
            exit_code, printed, loaded = ast.literal_eval(proc.stdout)
            assert exit_code == 0, argv
            assert printed == seq_output(argv)[1], argv
            assert {m for m in loaded if m.startswith("polyeuler")} == layers, argv
            assert not absent & set(loaded), argv

    def test_audit_does_not_load_openssl(self):
        """The audit's seeds take SHA-256 from the interpreter's built-in
        module, so hashlib and OpenSSL's _hashlib stay unloaded wherever
        that module exists."""
        code = (
            "import contextlib, importlib.util, io, sys\n"
            "import polyeuler.audit\n"
            "from polyeuler.cli import main_audit, main_verify\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = main_verify(['eq9-cosh', '--order=3']), main_audit(['--order=3'])\n"
            "lean = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256'))\n"
            "print(repr((codes, lean, 'hashlib' in sys.modules, '_hashlib' in sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        codes, lean, hashlib_loaded, openssl_loaded = ast.literal_eval(proc.stdout)
        assert codes == (0, 0)
        if lean:
            assert not hashlib_loaded and not openssl_loaded
        else:  # a build with neither module falls back to hashlib
            assert hashlib_loaded

    def test_audit_and_verify_load_no_dataclasses(self):
        """The package's records are NamedTuples, so neither program loads
        dataclasses or inspect, and polyverify, which writes no report,
        leaves json unloaded too."""
        code = (
            "import contextlib, io, sys\n"
            "from polyeuler.cli import main_audit, main_verify\n"
            "heavy = ('dataclasses', 'inspect', 'json')\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    verify = main_verify(['eq9-cosh', '--order=3']), [m for m in heavy if m in sys.modules]\n"
            "    audit = main_audit(['--order=3']), [m for m in heavy if m in sys.modules]\n"
            "print(repr((verify, audit)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout) == ((0, []), (0, ["json"]))

    def test_seq_help_is_argparse_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = run_cli("seq", "--help", env=dict(os.environ))
        assert proc.returncode == 0
        assert proc.stdout == _seq_parser().format_help()

    def test_seq_via_subprocess(self):
        proc = run_cli("seq", "bernoulli", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0\t1", "1\t-1/2", "2\t1/6"]


class TestClosedStdout:
    """A reader that closes the pipe early, as ``| head -1`` does: each
    command ends quietly with the status a shell gives a writer stopped by
    SIGPIPE, so polyaudit and polyverify do not read as an identity failure."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "bernoulli", "--n=5"],
            ["seq", "euler", "--n=5", "--format=json"],
            ["seq", "lonesum", "--rows=2", "--cols=2"],
            ["audit", "--order", "3"],
            ["verify", "thm1", "--order", "3"],
        ],
        ids=" ".join,
    )
    def test_closed_pipe_exits_quietly_with_the_sigpipe_status(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so every write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "polyeuler", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 141


def _holds_a_parser(value) -> bool:
    """Whether ``value`` is an argparse parser, or a container holding one."""
    import argparse

    if isinstance(value, dict):
        items = [*value, *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    else:
        items = []
    return any(isinstance(item, argparse.ArgumentParser) for item in [value, *items])


def test_a_polyseq_request_opens_no_cache_scope(monkeypatch, capsys):
    """A polyseq request reads no memo twice, so it runs outside any
    ``exact.cache_scope`` and each memo keeps nothing; polyverify runs the
    variants of one id in one scope.  The spy is ``_power_sums``, which the
    memoised ``_division_table`` calls on each miss."""
    scopes = []
    power_sums = exact._power_sums

    def spy(*args):
        scopes.append(exact._SCOPE.get())
        return power_sums(*args)

    monkeypatch.setattr(exact, "_power_sums", spy)
    assert main_seq(["multi-poly-euler", "--ks=1,2", "--x=1/3", "--alpha=2/3", "--beta=-1/4", "--n=12"]) == 0
    assert scopes and all(scope is None for scope in scopes)
    scopes.clear()
    assert main_verify(["thm2", "--order", "4"]) == 0
    assert scopes and all(scope is not None for scope in scopes)


def test_verify_reads_the_euler_series_again_across_variants(capsys):
    """combined's two variants share one scope: at order 10, from cleared
    caches, they read the Euler cache 2,886 times and build 1,911 series."""
    polyfamily._euler_egf.cache_clear()
    assert main_verify(["combined", "--order", "10"]) == 0
    assert polyfamily._euler_egf.cache_info()[:2] == (2886, 1911)


def test_each_request_leaves_its_caches_empty(capsys):
    """No request leaves a cache filled: polyverify's ``exact.cache_scope``
    and the audit's end with the request, and a polyseq request opens none,
    so outside any scope its memos keep nothing.  The requests below reach
    every cache, and once they return the caches hold nothing while their
    miss counts remain to be read.  The caches are found, not listed, so a
    new one that the requests miss fails here.  No parser is kept either: no
    module-level value of the package is, or holds, one."""
    caches = package_caches()
    assert caches
    for cache in caches:
        cache.cache_clear()
    assert main_seq(["multi-poly-euler", "--ks=1,2", "--x=1/3", "--alpha=2/3", "--beta=-1/4", "--n=12"]) == 0
    assert main_seq(["bernoulli", "--n=5"]) == 0
    assert main_seq(["poly-bernoulli", "--k", "-2", "--n", "3"]) == 0  # read by argparse
    assert main_verify(["thm2", "--order", "4"]) == 0
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == 0 and info.misses, cache.__qualname__
    for name, module in list(sys.modules.items()):
        if name == "polyeuler" or name.startswith("polyeuler."):
            for attr, value in vars(module).items():
                assert not _holds_a_parser(value), f"{name}.{attr}"

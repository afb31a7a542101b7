"""Command-line front ends: polyseq, polyverify, polyaudit.

Three argparse programs, installed as three console scripts, and a
hand-written root dispatcher (``python -m polyeuler {seq|verify|audit}``)
that hands the rest of the command line to one of them.  Each program has
one parse function, from its command line to its arguments; a parser is
built for the one request that reads it, and none is kept.  polyverify
runs an identity's variants in one ``exact.cache_scope``, as they read the
same series again; a polyseq request reads no memo twice and opens none.
Exit codes: 0 success (or whitelisted audit verdict), 1 unexpected
identity failure, 2 usage error, 141 (128 + SIGPIPE, a shell's status for
a writer that SIGPIPE stopped) for a stdout closed early, with no traceback.
All rational values cross the boundary in the canonical text form ("-3/4", "5").

polyseq reads a fully spelled command line without argparse: one family,
and each flag as --flag=value, or as --flag value with a value that does
not start with '-', every value read without error.  Any other command
line, among them help, every usage error, an abbreviated flag, --k -2 and
--, goes to argparse, so their text and exit codes are argparse's.  argparse
is imported only when a parser is built.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from . import DEFAULT_ORDER, DEFAULT_SEED, classical
from .classical import EulerConvention
from .exact import cache_scope, format_rational, parse_integer, parse_rational
from .polylog import parse_kvector

# The audit is imported only by the functions of polyverify and polyaudit,
# the family layers only by the branches that call them, and json only where
# --format json prints: a polyseq process loads only the layers it runs.
if TYPE_CHECKING:
    import argparse

    from . import audit

ORDER_ENV = "POLYEULER_ORDER"

# Largest accepted --n (also the audit --order), |k| per index, --ks depth and
# digits in the numerator and the denominator (in lowest terms) of --x,
# --alpha, --beta and --gamma; at the limits a value already runs to
# thousands of digits.
MAX_N = 200
MAX_K = 16
MAX_DEPTH = 8
MAX_DIGITS = 4

# Each family: the flags of SELECTIVE_FLAGS that it needs, then the others
# that it reads. Leaving out a needed flag or passing any flag outside the two
# is a usage error, not a silently ignored value.
FAMILIES = {
    "bernoulli": ((), ("n",)),
    "euler": ((), ("n", "convention")),
    "poly-bernoulli": (("k",), ("n", "x")),
    "poly-euler": (("k",), ("n", "x")),
    "poly-euler-sasaki": (("k",), ("n",)),
    "multi-poly-bernoulli": (("ks",), ("n",)),
    "multi-poly-euler": (("ks",), ("n", "x", "alpha", "beta", "gamma")),
    "poly-euler-abc": (("k", "alpha", "beta", "gamma"), ("n", "x")),
    "lonesum": (("rows", "cols"), ()),
}


class UsageError(Exception):
    pass


def _argument_type(parse: Callable[[str], object], name: str) -> Callable[[str], object]:
    """``parse`` under ``name``: argparse names the expected form by the
    converter's ``__name__`` when a value is malformed
    ("invalid rational value: 'abc'")."""

    def convert(text: str) -> object:
        return parse(text)

    convert.__name__ = name
    return convert


_INTEGER = _argument_type(parse_integer, "int")
_RATIONAL = _argument_type(parse_rational, "rational")
_KVECTOR = _argument_type(parse_kvector, "index vector")


# polyseq's flags in their --help order: each flag's reader, or the tuple of
# its allowed values, and its help text.  Both _seq_parser and _read_seq are
# built from it.  Every flag but --format defaults to None.
_SEQ_FLAGS = {
    "n": (_INTEGER, "highest index (default: POLYEULER_ORDER or 10)"),
    "k": (_INTEGER, "single polylogarithm index"),
    "ks": (_KVECTOR, "comma-separated index vector, e.g. 2,1,-1"),
    "x": (_RATIONAL, "polynomial argument (rational)"),
    "alpha": (_RATIONAL, "ln a (rational)"),
    "beta": (_RATIONAL, "ln b (rational)"),
    "gamma": (_RATIONAL, "ln c (rational)"),
    "convention": (tuple(c.value for c in EulerConvention), "Euler number convention (default genocchi)"),
    "rows": (_INTEGER, "lonesum row count"),
    "cols": (_INTEGER, "lonesum column count"),
    "format": (("plain", "csv", "json"), None),
}
_SEQ_DEFAULTS = {**dict.fromkeys(_SEQ_FLAGS), "format": "plain"}
SELECTIVE_FLAGS = tuple(flag for flag in _SEQ_FLAGS if flag != "format")


def _seq_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(prog="polyseq", description="Print one sequence family as a table.")
    p.add_argument("family", choices=FAMILIES)
    for flag, (read, help_text) in _SEQ_FLAGS.items():
        kind = {"choices": read} if isinstance(read, tuple) else {"type": read}
        p.add_argument(f"--{flag}", default=_SEQ_DEFAULTS[flag], help=help_text, **kind)
    return p


def _read_seq(argv: Sequence[str]) -> dict | None:
    """What ``_seq_parser().parse_args(argv)`` returns, as a dict, for a
    fully spelled command line; None for any other, which argparse reads."""
    values = {"family": None, **_SEQ_DEFAULTS}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            if values["family"] is not None:
                return None  # a second family
            values["family"] = arg
            continue
        flag, equals, text = arg[2:].partition("=")
        if not arg.startswith("--") or flag not in _SEQ_FLAGS:
            return None  # help, --, an abbreviation or an unknown flag
        if not equals:
            text = next(args, "-")
            if text.startswith("-"):
                return None  # a missing value, or one argparse may read as a flag
        read = _SEQ_FLAGS[flag][0]
        if isinstance(read, tuple):
            if text not in read:
                return None
            values[flag] = text
        else:
            try:
                values[flag] = read(text)
            except ValueError:
                return None
    return values if values["family"] in FAMILIES else None


def _parse_seq(argv: Sequence[str] | None) -> argparse.Namespace | SimpleNamespace:
    values = _read_seq(sys.argv[1:] if argv is None else argv)
    return _seq_parser().parse_args(argv) if values is None else SimpleNamespace(**values)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _resolve_order(value: int | None, flag: str) -> int:
    if value is None:
        raw = os.environ.get(ORDER_ENV)
        if raw is None:
            return DEFAULT_ORDER
        try:
            value = parse_integer(raw)
        except ValueError:
            raise UsageError(f"{ORDER_ENV} must be an integer, got {raw!r}") from None
        _require(0 <= value <= MAX_N, f"{ORDER_ENV} must be in 0..{MAX_N}, got {value}")
        return value
    _require(value >= 0, f"{flag} must be >= 0")
    _require(value <= MAX_N, f"{flag} must be <= {MAX_N}")
    return value


def _resolve_audit_order(value: int | None) -> int:
    from . import audit

    order = _resolve_order(value, "--order")
    _require(
        order >= audit.MIN_ORDER,
        f"{'--order' if value is not None else ORDER_ENV} must be >= {audit.MIN_ORDER}: "
        "smaller grids cannot witness every documented discrepancy",
    )
    return order


def _sequence_for(args: argparse.Namespace) -> list[Fraction]:
    order = _resolve_order(args.n, "--n")
    ks = args.ks if args.ks is not None else ()
    _require(len(ks) <= MAX_DEPTH, f"--ks takes at most {MAX_DEPTH} indices")
    indices, named = (ks, "--ks indices") if args.k is None else (ks + (args.k,), "--k")
    _require(all(abs(k) <= MAX_K for k in indices), f"{named} must lie in -{MAX_K}..{MAX_K}")
    for flag in ("x", "alpha", "beta", "gamma"):
        value = getattr(args, flag)
        _require(
            value is None or max(abs(value.numerator), value.denominator) < 10**MAX_DIGITS,
            f"--{flag} takes at most {MAX_DIGITS} digits in its numerator and denominator",
        )
    x = args.x if args.x is not None else Fraction(0)
    family = args.family
    if family == "bernoulli":
        return classical.bernoulli_numbers(order)
    if family == "euler":
        convention = args.convention or EulerConvention.GENOCCHI_TYPE.value
        return classical.euler_numbers(order, EulerConvention(convention))
    from . import polyfamily

    if family == "poly-bernoulli":
        return polyfamily.poly_bernoulli(args.k, x, order)
    if family == "poly-euler":
        return polyfamily.poly_euler(args.k, x, order)
    if family == "poly-euler-sasaki":
        return polyfamily.poly_euler_sasaki(args.k, order)
    from . import multifamily

    if family == "multi-poly-bernoulli":
        return multifamily.multi_poly_bernoulli(args.ks, order)
    # multi-poly-euler, or poly-euler-abc, whose --alpha, --beta and --gamma cmd_seq requires
    _require((args.alpha is None) == (args.beta is None), "--alpha and --beta must be given together")
    _require(args.gamma is None or args.alpha is not None, "--gamma needs --alpha and --beta")
    if args.alpha is None:
        return multifamily.multi_poly_euler(args.ks, x, order)
    params = multifamily.LogParams(args.alpha, args.beta, args.gamma)
    if args.gamma is None:
        return multifamily.multi_poly_euler_xab(args.ks, x, params, order)
    _require(len(indices) == 1, "the three-parameter family is defined for a single index")
    return multifamily.poly_euler_abc(indices[0], x, params, order)


def _print_table(values: Sequence[Fraction], fmt: str) -> None:
    if fmt == "json":
        import json

        rows = [{"n": n, "value": format_rational(v)} for n, v in enumerate(values)]
        print(json.dumps(rows, indent=2))
        return
    sep, head = ("\t", "") if fmt == "plain" else (",", "n,value\n")
    sys.stdout.write(head + "".join(f"{n}{sep}{format_rational(v)}\n" for n, v in enumerate(values)))


def cmd_seq(args: argparse.Namespace) -> int:
    needed, optional = FAMILIES[args.family]
    unread = [
        f"--{flag}"
        for flag in SELECTIVE_FLAGS
        if getattr(args, flag) is not None and flag not in needed + optional
    ]
    _require(not unread, f"{args.family} does not read {', '.join(unread)}")
    missing = [f"--{flag}" for flag in needed if getattr(args, flag) is None]
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise UsageError(f"{args.family} needs {listed}")
    if args.family == "lonesum":
        from . import polyfamily

        try:
            count = polyfamily.lonesum_count(args.rows, args.cols)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if args.format == "plain":
            print(count)
        elif args.format == "csv":
            print(f"rows,cols,value\n{args.rows},{args.cols},{count}")
        else:
            import json

            print(json.dumps({"rows": args.rows, "cols": args.cols, "value": str(count)}, indent=2))
        return 0
    _print_table(_sequence_for(args), args.format)
    return 0


def _verify_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(prog="polyverify", description="Check one registered identity.")
    p.add_argument("identity", help="identity id, e.g. thm2; an unknown id prints the registered ones")
    p.add_argument("--order", type=_INTEGER, default=None)
    p.add_argument("--seed", type=_INTEGER, default=DEFAULT_SEED)
    p.add_argument("--variant", default=None)
    return p


def _result_line(result: audit.CaseResult, order: int, seed: int) -> str:
    from . import audit

    line = f"{result.label}: {result.verdict} (grid={result.grid_size}) [order={order} seed={seed}]"
    if not audit.is_expected(result):
        line += f" (expected {audit.expected_verdict(result)})"
    elif result.verdict != audit.PASS:
        line += " (whitelisted)"
    if result.counterexample is not None:
        params = " ".join(f"{k}={v}" for k, v in result.counterexample["params"].items())
        line += (
            f" counterexample: {params} expected {result.counterexample['expected']}"
            f" got {result.counterexample['actual']}"
        )
    return line


@cache_scope()
def cmd_verify(args: argparse.Namespace) -> int:
    from . import audit

    order = _resolve_audit_order(args.order)
    cases = [c for c in audit.build_registry(args.seed, order) if c.id == args.identity]
    if not cases:
        known = ", ".join(audit.registered_ids())
        raise UsageError(f"unknown identity {args.identity!r}; registered: {known}")
    if args.variant is not None:
        cases = [c for c in cases if c.variant == args.variant]
        if not cases:
            raise UsageError(f"identity {args.identity!r} has no variant {args.variant!r}")
    ok = True
    for case in cases:
        result = audit.run_identity(case)
        print(_result_line(result, order, args.seed))
        ok = ok and audit.is_expected(result)
    return 0 if ok else 1


def _audit_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(prog="polyaudit", description="Run the full identity audit.")
    p.add_argument("--order", type=_INTEGER, default=None)
    p.add_argument("--seed", type=_INTEGER, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write the JSON report here (default: stdout)")
    return p


def cmd_audit(args: argparse.Namespace) -> int:
    from . import audit

    order = _resolve_audit_order(args.order)
    if args.out is not None:
        existed = os.path.exists(args.out)
        try:  # fail fast on a path that cannot be written, and leave it as it was
            open(args.out, "a", encoding="utf-8").close()
            if not existed:
                os.remove(os.path.realpath(args.out))
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    report = audit.run_all(args.seed, order)
    for result in report.cases:
        print(_result_line(result, order, args.seed), file=sys.stderr)
    payload = audit.report_to_json(report)
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(payload)
    return 0 if audit.report_ok(report) else 1


def _dispatch(parse: Callable, runner: Callable, argv: Sequence[str] | None) -> int:
    args = parse(argv)
    try:
        status = runner(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # What is still buffered goes to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def main_seq(argv: Sequence[str] | None = None) -> int:
    return _dispatch(_parse_seq, cmd_seq, argv)


def main_verify(argv: Sequence[str] | None = None) -> int:
    return _dispatch(_verify_parser().parse_args, cmd_verify, argv)


def main_audit(argv: Sequence[str] | None = None) -> int:
    return _dispatch(_audit_parser().parse_args, cmd_audit, argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Root entry point with seq/verify/audit subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"seq": main_seq, "verify": main_verify, "audit": main_audit}
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: polyeuler {seq|verify|audit} ...", file=sys.stderr)
        return 0 if argv else 2
    runner = commands.get(argv[0])
    if runner is None:
        print(f"error: unknown command {argv[0]!r}; expected seq, verify or audit", file=sys.stderr)
        return 2
    return runner(argv[1:])

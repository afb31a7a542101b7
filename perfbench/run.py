"""polyeuler benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {seq-long,seq-deep,audit} \
        --seed N --seconds S --trace {0,1}

Workloads (see workloads.py for the request shapes):

- ``audit``: one ``polyaudit --order 10 --seed N`` run, cold at its start.
- ``seq-long``: seeded ``polyseq`` requests at n = 45-56, index depth <= 2.
- ``seq-deep``: seeded multi-index requests of depth 4-6 at n = 22-28.

Load comes from this single process, one workload at a time and one request
at a time (a closed loop with one client).  Each pass runs in a fresh
interpreter (worker.py); seq passes clear every package functools cache
before each request, because each polyseq call is a fresh process.

``--trace 0`` measures: ``setup_s`` (median of several fresh
``python -m polyeuler seq bernoulli --n=1`` processes), then a fixed number
of passes, ``round(seconds / NOMINAL_PASS_S)`` and at least one, so that
every run of a workload does the same work and has the same sample count.
Every time metric is in reference seconds (hostspeed.py): the speed of a
small shared host changes by up to half for stretches of 20 s and more, so
each stretch of a pass is scaled by the speed a fixed probe measured around
it.  The measured seconds are in the metadata line.
``--trace 1`` runs one untraced and one traced pass of pass 0 and reports
per-layer metrics from the traced one.

Every output is checked after the timed region: the audit verdict table and
exit status, digests recorded at the commit that defined the benchmark
(goldens.json) where the seed has them, and a seeded subsample of seq
requests recomputed with tests/oracles.py.  The last stdout line is the
JSON result; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from tracing import TRACED
from workloads import case_label

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
GOLDENS = BENCH_DIR / "goldens.json"

# Seconds one pass counts for when --seconds becomes a whole number of
# passes.  At 25 s: seq-long 5 passes (45 requests), seq-deep 4 (36 requests;
# a pass takes about 7 s on a 2-core x86-64 VM) and audit 1 (about 35 s).
NOMINAL_PASS_S = {"seq-long": 5.0, "seq-deep": 6.25, "audit": 45.0}
SETUP_REPEATS = 15
# Probes run before and after each setup call; their median gives its speed.
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 30
SETUP_EXPECTED = "0\t1\n1\t-1/2\n"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "coeffs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in BENCHMARK.json order."""
    units = {}

    def fns(layer, names, extra=()):
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        for name in extra:
            units[f"{layer}.{name}"] = "count"

    fns("exact", TRACED["exact"], ("egf_mul.terms", "egf_div.terms"))
    fns("polylog", TRACED["polylog"], ("multi_li.tuples",))
    units["polylog.cache.hit_ratio"] = "ratio"
    fns("polyfamily", TRACED["polyfamily"], ("lonesum.matrices",))
    units["polyfamily.cache.hit_ratio"] = "ratio"
    fns("multifamily", TRACED["multifamily"])
    units["multifamily.cache.hit_ratio"] = "ratio"
    fns("classical", TRACED["classical"])
    for label in workloads.EXPECTED_VERDICTS:
        units[f"audit.case.{label}.wall_s"] = "s"
        units[f"audit.case.{label}.grid_size"] = "count"
    units["audit.points_per_s"] = "1/s"
    units["cli.self_s"] = "s"
    units["cli.bytes_out"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class BenchmarkError(Exception):
    """The benchmark could not run (missing program, crashed worker)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_tree() -> None:
    for rel in ("src/polyeuler/__init__.py", "src/polyeuler/cli.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            raise BenchmarkError(f"{rel} is missing; run from a full checkout of the repository")


def _timed_probe() -> float:
    start = perf_counter()
    hostspeed.probe()
    return perf_counter() - start


def measure_setup(checker: "Checker") -> list[tuple[float, float]]:
    """(measured, reference) seconds per fresh-interpreter CLI call, each
    scaled by the median of the probes run just before and after it; outputs
    are checked."""
    samples = []
    argv = [sys.executable, "-m", "polyeuler", "seq", "bernoulli", "--n=1"]
    hostspeed.probe()  # warm-up
    for _ in range(SETUP_REPEATS):
        probes = [_timed_probe() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        proc = subprocess.run(
            argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        elapsed = perf_counter() - start
        probes += [_timed_probe() for _ in range(SETUP_PROBES)]
        samples.append((elapsed, elapsed * hostspeed.REF_PROBE_S / statistics.median(probes)))
        ok = proc.returncode == 0 and proc.stdout == SETUP_EXPECTED
        checker.output([] if ok else [f"setup call printed {proc.stdout!r}, exit {proc.returncode}"])
    return samples


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run_pass(spec: dict) -> dict:
    steal = _steal_s()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=json.dumps(spec),
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["steal_s"] = _steal_s() - steal
    return result


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> dict:
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text())
    return {"audit": {}, "seq": {}}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Checker:
    """Correctness of every output, counted against outputs attempted."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.goldens = load_goldens()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.observed: dict = {"audit": {}, "seq": {}}

    def output(self, problems: list[str]) -> bool:
        """Count one checked output; True when it has no problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.messages.extend(problems)
        return not problems

    def audit_pass(self, result: dict) -> None:
        problems = []
        if result["exit"] != 0:
            problems.append(f"polyaudit exited {result['exit']}")
        report = json.loads(result["report"])
        verdicts = {case_label(c["id"], c["variant"]): c["verdict"] for c in report["cases"]}
        if verdicts != workloads.EXPECTED_VERDICTS:
            problems.append(f"audit verdicts {verdicts} differ from the documented table")
        sha = digest(result["report"])
        key = f"--order={report['order']} --seed={report['seed']}"
        golden = self.goldens["audit"].get(key)
        if golden is not None and golden != sha:
            problems.append(f"audit report sha256 {sha} differs from golden {golden}")
        if self.output(problems):
            self.observed["audit"][key] = sha

    def check_pass(self, batch: list[dict], result: dict, oracle_picks=(), offset: int = 0):
        if "report" in result:
            self.audit_pass(result)
        else:
            self.seq_pass(batch, result, oracle_picks, offset)

    def seq_pass(self, requests: list[dict], result: dict, oracle_picks, offset: int):
        from reference import expected_values, parse_plain

        for i, (req, out) in enumerate(zip(requests, result["requests"])):
            key = workloads.request_key(req)
            problems = []
            if out["exit"] != 0:
                self.output([f"{key}: exit {out['exit']}"])
                continue
            if out["builder_misses"] < 1:
                problems.append(f"{key}: no builder cache miss; caches were warm or are gone")
            try:
                values = parse_plain(out["output"])
            except ValueError as exc:
                self.output(problems + [f"{key}: unparsable output ({exc})"])
                continue
            if len(values) != req["n"] + 1:
                problems.append(f"{key}: {len(values)} values for n={req['n']}")
            sha = digest(out["output"])
            golden = self.goldens["seq"].get(key)
            if golden is not None and golden != sha:
                problems.append(f"{key}: output sha256 differs from golden")
            if offset + i in oracle_picks and values != expected_values(req):
                problems.append(f"{key}: output differs from the tests/oracles.py reference")
            if self.output(problems):
                self.observed["seq"][key] = sha

    def write_observed(self, trace: int) -> None:
        path = OUT_DIR / f"digests-{self.workload}-seed{self.seed}-trace{trace}.json"
        path.write_text(json.dumps(self.observed, indent=1, sort_keys=True))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _host(results: list[dict]) -> dict:
    """Load averages before and after each pass, and CPU time stolen during it."""
    return {"loadavg": [r["loadavg"] for r in results], "steal_s": [r["steal_s"] for r in results]}


def _pass_spec(workload: str, seed: int, index: int) -> tuple[dict, list[dict]]:
    """Worker spec of one pass, and its seq requests (none for the audit)."""
    if workload == "audit":
        return {"kind": "audit", "seed": seed, "order": workloads.AUDIT_ORDER}, []
    batch = workloads.seq_pass(workload, seed, index)
    return {"kind": "seq", "requests": [workloads.to_argv(r) for r in batch]}, batch


def _pass_seed(workload: str, seed: int, index: int):
    """What pass ``index`` draws its values from."""
    return seed if workload == "audit" else f"{workload}:{seed}:{index}"


def _latencies(result: dict, prefix: str = "ref_") -> list[float]:
    if "report" in result:
        return [result[prefix + "wall_s"]]
    return [q[prefix + "latency_s"] for q in result["requests"]]


def _coefficients(result: dict) -> int:
    """Exact coefficients checked (audit grid points) or printed (seq)."""
    if "report" in result:
        return sum(c["grid_size"] for c in json.loads(result["report"])["cases"])
    return sum(len(q["output"].splitlines()) for q in result["requests"])


def run_untraced(workload: str, seed: int, seconds: int, checker: Checker, meta: dict) -> dict:
    setup_samples = measure_setup(checker)
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    specs = [_pass_spec(workload, seed, p) for p in range(passes)]
    results = [run_pass(spec) for spec, _ in specs]

    total = sum(len(batch) for _, batch in specs)
    picks = set(
        random.Random(f"oracle:{workload}:{seed}").sample(
            range(total), min(total, workloads.ORACLE_CHECKS.get(workload, 0))
        )
    )
    offset = 0
    for (_, batch), result in zip(specs, results):
        checker.check_pass(batch, result, picks, offset)
        offset += len(batch)

    walls = [r["ref_wall_s"] for r in results]
    latencies = [t for r in results for t in _latencies(r)]
    measured = [t for r in results for t in _latencies(r, "")]
    tail_value, tail_pct = tail(latencies)
    meta.update(
        passes=passes,
        pass_seeds=[_pass_seed(workload, seed, p) for p in range(passes)],
        setup_samples_s=[m for m, _ in setup_samples],
        setup_samples_ref_s=[r for _, r in setup_samples],
        pass_wall_s=[r["wall_s"] for r in results],
        pass_wall_ref_s=walls,
        probe_median_s=[r["probe_median_s"] for r in results],
        probes=[r["probes"] for r in results],
        measured={
            "setup_s": statistics.median(m for m, _ in setup_samples),
            "wall_s": statistics.fmean(r["wall_s"] for r in results),
            "latency_p50_s": statistics.median(measured),
            "latency_tail_s": tail(measured)[0],
        },
        **_host(results),
        latency_samples=len(latencies),
        tail_percentile=tail_pct,
        caches=results[0]["caches"],
    )
    values = {
        "setup_s": statistics.median(r for _, r in setup_samples),
        "wall_s": statistics.fmean(walls),
        "coeffs_per_s": sum(map(_coefficients, results)) / sum(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run_traced(workload: str, seed: int, checker: Checker, meta: dict) -> dict:
    spec, batch = _pass_spec(workload, seed, 0)
    plain = run_pass(spec)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.pkl"
    traced = run_pass({**spec, "traced": True, "spans_path": str(spans_path)})
    for result in (plain, traced):
        checker.check_pass(batch, result)
    trace = traced["trace"]
    wiring = []
    if trace["unwrapped"]:
        wiring.append(f"trace wrappers missing on {trace['unwrapped']}")
    silent = [name for name in workloads.EXPECTED_CALLS[workload] if not trace["calls"].get(name)]
    if silent:
        wiring.append(f"traced functions recorded no call on {workload}: {silent}")
    checker.output(wiring)

    values: dict[str, float] = {}
    for name in per_layer_units():
        layer_fn, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = trace["calls"].get(layer_fn, 0)
        elif field == "self_s":
            values[name] = trace["self_s"].get(layer_fn, 0.0)
        else:
            values[name] = trace["counts"].get(name, 0)
    for layer, ratio in traced["cache_hit_ratio"].items():
        values[f"{layer}.cache.hit_ratio"] = ratio
    case_wall = sum(v for k, v in trace["counts"].items() if k.endswith(".wall_s"))
    grid = sum(v for k, v in trace["counts"].items() if k.endswith(".grid_size"))
    values["audit.points_per_s"] = grid / case_wall if case_wall else 0.0
    values["cli.self_s"] = trace["self_s"].get("cli.main_seq", 0.0) + trace["self_s"].get(
        "cli.main_audit", 0.0
    )
    outputs = [traced["report"]] if "report" in traced else [q["output"] for q in traced["requests"]]
    values["cli.bytes_out"] = sum(len(text.encode()) for text in outputs)
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1

    self_s = trace["self_s"]
    meta.update(
        passes=1,
        pass_seeds=[_pass_seed(workload, seed, 0)],
        untraced_wall_s=plain["wall_s"],
        **_host([plain, traced]),
        spans=trace["spans"],
        spans_path=str(spans_path.relative_to(ROOT)),
        share_of_traced_wall={
            "exact.egf_compose+egf_mul": (self_s.get("exact.egf_compose", 0.0)
                                          + self_s.get("exact.egf_mul", 0.0)) / traced["wall_s"],
            "polylog.multi_li_series": self_s.get("polylog.multi_li_series", 0.0)
            / traced["wall_s"],
        },
    )
    return {name: _metric(values[name], unit) for name, unit in per_layer_units().items()}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_tree()
        OUT_DIR.mkdir(exist_ok=True)
        checker = Checker(args.workload, args.seed)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        }
        if args.trace:
            metrics = run_traced(args.workload, args.seed, checker, meta)
        else:
            metrics = run_untraced(args.workload, args.seed, args.seconds, checker, meta)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checker.write_observed(args.trace)
    meta["failed_frac"] = checker.failed / checker.attempted
    meta["failures"] = checker.messages[:20]
    for message in checker.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

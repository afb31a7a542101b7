"""Alternating pairs of benchmark runs, base commit against this tree.

Usage (from the repository root):

    python3 tools/bench_pairs.py --label NAME [--base COMMIT] \
        [--workload W ...] [--seed 0]

For each workload (default: every workload in BENCHMARK.json) it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
unchanged, with T the ``run_seconds`` of BENCHMARK.json, ten times in a
checkout of the base commit (default HEAD) and ten times in this working
tree.  The workload ``limit`` is not perfbench's: one run of it is each
request of ``tests/at_limit.json`` as a fresh ``python -m polyeuler seq``
process, from one bytecode-free copy of the checkout's ``src/`` per run
(``run_limit``).  The base checkout is the
commit's files extracted by ``git archive`` into a temporary directory,
so it needs no network and leaves nothing in the repository.  Pair i runs
the base first when i is even and the tree first when it is odd, so a
drift of the host's speed favours neither side.

It writes ``BENCH_<NAME>.json`` at the repository root: both commits, every
run's metrics and ``correct`` flag, and per end-to-end metric each side's
median and quartiles, the number of pairs the tree won (ties count for
neither side), whether a gain may be claimed (``gain_rule_met``) and
whether the tree stays inside the metric's bound (``within_bound``).
``resolved`` is false when the quartile spread of either side exceeds the
bound times the base median, unless every tree run is better than every
base run: such a metric is too noisy for ``within_bound`` to show it
unchanged.
One run that is not correct, or that fails, marks the whole file
``"correct": false`` and the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from measure import package_copy, run_fresh

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "tree")
PAIRS = 10
# A gain is claimed only if the tree wins at least this share of the pairs
# (9 of 10) and its median gain exceeds the base's quartile spread.
GAIN_SHARE = 0.9
# The workload of the polyseq requests at the CLI limits, which no perfbench
# workload runs, and the table of their stdout digests that tier 1 pins.
LIMIT = "limit"
LIMIT_TABLE = ROOT / "tests" / "at_limit.json"
LIMIT_COMMAND = "python3 -m polyeuler seq REQUEST, a fresh process per row of tests/at_limit.json"


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run.py run in ``checkout``: its result line, with the
    meta line's ``src_sha256`` and the host probe's median per pass.  A run
    that exits nonzero or prints no result is a run that is not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each checkout runs its own src/ (run.py puts it first on the path).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-2000:]}
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {
        "correct": result["correct"] is True,
        "metrics": metrics,
        "src_sha256": meta["src_sha256"],
        "probe_median_s": meta["probe_median_s"],
    }


def run_request(copy: Path, request: str) -> tuple[bytes, float]:
    """``python3 -m polyeuler seq <request>`` as ``measure.run_fresh`` runs it
    from ``copy``, so that both sides compile alike: its stdout (empty if
    it exits nonzero) and its CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_fresh([sys.executable, "-m", "polyeuler", "seq", *request.split()], copy, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return (b"" if proc.returncode else proc.stdout), cpu


def run_limit(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the limit workload on one ``package_copy`` of ``checkout``'s
    own ``src/``.  It is correct only if every stdout hashes to the digest in
    this tree's table, so a base from before a change meets the same pins."""
    metrics, correct = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        copy = package_copy(checkout / "src", Path(tmp))
        for request, row in json.loads(LIMIT_TABLE.read_text()).items():
            stdout, metrics[f"cpu_s {request}"] = run_request(copy, request)
            correct &= hashlib.sha256(stdout).hexdigest() == row["sha256"]
    return {"correct": correct, "metrics": {**metrics, "cpu_s": sum(metrics.values())}}


def run_workload(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """``run_limit`` for the limit workload, ``run_benchmark`` for the others."""
    return (run_limit if workload == LIMIT else run_benchmark)(checkout, workload, seed, seconds)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], declared: dict[str, dict]) -> dict:
    """Per metric named in ``declared``, whose entry gives its ``better``
    ("lower" or "higher") and its ``bound``: each side's median and
    quartiles, the pairs the tree won and the two rules a change is judged
    by.  ``gain_rule_met``: the tree won at least ``GAIN_SHARE`` of the
    pairs and its median gain exceeds the base's quartile spread.
    ``within_bound``: the tree's median is worse than the base's by no more
    than ``bound`` times the base median.  ``resolved``: the quartile spread
    of each side is at most ``bound`` times the base median, or every tree
    run is better than every base run; an unresolved metric is too noisy
    for ``within_bound`` to read it as unchanged."""
    sides = {(run["pair"], run["side"]): run["metrics"] for run in runs}
    pairs = sorted({run["pair"] for run in runs})
    out = {}
    for name, entry in declared.items():
        values = {side: [sides[p, side].get(name) for p in pairs] for side in SIDES}
        if None in values["base"] or None in values["tree"]:
            continue
        direction = entry["better"]
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (t - b) > 0 for b, t in zip(values["base"], values["tree"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        base_median = stats["base"]["median"]
        spread, tree_spread = (stats[side]["q3"] - stats[side]["q1"] for side in SIDES)
        gain = sign * (stats["tree"]["median"] - base_median)
        separated = all(sign * (t - b) > 0 for t in values["tree"] for b in values["base"])
        out[name] = {
            "better": direction,
            "bound": entry["bound"],
            **stats,
            "pairs": len(pairs),
            "pairs_won": won,
            "median_gain_beyond_base_spread": gain > spread,
            "gain_rule_met": won >= GAIN_SHARE * len(pairs) and gain > spread,
            "within_bound": -gain <= entry["bound"] * abs(base_median),
            "resolved": max(spread, tree_spread) <= entry["bound"] * abs(base_median) or separated,
        }
    return out


def run_pairs(runner, checkouts: dict, workloads: list[str], pairs: int, seed: int,
              seconds: int, declared: dict[str, dict]) -> dict:
    """Every run in pairing order and the summary per workload, under one
    ``correct`` flag that a single run not correct makes false."""
    report = {}
    for workload in workloads:
        runs = []
        for pair in range(pairs):
            for side in pair_order(pair):
                result = runner(checkouts[side], workload, seed, seconds)
                runs.append({"pair": pair, "side": side, **result})
                print(f"{workload} pair {pair} {side}: correct={result['correct']}", file=sys.stderr)
        report[workload] = {"runs": runs, "metrics": summarize(runs, declared)}
    correct = all(run["correct"] for w in report.values() for run in w["runs"])
    return {"correct": correct, "workloads": report}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def _dirty(status: str) -> bool:
    """Whether ``git status --porcelain`` lists a changed tracked file or
    an untracked file under ``src/``.  An untracked ``BENCH_*.json`` from
    an earlier run does not count."""
    return any(not line.startswith("?? ") or line[3:].startswith("src/") for line in status.splitlines())


def _extract(commit: str, into: Path) -> None:
    """The files of ``commit`` in ``into``, by ``git archive``."""
    archive = into / "base.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=fh, check=True)
    # The "data" filter, where this Python has it, refuses links out of the tree.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(into / "base", **safe)
    archive.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric for metric in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    if LIMIT in workloads:
        # Each request's CPU and their sum; CPU drifts with the host as
        # wall_s does, so they take its bound.
        names = [f"cpu_s {request}" for request in json.loads(LIMIT_TABLE.read_text())]
        limit = {"better": "lower", "bound": end_to_end["wall_s"]["bound"]}
        end_to_end.update(dict.fromkeys([*names, "cpu_s"], limit))
    seconds = declared["run_seconds"]
    base = _git("rev-parse", args.base).strip()
    with tempfile.TemporaryDirectory() as tmp:
        _extract(base, Path(tmp))
        checkouts = {"base": Path(tmp) / "base", "tree": ROOT}
        report = run_pairs(run_workload, checkouts, workloads, PAIRS, args.seed, seconds, end_to_end)
    tree = {"commit": _git("rev-parse", "HEAD").strip(), "dirty": _dirty(_git("status", "--porcelain"))}
    command = f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0"
    out = {
        "label": args.label,
        "base": {"commit": base},
        "tree": tree,
        # The command of each kind of workload that ran.
        **({"command": command} if set(workloads) - {LIMIT} else {}),
        **({"limit_command": LIMIT_COMMAND} if LIMIT in workloads else {}),
        "pairs": PAIRS,
        **report,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

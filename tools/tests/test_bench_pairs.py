"""Tests of bench_pairs.py with a fake runner: python3 -m pytest tools/tests"""

import hashlib
import json
from pathlib import Path

import pytest

import bench_pairs
from bench_pairs import pair_order, quartiles, run_pairs, summarize

DECLARED = {
    "wall_s": {"better": "lower", "bound": 0.24},
    "coeffs_per_s": {"better": "higher", "bound": 0.24},
}
WALL = {"wall_s": DECLARED["wall_s"]}
CHECKOUTS = {"base": Path("base"), "tree": Path("tree")}


class FakeRunner:
    """Records each call and the run length it was given; each side reads
    its metrics off a table by run index, and a run listed in ``faulty``
    reads ``correct: false``."""

    def __init__(self, values=None, faulty=()):
        self.calls = []
        self.seconds = set()
        self.values = values or {}
        self.faulty = set(faulty)

    def __call__(self, checkout, workload, seed, seconds):
        side = "base" if checkout.name == "base" else "tree"
        index = sum(1 for c in self.calls if c[:2] == (workload, side))
        self.calls.append((workload, side))
        self.seconds.add(seconds)
        metrics = {name: table[side][index] for name, table in self.values.items()}
        return {"correct": (workload, side, index) not in self.faulty, "metrics": metrics}


def _run(runner, workloads=("seq-deep",), pairs=4):
    return run_pairs(runner, CHECKOUTS, list(workloads), pairs, 0, 25, DECLARED)


def test_pairs_alternate_which_side_runs_first():
    runner = FakeRunner()
    _run(runner, ("seq-deep", "audit"), pairs=3)
    order = ["base", "tree", "tree", "base", "base", "tree"]
    assert runner.calls == [("seq-deep", s) for s in order] + [("audit", s) for s in order]
    assert [pair_order(i) for i in range(3)] == [("base", "tree"), ("tree", "base"), ("base", "tree")]


def test_every_run_is_kept_with_its_pair_and_side():
    report = _run(FakeRunner({"wall_s": {"base": [1, 2, 3, 4], "tree": [5, 6, 7, 8]}}))
    runs = report["workloads"]["seq-deep"]["runs"]
    assert [(r["pair"], r["side"], r["metrics"]["wall_s"]) for r in runs] == [
        (0, "base", 1), (0, "tree", 5), (1, "tree", 6), (1, "base", 2),
        (2, "base", 3), (2, "tree", 7), (3, "tree", 8), (3, "base", 4),
    ]


def test_quartiles_of_ten_values():
    assert quartiles([float(v) for v in range(1, 11)]) == {"q1": 2.75, "median": 5.5, "q3": 8.25}


def test_pairs_won_follow_the_metric_direction_and_ties_count_for_neither():
    values = {
        "wall_s": {"base": [1.0, 1.0, 1.0, 1.0], "tree": [0.5, 1.0, 2.0, 0.9]},
        "coeffs_per_s": {"base": [10, 10, 10, 10], "tree": [11, 10, 9, 12]},
    }
    stats = _run(FakeRunner(values))["workloads"]["seq-deep"]["metrics"]
    assert stats["wall_s"]["pairs_won"] == 2
    assert stats["coeffs_per_s"]["pairs_won"] == 2
    assert stats["wall_s"]["pairs"] == 4
    assert stats["wall_s"]["better"] == "lower"


def _pairs(values):
    return [
        {"pair": p, "side": side, "metrics": {"wall_s": value}}
        for p, (b, t) in enumerate(values)
        for side, value in (("base", b), ("tree", t))
    ]


def test_a_gain_must_exceed_the_base_spread():
    """Base 0.8-1.2 has quartiles 0.85 and 1.175, a spread of 0.325: a tree
    median 0.275 lower wins 3 of 4 pairs but not beyond the spread, and one
    0.4 lower does."""
    narrow = summarize(_pairs([(1.0, 0.7), (1.2, 0.8), (0.8, 0.9), (1.1, 0.75)]), WALL)
    stats = narrow["wall_s"]
    assert stats["base"] == pytest.approx({"q1": 0.85, "median": 1.05, "q3": 1.175})
    assert stats["tree"]["median"] == pytest.approx(0.775)
    assert (stats["pairs_won"], stats["median_gain_beyond_base_spread"]) == (3, False)
    wide = summarize(_pairs([(1.0, 0.6), (1.2, 0.7), (0.8, 0.65), (1.1, 0.6)]), WALL)
    assert (wide["wall_s"]["pairs_won"], wide["wall_s"]["median_gain_beyond_base_spread"]) == (4, True)
    # The same runs read the other way round: no pair won and no gain.
    higher = summarize(
        _pairs([(1.0, 0.6), (1.2, 0.7), (0.8, 0.65), (1.1, 0.6)]), {"wall_s": {"better": "higher", "bound": 0.24}}
    )
    assert (higher["wall_s"]["pairs_won"], higher["wall_s"]["median_gain_beyond_base_spread"]) == (0, False)


def _rules(values, better="lower", bound=0.24):
    stats = summarize(_pairs(values), {"wall_s": {"better": better, "bound": bound}})["wall_s"]
    return stats["pairs_won"], stats["gain_rule_met"], stats["within_bound"]


# Ten base runs 0.95-1.05: quartiles 0.9675 and 1.0325, a spread of 0.065.
BASE = [0.95, 0.96, 0.97, 0.98, 0.99, 1.01, 1.02, 1.03, 1.04, 1.05]


def test_a_met_gain_wins_nine_of_ten_pairs_beyond_the_spread():
    tree = [0.9] * 9 + [1.1]
    assert _rules(list(zip(BASE, tree))) == (9, True, True)


def test_a_gain_that_wins_eight_pairs_is_not_met():
    """The median gain of 0.1 exceeds the spread, but only 8 of 10 pairs won."""
    tree = [0.9] * 8 + [1.1] * 2
    assert _rules(list(zip(BASE, tree))) == (8, False, True)


def test_a_tie_meets_no_gain_and_stays_within_the_bound():
    assert _rules([(v, v) for v in BASE]) == (0, False, True)


def test_a_higher_is_better_metric_past_its_bound():
    """A rate whose tree median is 30% below the base's is worse by more
    than a bound of 24%, and 20% below is inside it."""
    base = [100 * v for v in BASE]
    assert _rules([(b, 0.7 * b) for b in base], better="higher") == (0, False, False)
    assert _rules([(b, 0.8 * b) for b in base], better="higher") == (0, False, True)
    # The same drop read as lower-is-better is a gain.
    assert _rules([(b, 0.7 * b) for b in base], better="lower") == (10, True, True)


def _resolved(values, better="lower", bound=0.24):
    return summarize(_pairs(values), {"wall_s": {"better": better, "bound": bound}})["wall_s"]["resolved"]


def test_a_spread_inside_the_bound_is_resolved():
    """BASE's spread, 0.065, is 6.5% of its median 1.0: inside a 24% bound,
    whichever way the tree reads."""
    assert _resolved([(v, v) for v in BASE]) is True
    assert _resolved([(v, 1.5 * v) for v in BASE]) is True


def test_a_spread_past_the_bound_is_not_resolved():
    """The same runs under a 5% bound: the spread exceeds it, so a level
    tree, or one whose runs mix with the base's, cannot be told apart."""
    assert _resolved([(v, v) for v in BASE], bound=0.05) is False
    assert _resolved(list(zip(BASE, [0.9] * 9 + [1.1])), bound=0.05) is False


def test_a_noisy_tree_beside_a_quiet_base_is_not_resolved():
    """BASE's spread is 6.5% of its median, but a tree of 0.6-1.5 spreads
    over 55% of it, past a 24% bound: its median cannot show the metric
    unchanged."""
    noisy = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    assert _resolved(list(zip(BASE, noisy))) is False
    assert _resolved(list(zip(BASE, noisy)), better="higher") is False


def test_a_noisy_metric_that_every_tree_run_beats_is_resolved():
    """A base of 1-2 has a spread of 0.65 on a median of 1.5, past a 24%
    bound; every tree run better than every base run resolves it, read
    beside ``better``."""
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9, 2.0]
    lower = [0.5 + 0.04 * i for i in range(10)]
    assert _resolved(list(zip(base, lower))) is True
    assert _resolved(list(zip(base, lower)), better="higher") is False
    assert _resolved(list(zip(base, [2.1] * 10)), better="higher") is True
    # One tree run that ties the best base run leaves it unresolved.
    assert _resolved(list(zip(base, lower[:-1] + [1.0]))) is False


def test_a_metric_missing_from_a_run_is_not_summarized():
    report = _run(FakeRunner({"wall_s": {"base": [1] * 4, "tree": [1] * 4}}))
    assert set(report["workloads"]["seq-deep"]["metrics"]) == {"wall_s"}


def _declare(tmp_path, workloads):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 7, "workloads": [{"name": w} for w in workloads],
                    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24}]})
    )


def test_one_run_not_correct_fails_the_whole_file(monkeypatch, tmp_path):
    _declare(tmp_path, ("seq-deep", "audit"))
    runner = FakeRunner({"wall_s": {"base": [1] * 10, "tree": [1] * 10}}, faulty={("audit", "tree", 1)})
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_benchmark", runner)
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: (into / "base").mkdir())
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "" if args[0] == "status" else "abc\n")
    assert bench_pairs.main(["--label", "fake"]) == 1
    written = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert written["correct"] is False
    assert written["base"] == {"commit": "abc"}
    assert written["tree"] == {"commit": "abc", "dirty": False}
    runs = [r for w in written["workloads"].values() for r in w["runs"]]
    assert len(runs) == 40 and sum(not r["correct"] for r in runs) == 1


def test_main_runs_ten_pairs_of_the_declared_length(monkeypatch, tmp_path):
    _declare(tmp_path, ("seq-deep",))
    runner = FakeRunner({"wall_s": {"base": [2] * 10, "tree": [1] * 10}})
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_benchmark", runner)
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: (into / "base").mkdir())
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc\n")
    assert bench_pairs.main(["--label", "fake"]) == 0
    written = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert written["correct"] is True
    assert written["tree"]["dirty"] is True
    assert (runner.seconds, written["pairs"]) == ({7}, 10)
    assert "--seconds 7 " in written["command"]
    wall = written["workloads"]["seq-deep"]["metrics"]["wall_s"]
    assert (wall["pairs_won"], wall["bound"], wall["gain_rule_met"], wall["within_bound"]) == (10, 0.24, True, True)
    assert wall["resolved"] is True


@pytest.mark.parametrize(
    "status, dirty",
    [("?? BENCH_earlier.json\n", False), ("?? BENCH_earlier.json\n?? src/polyeuler/new.py\n", True)],
    ids=["untracked-bench-file", "untracked-source-file"],
)
def test_only_untracked_files_under_src_mark_the_tree_dirty(monkeypatch, tmp_path, status, dirty):
    _declare(tmp_path, ("seq-deep",))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_benchmark", FakeRunner({"wall_s": {"base": [1] * 10, "tree": [1] * 10}}))
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: (into / "base").mkdir())
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: status if args[0] == "status" else "abc\n")
    assert bench_pairs.main(["--label", "fake"]) == 0
    assert json.loads((tmp_path / "BENCH_fake.json").read_text())["tree"]["dirty"] is dirty


def _fake_run_py(checkout, body):
    script = checkout / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text("import json, sys\n" + body)


def test_run_benchmark_reads_the_meta_and_result_lines(tmp_path):
    meta = {"meta": {"src_sha256": "abc", "probe_median_s": [0.0035]}}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    _fake_run_py(tmp_path, f"print('noise')\nprint(json.dumps({meta!r}))\nprint(json.dumps({result!r}))\n")
    assert bench_pairs.run_benchmark(tmp_path, "seq-deep", 0, 25) == {
        "correct": True,
        "metrics": {"wall_s": 1.5},
        "src_sha256": "abc",
        "probe_median_s": [0.0035],
    }


def test_a_run_that_exits_nonzero_is_not_correct(tmp_path):
    _fake_run_py(tmp_path, "print('error: boom', file=sys.stderr)\nsys.exit(1)\n")
    out = bench_pairs.run_benchmark(tmp_path, "seq-deep", 0, 25)
    assert (out["correct"], out["metrics"], out["error"]) == (False, {}, "error: boom")


def _limit_table(tmp_path, requests):
    """A table of the given requests in ``tmp_path``, each pinned to the
    sha256 of the request's own text and a newline."""
    table = {r: {"sha256": hashlib.sha256(f"{r}\n".encode()).hexdigest(), "recorded": "here"} for r in requests}
    path = tmp_path / "at_limit.json"
    path.write_text(json.dumps(table))
    return path


class FakeRequests:
    """Echoes each request and takes 0.5 s of CPU on the base, 0.4 s in the
    tree; the call listed in ``wrong``, as (side, request, index), prints
    other bytes.  Its fake copier records each ``src/`` it is asked to copy
    and hands it back as the copy."""

    def __init__(self, wrong=()):
        self.calls = []
        self.copies = []
        self.wrong = set(wrong)

    def copy(self, src, into):
        self.copies.append(src)
        return src

    def __call__(self, copy, request):
        side = "base" if copy.parent.name == "base" else "tree"
        index = sum(1 for c in self.calls if c == (side, request))
        self.calls.append((side, request))
        stdout = b"0\t1\n" if (side, request, index) in self.wrong else f"{request}\n".encode()
        return stdout, 0.5 if side == "base" else 0.4


def _limit_main(monkeypatch, tmp_path, requests):
    _declare(tmp_path, ("seq-deep",))
    table = _limit_table(tmp_path, ("poly-euler --k=16 --n=200", "bernoulli --n=200"))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "LIMIT_TABLE", table)
    monkeypatch.setattr(bench_pairs, "run_request", requests)
    monkeypatch.setattr(bench_pairs, "package_copy", requests.copy)
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: (into / "base").mkdir())
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "" if args[0] == "status" else "abc\n")
    code = bench_pairs.main(["--label", "fake", "--workload", "limit"])
    return code, json.loads((tmp_path / "BENCH_fake.json").read_text())


def test_the_limit_workload_times_each_request_and_their_sum(monkeypatch, tmp_path):
    """Ten pairs of one fresh process per request, on each side's own src/;
    each request's CPU and their sum, under wall_s's bound."""
    requests = FakeRequests()
    code, written = _limit_main(monkeypatch, tmp_path, requests)
    assert code == 0 and written["correct"] is True
    assert written["limit_command"] == bench_pairs.LIMIT_COMMAND and "command" not in written
    assert list(written["workloads"]) == ["limit"]
    assert [side for side, _ in requests.calls[:4]] == ["base", "base", "tree", "tree"]
    assert len(requests.calls) == 40
    # One copy of each checkout's own src/ per run, not one per request.
    sides = ["base" if src.parent.name == "base" else "tree" for src in requests.copies]
    assert sides == [side for pair in range(10) for side in pair_order(pair)]
    assert {src for src in requests.copies if src.parent.name != "base"} == {tmp_path / "src"}
    metrics = written["workloads"]["limit"]["metrics"]
    assert sorted(metrics) == ["cpu_s", "cpu_s bernoulli --n=200", "cpu_s poly-euler --k=16 --n=200"]
    total = metrics["cpu_s"]
    assert (total["base"]["median"], total["tree"]["median"]) == pytest.approx((1.0, 0.8))
    assert [total[k] for k in ("bound", "pairs_won", "gain_rule_met", "within_bound")] == [0.24, 10, True, True]


def test_a_wrong_digest_fails_the_limit_file(monkeypatch, tmp_path):
    """One request of one run that prints other bytes makes its run, and the
    whole file, not correct, and the exit status 1."""
    code, written = _limit_main(monkeypatch, tmp_path, FakeRequests(wrong={("tree", "bernoulli --n=200", 3)}))
    assert code == 1 and written["correct"] is False
    runs = written["workloads"]["limit"]["runs"]
    assert [(r["pair"], r["side"]) for r in runs if not r["correct"]] == [(3, "tree")]


def test_the_default_workloads_leave_out_the_limit_workload(monkeypatch, tmp_path):
    _declare(tmp_path, ("seq-deep", "audit"))
    runner = FakeRunner({"wall_s": {"base": [1] * 10, "tree": [1] * 10}})
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_benchmark", runner)
    monkeypatch.setattr(bench_pairs, "run_request", lambda src, request: pytest.fail(request))
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: (into / "base").mkdir())
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc\n")
    assert bench_pairs.main(["--label", "fake"]) == 0
    written = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert list(written["workloads"]) == ["seq-deep", "audit"] and "limit_command" not in written


def test_run_request_runs_a_fresh_process_from_a_copy_without_bytecode(tmp_path):
    """The request's arguments reach the package's own __main__, in the
    copy of ``src/``, which sees no __pycache__ beside it and writes none."""
    package = tmp_path / "src" / "polyeuler"
    (package / "__pycache__").mkdir(parents=True)
    (package / "__main__.py").write_text(
        "import os, sys\n"
        "here = os.path.dirname(__file__)\n"
        "print(*sys.argv[1:], os.path.isdir(os.path.join(here, '__pycache__')), sys.dont_write_bytecode)\n"
    )
    copy = bench_pairs.package_copy(tmp_path / "src", tmp_path / "copy")
    stdout, cpu = bench_pairs.run_request(copy, "poly-euler --k=16 --n=200")
    assert stdout == b"seq poly-euler --k=16 --n=200 False True\n"
    assert cpu > 0
    (copy / "polyeuler" / "__main__.py").write_text("import sys\nprint('partial')\nsys.exit(1)\n")
    assert bench_pairs.run_request(copy, "bernoulli --n=1")[0] == b""

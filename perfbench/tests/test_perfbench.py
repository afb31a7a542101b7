"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import hostspeed
import run
import workloads
from reference import expected_values, parse_plain
from run import ROOT, per_layer_units, run_pass, tail

# Work counts must not depend on timing; times and ratios may.
EXACT_SUFFIXES = (".calls", ".terms", ".tuples", ".matrices", ".grid_size")


def _small(requests, n=10):
    return [{**req, "n": n} for req in requests]


def _traced_twice(spec, tmp_path):
    results = []
    for i in range(2):
        out = run_pass({**spec, "traced": True, "spans_path": str(tmp_path / f"spans{i}.pkl")})
        results.append(out)
    return results


def _work_counts(result):
    trace = result["trace"]
    counts = {f"{name}.calls": calls for name, calls in trace["calls"].items()}
    counts.update(trace["counts"])
    return {k: v for k, v in counts.items() if k.endswith(EXACT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["seq-long", "seq-deep"])
def test_seq_work_counts_repeat_and_wiring(workload, tmp_path):
    batch = _small(workloads.seq_pass(workload, 3, 0))
    spec = {"kind": "seq", "requests": [workloads.to_argv(r) for r in batch]}
    first, second = _traced_twice(spec, tmp_path)
    assert _work_counts(first) == _work_counts(second)
    assert first["trace"]["unwrapped"] == []
    for name in workloads.EXPECTED_CALLS[workload]:
        assert first["trace"]["calls"].get(name, 0) > 0, name
    # Cold start: every request builds its family from an empty cache.
    assert all(q["builder_misses"] >= 1 for q in first["requests"])
    with open(tmp_path / "spans0.pkl", "rb") as fh:
        spans = pickle.load(fh)
    assert len(set(spans["request"])) == len(batch)


def test_audit_work_counts_repeat_and_wiring(tmp_path):
    spec = {"kind": "audit", "seed": 5, "order": 4}
    first, second = _traced_twice(spec, tmp_path)
    counts = _work_counts(first)
    assert counts == _work_counts(second)
    assert counts["polyfamily.lonesum.matrices"] > 0
    assert len([k for k in counts if k.startswith("audit.case.")]) == len(
        workloads.EXPECTED_VERDICTS
    )
    assert first["trace"]["unwrapped"] == []
    for name in workloads.EXPECTED_CALLS["audit"]:
        assert first["trace"]["calls"].get(name, 0) > 0, name


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_requests_are_seeded_and_keep_their_shapes():
    for workload, shapes in workloads.SEQ_SHAPES.items():
        a = workloads.seq_pass(workload, 7, 1)
        assert a == workloads.seq_pass(workload, 7, 1)
        assert a != workloads.seq_pass(workload, 8, 1)
        for req, (family, n, depth) in zip(a, shapes):
            assert (req["family"], req["n"]) == (family, n)
            assert len(req.get("ks", [0])) == depth


def test_argv_writes_values_in_equals_form():
    negative = 0
    for seed in range(20):
        for workload in workloads.SEQ_SHAPES:
            for req in workloads.seq_pass(workload, seed, 0):
                argv = workloads.to_argv(req)
                assert all(arg.startswith("--") and "=" in arg for arg in argv[1:])
                negative += sum(Fraction(req[k]) < 0 for k in ("x", "alpha", "beta") if k in req)
    assert negative > 0


@pytest.mark.parametrize(
    "req",
    [
        {"family": "poly-bernoulli", "n": 8, "k": 2, "x": "-3/7"},
        {"family": "poly-euler", "n": 8, "k": -2, "x": "5/3"},
        {"family": "poly-euler-sasaki", "n": 8, "k": 3},
        {"family": "multi-poly-euler", "n": 8, "ks": [1, -1], "x": "1/2",
         "alpha": "-7/3", "beta": "5/2"},
        {"family": "multi-poly-euler", "n": 8, "ks": [2, 0, 1, -2]},
        {"family": "multi-poly-bernoulli", "n": 8, "ks": [1, 3, -1, 2]},
        {"family": "poly-euler-abc", "n": 8, "k": 2, "x": "-1/3", "alpha": "3/5",
         "beta": "2/7", "gamma": "4/3"},
    ],
)
def test_reference_agrees_with_the_package(req):
    proc = subprocess.run(
        [sys.executable, "-m", "polyeuler", "seq", *workloads.to_argv(req)],
        env=run._child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert parse_plain(proc.stdout) == expected_values(req)


def test_reference_seconds_scale_by_nearby_probes_and_skip_them():
    speed = hostspeed.SpeedProbe()
    ref = hostspeed.REF_PROBE_S
    # 20 probes of ref seconds, then 20 of 2 * ref seconds (a host at half speed).
    starts = [float(t) for t in range(20)] + [float(t) for t in range(100, 120)]
    speed.spans = [(t, t + (ref if t < 100 else 2 * ref)) for t in starts]
    measured, reference = speed.seconds(0.0, 2.0 + ref)
    assert measured == pytest.approx(2.0 - 2 * ref)
    assert reference == pytest.approx(measured)
    measured, reference = speed.seconds(110.0, 116.0)
    assert measured == pytest.approx(6.0 - 12 * ref)
    assert reference == pytest.approx(measured / 2)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    assert tail(samples) == (29.0, 75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload=seq-long", "--seed=0",
         "--seconds=1", "--trace=0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

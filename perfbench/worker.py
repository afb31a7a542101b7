"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py < spec.json

The spec is a JSON object: ``{"kind": "seq", "requests": [[argv...], ...]}``
or ``{"kind": "audit", "seed": s, "order": n}``, plus ``"traced": bool`` and
``"spans_path"`` (where a traced pass writes its spans).  The pass prints
one JSON object on stdout.  Seq requests run in process through
``polyeuler.cli.main_seq`` and every package functools cache is cleared
before each one, since each polyseq call is a fresh process.  An audit pass
keeps its caches for the whole run, as polyaudit does.  An untraced pass
also runs the host-speed probe (hostspeed.py) and reports each time twice:
in measured seconds and, as ``ref_*``, in reference seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import polyeuler  # noqa: E402
import polyeuler.audit  # noqa: E402,F401
import polyeuler.cli  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402
from tracing import CACHE_LAYERS, CacheStats, Tracer, package_caches  # noqa: E402


def _call(main, argv):
    """Run one CLI entry point; return (exit code, stdout text, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = main(argv)
        end = perf_counter()
    return code, out.getvalue(), start, end


def _seq_pass(requests, stats: CacheStats) -> dict:
    results = []
    start = perf_counter()
    for argv in requests:
        stats.collect_and_clear()
        code, text, t0, t1 = _call(polyeuler.cli.main_seq, argv)
        results.append(
            {
                "exit": code,
                "span": (t0, t1),
                "output": text,
                "builder_misses": stats.builder_misses(),
            }
        )
    end = perf_counter()
    stats.collect_and_clear()
    return {"requests": results, "span": (start, end)}


def _audit_pass(seed: int, order: int, stats: CacheStats) -> dict:
    stats.collect_and_clear()
    code, text, start, end = _call(
        polyeuler.cli.main_audit, [f"--order={order}", f"--seed={seed}"]
    )
    stats.collect_and_clear()
    return {"exit": code, "report": text, "span": (start, end)}


def _convert(item: dict, name: str, speed: SpeedProbe | None) -> None:
    """Replace ``item["span"]`` by ``name`` in measured seconds and, with a
    probe, ``ref_<name>`` in reference seconds."""
    start, end = item.pop("span")
    if speed is None:
        item[name] = end - start
    else:
        item[name], item[f"ref_{name}"] = speed.seconds(start, end)


def run(spec: dict) -> dict:
    stats = CacheStats(package_caches())
    tracer = speed = None
    if spec.get("traced"):
        tracer = Tracer()
        tracer.install()
    else:
        speed = SpeedProbe()
    load_before = os.getloadavg()
    if speed is not None:
        speed.start()
    if spec["kind"] == "seq":
        result = _seq_pass(spec["requests"], stats)
    else:
        result = _audit_pass(spec["seed"], spec["order"], stats)
    if speed is not None:
        speed.stop()
        result["probe_median_s"] = speed.median_probe_s()
        result["probes"] = len(speed.spans)
    _convert(result, "wall_s", speed)
    for request in result.get("requests", ()):
        _convert(request, "latency_s", speed)
    result["loadavg"] = [load_before, os.getloadavg()]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cache_hit_ratio"] = {layer: stats.hit_ratio(layer) for layer in CACHE_LAYERS}
    result["caches"] = [f"{layer}.{attr}" for layer, attr, _ in stats.caches]
    if tracer is not None:
        result["trace"] = {
            "calls": tracer.calls(),
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
            "unwrapped": tracer.unwrapped_bindings(),
            "spans": len(tracer.start),
        }
        tracer.dump(spec["spans_path"])
    return result


def main() -> int:
    result = run(json.load(sys.stdin))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

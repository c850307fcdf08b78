"""Batch-evaluation throughput: engine loop vs the batch kernels.

Times the same 10 000-target ``target_sweep`` two ways — the per-target
event-engine loop and the dependency-free batch kernels — and writes
the targets/sec numbers to ``BENCH_batch.json``.  The assertion is the acceptance bar of the
batch subsystem: the pure kernels must clear the engine loop by at
least 5x.

Runs standalone (no pytest plugins required)::

    PYTHONPATH=src python benchmarks/bench_batch.py

or as plain pytest tests (``pytest benchmarks/bench_batch.py``); the
timing helpers use ``time.perf_counter`` directly so the file works in
the bare CI venv where ``pytest-benchmark`` is absent.
"""

import json
import math
import os
import time

from repro.batch import BatchEvaluator
from repro.robots import Fleet
from repro.schedule import ProportionalAlgorithm
from repro.simulation.sweep import geometric_grid, target_sweep

#: The acceptance bar: pure batch vs the per-target engine loop.
MIN_PURE_SPEEDUP = 5.0

TARGET_COUNT = 10_000

OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_batch.json")


def make_grid(count=TARGET_COUNT):
    """A symmetric geometric grid of ``count`` targets."""
    half = geometric_grid(1.0, 100.0, count // 2)
    return half + [-x for x in half]


def time_call(fn, repeats=3):
    """Best-of-``repeats`` wall time of ``fn()`` (seconds)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(count=TARGET_COUNT, repeats=3):
    """Time both paths over one grid; return the report dict."""
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
    targets = make_grid(count)

    timings = {}
    timings["engine_loop"] = time_call(
        lambda: target_sweep(fleet, 1, targets, method="event"), repeats
    )

    # Compiled outside the timed region: the steady-state cost of a
    # sweep, not the one-off compile.
    evaluator = BatchEvaluator(fleet, fault_budget=1)
    evaluator.search_times(targets[:2])
    timings["pure_batch"] = time_call(
        lambda: evaluator.search_times(targets), repeats
    )

    report = {
        "format": "linesearch-bench-batch",
        "version": 1,
        "targets": len(targets),
        "repeats": repeats,
        "seconds": timings,
        "targets_per_second": {
            k: len(targets) / v for k, v in timings.items()
        },
        "speedup_vs_engine": {
            k: timings["engine_loop"] / v
            for k, v in timings.items()
            if k != "engine_loop"
        },
    }
    return report


def write_report(report, path=OUTPUT):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def test_bench_batch_speedup():
    """Pure batch clears the engine loop by the acceptance factor."""
    report = run_benchmark()
    write_report(report)
    speedup = report["speedup_vs_engine"]["pure_batch"]
    assert speedup >= MIN_PURE_SPEEDUP, (
        f"pure batch only {speedup:.1f}x over the engine loop "
        f"(need >= {MIN_PURE_SPEEDUP}x); see {OUTPUT}"
    )


def test_bench_batch_agreement():
    """The timed paths compute the same profile (spot check)."""
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
    targets = make_grid(200)
    event = target_sweep(fleet, 1, targets, method="event")
    batch = target_sweep(fleet, 1, targets, method="batch")
    for a, b in zip(event.samples, batch.samples):
        assert abs(a.detection_time - b.detection_time) <= 1e-9 * (
            1.0 + abs(a.detection_time)
        )


def main():
    report = run_benchmark()
    path = write_report(report)
    for name, seconds in sorted(report["seconds"].items()):
        rate = report["targets_per_second"][name]
        speedup = report["speedup_vs_engine"].get(name)
        extra = f"  ({speedup:.1f}x engine)" if speedup else ""
        print(f"{name:>12}: {seconds:.4f}s  {rate:,.0f} targets/s{extra}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""End-to-end benchmark: ratio sweeps, crash/event campaigns, served jobs.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 2016 [--workload NAME]
        [--seconds S] [--trace 0|1]

Each workload runs in a fresh ``workloads.py`` process; see README.md
for the workloads, the metrics and how to compare two commits.
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) sizes a fixed
amount of work, the work of that many seconds on the reference machine;
no run stops on a clock, so faster code does no extra work.

Every metric is printed by name with its unit.  The last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics, joined with ``--trace 1`` by the per-layer
metrics of a second, traced run (spans written to
``.bench_build/e2e/traces/<workload>.trace.jsonl``).  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from workloads import BUILD_DIR, REFERENCES, SETUP_SAMPLES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
#: What one unit of each workload is, for the printed table.
UNITS = {
    "sweep": ("targets/s", "one round of 9 regime profiles"),
    "campaign_crash": ("scenarios/s", "one campaign"),
    "campaign_event": ("scenarios/s", "one campaign"),
    "serve": ("writer scenarios/s", "one block of 10 writer jobs"),
}


class WorkloadFailed(RuntimeError):
    """A workload process exited non-zero or printed no result."""


def spawn(workload: str, args, extra: List[str]
          ) -> Tuple[Optional[float], Optional[Dict[str, Any]]]:
    """Run one workload process; returns (spawn→ready seconds, result)."""
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    started = time.perf_counter()
    process = subprocess.Popen(
        command + extra, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        text=True,
    )
    ready = None
    last = ""
    for line in process.stdout:
        line = line.strip()
        if line == "ready" and ready is None:
            ready = time.perf_counter() - started
        elif line:
            last = line
    process.stdout.close()
    code = process.wait()
    if code != 0:
        raise WorkloadFailed(f"{workload} exited with code {code}")
    result = json.loads(last) if last.startswith("{") else None
    if result is None and "--setup-only" not in extra:
        raise WorkloadFailed(f"{workload} printed no result")
    return ready, result


def measure(workload: str, args) -> Dict[str, Any]:
    """The untraced run and its set-up samples (``serve`` times its
    server's set-up itself), then the traced run when ``--trace 1``.

    Each set-up is scaled to the reference machine by the workload's
    reference job, timed just before its spawn and just after it.
    """
    if workload == "serve":
        _, result = spawn(workload, args, [])
    else:
        reference = REFERENCES[workload]
        setups, walls = [], []
        for _ in range(SETUP_SAMPLES):
            before = reference.time_ms()
            ready, _ = spawn(workload, args, ["--setup-only"])
            walls.append(ready)
            setups.append(ready * reference.scale(before, reference.time_ms()))
        _, result = spawn(workload, args, [])
        result["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
        result["diagnostics"]["wall_setup_s"] = statistics.median(walls)
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{workload}.trace.jsonl")
        _, traced = spawn(workload, args, ["--trace-out", path])
        traced["trace_path"] = path
        result["traced"] = traced
    return result


def check_digest(workload: str, result: Dict[str, Any], args
                 ) -> Tuple[str, bool]:
    """Compare the digest of every campaign report of the run with the
    one committed for the same seed and number of campaigns."""
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)
    if args.seed != expected["seed"]:
        return f"not checked (digests committed for seed {expected['seed']})", True
    units = result["units"]
    wanted = expected["report_sha256"].get(workload, {}).get(str(units))
    if wanted is None:
        return f"not checked (no digest committed for {units} campaigns)", True
    if result["report_sha256"] == wanted:
        return "matches the committed digest", True
    return f"MISMATCH: committed {wanted}", False


def report(workload: str, result: Dict[str, Any], spec: Dict[str, Any],
           args) -> Tuple[Dict[str, Dict[str, Any]], int, int]:
    """Print one workload's numbers; returns (metrics, attempted, failed)
    with the metric names and units ``BENCHMARK.json`` lists."""
    rate, unit = UNITS[workload]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}  seed {args.seed}  "
          f"{result['units']} units, {result['items']} {result['noun']}s ==")
    samples = ", ".join(f"{s:.4f}" for s in result["setup_samples"])
    notes = {
        "setup_s": f"median of {samples}",
        "throughput": rate,
        "unit_p50_ms": f"{unit}, {result['units']} samples",
    }
    metrics = {}
    for entry in spec["end_to_end"]:
        name, unit_name = entry["name"], entry["unit"]
        value = result[name]
        metrics[name] = {"value": value, "unit": unit_name}
        print(f"  {name:<22} {value:>14.6g} {unit_name:<6} "
              f"{notes.get(name, '')}")
    if result["report_sha256"] is not None:
        verdict, ok = check_digest(workload, result, args)
        attempted += 1
        failed += 0 if ok else 1
        print(f"  report_sha256  {result['report_sha256']}  {verdict}")
    print(f"  inputs_sha256  {result['inputs_sha256']}")
    for name, value in result["diagnostics"].items():
        print(f"  [diagnostic] {name:<18} {value:.6g}")
    print(f"  fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")

    traced = result.get("traced")
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        split = layers.pop("job_split_ms", None)
        layers["trace.overhead"] = (
            result["throughput"] / traced["throughput"] - 1.0
        )
        print(f"  per-layer (traced run, {traced['trace_path']}):")
        for entry in spec["per_layer"]:
            name, unit_name = entry["name"], entry["unit"]
            metrics[name] = {"value": layers[name], "unit": unit_name}
            print(f"    {name:<36} {layers[name]:>14.6g} {unit_name}")
        for size, parts in sorted((split or {}).items(),
                                  key=lambda kv: int(kv[0])):
            print(f"    job of {size} scenario(s), mean of {parts['jobs']}:")
            for name, ms in sorted(parts.items(), key=lambda kv: -kv[1]):
                if name != "jobs":
                    print(f"      {name:<28} {ms:>10.3f} ms")
    print(f"  failed_share {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} operations)")
    return metrics, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="size of the fixed work: what that many "
                             "seconds run on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced, add per-layer metrics")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="committed report digests (JSON)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workloads
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = measure(name, args)
            found, tried, bad = report(name, result, spec, args)
            attempted += tried
            failed += bad
            prefix = "" if args.workload else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

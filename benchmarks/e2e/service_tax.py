"""The BENCH_service "service tax", timed two ways and split by layer.

Submits ``benchmarks/bench_service.py``'s 16-scenario payload to a
``linesearch serve`` child process ``--repeats`` times (a fresh grid seed
each time, so no scenario is served from the cache), alternating two
ways of waiting for the result:

* ``ServiceClient.wait``, which polls the job every 50 ms;
* the ``/v1/jobs/<id>/events`` stream, read until its ``done`` event.

Then it repeats the stream-timed submissions against a traced server
(``traced_serve.py``) and prints the mean per-layer split of one job.
Run from the repository root::

    PYTHONPATH=src python3 benchmarks/e2e/service_tax.py [--repeats 20]
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

from workloads import BUILD_DIR, Server, http_json, run_job, serve_layers

PAYLOAD = {
    "pairs": [[3, 1], [4, 2]],
    "targets": [1.0, -1.5, 2.5, -4.0],
    "faults": ["none", "crash_stop"],
}


def specs_for(seed: int):
    """The payload's grid, expanded exactly as the server expands it."""
    from repro.service.protocol import parse_submission

    submission = parse_submission(dict(PAYLOAD, seed=seed))
    return [spec.to_dict() for spec in submission.specs]


def polled(port: int, specs) -> float:
    from repro.service.client import ServiceClient

    started = time.perf_counter()
    _, body = http_json(port, "POST", "/v1/campaigns",
                        {"specs": specs, "client": "tax"})
    ServiceClient(f"http://127.0.0.1:{port}").wait(body["job_id"])
    return time.perf_counter() - started


def direct(specs) -> float:
    from repro.robustness import build_scenario, run_campaign
    from repro.robustness.campaign import ScenarioSpec

    started = time.perf_counter()
    run_campaign([build_scenario(ScenarioSpec.from_dict(s)) for s in specs])
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    os.makedirs(BUILD_DIR, exist_ok=True)
    base = tempfile.mkdtemp(prefix="tax-", dir=BUILD_DIR)
    try:
        server = Server(os.path.join(base, "plain"))
        times = {"direct": [], "poll": [], "stream": []}
        try:
            for i in range(args.repeats):
                for way in (("poll", "stream") if i % 2 else ("stream", "poll")):
                    specs = specs_for(2026 + 2 * i + (way == "poll"))
                    times["direct"].append(direct(specs))
                    if way == "poll":
                        times["poll"].append(polled(server.port, specs))
                    else:
                        times["stream"].append(
                            run_job(server.port, specs, "tax").seconds
                        )
        finally:
            server.stop()

        trace = os.path.join(base, "serve.trace.jsonl")
        server = Server(os.path.join(base, "traced"), trace_out=trace)
        jobs = []
        try:
            window_start = time.perf_counter()
            for i in range(args.repeats):
                jobs.append(run_job(server.port, specs_for(4026 + i), "tax"))
        finally:
            server.stop()
        split = serve_layers(trace, window_start, jobs)["job_split_ms"]
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"16-scenario payload, {args.repeats} submissions per way "
          f"(median ms):")
    for way, samples in times.items():
        print(f"  {way:<8} {1e3 * statistics.median(samples):8.2f}")
    print("stream-timed job on the traced server, mean ms per layer:")
    for name, ms in sorted(split["16"].items(), key=lambda kv: -kv[1]):
        if name != "jobs":
            print(f"  {name:<28} {ms:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The end-to-end benchmark's workloads, one per process.

``run.py`` starts this file once per workload run::

    python workloads.py NAME --seed N --seconds S [--trace-out PATH]
                        [--setup-only]

``--seconds`` sizes the work: a run does a fixed number of units, the
work of ``S`` seconds on the reference machine (:func:`units_for`), and
never stops on a clock.  The process prints ``ready`` when its set-up is
over (imports, input generation, one warm-up unit), then one JSON line
with the raw measurements.  With ``--setup-only`` it exits after
``ready``; ``run.py`` times the spawn-to-``ready`` interval of several
such processes.

Every input is generated here from ``--seed``; the program only ever
sees the generated inputs, through public ``repro`` APIs called with
their default arguments (the library workloads) or over HTTP against a
``linesearch serve`` child process (``serve``).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from shim import Shim, layer_metrics, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Working space inside the checkout (state dirs, traces); git-ignored.
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")

#: Units of a ``FULL_SECONDS`` run: 20 sweep rounds, 60 crash and 80
#: event campaigns, 45 blocks of 10 served jobs.  The library ones take
#: about 9 s of scaled time; ``serve`` gets more, its spread being the
#: widest (README, "Recorded measurements").
FULL_UNITS = {"sweep": 20, "campaign_crash": 60, "campaign_event": 80,
              "serve": 45}
FULL_SECONDS = 10.0
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

SWEEP_REGIMES = [(2, 1), (3, 1), (4, 2), (5, 2), (5, 3), (6, 2), (7, 3),
                 (9, 4), (11, 5)]
SWEEP_TARGETS = 2000
CRASH_PAIRS = [(3, 1), (4, 2), (5, 2), (7, 3)]
CRASH_FAULTS = ["none", "adversarial", "fixed", "random"]
CRASH_TARGETS = 60
EVENT_PAIRS = [(3, 1), (5, 2), (7, 3)]
EVENT_TARGETS = 6
#: (fault kinds, chaos_scenarios options): 13 scenarios per (pair,
#: target), one sub-grid per execution path.  Probabilistic faults stay
#: out of the scheduled-time modes: their cost there is heavy-tailed in
#: the detection draws, which no seed-to-seed comparison survives.
EVENT_SUBGRIDS = [
    (["crash_stop", "byzantine", "probabilistic"], {}),
    (["crash_stop", "byzantine", "probabilistic"],
     {"protocol": "confirmation"}),
    (["crash_stop", "byzantine"], {"mode": "event:adversarial:1.0"}),
    (["crash_stop", "byzantine"],
     {"protocol": "confirmation", "mode": "event:async:0.5"}),
    (["probabilistic"], {"variant": "halfline"}),
    (["crash_stop"], {"variant": "halfline", "mode": "event:adversarial:1.0"}),
    (["byzantine"], {"variant": "evacuation"}),
]

SERVE_POOL = 64
SERVE_READ_RATE = 100.0
#: One block of writer jobs: 60% single scenarios, 30% of 16, 10% of 128.
SERVE_BLOCK = [1] * 6 + [16] * 3 + [128]
HOST = "127.0.0.1"
RATIO_SLACK = 1.0 + 1e-9


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def derive(seed: int, *parts: Any) -> int:
    """A 64-bit seed for one named part of the inputs."""
    digest = hashlib.sha256(repr((seed,) + parts).encode("utf-8"))
    return int(digest.hexdigest()[:16], 16)


def stratified_targets(rng: random.Random, count: int, lo: float,
                       hi: float) -> List[float]:
    """``count`` targets with ``|x|`` log-stratified over ``[lo, hi]``
    and random signs: one draw per stratum keeps the work per unit
    nearly the same for every seed."""
    targets = []
    for i in range(count):
        u = (i + rng.random()) / count
        targets.append(rng.choice((-1.0, 1.0)) * lo * (hi / lo) ** u)
    rng.shuffle(targets)
    return targets


class _Leg:
    """One straight leg of the reference job's zig-zag robots."""

    __slots__ = ("start", "end", "time")

    def __init__(self, start: float, end: float, time_: float):
        self.start, self.end, self.time = start, end, time_

    def first_visit(self, x: float) -> Optional[float]:
        lo, hi = sorted((self.start, self.end))
        return self.time + abs(x - self.start) if lo <= x <= hi else None


def _zigzag(base: float, delay: float) -> List[_Leg]:
    legs, clock, position = [], delay, 0.0
    for turn in range(24):
        apex = (-base) ** turn
        legs.append(_Leg(position, apex, clock))
        clock += abs(apex - position)
        position = apex
    return legs


#: The reference job's fixed input: 5 zig-zag robots, 400 targets.
_REFERENCE_FLEET = [_zigzag(2.0 + 0.1 * i, 0.5 * i) for i in range(5)]
_REFERENCE_TARGETS = [
    (-1.0) ** i * 10 ** (3 * (i * 0.6180339887 % 1.0)) for i in range(400)
]


def _first_visit(legs: List[_Leg], x: float) -> Optional[float]:
    for leg in legs:
        visit = leg.first_visit(x)
        if visit is not None:
            return visit
    return None


def _engine_part() -> None:
    """For each of 400 targets, the third distinct visit of 5 zig-zag
    robots built from small objects, through method calls, generators
    and a sort: a small model of the engine's per-target work."""
    total = 0.0
    for x in _REFERENCE_TARGETS:
        visits = sorted(
            t for t in (_first_visit(legs, x) for legs in _REFERENCE_FLEET)
            if t is not None
        )
        total += visits[min(2, len(visits) - 1)] / abs(x)


_BOOKKEEPING_KEYS = random.Random(0).sample(range(1 << 30), 5000)


def _bookkeeping_part() -> None:
    """Integer arithmetic, a sort and dict inserts: a small model of
    building scenarios and reports.  Small data, so ``peak_rss_mb``
    barely sees it."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    for _ in range(4):
        table = {}
        for key in sorted(_BOOKKEEPING_KEYS):
            table[key] = [key]


class Reference:
    """A fixed pure-Python job that measures the machine's speed.

    Other tenants of a shared machine move its speed over seconds, and
    every workload moves with it: on the reference machine it switches
    between levels up to 1.8 times apart.  Timed between every two steps
    of the timed work (each sweep regime, each campaign, each block of
    served jobs) and around each set-up, the job measures that speed:
    each gated time is its wall time times :meth:`scale` of the
    reference times on its two sides, so it reads as a time on the
    reference machine at its fast level.  No job of the program runs
    meanwhile, and the collector is off, so neither the program's work
    nor the heap it leaves behind can change it.

    A job only corrects a workload that slows down by as much as the
    job does, so each workload's job is made of the parts of work it
    resembles (README, "Times on the reference machine").
    """

    #: Median wall time of each part at the reference machine's fast level.
    PART_MS = {"engine": 4.0, "bookkeeping": 6.0}
    _PARTS = {"engine": _engine_part, "bookkeeping": _bookkeeping_part}

    def __init__(self, *parts: str):
        self.parts = [self._PARTS[name] for name in parts]
        self.ms = sum(self.PART_MS[name] for name in parts)

    def time_ms(self) -> float:
        """Wall time of one run of the job, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for part in self.parts:
                part()
            return 1e3 * (time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def scale(self, before: float, after: float) -> float:
        """Factor from a wall time to a reference-machine time, given the
        job's times just before and just after it."""
        return 2.0 * self.ms / (before + after)


#: Sweeps are the engine's per-target loop; campaigns and served jobs
#: add scenario building, dispatch and reports around the engine.
REFERENCES = {
    "sweep": Reference("engine"),
    "campaign_crash": Reference("engine", "bookkeeping"),
    "campaign_event": Reference("engine", "bookkeeping"),
    "serve": Reference("engine", "bookkeeping"),
}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------

class Sweep:
    """One unit = one round over the 9 regimes; per regime,
    ``target_sweep`` over 2000 targets, then ``measure_competitive_ratio``."""

    name = "sweep"
    noun = "target"
    fleets_per_unit = len(SWEEP_REGIMES)

    def inputs(self, seed: int, index: int) -> List[Dict[str, Any]]:
        rng = random.Random(derive(seed, self.name, index))
        return [
            {"n": n, "f": f,
             "targets": stratified_targets(rng, SWEEP_TARGETS, 1.0, 1e3)}
            for n, f in SWEEP_REGIMES
        ]

    def steps(self, inputs) -> List[Callable[[], Any]]:
        """One step per regime, so each is scaled by its own speed."""
        return [functools.partial(self.regime, regime) for regime in inputs]

    @staticmethod
    def regime(regime):
        import repro.simulation as simulation
        from repro.robots.fleet import Fleet
        from repro.schedule import algorithm_for

        # algorithm_for is the regime rule `linesearch ratio` applies
        algorithm = algorithm_for(regime["n"], regime["f"])
        profile = simulation.target_sweep(
            Fleet.from_algorithm(algorithm), regime["f"], regime["targets"],
        )
        estimate = simulation.measure_competitive_ratio(algorithm)
        return algorithm, profile, estimate

    def check(self, inputs, outputs) -> Tuple[int, int, int, str]:
        failed = 0
        for algorithm, profile, estimate in outputs:
            cr = algorithm.theoretical_competitive_ratio()
            ok = (
                estimate.matches(cr)
                and profile.supremum.ratio <= cr * RATIO_SLACK
            )
            failed += 0 if ok else 1
        targets = sum(len(regime["targets"]) for regime in inputs)
        return targets, len(outputs), failed, ""


class Campaign:
    """A workload whose unit is one campaign, timed as one step."""

    noun = "scenario"

    def steps(self, inputs) -> List[Callable[[], Any]]:
        return [functools.partial(self.run, inputs)]


class CampaignCrash(Campaign):
    """One unit = one 960-scenario crash-fault campaign, invariants off
    (the ``linesearch chaos --no-invariants`` path)."""

    name = "campaign_crash"
    fleets_per_unit = len(CRASH_PAIRS)

    def inputs(self, seed: int, index: int) -> Dict[str, Any]:
        rng = random.Random(derive(seed, self.name, index))
        return {
            "targets": stratified_targets(rng, CRASH_TARGETS, 1.0, 1e3),
            "seed": rng.randrange(2**32),
        }

    @staticmethod
    def run(inputs):
        import repro.robustness as robustness

        return robustness.run_campaign(
            robustness.chaos_scenarios(
                CRASH_PAIRS, inputs["targets"], CRASH_FAULTS,
                seed=inputs["seed"],
            ),
            check_invariants=False,
        )

    def check(self, inputs, outputs) -> Tuple[int, int, int, str]:
        from repro.schedule import algorithm_for

        (report,) = outputs
        bounds = {
            pair: algorithm_for(*pair).theoretical_competitive_ratio()
            for pair in CRASH_PAIRS
        }
        failed = 0
        for result in report.results:
            spec = result.spec
            ok = result.ok
            if ok and spec.fault == "adversarial":
                ratio = result.competitive_ratio
                ok = ratio is not None and (
                    1.0 <= ratio <= bounds[(spec.n, spec.f)] * RATIO_SLACK
                )
            failed += 0 if ok else 1
        return report.total, report.total, failed, report.to_json()


class CampaignEvent(Campaign):
    """One unit = one 234-scenario campaign over every event-level
    execution path, with the invariant audit on (the CLI default)."""

    name = "campaign_event"
    fleets_per_unit = len(EVENT_PAIRS)

    def inputs(self, seed: int, index: int) -> Dict[str, Any]:
        rng = random.Random(derive(seed, self.name, index))
        return {
            "targets": stratified_targets(rng, EVENT_TARGETS, 1.0, 8.0),
            "seeds": [rng.randrange(2**32) for _ in EVENT_SUBGRIDS],
        }

    @staticmethod
    def run(inputs):
        import repro.robustness as robustness

        scenarios = []
        for (faults, options), seed in zip(EVENT_SUBGRIDS, inputs["seeds"]):
            scenarios += robustness.chaos_scenarios(
                EVENT_PAIRS, inputs["targets"], faults, seed=seed, **options
            )
        return robustness.run_campaign(scenarios)

    def check(self, inputs, outputs) -> Tuple[int, int, int, str]:
        (report,) = outputs
        return report.total, report.total, report.failed, report.to_json()


LIBRARY = {w.name: w for w in (Sweep(), CampaignCrash(), CampaignEvent())}


def units_for(name: str, seconds: float) -> int:
    """The fixed number of units a ``seconds`` run of ``name`` does."""
    return max(1, round(FULL_UNITS[name] * seconds / FULL_SECONDS))


def inputs_sha256(name: str, seed: int, seconds: float) -> str:
    """Digest of every input of a ``seconds`` run of ``name``; for
    ``serve``, the read pool and every job block."""
    units = range(units_for(name, seconds))
    if name == "serve":
        inputs: Any = [serve_pool(seed)] + [job_block(seed, b) for b in units]
    else:
        inputs = [LIBRARY[name].inputs(seed, i) for i in units]
    return hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_library(workload, args) -> Optional[Dict[str, Any]]:
    shim = None
    if args.trace_out:
        shim = Shim().install()
    warm = workload.inputs(args.seed, -1)
    workload.check(warm, [step() for step in workload.steps(warm)])
    print("ready", flush=True)
    if args.setup_only:
        return None
    if shim is not None:
        shim.tracer.drain()

    wall_s: List[float] = []
    unit_ms: List[float] = []  # scaled to the reference machine
    reference = REFERENCES[workload.name]
    references = [reference.time_ms()]
    rates: List[float] = []
    items = attempted = failed = 0
    report_digest = hashlib.sha256()
    units = units_for(workload.name, args.seconds)
    for index in range(units):
        inputs = workload.inputs(args.seed, index)
        outputs = []
        wall_s.append(0.0)
        unit_ms.append(0.0)
        for step in workload.steps(inputs):
            t0 = time.perf_counter()
            outputs.append(step())
            seconds = time.perf_counter() - t0
            references.append(reference.time_ms())
            wall_s[-1] += seconds
            unit_ms[-1] += 1e3 * seconds * reference.scale(*references[-2:])
        count, tried, bad, report = workload.check(inputs, outputs)
        items += count
        attempted += tried
        failed += bad
        report_digest.update(report.encode("utf-8"))
        rates.append(1e3 * count / unit_ms[-1])

    work_s = sum(wall_s)
    wall_ms = [1e3 * s for s in wall_s]
    result = {
        "workload": workload.name,
        "units": units,
        "items": items,
        "noun": workload.noun,
        "throughput": statistics.median(rates),
        "unit_p50_ms": percentile(unit_ms, 50),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "inputs_sha256": inputs_sha256(workload.name, args.seed, args.seconds),
        "report_sha256": (
            report_digest.hexdigest() if workload.noun == "scenario" else None
        ),
        "diagnostics": {
            "reference_ms": statistics.median(references),
            "wall_throughput": items / work_s,
            "wall_unit_p50_ms": percentile(wall_ms, 50),
            "wall_unit_p90_ms": percentile(wall_ms, 90),
            "work_s": work_s,
        },
        "fingerprint": fingerprint(BUILD_DIR),
    }
    if shim is not None:
        records = shim.tracer.records()
        shim.uninstall()
        shim.write(args.trace_out, metadata={"workload": workload.name})
        result["layers"] = layer_metrics(
            records,
            scenarios=items if workload.noun == "scenario" else 0,
            fleets=units * workload.fleets_per_unit,
            wall_s=work_s,
        )
    return result


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def http_request(port: int, method: str, path: str, body: Any = None,
                 timeout: float = 120.0) -> Tuple[int, bytes]:
    """One request on its own connection, as ``ServiceClient`` does.

    The body comes back unparsed: responses read inside the timed window
    are parsed after it, so the load generator's own JSON work never
    competes with the requests it times.
    """
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_json(port: int, method: str, path: str, body: Any = None
              ) -> Tuple[int, Any]:
    status, raw = http_request(port, method, path, body)
    return status, json.loads(raw)


def wait_done(port: int, job_id: str, timeout: float = 300.0) -> None:
    """Follow ``/v1/jobs/<id>/events`` until its ``done`` event (or the
    end of the stream)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        for line in iter(response.readline, b""):
            if json.loads(line).get("event") == "done":
                return
    finally:
        conn.close()


class Job(NamedTuple):
    """One writer job as the client saw it."""

    specs: List[Dict[str, Any]]
    job_id: Optional[str]
    envelope: Optional[bytes]  # the raw result body, parsed after timing
    latency: float  # submit → ``done`` seen, seconds
    fetch: float  # ``GET /result``, seconds

    @property
    def seconds(self) -> float:
        return self.latency + self.fetch


def run_job(port: int, specs: List[Dict[str, Any]], client: str) -> Job:
    """Submit, follow the event stream to ``done``, fetch the result."""
    started = time.perf_counter()
    status, body = http_json(
        port, "POST", "/v1/campaigns", {"specs": specs, "client": client}
    )
    if status != 202:
        return Job(specs, None, None, time.perf_counter() - started, 0.0)
    job_id = body["job_id"]
    wait_done(port, job_id)
    done = time.perf_counter()
    status, envelope = http_request(port, "GET", f"/v1/jobs/{job_id}/result")
    return Job(specs, job_id, envelope if status == 200 else None,
               done - started, time.perf_counter() - done)


class Server:
    """A ``linesearch serve`` child process on a fresh state dir."""

    def __init__(self, state_dir: str, trace_out: Optional[str] = None):
        os.makedirs(state_dir)
        port_file = os.path.join(state_dir, "port")
        serve = ["serve", "--state-dir", state_dir, "--port", "0",
                 "--port-file", port_file]
        if trace_out:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       trace_out] + serve
        else:
            command = [sys.executable, "-m", "repro.cli"] + serve
        self._log = open(os.path.join(state_dir, "server.log"), "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.port = self._wait_ready(port_file)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, port_file: str, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}"
                )
            if os.path.exists(port_file):
                with open(port_file, encoding="utf-8") as handle:
                    port = int(handle.read())
                try:
                    status, _ = http_json(port, "GET", "/v1/readyz")
                except OSError:
                    status = None
                if status == 200:
                    return port
            time.sleep(0.002)
        raise RuntimeError("server not ready within 60 s")

    def stop(self) -> int:
        """SIGTERM (a graceful drain), then wait; kill after 60 s."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def serve_specs(rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """Crash-fault line specs with fresh seeds, so none is cached."""
    specs = []
    for _ in range(count):
        n, f = rng.choice(CRASH_PAIRS)
        specs.append({
            "n": n, "f": f,
            "target": rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(0.0, 2.0),
            "fault": rng.choice(CRASH_FAULTS),
            "seed": rng.randrange(2**32),
        })
    return specs


def serve_pool(seed: int) -> List[Dict[str, Any]]:
    """The read pool: specs warmed into the cache before timing."""
    rng = random.Random(derive(seed, "serve.pool"))
    return serve_specs(rng, SERVE_POOL)


def job_block(seed: int, block: int) -> List[List[Dict[str, Any]]]:
    rng = random.Random(derive(seed, "serve.block", block))
    sizes = list(SERVE_BLOCK)
    rng.shuffle(sizes)
    return [serve_specs(rng, size) for size in sizes]


class Read(NamedTuple):
    """One cached read as the client saw it (``perf_counter`` times)."""

    due: float
    sent: float
    done: float
    index: int  # into the pool
    status: Optional[int]
    body: Optional[bytes]


def reader(port: int, pool: List[Dict[str, Any]], seed: int,
           stop: threading.Event, out: List[Read]) -> None:
    """Open loop: Poisson arrivals of cached single-scenario reads,
    each timed from the moment it was due."""
    rng = random.Random(derive(seed, "serve.reads"))
    due = time.perf_counter()
    while not stop.is_set():
        due += rng.expovariate(SERVE_READ_RATE)
        index = rng.randrange(len(pool))
        delay = due - time.perf_counter()
        if delay > 0 and stop.wait(delay):
            return
        sent = time.perf_counter()
        try:
            status, body = http_request(
                port, "POST", "/v1/scenarios",
                {"spec": pool[index], "client": "reader"},
            )
        except (OSError, http.client.HTTPException):
            status, body = None, None
        out.append(Read(due, sent, time.perf_counter(), index, status, body))


def run_serve(args) -> Dict[str, Any]:
    from repro.robustness import build_scenario, run_campaign
    from repro.robustness.campaign import ScenarioSpec

    os.makedirs(BUILD_DIR, exist_ok=True)
    base = tempfile.mkdtemp(prefix="serve-", dir=BUILD_DIR)
    reference = REFERENCES["serve"]
    server = None
    try:
        # set-up: median of SETUP_SAMPLES spawn→ready starts, each scaled
        # to the reference machine; the last server is kept
        setups, wall_setups = [], []
        starts = 1 if args.trace_out else SETUP_SAMPLES
        for k in range(starts):
            before = reference.time_ms()
            server = Server(
                os.path.join(base, f"state-{k}"),
                trace_out=args.trace_out if k == starts - 1 else None,
            )
            wall_setups.append(server.setup_s)
            setups.append(server.setup_s
                          * reference.scale(before, reference.time_ms()))
            if k < starts - 1:
                server.stop()
        port = server.port

        pool = serve_pool(args.seed)
        warm = run_job(port, pool, "warm")
        expected = json.loads(warm.envelope)["report"]["results"]
        print("ready", flush=True)

        reads: List[Read] = []
        stop = threading.Event()
        thread = threading.Thread(
            target=reader, args=(port, pool, args.seed, stop, reads),
            name="reader",
        )
        jobs: List[Job] = []

        def speed() -> Tuple[float, float, float]:
            """(start, end, ms) of one reference job."""
            started = time.perf_counter()
            ms = reference.time_ms()
            return started, time.perf_counter(), ms

        # the writer times the reference job before the first block and
        # after each block, while the server has no job to run and only
        # answers reads
        speeds = [speed()]
        window_start = time.perf_counter()
        thread.start()
        try:
            for block in range(units_for("serve", args.seconds)):
                jobs += [run_job(port, specs, "writer")
                         for specs in job_block(args.seed, block)]
                speeds.append(speed())
            window_s = time.perf_counter() - window_start
        finally:
            stop.set()
            thread.join(timeout=60)
        code = server.stop()
        server_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        server = None

        # correctness: every job equals a direct run of its specs, every
        # cached read equals its pool result
        failed_jobs = 0
        for job in jobs:
            envelope = json.loads(job.envelope) if job.envelope else {}
            ok = envelope.get("state") == "done"
            if ok:
                direct = run_campaign([
                    build_scenario(ScenarioSpec.from_dict(s))
                    for s in job.specs
                ])
                ok = envelope["report"] == json.loads(
                    json.dumps(direct.to_dict())
                )
            failed_jobs += 0 if ok else 1
        failed_reads = 0
        for read in reads:
            body = json.loads(read.body) if read.status == 200 else {}
            ok = body.get("cached") and (
                body.get("result") == expected[read.index]
            )
            failed_reads += 0 if ok else 1
        # the reader waits for the interpreter lock while the writer times
        # the reference job, so reads that overlap one are left out of
        # the read percentiles (they are still checked and counted)
        starts = [start for start, _, _ in speeds]
        wall_read_ms = [
            1e3 * (read.done - read.due) for read in reads
            if speeds[bisect.bisect_right(starts, read.done) - 1][1] < read.due
        ]
        late_ms = [1e3 * (read.sent - read.due) for read in reads]
        # every job scaled by the reference times on the two sides of
        # its block
        by_size: Dict[int, List[float]] = {}
        wall_by_size: Dict[int, List[float]] = {}
        block_ms = [0.0] * (len(speeds) - 1)
        for index, job in enumerate(jobs):
            block = index // len(SERVE_BLOCK)
            ms = 1e3 * job.seconds
            scaled = ms * reference.scale(speeds[block][2], speeds[block + 1][2])
            wall_by_size.setdefault(len(job.specs), []).append(ms)
            by_size.setdefault(len(job.specs), []).append(scaled)
            block_ms[block] += scaled
        scenarios = sum(len(job.specs) for job in jobs)
        result = {
            "workload": "serve",
            "units": len(block_ms),
            "items": scenarios,
            "noun": "scenario",
            "setup_s": statistics.median(setups),
            "setup_samples": setups,
            # a block of jobs at the median latency of each job size: a
            # stall (a slow fsync, a collection) hits a few jobs and
            # moves no median
            "throughput": 1e3 * sum(SERVE_BLOCK) / sum(
                percentile(by_size[size], 50) for size in SERVE_BLOCK
            ),
            "unit_p50_ms": percentile(block_ms, 50),
            "peak_rss_mb": server_rss,
            # reads, jobs, and the server's clean exit on SIGTERM
            "attempted": len(reads) + len(jobs) + 1,
            "failed": failed_reads + failed_jobs + (code != 0),
            "inputs_sha256": inputs_sha256("serve", args.seed, args.seconds),
            "report_sha256": None,
            "diagnostics": {
                "reads": len(reads),
                "timed_reads": len(wall_read_ms),
                "jobs": len(jobs),
                "reference_ms": statistics.median(ms for _, _, ms in speeds),
                "wall_setup_s": statistics.median(wall_setups),
                "wall_read_p50_ms": percentile(wall_read_ms, 50),
                "wall_read_p90_ms": percentile(wall_read_ms, 90),
                "wall_read_p99_ms": percentile(wall_read_ms, 99),
                "lateness_p50_ms": percentile(late_ms, 50),
                "lateness_p99_ms": percentile(late_ms, 99),
                "lateness_max_ms": max(late_ms, default=0.0),
                **{
                    f"wall_job{size}_p50_ms": percentile(samples, 50)
                    for size, samples in sorted(wall_by_size.items())
                },
                "window_s": window_s,
                "wall_throughput": scenarios / window_s,
                "server_exit": code,
            },
            "fingerprint": fingerprint(base),
        }
        if args.trace_out:
            result["layers"] = serve_layers(args.trace_out, window_start, jobs)
        return result
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(base, ignore_errors=True)


#: Which layer a job's elementary time interval is charged to when the
#: server-side spans of one job overlap (the worker can take a job while
#: the HTTP thread is still answering its submit).
_JOB_PARTS = ("service.job", "http.result", "http.submit", "queue_wait")


def _charge(intervals: Dict[str, Tuple[float, float]]) -> Dict[str, float]:
    """Split the union of ``intervals`` among their names by
    :data:`_JOB_PARTS` priority; the charged times sum to the union."""
    edges = sorted({t for span in intervals.values() for t in span})
    charged = dict.fromkeys(intervals, 0.0)
    for lo, hi in zip(edges, edges[1:]):
        for name in _JOB_PARTS:
            span = intervals.get(name)
            if span is not None and span[0] <= lo and hi <= span[1]:
                charged[name] += hi - lo
                break
    return charged


def serve_layers(trace_path: str, window_start: float,
                 jobs: List[Job]) -> Dict[str, Any]:
    """Per-layer numbers of a traced serve window, plus each job's
    client latency split into server layers (the coverage).

    Server spans and client timestamps share one clock: both come from
    ``time.perf_counter``, which is the system-wide monotonic clock on
    Linux, so records are kept from ``window_start`` on.
    """
    from repro.observability.export import read_trace_jsonl
    from repro.observability.tracing import child_index
    from repro.perf.profile import profile_spans

    _, records = read_trace_jsonl(trace_path)
    records = [r for r in records if r.start >= window_start]
    kids = child_index(records)
    by_job: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.name == "service.queue_wait":
            by_job.setdefault(record.attributes["job"], {})[
                "queue_wait"] = record
        elif record.name == "service.job":
            by_job.setdefault(record.attributes["job"], {})[
                "service.job"] = record
        elif record.name == "service.http":
            path = record.attributes.get("path", "")
            if path.endswith("/result"):
                by_job.setdefault(path.split("/")[3], {})[
                    "http.result"] = record
            for child in kids.get(record.span_id, []):
                job = child.attributes.get("job")
                if child.name == "service.submit" and job:
                    by_job.setdefault(job, {})["http.submit"] = record

    def subtree(root):
        out, stack = [], [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(kids.get(span.span_id, []))
        return out

    covered = waited = 0.0
    split: Dict[int, Dict[str, float]] = {}
    for job in jobs:
        spans = by_job.get(job.job_id, {})
        parts = _charge({
            name: (span.start, span.start + span.duration)
            for name, span in spans.items()
        })
        job_span = spans.get("service.job")
        if job_span is not None:
            # the job is charged first, so its layers split it exactly
            del parts["service.job"]
            for stats in profile_spans(subtree(job_span)).stats:
                if not stats.name.startswith("count."):
                    parts[stats.name] = stats.self_time
        server_s = sum(parts.values())
        covered += server_s
        waited += job.seconds
        parts["client+transport"] = job.seconds - server_s
        parts["latency"] = job.seconds
        entry = split.setdefault(len(job.specs), {"jobs": 0})
        entry["jobs"] += 1
        for name, seconds in parts.items():
            entry[name] = entry.get(name, 0.0) + 1e3 * seconds
    for entry in split.values():
        for name in entry:
            if name != "jobs":
                entry[name] /= entry["jobs"]

    layers = layer_metrics(
        records,
        scenarios=sum(len(job.specs) for job in jobs),
        fleets=sum(len({(s["n"], s["f"]) for s in job.specs}) for job in jobs),
        wall_s=0.0,
    )
    layers["trace.coverage"] = covered / waited if waited else 0.0
    layers["service.result_fetch_ms"] = 1e3 * statistics.fmean(
        job.fetch for job in jobs
    )
    layers["job_split_ms"] = {str(k): v for k, v in sorted(split.items())}
    return layers


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------

def filesystem_type(path: str) -> str:
    """The mount type holding ``path``, from ``/proc/self/mounts``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def fsync_ms(directory: str, samples: int = 20) -> float:
    """Median cost of one 4 KiB write + fsync in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "fsync-probe")
    times = []
    try:
        with open(path, "wb") as handle:
            for _ in range(samples):
                started = time.perf_counter()
                handle.write(b"\0" * 4096)
                handle.flush()
                os.fsync(handle.fileno())
                times.append(time.perf_counter() - started)
    finally:
        os.remove(path)
    return 1e3 * statistics.median(times)


def fingerprint(directory: str) -> Dict[str, Any]:
    from repro.perf.suite import machine_fingerprint

    os.makedirs(directory, exist_ok=True)
    return dict(
        machine_fingerprint(),
        state_fs=filesystem_type(directory),
        fsync_ms=fsync_ms(directory),
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(LIBRARY) + ["serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "serve":
        result = run_serve(args)
    else:
        result = run_library(LIBRARY[args.workload], args)
    if result is not None:
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark suites: named, seeded workloads run under telemetry.

An airspeed-velocity-style tracked suite without the infrastructure: a
registry of :class:`Workload` objects — each a deterministic, seeded
slice of the system (engine sweep, batch kernels, fleet
compilation, campaign executor, a chaos scenario) — grouped into named
*suites* (``quick``/``full`` plus per-subsystem cuts) and timed with
warmup + repeats.  :func:`run_suite` emits a versioned record carrying:

* a **machine fingerprint** (python version/implementation, platform,
  cpu count, numpy presence) so a baseline is never compared blind
  across machines;
* per-workload **timing stats** (min/median/mean/stdev over the
  repeats, plus the raw samples);
* the key **telemetry counters** the workload incremented, so a
  "2x faster" result that silently computed half the points is caught.

Records are written to ``benchmarks/BENCH_<suite>.json`` by default
and compared by :mod:`repro.perf.compare`.  Workloads run with
telemetry *enabled* — the timed number includes tracing overhead,
uniformly, which is what a regression gate wants (the shipped
configuration, not an idealized one).

Examples:
    >>> suite_names()
    ['async', 'batch', 'byzantine', 'campaign', 'dashboard', 'engine', 'full', 'quick', 'variants']
    >>> "engine_sweep" in workload_names()
    True
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.observability.instrument import Telemetry
from repro.observability.metrics import Counter

__all__ = [
    "SUITE_FORMAT",
    "SUITE_VERSION",
    "Workload",
    "load_suite_report",
    "machine_fingerprint",
    "run_suite",
    "suite_names",
    "workload_names",
    "write_suite_report",
]

SUITE_FORMAT = "linesearch-bench-suite"
SUITE_VERSION = 1

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1


@dataclass(frozen=True)
class Workload:
    """One benchmarkable unit: a setup returning the timed callable.

    ``setup(params)`` does everything that must stay *outside* the
    timed region (building fleets, compiling kernels, generating
    grids) and returns a zero-argument callable that is then timed.
    ``full`` and ``quick`` are the two parameter sets.
    """

    name: str
    description: str
    setup: Callable[[Dict[str, Any]], Callable[[], Any]]
    full: Dict[str, Any] = field(default_factory=dict)
    quick: Dict[str, Any] = field(default_factory=dict)

    def params(self, size: str) -> Dict[str, Any]:
        """The parameter set for ``size`` (``"full"`` or ``"quick"``)."""
        return dict(self.full if size == "full" else self.quick)


# ----------------------------------------------------------------------
# workload implementations (heavy imports stay inside the setups)
# ----------------------------------------------------------------------

def _symmetric_grid(points: int, x_max: float) -> List[float]:
    from repro.simulation.sweep import geometric_grid

    half = geometric_grid(1.0, x_max, max(2, points // 2))
    return half + [-x for x in half]


def _setup_engine_sweep(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.robots import Fleet
    from repro.schedule import ProportionalAlgorithm
    from repro.simulation.sweep import target_sweep

    fleet = Fleet.from_algorithm(
        ProportionalAlgorithm(params["n"], params["f"])
    )
    targets = _symmetric_grid(params["points"], params["x_max"])
    fleet.worst_case_detection_time(targets[0], params["f"])  # materialize
    return lambda: target_sweep(fleet, params["f"], targets, method="event")


def _setup_batch_pure(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.batch import BatchEvaluator
    from repro.robots import Fleet
    from repro.schedule import ProportionalAlgorithm

    fleet = Fleet.from_algorithm(
        ProportionalAlgorithm(params["n"], params["f"])
    )
    targets = _symmetric_grid(params["points"], params["x_max"])
    evaluator = BatchEvaluator(fleet, fault_budget=params["f"])
    evaluator.search_times(targets[:2])  # compile outside the timer
    return lambda: evaluator.search_times(targets)


def _setup_batch_compile(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.batch.compile import compile_fleet
    from repro.schedule import ProportionalAlgorithm

    trajectories = ProportionalAlgorithm(params["n"], params["f"]).build()
    span = params["x_max"]
    return lambda: compile_fleet(trajectories, -span, span)


def _setup_campaign_executor(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.robustness import (
        CampaignExecutor,
        RetryPolicy,
        chaos_scenarios,
    )

    scenarios = chaos_scenarios(
        [tuple(p) for p in params["pairs"]],
        params["targets"],
        faults=tuple(params["faults"]),
        seed=params["seed"],
    )

    def run():
        executor = CampaignExecutor(
            jobs=1, retry_policy=RetryPolicy(max_attempts=1)
        )
        return executor.execute(scenarios, check_invariants=True)

    return run


def _setup_chaos_scenario(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.robustness.campaign import ScenarioSpec, build_scenario
    from repro.simulation import SearchSimulation

    scenario = build_scenario(
        ScenarioSpec(
            n=params["n"],
            f=params["f"],
            target=params["target"],
            fault=params["fault"],
            seed=params["seed"],
        )
    )

    def run():
        fleet, model = scenario.build()
        return SearchSimulation(
            fleet, params["target"], fault_model=model,
            check_invariants=True,
        ).run()

    return run


def _setup_byzantine_protocol(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.byzantine import ByzantineSearchSimulation
    from repro.robots import ByzantineAdversary, Fleet
    from repro.schedule import ByzantineConfirmationAlgorithm

    algorithm = ByzantineConfirmationAlgorithm(params["n"], params["f"])
    adversary = ByzantineAdversary(
        params["f"], alarm_times=tuple(params["alarm_times"])
    )
    target = params["target"]

    def run():
        fleet = Fleet.from_algorithm(algorithm)
        return ByzantineSearchSimulation(
            fleet, target, fault_model=adversary, check_invariants=True,
        ).run()

    return run


def _setup_async_engine(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.async_sched import EventEngine, scheduler_from_spec
    from repro.robots import AdversarialFaults, Fleet
    from repro.schedule import ProportionalAlgorithm

    fleet = Fleet.from_algorithm(
        ProportionalAlgorithm(params["n"], params["f"])
    )
    targets = _symmetric_grid(params["points"], params["x_max"])
    scheduler = scheduler_from_spec(params["scheduler"])
    budget = params["f"]
    fleet.worst_case_detection_time(targets[0], budget)  # materialize

    def run():
        return [
            EventEngine(
                fleet,
                x,
                scheduler=scheduler,
                fault_model=AdversarialFaults(budget),
                seed=params["seed"],
            ).run(with_events=False)
            for x in targets
        ]

    return run


def _setup_variant_halfline(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.variants.halfline import run_halfline_sweep

    ps = tuple(params["ps"])
    target = params["target"]
    rtol = params["rtol"]
    return lambda: run_halfline_sweep(ps=ps, target=target, rtol=rtol)


def _setup_variant_evacuation(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.robustness.campaign import chaos_scenarios, run_campaign

    scenarios = chaos_scenarios(
        [tuple(p) for p in params["pairs"]],
        params["targets"],
        faults=tuple(params["faults"]),
        seed=params["seed"],
        variant="evacuation",
    )
    return lambda: run_campaign(scenarios, check_invariants=True)


def _campaign_telemetry(params: Dict[str, Any]) -> "Telemetry":
    """A telemetry populated by one seeded campaign — the dashboard
    workloads' input, produced once in setup, outside the timer."""
    from repro.robustness.campaign import chaos_scenarios, run_campaign

    scenarios = chaos_scenarios(
        [tuple(p) for p in params["pairs"]],
        params["targets"],
        faults=tuple(params["faults"]),
        seed=params["seed"],
    )
    telemetry = Telemetry()
    previous = obs.configure(telemetry)
    try:
        run_campaign(scenarios, check_invariants=True)
    finally:
        obs.configure(previous)
    return telemetry


def _setup_dashboard_state(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.dashboard.state import state_from_telemetry

    telemetry = _campaign_telemetry(params)
    return lambda: state_from_telemetry(telemetry).to_json()


def _setup_dashboard_stream(params: Dict[str, Any]) -> Callable[[], Any]:
    from repro.dashboard.stream import DashboardStreamer

    telemetry = _campaign_telemetry(params)
    samples = params["stream_samples"]

    def run():
        streamer = DashboardStreamer(
            metrics=telemetry.metrics,
            spans=telemetry.tracer.records,
            jobs=lambda: {"queue_depth": 0, "states": {}},
            interval=0.01,
        )
        return [streamer.sample() for _ in range(samples)]

    return run


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="engine_sweep",
        description="per-target event-engine ratio sweep, A(3,1)",
        setup=_setup_engine_sweep,
        full={"n": 3, "f": 1, "points": 2000, "x_max": 100.0},
        quick={"n": 3, "f": 1, "points": 200, "x_max": 100.0},
    ),
    Workload(
        name="batch_pure",
        description="BatchEvaluator.search_times, A(3,1), one grid pass",
        setup=_setup_batch_pure,
        full={"n": 3, "f": 1, "points": 10000, "x_max": 100.0},
        quick={"n": 3, "f": 1, "points": 1000, "x_max": 100.0},
    ),
    Workload(
        name="batch_compile",
        description="fleet -> segment-array compilation over one window",
        setup=_setup_batch_compile,
        full={"n": 5, "f": 2, "x_max": 64.0},
        quick={"n": 3, "f": 1, "x_max": 16.0},
    ),
    Workload(
        name="campaign_executor",
        description="inline campaign executor over a deterministic grid",
        setup=_setup_campaign_executor,
        full={
            "pairs": [[3, 1], [4, 2], [5, 3]],
            "targets": [1.0, -1.5, 2.5, -4.0],
            "faults": ["none", "adversarial", "fixed"],
            "seed": 2016,
        },
        quick={
            "pairs": [[3, 1]],
            "targets": [1.0, -2.0],
            "faults": ["none", "adversarial"],
            "seed": 2016,
        },
    ),
    Workload(
        name="chaos_scenario",
        description="one byzantine chaos scenario through the engine",
        setup=_setup_chaos_scenario,
        full={"n": 4, "f": 2, "target": 3.0,
              "fault": "byzantine:1.0;2.5", "seed": 11},
        quick={"n": 4, "f": 2, "target": 3.0,
               "fault": "byzantine:1.0;2.5", "seed": 11},
    ),
    Workload(
        name="async_engine",
        description="discrete-event engine under the adversarial "
                    "scheduler, per-target runs, A(3,1)",
        setup=_setup_async_engine,
        full={"n": 3, "f": 1, "points": 800, "x_max": 100.0,
              "scheduler": "event:adversarial:1.0", "seed": 0},
        quick={"n": 3, "f": 1, "points": 120, "x_max": 100.0,
               "scheduler": "event:adversarial:1.0", "seed": 0},
    ),
    Workload(
        name="byzantine_protocol",
        description="confirmation protocol vs worst-case liars, one run",
        setup=_setup_byzantine_protocol,
        full={"n": 7, "f": 3, "target": 9.0, "alarm_times": [1.0, 3.0]},
        quick={"n": 5, "f": 2, "target": 3.0, "alarm_times": [1.0, 3.0]},
    ),
    Workload(
        name="dashboard_state",
        description="canonical dashboard state build + serialization "
                    "over a campaign's telemetry",
        setup=_setup_dashboard_state,
        full={
            "pairs": [[3, 1], [4, 2], [5, 3]],
            "targets": [1.0, -1.5, 2.5, -4.0],
            "faults": ["none", "adversarial", "fixed"],
            "seed": 2016,
        },
        quick={
            "pairs": [[3, 1]],
            "targets": [1.0, -2.0],
            "faults": ["none", "adversarial"],
            "seed": 2016,
        },
    ),
    Workload(
        name="dashboard_stream",
        description="streamer sampling (delta + span-table refresh) "
                    "over a campaign's telemetry",
        setup=_setup_dashboard_stream,
        full={
            "pairs": [[3, 1], [4, 2], [5, 3]],
            "targets": [1.0, -1.5, 2.5, -4.0],
            "faults": ["none", "adversarial", "fixed"],
            "seed": 2016,
            "stream_samples": 50,
        },
        quick={
            "pairs": [[3, 1]],
            "targets": [1.0, -2.0],
            "faults": ["none", "adversarial"],
            "seed": 2016,
            "stream_samples": 10,
        },
    ),
    Workload(
        name="variant_halfline",
        description="half-line closed-form validation sweep over a p-grid",
        setup=_setup_variant_halfline,
        full={"ps": [0.2, 0.35, 0.5, 0.65, 0.75, 0.9], "target": 3.7,
              "rtol": 1e-12},
        quick={"ps": [0.5, 0.75], "target": 3.7, "rtol": 1e-9},
    ),
    Workload(
        name="variant_evacuation",
        description="audited evacuation campaign over a seeded grid",
        setup=_setup_variant_evacuation,
        full={
            "pairs": [[3, 1], [5, 2], [7, 3]],
            "targets": [1.5, -2.5, 4.0],
            "faults": ["none", "adversarial", "crash_stop:2.0"],
            "seed": 2016,
        },
        quick={
            "pairs": [[3, 1]],
            "targets": [1.5, -2.5],
            "faults": ["none", "adversarial"],
            "seed": 2016,
        },
    ),
)

_WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

#: Suite name → (size, workload names).  ``quick`` is the CI-sized cut
#: of everything; the per-subsystem suites run full-size workloads.
SUITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "quick": ("quick", tuple(w.name for w in WORKLOADS)),
    "full": ("full", tuple(w.name for w in WORKLOADS)),
    "engine": ("full", ("engine_sweep", "chaos_scenario")),
    "batch": ("full", ("batch_pure", "batch_compile")),
    "campaign": ("full", ("campaign_executor", "chaos_scenario")),
    "byzantine": ("full", ("byzantine_protocol", "chaos_scenario")),
    "async": ("full", ("async_engine", "engine_sweep")),
    "variants": ("full", ("variant_halfline", "variant_evacuation")),
    "dashboard": ("full", ("dashboard_state", "dashboard_stream")),
}


def suite_names() -> List[str]:
    """The registered suite names, sorted."""
    return sorted(SUITES)


def workload_names() -> List[str]:
    """The registered workload names, in registry order."""
    return [w.name for w in WORKLOADS]


def machine_fingerprint() -> Dict[str, Any]:
    """Identity of the machine a record was measured on.

    Compared (not gated) by :mod:`repro.perf.compare`: numbers from
    different fingerprints are still comparable, but the report says so.
    """
    numpy_version: Optional[str] = None
    try:
        import numpy  # type: ignore

        numpy_version = str(numpy.__version__)
    except ImportError:
        pass
    return {
        "library": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy_version,
    }


def _timing_stats(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "mean": statistics.fmean(samples),
        "stdev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
    }


def _measure(
    workload: Workload, params: Dict[str, Any], repeats: int, warmup: int
) -> Tuple[List[float], Dict[str, float]]:
    """Time ``repeats`` runs under a fresh telemetry; returns
    ``(samples, nonzero counters)``."""
    fn = workload.setup(params)
    for _ in range(warmup):
        fn()
    telemetry = Telemetry()
    previous = obs.configure(telemetry)
    samples: List[float] = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        obs.configure(previous)
    counters = {
        metric.name: metric.value()
        for metric in telemetry.metrics.metrics()
        if isinstance(metric, Counter) and metric.value()
    }
    return samples, counters


def run_suite(
    suite: str = "quick",
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    only: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> Dict[str, Any]:
    """Run one suite and return its versioned record.

    Args:
        suite: A name from :func:`suite_names`.
        repeats: Timed runs per workload (stats are over these).
        warmup: Untimed runs before the repeats (JIT-less Python still
            warms caches: lazy trajectory materialization, allocators).
        only: Restrict to these workload names within the suite.
        quick: Force the reduced parameter sets regardless of suite —
            the CI smoke switch.
    """
    if suite not in SUITES:
        raise InvalidParameterError(
            f"unknown suite {suite!r}; choose from {suite_names()}"
        )
    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    if warmup < 0:
        raise InvalidParameterError("warmup must be >= 0")
    size, names = SUITES[suite]
    if quick:
        size = "quick"
    if only is not None:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise InvalidParameterError(
                f"workload(s) {unknown} not in suite {suite!r}; "
                f"it holds {list(names)}"
            )
        names = tuple(n for n in names if n in set(only))

    workloads: Dict[str, Any] = {}
    for name in names:
        workload = _WORKLOADS_BY_NAME[name]
        params = workload.params(size)
        with obs.span("perf.workload", workload=name, size=size):
            samples, counters = _measure(workload, params, repeats, warmup)
        workloads[name] = {
            "description": workload.description,
            "size": size,
            "params": params,
            "samples": samples,
            "seconds": _timing_stats(samples),
            "counters": counters,
        }
    return {
        "format": SUITE_FORMAT,
        "version": SUITE_VERSION,
        "suite": suite,
        "size": size,
        "repeats": repeats,
        "warmup": warmup,
        "fingerprint": machine_fingerprint(),
        "workloads": workloads,
        # kept empty so records keep the SUITE_VERSION 1 shape
        "skipped": {},
    }


def default_output_path(suite: str) -> str:
    """Where ``perf run`` writes by default: ``benchmarks/BENCH_<suite>.json``."""
    return os.path.join("benchmarks", f"BENCH_{suite}.json")


def write_suite_report(
    report: Dict[str, Any], path: Optional[str] = None
) -> str:
    """Write a suite record as stable, diff-friendly JSON; returns the path."""
    if path is None:
        path = default_output_path(report.get("suite", "suite"))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_suite_report(path: str) -> Dict[str, Any]:
    """Read and validate a record written by :func:`write_suite_report`."""
    if not os.path.exists(path):
        raise InvalidParameterError(f"no benchmark record at {path!r}")
    with open(path, encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError:
            raise InvalidParameterError(
                f"{path!r} is not valid JSON"
            ) from None
    if (
        not isinstance(report, dict)
        or report.get("format") != SUITE_FORMAT
    ):
        raise InvalidParameterError(
            f"{path!r} is not a linesearch benchmark record"
        )
    if report.get("version") != SUITE_VERSION:
        raise InvalidParameterError(
            f"record {path!r} has version {report.get('version')!r}; "
            f"this library reads version {SUITE_VERSION}"
        )
    return report

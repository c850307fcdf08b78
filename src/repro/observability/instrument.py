"""Zero-overhead-when-disabled instrumentation facade.

The hot layers (the simulation engine, the sweeps, the campaign
executor) call the module-level helpers in here — :func:`span`,
:func:`count`, :func:`observe` — unconditionally.  When telemetry is
disabled (the default) each helper is a single global-load plus an
``is None`` test returning a shared no-op object: no allocation, no
locks, no timestamps.  ``benchmarks/bench_telemetry.py`` pins the cost
of that disabled path below 2% of a ``simulate_search`` call.

Enable collection with :func:`enable` (or pass a preconfigured
:class:`Telemetry`); every helper then routes to the active tracer and
metrics registry.  The previous state is returned so scopes can nest::

    previous = enable()
    try:
        ...instrumented work...
    finally:
        configure(previous)

Examples:
    >>> telemetry = enable()
    >>> with span("work", phase="demo"):
    ...     count("demo_total")
    >>> [r.name for r in telemetry.tracer.records()]
    ['work']
    >>> telemetry.metrics.counter("demo_total").value()
    1.0
    >>> disable() is telemetry
    True
    >>> is_enabled()
    False
"""

from __future__ import annotations

import platform
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.observability.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
)
from repro.observability.tracing import Tracer

__all__ = [
    "Telemetry",
    "WELL_KNOWN_METRICS",
    "configure",
    "count",
    "current",
    "disable",
    "enable",
    "gauge_set",
    "instrumented",
    "is_enabled",
    "observe",
    "span",
]


#: Help text for the metrics the instrumented layers emit, pre-registered
#: on every fresh :class:`Telemetry` so exports are self-describing (and
#: so a campaign that recorded zero of something still exports the zero).
WELL_KNOWN_METRICS = {
    "counter": {
        "simulation_runs_total": "search simulations executed",
        "simulation_visits_computed_total":
            "target visit events computed across simulations",
        "scenarios_completed_total":
            "campaign scenarios recorded (success or isolated failure)",
        "scenarios_failed_total":
            "campaign scenarios recorded as failures, by error class",
        "scenario_retries_total":
            "extra attempts spent on scenarios beyond their first",
        "watchdog_timeouts_total":
            "scenarios killed by the executor's wall-clock watchdog",
        "worker_crashes_total": "worker processes that died mid-scenario",
        "campaign_interrupts_total":
            "campaigns stopped cooperatively (SIGTERM / stop_check) "
            "after a journal checkpoint",
        "journal_flushes_total": "campaign journal flushes, by fsync",
        "service_requests_total":
            "service requests handled, by endpoint and status",
        "service_jobs_submitted_total": "jobs admitted by the service",
        "service_jobs_completed_total":
            "jobs finished by the service, by final status",
        "service_cache_hits_total":
            "scenario results served from the fingerprint cache",
        "service_cache_misses_total":
            "scenario results the fingerprint cache could not serve",
        "service_overload_rejections_total":
            "submissions rejected because the admission queue was full",
        "service_rate_limited_total":
            "submissions rejected by a client's token bucket",
        "service_deadline_expirations_total":
            "jobs cancelled because their deadline passed",
        "service_drains_total": "graceful drains begun (SIGTERM/SIGINT)",
        "sweep_points_total": "parameter-sweep points evaluated",
        "batch_points_total": "targets evaluated through the batch kernels",
        "batch_compiles_total":
            "fleet compilations into batch segment arrays",
        "async_runs_total": "discrete-event engine runs executed",
        "async_activations_total":
            "activation quanta spanned by event-engine timelines",
        "async_sweep_points_total":
            "CR-degradation sweep points evaluated",
        "variants_runs_total": "problem-variant scenario runs executed",
        "variants_halfline_runs_total":
            "half-line variant scenario runs executed",
        "variants_evacuations_total": "evacuation simulations executed",
        "variants_gather_arrivals_total":
            "gather-phase arrival events recorded across evacuations",
        "variants_halfline_sweep_points_total":
            "half-line closed-form validation sweep points evaluated",
    },
    "histogram": {
        "simulation_wall_seconds": "wall-clock time of one simulation run",
        "async_wall_seconds":
            "wall-clock time of one discrete-event engine run",
        "scenario_wall_seconds": "wall-clock time of one campaign scenario",
        "journal_flush_seconds": "wall-clock time of one journal flush",
        "service_request_seconds":
            "wall-clock time spent handling one service request",
        "service_job_seconds": "wall-clock time one job spent executing",
        "variants_wall_seconds":
            "wall-clock time of one problem-variant run",
    },
    "gauge": {
        "campaign_scenarios_total": "scenarios in the current campaign",
        "campaign_scenarios_resumed":
            "scenarios skipped because the journal already held them",
        "service_queue_depth": "jobs waiting in the admission queue",
        "service_workers_alive": "service worker threads currently alive",
        "service_jobs_running": "jobs currently executing",
        "service_cache_size": "entries resident in the scenario result cache",
    },
}


class Telemetry:
    """One tracer + one metrics registry + run metadata, as a unit."""

    __slots__ = ("tracer", "metrics", "metadata")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name, help_text in WELL_KNOWN_METRICS["counter"].items():
            self.metrics.counter(name, help_text)
        for name, help_text in WELL_KNOWN_METRICS["histogram"].items():
            self.metrics.histogram(name, help_text)
        for name, help_text in WELL_KNOWN_METRICS["gauge"].items():
            self.metrics.gauge(name, help_text)
        self.metadata = {
            "library": "linesearch",
            "version": __version__,
            "python": platform.python_version(),
        }
        if metadata:
            self.metadata.update(metadata)


class _NoopSpan:
    """The disabled-path span: enters, exits, accepts attributes, does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()

#: The active telemetry, or ``None`` when disabled.  Module-global on
#: purpose: the disabled fast path must be one load + one ``is None``.
_TELEMETRY: Optional[Telemetry] = None


def configure(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``telemetry`` (or ``None`` to disable); returns the
    previous state so callers can restore it."""
    global _TELEMETRY
    previous = _TELEMETRY
    _TELEMETRY = telemetry
    return previous


def enable(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Switch collection on (creating a fresh :class:`Telemetry` if
    none is given) and return the active instance."""
    active = telemetry if telemetry is not None else Telemetry()
    configure(active)
    return active


def disable() -> Optional[Telemetry]:
    """Switch collection off; returns the telemetry that was active."""
    return configure(None)


def current() -> Optional[Telemetry]:
    """The active :class:`Telemetry`, or ``None`` when disabled."""
    return _TELEMETRY


def is_enabled() -> bool:
    """Whether any telemetry is being collected."""
    return _TELEMETRY is not None


# ----------------------------------------------------------------------
# hot-path helpers — each starts with the disabled fast path
# ----------------------------------------------------------------------

def span(name: str, **attributes: Any):
    """A tracer span when enabled, a shared no-op otherwise."""
    telemetry = _TELEMETRY
    if telemetry is None:
        return _NOOP_SPAN
    return telemetry.tracer.span(name, **attributes)


def count(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment counter ``name`` when enabled."""
    telemetry = _TELEMETRY
    if telemetry is None:
        return
    telemetry.metrics.counter(name).inc(amount, **labels)


def observe(name: str, value: float, buckets=DEFAULT_TIME_BUCKETS) -> None:
    """Record ``value`` into histogram ``name`` when enabled."""
    telemetry = _TELEMETRY
    if telemetry is None:
        return
    telemetry.metrics.histogram(name, buckets=buckets).observe(value)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    """Set gauge ``name`` when enabled."""
    telemetry = _TELEMETRY
    if telemetry is None:
        return
    telemetry.metrics.gauge(name).set(value, **labels)


def instrumented(name: str, **attributes: Any):
    """Decorator: trace every call of the wrapped function as a span.

    The disabled path adds one global load and an ``is None`` test on
    top of the plain call.

    Examples:
        >>> @instrumented("math.double")
        ... def double(x):
        ...     return 2 * x
        >>> double(21)
        42
        >>> telemetry = enable()
        >>> double(2)
        4
        >>> telemetry.tracer.records()[0].name
        'math.double'
        >>> _ = disable()
    """
    def decorate(func):
        import functools

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            telemetry = _TELEMETRY
            if telemetry is None:
                return func(*args, **kwargs)
            with telemetry.tracer.span(name, **attributes):
                return func(*args, **kwargs)

        return wrapper

    return decorate

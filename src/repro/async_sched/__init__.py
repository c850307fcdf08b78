"""Event-driven async scheduling: the LCM-style execution model.

This package generalizes the synchronous continuous-time model of
:mod:`repro.simulation` to scheduled time: robots follow the same
analytic plans, but a pluggable activation scheduler decides when the
wall clock lets each plan advance.  The event engine runs the
synchronous engine's assign → detect → render core through one
timeline per robot, renders the resulting wall-clock event log with
the existing :mod:`repro.simulation.events` types, composes with
per-robot speeds (:mod:`repro.extensions.multi_speed`) and the
Byzantine confirmation protocol (via per-robot timelines), and
reproduces the continuous engine bit-exactly under FSYNC/unit-speed —
see
:func:`repro.parity.run_async_parity`.

Modules:
    timeline: lazy wall↔plan maps built from scheduler slices.
    schedulers: FSYNC/SSYNC/ASYNC/adversarial activation strategies.
    engine: the scheduled-time engine and its timeline builder.
    invariants: scheduled-time invariant audits.
    sweep: CR-degradation sweeps (ratio vs. scheduler adversity).
"""

from repro.async_sched.engine import (
    AsyncRunRecord,
    EventEngine,
    timelines_for,
)
from repro.async_sched.invariants import (
    audit_async_outcome,
    check_async_outcome,
)
from repro.async_sched.schedulers import (
    SCHEDULER_KINDS,
    ActivationScheduler,
    AdversarialScheduler,
    AsyncScheduler,
    FsyncScheduler,
    SchedulerContext,
    SsyncScheduler,
    scheduler_from_spec,
)
from repro.async_sched.sweep import (
    DegradationPoint,
    DegradationReport,
    run_degradation_sweep,
)
from repro.async_sched.timeline import Timeline

__all__ = [
    "ActivationScheduler",
    "AdversarialScheduler",
    "AsyncRunRecord",
    "AsyncScheduler",
    "DegradationPoint",
    "DegradationReport",
    "EventEngine",
    "FsyncScheduler",
    "SCHEDULER_KINDS",
    "SchedulerContext",
    "SsyncScheduler",
    "Timeline",
    "audit_async_outcome",
    "check_async_outcome",
    "run_degradation_sweep",
    "scheduler_from_spec",
    "timelines_for",
]

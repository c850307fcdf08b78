"""Search engine under scheduled (non-synchronous) time.

:class:`EventEngine` runs the same scenario the synchronous
:class:`~repro.simulation.engine.SearchSimulation` runs — a fleet, a
target, a fault assignment — but under an activation scheduler: each
robot's analytic plan advances only while the scheduler lets it, so the
wall-clock detection time degrades with the schedule.  Both engines run
the one assign → detect → render core of
:mod:`repro.simulation.engine`; this engine passes it one
:class:`~repro.async_sched.timeline.Timeline` per robot
(:func:`timelines_for`), so detection times and the rendered event log
(the existing :mod:`repro.simulation.events` types, stably sorted in
wall order) are in wall time, and invariant audits, telemetry
exporters, and downstream consumers work unchanged.

Exactness: plan-side quantities (visit/turn/crash/alarm instants and
genuine detection times) come from the same trajectory calls the
synchronous engine makes, and wall times are produced as
``plan_t + cumulative_gap`` (see :mod:`repro.async_sched.timeline`).
Under :class:`~repro.async_sched.schedulers.FsyncScheduler` every gap is
``0.0``, so every emitted time — including the detection time — is
bit-identical to the synchronous engine's (the parity harness
:func:`repro.parity.run_async_parity` asserts ``==``, not ``isclose``,
on the FSYNC timeline).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.async_sched.schedulers import (
    ActivationScheduler,
    FsyncScheduler,
    SchedulerContext,
)
from repro.async_sched.timeline import Timeline
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robots.faults import AdversarialFaults, FaultModel
from repro.robots.fleet import Fleet
from repro.simulation.engine import detect, draw_faults, render_events
from repro.simulation.events import Event
from repro.simulation.metrics import SearchOutcome
from repro.trajectory.base import Trajectory

__all__ = ["AsyncRunRecord", "EventEngine", "timelines_for"]


@dataclass(frozen=True)
class AsyncRunRecord:
    """Timing internals of one :meth:`EventEngine.run`, for audits.

    Attributes:
        scheduler: Spec string of the scheduler that produced the run.
        seed: Scheduler seed.
        plan_detection_times: Per-robot *genuine* detection instants in
            plan time (``None`` = that robot never genuinely detects).
        wall_detection_times: The same instants mapped to wall time.
        delays: Cumulative idle delay each robot had accrued at its
            genuine detection instant (``None`` where undefined).
        activations: Activation quanta spanned by the runs materialized
            across all robot timelines (each timeline's materialized plan
            time over the scheduler quantum).
    """

    scheduler: str
    seed: int
    plan_detection_times: Tuple[Optional[float], ...]
    wall_detection_times: Tuple[Optional[float], ...]
    delays: Tuple[Optional[float], ...]
    activations: int


def timelines_for(
    trajectories: Sequence[Trajectory],
    scheduler: ActivationScheduler,
    target: float,
    seed: int = 0,
) -> List[Timeline]:
    """Build one :class:`Timeline` per trajectory under ``scheduler``.

    The one place scheduler timelines are built: :class:`EventEngine`
    passes them to the scenario core, and the Byzantine confirmation
    simulation accepts them directly.  The context — and therefore any
    shared scheduler state such as SSYNC round masks — is common to all
    returned timelines.
    """
    context = SchedulerContext(trajectories, target, seed)
    return [
        Timeline(scheduler.slices(i, context))
        for i in range(len(context.plans))
    ]


def _quanta(timelines: Sequence[Timeline], quantum: float) -> int:
    """Activation quanta the timelines' materialized runs span."""
    total = 0
    for timeline in timelines:
        bursts = timeline.bursts
        if bursts:
            total += round(bursts[-1][1] / quantum)
    return total


class EventEngine:
    """One search scenario under an activation scheduler.

    Args:
        fleet: The robots (plans may already be speed-scaled via
            :class:`~repro.extensions.multi_speed.SpeedScaledTrajectory`).
        target: Nonzero finite target position.
        scheduler: Activation scheduler; defaults to FSYNC, under which
            the engine reproduces the continuous engine exactly.
        fault_model: Strategy deciding the faulty subset; defaults to
            the paper's adversary with budget 0.
        seed: Seed for every scheduler random stream.
        check_invariants: When true, :meth:`run` audits its outcome with
            :func:`repro.async_sched.invariants.check_async_outcome`.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> from repro.async_sched.schedulers import AdversarialScheduler
        >>> fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
        >>> sync = EventEngine(fleet, target=2.0).run()
        >>> delayed = EventEngine(
        ...     fleet, target=2.0, scheduler=AdversarialScheduler(1.0)
        ... ).run()
        >>> delayed.detection_time > sync.detection_time
        True
    """

    def __init__(
        self,
        fleet: Fleet,
        target: float,
        scheduler: Optional[ActivationScheduler] = None,
        fault_model: Optional[FaultModel] = None,
        seed: int = 0,
        check_invariants: bool = False,
    ) -> None:
        if not isinstance(fleet, Fleet):
            raise InvalidParameterError(f"fleet must be a Fleet, got {fleet!r}")
        if target == 0.0 or not math.isfinite(target):
            raise InvalidParameterError(
                f"target must be a nonzero finite real, got {target!r}"
            )
        if scheduler is not None and not isinstance(
            scheduler, ActivationScheduler
        ):
            raise InvalidParameterError(
                f"scheduler must be an ActivationScheduler, got {scheduler!r}"
            )
        self.fleet = fleet
        self.target = float(target)
        self.scheduler = scheduler or FsyncScheduler()
        self.fault_model = fault_model or AdversarialFaults(0)
        self.seed = int(seed)
        self.check_invariants = bool(check_invariants)
        #: Internals of the most recent :meth:`run` (audits, reports).
        self.last_record: Optional[AsyncRunRecord] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, with_events: bool = True) -> SearchOutcome:
        """Execute the scenario; see ``SearchSimulation.run``.

        The returned :class:`~repro.simulation.metrics.SearchOutcome`
        carries **wall-clock** times throughout — detection time, event
        log, and hence competitive ratio all reflect scheduler delays.
        """
        telemetry = obs.current()
        started = time.perf_counter() if telemetry is not None else 0.0
        with obs.span(
            "async.run",
            target=self.target,
            n=self.fleet.size,
            scheduler=self.scheduler.kind,
            fault_model=type(self.fault_model).__name__,
        ):
            with obs.span("async.adversary"):
                assignment = draw_faults(
                    self.fleet, self.target, self.fault_model
                )
            assigned = self.fleet.with_fault_behaviors(assignment)
            with obs.span("async.timelines"):
                timelines = timelines_for(
                    [r.effective_trajectory for r in assigned],
                    self.scheduler,
                    self.target,
                    self.seed,
                )
                detection = detect(assigned, self.target, timelines)
            events: List[Event] = []
            if (with_events or self.check_invariants) and math.isfinite(
                detection.time
            ):
                with obs.span("async.events"):
                    events = render_events(
                        assigned, self.target, detection, timelines
                    )
            outcome = SearchOutcome(
                target=self.target,
                detection_time=detection.time,
                detecting_robot=detection.robot,
                faulty_robots=frozenset(assignment),
                events=tuple(events),
            )
            self.last_record = AsyncRunRecord(
                scheduler=self.scheduler.spec(),
                seed=self.seed,
                plan_detection_times=tuple(detection.plan_times),
                wall_detection_times=tuple(detection.wall_times),
                delays=tuple(
                    timelines[i].offset_at(t) if t is not None else None
                    for i, t in enumerate(detection.plan_times)
                ),
                activations=_quanta(timelines, self.scheduler.quantum),
            )
            if self.check_invariants:
                from repro.async_sched.invariants import check_async_outcome

                with obs.span("async.invariants"):
                    check_async_outcome(outcome, record=self.last_record)
        if telemetry is not None:
            obs.count("async_runs_total")
            obs.count("async_activations_total", self.last_record.activations)
            obs.observe("async_wall_seconds", time.perf_counter() - started)
        return outcome

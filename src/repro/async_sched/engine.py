"""Discrete-event search engine under scheduled (non-synchronous) time.

:class:`EventEngine` runs the same scenario the continuous
:class:`~repro.simulation.engine.SearchSimulation` runs — a fleet, a
target, a fault assignment — but under an activation scheduler: each
robot's analytic plan advances only while the scheduler lets it, so the
wall-clock detection time degrades with the schedule.  Event rendering
is a heap merge of per-robot event streams (activation bursts,
turn points, target visits, crashes, false alarms) in wall order, and
the engine emits the existing :mod:`repro.simulation.events` types, so
invariant audits, telemetry exporters, and downstream consumers work
unchanged.

Exactness: plan-side quantities (visit/turn/crash/alarm instants and
genuine detection times) are computed by the same trajectory calls the
continuous engine makes, and wall times are produced as
``plan_t + cumulative_gap`` (see :mod:`repro.async_sched.timeline`).
Under :class:`~repro.async_sched.schedulers.FsyncScheduler` every gap is
``0.0``, so every emitted time — including the detection time — is
bit-identical to the continuous engine's (the parity harness
:func:`repro.parity.run_async_parity` asserts ``==``, not ``isclose``).
"""

from __future__ import annotations

import heapq
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
from repro.core.tolerance import times_close
from repro.errors import InvalidParameterError, SimulationError
from repro.observability import instrument as obs
from repro.robots.faults import AdversarialFaults, FaultModel
from repro.robots.fleet import Fleet
from repro.simulation.events import (
    CrashEvent,
    DetectionEvent,
    Event,
    FalseAlarmEvent,
    TargetVisitEvent,
    TurnEvent,
)
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

    Shared helper for composing the scheduler model with engines that
    drive their own event loops (the Byzantine confirmation simulation
    accepts these timelines directly).  The context — and therefore any
    shared scheduler state such as SSYNC round masks — is common to all
    returned timelines, exactly as inside :class:`EventEngine`.
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
                assignment = self.fault_model.behaviors(
                    self.fleet, self.target
                )
                faulty = frozenset(assignment)
            if len(faulty) > self.fault_model.fault_budget:
                raise SimulationError(
                    f"fault model assigned {len(faulty)} faults, more than "
                    f"its budget {self.fault_model.fault_budget}"
                )
            assigned = self.fleet.with_fault_behaviors(assignment)
            with obs.span("async.timelines"):
                plans = [r.effective_trajectory for r in assigned]
                context = SchedulerContext(plans, self.target, self.seed)
                timelines = [
                    Timeline(self.scheduler.slices(i, context))
                    for i in range(len(plans))
                ]
                plan_genuine = [
                    r.detection_time_for(self.target) for r in assigned
                ]
                wall_genuine = [
                    timelines[i].wall_of(t) if t is not None else None
                    for i, t in enumerate(plan_genuine)
                ]
            detection_time = min(
                (t for t in wall_genuine if t is not None),
                default=math.inf,
            )
            detecting_robot = self._detecting_robot(
                wall_genuine, detection_time
            )
            events: List[Event] = []
            if (with_events or self.check_invariants) and math.isfinite(
                detection_time
            ):
                with obs.span("async.events"):
                    events = self._render_events(
                        assigned,
                        timelines,
                        plan_genuine,
                        detection_time,
                        detecting_robot,
                    )
            outcome = SearchOutcome(
                target=self.target,
                detection_time=detection_time,
                detecting_robot=detecting_robot,
                faulty_robots=faulty,
                events=tuple(events),
            )
            self.last_record = AsyncRunRecord(
                scheduler=self.scheduler.spec(),
                seed=self.seed,
                plan_detection_times=tuple(plan_genuine),
                wall_detection_times=tuple(wall_genuine),
                delays=tuple(
                    timelines[i].offset_at(t) if t is not None else None
                    for i, t in enumerate(plan_genuine)
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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _detecting_robot(
        self,
        wall_genuine: Sequence[Optional[float]],
        detection_time: float,
    ) -> Optional[int]:
        if not math.isfinite(detection_time):
            return None
        for index, t in enumerate(wall_genuine):
            if t is not None and times_close(t, detection_time):
                return index
        raise SimulationError(
            "no robot found detecting at the computed wall detection time "
            "— inconsistent timeline state"
        )

    def _render_events(
        self,
        assigned: Fleet,
        timelines: Sequence[Timeline],
        plan_genuine: Sequence[Optional[float]],
        detection_time: float,
        detecting_robot: Optional[int],
    ) -> List[Event]:
        # Per-robot plan horizon: the plan progress at wall detection.
        # An event at plan time t renders at wall time wall_of(t), and
        # by monotonicity wall_of(t) <= detection iff t <= horizon, so
        # the plan-side filters below mirror the continuous engine's
        # `<= detection_time` filters exactly.
        heap: List[Tuple[float, bool, int, int, Event]] = []
        seq = 0

        def push(event: Event) -> None:
            nonlocal seq
            heapq.heappush(
                heap,
                (
                    event.time,
                    isinstance(event, DetectionEvent),
                    event.robot_index,
                    seq,
                    event,
                ),
            )
            seq += 1

        for robot in assigned:
            timeline = timelines[robot.index]
            plan = robot.effective_trajectory
            horizon = timeline.plan_of(detection_time)
            genuine = plan_genuine[robot.index]
            for vertex in plan.turning_points_until(horizon):
                if vertex.time <= horizon:
                    push(
                        TurnEvent(
                            timeline.wall_of(vertex.time),
                            robot.index,
                            vertex.position,
                        )
                    )
            for t in plan.visit_times(self.target, horizon):
                wall = timeline.wall_of(t)
                is_detection = (
                    robot.index == detecting_robot
                    and times_close(wall, detection_time)
                )
                if is_detection:
                    continue  # rendered as the final DetectionEvent below
                detected = genuine is not None and times_close(t, genuine)
                push(
                    TargetVisitEvent(
                        wall, robot.index, self.target, detected=detected
                    )
                )
            if robot.behavior is not None:
                halt = robot.behavior.halt_time
                if halt is not None and halt <= horizon:
                    push(
                        CrashEvent(
                            timeline.wall_of(halt),
                            robot.index,
                            plan.position_at(halt),
                        )
                    )
                for t in robot.behavior.false_alarm_times(
                    plan, self.target, until=horizon
                ):
                    push(
                        FalseAlarmEvent(
                            timeline.wall_of(t),
                            robot.index,
                            plan.position_at(t),
                        )
                    )
        if detecting_robot is not None:
            push(
                DetectionEvent(detection_time, detecting_robot, self.target)
            )
        # The heap key (time, is_detection, robot_index, push-order)
        # reproduces the continuous engine's stable event sort: ties
        # resolve by robot index, the DetectionEvent closes the log even
        # on an exact tie, and same-robot same-instant events keep their
        # turn → visit → crash → alarm emission order.
        return [entry[4] for entry in (heapq.heappop(heap) for _ in range(len(heap)))]

"""The search scenario engine: one assign → detect → render core.

Runs one scenario — a fleet, a target, a fault assignment — and produces
the detection time plus a chronological event log.  Because trajectories
are analytic, the engine does not integrate motion step by step; it
computes visit and turn times exactly and then *renders* them as a
discrete event timeline, which is both faster and free of discretization
error.

The core is three functions shared by every engine that runs a plan:

* :func:`draw_faults` asks the fault model for its behavior map once and
  checks it against the model's budget;
* :func:`detect` computes each robot's *genuine* detection time once,
  maps it to wall time, and picks the detecting robot by the one
  ``times_close`` rule;
* :func:`render_events` renders turns, target visits, crashes and false
  alarms up to detection, stably sorted by
  ``(time, is_detection, robot_index)``.

Plan time is mapped to wall time by :func:`wall_time` (and back by
:func:`plan_time`) through optional per-robot
:class:`~repro.async_sched.timeline.Timeline` maps.  With no timelines
— :class:`SearchSimulation`, the synchronous engine — plan time *is*
wall time and no timeline is built; the scheduled-time
:class:`~repro.async_sched.engine.EventEngine` passes one timeline per
robot, and the Byzantine confirmation simulation takes its genuine
detections from :func:`detect` and maps its other plan-derived instants
through the same two functions.

:class:`SearchSimulation` is the executable counterpart of Definition
3: with the adversarial fault model, the detection time it reports
equals ``T_{f+1}(x)``.  Generalized fault behaviors (crash-stop,
Byzantine false alarms, probabilistic detection — see
:mod:`repro.robots.behaviors`) are honored through the same path: each
robot contributes its *genuine* detection time, crash-stop truncations
shape the rendered trajectory, and spurious Byzantine claims appear in
the log as :class:`~repro.simulation.events.FalseAlarmEvent` without
ever terminating the search.
"""

from __future__ import annotations

import math
import time
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.core.tolerance import times_close
from repro.errors import InvalidParameterError, SimulationError
from repro.observability import instrument as obs
from repro.robots.behaviors import FaultBehavior
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

if TYPE_CHECKING:
    from repro.async_sched.timeline import Timeline

__all__ = ["SearchSimulation", "simulate_search"]


# ----------------------------------------------------------------------
# the core: assign → detect → render
# ----------------------------------------------------------------------

def check_scenario(fleet: Fleet, target: float) -> float:
    """The guard of every engine constructor: ``fleet`` must be a
    :class:`~repro.robots.fleet.Fleet` and ``target`` a nonzero finite
    real, returned as a float."""
    if not isinstance(fleet, Fleet):
        raise InvalidParameterError(f"fleet must be a Fleet, got {fleet!r}")
    if target == 0.0 or not math.isfinite(target):
        raise InvalidParameterError(
            f"target must be a nonzero finite real, got {target!r}"
        )
    return float(target)


def wall_time(
    timelines: Optional[Sequence["Timeline"]], index: int, plan_t: float
) -> float:
    """Wall time at which robot ``index`` reaches plan instant ``plan_t``;
    ``plan_t`` itself when no scheduler timelines run."""
    if timelines is None:
        return plan_t
    return timelines[index].wall_of(plan_t)


def plan_time(
    timelines: Optional[Sequence["Timeline"]], index: int, wall_t: float
) -> float:
    """Plan progress of robot ``index`` at wall instant ``wall_t``;
    ``wall_t`` itself when no scheduler timelines run."""
    if timelines is None:
        return wall_t
    return timelines[index].plan_of(wall_t)


def draw_faults(
    fleet: Fleet, target: float, fault_model: FaultModel
) -> Dict[int, FaultBehavior]:
    """The fault model's behavior map, checked against its budget.

    A stochastic model redraws per call, so every engine asks for the
    map exactly once and derives everything else from it.

    Raises:
        SimulationError: if the model assigns more faults than its own
            budget (a broken model).
    """
    assignment = fault_model.behaviors(fleet, target)
    if len(assignment) > fault_model.fault_budget:
        raise SimulationError(
            f"fault model assigned {len(assignment)} faults, more than "
            f"its budget {fault_model.fault_budget}"
        )
    return assignment


class Detection(NamedTuple):
    """Who detects the target, and when (see :func:`detect`)."""

    #: Per-robot genuine detection instants in plan time (``None`` =
    #: that robot never genuinely detects).
    plan_times: List[Optional[float]]
    #: The same instants in wall time.
    wall_times: List[Optional[float]]
    #: The earliest wall time (``inf`` when no robot detects).
    time: float
    #: The first robot whose wall time is close to ``time``, or ``None``.
    robot: Optional[int]


def detect(
    assigned: Fleet,
    target: float,
    timelines: Optional[Sequence["Timeline"]] = None,
) -> Detection:
    """Each robot's genuine detection time, computed once, and the
    first robot to detect in wall time."""
    plan_times = [robot.detection_time_for(target) for robot in assigned]
    wall_times = [
        None if t is None else wall_time(timelines, i, t)
        for i, t in enumerate(plan_times)
    ]
    detection_time = min(
        (t for t in wall_times if t is not None), default=math.inf
    )
    robot = None
    if math.isfinite(detection_time):
        robot = next(
            i for i, t in enumerate(wall_times)
            if t is not None and times_close(t, detection_time)
        )
    return Detection(plan_times, wall_times, detection_time, robot)


def render_events(
    assigned: Fleet,
    target: float,
    detection: Detection,
    timelines: Optional[Sequence["Timeline"]] = None,
) -> List[Event]:
    """The event log up to and including ``detection``, in wall time.

    Each robot's plan horizon is its plan progress at the wall
    detection time: an event at plan time ``t`` renders at wall time
    ``wall_time(t)``, and by monotonicity that is at most the detection
    time iff ``t`` is at most the horizon.
    """
    detection_time, detecting_robot = detection.time, detection.robot
    events: List[Event] = []
    for robot in assigned:
        index = robot.index
        plan = robot.effective_trajectory
        horizon = plan_time(timelines, index, detection_time)
        genuine = detection.plan_times[index]
        for vertex in plan.turning_points_until(horizon):
            if vertex.time <= horizon:
                events.append(
                    TurnEvent(
                        wall_time(timelines, index, vertex.time),
                        index,
                        vertex.position,
                    )
                )
        for t in plan.visit_times(target, horizon):
            wall = wall_time(timelines, index, t)
            if index == detecting_robot and times_close(wall, detection_time):
                continue  # rendered as the final DetectionEvent below
            # A visit detects exactly when the robot's behavior says
            # this is its genuine detection instant; every other
            # logged visit is a miss (faulty robot, failed
            # probabilistic draw, or post-detection tie).
            detected = genuine is not None and times_close(t, genuine)
            events.append(
                TargetVisitEvent(wall, index, target, detected=detected)
            )
        behavior = robot.behavior
        if behavior is not None:
            halt = behavior.halt_time
            if halt is not None and halt <= horizon:
                events.append(
                    CrashEvent(
                        wall_time(timelines, index, halt),
                        index,
                        plan.position_at(halt),
                    )
                )
            for t in behavior.false_alarm_times(plan, target, until=horizon):
                events.append(
                    FalseAlarmEvent(
                        wall_time(timelines, index, t),
                        index,
                        plan.position_at(t),
                    )
                )
    if detecting_robot is not None:
        events.append(DetectionEvent(detection_time, detecting_robot, target))
    # Chronological, ties broken by robot index — except the final
    # DetectionEvent, which closes the log even when another robot's
    # visit ties the detection instant exactly.  The sort is stable, so
    # same-robot same-instant events keep their turn → visit → crash →
    # alarm emission order.
    events.sort(
        key=lambda e: (e.time, isinstance(e, DetectionEvent), e.robot_index)
    )
    return events


class SearchSimulation:
    """One search scenario, ready to run.

    Attributes:
        fleet: The robots.
        target: Target position (nonzero; the paper assumes ``|x| >= 1``
            but the engine accepts any nonzero target and leaves the
            normalization to callers).
        fault_model: Strategy deciding the faulty subset; defaults to the
            paper's worst-case adversary with budget 0 (no faults).
        check_invariants: When true, every :meth:`run` audits its own
            outcome with :func:`repro.simulation.invariants.check_outcome`
            and raises :class:`~repro.errors.InvariantViolationError` on
            any inconsistency.  Off by default — the audit re-derives
            visit statistics and roughly doubles the per-scenario cost.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> from repro.robots import AdversarialFaults
        >>> sim = SearchSimulation(
        ...     Fleet.from_algorithm(ProportionalAlgorithm(3, 1)),
        ...     target=2.0,
        ...     fault_model=AdversarialFaults(1),
        ... )
        >>> outcome = sim.run()
        >>> outcome.detected
        True
        >>> outcome.competitive_ratio <= 5.24
        True
    """

    def __init__(
        self,
        fleet: Fleet,
        target: float,
        fault_model: Optional[FaultModel] = None,
        check_invariants: bool = False,
    ) -> None:
        target = check_scenario(fleet, target)
        self.fleet = fleet
        self.target = target
        self.fault_model = fault_model or AdversarialFaults(0)
        self.check_invariants = bool(check_invariants)

    def run(self, with_events: bool = True) -> SearchOutcome:
        """Execute the scenario.

        Args:
            with_events: Whether to reconstruct the event log (turns,
                target visits, crashes, and false alarms up to
                detection).  Disable for bulk measurements where only
                the detection time matters; ignored (forced on) when
                ``check_invariants`` is set, since the audit needs the
                log.

        Raises:
            SimulationError: if the fault model returns more faults than
                its own budget (a broken model).
            InvariantViolationError: if ``check_invariants`` is set and
                the outcome fails its audit.
        """
        telemetry = obs.current()
        started = time.perf_counter() if telemetry is not None else 0.0
        with obs.span(
            "simulation.run",
            target=self.target,
            n=self.fleet.size,
            fault_model=type(self.fault_model).__name__,
        ):
            with obs.span("simulation.adversary"):
                assignment = draw_faults(
                    self.fleet, self.target, self.fault_model
                )
            with obs.span("simulation.trajectories"):
                assigned = self.fleet.with_fault_behaviors(assignment)
            with obs.span("simulation.visits"):
                detection = detect(assigned, self.target)
            events: List[Event] = []
            if (with_events or self.check_invariants) and math.isfinite(
                detection.time
            ):
                with obs.span("simulation.events"):
                    events = render_events(assigned, self.target, detection)
            outcome = SearchOutcome(
                target=self.target,
                detection_time=detection.time,
                detecting_robot=detection.robot,
                faulty_robots=frozenset(assignment),
                events=tuple(events),
            )
            if self.check_invariants:
                from repro.simulation.invariants import check_outcome

                fault_budget = (
                    self.fault_model.fault_budget
                    if isinstance(self.fault_model, AdversarialFaults)
                    else None
                )
                with obs.span("simulation.invariants"):
                    check_outcome(
                        outcome, fleet=assigned, fault_budget=fault_budget
                    )
        if telemetry is not None:
            obs.count("simulation_runs_total")
            obs.count(
                "simulation_visits_computed_total",
                sum(1 for e in events if isinstance(e, TargetVisitEvent))
                + (1 if detection.robot is not None and events else 0),
            )
            obs.observe(
                "simulation_wall_seconds", time.perf_counter() - started
            )
        return outcome


def simulate_search(
    trajectories: Iterable,
    target: float,
    fault_budget: int = 0,
) -> SearchOutcome:
    """Convenience wrapper: worst-case scenario from raw trajectories.

    Examples:
        >>> from repro.trajectory import DoublingTrajectory
        >>> outcome = simulate_search([DoublingTrajectory()], target=-1.0)
        >>> outcome.detection_time
        3.0
    """
    fleet = Fleet.from_trajectories(trajectories)
    sim = SearchSimulation(
        fleet, target, fault_model=AdversarialFaults(fault_budget)
    )
    return sim.run()

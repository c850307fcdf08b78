"""The ``evacuation`` variant: commit, then gather (arXiv:2605.08355).

**Domain** — the whole line, searched by the Byzantine confirmation
schedule for ``(n, f)``: evacuation inherits the claim/commit machinery
wholesale, because with faulty agents the evacuation point must be
*committed* through a quorum before anyone dares converge on it.

**Termination predicate** — the new part: the run is over only when
every *reliable* robot stands at the committed point.  After the
protocol commits at ``t_c``, each robot walks straight from wherever it
is (its searching position, or its verification-diversion position for
robots in the final claim's pool) to the committed position at unit
speed; :class:`~repro.simulation.events.GatherEvent` records each
arrival.  ``detection_time`` of the returned
:class:`EvacuationOutcome` is the *evacuation* time — the latest
reliable arrival — so campaigns, executors, and perf workloads score
the variant's real objective without special cases.

**Feasibility** — ``n >= 2f + 1`` (a reliable majority), the
near-majority bound of :mod:`repro.core.evacuation`; infeasible specs
are rejected eagerly at build time.

Crash-stop robots never gather (their halt strands them), which is
consistent with the predicate: they are faulty, and faulty robots are
excluded from it.  Other faulty robots do walk to the point and their
arrivals are logged with ``reliable=False`` — the invariant audits
(:mod:`repro.variants.invariants`) verify they are never counted toward
the evacuation time.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.byzantine.outcome import ByzantineOutcome
from repro.byzantine.simulate import ByzantineSearchSimulation
from repro.core.evacuation import evacuation_feasible, min_evacuation_fleet
from repro.errors import InvalidParameterError, SimulationError
from repro.observability import instrument as obs
from repro.robots.behaviors import CrashStopFault, FaultBehavior
from repro.robots.fleet import Fleet
from repro.robustness.plan import run_plan
from repro.simulation.events import Event, GatherEvent
from repro.variants.base import ProblemVariant

__all__ = [
    "EvacuationOutcome",
    "EvacuationSearchSimulation",
    "EvacuationVariant",
]


@dataclass(frozen=True)
class EvacuationOutcome(ByzantineOutcome):
    """Result of one commit-then-gather evacuation run.

    ``detection_time`` is the *evacuation* time — the instant the last
    reliable robot reached the committed point — so
    ``competitive_ratio`` is the evacuation ratio of arXiv:2605.08355.
    The commit instant is kept separately.

    Attributes (beyond :class:`~repro.byzantine.outcome.ByzantineOutcome`):
        commit_time: When the confirmation quorum committed the point
            (``inf`` when the search never terminated).
        straggler: The reliable robot whose arrival completed the
            evacuation, or ``None`` when it never completed.
        gathered_reliable: How many reliable robots reached the point.

    Examples:
        >>> outcome = EvacuationOutcome(
        ...     2.0, 10.0, 1, frozenset({0}),
        ...     committed_position=2.0, quorum=2, commit_time=6.0,
        ...     straggler=2, gathered_reliable=2,
        ... )
        >>> outcome.competitive_ratio
        5.0
        >>> outcome.gather_overhead
        4.0
    """

    commit_time: float = math.inf
    straggler: Optional[int] = None
    gathered_reliable: int = 0

    @property
    def evacuated(self) -> bool:
        """Whether every reliable robot reached the committed point."""
        return math.isfinite(self.detection_time)

    @property
    def gather_overhead(self) -> float:
        """Time the gather phase added on top of the commit."""
        if not self.evacuated or not math.isfinite(self.commit_time):
            return math.inf
        return self.detection_time - self.commit_time

    def describe(self) -> str:
        base = super().describe()
        if not self.evacuated:
            return base + "\nevacuation: never completed"
        straggler = (
            f" (straggler a_{self.straggler})"
            if self.straggler is not None
            else ""
        )
        extra = (
            f"evacuation: committed at t={self.commit_time:.6g}, "
            f"{self.gathered_reliable} reliable robot(s) gathered by "
            f"t={self.detection_time:.6g}{straggler}"
        )
        return base + "\n" + extra


class EvacuationSearchSimulation(ByzantineSearchSimulation):
    """Confirmation-protocol search followed by a gather phase.

    Runs the parent protocol loop unchanged to the commit, then walks
    every robot straight to the committed point and records per-robot
    :class:`~repro.simulation.events.GatherEvent` arrivals:

    * the claimant and verifiers already at the point at commit time
      arrive *at* the commit instant;
    * verifiers still mid-flight toward the final claim complete their
      diversion and arrive at their recorded arrival time;
    * every other robot departs its searching position at commit time;
    * crash-stop robots never arrive.

    Examples:
        >>> from repro.schedule.byzantine import ByzantineConfirmationAlgorithm
        >>> fleet = Fleet.from_algorithm(ByzantineConfirmationAlgorithm(3, 1))
        >>> outcome = EvacuationSearchSimulation(fleet, 2.0).run()
        >>> outcome.evacuated and outcome.committed_truthfully
        True
        >>> outcome.detection_time >= outcome.commit_time
        True
    """

    def run(self) -> EvacuationOutcome:
        telemetry = obs.current()
        started = _time.perf_counter() if telemetry is not None else 0.0
        with obs.span(
            "variants.evacuation",
            target=self.target,
            n=self.fleet.size,
            f=self.fault_model.fault_budget,
        ):
            behaviors = self.fault_model.behaviors(self.fleet, self.target)
            if len(behaviors) > self.fault_model.fault_budget:
                raise SimulationError(
                    f"fault model assigned {len(behaviors)} faults, more "
                    f"than its budget {self.fault_model.fault_budget}"
                )
            commit = self._run_protocol(behaviors)
            outcome = self._gather(commit, behaviors)
        if telemetry is not None:
            obs.count("variants_runs_total")
            obs.count("variants_evacuations_total")
            obs.count(
                "variants_gather_arrivals_total",
                sum(
                    1
                    for event in outcome.events
                    if isinstance(event, GatherEvent)
                ),
            )
            obs.observe(
                "variants_wall_seconds", _time.perf_counter() - started
            )
        if self.check_invariants:
            from repro.variants.invariants import check_evacuation_outcome

            check_evacuation_outcome(
                outcome,
                quorum=self.protocol.quorum,
                fault_budget=self.fault_model.fault_budget,
                fleet_size=self.fleet.size,
            )
        return outcome

    # ------------------------------------------------------------------
    # gather phase
    # ------------------------------------------------------------------

    def _gather(
        self,
        commit: ByzantineOutcome,
        behaviors: Dict[int, FaultBehavior],
    ) -> EvacuationOutcome:
        if (
            not math.isfinite(commit.detection_time)
            or commit.committed_position is None
        ):
            return EvacuationOutcome(
                target=commit.target,
                detection_time=math.inf,
                detecting_robot=None,
                faulty_robots=commit.faulty_robots,
                events=commit.events,
                committed_position=None,
                quorum=commit.quorum,
                claims_raised=commit.claims_raised,
                claims_refuted=commit.claims_refuted,
                commit_time=math.inf,
            )
        t_c = commit.detection_time
        point = commit.committed_position
        events: List[Event] = list(commit.events)
        arrivals = self._gather_arrivals(t_c, point, behaviors)
        reliable: List[Tuple[float, int]] = []
        for robot, arrival in arrivals:
            is_reliable = robot not in behaviors
            events.append(
                GatherEvent(arrival, robot, point, reliable=is_reliable)
            )
            if is_reliable:
                reliable.append((arrival, robot))
        if reliable:
            evacuation_time, straggler = max(reliable)
        else:
            # Degenerate direct use (no reliable robot at all): the
            # commit itself is the last thing that happens.
            evacuation_time, straggler = t_c, None
        return EvacuationOutcome(
            target=commit.target,
            detection_time=evacuation_time,
            detecting_robot=commit.detecting_robot,
            faulty_robots=commit.faulty_robots,
            events=tuple(sorted(events, key=lambda e: e.time)),
            committed_position=point,
            quorum=commit.quorum,
            claims_raised=commit.claims_raised,
            claims_refuted=commit.claims_refuted,
            commit_time=t_c,
            straggler=straggler,
            gathered_reliable=len(reliable),
        )

    def _gather_arrivals(
        self,
        t_c: float,
        point: float,
        behaviors: Dict[int, FaultBehavior],
    ) -> List[Tuple[int, float]]:
        """``(robot, arrival time)`` for every robot that gathers."""
        record = self._final_claim
        pool = set(record.pool) if record is not None else set()
        flight: Dict[int, float] = {}
        if record is not None:
            for arrival, j, _travel in record.arrivals:
                flight[j] = max(arrival, t_c)
            flight[record.claimant] = t_c
        arrivals: List[Tuple[int, float]] = []
        for i in range(self.fleet.size):
            if isinstance(behaviors.get(i), CrashStopFault):
                continue  # stranded: a halted robot cannot walk anywhere
            if i in flight:
                arrivals.append((i, flight[i]))
            elif i in pool:
                # In the pool but filtered from arrivals: only crash-stop
                # robots are, and those were skipped above.
                continue
            else:
                position = self._position(self._plans, self._delays, i, t_c)
                arrivals.append((i, t_c + abs(position - point)))
        return arrivals


class EvacuationVariant(ProblemVariant):
    """Search-and-evacuation with a near majority of faulty agents.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec, build_scenario
        >>> spec = ScenarioSpec(3, 1, 2.0, "none", variant="evacuation")
        >>> outcome = EvacuationVariant().run(
        ...     build_scenario(spec), check_invariants=False
        ... )
        >>> outcome.evacuated
        True
        >>> outcome.detection_time >= outcome.commit_time
        True
    """

    name = "evacuation"

    def validate_spec(self, spec: Any) -> None:
        if not evacuation_feasible(spec.n, spec.f):
            raise InvalidParameterError(
                f"evacuation with f={spec.f} faulty agents needs a "
                f"reliable majority: n >= {min_evacuation_fleet(spec.f)}, "
                f"got n={spec.n}"
            )

    def algorithm(self, spec: Any) -> Tuple[Callable[..., Any], Tuple]:
        from repro.schedule.byzantine import ByzantineConfirmationAlgorithm

        return ByzantineConfirmationAlgorithm, (spec.n, spec.f)

    def run(self, scenario: Any, check_invariants: bool = True) -> Any:
        # Defined in the class body (not inherited) so benchmarks/e2e's
        # tracing shim can wrap it as the ``variants.run`` layer.
        return run_plan(scenario, check_invariants)

"""Event simulation of the confirmation protocol under lying robots.

The engine in :mod:`repro.simulation.engine` terminates on the first
*genuine* detection — correct against crash faults, catastrophically
wrong against Byzantine ones, where a single false alarm would end the
search at a point the target is not at.  This module runs the search
the way arXiv:1611.08209 prescribes:

1. robots follow the crash-fault schedule for ``(n, f)``;
2. any detection announcement (genuine or a lie) opens a *claim* at
   the announced position instead of terminating;
3. the ``2f + 1`` robots nearest the claimed point divert to it and
   vote "present"/"absent" on arrival (the claimant votes at claim
   time); ``f + 1`` matching votes commit or refute the claim
   (:class:`~repro.byzantine.protocol.ConfirmationProtocol`);
4. a refutation sends every diverted robot back to where it left its
   schedule, its future shifted by the diversion cost, and the search
   resumes; a commit ends the search.

Claims are processed serially in time order — a later alarm queues
until the current claim resolves, which models a shared announcement
channel and keeps the adversary from fragmenting the verifier pool.

Diversion accounting is exact under unit speed: a verifier that left
its track at claim time ``t_c``, travelled ``d`` to the claimed point,
and saw the claim refuted at ``t_r`` resumes its schedule delayed by
``(t_r - t_c) + d`` (wait plus return travel); one still mid-flight
turns straight back, delayed by ``2 (t_r - t_c)``.  Each robot ``i``
therefore carries an accumulated delay ``D_i`` and its searching
position at absolute time ``t`` is ``plan_i(t - D_i)``.

Fault semantics during verification:

* reliable robots vote what they sense at the claimed point;
* Byzantine robots vote adversarially (present on lies, absent on the
  truth) — and their alarms come from their
  :class:`~repro.robots.behaviors.ByzantineFalseAlarmFault` schedule;
* crash-stop robots vote truthfully while alive and never arrive after
  their halt time;
* probabilistic robots vote truthfully about false points and sense
  the true target with their seeded per-visit probability.

Scheduled-time composition: pass ``timelines`` (one
:class:`~repro.async_sched.timeline.Timeline` per robot, e.g. from
:func:`repro.async_sched.engine.timelines_for`) and every *plan-derived*
instant — genuine detections, Byzantine alarm times, crash-stop halt
checks — is mapped through the robot's wall↔plan map before entering
the protocol, by the scenario core's
:func:`~repro.simulation.engine.wall_time` and
:func:`~repro.simulation.engine.plan_time` (the identity without
timelines).  Claim verification itself stays in wall time: a claim is
an announcement that *wakes* the diverted robots, so diversion travel
and voting proceed at unit speed regardless of the activation schedule
(the scheduler governs searching, not responding to an alarm).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.tolerance import times_close
from repro.errors import InvalidParameterError, SimulationError
from repro.observability import instrument as obs
from repro.robots.behaviors import (
    ByzantineFalseAlarmFault,
    CrashDetectionFault,
    CrashStopFault,
    FaultBehavior,
    ProbabilisticDetectionFault,
)
from repro.robots.faults import FaultModel
from repro.robots.fleet import Fleet
from repro.simulation.engine import draw_faults, plan_time, wall_time
from repro.simulation.events import (
    ClaimEvent,
    CommitEvent,
    Event,
    FalseAlarmEvent,
    RefuteEvent,
    VoteEvent,
)
from repro.byzantine.outcome import ByzantineOutcome
from repro.byzantine.protocol import ClaimState, ConfirmationProtocol

__all__ = ["ByzantineSearchSimulation", "simulate_byzantine_search"]

#: Claims processed before the simulation declares the adversary
#: unbounded and gives up; liars have finite alarm schedules so any
#: legitimate run resolves far below this.
_MAX_CLAIMS = 10_000


@dataclass(frozen=True)
class _Candidate:
    """A prospective claim: (absolute time, claimant, position, genuine)."""

    time: float
    claimant: int
    position: float
    genuine: bool
    alarm_id: Optional[Tuple[int, int]]  # (robot, alarm ordinal) for lies


class ByzantineSearchSimulation:
    """One confirmation-protocol scenario, ready to run.

    Attributes:
        fleet: The robots, following a crash-fault schedule for
            ``(n, f)``.
        target: True target position (nonzero finite).
        fault_model: Decides which robots are faulty and how; its
            budget is the ``f`` the protocol must tolerate.
        check_invariants: Audit the outcome with
            :func:`repro.byzantine.invariants.check_byzantine_outcome`
            after every run.
        timelines: Optional per-robot wall↔plan maps composing the
            protocol with an activation scheduler (see module
            docstring).  ``None`` means synchronous time (identity
            maps), which preserves the original semantics exactly.

    Examples:
        >>> from repro.schedule import algorithm_for
        >>> from repro.robots import BehavioralFaults, ByzantineFalseAlarmFault
        >>> fleet = Fleet.from_algorithm(algorithm_for(4, 1))
        >>> liars = BehavioralFaults({0: ByzantineFalseAlarmFault([0.5])})
        >>> sim = ByzantineSearchSimulation(fleet, 2.0, liars)
        >>> outcome = sim.run()
        >>> outcome.committed_truthfully
        True
        >>> outcome.claims_refuted
        1
    """

    def __init__(
        self,
        fleet: Fleet,
        target: float,
        fault_model: Optional[FaultModel] = None,
        check_invariants: bool = False,
        timelines: Optional[list] = None,
    ) -> None:
        if not isinstance(fleet, Fleet):
            raise InvalidParameterError(f"fleet must be a Fleet, got {fleet!r}")
        if target == 0.0 or not math.isfinite(target):
            raise InvalidParameterError(
                f"target must be a nonzero finite real, got {target!r}"
            )
        if timelines is not None and len(timelines) != fleet.size:
            raise InvalidParameterError(
                f"need one timeline per robot ({fleet.size}), got "
                f"{len(timelines)}"
            )
        self.fleet = fleet
        self.target = float(target)
        if fault_model is None:
            from repro.robots.faults import BehavioralFaults

            fault_model = BehavioralFaults({})
        self.fault_model = fault_model
        self.protocol = ConfirmationProtocol(fleet.size, fault_model.fault_budget)
        self.check_invariants = bool(check_invariants)
        self._timelines = list(timelines) if timelines is not None else None

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self) -> ByzantineOutcome:
        """Execute the scenario and return the protocol outcome."""
        telemetry = obs.current()
        started = _time.perf_counter() if telemetry is not None else 0.0
        with obs.span(
            "byzantine.run",
            target=self.target,
            n=self.fleet.size,
            f=self.fault_model.fault_budget,
        ):
            behaviors = draw_faults(self.fleet, self.target, self.fault_model)
            outcome = self._run_protocol(behaviors)
        if telemetry is not None:
            obs.count("byzantine_runs_total")
            obs.count("byzantine_claims_total", outcome.claims_raised)
            obs.count("byzantine_refutes_total", outcome.claims_refuted)
            obs.observe(
                "byzantine_wall_seconds", _time.perf_counter() - started
            )
        if self.check_invariants:
            from repro.byzantine.invariants import check_byzantine_outcome

            check_byzantine_outcome(
                outcome, quorum=self.protocol.quorum,
                fault_budget=self.fault_model.fault_budget,
            )
        return outcome

    # ------------------------------------------------------------------
    # protocol loop
    # ------------------------------------------------------------------

    def _run_protocol(
        self, behaviors: Dict[int, FaultBehavior]
    ) -> ByzantineOutcome:
        n = self.fleet.size
        plans = [
            behaviors[i].apply_trajectory(t) if i in behaviors else t
            for i, t in enumerate(self.fleet.trajectories)
        ]
        delays = [0.0] * n
        events: List[Event] = []
        # Expose the protocol's live motion state (mutated in place as
        # claims resolve) for subclasses that extend the run past the
        # commit — the evacuation gather phase needs every robot's
        # position at commit time.
        self._plans = plans
        self._delays = delays
        self._final_claim = None

        # Genuine detection instants in each robot's own schedule time.
        genuine_base: List[Optional[float]] = []
        for i in range(n):
            if i in behaviors:
                genuine_base.append(
                    behaviors[i].detection_time(
                        self.fleet.trajectories[i], self.target
                    )
                )
            else:
                genuine_base.append(plans[i].first_visit_time(self.target))

        # Lie schedule: every alarm of every Byzantine robot, absolute
        # in the liar's own schedule time (shifted by its delay when
        # the claim is actually raised).
        pending_alarms: List[Tuple[int, int, float]] = []  # (robot, ordinal, t)
        for i, behavior in behaviors.items():
            for ordinal, t in enumerate(
                behavior.false_alarm_times(plans[i], self.target, math.inf)
            ):
                pending_alarms.append((i, ordinal, t))
        consumed: set = set()

        # Seeded vote draws for probabilistic sensors, one stream per
        # robot so replays are exact.
        import random as _random

        vote_rngs: Dict[int, _random.Random] = {
            i: _random.Random((b.seed * 1_000_003) ^ 0x5F3759DF)
            for i, b in behaviors.items()
            if isinstance(b, ProbabilisticDetectionFault)
        }

        now = 0.0
        claims_raised = 0
        claims_refuted = 0
        for _ in range(_MAX_CLAIMS):
            candidate = self._next_candidate(
                now, plans, delays, behaviors, genuine_base,
                pending_alarms, consumed,
            )
            if candidate is None:
                # No robot will ever (truthfully or otherwise) claim
                # again: the target is undetectable under this fault
                # assignment.
                return self._outcome(
                    math.inf, None, None, behaviors, events,
                    claims_raised, claims_refuted,
                )
            claims_raised += 1
            if not candidate.genuine:
                consumed.add(candidate.alarm_id)
                events.append(
                    FalseAlarmEvent(
                        candidate.time, candidate.claimant, candidate.position
                    )
                )
            events.append(
                ClaimEvent(candidate.time, candidate.claimant, candidate.position)
            )
            record, votes = self._verify(
                candidate, plans, delays, behaviors, vote_rngs
            )
            events.extend(votes)
            if record.state is ClaimState.COMMITTED:
                self._final_claim = record
                decisive = record.votes[-1].robot_index
                events.append(
                    CommitEvent(
                        record.resolve_time, decisive, record.position,
                        votes=record.present_votes,
                    )
                )
                return self._outcome(
                    record.resolve_time, candidate.claimant,
                    record.position, behaviors, events,
                    claims_raised, claims_refuted,
                )
            # refuted: charge diversions and resume the search
            claims_refuted += 1
            decisive = record.votes[-1].robot_index
            events.append(
                RefuteEvent(
                    record.resolve_time, decisive, record.position,
                    votes=record.absent_votes,
                )
            )
            self._charge_diversions(record, delays)
            now = record.resolve_time
        raise SimulationError(
            f"confirmation protocol did not resolve within {_MAX_CLAIMS} "
            "claims — unbounded alarm schedule?"
        )

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _position(self, plans, delays, i: int, t: float) -> float:
        """Searching position of robot ``i`` at absolute time ``t``."""
        return plans[i].position_at(
            plan_time(self._timelines, i, max(0.0, t - delays[i]))
        )

    def _next_candidate(
        self, now, plans, delays, behaviors, genuine_base,
        pending_alarms, consumed,
    ) -> Optional[_Candidate]:
        """Earliest claim (genuine or lie) raised at or after ``now``."""
        best: Optional[_Candidate] = None
        for i, base in enumerate(genuine_base):
            if base is None:
                continue
            t = max(wall_time(self._timelines, i, base) + delays[i], now)
            if best is None or (t, i) < (best.time, best.claimant):
                best = _Candidate(t, i, self.target, True, None)
        for (i, ordinal, base) in pending_alarms:
            if (i, ordinal) in consumed:
                continue
            t = max(wall_time(self._timelines, i, base) + delays[i], now)
            if best is None or (t, i) < (best.time, best.claimant):
                # the lie: "the target is right here, where I stand"
                position = self._position(plans, delays, i, t)
                best = _Candidate(t, i, position, False, (i, ordinal))
        return best

    def _verify(
        self, candidate, plans, delays, behaviors, vote_rngs
    ):
        """Divert the nearest pool, collect votes, resolve the claim."""
        t_c, p = candidate.time, candidate.position
        n = self.fleet.size
        record = self.protocol.open_claim(candidate.claimant, p, t_c)
        votes: List[Event] = [
            VoteEvent(t_c, candidate.claimant, p, present=True)
        ]
        # Nearest pool_size robots at claim time (claimant included —
        # it stands at the claimed point); a verifier travels exactly
        # the distance it was ranked by.
        distance = [
            abs(self._position(plans, delays, i, t_c) - p) for i in range(n)
        ]
        ranked = sorted(range(n), key=lambda i: (distance[i], i))
        pool = ranked[: self.protocol.pool_size]
        record.pool = tuple(pool)  # for diversion accounting
        arrivals = []
        for j in pool:
            if j == candidate.claimant:
                continue
            travel = distance[j]
            arrival = t_c + travel
            behavior = behaviors.get(j)
            if isinstance(behavior, CrashStopFault):
                # a crashed robot neither travels nor votes; the halt is
                # a plan instant, so compare in plan time
                if (
                    plan_time(self._timelines, j, arrival - delays[j])
                    > behavior.halt_time
                ):
                    continue
            arrivals.append((arrival, j, travel))
        arrivals.sort()
        for arrival, j, _travel in arrivals:
            if record.state is not ClaimState.PENDING:
                break
            present = self._vote_of(j, p, behaviors, vote_rngs)
            votes.append(VoteEvent(arrival, j, p, present=present))
            self.protocol.cast_vote(record, j, arrival, present)
        if record.state is ClaimState.PENDING:
            raise SimulationError(
                f"claim at x={p:.6g} never resolved — verifier pool "
                "exhausted below quorum (fleet too small?)"
            )
        record.arrivals = tuple(arrivals)  # for diversion accounting
        return record, votes

    def _vote_of(self, j, p, behaviors, vote_rngs) -> bool:
        """Robot ``j``'s verdict on "the target is at ``p``"."""
        is_target = times_close(p, self.target)
        behavior = behaviors.get(j)
        if behavior is None or isinstance(behavior, CrashStopFault):
            return is_target
        if isinstance(behavior, ByzantineFalseAlarmFault):
            return not is_target  # maximally adversarial
        if isinstance(behavior, CrashDetectionFault):
            return False  # its sensor never fires, truthfully reported
        if isinstance(behavior, ProbabilisticDetectionFault):
            if not is_target:
                return False
            return vote_rngs[j].random() < behavior.detection_probability
        return is_target

    def _charge_diversions(self, record, delays) -> None:
        """Delay every diverted robot by its wasted travel + wait."""
        t_c, t_r = record.claim_time, record.resolve_time
        # the claimant stood at the claimed point the whole time
        delays[record.claimant] += t_r - t_c
        for arrival, j, travel in record.arrivals:
            if arrival <= t_r:
                # reached the point, waited, walks back
                delays[j] += (t_r - t_c) + travel
            else:
                # mid-flight at refutation: turn straight back
                delays[j] += 2.0 * (t_r - t_c)

    def _outcome(
        self, detection_time, claimant, position, behaviors, events,
        claims_raised, claims_refuted,
    ) -> ByzantineOutcome:
        # The loop appends in causal order and times never decrease
        # across claims, so a *stable* time sort keeps ties (a refute
        # and the next claim at the same instant) causally ordered.
        events = sorted(events, key=lambda e: e.time)
        return ByzantineOutcome(
            target=self.target,
            detection_time=detection_time,
            detecting_robot=claimant,
            faulty_robots=frozenset(behaviors),
            events=tuple(events),
            committed_position=position,
            quorum=self.protocol.quorum,
            claims_raised=claims_raised,
            claims_refuted=claims_refuted,
        )


def simulate_byzantine_search(
    fleet: Fleet,
    target: float,
    fault_model: Optional[FaultModel] = None,
    check_invariants: bool = False,
) -> ByzantineOutcome:
    """Convenience wrapper mirroring :func:`repro.simulation.simulate_search`.

    Examples:
        >>> from repro.schedule import algorithm_for
        >>> fleet = Fleet.from_algorithm(algorithm_for(3, 1))
        >>> simulate_byzantine_search(fleet, -2.0).committed_truthfully
        True
    """
    return ByzantineSearchSimulation(
        fleet, target, fault_model, check_invariants
    ).run()

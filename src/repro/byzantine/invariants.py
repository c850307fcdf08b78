"""Runtime audits of confirmation-protocol outcomes.

The safety property of the Byzantine layer is brutal and simple: **the
search must never terminate on an unconfirmed claim, and a committed
claim must be the true target.**  These audits re-derive that from the
event log alone, mirroring :mod:`repro.simulation.invariants` for the
crash-fault engine:

* ``unconfirmed_termination`` — a detected outcome whose log has no
  :class:`~repro.simulation.events.CommitEvent` at the detection time;
* ``commit_below_quorum`` — a commit with fewer "present" votes than
  the quorum logged before it;
* ``false_target_commit`` — the committed position differs from the
  true target (the protocol guarantee is broken, i.e. more robots lied
  than the budget allows);
* ``refute_below_quorum`` — a refutation with fewer "absent" votes;
* ``vote_before_claim`` / ``event_chronology`` — causality of the
  claim/vote/resolve sequence;
* ``liar_budget_exceeded`` — more faulty robots than the budget.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.tolerance import times_close
from repro.errors import InvariantViolationError
from repro.simulation.events import (
    ClaimEvent,
    CommitEvent,
    Event,
    RefuteEvent,
    VoteEvent,
)
from repro.simulation.invariants import InvariantViolation
from repro.byzantine.outcome import ByzantineOutcome

__all__ = ["audit_byzantine_outcome", "check_byzantine_outcome"]


def audit_byzantine_outcome(
    outcome: ByzantineOutcome,
    quorum: Optional[int] = None,
    fault_budget: Optional[int] = None,
) -> List[InvariantViolation]:
    """Audit one protocol outcome; return all violations found."""
    violations: List[InvariantViolation] = []
    quorum = quorum if quorum is not None else outcome.quorum
    events = list(outcome.events)

    # chronology of the full log
    for a, b in zip(events, events[1:]):
        if b.time < a.time and not times_close(a.time, b.time):
            violations.append(
                InvariantViolation(
                    "event_chronology",
                    f"event at t={b.time:.6g} logged after t={a.time:.6g}",
                )
            )
            break

    if fault_budget is not None and len(outcome.faulty_robots) > fault_budget:
        violations.append(
            InvariantViolation(
                "liar_budget_exceeded",
                f"{len(outcome.faulty_robots)} faulty robots exceed the "
                f"budget {fault_budget}",
            )
        )

    commits = [e for e in events if isinstance(e, CommitEvent)]
    if outcome.detected:
        matching = [
            c for c in commits if times_close(c.time, outcome.detection_time)
        ]
        if not matching:
            violations.append(
                InvariantViolation(
                    "unconfirmed_termination",
                    f"search terminated at t={outcome.detection_time:.6g} "
                    "with no commit event at that instant",
                )
            )
        if outcome.committed_position is None:
            violations.append(
                InvariantViolation(
                    "unconfirmed_termination",
                    "detected outcome carries no committed position",
                )
            )
        elif not outcome.committed_truthfully:
            violations.append(
                InvariantViolation(
                    "false_target_commit",
                    f"committed x={outcome.committed_position:.6g} but the "
                    f"target is at x={outcome.target:.6g}",
                )
            )
    else:
        if commits:
            violations.append(
                InvariantViolation(
                    "unconfirmed_termination",
                    "undetected outcome contains a commit event",
                )
            )
        if outcome.committed_position is not None:
            violations.append(
                InvariantViolation(
                    "unconfirmed_termination",
                    "undetected outcome carries a committed position",
                )
            )

    # Per-claim vote accounting, replayed from the log in one pass.
    # Matching is by *log order*, not timestamps: claims are serialized,
    # so the claim a resolution answers is the latest matching-position
    # claim logged before it — timestamps alone can tie (a refutation
    # and the next claim at the same instant) and would mispair.
    claims: List[Tuple[int, ClaimEvent]] = []  # logged so far
    orphan_votes: List[InvariantViolation] = []
    for k, event in enumerate(events):
        if isinstance(event, ClaimEvent):
            claims.append((k, event))
        elif isinstance(event, VoteEvent):
            if not any(
                times_close(claim.position, event.position)
                for _, claim in claims
            ):
                orphan_votes.append(
                    InvariantViolation(
                        "vote_before_claim",
                        f"vote by a_{event.robot_index} at "
                        f"x={event.position:.6g} precedes any claim there",
                    )
                )
        elif isinstance(event, (CommitEvent, RefuteEvent)):
            violations += _resolution_violations(events, k, claims, quorum)
    violations.extend(orphan_votes)

    if outcome.detected and not math.isfinite(outcome.detection_time):
        violations.append(
            InvariantViolation(
                "event_chronology", "detected outcome with non-finite time"
            )
        )
    return violations


def _resolution_violations(
    events: Sequence[Event],
    k: int,
    claims: Sequence[Tuple[int, ClaimEvent]],
    quorum: int,
) -> List[InvariantViolation]:
    """Quorum audits of the resolution ``events[k]``, answering the
    latest of ``claims`` (the claims logged before it) at its position."""
    resolve = events[k]
    opened = next(
        (j for j, claim in reversed(claims)
         if times_close(claim.position, resolve.position)),
        None,
    )
    if opened is None:
        return [
            InvariantViolation(
                "vote_before_claim",
                f"resolution at x={resolve.position:.6g} has no "
                "preceding claim event",
            )
        ]
    wanted = isinstance(resolve, CommitEvent)
    kind = "commit_below_quorum" if wanted else "refute_below_quorum"
    violations: List[InvariantViolation] = []
    matching_votes = [
        events[i]
        for i in range(opened + 1, k)
        if isinstance(events[i], VoteEvent)
        and times_close(events[i].position, resolve.position)
        and events[i].present is wanted
    ]
    if len(matching_votes) < quorum:
        side = "present" if wanted else "absent"
        violations.append(
            InvariantViolation(
                kind,
                f"resolution at x={resolve.position:.6g} logged only "
                f"{len(matching_votes)} {side} votes (quorum {quorum})",
            )
        )
    if resolve.votes < quorum:
        violations.append(
            InvariantViolation(
                kind,
                f"resolution at x={resolve.position:.6g} reports "
                f"{resolve.votes} votes below quorum {quorum}",
            )
        )
    return violations


def check_byzantine_outcome(
    outcome: ByzantineOutcome,
    quorum: Optional[int] = None,
    fault_budget: Optional[int] = None,
) -> None:
    """Raise :class:`InvariantViolationError` on the first audit failure."""
    violations = audit_byzantine_outcome(
        outcome, quorum=quorum, fault_budget=fault_budget
    )
    if violations:
        detail = "; ".join(v.describe() for v in violations)
        raise InvariantViolationError(
            f"byzantine outcome failed {len(violations)} audit(s): {detail}"
        )

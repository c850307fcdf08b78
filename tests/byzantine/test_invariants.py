"""The Byzantine audits must catch every tampered outcome shape."""

import math

import pytest

from repro.byzantine import (
    ByzantineOutcome,
    ByzantineSearchSimulation,
    audit_byzantine_outcome,
    check_byzantine_outcome,
)
from repro.errors import InvariantViolationError
from repro.robots import BehavioralFaults, ByzantineFalseAlarmFault, Fleet
from repro.schedule import algorithm_for
from repro.simulation.events import (
    ClaimEvent,
    CommitEvent,
    RefuteEvent,
    VoteEvent,
)


def _clean_outcome():
    fleet = Fleet.from_algorithm(algorithm_for(5, 2))
    model = BehavioralFaults(
        {
            0: ByzantineFalseAlarmFault([0.5]),
            1: ByzantineFalseAlarmFault([1.5]),
        }
    )
    return ByzantineSearchSimulation(fleet, 3.0, model).run()


def _kinds(violations):
    return {v.invariant for v in violations}


class TestCleanRuns:
    def test_real_run_passes_every_audit(self):
        outcome = _clean_outcome()
        assert audit_byzantine_outcome(outcome, fault_budget=2) == []
        check_byzantine_outcome(outcome, fault_budget=2)  # no raise

    def test_undetected_outcome_passes(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset(),
            events=(),
            quorum=2,
        )
        assert audit_byzantine_outcome(outcome) == []


class TestTamperedOutcomes:
    def test_unconfirmed_termination_no_commit_event(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=8.0,
            detecting_robot=0,
            faulty_robots=frozenset(),
            events=(ClaimEvent(8.0, 0, 2.0), VoteEvent(8.0, 0, 2.0, True)),
            committed_position=2.0,
            quorum=1,
        )
        assert "unconfirmed_termination" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_detected_without_committed_position(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=8.0,
            detecting_robot=0,
            faulty_robots=frozenset(),
            events=(
                ClaimEvent(8.0, 0, 2.0),
                VoteEvent(8.0, 0, 2.0, True),
                CommitEvent(8.0, 0, 2.0, votes=1),
            ),
            committed_position=None,
            quorum=1,
        )
        assert "unconfirmed_termination" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_false_target_commit(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=8.0,
            detecting_robot=0,
            faulty_robots=frozenset(),
            events=(
                ClaimEvent(8.0, 0, 5.0),
                VoteEvent(8.0, 0, 5.0, True),
                CommitEvent(8.0, 0, 5.0, votes=1),
            ),
            committed_position=5.0,
            quorum=1,
        )
        assert "false_target_commit" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_commit_below_quorum(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=9.0,
            detecting_robot=0,
            faulty_robots=frozenset(),
            events=(
                ClaimEvent(8.0, 0, 2.0),
                VoteEvent(8.0, 0, 2.0, True),
                CommitEvent(9.0, 1, 2.0, votes=1),
            ),
            committed_position=2.0,
            quorum=2,
        )
        assert "commit_below_quorum" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_refute_below_quorum(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=12.0,
            detecting_robot=1,
            faulty_robots=frozenset({0}),
            events=(
                ClaimEvent(3.0, 0, 1.0),
                VoteEvent(3.0, 0, 1.0, True),
                VoteEvent(4.0, 1, 1.0, False),
                RefuteEvent(4.0, 1, 1.0, votes=1),
                ClaimEvent(10.0, 1, 2.0),
                VoteEvent(10.0, 1, 2.0, True),
                VoteEvent(12.0, 2, 2.0, True),
                CommitEvent(12.0, 2, 2.0, votes=2),
            ),
            committed_position=2.0,
            quorum=2,
        )
        assert "refute_below_quorum" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_vote_before_claim(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset(),
            events=(VoteEvent(1.0, 0, 2.0, True),),
            quorum=2,
        )
        assert "vote_before_claim" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_resolution_without_claim(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset(),
            events=(RefuteEvent(4.0, 1, 1.0, votes=2),),
            quorum=2,
        )
        assert "vote_before_claim" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_event_chronology(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset(),
            events=(ClaimEvent(5.0, 0, 2.0), ClaimEvent(1.0, 1, 2.0)),
            quorum=2,
        )
        assert "event_chronology" in _kinds(audit_byzantine_outcome(outcome))

    def test_liar_budget_exceeded(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset({0, 1, 2}),
            events=(),
            quorum=2,
        )
        assert "liar_budget_exceeded" in _kinds(
            audit_byzantine_outcome(outcome, fault_budget=1)
        )

    def test_undetected_with_commit_event_flagged(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=math.inf,
            detecting_robot=None,
            faulty_robots=frozenset(),
            events=(
                ClaimEvent(8.0, 0, 2.0),
                VoteEvent(8.0, 0, 2.0, True),
                CommitEvent(8.0, 0, 2.0, votes=1),
            ),
            quorum=1,
        )
        assert "unconfirmed_termination" in _kinds(
            audit_byzantine_outcome(outcome)
        )

    def test_check_raises_with_kind_in_message(self):
        outcome = ByzantineOutcome(
            target=2.0,
            detection_time=8.0,
            detecting_robot=0,
            faulty_robots=frozenset(),
            events=(),
            committed_position=2.0,
            quorum=1,
        )
        with pytest.raises(InvariantViolationError, match="unconfirmed"):
            check_byzantine_outcome(outcome)


def test_violations_come_in_log_order_resolutions_before_votes():
    # claims at 1.0 then 3.0; votes before, between and after them
    events = (
        VoteEvent(1.0, 0, 1.0, True),       # before any claim at 1.0
        ClaimEvent(2.0, 1, 1.0),
        VoteEvent(2.5, 2, 1.0, True),
        RefuteEvent(3.0, 1, 2.0, votes=2),  # no claim at 2.0
        CommitEvent(3.5, 1, 1.0, votes=1),  # one vote of quorum 2
        VoteEvent(4.0, 3, 3.0, False),      # before the claim at 3.0
        ClaimEvent(4.5, 4, 3.0),
        VoteEvent(5.0, 0, 3.0, False),
        VoteEvent(5.0, 2, 3.0, False),
        RefuteEvent(5.5, 4, 3.0, votes=2),  # quorum met: no violation
        CommitEvent(6.0, 3, 1.0, votes=2),  # answers the claim at 1.0
    )
    outcome = ByzantineOutcome(
        target=1.0,
        detection_time=math.inf,
        detecting_robot=None,
        faulty_robots=frozenset(),
        events=events,
        quorum=2,
    )
    assert [
        (v.invariant, v.message) for v in audit_byzantine_outcome(outcome)
    ] == [
        ("unconfirmed_termination",
         "undetected outcome contains a commit event"),
        ("vote_before_claim",
         "resolution at x=2 has no preceding claim event"),
        ("commit_below_quorum",
         "resolution at x=1 logged only 1 present votes (quorum 2)"),
        ("commit_below_quorum",
         "resolution at x=1 reports 1 votes below quorum 2"),
        ("commit_below_quorum",
         "resolution at x=1 logged only 1 present votes (quorum 2)"),
        ("vote_before_claim", "vote by a_0 at x=1 precedes any claim there"),
        ("vote_before_claim", "vote by a_3 at x=3 precedes any claim there"),
    ]

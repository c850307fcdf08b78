"""Unit tests for the generalized fault-behavior taxonomy."""

import math

import pytest

from repro.errors import InvalidParameterError
from repro.robots import Fleet
from repro.byzantine import ByzantineSearchSimulation
from repro.robots.behaviors import (
    ByzantineFalseAlarmFault,
    CrashDetectionFault,
    CrashStopFault,
    FaultBehavior,
    ProbabilisticDetectionFault,
)
from repro.robots.faults import AdversarialFaults, BehavioralFaults
from repro.schedule import algorithm_for
from repro.simulation import (
    CrashEvent,
    FalseAlarmEvent,
    SearchSimulation,
    VoteEvent,
)
from repro.trajectory import DoublingTrajectory, LinearTrajectory
from repro.trajectory.halted import HaltedTrajectory


def make_fleet(n=3):
    return Fleet.from_trajectories(
        [LinearTrajectory(1 if i % 2 == 0 else -1) for i in range(n)]
    )


class TestCrashDetectionFault:
    def test_never_detects(self):
        fault = CrashDetectionFault()
        assert fault.detection_time(LinearTrajectory(1), 2.0) is None

    def test_trajectory_unchanged(self):
        trajectory = LinearTrajectory(1)
        assert CrashDetectionFault().apply_trajectory(trajectory) is trajectory

    def test_matches_paper_model_exactly(self):
        """Behavioral crash-detection reproduces T_{f+1} to the bit."""
        from repro.schedule import ProportionalAlgorithm

        fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
        for target in (1.0, -2.0, 3.5, -7.25):
            worst = fleet.worst_fault_assignment(target, 1)
            model = BehavioralFaults(
                {i: CrashDetectionFault() for i in worst}
            )
            behavioral = SearchSimulation(fleet, target, model).run()
            paper = SearchSimulation(fleet, target, AdversarialFaults(1)).run()
            assert behavioral.detection_time == paper.detection_time
            assert behavioral.detection_time == fleet.t_k(target, 2)


class TestCrashStopFault:
    def test_detects_before_halt(self):
        fault = CrashStopFault(2.0)
        assert fault.detection_time(LinearTrajectory(1), 1.5) == 1.5

    def test_blind_after_halt(self):
        fault = CrashStopFault(2.0)
        assert fault.detection_time(LinearTrajectory(1), 3.0) is None

    def test_halted_trajectory_freezes(self):
        halted = HaltedTrajectory(DoublingTrajectory(), halt_time=1.5)
        assert halted.position_at(1.0) == 1.0
        frozen = halted.position_at(1.5)
        assert halted.position_at(50.0) == frozen

    def test_halted_trajectory_coverage_truncated(self):
        halted = HaltedTrajectory(DoublingTrajectory(), halt_time=2.0)
        assert halted.covers(0.5)
        assert not halted.covers(-1.0)  # reached only at t=3 by the plan
        assert halted.first_visit_time(-1.0) is None

    def test_invalid_halt_time(self):
        with pytest.raises(InvalidParameterError):
            CrashStopFault(0.0)
        with pytest.raises(InvalidParameterError):
            CrashStopFault(math.inf)

    def test_engine_emits_crash_event(self):
        fleet = make_fleet()
        model = BehavioralFaults({0: CrashStopFault(0.5)})
        outcome = SearchSimulation(fleet, 2.0, model).run()
        crashes = [e for e in outcome.events if isinstance(e, CrashEvent)]
        assert [e.robot_index for e in crashes] == [0]
        assert crashes[0].time == 0.5
        # robot 2 (the surviving right-goer) must carry the detection
        assert outcome.detecting_robot == 2
        assert outcome.detection_time == 2.0


class TestByzantineFalseAlarmFault:
    def test_false_alarms_do_not_count(self):
        """A lying robot must not shorten the search."""
        fleet = make_fleet()
        model = BehavioralFaults({0: ByzantineFalseAlarmFault([0.1, 0.9])})
        outcome = SearchSimulation(fleet, 2.0, model).run()
        assert outcome.detection_time == 2.0
        assert outcome.detecting_robot == 2
        alarms = [e for e in outcome.events if isinstance(e, FalseAlarmEvent)]
        assert [e.time for e in alarms] == [0.1, 0.9]
        assert all(e.robot_index == 0 for e in alarms)

    def test_alarms_after_detection_not_logged(self):
        fleet = make_fleet()
        model = BehavioralFaults({0: ByzantineFalseAlarmFault([0.5, 99.0])})
        outcome = SearchSimulation(fleet, 2.0, model).run()
        alarms = [e for e in outcome.events if isinstance(e, FalseAlarmEvent)]
        assert [e.time for e in alarms] == [0.5]

    def test_needs_alarm_times(self):
        with pytest.raises(InvalidParameterError):
            ByzantineFalseAlarmFault([])
        with pytest.raises(InvalidParameterError):
            ByzantineFalseAlarmFault([-1.0])


class TestProbabilisticDetectionFault:
    def test_certain_detection_is_first_visit(self):
        fault = ProbabilisticDetectionFault(1.0, seed=0)
        assert fault.detection_time(DoublingTrajectory(), -1.0) == 3.0

    def test_zero_probability_never_detects(self):
        fault = ProbabilisticDetectionFault(0.0, seed=0)
        assert fault.detection_time(DoublingTrajectory(), -1.0) is None

    def test_seeded_determinism(self):
        a = ProbabilisticDetectionFault(0.4, seed=11)
        b = ProbabilisticDetectionFault(0.4, seed=11)
        trajectory = DoublingTrajectory()
        for target in (1.0, -2.0, 0.5):
            assert a.detection_time(trajectory, target) == b.detection_time(
                DoublingTrajectory(), target
            )

    def test_detection_at_some_visit_time(self):
        fault = ProbabilisticDetectionFault(0.5, seed=3)
        trajectory = DoublingTrajectory()
        t = fault.detection_time(trajectory, 1.0)
        assert t is not None
        assert t in trajectory.visit_times(1.0, t + 1.0)

    def test_single_pass_trajectory_terminates(self):
        """A line walker visits once; failing that draw must not hang."""
        fault = ProbabilisticDetectionFault(1e-12, seed=5)
        assert fault.detection_time(LinearTrajectory(1), 2.0) is None

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            ProbabilisticDetectionFault(1.5)
        with pytest.raises(InvalidParameterError):
            ProbabilisticDetectionFault(-0.1)


class TestBehavioralFaults:
    def test_budget_is_map_size(self):
        model = BehavioralFaults(
            {0: CrashDetectionFault(), 2: CrashStopFault(1.0)}
        )
        assert model.fault_budget == 2
        assert model.assign(make_fleet(3), 1.0) == {0, 2}

    def test_out_of_range_rejected_at_assign(self):
        model = BehavioralFaults({5: CrashDetectionFault()})
        with pytest.raises(InvalidParameterError):
            model.assign(make_fleet(3), 1.0)

    def test_non_behavior_rejected(self):
        with pytest.raises(InvalidParameterError):
            BehavioralFaults({0: "not a behavior"})

    def test_stochastic_flag_tracks_behaviors(self):
        assert not BehavioralFaults({0: CrashDetectionFault()}).is_stochastic
        assert BehavioralFaults(
            {0: ProbabilisticDetectionFault(0.5, seed=1)}
        ).is_stochastic

    def test_describe_lists_kinds(self):
        model = BehavioralFaults({1: CrashStopFault(2.0)})
        assert "crash_stop" in model.describe()


class TestVotes:
    """A verifier's vote on "the target is at the claimed point"."""

    @pytest.mark.parametrize(
        "behavior, on_target, off_target",
        [
            (CrashDetectionFault(), False, False),
            (CrashStopFault(2.0), True, False),
            (ByzantineFalseAlarmFault([1.0]), False, True),
            (ProbabilisticDetectionFault(1.0, seed=3), True, False),
            (ProbabilisticDetectionFault(0.0, seed=3), False, False),
        ],
    )
    def test_vote_on_and_off_target(self, behavior, on_target, off_target):
        assert behavior.vote(True, behavior.vote_stream()) is on_target
        assert behavior.vote(False, behavior.vote_stream()) is off_target

    @pytest.mark.parametrize(
        "behavior",
        [
            CrashDetectionFault(),
            CrashStopFault(2.0),
            ByzantineFalseAlarmFault([1.0]),
        ],
    )
    def test_deterministic_votes_draw_nothing(self, behavior):
        assert behavior.vote_stream() is None

    def test_probabilistic_draws_pinned(self):
        fault = ProbabilisticDetectionFault(0.5, seed=7)
        stream = fault.vote_stream()
        assert [fault.vote(True, stream) for _ in range(8)] == [
            True, False, True, False, False, False, True, False,
        ]
        # a fresh stream replays the same draws
        assert fault.vote_stream().random() == 0.4624321047349508

    def test_probabilistic_draws_only_on_target(self):
        fault = ProbabilisticDetectionFault(0.5, seed=7)
        stream = fault.vote_stream()
        assert fault.vote(False, stream) is False
        assert stream.random() == 0.4624321047349508

    def test_user_behavior_votes_the_truth(self):
        class Mute(FaultBehavior):
            """Never detects; defines no vote of its own."""

            def detection_time(self, trajectory, target):
                return None

        fleet = Fleet.from_algorithm(algorithm_for(3, 1))

        def votes(behavior):
            outcome = ByzantineSearchSimulation(
                fleet, 1.0, BehavioralFaults({0: behavior})
            ).run()
            assert outcome.committed_truthfully
            return [
                (e.robot_index, e.present)
                for e in outcome.events
                if isinstance(e, VoteEvent)
            ]

        assert votes(Mute()) == [(1, True), (0, True)]
        # the paper's fault at the same robot votes absent instead
        assert votes(CrashDetectionFault()) == [
            (1, True), (0, False), (2, True),
        ]

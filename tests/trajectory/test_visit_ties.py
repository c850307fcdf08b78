"""Regression tests pinning the exact-tie visit semantics.

Distinctness is by robot identity, never by time tolerance: robots
arriving at the same instant count separately, so ``k`` simultaneous
arrivals give ``T_k = T_1``.  The event engine, the fleet helpers, and
the batch kernels must all honor the same contract — the two-group
algorithm's competitive ratio of 1 depends on it, and a
tolerance-merged count would silently report ``inf`` instead.
"""

import math

import pytest

from repro.baselines import TwoGroupAlgorithm
from repro.batch import BatchEvaluator
from repro.robots import AdversarialFaults, Fleet
from repro.simulation import SearchSimulation, target_sweep
from repro.simulation.events import DetectionEvent, TargetVisitEvent
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.visits import (
    kth_distinct_visit_time,
    visiting_order,
)


def tied_fleet(count: int = 3):
    """``count`` identical robots: every visit is an exact tie."""
    return [LinearTrajectory(1) for _ in range(count)]


class TestTieCounting:
    def test_exact_ties_count_as_distinct_robots(self):
        fleet = tied_fleet(3)
        for k in (1, 2, 3):
            assert kth_distinct_visit_time(fleet, 2.0, k) == 2.0
        assert kth_distinct_visit_time(fleet, 2.0, 4) == math.inf

    def test_tie_break_by_index_in_visiting_order(self):
        assert visiting_order(tied_fleet(3), 2.0) == [0, 1, 2]

    def test_near_tie_within_tolerance_still_two_visitors(self):
        # Two arrivals 1e-12 apart are "the same instant" by
        # core.tolerance, but they are still two distinct visitors.
        fleet = [
            LinearTrajectory(1),
            LinearTrajectory(1, speed=1.0 - 1e-12),
        ]
        t2 = kth_distinct_visit_time(fleet, 2.0, 2)
        assert math.isfinite(t2)
        assert t2 == pytest.approx(2.0)

    def test_two_group_worst_case_is_exactly_x(self):
        # n = 2f + 2 sends f+1 robots together each way, so the tie
        # rule is what makes T_{f+1}(x) = |x| (competitive ratio 1).
        fleet = Fleet.from_algorithm(TwoGroupAlgorithm(4, 1))
        assert fleet.worst_case_detection_time(3.0, 1) == 3.0
        assert fleet.worst_case_detection_time(-3.0, 1) == 3.0


class TestEnginePathTies:
    def test_engine_detection_time_under_full_tie(self):
        fleet = Fleet.from_trajectories(tied_fleet(3))
        outcome = SearchSimulation(
            fleet, 2.0, fault_model=AdversarialFaults(2)
        ).run()
        assert outcome.detection_time == 2.0
        # The adversary corrupts the first two by index; robot 2 detects.
        assert outcome.faulty_robots == frozenset({0, 1})
        assert outcome.detecting_robot == 2

    def test_detection_event_closes_log_on_exact_tie(self):
        fleet = Fleet.from_trajectories(tied_fleet(2))
        outcome = SearchSimulation(
            fleet, 2.0, fault_model=AdversarialFaults(1)
        ).run()
        tied_events = [e for e in outcome.events if e.time == 2.0]
        assert isinstance(tied_events[-1], DetectionEvent)
        assert any(isinstance(e, TargetVisitEvent) for e in tied_events)


class TestBatchPathTies:
    def test_batch_matches_engine_under_full_tie(self):
        evaluator = BatchEvaluator(tied_fleet(3), fault_budget=2)
        assert evaluator.search_times([2.0]) == [2.0]
        assert evaluator.search_times([2.0], fault_budget=3) == [math.inf]

    def test_batch_two_group_ratio_one(self):
        fleet = Fleet.from_algorithm(TwoGroupAlgorithm(4, 1))
        profile = target_sweep(fleet, 1, [1.0, -2.0, 5.0], method="batch")
        assert profile.ratios() == [1.0, 1.0, 1.0]

    def test_batch_detection_excluding_tied_robots(self):
        evaluator = BatchEvaluator(tied_fleet(3), fault_budget=2)
        assert evaluator.detection_times([2.0], {0, 1}) == [2.0]
        assert evaluator.detection_times([2.0], {0, 1, 2}) == [math.inf]

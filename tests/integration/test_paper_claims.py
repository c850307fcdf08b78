"""Integration tests: the paper's headline claims, end to end.

Each test here exercises multiple subsystems at once — the geometry,
trajectory engine, schedule construction, order statistics, and the
estimator — and checks the paper's *stated results*, not implementation
details.
"""

import math

import pytest

from repro.baselines import GroupDoubling, TwoGroupAlgorithm
from repro.core import (
    algorithm_competitive_ratio,
    lower_bound,
    odd_critical_cr,
    optimal_expansion_factor,
    theorem2_lower_bound,
)
from repro.lowerbound import TheoremTwoGame
from repro.robots import AdversarialFaults, Fleet, RandomFaults
from repro.schedule import ProportionalAlgorithm
from repro.simulation import (
    CompetitiveRatioEstimator,
    SearchSimulation,
    measure_competitive_ratio,
)

from tests.conftest import PROPORTIONAL_PAIRS


class TestTheorem1EndToEnd:
    """Simulated A(n, f) fleets achieve exactly the Theorem 1 ratio."""

    @pytest.mark.parametrize("pair", PROPORTIONAL_PAIRS,
                             ids=lambda p: f"n{p[0]}f{p[1]}")
    def test_measured_equals_closed_form(self, pair):
        n, f = pair
        alg = ProportionalAlgorithm(n, f)
        x_max = 100.0 if n <= 11 else 40.0
        measured = measure_competitive_ratio(alg, x_max=x_max)
        assert measured.matches(
            alg.theoretical_competitive_ratio(), tol=1e-12
        ), (n, f)

    def test_41_20_coverage(self):
        """The largest Table 1 configuration still covers the line."""
        robots = ProportionalAlgorithm(41, 20).build()
        from repro.trajectory.visits import kth_distinct_visit_time

        for x in (1.0, -1.0, 5.0):
            t = kth_distinct_visit_time(robots, x, 21)
            assert math.isfinite(t)
            assert t / abs(x) <= 3.25  # Theorem 1 value 3.244...


class TestTrivialRegimeEndToEnd:
    def test_two_group_ratio_one(self):
        for n, f in ((4, 1), (6, 2), (10, 2)):
            est = measure_competitive_ratio(
                TwoGroupAlgorithm(n, f), x_max=60.0
            )
            assert est.value == pytest.approx(1.0)

    def test_two_group_beats_lower_bound_trivially(self):
        assert lower_bound(4, 1) == 1.0


class TestSection11Remarks:
    """Claims made in passing in Section 1.1."""

    def test_group_doubling_is_nine_regardless_of_f(self):
        for n, f in ((2, 1), (3, 2), (5, 3)):
            est = measure_competitive_ratio(
                GroupDoubling(n, f), x_max=3000.0
            )
            assert est.value == pytest.approx(9.0, abs=0.05)

    def test_proportional_strictly_beats_group_doubling_when_n_gt_f1(self):
        for n, f in ((3, 1), (5, 2), (5, 3), (11, 5)):
            assert algorithm_competitive_ratio(n, f) < 9.0

    def test_minimal_fleet_matches_single_robot(self):
        """n = f+1: A(n, f) is exactly 9-competitive — no better than one
        reliable robot, as the reduction argument demands."""
        for f in (1, 2, 3):
            est = measure_competitive_ratio(
                ProportionalAlgorithm(f + 1, f), x_max=100.0
            )
            assert est.value == pytest.approx(9.0, rel=1e-9)


class TestLowerBoundEndToEnd:
    def test_sound_against_theorem1(self):
        """Lower bound <= upper bound everywhere in Table 1's range."""
        for n in range(2, 42):
            for f in range(max(1, (n - 1) // 2), n):
                if not (f < n < 2 * f + 2):
                    continue
                assert lower_bound(n, f) <= algorithm_competitive_ratio(
                    n, f
                ) + 1e-9

    def test_adversary_beats_every_algorithm(self):
        """The executable adversary enforces the Theorem 2 bound against
        all our algorithms (optimal and baseline)."""
        for n, f in ((2, 1), (3, 1), (4, 2), (5, 2), (5, 3)):
            alpha = theorem2_lower_bound(n) - 1e-9
            for alg in (ProportionalAlgorithm(n, f), GroupDoubling(n, f)):
                game = TheoremTwoGame(
                    Fleet.from_algorithm(alg), f=f, alpha=alpha
                )
                witness = game.play()
                assert witness.ratio >= alpha - 1e-6

    def test_asymptotic_optimality_bracket(self):
        """CR(A(2f+1, f)) and the Theorem 2 bound converge to 3 with a
        Theta(ln n / n)-scale gap — the paper's headline asymptotics."""
        previous_gap = math.inf
        for f in (5, 50, 500, 5000):
            n = 2 * f + 1
            upper = odd_critical_cr(n)
            lower = theorem2_lower_bound(n)
            assert lower <= upper
            gap = upper - lower
            assert gap < previous_gap
            previous_gap = gap
        assert gap < 0.002


class TestFaultModelSemantics:
    def test_adversarial_dominates_random(self):
        """Monte Carlo: no random fault draw ever exceeds the adversarial
        detection time."""
        fleet = Fleet.from_algorithm(ProportionalAlgorithm(5, 2))
        adv = AdversarialFaults(2)
        rng = RandomFaults(2, seed=11)
        for x in (1.3, -2.7, 6.0):
            worst = adv.detection_time(fleet, x)
            for _ in range(25):
                assert rng.detection_time(fleet, x) <= worst + 1e-9

    def test_fault_irrelevance_of_timing(self):
        """'It is irrelevant if the robots were faulty at the beginning or
        later' — detection depends only on the fault set, which the
        simulation engine realizes by construction."""
        fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
        sim = SearchSimulation(fleet, 2.0, AdversarialFaults(1))
        a = sim.run().detection_time
        b = sim.run().detection_time  # repeated runs identical
        assert a == b

    def test_hard_to_detect_target_interpretation(self):
        """f faults == target needs f+1 visits: the two readings give the
        same search time by definition of the order statistic."""
        fleet = Fleet.from_algorithm(ProportionalAlgorithm(5, 2))
        for x in (1.0, -3.0):
            assert fleet.worst_case_detection_time(x, 2) == fleet.t_k(x, 3)


class TestExpansionFactorClaims:
    def test_odd_critical_expansion_n_plus_1(self):
        for f in (1, 2, 5, 20):
            n = 2 * f + 1
            alg = ProportionalAlgorithm(n, f)
            assert alg.expansion_factor == pytest.approx(n + 1, rel=1e-9)

    def test_minimal_fleet_expansion_two(self):
        for f in (1, 3):
            alg = ProportionalAlgorithm(f + 1, f)
            assert alg.expansion_factor == pytest.approx(2.0)

    def test_built_trajectories_have_declared_expansion(self):
        """The actual turning points of each built robot expand by the
        Table 1 factor."""
        for n, f in ((3, 1), (5, 2), (5, 3)):
            alg = ProportionalAlgorithm(n, f)
            kappa = optimal_expansion_factor(n, f)
            for robot in alg.build():
                for i in range(3):
                    ratio = abs(robot.turning_position(i + 1)) / abs(
                        robot.turning_position(i)
                    )
                    assert ratio == pytest.approx(kappa, rel=1e-9)


class TestEstimatorRobustness:
    def test_supremum_stable_in_x_max(self):
        """Lemma 5 periodicity: enlarging the probe window does not change
        the measured supremum."""
        alg = ProportionalAlgorithm(3, 1)
        fleet = Fleet.from_algorithm(alg)
        values = [
            CompetitiveRatioEstimator(fleet, 1, x_max=x).estimate().value
            for x in (30.0, 100.0, 300.0)
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-9)

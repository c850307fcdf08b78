"""Unit tests for the empirical competitive-ratio estimator."""

import math

import pytest

from repro.baselines.two_group import TwoGroupAlgorithm
from repro.batch.compile import compile_fleet
from repro.batch.kernels import ratio_candidates
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.simulation.adversary import (
    CompetitiveRatioEstimator,
    measure_competitive_ratio,
)


class TestEstimatorValidation:
    def test_bad_parameters(self, fleet_3_1):
        with pytest.raises(InvalidParameterError):
            CompetitiveRatioEstimator(fleet_3_1, fault_budget=-1)
        with pytest.raises(InvalidParameterError):
            CompetitiveRatioEstimator(fleet_3_1, 1, min_distance=0.0)
        with pytest.raises(InvalidParameterError):
            CompetitiveRatioEstimator(fleet_3_1, 1, x_max=0.5)

    @pytest.mark.parametrize(
        "window",
        [
            {"x_max": math.nan},
            {"x_max": math.inf},
            # finite, but the turns that cover it overflow
            {"x_max": 1e308},
            {"min_distance": math.nan},
        ],
        ids=lambda window: "-".join(f"{k}={v}" for k, v in window.items()),
    )
    def test_non_finite_window_rejected(self, fleet_3_1, window):
        with pytest.raises(InvalidParameterError, match="finite"):
            CompetitiveRatioEstimator(fleet_3_1, 1, **window)


def _candidates(fleet, f, x_max):
    """The exact estimator's candidate points, read from the kernel."""
    compiled = compile_fleet(fleet.trajectories, -x_max, x_max)
    return ratio_candidates(compiled.trajectories, f + 1, 1.0, x_max)


class TestCandidates:
    def test_candidates_within_window(self, fleet_3_1):
        for x, _, _ in _candidates(fleet_3_1, 1, 50.0):
            assert 1.0 <= abs(x) <= 50.0

    def test_candidates_include_both_signs(self, fleet_3_1):
        xs = [x for x, _, _ in _candidates(fleet_3_1, 1, 50.0)]
        assert any(x > 0 for x in xs)
        assert any(x < 0 for x in xs)

    def test_candidates_include_turning_points(self, algorithm_3_1):
        fleet = Fleet.from_algorithm(algorithm_3_1)
        candidates = _candidates(fleet, 1, 50.0)
        # robot a_0 turns at 1 and at kappa^2 = 16; K is read just past
        assert any(
            abs(x - 16.0) < 1e-6 and side == "right"
            for x, _, side in candidates
        )


class TestEstimates:
    def test_matches_theorem1(self, proportional_pair):
        from repro.schedule import ProportionalAlgorithm

        n, f = proportional_pair
        if n > 11:
            pytest.skip("the (41,20) case runs in integration tests")
        alg = ProportionalAlgorithm(n, f)
        est = measure_competitive_ratio(alg, x_max=100.0)
        assert est.matches(alg.theoretical_competitive_ratio(), tol=1e-12)
        # the supremum is the right limit just past a turning point
        assert est.side == "right"

    def test_two_group_is_one(self):
        alg = TwoGroupAlgorithm(4, 1)
        est = measure_competitive_ratio(alg, x_max=50.0)
        assert est.value == pytest.approx(1.0)

    def test_profile_and_ratio_at(self, fleet_3_1):
        est = CompetitiveRatioEstimator(fleet_3_1, 1, x_max=20.0)
        sample = est.ratio_at(2.0)
        assert sample.ratio == pytest.approx(
            fleet_3_1.worst_case_detection_time(2.0, 1) / 2.0
        )
        profile = est.profile([1.5, 2.5, -3.0])
        assert len(profile.samples) == 3

    def test_profile_empty_targets_rejected(self, fleet_3_1):
        est = CompetitiveRatioEstimator(fleet_3_1, 1, x_max=20.0)
        with pytest.raises(InvalidParameterError):
            est.profile([])

    def test_estimate_reports_witness(self, fleet_3_1):
        est = CompetitiveRatioEstimator(fleet_3_1, 1, x_max=50.0)
        result = est.estimate()
        assert result.witness.ratio == result.value
        assert result.samples_evaluated > 10
        # K itself stays below its right limit at the witness, and
        # reaches it just past the turn
        x = result.witness.x
        assert est.ratio_at(x).ratio < result.value
        past = est.ratio_at(x * (1 + 1e-12)).ratio
        assert past <= result.value * (1 + 1e-12)
        assert past == pytest.approx(result.value, rel=1e-9)
        assert "empirical CR" in result.describe()


class TestMeasureWrapper:
    def test_from_fleet_requires_budget(self, fleet_3_1):
        with pytest.raises(InvalidParameterError):
            measure_competitive_ratio(fleet_3_1)

    def test_from_fleet_with_budget(self, fleet_3_1):
        est = measure_competitive_ratio(fleet_3_1, fault_budget=1, x_max=30.0)
        assert est.value > 3.0

    def test_from_trajectories(self, algorithm_3_1):
        est = measure_competitive_ratio(
            algorithm_3_1.build(), fault_budget=1, x_max=30.0
        )
        assert est.value == pytest.approx(5.233, abs=0.01)

    def test_algorithm_budget_default(self, algorithm_3_1):
        est = measure_competitive_ratio(algorithm_3_1, x_max=30.0)
        assert est.value == pytest.approx(5.233, abs=0.01)


class TestLemma3Structure:
    def test_ratio_decreasing_between_turns(self, fleet_3_1):
        """K(x) decreases on turning-point-free intervals (Lemma 3)."""
        est = CompetitiveRatioEstimator(fleet_3_1, 1, x_max=30.0)
        # interval (1, r) contains no turning point for A(3,1): r ~ 2.52
        xs = [1.0 + 1e-6 + i * 0.1 for i in range(10)]
        ratios = [est.ratio_at(x).ratio for x in xs]
        assert ratios == sorted(ratios, reverse=True)

    def test_ratio_jumps_at_turning_point(self, algorithm_3_1):
        """K(x) jumps upward when x crosses a turning point."""
        fleet = Fleet.from_algorithm(algorithm_3_1)
        est = CompetitiveRatioEstimator(fleet, 1, x_max=30.0)
        r = algorithm_3_1.proportionality_ratio
        tau = r  # first combined turning point past 1 (robot a_1)
        before = est.ratio_at(tau * (1 - 1e-9)).ratio
        after = est.ratio_at(tau * (1 + 1e-9)).ratio
        assert after > before

    def test_suprema_equal_across_turning_points(self, algorithm_3_1):
        """Lemma 5: the per-interval suprema are identical."""
        fleet = Fleet.from_algorithm(algorithm_3_1)
        est = CompetitiveRatioEstimator(fleet, 1, x_max=200.0)
        r = algorithm_3_1.proportionality_ratio
        sups = [
            est.ratio_at(r**j * (1 + 1e-9)).ratio for j in range(0, 8)
        ]
        for s in sups[1:]:
            assert s == pytest.approx(sups[0], rel=1e-6)

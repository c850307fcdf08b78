"""BatchEvaluator tests against the event-path oracles."""

import math

import pytest

from repro.batch import BatchEvaluator, cache
from repro.errors import InvalidParameterError
from repro.robots import Fleet
from repro.schedule import ProportionalAlgorithm
from repro.simulation import CompetitiveRatioEstimator
from repro.simulation.sweep import geometric_grid
from repro.trajectory import DoublingTrajectory, LinearTrajectory


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty shared fleet cache, so no other test's compiles show."""
    fresh = cache.CompiledFleetCache()
    monkeypatch.setattr(cache, "FLEET_CACHE", fresh)
    return fresh


@pytest.fixture
def evaluator_3_1(fresh_cache):
    return BatchEvaluator(ProportionalAlgorithm(3, 1), backend="pure")


class TestConstruction:
    def test_from_algorithm_inherits_budget(self):
        evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
        assert evaluator.fault_budget == 1
        assert evaluator.fleet.size == 3

    def test_from_fleet_requires_budget(self):
        fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
        with pytest.raises(InvalidParameterError, match="fault_budget"):
            BatchEvaluator(fleet)
        assert BatchEvaluator(fleet, fault_budget=1).fault_budget == 1

    def test_from_trajectories(self):
        evaluator = BatchEvaluator(
            [LinearTrajectory(1), LinearTrajectory(-1)], fault_budget=0
        )
        assert evaluator.fleet.size == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            BatchEvaluator(ProportionalAlgorithm(3, 1), fault_budget=-1)

    def test_pure_backend_accepted(self):
        for backend in (None, "pure"):
            evaluator = BatchEvaluator(
                ProportionalAlgorithm(3, 1), backend=backend
            )
            assert evaluator.search_times([2.0]) == BatchEvaluator(
                ProportionalAlgorithm(3, 1)
            ).search_times([2.0])

    def test_removed_backends_rejected(self):
        for backend in ("numpy", "fortran"):
            with pytest.raises(InvalidParameterError, match="removed"):
                BatchEvaluator(ProportionalAlgorithm(3, 1), backend=backend)

    def test_unkeyed_fleet_keeps_a_private_cache(self, fresh_cache):
        evaluator = BatchEvaluator(
            [DoublingTrajectory(), LinearTrajectory(1)], fault_budget=1
        )
        assert evaluator.search_times([3.0, -1.0]) == [9.0, math.inf]
        assert len(fresh_cache) == 0
        assert "segments" in evaluator.describe()

    def test_describe_mentions_backend_and_cache(self, evaluator_3_1):
        assert "not compiled" in evaluator_3_1.describe()
        evaluator_3_1.search_times([1.0])
        assert "segments" in evaluator_3_1.describe()


class TestSearchTimes:
    def test_matches_fleet_oracle(self, evaluator_3_1):
        fleet = evaluator_3_1.fleet
        targets = geometric_grid(1.0, 48.0, 25)
        targets += [-x for x in targets]
        times = evaluator_3_1.search_times(targets)
        for x, t in zip(targets, times):
            assert t == pytest.approx(
                fleet.worst_case_detection_time(x, 1), rel=1e-9
            )

    def test_input_order_and_duplicates_preserved(self, evaluator_3_1):
        targets = [5.0, -2.0, 5.0, 1.0]
        times = evaluator_3_1.search_times(targets)
        assert times[0] == times[2]
        single = [evaluator_3_1.search_times([x])[0] for x in targets]
        assert times == pytest.approx(single, rel=1e-12)

    def test_budget_override(self):
        evaluator = BatchEvaluator(
            [LinearTrajectory(1), LinearTrajectory(1)], fault_budget=0
        )
        assert evaluator.search_times([2.0]) == [2.0]
        assert evaluator.search_times([2.0], fault_budget=1) == [2.0]
        assert evaluator.search_times([2.0], fault_budget=2) == [math.inf]
        with pytest.raises(InvalidParameterError, match=">= 0"):
            evaluator.search_times([2.0], fault_budget=-1)

    def test_validation(self, evaluator_3_1):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            evaluator_3_1.search_times([])
        with pytest.raises(InvalidParameterError, match="finite"):
            evaluator_3_1.search_times([1.0, math.nan])

    def test_window_cache_extends(self, evaluator_3_1, fresh_cache):
        key = cache.fleet_key(evaluator_3_1.fleet.trajectories)
        near = evaluator_3_1.search_times([2.0])[0]
        compiled_small = fresh_cache.get(key)
        far = evaluator_3_1.search_times([100.0])[0]
        compiled_big = fresh_cache.get(key)
        assert compiled_big is not compiled_small
        assert compiled_big.window_hi >= 100.0
        # the extension must not perturb previously served targets
        assert evaluator_3_1.search_times([2.0])[0] == near
        assert fresh_cache.get(key) is compiled_big
        assert math.isfinite(far)


class TestDetectionTimes:
    def test_matches_simulation(self, evaluator_3_1):
        from repro.robots import FixedFaults
        from repro.simulation import SearchSimulation

        fleet = evaluator_3_1.fleet
        for faulty in (set(), {0}, {1, 2}):
            for x in (1.5, -3.0, 8.0):
                model = FixedFaults(tuple(sorted(faulty))) if faulty else None
                expected = (
                    SearchSimulation(fleet, x, fault_model=model)
                    .run(with_events=False)
                    .detection_time
                )
                got = evaluator_3_1.detection_times([x], faulty)[0]
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-9)

    def test_out_of_range_faults_rejected(self, evaluator_3_1):
        with pytest.raises(InvalidParameterError, match="out of range"):
            evaluator_3_1.detection_times([1.0], {7})


class TestRatioInterfaces:
    def test_profile_matches_estimator(self, evaluator_3_1):
        estimator = CompetitiveRatioEstimator(
            evaluator_3_1.fleet, 1, x_max=40.0
        )
        xs = geometric_grid(1.0, 40.0, 15)
        batch_profile = evaluator_3_1.ratio_profile(xs)
        event_profile = estimator.profile(xs)
        for a, b in zip(batch_profile.samples, event_profile.samples):
            assert a.ratio == pytest.approx(b.ratio, rel=1e-9)

    def test_origin_rejected(self, evaluator_3_1):
        with pytest.raises(InvalidParameterError, match="origin"):
            evaluator_3_1.ratio_profile([1.0, 0.0])

    def test_estimate_matches_theory_and_event_estimator(self):
        algorithm = ProportionalAlgorithm(3, 1)
        batch_est = BatchEvaluator(algorithm, backend="pure").estimate()
        assert batch_est.matches(algorithm.theoretical_competitive_ratio())
        event_est = CompetitiveRatioEstimator(
            Fleet.from_algorithm(algorithm), 1
        ).estimate()
        assert batch_est.value == pytest.approx(event_est.value, rel=1e-9)


class TestObservability:
    def test_spans_and_counters(self, evaluator_3_1):
        from repro.observability import instrument as obs

        telemetry = obs.enable()
        try:
            evaluator_3_1.search_times([1.0, 2.0, 3.0])
        finally:
            obs.disable()
        names = [r.name for r in telemetry.tracer.records()]
        assert "batch.compile" in names
        assert "batch.evaluate" in names
        assert (
            telemetry.metrics.counter("batch_points_total").value() == 3.0
        )
        assert (
            telemetry.metrics.counter("batch_compiles_total").value() == 1.0
        )

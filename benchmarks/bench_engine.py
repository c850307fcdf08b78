"""Engine microbenchmarks: the substrate's hot paths.

Not a paper artifact — these quantify the cost of the simulation
primitives every experiment is built on (visit queries, order
statistics, estimator sweeps, full scenario runs).
"""

import pytest

from repro.robots import AdversarialFaults, Fleet
from repro.schedule import ProportionalAlgorithm
from repro.simulation import CompetitiveRatioEstimator, SearchSimulation
from repro.trajectory import DoublingTrajectory


def test_bench_first_visit_far_target(benchmark):
    """Lazy materialization out to a distant target."""

    def query():
        # fresh trajectory each round so memoization doesn't hide the cost
        return DoublingTrajectory().first_visit_time(1e5)

    t = benchmark(query)
    # the robot passes 1e5 outbound after its turn at -2^17:
    # arrival = (3 * 2^17 - 2) + (2^17 + 1e5)
    assert t == pytest.approx(3 * 2**17 - 2 + 2**17 + 1e5, rel=1e-9)


def test_bench_order_statistics(benchmark):
    """T_{f+1} over a mid-sized fleet at many targets."""
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(11, 5))
    targets = [(-1) ** i * (1.0 + 0.37 * i) for i in range(50)]

    def sweep():
        return [fleet.worst_case_detection_time(x, 5) for x in targets]

    times = benchmark(sweep)
    assert all(t > 0 for t in times)


def test_bench_estimator_end_to_end(benchmark):
    """Full competitive-ratio estimation for A(5, 3)."""
    alg = ProportionalAlgorithm(5, 3)

    def estimate():
        fleet = Fleet.from_algorithm(alg)
        return CompetitiveRatioEstimator(fleet, 3, x_max=100.0).estimate()

    result = benchmark(estimate)
    assert result.matches(alg.theoretical_competitive_ratio(), tol=1e-12)


def test_bench_estimator_scaling(benchmark):
    """Estimator cost as the fleet grows: n = 11 -> 201."""

    def sweep():
        values = {}
        for n, f in ((11, 5), (51, 25), (201, 100)):
            alg = ProportionalAlgorithm(n, f)
            fleet = Fleet.from_algorithm(alg)
            est = CompetitiveRatioEstimator(fleet, f, x_max=20.0).estimate()
            values[(n, f)] = (est.value, alg.theoretical_competitive_ratio())
        return values

    values = benchmark(sweep)
    for (n, f), (measured, theory) in values.items():
        assert measured == pytest.approx(theory, rel=1e-12), (n, f)


def test_bench_simulation_with_events(benchmark):
    """One full scenario including event-log reconstruction."""
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(5, 2))

    def run():
        return SearchSimulation(fleet, 7.3, AdversarialFaults(2)).run()

    outcome = benchmark(run)
    assert outcome.detected
    assert outcome.events

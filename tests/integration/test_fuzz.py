"""Fuzzing: invariants over randomly generated fleets.

Hypothesis generates arbitrary *valid* fleets (mixes of geometric
zig-zags, straight runs, and delayed starts with random parameters) and
the tests assert the model invariants that must hold for ANY fleet —
not just the paper's algorithms.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower_bound import theorem2_lower_bound
from repro.lowerbound.game import TheoremTwoGame
from repro.robots.fleet import Fleet
from repro.simulation.adversary import CompetitiveRatioEstimator
from repro.simulation.timestep import TimeSteppedSimulator
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.zigzag import GeometricZigZag


@st.composite
def zigzag_trajectories(draw):
    """A random geometric zig-zag with bounded parameters."""
    first = draw(st.floats(min_value=0.2, max_value=3.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    kappa = draw(st.floats(min_value=1.2, max_value=5.0))
    delay = draw(st.floats(min_value=0.0, max_value=2.0))
    return GeometricZigZag(
        first_turn=sign * first, kappa=kappa, start_time=delay
    )


@st.composite
def linear_trajectories(draw):
    direction = draw(st.sampled_from([1, -1]))
    speed = draw(st.floats(min_value=0.2, max_value=1.0))
    return LinearTrajectory(direction, speed=speed)


@st.composite
def fleets(draw, min_size=1, max_size=5):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    trajectories = [
        draw(st.one_of(zigzag_trajectories(), linear_trajectories()))
        for _ in range(size)
    ]
    return Fleet.from_trajectories(trajectories)


@st.composite
def zigzag_fleets(draw, min_size=2, max_size=4):
    """Fleets of zig-zags only (full line coverage guaranteed)."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return Fleet.from_trajectories(
        [draw(zigzag_trajectories()) for _ in range(size)]
    )


class TestVisitInvariants:
    @given(fleets(), st.floats(min_value=-10, max_value=10).filter(
        lambda x: abs(x) > 1e-6))
    @settings(max_examples=40)
    def test_order_statistic_monotone(self, fleet, x):
        times = [fleet.t_k(x, k) for k in range(1, fleet.size + 1)]
        finite = [t for t in times if math.isfinite(t)]
        assert finite == sorted(finite)
        # once inf, always inf
        seen_inf = False
        for t in times:
            if seen_inf:
                assert math.isinf(t)
            seen_inf = seen_inf or math.isinf(t)

    @given(fleets(), st.floats(min_value=-10, max_value=10).filter(
        lambda x: abs(x) > 1e-6))
    @settings(max_examples=40)
    def test_detection_never_beats_distance(self, fleet, x):
        t1 = fleet.t_k(x, 1)
        if math.isfinite(t1):
            assert t1 >= abs(x) - 1e-9

    @given(fleets(), st.floats(min_value=-6, max_value=6).filter(
        lambda x: abs(x) > 0.1))
    @settings(max_examples=30)
    def test_visiting_order_consistent_with_times(self, fleet, x):
        order = fleet.visiting_order(x)
        times = fleet.first_visit_times(x)
        ordered_times = [times[i] for i in order]
        assert ordered_times == sorted(ordered_times)
        assert all(times[i] is not None for i in order)


class TestEstimatorInvariants:
    @given(zigzag_fleets())
    @settings(max_examples=15, deadline=None)
    def test_estimate_at_least_one(self, fleet):
        estimator = CompetitiveRatioEstimator(
            fleet, fault_budget=0, x_max=20.0
        )
        estimate = estimator.estimate()
        assert estimate.value >= 1.0
        # the witness must reproduce its own ratio, on its side: a
        # right limit is reached just past the turn (beyond the
        # engine's 1e-12 positional slack)
        x = estimate.witness.x
        if estimate.side == "right":
            x += math.copysign(max(abs(x) * 1e-12, 4e-12), x)
        recomputed = fleet.worst_case_detection_time(x, 0) / abs(x)
        assert recomputed == pytest.approx(estimate.value, rel=1e-9)

    @given(zigzag_fleets(min_size=3, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_more_faults_never_cheaper(self, fleet):
        est0 = CompetitiveRatioEstimator(fleet, 0, x_max=15.0).estimate()
        est1 = CompetitiveRatioEstimator(fleet, 1, x_max=15.0).estimate()
        assert est1.value >= est0.value - 1e-9


class TestAdversaryInvariants:
    @given(zigzag_fleets(min_size=3, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_game_always_finds_witness(self, fleet):
        """Theorem 2: for ANY 3-robot fleet with f=1, the adversary wins
        at alpha just under the n=3 root."""
        game = TheoremTwoGame(fleet, f=1)
        witness = game.play()
        assert witness.ratio >= theorem2_lower_bound(3) - 1e-6
        assert len(witness.faulty_robots) <= 1


class TestCrossEngineFuzz:
    @given(
        zigzag_trajectories(),
        st.floats(min_value=-5.0, max_value=5.0).filter(
            lambda x: abs(x) > 0.2
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_analytic_vs_gridded(self, trajectory, x):
        analytic = trajectory.first_visit_time(x)
        grid = TimeSteppedSimulator([trajectory], dt=0.01, horizon=60.0)
        gridded = grid.first_visit_time(0, x)
        if analytic is not None and analytic < 55.0:
            assert gridded is not None
            assert gridded == pytest.approx(analytic, abs=0.05)

"""Cross-validation: analytic visit engine vs time-stepped simulation.

Two fully independent implementations of "when does robot i first reach
x" must agree: the analytic segment-walking engine (repro.trajectory)
and the brute-force grid scanner (repro.simulation.timestep).  The
scenario engine's worst-case detection time is checked against the
grid scanner too: the scanner shares no code with the engine's
assign → detect → render core, so it is the sync path's oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GroupDoubling, TwoGroupAlgorithm
from repro.extensions import TurnCostProportionalAlgorithm
from repro.robots import AdversarialFaults, Fleet
from repro.schedule import ProportionalAlgorithm
from repro.simulation import SearchSimulation
from repro.simulation.timestep import TimeSteppedSimulator
from repro.trajectory import DoublingTrajectory, LinearTrajectory

DT = 0.005
TOL = 3 * DT


class TestSingleTrajectories:
    @pytest.mark.parametrize("target", [1.0, -1.0, 2.5, -3.7, 0.3])
    def test_doubling(self, target):
        analytic = DoublingTrajectory().first_visit_time(target)
        gridded = TimeSteppedSimulator(
            [DoublingTrajectory()], dt=DT, horizon=60.0
        ).first_visit_time(0, target)
        assert gridded == pytest.approx(analytic, abs=TOL)

    def test_linear_miss(self):
        sim = TimeSteppedSimulator([LinearTrajectory(1)], dt=DT, horizon=10.0)
        assert sim.first_visit_time(0, -2.0) is None

    def test_linear_hit(self):
        sim = TimeSteppedSimulator(
            [LinearTrajectory(1, speed=0.5)], dt=DT, horizon=30.0
        )
        assert sim.first_visit_time(0, 4.0) == pytest.approx(8.0, abs=TOL)


class TestFleets:
    @pytest.mark.parametrize("pair", [(3, 1), (5, 2), (5, 3)],
                             ids=lambda p: f"n{p[0]}f{p[1]}")
    def test_proportional_algorithm(self, pair):
        n, f = pair
        alg = ProportionalAlgorithm(n, f)
        fleet = Fleet.from_algorithm(alg)
        grid = TimeSteppedSimulator(alg.build(), dt=DT, horizon=80.0)
        for x in (1.0, -1.5, 2.2, -3.9):
            analytic = fleet.t_k(x, f + 1)
            gridded = grid.kth_distinct_visit_time(x, f + 1)
            assert gridded == pytest.approx(analytic, abs=TOL), x

    def test_two_group(self):
        alg = TwoGroupAlgorithm(4, 1)
        fleet = Fleet.from_algorithm(alg)
        grid = TimeSteppedSimulator(alg.build(), dt=DT, horizon=20.0)
        for x in (1.0, -5.5):
            assert grid.kth_distinct_visit_time(x, 2) == pytest.approx(
                fleet.t_k(x, 2), abs=TOL
            )

    def test_group_doubling_infeasible_k(self):
        alg = GroupDoubling(3, 1)
        grid = TimeSteppedSimulator(alg.build(), dt=DT, horizon=10.0)
        # all robots coincide, so within the horizon only points already
        # swept are visited; a far point is inf
        assert grid.kth_distinct_visit_time(100.0, 1) == math.inf

    def test_turn_cost_wrapper(self):
        """The wrapper's retimed trajectories agree with grid scanning —
        validates the pause insertion independently."""
        alg = TurnCostProportionalAlgorithm(3, 1, cost=0.4)
        robots = alg.build()
        grid = TimeSteppedSimulator(alg.build(), dt=DT, horizon=80.0)
        for x in (1.0, -2.0, 3.3):
            for i, robot in enumerate(robots):
                analytic = robot.first_visit_time(x)
                gridded = grid.first_visit_time(i, x)
                if analytic is None or analytic > 75.0:
                    continue
                assert gridded == pytest.approx(analytic, abs=TOL), (i, x)


@st.composite
def proportional_regimes(draw):
    """(n, f) with f < n < 2f + 2 — the paper's non-trivial band."""
    f = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=f + 1, max_value=2 * f + 1))
    return n, f


def signed_targets():
    magnitude = st.floats(
        min_value=1.0, max_value=4.0, allow_nan=False, allow_infinity=False
    )
    return st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())


class TestEngineAgainstGrid:
    # each grid walk costs horizon/dt steps per robot: a few dozen cases
    @settings(max_examples=30, deadline=None)
    @given(regime=proportional_regimes(), x=signed_targets())
    def test_worst_case_detection_time(self, regime, x):
        n, f = regime
        alg = ProportionalAlgorithm(n, f)
        engine = SearchSimulation(
            Fleet.from_algorithm(alg), x, fault_model=AdversarialFaults(f)
        ).run()
        grid = TimeSteppedSimulator(alg.build(), dt=DT, horizon=80.0)
        gridded = grid.kth_distinct_visit_time(x, f + 1)
        assert engine.detection_time == pytest.approx(gridded, abs=TOL)


class TestValidation:
    def test_bad_parameters(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            TimeSteppedSimulator([], dt=0.1, horizon=1.0)
        with pytest.raises(InvalidParameterError):
            TimeSteppedSimulator([LinearTrajectory(1)], dt=0.0, horizon=1.0)
        with pytest.raises(InvalidParameterError):
            TimeSteppedSimulator([LinearTrajectory(1)], dt=1.0, horizon=0.5)
        sim = TimeSteppedSimulator([LinearTrajectory(1)], dt=0.1, horizon=5.0)
        with pytest.raises(InvalidParameterError):
            sim.first_visit_time(3, 1.0)
        with pytest.raises(InvalidParameterError):
            sim.kth_distinct_visit_time(1.0, 0)

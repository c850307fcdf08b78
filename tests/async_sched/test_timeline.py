"""Unit tests for the lazy wall-clock <-> plan-time map."""

import pytest

from repro.async_sched.timeline import Timeline
from repro.errors import InvalidParameterError, SimulationError


def quantum_runs(gap, quantum):
    """One ``(gap, plan_end)`` run per quantum, plan ends summed."""
    plan_end = 0.0
    while True:
        plan_end += quantum
        yield (gap, plan_end)


class TestFsyncIdentity:
    def test_zero_gaps_are_the_identity(self):
        timeline = Timeline(quantum_runs(0.0, 0.5))
        for t in (0.0, 0.25, 0.5, 1.0, 3.7, 100.0):
            assert timeline.wall_of(t) == t
            assert timeline.plan_of(t) == t
        # zero-gap runs share one offset, so they form a single burst
        assert timeline.bursts == ((0.0, 100.0, 0.0),)

    def test_identity_is_bit_exact(self):
        # The parity contract: wall = plan + 0.0 must be the SAME float,
        # not merely a close one.
        timeline = Timeline(quantum_runs(0.0, 0.5))
        t = 0.1 + 0.2  # 0.30000000000000004
        assert timeline.wall_of(t) == t
        assert timeline.wall_of(t).hex() == t.hex()


class TestDelays:
    def test_initial_gap_shifts_everything(self):
        timeline = Timeline(iter([(1.0, 0.5), (0.0, 500.0)]))
        assert timeline.wall_of(0.25) == 1.25
        assert timeline.wall_of(0.5) == 1.5
        # after the first run the offset stays 1.0 (no further gaps)
        assert timeline.wall_of(0.75) == 1.75
        # the zero-gap run extends the first burst
        assert timeline.bursts == ((0.0, 500.0, 1.0),)

    def test_gaps_accumulate(self):
        timeline = Timeline(quantum_runs(1.0, 1.0))
        # burst k covers plan (k, k+1] at offset k+1
        assert timeline.wall_of(0.5) == 1.5
        assert timeline.wall_of(1.5) == 3.5
        assert timeline.wall_of(2.5) == 5.5

    def test_plan_of_freezes_inside_gaps(self):
        timeline = Timeline(quantum_runs(1.0, 1.0))
        # wall in [2, 3] is the second gap; plan is frozen at 1.0
        assert timeline.plan_of(2.0) == 1.0
        assert timeline.plan_of(2.7) == 1.0
        assert timeline.plan_of(3.0) == 1.0
        assert timeline.plan_of(3.5) == 1.5

    def test_round_trip_inside_bursts(self):
        timeline = Timeline(quantum_runs(0.25, 0.5))
        for t in (0.1, 0.4, 0.6, 1.3, 7.77):
            assert timeline.plan_of(timeline.wall_of(t)) == pytest.approx(t)

    def test_nonpositive_times(self):
        timeline = Timeline(quantum_runs(1.0, 0.5))
        assert timeline.wall_of(0.0) == 0.0
        assert timeline.wall_of(-3.0) == -3.0
        assert timeline.plan_of(-1.0) == 0.0

    def test_offset_at(self):
        timeline = Timeline(quantum_runs(1.0, 1.0))
        assert timeline.offset_at(0.5) == 1.0
        assert timeline.offset_at(1.5) == 2.0


class TestValidation:
    def test_negative_gap_rejected(self):
        timeline = Timeline(iter([(-0.1, 0.5)]))
        with pytest.raises(InvalidParameterError):
            timeline.wall_of(0.25)

    def test_nonpositive_burst_rejected(self):
        # A run must advance plan time past the previous run's end.
        for runs in (
            [(0.0, 0.0)],
            [(0.0, -0.5)],
            [(0.0, 0.5), (1.0, 0.5)],
            [(0.0, 0.5), (0.0, 0.25)],
            [(0.0, float("inf"))],
            [(0.0, float("nan"))],
        ):
            timeline = Timeline(iter(runs))
            with pytest.raises(InvalidParameterError):
                timeline.wall_of(0.75)

    def test_exhausted_slices_rejected(self):
        timeline = Timeline(iter([(0.0, 0.5)]))
        assert timeline.wall_of(0.5) == 0.5
        with pytest.raises(SimulationError):
            timeline.wall_of(10.0)

    def test_monotone(self):
        timeline = Timeline(quantum_runs(0.3, 0.7))
        times = [0.01 * k for k in range(1, 500)]
        walls = [timeline.wall_of(t) for t in times]
        assert walls == sorted(walls)

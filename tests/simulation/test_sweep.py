"""Unit tests for parameter sweeps."""

import pytest

from repro.core.optimal import optimal_beta
from repro.errors import InvalidParameterError
from repro.simulation.sweep import (
    SweepPoint,
    beta_sweep,
    fleet_size_sweep,
    geometric_grid,
    target_sweep,
)


class TestGeometricGrid:
    def test_endpoints_and_spacing(self):
        grid = geometric_grid(1.0, 16.0, 5)
        assert grid == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            geometric_grid(0.0, 10.0, 3)
        with pytest.raises(InvalidParameterError):
            geometric_grid(2.0, 1.0, 3)
        with pytest.raises(InvalidParameterError):
            geometric_grid(1.0, 2.0, 1)

    def test_negative_lower_bound_rejected(self):
        with pytest.raises(
            InvalidParameterError, match="positive lower bound"
        ):
            geometric_grid(-1.0, 10.0, 3)

    def test_equal_bounds_rejected_with_clear_message(self):
        with pytest.raises(
            InvalidParameterError, match="reversed or equal"
        ):
            geometric_grid(5.0, 5.0, 3)

    def test_non_finite_bounds_rejected(self):
        import math

        with pytest.raises(InvalidParameterError, match="finite"):
            geometric_grid(1.0, math.inf, 3)
        with pytest.raises(InvalidParameterError, match="finite"):
            geometric_grid(math.nan, 2.0, 3)

    def test_zero_and_negative_count_rejected(self):
        with pytest.raises(InvalidParameterError, match="count"):
            geometric_grid(1.0, 2.0, 0)
        with pytest.raises(InvalidParameterError, match="count"):
            geometric_grid(1.0, 2.0, -4)

    def test_ratio_underflow_rejected_not_silent(self):
        # A span so tiny the per-step ratio rounds to exactly 1.0 would
        # silently produce a constant grid; it must be rejected instead.
        import math

        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        with pytest.raises(InvalidParameterError, match="underflowed"):
            geometric_grid(lo, hi, 1000)

    def test_tiny_but_resolvable_span_stays_monotone(self):
        grid = geometric_grid(1.0, 1.0 + 1e-12, 4)
        assert len(grid) == 4
        assert grid[0] == 1.0
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestTargetSweepBatchMethod:
    def test_batch_matches_event(self, fleet_3_1):
        targets = geometric_grid(1.0, 64.0, 9)
        event = target_sweep(fleet_3_1, 1, targets, method="event")
        batch = target_sweep(fleet_3_1, 1, targets, method="batch")
        for a, b in zip(event.samples, batch.samples):
            assert b.detection_time == a.detection_time

    def test_unknown_method_rejected(self, fleet_3_1):
        with pytest.raises(InvalidParameterError, match="method"):
            target_sweep(fleet_3_1, 1, [1.0], method="quantum")


class TestTargetSweep:
    def test_profile_values(self, fleet_3_1):
        profile = target_sweep(fleet_3_1, 1, [1.0, 2.0, -2.0])
        assert len(profile.samples) == 3
        assert profile.samples[0].detection_time == pytest.approx(
            fleet_3_1.worst_case_detection_time(1.0, 1)
        )

    def test_empty_rejected(self, fleet_3_1):
        with pytest.raises(InvalidParameterError):
            target_sweep(fleet_3_1, 1, [])


class TestBetaSweep:
    def test_theory_only(self):
        pts = beta_sweep(3, 1, [1.3, 5 / 3, 2.5])
        assert all(isinstance(p, SweepPoint) for p in pts)
        assert all(p.measured is None for p in pts)
        # the optimum is the middle point
        assert min(pts, key=lambda p: p.theoretical).parameter == 5 / 3

    def test_measured_agrees_with_theory(self):
        pts = beta_sweep(3, 1, [1.5, 2.0], measure=True, x_max=60.0)
        for p in pts:
            assert p.gap() is not None
            assert p.gap() < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            beta_sweep(3, 1, [])


class TestFleetSizeSweep:
    def test_odd_critical_family(self):
        pts = fleet_size_sweep([(3, 1), (5, 2), (7, 3), (9, 4)])
        values = [p.theoretical for p in pts]
        assert values == sorted(values, reverse=True)  # improves with n

    def test_measured(self):
        pts = fleet_size_sweep([(3, 1)], measure=True, x_max=60.0)
        assert pts[0].gap() < 1e-6

    def test_gap_none_without_measurement(self):
        pts = fleet_size_sweep([(3, 1)])
        assert pts[0].gap() is None

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            fleet_size_sweep([])

    def test_optimal_beta_consistency(self):
        # the sweep's theoretical values use the optimal beta internally
        from repro.core.competitive_ratio import schedule_competitive_ratio

        pts = fleet_size_sweep([(5, 2)])
        assert pts[0].theoretical == pytest.approx(
            schedule_competitive_ratio(optimal_beta(5, 2), 5, 2)
        )

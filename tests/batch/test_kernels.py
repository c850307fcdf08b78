"""Unit tests for the pure-Python array kernels."""

import math

import pytest

from repro.batch.compile import compile_fleet, compile_trajectory
from repro.batch.kernels import (
    first_visit_row,
    kth_smallest_per_column,
    kth_visit_times,
    min_excluding_rows,
)
from repro.errors import InvalidParameterError
from repro.schedule import ProportionalAlgorithm, algorithm_for
from repro.trajectory import (
    DoublingTrajectory,
    GeometricZigZag,
    LinearTrajectory,
)
from tests.batch.test_compile import StationaryTrajectory


def grids():
    """Snapshot grids exercising starts, duplicates, and never-visits."""
    return [
        [-7.5, -2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.25, 7.5],
        [x / 8.0 for x in range(-60, 61)],
        [-1e-6, 1e-6, 30.0, -30.0 + 1e-9],
    ]


class TestFirstVisitRow:
    def test_matches_scalar_reference_on_doubling(self):
        compiled = compile_trajectory(DoublingTrajectory(), -8.0, 8.0)
        xs = sorted([-8.0, -3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 7.0])
        row = first_visit_row(compiled, xs)
        for x, t in zip(xs, row):
            assert t == compiled.first_visit(x)

    def test_matches_scalar_reference_on_zigzag(self):
        compiled = compile_trajectory(GeometricZigZag(1.0, 2.0), -16.0, 16.0)
        xs = [x / 4.0 for x in range(-64, 65)]
        row = first_visit_row(compiled, xs)
        for x, t in zip(xs, row):
            assert t == compiled.first_visit(x)

    def test_start_targets_get_start_time(self):
        compiled = compile_trajectory(LinearTrajectory(1), -2.0, 2.0)
        row = first_visit_row(compiled, [-1.0, 0.0, 0.0, 1.0])
        assert row[0] == math.inf
        assert row[1] == 0.0
        assert row[2] == 0.0
        assert row[3] == 1.0

    def test_unreached_targets_are_inf(self):
        compiled = compile_trajectory(LinearTrajectory(-1), -4.0, 4.0)
        assert first_visit_row(compiled, [1.0, 2.0]) == [math.inf, math.inf]

    def test_empty_grid(self):
        compiled = compile_trajectory(LinearTrajectory(1), -1.0, 1.0)
        assert first_visit_row(compiled, []) == []


class TestKthSmallestPerColumn:
    def test_order_statistics(self):
        rows = [[1.0, 5.0, math.inf], [3.0, 2.0, math.inf]]
        assert kth_smallest_per_column(rows, 1) == [1.0, 2.0, math.inf]
        assert kth_smallest_per_column(rows, 2) == [3.0, 5.0, math.inf]

    def test_k_exceeding_rows_gives_inf(self):
        rows = [[1.0, 2.0]]
        assert kth_smallest_per_column(rows, 2) == [math.inf, math.inf]

    def test_ties_count_separately(self):
        rows = [[4.0], [4.0], [4.0]]
        assert kth_smallest_per_column(rows, 3) == [4.0]

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="k"):
            kth_smallest_per_column([[1.0]], 0)
        with pytest.raises(InvalidParameterError, match="row"):
            kth_smallest_per_column([], 1)


class TestMinExcludingRows:
    def test_excludes_faulty_rows(self):
        rows = [[1.0, 4.0], [2.0, 3.0], [5.0, 1.0]]
        assert min_excluding_rows(rows, set()) == [1.0, 1.0]
        assert min_excluding_rows(rows, {0}) == [2.0, 1.0]
        assert min_excluding_rows(rows, {0, 2}) == [2.0, 3.0]

    def test_all_excluded_gives_inf(self):
        rows = [[1.0], [2.0]]
        assert min_excluding_rows(rows, {0, 1}) == [math.inf]

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(InvalidParameterError, match="out of range"):
            min_excluding_rows([[1.0]], {2})
        with pytest.raises(InvalidParameterError, match="out of range"):
            min_excluding_rows([[1.0]], {-1})


class TestSnapshots:
    """Whole compiled fleets against the scalar reference query."""

    @pytest.mark.parametrize("pair", [(2, 1), (3, 1), (5, 2), (6, 2)])
    def test_rows_match_scalar_reference(self, pair):
        n, f = pair
        fleet = compile_fleet(algorithm_for(n, f).build(), -32.0, 32.0)
        for xs in grids():
            xs_sorted = sorted(xs)
            for compiled in fleet.trajectories:
                # Exact equality on purpose: the kernel and the scalar
                # query compute the crossing with the same expression.
                assert first_visit_row(compiled, xs_sorted) == [
                    compiled.first_visit(x) for x in xs_sorted
                ]

    def test_order_statistics_match_scalar_reference(self):
        fleet = compile_fleet(
            ProportionalAlgorithm(3, 1).build(), -32.0, 32.0
        )
        xs_sorted = sorted(grids()[1])
        rows = [first_visit_row(c, xs_sorted) for c in fleet.trajectories]
        columns = [
            [c.first_visit(x) for c in fleet.trajectories] for x in xs_sorted
        ]
        for k in (1, 2, 3, 4):
            expected = [
                sorted(column)[k - 1] if k <= len(column) else math.inf
                for column in columns
            ]
            assert kth_smallest_per_column(rows, k) == expected
            assert kth_visit_times(fleet.trajectories, xs_sorted, k) == (
                expected
            )
        for excluded in (set(), {0}, {1, 2}, {0, 1, 2}):
            expected = [
                min(
                    (t for i, t in enumerate(column) if i not in excluded),
                    default=math.inf,
                )
                for column in columns
            ]
            assert min_excluding_rows(rows, excluded) == expected


class TestEdges:
    def test_zero_segment_trajectory(self):
        # A fleet member that never leaves the origin compiles to zero
        # segments and is visited only at its start.
        fleet = compile_fleet(
            [StationaryTrajectory(), LinearTrajectory(1)], -2.0, 2.0
        )
        rows = [
            first_visit_row(c, [-1.0, 0.0, 1.0]) for c in fleet.trajectories
        ]
        assert rows[0] == [math.inf, 0.0, math.inf]
        assert rows[1] == [math.inf, 0.0, 1.0]

    def test_kth_and_exclusion_validation(self):
        fleet = compile_fleet([LinearTrajectory(1)], -1.0, 1.0)
        rows = [first_visit_row(c, [0.5]) for c in fleet.trajectories]
        with pytest.raises(InvalidParameterError, match="k"):
            kth_smallest_per_column(rows, 0)
        with pytest.raises(InvalidParameterError, match="k"):
            kth_visit_times(fleet.trajectories, [0.5], 0)
        with pytest.raises(InvalidParameterError, match="row"):
            kth_visit_times([], [0.5], 1)
        with pytest.raises(InvalidParameterError, match="out of range"):
            min_excluding_rows(rows, {5})
        assert kth_smallest_per_column(rows, 2) == [math.inf]
        assert kth_visit_times(fleet.trajectories, [0.5], 2) == [math.inf]

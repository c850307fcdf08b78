"""Benchmark ``table1``: regenerate Table 1 of the paper.

Recomputes every row (competitive ratio of A(n,f), lower bound,
expansion factor) from closed forms AND from full trajectory simulation,
then asserts the reproduced numbers match the printed table.
"""

import pytest

from repro.experiments.table1 import PAPER_TABLE1, run_table1


def test_bench_table1_full_regeneration(benchmark):
    """Regenerate the complete measured Table 1 (the paper artifact)."""
    rows = benchmark(run_table1, measure=True, x_max=100.0)

    assert len(rows) == len(PAPER_TABLE1)
    for row in rows:
        # closed forms match the printed values (paper rounds to ~2dp)
        assert row.cr_error < 0.01, (row.n, row.f)
        assert row.computed_lower_bound >= row.paper_lower_bound - 0.005
        if row.paper_expansion is not None:
            assert row.computed_expansion == pytest.approx(
                row.paper_expansion, abs=0.01
            )
        # the simulation reproduces the closed form to float precision
        assert row.measurement_gap is not None
        assert row.measurement_gap < 1e-12, (row.n, row.f)


def test_bench_table1_shape_who_wins(table1_rows, benchmark):
    """Shape check: ratios are ordered exactly as the paper's table
    implies — 1 (trivial) < odd-critical < intermediate < 9 (minimal)."""

    def classify():
        by_pair = {(r.n, r.f): r.computed_cr for r in table1_rows}
        return by_pair

    by_pair = benchmark(classify)
    # trivial regime wins outright
    assert by_pair[(4, 1)] == 1.0 < by_pair[(5, 2)]
    # richer fleets (larger n/f) always beat poorer ones at equal f
    assert by_pair[(5, 2)] < by_pair[(4, 2)] < by_pair[(3, 2)]
    # minimal fleets pin at 9
    assert by_pair[(2, 1)] == by_pair[(3, 2)] == by_pair[(5, 4)] == 9.0
    # the big asymptotic rows approach 3 from above
    assert 3.0 < by_pair[(41, 20)] < by_pair[(11, 5)] < by_pair[(5, 2)]


def test_bench_table1_single_row_measurement(benchmark):
    """Microbenchmark: measuring one (n, f) configuration end-to-end."""
    from repro.schedule import ProportionalAlgorithm
    from repro.simulation import measure_competitive_ratio

    alg = ProportionalAlgorithm(5, 2)

    estimate = benchmark(measure_competitive_ratio, alg, x_max=100.0)
    assert estimate.matches(alg.theoretical_competitive_ratio(), tol=1e-12)

"""The rank kernel returns the column sort's floats, bit for bit.

:func:`repro.batch.kernels.kth_visit_times` ranks once per range of
targets where every robot stays on one piece, and proves the ``k``-th
robot at the range's two ends.  The reference fills every robot's row
with the per-target strip walk (:mod:`tests.batch.strip_oracle`) and
sorts every column (``kth_smallest_per_column``).  Both are compared by
``float.hex`` for every ``k`` from 1 to ``n + 1`` on fleets mixed from
the strip oracle's compiled families — unit-speed, speed-scaled and
waiting legs, so that lines cross inside a range — plus a pair of robots
whose legs agree to within a few ulps, so that rounding, not geometry,
orders them, repeated robots, whose times tie exactly, and Table 1
robots whose turn time ``t0 + (t1 - t0)`` rounds away from ``t1``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.compile import compile_trajectory
from repro.batch.kernels import kth_smallest_per_column, kth_visit_times
from repro.schedule import algorithm_for
from repro.trajectory.piecewise import PiecewiseTrajectory, waypoints

from tests.batch import strip_oracle
from tests.batch.test_strip_oracle import FAMILIES, WINDOW, _candidates

#: Two robots that both sit at ``t = x`` over ``[0, 40]``, one on a
#: single leg and one on two: their times differ by rounding alone.
NEAR_TIES = {
    "near-tie-one-leg": lambda: PiecewiseTrajectory(waypoints(
        [(0, 0), (40, 40), (-40, 120)]
    )),
    "near-tie-two-legs": lambda: PiecewiseTrajectory(waypoints(
        [(0, 0), (30, 30), (40, 40), (-40, 120)]
    )),
}

#: Table 1 robots with a turn inside the window where ``t0 + (t1 - t0)``
#: is not ``t1``: the clamped tail just past that turn must keep the
#: engine's ``t0 + 1.0 * (t1 - t0)``.
ROUNDED_TURNS = {
    "cone-4-2": lambda: algorithm_for(4, 2).build()[2],
    "cone-5-3": lambda: algorithm_for(5, 3).build()[2],
    "cone-7-3": lambda: algorithm_for(7, 3).build()[6],
}

ROBOTS = {**FAMILIES, **NEAR_TIES, **ROUNDED_TURNS}


def _fleet(names):
    return [compile_trajectory(ROBOTS[name](), -WINDOW, WINDOW)
            for name in names]


def _assert_every_rank(fleet, xs_sorted, label):
    rows = [strip_oracle.first_visit_row(c, xs_sorted) for c in fleet]
    for k in range(1, len(fleet) + 2):
        expected = kth_smallest_per_column(rows, k)
        assert [t.hex() for t in kth_visit_times(fleet, xs_sorted, k)] == [
            t.hex() for t in expected
        ], (label, k)


@settings(max_examples=80, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(ROBOTS)), min_size=1, max_size=5),
    extra=st.lists(
        st.floats(min_value=-2 * WINDOW, max_value=2 * WINDOW), max_size=8
    ),
    keep=st.floats(min_value=0.05, max_value=1.0),
    duplicates=st.integers(min_value=0, max_value=4),
    draw=st.randoms(use_true_random=False),
)
def test_rank_kernel_matches_the_column_sort(
    names, extra, keep, duplicates, draw
):
    fleet = _fleet(names)
    candidates = [x for c in fleet for x in _candidates(c)]
    targets = [x for x in candidates if draw.random() < keep] + extra
    if targets:
        targets += [draw.choice(targets) for _ in range(duplicates)]
    _assert_every_rank(fleet, sorted(targets), names)


def test_near_ties_dense_grid():
    """One range whose two ends order the near-tie robots the same way
    (``x / 40 * 40 < x / 30 * 30`` at 1.945 and 29.029), while rounding
    flips their order at hundreds of targets between."""
    fleet = _fleet(sorted(NEAR_TIES))
    xs_sorted = [1.945] + [1.95 + i * 0.01 for i in range(2700)] + [29.029]
    _assert_every_rank(fleet, xs_sorted, "near ties")


def test_every_family_with_every_candidate():
    """All robots at once over all their candidates: the most ranges,
    crossing lines, repeated robots and near ties in one fleet."""
    names = sorted(ROBOTS) + ["cone", "near-tie-one-leg"]
    fleet = _fleet(names)
    xs_sorted = sorted(x for c in fleet for x in _candidates(c))
    _assert_every_rank(fleet, xs_sorted, "all")
    assert any(
        math.isfinite(t) for t in kth_visit_times(fleet, xs_sorted, 3)
    )

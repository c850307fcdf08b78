"""The bisect-and-slice kernel returns the strip walk's floats, bit for bit.

The reference (:mod:`tests.batch.strip_oracle`) assigns each newly
covered target one at a time.  The library finds each strip's end by
bisect and fills it with one slice.  Every time is compared by
``float.hex`` on every compiled family — zig-zags, cones, doubling,
linear, speed-scaled, turn-cost legs that wait, bounded paths, a path
that starts off the origin and paths that turn within 1e-8 of it — at
turning points and one ulp either side, ``SEG_EPS`` either side (give or
take three ulps), inside the start tolerance, duplicated,
and beyond coverage, over random subsets of those targets so strips
range from empty to whole.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.compile import compile_trajectory
from repro.batch.kernels import SEG_EPS, START_RTOL, first_visit_row
from repro.extensions.bounded import TruncatedTrajectory
from repro.extensions.multi_speed import SpeedScaledTrajectory
from repro.extensions.turn_cost import TurnCostTrajectory
from repro.schedule import algorithm_for
from repro.trajectory import DoublingTrajectory, LinearTrajectory
from repro.trajectory.piecewise import PiecewiseTrajectory, waypoints
from repro.trajectory.zigzag import GeometricZigZag, ZigZagTrajectory

from tests.batch import strip_oracle

#: Half-width of the compiled window.
WINDOW = 40.0

#: Fresh-instance factories, one per compiled family.
FAMILIES = {
    "zigzag": lambda: ZigZagTrajectory([1.0, -2.0, 4.0, -8.0, 16.0, -32.0]),
    "geometric": lambda: GeometricZigZag(-1.5, 3.0, start_time=0.75),
    "doubling": DoublingTrajectory,
    "cone": lambda: algorithm_for(3, 1).build()[1],
    "cone-5-2": lambda: algorithm_for(5, 2).build()[3],
    "linear": lambda: LinearTrajectory(-1, speed=0.5, start_time=2.0),
    "speed-scaled": lambda: SpeedScaledTrajectory(DoublingTrajectory(), 0.6),
    "turn-cost": lambda: TurnCostTrajectory(
        algorithm_for(3, 1).build()[0], 0.25
    ),
    "bounded": lambda: TruncatedTrajectory(DoublingTrajectory(), radius=5.0),
    "off-origin": lambda: PiecewiseTrajectory(waypoints(
        [(0.5, 0), (2, 1.5), (2, 3), (-1, 6), (-1, 6.5), (0.5, 8), (30, 37.5),
         (-38, 105.5)]
    )),
    # Turns within 1e-8 of the origin, where ``x - SEG_EPS <= x1`` and
    # ``x <= x1 + SEG_EPS`` round differently for some targets.
    "turns-near-origin-down": lambda: PiecewiseTrajectory(waypoints(
        [(1.0, 0), (-1.0539377270182513e-14, 1.5), (1.5, 3.5),
         (-2.301120161771893e-12, 5.5), (2.0, 8.0), (-40, 52), (40, 134)]
    )),
    "turns-near-origin-up": lambda: PiecewiseTrajectory(waypoints(
        [(-1.0, 0), (-3.7257757059898375e-09, 1.5), (-1.5, 3.5),
         (-2.957204241550415e-11, 5.5), (-2.0, 8.0),
         (5.073220324236584e-13, 10.5), (-40, 52), (40, 134)]
    )),
}


def _around(value, ulps=1):
    """``value`` and up to ``ulps`` floats either side of it."""
    out = [value]
    down = up = value
    for _ in range(ulps):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return out


def _candidates(compiled):
    """Turning points, one ulp and ``SEG_EPS`` either side of them, the
    start tolerance run, and points past every leg."""
    s = compiled.start_position
    slack = START_RTOL * (1.0 + abs(s))
    targets = [1e6, -1e6, WINDOW, -WINDOW]
    for k in (0.0, 0.5, 1.0, 1.5):
        targets += _around(s + k * slack) + _around(s - k * slack)
    for x in set(compiled.x0 + compiled.x1):
        targets += _around(x)
        targets += _around(x + SEG_EPS, 3) + _around(x - SEG_EPS, 3)
    return targets


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    extra=st.lists(
        st.floats(min_value=-2 * WINDOW, max_value=2 * WINDOW), max_size=8
    ),
    keep=st.floats(min_value=0.05, max_value=1.0),
    duplicates=st.integers(min_value=0, max_value=4),
    draw=st.randoms(use_true_random=False),
)
def test_kernel_matches_the_strip_walk(family, extra, keep, duplicates, draw):
    compiled = compile_trajectory(FAMILIES[family](), -WINDOW, WINDOW)
    candidates = _candidates(compiled)
    targets = [x for x in candidates if draw.random() < keep] + extra
    if targets:
        targets += [draw.choice(targets) for _ in range(duplicates)]
    xs_sorted = sorted(targets)
    assert [t.hex() for t in first_visit_row(compiled, xs_sorted)] == [
        t.hex() for t in strip_oracle.first_visit_row(compiled, xs_sorted)
    ]


def test_every_candidate_at_once():
    """Each family with every candidate target: the densest strips."""
    for family, build in sorted(FAMILIES.items()):
        compiled = compile_trajectory(build(), -WINDOW, WINDOW)
        xs_sorted = sorted(_candidates(compiled))
        mine = first_visit_row(compiled, xs_sorted)
        assert [t.hex() for t in mine] == [
            t.hex() for t in strip_oracle.first_visit_row(compiled, xs_sorted)
        ], family
        assert any(math.isfinite(t) for t in mine), family

"""Oracles for the exact competitive-ratio kernel.

:func:`repro.batch.kernels.ratio_supremum` reads ``sup K`` off the
compiled legs instead of probing.  Two independent checks hold it:

* a dense probe: ``K`` over a 4000-point log grid plus every turn
  ``·(1 ± 1e-12)``, ranked with :func:`kth_visit_times`, never exceeds
  the kernel's supremum (beyond the few ulps of rounding ``t / |x|``);
* the engine: :meth:`Fleet.worst_case_detection_time` at the witness,
  read on the witness's side, reproduces the supremum to 1e-9.

Fleets: random zig-zag fleets with every ``f < n``; the speed-scaled,
turn-cost and bounded extensions of ``A(3, 1)``; and random polylines
that start off the origin and change speed from leg to leg, where a
robot's ``T_i(x) / |x|`` can rise with ``|x|``, so the supremum can sit
where two robots' lines cross or at the outer end of an interval.
"""

import math
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.compile import compile_fleet
from repro.batch.evaluate import BatchEvaluator
from repro.batch.kernels import (
    SEG_EPS,
    _start_run_edges,
    breakpoints,
    kth_visit_times,
    ratio_candidates,
    ratio_supremum,
    visit_pieces,
)
from repro.errors import InvalidParameterError
from repro.extensions.bounded import BoundedDistanceAlgorithm
from repro.extensions.multi_speed import MultiSpeedProportionalAlgorithm
from repro.extensions.turn_cost import TurnCostProportionalAlgorithm
from repro.robots.fleet import Fleet
from repro.schedule import algorithm_for
from repro.trajectory.piecewise import PiecewiseTrajectory, waypoints
from tests.integration.test_fuzz import zigzag_fleets

X_MAX = 30.0
GRID = 4000
ULPS = 8 * 2.0**-52


def _dense_profile(fleet, f, x_max=X_MAX):
    """``(x, K(x))`` over the dense probe set inside the window."""
    compiled = compile_fleet(fleet.trajectories, -x_max, x_max).trajectories
    ratio = x_max ** (1.0 / (GRID - 1))
    grid = [ratio**i for i in range(GRID)]
    probes = grid + [-x for x in grid]
    for c in compiled:
        for x in c.x1:
            probes += [x * (1.0 - 1e-12), x * (1.0 + 1e-12)]
    xs = sorted({x for x in probes if 1.0 <= abs(x) <= x_max})
    times = kth_visit_times(compiled, xs, f + 1)
    return [(x, t / abs(x)) for x, t in zip(xs, times)]


def _dense_reference(fleet, f, x_max=X_MAX):
    """``max K`` over the dense probe set inside the window."""
    return max(ratio for _, ratio in _dense_profile(fleet, f, x_max))


def _engine_at_witness(fleet, f, x, side):
    """The engine's ``K`` where the witness is read: just past ``x`` for
    a right limit (clear of the engine's ``SEG_EPS`` clamp past a
    turn), just inside for a left limit, at ``x`` otherwise."""
    step = max(abs(x) * 1e-12, 4 * SEG_EPS)
    if side == "right":
        x += math.copysign(step, x)
    elif side == "left":
        x -= math.copysign(step, x)
    return fleet.worst_case_detection_time(x, f) / abs(x)


def _check(fleet, f):
    (x, t, side), evaluated = BatchEvaluator(fleet, f).ratio_supremum(
        1.0, X_MAX
    )
    value = t / abs(x)
    assert evaluated >= 2
    assert 1.0 <= abs(x) <= X_MAX
    assert side in ("right", "left", "at")
    # up to the rounding of two divisions: a few ulps
    assert value * (1.0 + ULPS) >= _dense_reference(fleet, f)
    assert _engine_at_witness(fleet, f, x, side) == pytest.approx(
        value, rel=1e-9
    )


@st.composite
def fleets_with_budget(draw):
    fleet = draw(zigzag_fleets())
    return fleet, draw(st.integers(min_value=0, max_value=fleet.size - 1))


@given(fleets_with_budget())
@settings(max_examples=40, deadline=None)
def test_zigzag_fleets_every_budget(case):
    _check(*case)


@st.composite
def polylines(draw):
    """A polyline from anywhere in ``|x| <= X_MAX`` through random
    waypoints at random speeds, closing with a sweep past both window
    edges so every target is reached.  A start inside the window puts
    the engine's start run (``1e-9`` relative) there: the kernel reads
    its limits at the run's edges."""
    x = draw(st.one_of(
        st.floats(min_value=-X_MAX, max_value=X_MAX),
        st.sampled_from([1.0, -1.0, 2.0, -X_MAX]),
    ))
    t = 0.0
    points = [(x, t)]
    stops = draw(st.lists(
        st.floats(min_value=-X_MAX, max_value=X_MAX), min_size=1, max_size=4
    ))
    edge = draw(st.sampled_from([1.0, -1.0])) * (X_MAX + 1.0)
    for y in stops + [edge, -edge]:
        speed = draw(st.floats(min_value=0.25, max_value=1.0))
        t += abs(y - x) / speed
        points.append((y, t))
        x = y
    return PiecewiseTrajectory(waypoints(points))


@st.composite
def polyline_fleets(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    fleet = Fleet.from_trajectories([draw(polylines()) for _ in range(size)])
    return fleet, draw(st.integers(min_value=0, max_value=size - 1))


@given(polyline_fleets())
@settings(max_examples=60, deadline=None)
def test_polylines_off_origin_at_mixed_speeds(case):
    _check(*case)


@given(polyline_fleets())
@settings(max_examples=100, deadline=None)
def test_each_interval_is_bounded_by_its_own_candidates(case):
    """Not only the global supremum: every probe between two
    breakpoints stays below the candidates of its own interval (the
    right limit at its inner end, the crossings inside it, the left
    limit at its outer end), so no crossing or outer limit a rising
    ``K`` needs is missing."""
    fleet, f = case
    compiled = compile_fleet(
        fleet.trajectories, -X_MAX, X_MAX
    ).trajectories
    candidates = ratio_candidates(compiled, f + 1, 1.0, X_MAX)
    ends = breakpoints(compiled, 1.0, X_MAX)
    for sign in (1.0, -1.0):
        bounds = sorted(
            {1.0, X_MAX} | {abs(p) for p in ends if p * sign > 0}
        )
        best = [-math.inf] * len(bounds)   # per interval, by inner end
        for x, t, side in candidates:
            if x * sign < 0:
                continue
            i = bisect_left(bounds, abs(x))
            if side == "left":
                i -= 1
            elif side == "at" and bounds[i] != abs(x):
                i -= 1
            best[i] = max(best[i], t / abs(x))
        for x, ratio in _dense_profile(fleet, f):
            i = bisect_right(bounds, abs(x)) - 1
            if x * sign > 0 and abs(x) != bounds[i] and i < len(bounds) - 1:
                assert ratio <= best[i] * (1.0 + ULPS), (x, bounds[i])


@given(st.lists(
    st.floats(min_value=0.3, max_value=1.0), min_size=3, max_size=3
))
@settings(max_examples=15, deadline=None)
def test_speed_scaled(speeds):
    alg = MultiSpeedProportionalAlgorithm(3, 1, speeds=speeds)
    _check(Fleet.from_algorithm(alg), 1)


@given(st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=10, deadline=None)
def test_turn_cost(cost):
    alg = TurnCostProportionalAlgorithm(3, 1, cost=cost)
    _check(Fleet.from_algorithm(alg), 1)


@given(st.floats(min_value=1.0, max_value=2 * X_MAX))
@settings(max_examples=10, deadline=None)
def test_bounded(radius):
    alg = BoundedDistanceAlgorithm(3, 1, radius=radius)
    _check(Fleet.from_algorithm(alg), 1)


@pytest.mark.parametrize(
    "start", [0.0, 1e-9, -1e-9, 1e-12, 1.0, -1.0, 10.0, -100.0, 1e300]
)
def test_start_run_edges_are_the_first_floats_outside_the_run(start):
    a, b = _start_run_edges(start)
    inner = [math.nextafter(a, start), start, math.nextafter(b, start)]
    step = 1e-3 * (1.0 + abs(start))
    trajectory = PiecewiseTrajectory(
        waypoints([(start, 0.0), (start + step, step)])
    )
    reach = 2.0 * (abs(start) + step)
    compiled = compile_fleet([trajectory], -reach, reach).trajectories[0]
    xs = sorted({a, *inner, b})
    runs = [
        (lo, hi) for lo, hi, leg in visit_pieces(compiled, xs) if leg == 0.0
    ]
    assert runs == [(1, len(xs) - 1)]


def test_a_start_inside_the_window_is_read_at_its_run_edge():
    """A robot that starts at 10 and walks inward first: just outside
    its start run, ``x = 10`` is first reached on the way back, so
    ``K(10⁺)`` is the right limit at the run's outer edge, which the
    engine reads at that float itself."""
    back = PiecewiseTrajectory(
        waypoints([(10.0, 0.0), (2.0, 8.0), (40.0, 46.0), (-40.0, 126.0)])
    )
    fleet = Fleet.from_trajectories([back])
    compiled = compile_fleet(fleet.trajectories, -X_MAX, X_MAX).trajectories
    _, edge = _start_run_edges(10.0)
    at_edge = {
        side: t
        for x, t, side in ratio_candidates(compiled, 1, 9.0, X_MAX)
        if x == edge
    }
    # inside the run the robot is at its start; just outside, on its way
    # back
    assert at_edge["left"] == 0.0
    assert at_edge["right"] == fleet.worst_case_detection_time(edge, 0) == 8.0 + edge - 2.0
    assert fleet.worst_case_detection_time(10.0, 0) == 0.0


def test_proportional_supremum_is_theorem1():
    for n, f in [(2, 1), (3, 1), (4, 2), (5, 2), (5, 3), (7, 3)]:
        alg = algorithm_for(n, f)
        fleet = Fleet.from_algorithm(alg)
        (x, t, side), _ = BatchEvaluator(fleet, f).ratio_supremum(1.0, 200.0)
        cr = alg.theoretical_competitive_ratio()
        assert abs(t / abs(x) - cr) <= 1e-12 * cr
        assert side == "right"


def test_too_few_robots_never_detect():
    fleet = Fleet.from_algorithm(algorithm_for(3, 1))
    compiled = compile_fleet(fleet.trajectories, -8.0, 8.0).trajectories
    (x, t, side), evaluated = ratio_supremum(compiled, 4, 1.0, 8.0)
    assert (x, t, side, evaluated) == (1.0, math.inf, "at", 1)


@pytest.mark.parametrize(
    "k,lo,hi", [(0, 1.0, 8.0), (1, 0.0, 8.0), (1, 2.0, 2.0)]
)
def test_bad_arguments(k, lo, hi):
    fleet = Fleet.from_algorithm(algorithm_for(3, 1))
    compiled = compile_fleet(fleet.trajectories, -8.0, 8.0).trajectories
    with pytest.raises(InvalidParameterError):
        ratio_supremum(compiled, k, lo, hi)

"""Indexed trajectory queries return the leg walk's floats, bit for bit.

The reference (:mod:`tests.trajectory.walk_oracle`) walks the legs from
``t = 0`` on every query.  The library bisects running reach and
end-time arrays to the one leg that answers.  Every answer is compared
by ``float.hex`` — so even a signed zero counts — on every trajectory
family, on crash-halted wrappers (halted before the start, at a turn
and mid-leg, two wrappers sharing one inner path), and on targets at
turning points, one ulp either side of them, at the start position and
outside coverage.
"""

import math
from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.bounded import TruncatedTrajectory
from repro.extensions.multi_speed import SpeedScaledTrajectory
from repro.extensions.turn_cost import TurnCostTrajectory
from repro.geometry.point import SpaceTimePoint
from repro.schedule import algorithm_for
from repro.trajectory import DoublingTrajectory, LinearTrajectory
from repro.trajectory.base import Trajectory
from repro.trajectory.halfline import GeometricHalfLine, HalfLineZigZag
from repro.trajectory.halted import HaltedTrajectory
from repro.trajectory.linear import StationaryTrajectory
from repro.trajectory.piecewise import PiecewiseTrajectory, waypoints
from repro.trajectory.zigzag import GeometricZigZag, ZigZagTrajectory

from tests.trajectory import walk_oracle

#: Time horizon the probes cover.
HORIZON = 120.0


class LateStart(Trajectory):
    """A zig-zag whose first vertex is at ``t = 2``: a path that has not
    started when an early halt freezes it."""

    def vertex_iterator(self) -> Iterator[SpaceTimePoint]:
        t, position = 2.0, 0.5
        yield SpaceTimePoint(position, t)
        for turn in (1.5, -1.0, 3.5, -4.0, 9.0):
            t += abs(turn - position)
            position = turn
            yield SpaceTimePoint(turn, t)

    def covers(self, x: float) -> bool:
        return -4.0 <= x <= 9.0


#: Fresh-instance factories, one per trajectory family.
FAMILIES = {
    "zigzag": lambda: ZigZagTrajectory([1.0, -2.0, 4.0, -8.0, 16.0]),
    "geometric": lambda: GeometricZigZag(-1.5, 3.0, start_time=0.75),
    "doubling": DoublingTrajectory,
    "cone": lambda: algorithm_for(3, 1).build()[1],
    "cone-5-2": lambda: algorithm_for(5, 2).build()[3],
    "halfline": lambda: GeometricHalfLine(2.0, side=-1),
    "halfline-apexes": lambda: HalfLineZigZag(
        [1.0, 3.0, 9.0, 27.0], side=1, start_time=0.5
    ),
    "piecewise": lambda: PiecewiseTrajectory(waypoints(
        [(0, 0), (2, 2), (2, 3), (-1, 6), (-1, 6.5), (0.5, 9), (4, 12.5)]
    )),
    "linear": lambda: LinearTrajectory(-1, speed=0.5, start_time=2.0),
    "stationary": StationaryTrajectory,
    "speed-scaled": lambda: SpeedScaledTrajectory(DoublingTrajectory(), 0.6),
    "turn-cost": lambda: TurnCostTrajectory(
        algorithm_for(3, 1).build()[0], 0.25
    ),
    "bounded": lambda: TruncatedTrajectory(DoublingTrajectory(), radius=5.0),
    "late-start": LateStart,
}


def _hex(value):
    return None if value is None else value.hex()


def _around(value):
    return [value, math.nextafter(value, -math.inf),
            math.nextafter(value, math.inf)]


def _vertices(reference):
    """The vertices through the first one at or past ``HORIZON``."""
    reference.ensure_time(HORIZON)
    legs = reference.materialized_segments()
    return [reference.start] + [leg.end for leg in legs]


def _targets(reference, extra):
    """Turning points and one ulp either side, the start, points no leg
    reaches, and ``extra``."""
    vertices = _vertices(reference)
    targets = [vertices[0].position, 1e6, -1e6]
    for vertex in vertices:
        targets += _around(vertex.position)
    return targets + extra


def _times(reference, extra):
    """Vertex times and one ulp either side, instants before the start,
    and ``extra``."""
    times = [-1.0, 0.0]
    for vertex in _vertices(reference):
        times += _around(vertex.time)
    return times + extra


def _assert_same_answers(mine, oracle, targets, times):
    """``mine`` (library queries) against ``oracle`` (leg walks over a
    separate instance), queried in the same order."""
    for x in targets:
        assert _hex(mine.first_visit_time(x)) == _hex(
            walk_oracle.first_visit_time(oracle, x)
        ), ("first_visit_time", x)
        for until in times[::3]:
            assert [t.hex() for t in mine.visit_times(x, until)] == [
                t.hex() for t in walk_oracle.visit_times(oracle, x, until)
            ], ("visit_times", x, until)
    for t in times:
        assert mine.position_at(t).hex() == (
            walk_oracle.position_at(oracle, t).hex()
        ), ("position_at", t)


extras = st.lists(
    st.floats(min_value=-40.0, max_value=40.0), max_size=6
)
instants = st.lists(
    st.floats(min_value=0.0, max_value=HORIZON), max_size=6
)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    extra_targets=extras,
    extra_times=instants,
    order=st.randoms(use_true_random=False),
)
def test_trajectory_queries_match_the_leg_walk(
    family, extra_targets, extra_times, order
):
    build = FAMILIES[family]
    reference = build()
    targets = _targets(reference, extra_targets)
    times = _times(reference, extra_times)
    order.shuffle(targets)  # queries arrive in any order
    _assert_same_answers(build(), build(), targets, times)


@st.composite
def halts(draw, reference):
    """A halt time before the path leaves its start, at a turn, or
    mid-leg."""
    vertices = _vertices(reference)
    kind = draw(st.sampled_from(["before", "turn", "mid"]))
    if kind == "before":
        leaves = next(
            v.time for v in vertices if v.position != vertices[0].position
        )
        return draw(st.floats(min_value=1e-3, max_value=leaves))
    k = draw(st.integers(min_value=1, max_value=len(vertices) - 1))
    if kind == "turn":
        return vertices[k].time
    return 0.5 * (vertices[k - 1].time + vertices[k].time)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_halted_queries_match_the_leg_walk(data):
    family = data.draw(st.sampled_from(
        sorted(f for f in FAMILIES if f != "stationary")
    ))
    build = FAMILIES[family]
    reference = build()
    halt = data.draw(halts(reference))
    other = data.draw(halts(reference))
    targets = _targets(reference, data.draw(extras))
    times = _times(reference, data.draw(instants))
    # two wrappers of one shared inner path, as a cached fleet has
    shared = build()
    mine, theirs = HaltedTrajectory(shared, halt), HaltedTrajectory(
        shared, other
    )
    oracle, other_oracle = (
        walk_oracle.WalkHalted(build(), halt),
        walk_oracle.WalkHalted(build(), other),
    )
    for x in targets:
        assert mine.covers(x) == oracle.covers(x), ("covers", halt, x)
        assert theirs.covers(x) == other_oracle.covers(x), (
            "covers", other, x,
        )
    _assert_same_answers(mine, oracle, targets, times)
    _assert_same_answers(theirs, other_oracle, targets, times)
    assert [
        (v.position.hex(), v.time.hex())
        for v in mine.vertices_until(math.inf)
    ] == [
        (v.position.hex(), v.time.hex())
        for v in oracle.vertices_until(math.inf)
    ]

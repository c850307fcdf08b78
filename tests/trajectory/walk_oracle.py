"""Leg-walking reference queries: the oracle for indexed trajectories.

Each function here answers a trajectory query by walking the
materialized legs from ``t = 0``, one
:meth:`~repro.geometry.segment.MotionSegment.visit_time` (or
``position_at``) at a time — the straightforward reading of Lemma 3's
vertical line.  :class:`WalkHalted` is a crash-halted trajectory that
regenerates its inner path through ``vertex_iterator()`` and decides
coverage by walking the inner legs up to the halt.  The library's
bisect-indexed queries must return the same floats
(``tests/trajectory/test_walk_oracle.py``).

The reference reads only the public :class:`~repro.trajectory.base.Trajectory`
API, so it stays independent of however the library indexes its legs.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

from repro.errors import InvalidParameterError, TrajectoryError
from repro.geometry.point import SpaceTimePoint
from repro.geometry.segment import MotionSegment
from repro.trajectory.base import Trajectory

#: Start-point tolerance of ``first_visit_time`` and the halt slack.
EPS = 1e-9
#: Dedup width of ``visit_times``.
MERGE_EPS = 1e-12


def first_visit_time(trajectory: Trajectory, x: float) -> Optional[float]:
    """Earliest visit of ``x``: the first leg, from the start, that
    touches it."""
    if not math.isfinite(x):
        raise InvalidParameterError(f"position must be finite, got {x!r}")
    if not trajectory.covers(x):
        return None
    start = trajectory.start
    if abs(start.position - x) <= EPS * (1 + abs(x)):
        return start.time
    index = 0
    while True:
        trajectory.ensure_segments(index + 1)
        segments = trajectory.materialized_segments()
        if index >= len(segments):
            raise TrajectoryError(
                f"{trajectory.describe()} claims to cover x={x} but the "
                "path ended before reaching it"
            )
        t = segments[index].visit_time(x)
        if t is not None:
            return t
        index += 1


def visit_times(trajectory: Trajectory, x: float, until: float) -> List[float]:
    """Every visit of ``x`` up to ``until``, from every leg, merged at
    turns."""
    trajectory.ensure_time(until)
    times: List[float] = []
    for seg in trajectory.materialized_segments():
        if seg.start.time > until:
            break
        t = seg.visit_time(x)
        if t is None or t > until:
            continue
        if times and abs(times[-1] - t) <= MERGE_EPS * (1.0 + abs(t)):
            continue
        times.append(t)
    return times


def position_at(trajectory: Trajectory, time: float) -> float:
    """Position at ``time`` by a hand-written binary search over the
    legs' end times."""
    if not math.isfinite(time):
        raise InvalidParameterError(f"time must be finite, got {time!r}")
    trajectory.ensure_time(time)
    start = trajectory.start
    if time <= start.time:
        return start.position
    segments = trajectory.materialized_segments()
    last = segments[-1].end if segments else start
    if trajectory.is_finite and time >= last.time:
        return last.position
    lo, hi = 0, len(segments) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if segments[mid].end.time < time:
            lo = mid + 1
        else:
            hi = mid
    return segments[lo].position_at(time)


class WalkHalted(Trajectory):
    """``inner`` up to ``halt_time``, then standstill; regenerated from
    a fresh ``inner.vertex_iterator()`` and covered by a leg walk."""

    def __init__(self, inner: Trajectory, halt_time: float) -> None:
        super().__init__()
        self.inner = inner
        self.halt_time = float(halt_time)

    def vertex_iterator(self) -> Iterator[SpaceTimePoint]:
        previous = None
        for vertex in self.inner.vertex_iterator():
            if vertex.time >= self.halt_time:
                if previous is None:
                    yield SpaceTimePoint(vertex.position, vertex.time)
                    return
                position = MotionSegment(previous, vertex).position_at(
                    self.halt_time
                )
                yield SpaceTimePoint(position, self.halt_time)
                return
            yield vertex
            previous = vertex

    def covers(self, x: float) -> bool:
        if not self.inner.covers(x):
            return False
        self.inner.ensure_time(self.halt_time)
        for segment in self.inner.segments_until(self.halt_time):
            t = segment.visit_time(x)
            if t is not None and t <= self.halt_time + EPS:
                return True
        return False

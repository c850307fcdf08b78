"""A trajectory truncated by a crash: motion stops at a fixed time.

:class:`HaltedTrajectory` wraps any trajectory and freezes the robot at
the position it occupies at the halt time.  It is the kinematic side of
the crash-stop fault model: up to the halt the robot moves exactly as
planned; afterwards it sits still forever.  The wrapper materializes the
inner path only up to the halt time, so halting an infinite zig-zag is
cheap, and it reads the inner trajectory's own materialized vertices
and first-cover index: wrappers of one shared plan (a fleet cached per
process, :mod:`repro.batch.cache`) extend that plan once between them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from repro.errors import InvalidParameterError
from repro.geometry.point import SpaceTimePoint
from repro.geometry.segment import MotionSegment
from repro.trajectory.base import Trajectory

__all__ = ["HaltedTrajectory"]

_EPS = 1e-9


class HaltedTrajectory(Trajectory):
    """The prefix of ``inner`` up to ``halt_time``, then standstill.

    Examples:
        >>> from repro.trajectory.doubling import DoublingTrajectory
        >>> crashed = HaltedTrajectory(DoublingTrajectory(), halt_time=2.0)
        >>> crashed.position_at(1.0)
        1.0
        >>> crashed.position_at(100.0) == crashed.position_at(2.0)
        True
        >>> crashed.covers(-1.0)
        False
    """

    def __init__(self, inner: Trajectory, halt_time: float) -> None:
        super().__init__()
        if not isinstance(inner, Trajectory):
            raise InvalidParameterError(
                f"inner must be a Trajectory, got {inner!r}"
            )
        if not math.isfinite(halt_time) or halt_time <= 0.0:
            raise InvalidParameterError(
                f"halt time must be a positive finite real, got {halt_time!r}"
            )
        self._inner = inner
        self.halt_time = float(halt_time)

    def vertex_iterator(self) -> Iterator[SpaceTimePoint]:
        inner = self._inner
        vertices = inner._vertices
        previous = None
        for index in itertools.count():
            while index >= len(vertices):
                if not inner._pull_vertex() and index >= len(vertices):
                    return  # the inner path ended before the halt
            vertex = vertices[index]
            if vertex.time >= self.halt_time:
                if previous is None:
                    # halted before the path even starts: frozen at start
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
        inner = self._inner
        if not inner.covers(x):
            return False
        inner.ensure_time(self.halt_time)
        count = len(inner._segments)
        limit = self.halt_time + _EPS
        first = inner._first_leg_covering(x, count)
        for segment in inner._segments[first:count]:
            if segment.start.time > limit:
                break
            t = segment.visit_time(x)
            if t is not None and t <= limit:
                return True
        return False

    def describe(self) -> str:
        return (
            f"HaltedTrajectory({self._inner.describe()}, "
            f"halt_time={self.halt_time:.6g})"
        )

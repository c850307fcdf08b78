"""Trajectory abstraction: where is the robot, and when does it visit x?

A *trajectory* in this library is a (possibly infinite) continuous path of
a robot on the line, represented in space-time as a chain of
constant-velocity legs.  Zig-zag strategies have infinitely many turning
points, so trajectories are **lazy**: vertices are produced by an iterator
and materialized only as far as a query requires.

The two queries that everything else is built on:

* :meth:`Trajectory.position_at` — position at a given time;
* :meth:`Trajectory.first_visit_time` — the earliest time the robot is at
  a given point ``x`` (the quantity whose order statistics across a fleet
  define the search time ``T_{f+1}(x)`` of Definition 3).

Queries never walk the path from its start.  Each materialized leg
appends three floats to running arrays: the farthest position reached
to the right so far, the farthest to the left (negated, so both
ascend), and the leg's end time.  Consecutive legs share endpoints, so
the first leg whose running reach passes ``x`` is the first leg that
covers ``x`` — the vertical line of Lemma 3, swept by a bisect.  That
one leg's :meth:`~repro.geometry.segment.MotionSegment.visit_time`
answers, so a query costs one bisect and one leg formula.
"""

from __future__ import annotations

import itertools
import math
import threading
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence

from repro.errors import InvalidParameterError, TrajectoryError
from repro.geometry.point import SpaceTimePoint
from repro.geometry.segment import _EPS as _LEG_EPS
from repro.geometry.segment import MotionSegment

__all__ = ["Trajectory", "MaterializedView"]

_EPS = 1e-9

#: Dedup width for :meth:`Trajectory.visit_times`.  A visit exactly at a
#: turn is reported by both adjacent segments with float-identical (or
#: rounding-distance) times, so the merge only needs to absorb rounding
#: noise.  It must stay far tighter than ``_EPS``: at large times a
#: relative 1e-9 window would swallow *genuinely distinct* visits — the
#: return-leg and next out-leg visits of an expansion strategy are a
#: constant ``2|x|`` apart forever — and silently bias expected-time
#: series (see :mod:`repro.core.expected_time`).
_MERGE_EPS = 1e-12


class Trajectory(ABC):
    """Base class for robot trajectories.

    Subclasses implement :meth:`vertex_iterator`, yielding the starting
    point followed by every subsequent breakpoint in time order, and
    :meth:`covers`, an analytic answer to "does this path *ever* reach
    position ``x``?".  The base class owns lazy materialization and all
    visit queries.
    """

    def __init__(self) -> None:
        self._vertex_iter: Optional[Iterator[SpaceTimePoint]] = None
        self._vertices: List[SpaceTimePoint] = []
        self._segments: List[MotionSegment] = []
        # Per leg k: the largest max(start, end) + ε over legs 0..k, the
        # largest -(min(start, end) - ε) (so it ascends), and k's end
        # time; ε is the leg's cover tolerance.  See _pull_vertex for
        # why readers bound every bisect by len(self._segments).
        self._reach_right: List[float] = []
        self._reach_left: List[float] = []
        self._end_times: List[float] = []
        self._exhausted = False
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle; each copy gets its own
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------

    @abstractmethod
    def vertex_iterator(self) -> Iterator[SpaceTimePoint]:
        """Yield the start point and then each breakpoint, time-ordered.

        The iterator may be infinite.  Every pair of consecutive vertices
        must satisfy the unit speed limit.
        """

    @abstractmethod
    def covers(self, x: float) -> bool:
        """Whether the trajectory eventually reaches position ``x``.

        This must be answerable without materializing the infinite path
        (e.g. a zig-zag with growing amplitude covers the whole line; a
        straight run to the right covers exactly ``[start, +inf)``).
        """

    def describe(self) -> str:
        """One-line human-readable description (overridable)."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # materialization machinery
    # ------------------------------------------------------------------

    def _iter(self) -> Iterator[SpaceTimePoint]:
        if self._vertex_iter is None:
            self._vertex_iter = self.vertex_iterator()
        return self._vertex_iter

    def _pull_vertex(self) -> bool:
        """Materialize one more vertex; return False when exhausted.

        Threads share trajectories (a realized fleet is cached per
        process, :mod:`repro.batch.cache`), so pulls are serialized by
        a per-instance lock.  A pull that waited while another thread
        added a vertex returns True without pulling: its caller then
        re-checks how far the path reaches.  The lock is re-entrant, so
        a vertex iterator may query its own trajectory.  A new leg's
        index floats are appended before the leg itself, so a reader
        that bounds its bisect by ``len(self._segments)`` never reads
        past them.
        """
        if self._exhausted:
            return False
        seen = len(self._vertices)
        with self._lock:
            if len(self._vertices) != seen:
                return True
            if self._exhausted:
                return False
            try:
                vertex = next(self._iter())
            except StopIteration:
                self._exhausted = True
                return False
            if self._vertices:
                prev = self._vertices[-1]
                if vertex.time < prev.time - _EPS:
                    raise TrajectoryError(
                        f"vertex times must be non-decreasing: {prev.time} "
                        f"-> {vertex.time} in {self.describe()}"
                    )
                leg = MotionSegment(prev, vertex)
                right = max(prev.position, vertex.position) + _LEG_EPS
                left = -(min(prev.position, vertex.position) - _LEG_EPS)
                if self._segments:
                    right = max(right, self._reach_right[-1])
                    left = max(left, self._reach_left[-1])
                self._reach_right.append(right)
                self._reach_left.append(left)
                self._end_times.append(vertex.time)
                self._segments.append(leg)
            self._vertices.append(vertex)
            return True

    def _ensure_start(self) -> None:
        if not self._vertices and not self._pull_vertex():
            raise TrajectoryError(f"{self.describe()} yields no vertices")

    def ensure_time(self, time: float) -> None:
        """Materialize segments until the path extends past ``time`` (or
        the path ends)."""
        self._ensure_start()
        while (not self._exhausted) and (
            not self._segments or self._segments[-1].end.time < time
        ):
            if not self._pull_vertex():
                break

    def ensure_segments(self, count: int) -> None:
        """Materialize at least ``count`` segments (or exhaust the path)."""
        self._ensure_start()
        while len(self._segments) < count and self._pull_vertex():
            pass

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def start(self) -> SpaceTimePoint:
        """Starting space-time point (for all paper algorithms,
        the origin at time 0)."""
        self._ensure_start()
        return self._vertices[0]

    @property
    def is_finite(self) -> bool:
        """Whether the trajectory has been proven finite.

        Only meaningful after some materialization; infinite paths never
        report True.
        """
        return self._exhausted

    def materialized_segments(self) -> Sequence[MotionSegment]:
        """Segments materialized so far (for introspection/plotting)."""
        return tuple(self._segments)

    def segments_until(self, time: float) -> Sequence[MotionSegment]:
        """All segments starting at or before ``time``."""
        self.ensure_time(time)
        return tuple(s for s in self._segments if s.start.time <= time + _EPS)

    def vertices_until(self, time: float) -> Sequence[SpaceTimePoint]:
        """All vertices with time coordinate at most ``time``."""
        self.ensure_time(time)
        return tuple(v for v in self._vertices if v.time <= time + _EPS)

    def turning_points_until(self, time: float) -> List[SpaceTimePoint]:
        """Breakpoints up to ``time`` where the motion direction reverses."""
        self.ensure_time(time)
        turns: List[SpaceTimePoint] = []
        prev_dir: Optional[int] = None
        for seg in self._segments:
            if seg.start.time > time:
                break
            d = seg.direction
            if d == 0:
                continue
            if prev_dir is not None and d != prev_dir:
                turns.append(seg.start)
            prev_dir = d
        return turns

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def position_at(self, time: float) -> float:
        """Position of the robot at ``time``.

        Before the trajectory's start time the robot sits at its start
        position; after a *finite* trajectory ends it stays at the final
        position.
        """
        if not math.isfinite(time):
            raise InvalidParameterError(f"time must be finite, got {time!r}")
        self.ensure_time(time)
        if time <= self.start.time:
            return self.start.position
        if self._exhausted and time >= self._vertices[-1].time:
            return self._vertices[-1].position
        # the first leg ending at or after ``time``, else the last leg
        index = bisect_left(self._end_times, time, 0, len(self._segments) - 1)
        return self._segments[index].position_at(time)

    def first_visit_time(self, x: float) -> Optional[float]:
        """Earliest time at which the robot is at position ``x``.

        Returns ``None`` when :meth:`covers` says the point is never
        reached.  Standing at the start point counts as a visit.
        """
        if not math.isfinite(x):
            raise InvalidParameterError(f"position must be finite, got {x!r}")
        if not self.covers(x):
            return None
        start = self.start
        if abs(start.position - x) <= _EPS * (1 + abs(x)):
            return start.time
        count = len(self._segments)
        index = self._first_leg_covering(x, count)
        while index == count:
            if not self._pull_vertex() and count == len(self._segments):
                raise TrajectoryError(
                    f"{self.describe()} claims to cover x={x} but the path "
                    "ended before reaching it"
                )
            count = len(self._segments)
            index = self._first_leg_covering(x, count)
        return self._segments[index].visit_time(x)

    def _first_leg_covering(self, x: float, count: int) -> int:
        """Index of the first of the first ``count`` legs that covers
        ``x``, or ``count`` when none does."""
        if x > self._vertices[0].position:
            return bisect_left(self._reach_right, x, 0, count)
        return bisect_left(self._reach_left, -x, 0, count)

    def visit_times(self, x: float, until: float) -> List[float]:
        """All visit times of ``x`` up to time ``until`` (merged at turns)."""
        self.ensure_time(until)
        count = len(self._segments)
        times: List[float] = []
        for seg in self._segments[self._first_leg_covering(x, count):count]:
            if seg.start.time > until:
                break
            t = seg.visit_time(x)
            if t is None or t > until:
                continue
            if times and abs(times[-1] - t) <= _MERGE_EPS * (1.0 + abs(t)):
                continue
            times.append(t)
        return times

    def visit_count(self, x: float, until: float) -> int:
        """Number of distinct visits of ``x`` up to time ``until``."""
        return len(self.visit_times(x, until))

    def max_excursion_until(self, time: float) -> float:
        """Largest ``|position|`` attained up to ``time``."""
        self.ensure_time(time)
        best = abs(self.start.position)
        for seg in self._segments:
            if seg.start.time > time:
                break
            end_t = min(seg.end.time, time)
            best = max(best, abs(seg.position_at(end_t)), abs(seg.start.position))
        return best

    def total_distance_until(self, time: float) -> float:
        """Distance travelled up to ``time``."""
        self.ensure_time(time)
        total = 0.0
        for seg in self._segments:
            if seg.start.time > time:
                break
            end_t = min(seg.end.time, time)
            total += abs(seg.position_at(end_t) - seg.start.position)
        return total

    def view_until(self, time: float) -> "MaterializedView":
        """A finite, immutable snapshot of the path up to ``time``.

        Segments extending past ``time`` are clipped, so the view's
        duration is exactly ``time - start.time``.
        """
        clipped = []
        for seg in self.segments_until(time):
            end_t = min(seg.end.time, time)
            clipped.append(seg.clipped_to_times(seg.start.time, end_t))
        return MaterializedView(clipped, self.describe())


class MaterializedView:
    """A finite snapshot of a trajectory: plain data for plotting/reports.

    Examples:
        >>> from repro.trajectory.linear import LinearTrajectory
        >>> view = LinearTrajectory(direction=1).view_until(4.0)
        >>> view.duration
        4.0
    """

    def __init__(self, segments: Sequence[MotionSegment], label: str = ""):
        if not segments:
            raise InvalidParameterError("view needs at least one segment")
        self.segments = tuple(segments)
        self.label = label

    @property
    def duration(self) -> float:
        """Elapsed time of the snapshot."""
        return self.segments[-1].end.time - self.segments[0].start.time

    @property
    def vertices(self) -> List[SpaceTimePoint]:
        """All breakpoints (start included)."""
        pts = [self.segments[0].start]
        pts.extend(s.end for s in self.segments)
        return pts

    def bounding_positions(self) -> tuple:
        """``(min_position, max_position)`` over the snapshot."""
        xs = list(
            itertools.chain.from_iterable(
                (s.start.position, s.end.position) for s in self.segments
            )
        )
        return (min(xs), max(xs))

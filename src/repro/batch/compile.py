"""Compile trajectories into flat segment arrays for batch kernels.

The event engine answers "when does robot ``i`` first visit ``x``?" one
target at a time, walking a lazily materialized chain of
:class:`~repro.geometry.segment.MotionSegment` objects.  Batch
evaluation needs the same information for *thousands* of targets at
once, so this module flattens a trajectory's space-time polyline into
four parallel float arrays — ``x0, t0, x1, t1`` per constant-velocity
leg, in time order — that the array kernels can scan
without touching a single Python object per query.

Compilation is coverage-driven: given a target window ``[x_lo, x_hi]``,
segments are materialized until the swept position interval contains
every point of the window the trajectory ever reaches (``covers`` is
consulted, and an analytic bisection bounds the reachable extreme when
the window is only partially coverable), the path ends, or the segment
budget is exhausted.  The resulting :class:`CompiledTrajectory` is plain
data: it can be handed to the kernels, cached, or shipped across
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.batch.kernels import SEG_EPS, START_RTOL
from repro.errors import BatchError, InvalidParameterError
from repro.trajectory.base import Trajectory

__all__ = [
    "CompiledTrajectory",
    "CompiledFleet",
    "compile_trajectory",
    "compile_fleet",
]

#: Default ceiling on segments per trajectory; generous — the geometric
#: growth of every shipped strategy needs O(log(x_hi)) segments.
DEFAULT_MAX_SEGMENTS = 250_000

#: Bisection steps used to bound the reachable extreme of a partially
#: coverable window (enough for full float precision on any sane scale).
_BISECT_STEPS = 120

#: Slack when comparing the swept interval against a coverage bound —
#: the same per-segment positional slack the kernels (and the engine's
#: ``MotionSegment.covers_position``) apply, so every target the
#: envelope is allowed to stop short of is still assigned a clamped
#: visit time by the kernels.
_COVER_EPS = SEG_EPS


@dataclass(frozen=True)
class CompiledTrajectory:
    """A trajectory flattened to parallel segment arrays.

    Attributes:
        x0, t0: Per-segment start position and time, in time order.
        x1, t1: Per-segment end position and time.
        start_position: Position of the first vertex (origin for all
            paper algorithms).
        start_time: Time of the first vertex.
        swept_lo, swept_hi: The position interval actually swept by the
            compiled prefix; first-visit queries are exact inside it.
        window_lo, window_hi: The coverage window the compilation was
            asked to serve; queries outside it are out of contract.
        exhausted: Whether the underlying path was observed to end while
            compiling.  Compilation stops as soon as the window is
            served, so a finite path whose coverage was reached early
            may still report ``False``.

    Examples:
        >>> from repro.trajectory import DoublingTrajectory
        >>> compiled = compile_trajectory(DoublingTrajectory(), -4.0, 4.0)
        >>> compiled.segment_count >= 4
        True
        >>> compiled.first_visit(-1.0)
        3.0
    """

    x0: Tuple[float, ...]
    t0: Tuple[float, ...]
    x1: Tuple[float, ...]
    t1: Tuple[float, ...]
    start_position: float
    start_time: float
    swept_lo: float
    swept_hi: float
    window_lo: float
    window_hi: float
    exhausted: bool

    @property
    def segment_count(self) -> int:
        """Number of compiled constant-velocity legs."""
        return len(self.x0)

    def check_window(self, x_lo: float, x_hi: float) -> bool:
        """Whether ``[x_lo, x_hi]`` lies inside the compiled window."""
        return self.window_lo <= x_lo and x_hi <= self.window_hi

    def first_visit(self, x: float) -> float:
        """Reference scalar query: earliest visit of ``x`` (``inf`` if
        the compiled prefix never reaches it).

        Mirrors the engine's tolerance rules segment by segment —
        :meth:`~repro.trajectory.base.Trajectory.first_visit_time`'s
        relative start check, then the first segment covering ``x``
        within ``SEG_EPS`` with the crossing fraction clamped into the
        segment.  This is the semantic ground truth the array kernels
        must match; the kernel tests compare against it.
        """
        if abs(x - self.start_position) <= START_RTOL * (1.0 + abs(x)):
            return self.start_time
        for x0, t0, x1, t1 in zip(self.x0, self.t0, self.x1, self.t1):
            lo, hi = (x0, x1) if x0 <= x1 else (x1, x0)
            if lo - SEG_EPS <= x <= hi + SEG_EPS:
                dx = x1 - x0
                if abs(dx) <= SEG_EPS:
                    return t0
                frac = (x - x0) / dx
                frac = min(max(frac, 0.0), 1.0)
                return t0 + frac * (t1 - t0)
        return math.inf

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"CompiledTrajectory({self.segment_count} segments, "
            f"swept [{self.swept_lo:g}, {self.swept_hi:g}], "
            f"{'finite' if self.exhausted else 'prefix'})"
        )


@dataclass(frozen=True)
class CompiledFleet:
    """All trajectories of a fleet compiled over one shared window."""

    trajectories: Tuple[CompiledTrajectory, ...]
    window_lo: float
    window_hi: float

    @property
    def size(self) -> int:
        """Number of robots."""
        return len(self.trajectories)

    @property
    def segment_count(self) -> int:
        """Total compiled segments across the fleet."""
        return sum(c.segment_count for c in self.trajectories)

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"CompiledFleet({self.size} robots, "
            f"{self.segment_count} segments, "
            f"window [{self.window_lo:g}, {self.window_hi:g}])"
        )


def _reachable_extreme(
    trajectory: Trajectory, start: float, limit: float
) -> float:
    """How far toward ``limit`` the trajectory ever reaches.

    The set of positions a continuous path ever visits is an interval
    containing its start, so ``covers`` is monotone along the ray from
    ``start`` to ``limit`` and the reachable extreme can be bisected.
    """
    if trajectory.covers(limit):
        return limit
    lo, hi = start, limit  # covers(lo) is True (the start is visited)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if trajectory.covers(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compile_trajectory(
    trajectory: Trajectory,
    x_lo: float,
    x_hi: float,
    max_segments: int = DEFAULT_MAX_SEGMENTS,
) -> CompiledTrajectory:
    """Flatten ``trajectory`` into segment arrays covering ``[x_lo, x_hi]``.

    Materializes the lazy path until its swept interval contains every
    point of the window the trajectory ever reaches (or the path ends).
    First-visit queries for targets inside the window are then exact:
    covered targets fall inside a compiled segment, uncovered targets
    are provably never visited.

    Args:
        trajectory: Any :class:`~repro.trajectory.base.Trajectory`.
        x_lo, x_hi: The target window the compiled arrays must serve.
        max_segments: Guard against pathological paths; exceeding it
            raises :class:`~repro.errors.BatchError`.

    Raises:
        InvalidParameterError: on a malformed window.
        BatchError: when the segment budget is exhausted before the
            window is covered.

    Examples:
        >>> from repro.trajectory import LinearTrajectory
        >>> right = compile_trajectory(LinearTrajectory(1), -10.0, 10.0)
        >>> right.swept_hi >= 10.0
        True
        >>> right.swept_lo
        0.0
    """
    if not isinstance(trajectory, Trajectory):
        raise InvalidParameterError(
            f"trajectory must be a Trajectory, got {trajectory!r}"
        )
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise InvalidParameterError(
            f"window bounds must be finite, got [{x_lo!r}, {x_hi!r}]"
        )
    if x_hi < x_lo:
        raise InvalidParameterError(
            f"window is reversed: x_lo={x_lo!r} > x_hi={x_hi!r}"
        )
    if max_segments < 1:
        raise InvalidParameterError(
            f"max_segments must be >= 1, got {max_segments}"
        )

    start = trajectory.start
    s = start.position
    # The coverage the compiled prefix must attain on each side of the
    # start: the window edge when reachable, else the bisected extreme.
    need_hi = _reachable_extreme(trajectory, s, x_hi) if x_hi > s else s
    need_lo = _reachable_extreme(trajectory, s, x_lo) if x_lo < s else s

    def satisfied(lo: float, hi: float) -> bool:
        return hi >= need_hi - _COVER_EPS and lo <= need_lo + _COVER_EPS

    horizon = max(1.0, abs(start.time))
    swept_lo = swept_hi = s
    while True:
        segments = trajectory.materialized_segments()
        for seg in segments:
            swept_lo = min(swept_lo, seg.end.position)
            swept_hi = max(swept_hi, seg.end.position)
        if satisfied(swept_lo, swept_hi):
            break
        if trajectory.is_finite:
            break
        if len(segments) > max_segments:
            raise BatchError(
                f"{trajectory.describe()} needs more than {max_segments} "
                f"segments to cover [{x_lo:g}, {x_hi:g}]"
            )
        trajectory.ensure_time(horizon)
        if len(trajectory.materialized_segments()) == len(segments):
            # the horizon produced nothing new: double until it does,
            # or the path proves finite
            trajectory.ensure_segments(len(segments) + 1)
        horizon *= 2.0

    # Keep only the prefix needed for the window: segments after the
    # sweep first satisfies the requirement add nothing for first-visit
    # queries inside the window.
    x0: List[float] = []
    t0: List[float] = []
    x1: List[float] = []
    t1: List[float] = []
    lo = hi = s
    for seg in trajectory.materialized_segments():
        x0.append(seg.start.position)
        t0.append(seg.start.time)
        x1.append(seg.end.position)
        t1.append(seg.end.time)
        lo = min(lo, seg.end.position)
        hi = max(hi, seg.end.position)
        if satisfied(lo, hi):
            break

    return CompiledTrajectory(
        x0=tuple(x0),
        t0=tuple(t0),
        x1=tuple(x1),
        t1=tuple(t1),
        start_position=s,
        start_time=start.time,
        swept_lo=lo,
        swept_hi=hi,
        window_lo=x_lo,
        window_hi=x_hi,
        exhausted=trajectory.is_finite,
    )


def compile_fleet(
    trajectories: Iterable[Trajectory],
    x_lo: float,
    x_hi: float,
    max_segments: int = DEFAULT_MAX_SEGMENTS,
) -> CompiledFleet:
    """Compile every trajectory of a fleet over one shared window.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> fleet = compile_fleet(ProportionalAlgorithm(3, 1).build(), -8, 8)
        >>> fleet.size
        3
    """
    compiled = tuple(
        compile_trajectory(traj, x_lo, x_hi, max_segments=max_segments)
        for traj in trajectories
    )
    if not compiled:
        raise InvalidParameterError("fleet must contain at least one trajectory")
    return CompiledFleet(
        trajectories=compiled, window_lo=x_lo, window_hi=x_hi
    )

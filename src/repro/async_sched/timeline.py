"""Per-robot wall-clock ↔ plan-time maps built from scheduler runs.

The event engine separates *what* a robot does (its analytic plan
trajectory, parameterized by **plan time**) from *when* it gets to do it
(the activation schedule, parameterized by **wall time**).  A
:class:`Timeline` is the bridge: a lazy, monotone, piecewise-linear map
assembled from the ``(gap, plan_end)`` runs an activation scheduler
yields for one robot.  During a gap the robot is frozen (plan time does
not advance); during the burst that follows, plan time advances 1:1
with wall time up to ``plan_end``.  A zero-gap run extends the previous
burst, since both share one offset, so the stored bursts — and the
bisects every query makes — scale with the scheduler's decisions, not
with the number of activation quanta.  A query that needs more of the
map pulls every run it lacks in one loop, appending to three parallel
arrays (plan ends, wall ends, offsets) that it then bisects.

Exactness contract (the FSYNC parity harness depends on it): the wall
time of a plan instant inside burst ``k`` is computed as
``plan_t + offset_k`` where ``offset_k`` is the *cumulative sum of the
gaps* before that burst — never as ``burst_start_wall + (plan_t - τ)``,
which would round differently.  When every gap is ``0.0`` the offset is
exactly ``0.0`` and ``plan_t + 0.0`` is bit-identical to ``plan_t``, so
an FSYNC timeline reproduces continuous-engine times exactly.  The
schedulers end every run that precedes a gap at the float a
one-quantum-at-a-time schedule reaches (see
:mod:`repro.async_sched.schedulers`), so ``wall_of``, ``plan_of`` and
``offset_at`` return the same floats as a timeline holding one burst
per quantum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, List, Tuple

from repro.errors import InvalidParameterError, SimulationError

__all__ = ["Timeline"]


class Timeline:
    """Lazy wall↔plan map for one robot, fed by scheduler runs.

    Args:
        runs: Iterator of ``(gap, plan_end)`` runs — a wall-time idle
            gap (finite, ``>= 0``) followed by an active burst that
            advances plan time up to ``plan_end`` (finite, past the
            previous run's end).  Must be effectively infinite: the
            timeline pulls as many runs as its queries need.

    Examples:
        >>> fsync = Timeline((0.0, 0.5 * 2**k) for k in range(60))
        >>> fsync.wall_of(3.7)
        3.7
        >>> delayed = Timeline(iter([(1.0, 0.5), (0.0, 100.0)]))
        >>> delayed.wall_of(0.25)   # one gap of 1.0 before the burst
        1.25
        >>> delayed.plan_of(0.5)    # still idle at wall 0.5
        0.0
    """

    __slots__ = ("_runs", "_plan_ends", "_wall_ends", "_offsets")

    def __init__(self, runs: Iterable[Tuple[float, float]]) -> None:
        self._runs: Iterator[Tuple[float, float]] = iter(runs)
        #: Plan time at the end of burst ``k`` (strictly increasing).
        self._plan_ends: List[float] = []
        #: Wall time at the end of burst ``k`` (= plan end + offset).
        self._wall_ends: List[float] = []
        #: Cumulative idle offset during burst ``k`` (non-decreasing).
        self._offsets: List[float] = []

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def _extend(self, ends: List[float], limit: float) -> None:
        """Pull runs until ``ends`` (the plan or the wall ends) reaches
        ``limit``, all in this one loop."""
        plan_ends, wall_ends, offsets = (
            self._plan_ends, self._wall_ends, self._offsets
        )
        while not ends or ends[-1] < limit:
            try:
                gap, plan_end = next(self._runs)
            except StopIteration:
                raise SimulationError(
                    "activation scheduler exhausted its runs; schedulers "
                    "must yield (gap, plan_end) runs forever"
                ) from None
            if not (math.isfinite(gap) and gap >= 0.0):
                raise InvalidParameterError(
                    f"activation gap must be finite and >= 0, got {gap!r}"
                )
            previous = plan_ends[-1] if plan_ends else 0.0
            if not (math.isfinite(plan_end) and plan_end > previous):
                raise InvalidParameterError(
                    "activation run must end at a finite plan time past "
                    f"{previous!r}, got {plan_end!r}"
                )
            if gap == 0.0 and plan_ends:
                # Same offset on both sides: the run extends the last burst.
                plan_ends[-1] = plan_end
                wall_ends[-1] = plan_end + offsets[-1]
                continue
            offset = (offsets[-1] if offsets else 0.0) + gap
            offsets.append(offset)
            plan_ends.append(plan_end)
            wall_ends.append(plan_end + offset)

    def ensure_plan(self, plan_t: float) -> None:
        """Materialize runs until plan time ``plan_t`` is covered."""
        self._extend(self._plan_ends, plan_t)

    def ensure_wall(self, wall_t: float) -> None:
        """Materialize runs until wall time ``wall_t`` is covered."""
        self._extend(self._wall_ends, wall_t)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def wall_of(self, plan_t: float) -> float:
        """Earliest wall time at which the robot reaches plan time
        ``plan_t`` — exact (``plan_t + 0.0``) when no gap precedes it."""
        if not math.isfinite(plan_t):
            raise InvalidParameterError(
                f"plan time must be finite, got {plan_t!r}"
            )
        if plan_t <= 0.0:
            return plan_t
        self.ensure_plan(plan_t)
        index = bisect_left(self._plan_ends, plan_t)
        return plan_t + self._offsets[index]

    def plan_of(self, wall_t: float) -> float:
        """Plan-time progress of the robot at wall time ``wall_t``
        (frozen during gaps)."""
        if not math.isfinite(wall_t):
            raise InvalidParameterError(
                f"wall time must be finite, got {wall_t!r}"
            )
        if wall_t <= 0.0:
            return 0.0
        self.ensure_wall(wall_t)
        index = bisect_left(self._wall_ends, wall_t)
        plan_start = self._plan_ends[index - 1] if index else 0.0
        wall_start = plan_start + self._offsets[index]
        if wall_t <= wall_start:
            return plan_start  # inside the gap before burst ``index``
        return wall_t - self._offsets[index]

    def offset_at(self, plan_t: float) -> float:
        """Cumulative idle delay accrued by plan time ``plan_t``."""
        if plan_t <= 0.0:
            self.ensure_plan(math.ulp(0.0))
            return self._offsets[0]
        self.ensure_plan(plan_t)
        return self._offsets[bisect_left(self._plan_ends, plan_t)]

    # ------------------------------------------------------------------
    # introspection (audits, tests)
    # ------------------------------------------------------------------

    @property
    def bursts(self) -> Tuple[Tuple[float, float, float], ...]:
        """Materialized ``(plan_start, plan_end, offset)`` bursts; runs
        joined by a zero gap form one burst."""
        out = []
        start = 0.0
        for end, offset in zip(self._plan_ends, self._offsets):
            out.append((start, end, offset))
            start = end
        return tuple(out)

    def describe(self) -> str:
        """One-line summary of the materialized prefix."""
        if not self._plan_ends:
            return "Timeline(unmaterialized)"
        return (
            f"Timeline({len(self._plan_ends)} bursts, plan<="
            f"{self._plan_ends[-1]:.6g}, delay={self._offsets[-1]:.6g})"
        )

"""Per-quantum reference schedules: the oracle for activation timelines.

Each scheduler here yields one ``(gap, burst)`` slice per activation
quantum, and :class:`QuantumTimeline` stores one burst per slice.  This
is the straightforward model of the LCM activation schedule: every
quantum is a separate scheduler decision.  The library's schedulers
and :class:`repro.async_sched.timeline.Timeline` must answer every
``wall_of`` / ``plan_of`` / ``offset_at`` query with the same float as
this reference (``tests/async_sched/test_quantum_oracle.py``).

The reference reads only the scheduler's public parameters and the
plans' public :class:`~repro.trajectory.base.Trajectory` API, so it
stays independent of however the library represents a schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator, List, Tuple

from repro.async_sched.schedulers import ActivationScheduler, SchedulerContext


def reference_slices(
    scheduler: ActivationScheduler, robot: int, context: SchedulerContext
) -> Iterator[Tuple[float, float]]:
    """Per-quantum ``(gap, burst)`` slices for ``robot``, forever."""
    quantum = scheduler.quantum
    kind = scheduler.kind
    if kind == "fsync":
        while True:
            yield (0.0, quantum)
    if kind == "async":
        rng = context.rng(robot)
        while True:
            yield (scheduler.max_delay * rng.random(), quantum)
    if kind == "ssync":
        yield from _ssync_slices(scheduler, robot, context)
        return
    if kind == "adversarial":
        plan = context.plans[robot]
        covers = plan.covers(context.target)
        plan_t = 0.0
        while True:
            nxt = plan_t + quantum
            delayed = (
                scheduler.max_delay > 0.0
                and covers
                and any(
                    t > plan_t
                    for t in plan.visit_times(context.target, nxt)
                )
            )
            yield (scheduler.max_delay if delayed else 0.0, quantum)
            plan_t = nxt
    raise ValueError(f"no reference for scheduler kind {kind!r}")


def _ssync_slices(scheduler, robot, context):
    # The reference draws its own round masks, in round order from the
    # same master stream the library uses, under a private key.
    masks = context.shared.setdefault("reference_masks", [])
    rng = context.shared.setdefault("reference_rng", context.rng(context.n))
    round_no = idle = 0
    gap = 0.0
    while True:
        while len(masks) <= round_no:
            masks.append([rng.random() < scheduler.p for _ in range(context.n)])
        if not masks[round_no][robot] and idle < scheduler.max_idle_rounds:
            gap += scheduler.quantum
            idle += 1
        else:
            yield (gap, scheduler.quantum)
            gap = 0.0
            idle = 0
        round_no += 1


class QuantumTimeline:
    """Wall↔plan map with one stored burst per ``(gap, burst)`` slice.

    Offsets are cumulative gap sums and plan ends cumulative burst
    sums, both accumulated one slice at a time from ``0.0``.
    """

    def __init__(self, slices: Iterator[Tuple[float, float]]) -> None:
        self._slices = iter(slices)
        self._plan_ends: List[float] = []
        self._wall_ends: List[float] = []
        self._offsets: List[float] = []

    def _pull(self) -> None:
        gap, burst = next(self._slices)
        offset = (self._offsets[-1] if self._offsets else 0.0) + gap
        plan_end = (self._plan_ends[-1] if self._plan_ends else 0.0) + burst
        self._offsets.append(offset)
        self._plan_ends.append(plan_end)
        self._wall_ends.append(plan_end + offset)

    def _ensure_plan(self, plan_t: float) -> None:
        while not self._plan_ends or self._plan_ends[-1] < plan_t:
            self._pull()

    def _ensure_wall(self, wall_t: float) -> None:
        while not self._wall_ends or self._wall_ends[-1] < wall_t:
            self._pull()

    def wall_of(self, plan_t: float) -> float:
        if plan_t <= 0.0:
            return plan_t
        self._ensure_plan(plan_t)
        return plan_t + self._offsets[bisect_left(self._plan_ends, plan_t)]

    def plan_of(self, wall_t: float) -> float:
        if wall_t <= 0.0:
            return 0.0
        self._ensure_wall(wall_t)
        index = bisect_left(self._wall_ends, wall_t)
        plan_start = self._plan_ends[index - 1] if index else 0.0
        if wall_t <= plan_start + self._offsets[index]:
            return plan_start
        return wall_t - self._offsets[index]

    def offset_at(self, plan_t: float) -> float:
        if plan_t <= 0.0:
            self._ensure_plan(math.ulp(0.0))
            return self._offsets[0]
        self._ensure_plan(plan_t)
        return self._offsets[bisect_left(self._plan_ends, plan_t)]

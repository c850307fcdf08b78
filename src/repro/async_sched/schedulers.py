"""Pluggable activation schedulers for the discrete-event engine.

The LCM-style model separates a robot's *plan* (its trajectory,
parameterized by plan time) from its *activation schedule* (when the
wall clock lets that plan advance).  The schedule is made of activation
quanta: each quantum, the scheduler decides how long the robot idles
before its plan advances by one ``quantum``.  A scheduler emits the
schedule run-length encoded, as an infinite stream of ``(gap,
plan_end)`` *runs* per robot — idle ``gap`` wall seconds, then advance
plan time up to ``plan_end`` — consumed by
:class:`repro.async_sched.timeline.Timeline`.  A run costs one scheduler
decision however many quanta it spans:

- ``FSYNC`` — fully synchronous rounds: every robot active in every
  round, zero gaps, so the whole schedule is zero-gap runs, each twice
  as long as the last.  The event engine in this mode reproduces the
  continuous engine bit-exactly (see :mod:`repro.parity`).
- ``SSYNC`` — semi-synchronous: a seeded random subset of robots is
  active each round; inactive robots accrue one quantum of idle gap.
  One run per active round.  A fairness cap (``max_idle_rounds``)
  forces activation so every robot makes progress and searches still
  terminate.
- ``ASYNC`` — per-robot activation delays drawn from a seeded uniform
  distribution, ``gap = max_delay * U[0, 1)`` before every quantum, so
  one run per quantum: each draw is a decision.  The coupling is
  monotone: for a fixed seed, raising ``max_delay`` scales every gap
  up, so competitive ratios degrade monotonically (pinned by the
  Hypothesis property suite).
- ``ADVERSARIAL`` — a greedy target-covering adversary: it inserts the
  maximal allowed delay before exactly those quanta whose plan window
  visits the target.  Its schedule is one zero-gap run up to the next
  such window, then that one delayed quantum; the next visit comes from
  a bisect over the robot's cached visit list
  (:meth:`SchedulerContext.next_visit`).  This is the empirical worst
  case the closed forms (and the lower bounds of arXiv:1707.05077) do
  not cover.

Exactness contract: every run that follows a nonzero gap starts at the
same float a one-quantum-at-a-time schedule reaches — plan time summed
by repeated ``+= quantum`` from ``0.0``, never ``k * quantum`` — so
``Timeline.wall_of``/``plan_of``/``offset_at`` return the floats a
per-quantum schedule would give.  Boundaries inside a stretch of
zero-gap runs are free: the offset is the same on both sides of them.

Budget: no schedule spans more than ``_MAX_QUANTA`` quanta.  Past it,
the run-building loops raise :class:`~repro.errors.SimulationError`
(the quantum is too small for the horizon) rather than spin; FSYNC,
whose runs need no per-quantum loop, is exempt.

Determinism contract: scheduler randomness derives arithmetically from
``(seed, stream)`` — never from ``hash()`` — so run streams are
identical across processes and ``PYTHONHASHSEED`` values, and SSYNC's
per-round subsets are drawn in round order from a single master stream
(memoized in the shared context) so they are independent of the
interleaving in which robots' timelines materialize.
"""

from __future__ import annotations

import math
import random
import sys
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError, SimulationError
from repro.trajectory.base import Trajectory

__all__ = [
    "ActivationScheduler",
    "AdversarialScheduler",
    "AsyncScheduler",
    "FsyncScheduler",
    "SsyncScheduler",
    "SCHEDULER_KINDS",
    "SchedulerContext",
    "scheduler_from_spec",
]

#: Registered scheduler kinds, in canonical order.
SCHEDULER_KINDS: Tuple[str, ...] = ("fsync", "ssync", "async", "adversarial")

_DEFAULT_QUANTUM = 0.5

#: Mixing constants for the arithmetic (hash-free) stream derivation.
_STREAM_MULT = 1_000_003
_STREAM_SALT = 0x9E3779B9

#: Quanta one robot's schedule may span before the run-building loops
#: give up — a guard against a quantum so small relative to the horizon
#: that materializing the timeline would never finish.
_MAX_QUANTA = 2_000_000


def _too_small(quantum: float, plan_t: float) -> SimulationError:
    return SimulationError(
        f"activation schedule needed more than {_MAX_QUANTA} quanta of "
        f"{quantum:g} to pass plan time {plan_t:g}; the scheduler quantum "
        "is too small for this horizon"
    )


def _free_runs(
    plan_t: float, quantum: float, limit: float = math.inf
) -> Iterator[Tuple[float, float]]:
    """Zero-gap runs from ``plan_t`` on, each ending at twice the last end.

    With no gap ahead the run ends need not be quantum boundaries.
    Reaching ``limit`` raises the too-small-quantum error.
    """
    end = plan_t
    while end < limit:
        end = min(max(2.0 * end, end + quantum), limit, sys.float_info.max)
        yield (0.0, end)
    raise _too_small(quantum, end)


class SchedulerContext:
    """Everything a scheduler may consult when emitting runs.

    The context is shared by all robots of one engine run, so
    schedulers can coordinate (SSYNC's global per-round subsets live in
    :attr:`shared`) while remaining deterministic.

    Args:
        plans: Per-robot plan trajectories (post fault application).
        target: The target the adversary wants to keep uncovered.
        seed: Master seed for every derived random stream.
    """

    def __init__(
        self,
        plans: Sequence[Trajectory],
        target: float,
        seed: int,
    ) -> None:
        self.plans: Tuple[Trajectory, ...] = tuple(plans)
        self.target = float(target)
        self.seed = int(seed)
        #: Scratch space shared across robots (e.g. SSYNC round masks).
        self.shared: Dict[str, object] = {}
        #: Per-robot ``(horizon, visit times)`` (see :meth:`next_visit`).
        self._visits: Dict[int, Tuple[float, Optional[List[float]]]] = {}

    @property
    def n(self) -> int:
        return len(self.plans)

    def rng(self, stream: int) -> random.Random:
        """Seeded generator for an integer-identified stream.

        Derivation is purely arithmetic so it is stable across
        processes and ``PYTHONHASHSEED`` values.
        """
        return random.Random(
            (self.seed * _STREAM_MULT + int(stream)) ^ _STREAM_SALT
        )

    def next_visit(
        self, robot: int, after: float, limit: float
    ) -> Optional[float]:
        """First plan-time visit of the target by robot ``robot`` in
        ``(after, limit]``, or ``None`` when there is none.

        Each robot's merged ``plan.visit_times(target, horizon)`` list is
        cached, and the horizon doubles (up to the finite ``limit``)
        whenever a query passes it, so a query is a bisect.  The cache is
        exact: the list up to one horizon is a prefix of the list up to
        any later one.  A plan that never covers the target has no
        visits, and a path that has ended (a halted plan) is
        materialized whole, so its list to ``limit`` is complete.
        """
        cached = self._visits.get(robot)
        if cached is None:
            covers = self.plans[robot].covers(self.target)
            cached = (0.0, [] if covers else None)
        horizon, times = cached
        if times is None:
            return None
        while True:
            index = bisect_right(times, after)
            if index < len(times):
                visit = times[index]
                return visit if visit <= limit else None
            if horizon >= limit:
                return None
            plan = self.plans[robot]
            if plan.is_finite:
                horizon = limit
            else:
                horizon = min(
                    limit,
                    max(2.0 * horizon, 2.0 * after, 1.0 + abs(self.target)),
                )
            times = plan.visit_times(self.target, horizon)
            self._visits[robot] = (horizon, times)


class ActivationScheduler(ABC):
    """Strategy producing per-robot ``(gap, plan_end)`` run streams."""

    #: Canonical kind name (one of :data:`SCHEDULER_KINDS`).
    kind: str = ""

    def __init__(self, quantum: float = _DEFAULT_QUANTUM) -> None:
        quantum = float(quantum)
        if not (math.isfinite(quantum) and quantum > 0.0):
            raise InvalidParameterError(
                f"scheduler quantum must be finite and > 0, got {quantum!r}"
            )
        self.quantum = quantum

    @abstractmethod
    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        """Yield ``(gap, plan_end)`` runs for one robot, forever: idle
        ``gap`` wall seconds, then advance plan time up to ``plan_end``."""

    def describe(self) -> str:
        return f"{self.kind}(quantum={self.quantum:g})"

    def spec(self) -> str:
        """Round-trippable spec string (see :func:`scheduler_from_spec`)."""
        return f"{self.kind}:{self.quantum:g}"


class FsyncScheduler(ActivationScheduler):
    """Fully synchronous rounds: every robot active, zero gaps.

    Zero-gap runs merge into one burst, so the schedule is emitted in
    runs of doubling length.

    Examples:
        >>> from itertools import islice
        >>> sched = FsyncScheduler(quantum=1.0)
        >>> list(islice(sched.slices(0, SchedulerContext([], 1.0, 0)), 3))
        [(0.0, 1.0), (0.0, 2.0), (0.0, 4.0)]
    """

    kind = "fsync"

    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        return _free_runs(0.0, self.quantum)


class SsyncScheduler(ActivationScheduler):
    """Semi-synchronous: seeded random robot subset active per round.

    Each round, every robot is independently active with probability
    ``p``.  The per-round activation masks are global: they are drawn
    lazily in round order from a single master stream and memoized in
    ``context.shared``, so whichever robot's timeline materializes a
    round first, all robots observe the same mask.  After
    ``max_idle_rounds`` consecutive idle rounds a robot is forcibly
    activated — without this fairness cap an unlucky stream could stall
    a robot indefinitely and the search might never terminate.
    """

    kind = "ssync"

    def __init__(
        self,
        p: float = 0.5,
        quantum: float = _DEFAULT_QUANTUM,
        max_idle_rounds: int = 8,
    ) -> None:
        super().__init__(quantum)
        p = float(p)
        if not (0.0 < p <= 1.0):
            raise InvalidParameterError(
                f"SSYNC activation probability must be in (0, 1], got {p!r}"
            )
        max_idle_rounds = int(max_idle_rounds)
        if max_idle_rounds < 1:
            raise InvalidParameterError(
                "SSYNC max_idle_rounds must be >= 1, got "
                f"{max_idle_rounds!r}"
            )
        self.p = p
        self.max_idle_rounds = max_idle_rounds

    def describe(self) -> str:
        return (
            f"ssync(p={self.p:g}, quantum={self.quantum:g}, "
            f"max_idle_rounds={self.max_idle_rounds})"
        )

    def spec(self) -> str:
        return f"ssync:{self.p:g}:{self.quantum:g}"

    def _round_mask(self, context: SchedulerContext, round_no: int) -> List[bool]:
        key = "ssync_masks"
        masks = context.shared.setdefault(key, [])
        rng_key = "ssync_rng"
        if rng_key not in context.shared:
            context.shared[rng_key] = context.rng(context.n)
        rng = context.shared[rng_key]
        while len(masks) <= round_no:
            masks.append([rng.random() < self.p for _ in range(context.n)])
        return masks[round_no]

    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        quantum = self.quantum
        round_no = idle = quanta = 0
        gap = plan_end = 0.0
        while True:
            active = self._round_mask(context, round_no)[robot]
            if not active and idle < self.max_idle_rounds:
                gap += quantum
                idle += 1
            else:
                if quanta == _MAX_QUANTA:
                    raise _too_small(quantum, plan_end)
                plan_end += quantum
                quanta += 1
                yield (gap, plan_end)
                gap = 0.0
                idle = 0
            round_no += 1


class AsyncScheduler(ActivationScheduler):
    """Per-robot activation delays from a seeded uniform distribution.

    Before every quantum, robot ``i`` idles for
    ``max_delay * U[0, 1)`` drawn from its own stream
    ``context.rng(i)``.  For a fixed seed the draws are identical
    across ``max_delay`` values, so gaps — and hence detection times —
    are monotone non-decreasing in ``max_delay`` (the monotone-CR
    property test relies on this coupling).
    """

    kind = "async"

    def __init__(
        self, max_delay: float = 1.0, quantum: float = _DEFAULT_QUANTUM
    ) -> None:
        super().__init__(quantum)
        max_delay = float(max_delay)
        if not (math.isfinite(max_delay) and max_delay >= 0.0):
            raise InvalidParameterError(
                f"max_delay must be finite and >= 0, got {max_delay!r}"
            )
        self.max_delay = max_delay

    def describe(self) -> str:
        return (
            f"async(max_delay={self.max_delay:g}, quantum={self.quantum:g})"
        )

    def spec(self) -> str:
        return f"async:{self.max_delay:g}:{self.quantum:g}"

    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        if self.max_delay == 0.0:  # no draw can delay: the FSYNC schedule
            yield from _free_runs(0.0, self.quantum)
        rng = context.rng(robot)
        plan_end = 0.0
        for _ in range(_MAX_QUANTA):
            plan_end += self.quantum
            yield (self.max_delay * rng.random(), plan_end)
        raise _too_small(self.quantum, plan_end)


class AdversarialScheduler(ActivationScheduler):
    """Greedy target-covering adversary.

    Before each quantum the adversary peeks at the robot's next plan
    window ``(p, p + quantum]``: if the plan would visit the target in
    that window, the robot is delayed by the full ``max_delay``;
    otherwise it runs immediately.  The quanta between two such windows
    form one zero-gap run.  The delay budget is per-activation
    (the LCM adversary may delay any activation, but each by a bounded
    amount), so a robot heading for the target is stalled on every leg
    that matters and untouched otherwise — the greedy worst case for
    detection time under a bounded-delay adversary.
    """

    kind = "adversarial"

    def __init__(
        self, max_delay: float = 1.0, quantum: float = _DEFAULT_QUANTUM
    ) -> None:
        super().__init__(quantum)
        max_delay = float(max_delay)
        if not (math.isfinite(max_delay) and max_delay >= 0.0):
            raise InvalidParameterError(
                f"max_delay must be finite and >= 0, got {max_delay!r}"
            )
        self.max_delay = max_delay

    def describe(self) -> str:
        return (
            f"adversarial(max_delay={self.max_delay:g}, "
            f"quantum={self.quantum:g})"
        )

    def spec(self) -> str:
        return f"adversarial:{self.max_delay:g}:{self.quantum:g}"

    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        quantum = self.quantum
        if self.max_delay == 0.0:  # nothing to insert: the FSYNC schedule
            yield from _free_runs(0.0, quantum)
        limit = _MAX_QUANTA * quantum
        plan_t = 0.0
        while True:
            visit = context.next_visit(robot, plan_t, limit)
            if visit is None:  # no delay within the budget; raises past it
                yield from _free_runs(plan_t, quantum, limit)
            # Sum quanta one at a time up to the window (plan_t, nxt]
            # holding the visit, as a per-quantum schedule would.
            start = plan_t
            nxt = plan_t + quantum
            while nxt < visit:
                plan_t = nxt
                nxt = plan_t + quantum
            if plan_t > start:
                yield (0.0, plan_t)
            yield (self.max_delay, nxt)
            plan_t = nxt


def scheduler_from_spec(spec: str) -> ActivationScheduler:
    """Parse a scheduler spec string.

    Grammar: ``[event:]KIND[:ARG[:QUANTUM]]`` where ``KIND`` is one of
    :data:`SCHEDULER_KINDS`; ``ARG`` is the activation probability for
    ``ssync`` and the max delay for ``async``/``adversarial`` (ignored
    for ``fsync``, which accepts ``fsync[:QUANTUM]``).  The bare string
    ``"event"`` means the FSYNC default.

    Examples:
        >>> scheduler_from_spec("event").describe()
        'fsync(quantum=0.5)'
        >>> scheduler_from_spec("event:adversarial:1.0").describe()
        'adversarial(max_delay=1, quantum=0.5)'
        >>> scheduler_from_spec("ssync:0.25:0.125").describe()
        'ssync(p=0.25, quantum=0.125, max_idle_rounds=8)'
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InvalidParameterError(
            f"scheduler spec must be a non-empty string, got {spec!r}"
        )
    parts = spec.strip().lower().split(":")
    if parts[0] == "event":
        parts = parts[1:] or ["fsync"]
    kind, args = parts[0], parts[1:]
    if kind not in SCHEDULER_KINDS:
        raise InvalidParameterError(
            f"unknown scheduler kind {kind!r}; expected one of "
            f"{', '.join(SCHEDULER_KINDS)}"
        )
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise InvalidParameterError(
            f"scheduler spec arguments must be numeric, got {spec!r}"
        ) from None
    if len(values) > 2:
        raise InvalidParameterError(
            f"scheduler spec takes at most two arguments, got {spec!r}"
        )
    if kind == "fsync":
        if len(values) > 1:
            raise InvalidParameterError(
                f"fsync takes at most a quantum argument, got {spec!r}"
            )
        return FsyncScheduler(*values)
    if kind == "ssync":
        return SsyncScheduler(*values)
    if kind == "async":
        return AsyncScheduler(*values)
    return AdversarialScheduler(*values)

"""Pluggable activation schedulers for the discrete-event engine.

The LCM-style model separates a robot's *plan* (its trajectory,
parameterized by plan time) from its *activation schedule* (when the
wall clock lets that plan advance).  A scheduler expresses the schedule
as an infinite stream of ``(gap, burst)`` slices per robot, consumed by
:class:`repro.async_sched.timeline.Timeline`:

- ``FSYNC`` — fully synchronous rounds: every robot active in every
  round, zero gaps.  The event engine in this mode reproduces the
  continuous engine bit-exactly (see :mod:`repro.parity`).
- ``SSYNC`` — semi-synchronous: a seeded random subset of robots is
  active each round; inactive robots accrue one quantum of idle gap.
  A fairness cap (``max_idle_rounds``) forces activation so every
  robot makes progress and searches still terminate.
- ``ASYNC`` — per-robot activation delays drawn from a seeded uniform
  distribution, ``gap = max_delay * U[0, 1)`` before every burst.  The
  coupling is monotone: for a fixed seed, raising ``max_delay`` scales
  every gap up, so competitive ratios degrade monotonically (pinned by
  the Hypothesis property suite).
- ``ADVERSARIAL`` — a greedy target-covering adversary: before each
  quantum it inspects the robot's upcoming plan window and inserts the
  maximal allowed delay exactly when that window would visit the
  target.  This is the empirical worst case the closed forms (and the
  lower bounds of arXiv:1707.05077) do not cover.

Determinism contract: scheduler randomness derives arithmetically from
``(seed, stream)`` — never from ``hash()`` — so slice streams are
identical across processes and ``PYTHONHASHSEED`` values, and SSYNC's
per-round subsets are drawn in round order from a single master stream
(memoized in the shared context) so they are independent of the
interleaving in which robots' timelines materialize.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import InvalidParameterError
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


class SchedulerContext:
    """Everything a scheduler may consult when emitting slices.

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

    def window_has_visit(self, robot: int, lo: float, hi: float) -> bool:
        """Whether robot ``robot``'s plan visits the target during the
        half-open plan-time window ``(lo, hi]``."""
        plan = self.plans[robot]
        if not plan.covers(self.target):
            return False
        return any(t > lo for t in plan.visit_times(self.target, hi))


class ActivationScheduler(ABC):
    """Strategy producing per-robot ``(gap, burst)`` slice streams."""

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
        """Yield ``(gap, burst)`` pairs for one robot, forever."""

    def describe(self) -> str:
        return f"{self.kind}(quantum={self.quantum:g})"

    def spec(self) -> str:
        """Round-trippable spec string (see :func:`scheduler_from_spec`)."""
        return f"{self.kind}:{self.quantum:g}"


class FsyncScheduler(ActivationScheduler):
    """Fully synchronous rounds: every robot active, zero gaps.

    Examples:
        >>> from itertools import islice
        >>> sched = FsyncScheduler(quantum=1.0)
        >>> list(islice(sched.slices(0, SchedulerContext([], 1.0, 0)), 3))
        [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    """

    kind = "fsync"

    def slices(
        self, robot: int, context: SchedulerContext
    ) -> Iterator[Tuple[float, float]]:
        while True:
            yield (0.0, self.quantum)


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
        round_no = 0
        idle = 0
        gap = 0.0
        while True:
            active = self._round_mask(context, round_no)[robot]
            if not active and idle < self.max_idle_rounds:
                gap += self.quantum
                idle += 1
            else:
                yield (gap, self.quantum)
                gap = 0.0
                idle = 0
            round_no += 1


class AsyncScheduler(ActivationScheduler):
    """Per-robot activation delays from a seeded uniform distribution.

    Before every burst, robot ``i`` idles for
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
        rng = context.rng(robot)
        while True:
            yield (self.max_delay * rng.random(), self.quantum)


class AdversarialScheduler(ActivationScheduler):
    """Greedy target-covering adversary.

    Before each quantum the adversary peeks at the robot's next plan
    window ``(p, p + quantum]``: if the plan would visit the target in
    that window, the robot is delayed by the full ``max_delay``;
    otherwise it runs immediately.  The delay budget is per-activation
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
        plan_t = 0.0
        while True:
            nxt = plan_t + self.quantum
            if self.max_delay > 0.0 and context.window_has_visit(
                robot, plan_t, nxt
            ):
                yield (self.max_delay, self.quantum)
            else:
                yield (0.0, self.quantum)
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

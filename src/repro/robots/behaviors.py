"""Fault behaviors: *how* a faulty robot misbehaves.

The paper studies exactly one failure mode — a robot that moves as
planned but never detects (here :class:`CrashDetectionFault`).  The
related literature motivates three more, and this module generalizes the
fault axis into a small taxonomy:

* :class:`CrashDetectionFault` — the paper's model, unchanged semantics:
  full trajectory, zero detections.
* :class:`CrashStopFault` — a crash fault in the classical sense: the
  robot operates correctly (moves *and* detects) until an injected halt
  time, then freezes forever.
* :class:`ByzantineFalseAlarmFault` — a lying robot (cf. Czyzowicz et
  al., *Search on a Line by Byzantine Robots*, arXiv:1611.08209): it
  never truly detects but emits spurious detection announcements, which
  must not count toward the search time.
* :class:`ProbabilisticDetectionFault` — probabilistically faulty
  sensing (cf. Georgiou et al., arXiv:2303.15608): each visit of the
  target detects independently with probability ``p``, seeded so runs
  are reproducible.

A behavior answers every question an engine asks about one robot: what
trajectory does it actually follow (:meth:`FaultBehavior.apply_trajectory`)
and when does it stop (:attr:`FaultBehavior.halt_time`), when does it
*genuinely* detect a target (:meth:`FaultBehavior.detection_time` —
analytic where the model is deterministic, seeded-deterministic where it
is stochastic), what spurious claims does it broadcast
(:meth:`FaultBehavior.false_alarm_times`), and, as a verifier of the
Byzantine confirmation protocol, how does it vote on a claim
(:meth:`FaultBehavior.vote`, drawing from
:meth:`FaultBehavior.vote_stream`).  Engines call these hooks and never
test a behavior's class.  Fault *models* in :mod:`repro.robots.faults`
decide which robots receive which behavior.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.trajectory.base import Trajectory
from repro.trajectory.halted import HaltedTrajectory

__all__ = [
    "FaultBehavior",
    "CrashDetectionFault",
    "CrashStopFault",
    "ByzantineFalseAlarmFault",
    "ProbabilisticDetectionFault",
]


class FaultBehavior(ABC):
    """The failure semantics of a single faulty robot."""

    #: Short taxonomy label, used by reports and scenario specs.
    kind: str = "abstract"

    #: Time at which the robot stops moving, or ``None`` if it never does.
    halt_time: Optional[float] = None

    #: Whether :meth:`detection_time` involves randomness.  Stochastic
    #: behaviors must be reproducible given their seed.
    is_stochastic: bool = False

    def apply_trajectory(self, trajectory: Trajectory) -> Trajectory:
        """The trajectory the robot actually follows (default: unchanged)."""
        return trajectory

    @abstractmethod
    def detection_time(
        self, trajectory: Trajectory, target: float
    ) -> Optional[float]:
        """When this robot *genuinely* detects ``target`` (``None`` = never).

        ``trajectory`` is the robot's planned trajectory; implementations
        that alter motion must account for their own truncation.
        """

    def false_alarm_times(
        self, trajectory: Trajectory, target: float, until: float
    ) -> List[float]:
        """Times up to ``until`` at which the robot falsely claims detection."""
        return []

    def vote(self, is_target: bool, stream: Optional[random.Random]) -> bool:
        """Whether the robot, as a verifier, votes that a claimed point
        holds the target; ``is_target`` says whether it truly does.

        The default is the truth, as a reliable robot votes.  A
        crash-stop robot keeps it: the protocol drops a verifier whose
        :attr:`halt_time` passes before it arrives.  ``stream`` is this
        robot's :meth:`vote_stream` for the run.
        """
        return is_target

    def vote_stream(self) -> Optional[random.Random]:
        """A fresh random stream for :meth:`vote`, made once per run;
        ``None`` (the default) when the vote draws nothing."""
        return None

    def describe(self) -> str:
        """One-line summary."""
        return f"{type(self).__name__}()"


class CrashDetectionFault(FaultBehavior):
    """The paper's fault: full trajectory, but the sensor never fires.

    Examples:
        >>> from repro.trajectory import DoublingTrajectory
        >>> CrashDetectionFault().detection_time(DoublingTrajectory(), 1.0)
    """

    kind = "crash_detection"

    def detection_time(
        self, trajectory: Trajectory, target: float
    ) -> Optional[float]:
        return None

    def vote(self, is_target: bool, stream: Optional[random.Random]) -> bool:
        """Absent: the sensor never fires, and the robot reports that."""
        return False


class CrashStopFault(FaultBehavior):
    """The robot works correctly until ``halt_time``, then freezes.

    Unlike the paper's detection fault, a crash-stop robot *does* detect
    targets it reaches before crashing; afterwards it neither moves nor
    senses.

    Examples:
        >>> from repro.trajectory import LinearTrajectory
        >>> fault = CrashStopFault(2.0)
        >>> fault.detection_time(LinearTrajectory(1), 1.5)
        1.5
        >>> fault.detection_time(LinearTrajectory(1), 3.0) is None
        True
    """

    kind = "crash_stop"

    def __init__(self, halt_time: float) -> None:
        if not math.isfinite(halt_time) or halt_time <= 0.0:
            raise InvalidParameterError(
                f"halt time must be a positive finite real, got {halt_time!r}"
            )
        self.halt_time = float(halt_time)

    def apply_trajectory(self, trajectory: Trajectory) -> Trajectory:
        return HaltedTrajectory(trajectory, self.halt_time)

    def detection_time(
        self, trajectory: Trajectory, target: float
    ) -> Optional[float]:
        t = trajectory.first_visit_time(target)
        if t is None or t > self.halt_time:
            return None
        return t

    def describe(self) -> str:
        return f"CrashStopFault(halt_time={self.halt_time:.6g})"


class ByzantineFalseAlarmFault(FaultBehavior):
    """A Byzantine liar: spurious detection claims, no real detections.

    The robot follows its trajectory and announces "target found" at the
    given times regardless of where it is.  Engines must log these as
    :class:`~repro.simulation.events.FalseAlarmEvent` and exclude them
    from the detection time — a single lying robot must not be able to
    terminate the search early.

    Examples:
        >>> fault = ByzantineFalseAlarmFault([1.0, 4.0])
        >>> from repro.trajectory import DoublingTrajectory
        >>> fault.false_alarm_times(DoublingTrajectory(), 1.0, until=2.0)
        [1.0]
    """

    kind = "byzantine_false_alarm"

    def __init__(self, alarm_times: Sequence[float]) -> None:
        times = sorted(float(t) for t in alarm_times)
        if not times:
            raise InvalidParameterError(
                "a Byzantine robot needs at least one alarm time"
            )
        if any(not math.isfinite(t) or t < 0.0 for t in times):
            raise InvalidParameterError(
                f"alarm times must be finite and >= 0, got {times}"
            )
        self.alarm_times: Tuple[float, ...] = tuple(times)

    def detection_time(
        self, trajectory: Trajectory, target: float
    ) -> Optional[float]:
        return None

    def false_alarm_times(
        self, trajectory: Trajectory, target: float, until: float
    ) -> List[float]:
        return [t for t in self.alarm_times if t <= until]

    def vote(self, is_target: bool, stream: Optional[random.Random]) -> bool:
        """Maximally adversarial: present on a lie, absent on the truth."""
        return not is_target

    def describe(self) -> str:
        rendered = ", ".join(f"{t:.6g}" for t in self.alarm_times)
        return f"ByzantineFalseAlarmFault(alarm_times=[{rendered}])"


class ProbabilisticDetectionFault(FaultBehavior):
    """Each visit of the target detects independently with probability ``p``.

    Detection is *seeded-deterministic*: the Bernoulli draws for a given
    target are derived from ``(seed, target)``, so the same behavior
    object asked twice about the same target gives the same answer, and
    a campaign replayed with the same seed reproduces its outcomes
    exactly.  At most ``max_visits`` visits are sampled; a robot that
    fails all of them is treated as never detecting.

    Examples:
        >>> from repro.trajectory import DoublingTrajectory
        >>> always = ProbabilisticDetectionFault(1.0, seed=0)
        >>> always.detection_time(DoublingTrajectory(), -1.0)
        3.0
        >>> never = ProbabilisticDetectionFault(0.0, seed=0)
        >>> never.detection_time(DoublingTrajectory(), -1.0) is None
        True
    """

    kind = "probabilistic_detection"
    is_stochastic = True

    def __init__(
        self,
        detection_probability: float,
        seed: Optional[int] = None,
        max_visits: int = 64,
    ) -> None:
        if not (0.0 <= detection_probability <= 1.0):
            raise InvalidParameterError(
                "detection probability must be in [0, 1], got "
                f"{detection_probability!r}"
            )
        if max_visits < 1:
            raise InvalidParameterError(
                f"max_visits must be >= 1, got {max_visits}"
            )
        self.detection_probability = float(detection_probability)
        self.seed = (
            seed if seed is not None else random.Random().getrandbits(32)
        )
        self.max_visits = int(max_visits)

    def detection_time(
        self, trajectory: Trajectory, target: float
    ) -> Optional[float]:
        first = trajectory.first_visit_time(target)
        if first is None or self.detection_probability <= 0.0:
            return None
        if self.detection_probability >= 1.0:
            return first
        # hash(float) is stable across processes, so (seed, target) maps
        # to the same draw sequence in every run
        rng = random.Random(self.seed * 1_000_003 ^ hash(float(target)))
        horizon = max(2.0 * first, 1.0)
        sampled = 0
        # Doubling the horizon 64 times covers any plausible revisit
        # period; a path that produced no new visit by then never will.
        for _ in range(64):
            visits = trajectory.visit_times(target, horizon)
            fresh = visits[sampled:]
            for t in fresh:
                if rng.random() < self.detection_probability:
                    return t
                sampled += 1
                if sampled >= self.max_visits:
                    return None
            if not fresh and trajectory.is_finite:
                return None  # path ended; no further visits will appear
            horizon *= 2.0
        return None

    def vote(self, is_target: bool, stream: Optional[random.Random]) -> bool:
        """Absent on a false point; on the target, present with the
        detection probability, drawn from ``stream``."""
        return is_target and stream.random() < self.detection_probability

    def vote_stream(self) -> random.Random:
        """Seeded by :attr:`seed` alone, so a replay votes alike."""
        return random.Random((self.seed * 1_000_003) ^ 0x5F3759DF)

    def describe(self) -> str:
        return (
            f"ProbabilisticDetectionFault(p={self.detection_probability:.6g}, "
            f"seed={self.seed})"
        )

"""Result containers for simulations and competitive-ratio estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.simulation.events import Event

__all__ = [
    "SearchOutcome",
    "CompetitiveRatioEstimate",
    "RatioSample",
    "RatioProfile",
]


@dataclass(frozen=True)
class SearchOutcome:
    """The result of running one search scenario.

    Attributes:
        target: Target position.
        detection_time: Time the first reliable robot reached the target
            (``inf`` if detection never happens — an invalid algorithm
            for the given fault set).
        detecting_robot: Index of the detecting robot, or ``None``.
        faulty_robots: The fault assignment used.
        events: Chronological event log up to (and including) detection.

    Examples:
        >>> outcome = SearchOutcome(2.0, 4.0, 1, frozenset({0}), ())
        >>> outcome.competitive_ratio
        2.0
        >>> outcome.detected
        True
    """

    target: float
    detection_time: float
    detecting_robot: Optional[int]
    faulty_robots: frozenset
    events: Sequence[Event] = field(default=())

    def __post_init__(self) -> None:
        if self.target == 0.0:
            raise InvalidParameterError("target cannot be at the origin")
        if self.detection_time < 0:
            raise InvalidParameterError(
                f"detection time must be >= 0, got {self.detection_time}"
            )

    @property
    def detected(self) -> bool:
        """Whether the target was ever found."""
        return math.isfinite(self.detection_time)

    @property
    def competitive_ratio(self) -> float:
        """``detection_time / |target|`` for this single scenario."""
        return self.detection_time / abs(self.target)

    def describe(self) -> str:
        """Multi-line report of the run."""
        lines = [
            f"target at x={self.target:.6g}, "
            f"faulty robots: {sorted(self.faulty_robots) or 'none'}"
        ]
        lines.extend("  " + e.describe() for e in self.events)
        if self.detected:
            lines.append(
                f"detection at t={self.detection_time:.6g} "
                f"(ratio {self.competitive_ratio:.6g})"
            )
        else:
            lines.append("target NEVER detected under this fault assignment")
        return "\n".join(lines)


@dataclass(frozen=True)
class RatioSample:
    """One evaluation of ``K(x) = T_{f+1}(x) / |x|``."""

    x: float
    detection_time: float

    @property
    def ratio(self) -> float:
        """The competitive ratio at this sample point."""
        return self.detection_time / abs(self.x)


@dataclass(frozen=True)
class CompetitiveRatioEstimate:
    """A competitive-ratio measurement: the exact supremum of ``K``.

    Attributes:
        value: ``sup K(x)`` over ``min_distance <= |x| <= x_max``, equal
            to ``witness.ratio``.
        witness: Where the supremum sits: ``x`` and the ``T_{f+1}``
            that ``K`` reaches there, read on ``side``.
        samples_evaluated: Number of candidate points compared.
        x_max: Largest ``|x|`` considered.  The value is the supremum of
            the whole profile when it is periodic across turning points
            (Lemma 5) and ``x_max`` spans at least one full period.
        side: ``"right"`` when the value is the limit of ``K`` as
            ``|x|`` falls to ``|witness.x|``, just past a turning point
            (Lemma 3: ``K`` itself stays below it); ``"left"`` for the
            limit as ``|x|`` rises to it; ``"at"`` when ``K`` takes the
            value at ``witness.x``.
    """

    value: float
    witness: RatioSample
    samples_evaluated: int
    x_max: float
    side: str = "at"

    def matches(self, theoretical: float, tol: float = 1e-6) -> bool:
        """Whether the estimate agrees with a closed form within ``tol``
        (relative)."""
        return abs(self.value - theoretical) <= tol * max(1.0, abs(theoretical))

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"empirical CR = {self.value:.9g} at x = {self.witness.x:.9g} "
            f"[{self.side}] ({self.samples_evaluated} samples, "
            f"|x| <= {self.x_max:g})"
        )


class RatioProfile:
    """The function ``K(x)`` sampled over a set of targets.

    Stored as two columns, the targets and their detection times, so a
    sweep of thousands of targets builds no per-target object: the
    ratios and the supremum are computed over the columns with
    :attr:`RatioSample.ratio`'s expression.  ``RatioProfile(samples)``
    builds the same profile from :class:`RatioSample` objects, and
    :meth:`from_columns` from the columns; :attr:`samples` is built on
    first access and then kept.

    Examples:
        >>> profile = RatioProfile.from_columns([1.0, -2.0], [3.0, 10.0])
        >>> len(profile), profile.ratios()
        (2, [3.0, 5.0])
        >>> profile.supremum
        RatioSample(x=-2.0, detection_time=10.0)
        >>> profile == RatioProfile(profile.samples)
        True
    """

    __slots__ = ("_xs", "_times", "_samples")

    def __init__(self, samples: Sequence[RatioSample]) -> None:
        self._samples: Optional[List[RatioSample]] = list(samples)
        self._xs = [s.x for s in self._samples]
        self._times = [s.detection_time for s in self._samples]

    @classmethod
    def from_columns(
        cls, xs: Sequence[float], detection_times: Sequence[float]
    ) -> "RatioProfile":
        """The profile of ``detection_times[i]`` at target ``xs[i]``."""
        if len(xs) != len(detection_times):
            raise InvalidParameterError(
                f"column lengths differ: {len(xs)} targets, "
                f"{len(detection_times)} detection times"
            )
        profile = cls.__new__(cls)
        profile._xs = list(xs)
        profile._times = list(detection_times)
        profile._samples = None
        return profile

    @property
    def samples(self) -> List[RatioSample]:
        """One :class:`RatioSample` per target, in target order."""
        if self._samples is None:
            self._samples = [
                RatioSample(x, t) for x, t in zip(self._xs, self._times)
            ]
        return self._samples

    def __len__(self) -> int:
        return len(self._xs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatioProfile):
            return NotImplemented
        return self._xs == other._xs and self._times == other._times

    def __repr__(self) -> str:
        return f"RatioProfile(samples={self.samples!r})"

    @property
    def supremum(self) -> RatioSample:
        """The sample with the largest ratio (the first of tied maxima)."""
        if not self._xs:
            raise InvalidParameterError("profile has no samples")
        ratios = self.ratios()
        best = max(range(len(ratios)), key=ratios.__getitem__)
        return RatioSample(self._xs[best], self._times[best])

    def ratios(self) -> List[float]:
        """The ratio values, in sample order."""
        return [t / abs(x) for x, t in zip(self._xs, self._times)]

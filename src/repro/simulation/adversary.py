"""Empirical competitive-ratio measurement (the executable Lemma 5).

The competitive ratio of a fleet under ``f`` worst-case faults is

    ``CR = sup_{|x| >= 1} K(x)``,   ``K(x) = T_{f+1}(x) / |x|``.

Lemma 3 tells us where to look for the supremum: ``K`` is continuous and
*decreasing* on every interval free of turning points, and jumps upward
exactly when ``x`` crosses a turning point of some robot (the robot that
just turned stops covering ``x``).  Hence the supremum over an interval
``[tau, tau')`` is the right-limit at ``tau``, and the global supremum is
approached just past turning points (or at the inner boundary ``|x| = 1``).

:class:`CompetitiveRatioEstimator` therefore probes, for both signs:

* the inner boundary ``|x| = 1`` (and just past it);
* every turning point with ``1 <= |position| <= x_max``, evaluated just
  past the turn (``x * (1 + eps)``);
* optionally, a geometric grid of additional samples as a safety net for
  algorithms whose ratio profile violates the Lemma 3 structure (e.g.
  trajectories with waiting legs).

The estimate is a guaranteed lower bound on the true supremum, and for
proportional schedules it is exact up to ``eps`` because the per-interval
suprema are identical across intervals (proof of Lemma 5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.simulation.metrics import (
    CompetitiveRatioEstimate,
    RatioProfile,
    RatioSample,
)
__all__ = ["CompetitiveRatioEstimator", "measure_competitive_ratio"]

#: Relative offset used to probe "just past" a turning point.
_JUST_PAST = 1e-9


class CompetitiveRatioEstimator:
    """Measures the empirical competitive ratio of a fleet.

    Attributes:
        fleet: The robots under test.
        fault_budget: Worst-case fault count ``f``.
        min_distance: Known minimum target distance (paper: 1).
        x_max: Largest ``|x|`` probed.  For proportional schedules any
            value spanning a few turning points suffices; the default
            covers several expansion periods of every paper configuration.
        grid_points: Extra geometric-grid samples per sign (safety net).
        turn_horizon_factor: Turning points are collected up to time
            ``turn_horizon_factor * x_max`` — enough to see every turn at
            ``|position| <= x_max`` for any algorithm whose turn times
            grow at most linearly with position (all algorithms here).
        method: ``"batch"`` (default) routes whole probe sets through
            :class:`~repro.batch.evaluate.BatchEvaluator` (one
            dependency-free kernel pass, results bit-identical to the
            per-target engine); ``"event"``
            evaluates each probe with the per-target visit machinery
            (the oracle).

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> alg = ProportionalAlgorithm(3, 1)
        >>> est = CompetitiveRatioEstimator(
        ...     Fleet.from_algorithm(alg), fault_budget=1
        ... )
        >>> measured = est.estimate()
        >>> measured.matches(alg.theoretical_competitive_ratio())
        True
    """

    def __init__(
        self,
        fleet: Fleet,
        fault_budget: int,
        min_distance: float = 1.0,
        x_max: float = 200.0,
        grid_points: int = 64,
        turn_horizon_factor: float = 8.0,
        method: str = "batch",
    ) -> None:
        if fault_budget < 0:
            raise InvalidParameterError(
                f"fault budget must be >= 0, got {fault_budget}"
            )
        if min_distance <= 0:
            raise InvalidParameterError(
                f"min distance must be positive, got {min_distance}"
            )
        if x_max <= min_distance:
            raise InvalidParameterError(
                f"x_max ({x_max}) must exceed min distance ({min_distance})"
            )
        if grid_points < 0:
            raise InvalidParameterError(
                f"grid_points must be >= 0, got {grid_points}"
            )
        if turn_horizon_factor <= 1:
            raise InvalidParameterError(
                f"turn_horizon_factor must be > 1, got {turn_horizon_factor}"
            )
        if method not in ("event", "batch"):
            raise InvalidParameterError(
                f"method must be 'event' or 'batch', got {method!r}"
            )
        self.fleet = fleet
        self.fault_budget = fault_budget
        self.min_distance = float(min_distance)
        self.x_max = float(x_max)
        self.grid_points = grid_points
        self.turn_horizon_factor = float(turn_horizon_factor)
        self.method = method
        self._batch_evaluator = None

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------

    def candidate_targets(self) -> List[float]:
        """All target positions to probe, both signs, sorted by ``|x|``.

        Includes boundaries, just-past-turning-point probes, and the
        geometric safety grid, deduplicated.
        """
        candidates: List[float] = []
        for sign in (1.0, -1.0):
            candidates.append(sign * self.min_distance)
            candidates.append(sign * self.min_distance * (1.0 + _JUST_PAST))
            candidates.append(sign * self.x_max)
        horizon = self.turn_horizon_factor * self.x_max
        for traj in self.fleet.trajectories:
            for vertex in traj.turning_points_until(horizon):
                x = vertex.position
                if self.min_distance <= abs(x) <= self.x_max:
                    candidates.append(x)
                    candidates.append(x * (1.0 + _JUST_PAST))
        if self.grid_points:
            ratio = (self.x_max / self.min_distance) ** (
                1.0 / self.grid_points
            )
            for sign in (1.0, -1.0):
                x = self.min_distance
                for _ in range(self.grid_points):
                    x *= ratio
                    candidates.append(sign * min(x, self.x_max))
        # clamp just-past probes that overshoot the window (matters for
        # truncated/bounded schedules whose coverage ends exactly at x_max)
        clamped = []
        for x in candidates:
            if abs(x) > self.x_max:
                x = self.x_max if x > 0 else -self.x_max
            clamped.append(x)
        unique = sorted(set(clamped), key=abs)
        return [x for x in unique if abs(x) >= self.min_distance]

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def _batch(self):
        """The lazily built batch evaluator (``method="batch"`` only)."""
        if self._batch_evaluator is None:
            from repro.batch import BatchEvaluator

            self._batch_evaluator = BatchEvaluator(
                self.fleet, fault_budget=self.fault_budget
            )
        return self._batch_evaluator

    def ratio_at(self, x: float) -> RatioSample:
        """Evaluate ``K(x)`` (worst-case over fault assignments)."""
        if self.method == "batch":
            t = self._batch().search_times([x])[0]
        else:
            t = self.fleet.worst_case_detection_time(x, self.fault_budget)
        return RatioSample(x=x, detection_time=t)

    def profile(self, targets: Optional[Sequence[float]] = None) -> RatioProfile:
        """``K`` evaluated over ``targets`` (default: all candidates)."""
        xs = list(targets) if targets is not None else self.candidate_targets()
        if not xs:
            raise InvalidParameterError("no targets to probe")
        if self.method == "batch":
            return self._batch().ratio_profile(xs)
        return RatioProfile([self.ratio_at(x) for x in xs])

    def estimate(self) -> CompetitiveRatioEstimate:
        """Measure the competitive ratio over the probed target set."""
        profile = self.profile()
        witness = profile.supremum
        return CompetitiveRatioEstimate(
            value=witness.ratio,
            witness=witness,
            samples_evaluated=len(profile.samples),
            x_max=self.x_max,
        )


def measure_competitive_ratio(
    source,
    fault_budget: Optional[int] = None,
    x_max: float = 200.0,
    **kwargs,
) -> CompetitiveRatioEstimate:
    """One-call empirical competitive ratio.

    Args:
        source: A :class:`~repro.schedule.base.SearchAlgorithm`, a
            :class:`~repro.robots.fleet.Fleet`, or an iterable of
            trajectories.
        fault_budget: Worst-case fault count; defaults to the algorithm's
            own ``f`` when ``source`` is an algorithm.
        x_max: Largest ``|x|`` probed.
        **kwargs: Forwarded to :class:`CompetitiveRatioEstimator`.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> est = measure_competitive_ratio(ProportionalAlgorithm(2, 1))
        >>> round(est.value, 6)
        9.0
    """
    fleet: Fleet
    if isinstance(source, Fleet):
        fleet = source
    elif hasattr(source, "build"):
        fleet = Fleet.from_algorithm(source)
        if fault_budget is None:
            fault_budget = source.f
    else:
        fleet = Fleet.from_trajectories(source)
    if fault_budget is None:
        raise InvalidParameterError(
            "fault_budget is required when source is not a SearchAlgorithm"
        )
    estimator = CompetitiveRatioEstimator(
        fleet, fault_budget, x_max=x_max, **kwargs
    )
    return estimator.estimate()

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

import math
from typing import List, Optional, Sequence

from repro.batch.evaluate import BatchEvaluator, _resolve_fleet
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


def _ratio_profile(
    fleet: Fleet,
    fault_budget: int,
    targets: Sequence[float],
    method: str,
    scheduler=None,
    seed: int = 0,
) -> RatioProfile:
    """``K(x)`` over ``targets``: the one dispatch behind
    :func:`~repro.simulation.sweep.target_sweep` and
    :class:`CompetitiveRatioEstimator` (see ``target_sweep`` for the
    arguments)."""
    if method not in ("event", "batch"):
        raise InvalidParameterError(
            f"method must be 'event' or 'batch', got {method!r}"
        )
    if scheduler is not None and method == "batch":
        raise InvalidParameterError(
            "method='batch' cannot be combined with an activation "
            "scheduler; the batch kernels have no notion of wall time"
        )
    if any(x == 0.0 for x in targets):
        raise InvalidParameterError("ratio is undefined at the origin")
    if scheduler is not None:
        from repro.async_sched.engine import EventEngine
        from repro.async_sched.schedulers import (
            ActivationScheduler,
            scheduler_from_spec,
        )
        from repro.robots.faults import AdversarialFaults

        if not isinstance(scheduler, ActivationScheduler):
            scheduler = scheduler_from_spec(scheduler)
        xs = [float(x) for x in targets]
        times = [
            EventEngine(
                fleet,
                x,
                scheduler=scheduler,
                fault_model=AdversarialFaults(fault_budget),
                seed=seed,
            )
            .run(with_events=False)
            .detection_time
            for x in targets
        ]
    elif method == "batch":
        xs = [float(x) for x in targets]
        times = BatchEvaluator(fleet, fault_budget=fault_budget).search_times(
            targets
        )
    else:
        xs = list(targets)
        times = [
            fleet.worst_case_detection_time(x, fault_budget) for x in targets
        ]
    return RatioProfile.from_columns(xs, times)


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
        method: ``"batch"`` (default) or ``"event"``, as in
            :func:`~repro.simulation.sweep.target_sweep`.

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
        # nan slips through every comparison below, and an infinite
        # turn horizon overflows the turning-point enumeration.
        for name, value in (
            ("min distance", min_distance),
            ("x_max", x_max),
            ("turn_horizon_factor * x_max", turn_horizon_factor * x_max),
        ):
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{name} must be finite, got {value!r}"
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
        self.fleet = fleet
        self.fault_budget = fault_budget
        self.min_distance = float(min_distance)
        self.x_max = float(x_max)
        self.grid_points = grid_points
        self.turn_horizon_factor = float(turn_horizon_factor)
        self.method = method

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

    def ratio_at(self, x: float) -> RatioSample:
        """Evaluate ``K(x)`` (worst-case over fault assignments)."""
        return self.profile([x]).samples[0]

    def profile(self, targets: Optional[Sequence[float]] = None) -> RatioProfile:
        """``K`` evaluated over ``targets`` (default: all candidates)."""
        xs = list(targets) if targets is not None else self.candidate_targets()
        if not xs:
            raise InvalidParameterError("no targets to probe")
        return _ratio_profile(self.fleet, self.fault_budget, xs, self.method)

    def estimate(self) -> CompetitiveRatioEstimate:
        """Measure the competitive ratio over the probed target set."""
        profile = self.profile()
        witness = profile.supremum
        return CompetitiveRatioEstimate(
            value=witness.ratio,
            witness=witness,
            samples_evaluated=len(profile),
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
    fleet, fault_budget = _resolve_fleet(source, fault_budget)
    estimator = CompetitiveRatioEstimator(
        fleet, fault_budget, x_max=x_max, **kwargs
    )
    return estimator.estimate()

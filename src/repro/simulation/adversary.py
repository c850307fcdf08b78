"""Competitive-ratio measurement (the executable Lemma 5).

The competitive ratio of a fleet under ``f`` worst-case faults is

    ``CR = sup_{|x| >= 1} K(x)``,   ``K(x) = T_{f+1}(x) / |x|``.

Lemma 3 tells us where the supremum sits: between two turning points
every robot's first visit is one leg, ``T_i = a_i + |x| / v_i``, so
``K`` is the ``(f+1)``-st smallest of functions affine in ``1 / |x|``
and jumps upward only where ``x`` crosses a turning point (the robot
that just turned stops covering ``x``).  Its supremum over an interval
is therefore a limit at one of the interval's ends, or, when robots
move at different speeds, a point where two robots' lines cross.

:class:`CompetitiveRatioEstimator` reads those candidates off the
fleet's compiled segments (:func:`repro.batch.kernels.ratio_supremum`)
and returns the exact supremum over ``min_distance <= |x| <= x_max``:
for proportional schedules the right limit just past a turning point,
which equals Theorem 1 to within a few ulps (Lemma 4, Lemma 5).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.batch.evaluate import BatchEvaluator, _resolve_fleet
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.simulation.metrics import (
    CompetitiveRatioEstimate,
    RatioProfile,
    RatioSample,
)
__all__ = ["CompetitiveRatioEstimator", "measure_competitive_ratio"]

#: How far past ``x_max`` the measurement's floats reach: the legs that
#: cover the window turn beyond it (by ``kappa^2 = 1764`` for A(41,20)),
#: and the detection times there are ``K |x|``.  ``x_max`` times this
#: must be finite.
_HEADROOM = 1e4


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
    xs = list(map(float, targets))
    if 0.0 in xs:
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
        times = BatchEvaluator(fleet, fault_budget=fault_budget).search_times(
            xs
        )
    else:
        xs = list(targets)
        times = [
            fleet.worst_case_detection_time(x, fault_budget) for x in targets
        ]
    return RatioProfile.from_columns(xs, times)


class CompetitiveRatioEstimator:
    """Measures the competitive ratio of a fleet, exactly.

    Attributes:
        fleet: The robots under test.
        fault_budget: Worst-case fault count ``f``.
        min_distance: Known minimum target distance (paper: 1).
        x_max: Largest ``|x|`` considered.  For proportional schedules
            any value spanning a few turning points suffices; the
            default covers several expansion periods of every paper
            configuration.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> alg = ProportionalAlgorithm(3, 1)
        >>> est = CompetitiveRatioEstimator(
        ...     Fleet.from_algorithm(alg), fault_budget=1
        ... )
        >>> measured = est.estimate()
        >>> measured.matches(alg.theoretical_competitive_ratio(), tol=1e-12)
        True
        >>> measured.side
        'right'
    """

    def __init__(
        self,
        fleet: Fleet,
        fault_budget: int,
        min_distance: float = 1.0,
        x_max: float = 200.0,
    ) -> None:
        if fault_budget < 0:
            raise InvalidParameterError(
                f"fault budget must be >= 0, got {fault_budget}"
            )
        # nan slips through every comparison below, and a window whose
        # turns or detection times overflow cannot be measured
        for name, value in (
            ("min distance", min_distance),
            ("x_max", x_max),
            (f"{_HEADROOM:g} * x_max", _HEADROOM * x_max),
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
        self.fleet = fleet
        self.fault_budget = fault_budget
        self.min_distance = float(min_distance)
        self.x_max = float(x_max)

    def ratio_at(self, x: float) -> RatioSample:
        """Evaluate ``K(x)`` (worst-case over fault assignments)."""
        return self.profile([x]).samples[0]

    def profile(self, targets: Sequence[float]) -> RatioProfile:
        """``K`` evaluated over ``targets`` (the batch route of
        :func:`~repro.simulation.sweep.target_sweep`)."""
        xs = list(targets)
        if not xs:
            raise InvalidParameterError("no targets to probe")
        return _ratio_profile(self.fleet, self.fault_budget, xs, "batch")

    def estimate(self) -> CompetitiveRatioEstimate:
        """The supremum of ``K`` over ``min_distance <= |x| <= x_max``."""
        (x, t, side), evaluated = BatchEvaluator(
            self.fleet, self.fault_budget
        ).ratio_supremum(self.min_distance, self.x_max)
        witness = RatioSample(x, t)
        return CompetitiveRatioEstimate(
            value=witness.ratio,
            witness=witness,
            samples_evaluated=evaluated,
            x_max=self.x_max,
            side=side,
        )


def measure_competitive_ratio(
    source,
    fault_budget: Optional[int] = None,
    x_max: float = 200.0,
    **kwargs,
) -> CompetitiveRatioEstimate:
    """One-call exact competitive ratio.

    Args:
        source: A :class:`~repro.schedule.base.SearchAlgorithm`, a
            :class:`~repro.robots.fleet.Fleet`, or an iterable of
            trajectories.
        fault_budget: Worst-case fault count; defaults to the algorithm's
            own ``f`` when ``source`` is an algorithm.
        x_max: Largest ``|x|`` considered.
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

"""Parameter sweeps: series data for experiments and figures.

Three sweep families used by the experiment harness:

* :func:`target_sweep` — the ratio profile ``K(x)`` over a grid of
  targets (the sawtooth of Lemma 3, nice for plots);
* :func:`beta_sweep` — competitive ratio of ``S_beta(n)`` as ``beta``
  varies, both closed-form and measured (the ablation validating
  ``beta* = (4f+4)/n - 1``);
* :func:`fleet_size_sweep` — competitive ratio of ``A(n, f)`` along a
  family of ``(n, f)`` pairs (e.g. ``n = 2f + 1`` for Figure 5 left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.competitive_ratio import (
    algorithm_competitive_ratio,
    schedule_competitive_ratio,
)
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet
from repro.schedule.algorithm import ProportionalAlgorithm
from repro.schedule.generalized import CustomBetaAlgorithm
from repro.simulation.adversary import (
    _ratio_profile,
    measure_competitive_ratio,
)
from repro.simulation.metrics import RatioProfile

__all__ = [
    "SweepPoint",
    "target_sweep",
    "beta_sweep",
    "fleet_size_sweep",
    "geometric_grid",
]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    Attributes:
        parameter: The swept value (``beta``, ``n``, ...).
        theoretical: Closed-form competitive ratio, if known.
        measured: Empirically measured ratio, if requested.
    """

    parameter: float
    theoretical: Optional[float]
    measured: Optional[float]

    def gap(self) -> Optional[float]:
        """Absolute difference between theory and measurement."""
        if self.theoretical is None or self.measured is None:
            return None
        return abs(self.theoretical - self.measured)


def geometric_grid(lo: float, hi: float, count: int) -> List[float]:
    """``count`` geometrically spaced values from ``lo`` to ``hi``.

    Degenerate requests are rejected with a specific message rather
    than silently producing empty, constant, or non-finite grids:
    non-finite or non-positive bounds, reversed bounds (``hi <= lo``
    would make the "geometric ratio" shrink or collapse to 1), fewer
    than two points, and bounds so extreme that the spacing ratio
    underflows to exactly 1 at float precision.

    Examples:
        >>> geometric_grid(1.0, 8.0, 4)
        [1.0, 2.0, 4.0, 8.0]
        >>> geometric_grid(2.0, 2.0, 3)
        Traceback (most recent call last):
          ...
        repro.errors.InvalidParameterError: bounds are reversed or \
equal: need lo < hi, got lo=2.0, hi=2.0
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError(
            f"bounds must be finite, got lo={lo!r}, hi={hi!r}"
        )
    if lo <= 0:
        raise InvalidParameterError(
            f"geometric spacing needs a positive lower bound, got lo={lo!r}"
        )
    if hi <= lo:
        raise InvalidParameterError(
            f"bounds are reversed or equal: need lo < hi, "
            f"got lo={lo!r}, hi={hi!r}"
        )
    if count < 2:
        raise InvalidParameterError(
            f"a geometric grid needs at least 2 points "
            f"(a single-point grid has no spacing), got count={count}"
        )
    ratio = (hi / lo) ** (1.0 / (count - 1))
    if ratio == 1.0:
        raise InvalidParameterError(
            f"spacing ratio underflowed to 1.0 at float precision for "
            f"[{lo!r}, {hi!r}] with count={count}; widen the bounds or "
            "reduce the point count"
        )
    return [lo * ratio**i for i in range(count)]


def target_sweep(
    fleet: Fleet,
    fault_budget: int,
    targets: Sequence[float],
    method: Optional[str] = None,
    scheduler=None,
    seed: int = 0,
) -> RatioProfile:
    """Evaluate ``K(x)`` over an explicit target grid.

    Args:
        fleet: The robots under test.
        fault_budget: Worst-case fault count ``f``.
        targets: Target grid (any order; ``K`` is undefined at 0).
        method: ``"batch"`` routes the whole grid through
            :class:`~repro.batch.evaluate.BatchEvaluator`: one
            dependency-free kernel pass, results bit-identical to the
            per-target engine.  ``"event"``
            computes each point with the per-target visit machinery
            (the oracle).  ``None`` (default) means ``"event"`` when a
            ``scheduler`` is given and ``"batch"`` otherwise.
        scheduler: Optional activation scheduler (an
            :class:`~repro.async_sched.schedulers.ActivationScheduler`
            or a spec string like ``"event:adversarial:1.0"``): each
            point runs through the discrete-event engine of
            :mod:`repro.async_sched` and the profile reports
            *wall-clock* ratios under that schedule.  Incompatible with
            ``method="batch"`` (the kernels have no notion of wall
            time).
        seed: Scheduler seed (only used with ``scheduler``).

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> fleet = Fleet.from_algorithm(ProportionalAlgorithm(3, 1))
        >>> profile = target_sweep(fleet, 1, [1.0, 1.5, 2.0, 3.0])
        >>> len(profile)
        4
        >>> oracle = target_sweep(fleet, 1, [1.0, 1.5, 2.0, 3.0], method="event")
        >>> profile.ratios() == oracle.ratios()
        True
        >>> slow = target_sweep(
        ...     fleet, 1, [1.0, 1.5, 2.0, 3.0],
        ...     scheduler="event:adversarial:1.0",
        ... )
        >>> all(s >= r for s, r in zip(slow.ratios(), profile.ratios()))
        True
    """
    if not targets:
        raise InvalidParameterError("targets must be non-empty")
    if method is None:
        method = "event" if scheduler is not None else "batch"
    with obs.span("sweep.target_sweep", points=len(targets), method=method):
        profile = _ratio_profile(
            fleet, fault_budget, targets, method, scheduler, seed
        )
    obs.count("sweep_points_total", len(targets))
    return profile


def beta_sweep(
    n: int,
    f: int,
    betas: Sequence[float],
    measure: bool = False,
    x_max: float = 100.0,
) -> List[SweepPoint]:
    """Competitive ratio of ``S_beta(n)`` across cone slopes.

    With ``measure=True`` each point also runs the empirical estimator;
    otherwise only the Lemma 5 closed form is reported (fast).

    Examples:
        >>> pts = beta_sweep(3, 1, [1.3, 5/3, 2.5])
        >>> min(p.theoretical for p in pts) == pts[1].theoretical
        True
    """
    if not betas:
        raise InvalidParameterError("betas must be non-empty")
    points: List[SweepPoint] = []
    with obs.span("sweep.beta_sweep", points=len(betas), measure=measure):
        for beta in betas:
            theoretical = schedule_competitive_ratio(beta, n, f)
            measured = None
            if measure:
                measured = measure_competitive_ratio(
                    CustomBetaAlgorithm(n, f, beta), f, x_max=x_max
                ).value
            points.append(SweepPoint(beta, theoretical, measured))
    obs.count("sweep_points_total", len(betas))
    return points


def fleet_size_sweep(
    pairs: Sequence[Tuple[int, int]],
    measure: bool = False,
    x_max: float = 100.0,
) -> List[SweepPoint]:
    """Competitive ratio of ``A(n, f)`` along a family of ``(n, f)`` pairs.

    The sweep parameter reported is ``n``.

    Examples:
        >>> pts = fleet_size_sweep([(3, 1), (5, 2), (7, 3)])
        >>> [round(p.theoretical, 2) for p in pts]
        [5.23, 4.43, 4.08]
    """
    if not pairs:
        raise InvalidParameterError("pairs must be non-empty")
    points: List[SweepPoint] = []
    with obs.span("sweep.fleet_size_sweep", points=len(pairs), measure=measure):
        for n, f in pairs:
            theoretical = algorithm_competitive_ratio(n, f)
            measured = None
            if measure:
                measured = measure_competitive_ratio(
                    ProportionalAlgorithm(n, f), f, x_max=x_max
                ).value
            points.append(SweepPoint(float(n), theoretical, measured))
    obs.count("sweep_points_total", len(pairs))
    return points

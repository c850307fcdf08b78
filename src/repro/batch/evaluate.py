"""High-level batch evaluation: whole target grids in one call.

:class:`BatchEvaluator` is the analytic counterpart of running one
:class:`~repro.simulation.engine.SearchSimulation` per target.  It
reads the fleet's compiled segments from a
:class:`~repro.batch.cache.CompiledFleetCache` (the shared
:data:`~repro.batch.cache.FLEET_CACHE` when the fleet has a structural
key), evaluates per-robot first-visit times for an entire grid with the
kernels of :mod:`repro.batch.kernels`, and derives from those rows
exactly the quantities the per-target paths compute:

* :meth:`BatchEvaluator.search_times` — worst-case ``T_{f+1}(x)`` per
  target (the adversary corrupts the first ``f`` visitors);
* :meth:`BatchEvaluator.detection_times` — detection under an explicit
  crash-detection fault set (column min over reliable robots);
* :meth:`BatchEvaluator.ratio_profile` / :meth:`BatchEvaluator.estimate`
  — ratio profiles and worst-case CR estimates compatible with
  :class:`~repro.simulation.adversary.CompetitiveRatioEstimator`.

The event engine remains the semantic oracle — the parity harness
(:func:`repro.parity.run_parity_harness`) and the property suite hold this module to
engine agreement within :mod:`repro.core.tolerance` bounds.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Set

from repro.batch import cache
# Unused here; kept so benchmarks/e2e/shim.py can patch this name.
from repro.batch.compile import compile_fleet  # noqa: F401
from repro.batch.kernels import (
    first_visit_row,
    kth_smallest_per_column,
    min_excluding_rows,
)
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet
from repro.simulation.metrics import (
    CompetitiveRatioEstimate,
    RatioProfile,
    RatioSample,
)

__all__ = ["BatchEvaluator"]


def _resolve_fleet(source, fault_budget: Optional[int]):
    """Source-to-fleet resolution shared with ``measure_competitive_ratio``."""
    if isinstance(source, Fleet):
        return source, fault_budget
    if hasattr(source, "build"):
        budget = fault_budget if fault_budget is not None else source.f
        return Fleet.from_algorithm(source), budget
    return Fleet.from_trajectories(source), fault_budget


class BatchEvaluator:
    """Evaluate search times over whole target grids without the engine.

    Attributes:
        fleet: The robots under evaluation (crash-detection semantics:
            a faulty robot traverses but never detects).
        fault_budget: Default worst-case fault count ``f`` used by
            :meth:`search_times` and the ratio methods.

    Args:
        source: A :class:`~repro.robots.fleet.Fleet`, a
            :class:`~repro.schedule.base.SearchAlgorithm`, or an
            iterable of trajectories.
        fault_budget: Defaults to the algorithm's own ``f`` when
            ``source`` is an algorithm; otherwise required.
        backend: ``None`` or ``"pure"``, the only kernels; any other
            name raises :class:`~repro.errors.InvalidParameterError`.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
        >>> times = evaluator.search_times([1.0, -2.0, 4.0])
        >>> len(times)
        3
        >>> times[0] > 1.0
        True
    """

    def __init__(
        self,
        source,
        fault_budget: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        if backend not in (None, "pure"):
            raise InvalidParameterError(
                f"batch backend {backend!r} was removed; the pure kernels "
                "are the only batch path (pass backend=None or 'pure')"
            )
        fleet, budget = _resolve_fleet(source, fault_budget)
        if budget is None:
            raise InvalidParameterError(
                "fault_budget is required when source is not a SearchAlgorithm"
            )
        if budget < 0:
            raise InvalidParameterError(
                f"fault budget must be >= 0, got {budget}"
            )
        self.fleet = fleet
        self.fault_budget = int(budget)
        self._key = cache.fleet_key(fleet.trajectories)
        # A fleet without a structural key cannot share compiled
        # segments, so it keeps them in a cache of its own.
        self._cache = (
            cache.FLEET_CACHE if self._key is not None
            else cache.CompiledFleetCache()
        )

    # ------------------------------------------------------------------
    # grid evaluation
    # ------------------------------------------------------------------

    def _rows(self, targets: Sequence[float]):
        """Per-robot first-visit rows over the sorted ``targets``, plus
        the sort permutation."""
        xs = [float(x) for x in targets]
        if not xs:
            raise InvalidParameterError("targets must be non-empty")
        for x in xs:
            if not math.isfinite(x):
                raise InvalidParameterError(
                    f"targets must be finite, got {x!r}"
                )
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs_sorted = [xs[i] for i in order]
        radius = max(-xs_sorted[0], xs_sorted[-1], 0.0)
        compiled = self._cache.compiled(
            self._key, self.fleet.trajectories, radius
        )
        rows = [first_visit_row(c, xs_sorted) for c in compiled.trajectories]
        return rows, order

    @staticmethod
    def _unsorted(row: List[float], order: List[int]) -> List[float]:
        out = [math.inf] * len(order)
        for sorted_pos, original in enumerate(order):
            out[original] = row[sorted_pos]
        return out

    def search_times(
        self,
        targets: Sequence[float],
        fault_budget: Optional[int] = None,
    ) -> List[float]:
        """Worst-case detection time ``T_{f+1}(x)`` for each target.

        Equals ``Fleet.worst_case_detection_time`` per target: the
        ``(f+1)``-st distinct first-visit time, ``inf`` when fewer than
        ``f+1`` robots ever arrive.  Output is aligned with the input
        grid (any order, duplicates allowed).

        Examples:
            >>> from repro.trajectory import LinearTrajectory
            >>> evaluator = BatchEvaluator(
            ...     [LinearTrajectory(1), LinearTrajectory(1)], fault_budget=1
            ... )
            >>> evaluator.search_times([3.0, -1.0])
            [3.0, inf]
        """
        budget = self.fault_budget if fault_budget is None else fault_budget
        if budget < 0:
            raise InvalidParameterError(
                f"fault budget must be >= 0, got {budget}"
            )
        with obs.span(
            "batch.evaluate", points=len(targets), kind="search_times"
        ):
            rows, order = self._rows(targets)
            row = kth_smallest_per_column(rows, budget + 1)
        obs.count("batch_points_total", len(targets))
        return self._unsorted(row, order)

    def detection_times(
        self, targets: Sequence[float], faulty: Iterable[int]
    ) -> List[float]:
        """Detection time per target under an explicit fault set.

        ``faulty`` robots are crash-detection faulty (they traverse but
        never detect); each target's detection time is the earliest
        first visit by a reliable robot, ``inf`` when none arrives.

        Examples:
            >>> from repro.trajectory import LinearTrajectory
            >>> evaluator = BatchEvaluator(
            ...     [LinearTrajectory(1), LinearTrajectory(-1)], fault_budget=0
            ... )
            >>> evaluator.detection_times([2.0, -2.0], faulty={0})
            [inf, 2.0]
        """
        excluded: Set[int] = set(faulty)
        out_of_range = {
            i for i in excluded if i < 0 or i >= self.fleet.size
        }
        if out_of_range:
            raise InvalidParameterError(
                f"fault indices out of range: {sorted(out_of_range)}"
            )
        with obs.span(
            "batch.evaluate", points=len(targets), kind="detection_times"
        ):
            rows, order = self._rows(targets)
            row = min_excluding_rows(rows, excluded)
        obs.count("batch_points_total", len(targets))
        return self._unsorted(row, order)

    # ------------------------------------------------------------------
    # ratio interfaces (drop-in for the estimator outputs)
    # ------------------------------------------------------------------

    def ratio_profile(
        self,
        targets: Sequence[float],
        fault_budget: Optional[int] = None,
    ) -> RatioProfile:
        """``K(x) = T_{f+1}(x) / |x|`` over an explicit grid.

        Examples:
            >>> from repro.schedule import ProportionalAlgorithm
            >>> evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
            >>> profile = evaluator.ratio_profile([1.0, 1.5, 2.0])
            >>> len(profile.samples)
            3
        """
        for x in targets:
            if x == 0.0:
                raise InvalidParameterError(
                    "ratio is undefined at the origin"
                )
        times = self.search_times(targets, fault_budget)
        return RatioProfile(
            [RatioSample(float(x), t) for x, t in zip(targets, times)]
        )

    def estimate(
        self,
        x_max: float = 200.0,
        min_distance: float = 1.0,
        grid_points: int = 64,
        turn_horizon_factor: float = 8.0,
    ) -> CompetitiveRatioEstimate:
        """Worst-case competitive ratio over the estimator's probe set.

        Uses the exact candidate-target generation of
        :class:`~repro.simulation.adversary.CompetitiveRatioEstimator`
        (boundaries, just-past-turning-point probes, geometric safety
        grid) but evaluates the whole probe set through the batch
        kernels in one pass.

        Examples:
            >>> from repro.schedule import ProportionalAlgorithm
            >>> alg = ProportionalAlgorithm(3, 1)
            >>> est = BatchEvaluator(alg).estimate()
            >>> est.matches(alg.theoretical_competitive_ratio())
            True
        """
        from repro.simulation.adversary import CompetitiveRatioEstimator

        estimator = CompetitiveRatioEstimator(
            self.fleet,
            self.fault_budget,
            min_distance=min_distance,
            x_max=x_max,
            grid_points=grid_points,
            turn_horizon_factor=turn_horizon_factor,
        )
        targets = estimator.candidate_targets()
        profile = self.ratio_profile(targets)
        witness = profile.supremum
        return CompetitiveRatioEstimate(
            value=witness.ratio,
            witness=witness,
            samples_evaluated=len(profile.samples),
            x_max=x_max,
        )

    def describe(self) -> str:
        """One-line summary."""
        compiled = self._cache.get(self._key)
        window = compiled.describe() if compiled is not None else "not compiled"
        return (
            f"BatchEvaluator(n={self.fleet.size}, f={self.fault_budget}, "
            f"{window})"
        )

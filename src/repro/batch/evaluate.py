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
* :meth:`BatchEvaluator.ratio_supremum` — the exact ``sup K`` over a
  window, read off the compiled legs.

Ratio profiles come from :func:`~repro.simulation.sweep.target_sweep`,
whose default batch method evaluates through
:meth:`BatchEvaluator.search_times`; competitive ratios from
:class:`~repro.simulation.adversary.CompetitiveRatioEstimator`, which
is :meth:`BatchEvaluator.ratio_supremum`.

The event engine remains the semantic oracle — the parity harness
(:func:`repro.parity.run_parity_harness`) and the property suite hold
this module to bit-exact (``==``) agreement with the engine.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.batch import cache
# Unused here; kept so benchmarks/e2e/shim.py can patch this name.
from repro.batch.compile import compile_fleet  # noqa: F401
from repro.batch.kernels import (
    RatioCandidate,
    first_visit_row,
    kth_visit_times,
    min_excluding_rows,
    ratio_supremum,
)
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet

__all__ = ["BatchEvaluator"]


def _resolve_fleet(source, fault_budget: Optional[int]):
    """``(fleet, fault_budget)`` from a fleet, an algorithm (whose own
    ``f`` is the default budget) or trajectories; shared with
    ``measure_competitive_ratio``."""
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
    return fleet, fault_budget


class BatchEvaluator:
    """Evaluate search times over whole target grids without the engine.

    Attributes:
        fleet: The robots under evaluation (crash-detection semantics:
            a faulty robot traverses but never detects).
        fault_budget: Default worst-case fault count ``f`` used by
            :meth:`search_times`.

    Args:
        source: A :class:`~repro.robots.fleet.Fleet`, a
            :class:`~repro.schedule.base.SearchAlgorithm`, or an
            iterable of trajectories.
        fault_budget: Defaults to the algorithm's own ``f`` when
            ``source`` is an algorithm; otherwise required.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
        >>> times = evaluator.search_times([1.0, -2.0, 4.0])
        >>> len(times)
        3
        >>> times[0] > 1.0
        True
    """

    def __init__(self, source, fault_budget: Optional[int] = None) -> None:
        fleet, budget = _resolve_fleet(source, fault_budget)
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

    def _compiled(self, targets: Sequence[float]):
        """The fleet's compiled trajectories, the sorted ``targets`` and
        the sort permutation."""
        xs = list(map(float, targets))
        if not xs:
            raise InvalidParameterError("targets must be non-empty")
        # One sum proves every target finite; only a non-finite sum
        # (or one that overflows) looks for the target to name.
        if not math.isfinite(sum(xs)):
            for x in xs:
                if not math.isfinite(x):
                    raise InvalidParameterError(
                        f"targets must be finite, got {x!r}"
                    )
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs_sorted = list(map(xs.__getitem__, order))
        radius = max(-xs_sorted[0], xs_sorted[-1], 0.0)
        compiled = self._cache.compiled(
            self._key, self.fleet.trajectories, radius
        )
        return compiled.trajectories, xs_sorted, order

    @staticmethod
    def _unsorted(row: List[float], order: List[int]) -> List[float]:
        out = [math.inf] * len(order)
        for original, t in zip(order, row):
            out[original] = t
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
            compiled, xs_sorted, order = self._compiled(targets)
            row = kth_visit_times(compiled, xs_sorted, budget + 1)
        obs.count("batch_points_total", len(targets))
        return self._unsorted(row, order)

    def ratio_supremum(
        self, min_distance: float, x_max: float
    ) -> Tuple[RatioCandidate, int]:
        """``sup K`` over ``min_distance <= |x| <= x_max``, exactly.

        Reads the fleet compiled over ``[-x_max, x_max]`` and returns
        :func:`~repro.batch.kernels.ratio_supremum` of it: the witness
        ``(x, T_{f+1}, side)`` and the number of candidates compared.

        Examples:
            >>> from repro.schedule import ProportionalAlgorithm
            >>> evaluator = BatchEvaluator(ProportionalAlgorithm(2, 1))
            >>> (x, t, side), _ = evaluator.ratio_supremum(1.0, 200.0)
            >>> x, t / abs(x), side
            (1.0, 9.0, 'right')
        """
        with obs.span("batch.ratio_supremum", x_max=x_max):
            compiled = self._cache.compiled(
                self._key, self.fleet.trajectories, x_max
            )
            return ratio_supremum(
                compiled.trajectories, self.fault_budget + 1, min_distance,
                x_max,
            )

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
            compiled, xs_sorted, order = self._compiled(targets)
            rows = [first_visit_row(c, xs_sorted) for c in compiled]
            row = min_excluding_rows(rows, excluded)
        obs.count("batch_points_total", len(targets))
        return self._unsorted(row, order)

    def describe(self) -> str:
        """One-line summary."""
        compiled = self._cache.get(self._key)
        window = compiled.describe() if compiled is not None else "not compiled"
        return (
            f"BatchEvaluator(n={self.fleet.size}, f={self.fault_budget}, "
            f"{window})"
        )

"""Batch evaluation: visit-time kernels over compiled segment arrays.

Every sweep, campaign, and ratio profile in this library reduces to the
question "when does the ``(f+1)``-st distinct robot reach target ``x``?"
The event engine answers it one target at a time; this subsystem
answers it for whole grids at once:

* :mod:`repro.batch.compile` flattens lazy trajectories into plain
  segment arrays (:func:`compile_trajectory`, :func:`compile_fleet`);
* :mod:`repro.batch.kernels` holds the dependency-free kernels
  (envelope first-visit sweep, per-range rank, column order
  statistics, the exact ratio supremum) — the only batch backend;
* :mod:`repro.batch.cache` is the one fleet cache
  (:data:`~repro.batch.cache.FLEET_CACHE`): the shared trajectories
  every variant's ``realize`` reads, and the compiled fleets both
  front ends below read;
* :mod:`repro.batch.evaluate` is the high-level entry point
  (:class:`BatchEvaluator`); the campaign route of
  :mod:`repro.robustness.plan` is the other reader of the cache;
* :func:`repro.parity.run_parity_harness` replays seeded grids
  through both the kernels and
  :class:`~repro.simulation.engine.SearchSimulation` and asserts
  agreement — the engine stays the oracle, batch is the fast path
  (the default of ``target_sweep``, ``CompetitiveRatioEstimator`` and
  crash-fault campaigns run without the invariant audit).

Quickstart::

    from repro.batch import BatchEvaluator
    from repro.schedule import ProportionalAlgorithm

    evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
    times = evaluator.search_times([1.0, -2.5, 4.0])   # T_{f+1} per target
    faulty = evaluator.detection_times([1.0, -2.5, 4.0], faulty={0})

Ratio profiles ``K(x)`` come from
:func:`~repro.simulation.sweep.target_sweep`, which evaluates through
:meth:`BatchEvaluator.search_times` by default; competitive ratios
from :func:`~repro.simulation.adversary.measure_competitive_ratio`,
which reads :meth:`BatchEvaluator.ratio_supremum`.
"""

from repro.batch.compile import (
    CompiledFleet,
    CompiledTrajectory,
    compile_fleet,
    compile_trajectory,
)
from repro.batch.evaluate import BatchEvaluator

__all__ = [
    "BatchEvaluator",
    "CompiledFleet",
    "CompiledTrajectory",
    "compile_fleet",
    "compile_trajectory",
]

"""Batch evaluation: visit-time kernels over compiled segment arrays.

Every sweep, campaign, and ratio profile in this library reduces to the
question "when does the ``(f+1)``-st distinct robot reach target ``x``?"
The event engine answers it one target at a time; this subsystem
answers it for whole grids at once:

* :mod:`repro.batch.compile` flattens lazy trajectories into plain
  segment arrays (:func:`compile_trajectory`, :func:`compile_fleet`);
* :mod:`repro.batch.kernels` holds the dependency-free reference
  kernels (envelope first-visit sweep, column order statistics);
* :mod:`repro.batch.backend` dispatches between the pure-Python
  backend (always available) and the numpy backend (auto-selected with
  the ``scientific`` extra) — bit-for-bit identical by construction;
* :mod:`repro.batch.evaluate` is the high-level entry point
  (:class:`BatchEvaluator`);
* :mod:`repro.batch.cache` keeps compiled fleets keyed on fleet
  structure, for the campaign route of :mod:`repro.robustness.plan`;
* :func:`repro.parity.run_parity_harness` replays seeded grids
  through both the kernels and
  :class:`~repro.simulation.engine.SearchSimulation` and asserts
  agreement — the engine stays the oracle, batch is the fast path
  (the default of ``target_sweep``, ``CompetitiveRatioEstimator`` and
  crash-fault campaigns run without the invariant audit, all on the
  ``pure`` backend).

Quickstart::

    from repro.batch import BatchEvaluator
    from repro.schedule import ProportionalAlgorithm

    evaluator = BatchEvaluator(ProportionalAlgorithm(3, 1))
    times = evaluator.search_times([1.0, -2.5, 4.0])   # T_{f+1} per target
    profile = evaluator.ratio_profile([1.0, -2.5, 4.0])
"""

from repro.batch.backend import (
    BatchBackend,
    NumpyBackend,
    PureBackend,
    available_backends,
    get_backend,
)
from repro.batch.compile import (
    CompiledFleet,
    CompiledTrajectory,
    compile_fleet,
    compile_trajectory,
)
from repro.batch.evaluate import BatchEvaluator

__all__ = [
    "BatchBackend",
    "BatchEvaluator",
    "CompiledFleet",
    "CompiledTrajectory",
    "NumpyBackend",
    "PureBackend",
    "available_backends",
    "compile_fleet",
    "compile_trajectory",
    "get_backend",
]

"""The :class:`ProblemVariant` abstraction and the variant registry.

A problem variant pins down the three axes a search problem statement
can vary along:

* **domain** — which schedules are admissible (the whole line, one ray,
  ...); named by :meth:`ProblemVariant.algorithm` and realized by
  :meth:`ProblemVariant.realize`, which builds the fleet and fault
  model for a scenario spec;
* **termination predicate** — when a run is over (first reliable
  detection, quorum commit, all reliable robots gathered, ...);
  realized by :meth:`ProblemVariant.run`, which executes a scenario to
  an outcome;
* **objective** — the number a run is scored by
  (:meth:`ProblemVariant.objective`, the competitive/evacuation ratio
  by default).

Variants are stateless singletons looked up by name through
:func:`variant_for`; :data:`VARIANT_NAMES` comes from
:mod:`repro.robustness.plan`, which owns every rule about a spec.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple

from repro.batch import cache
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.robustness.plan import VARIANT_NAMES, run_plan

__all__ = ["VARIANT_NAMES", "ProblemVariant", "variant_for"]


class ProblemVariant(ABC):
    """One problem statement: domain + termination predicate + objective.

    Subclasses set :attr:`name` and implement :meth:`algorithm`; they
    override :meth:`validate_spec` to refuse infeasible specs.
    Instances are stateless — the registry hands out singletons and
    scenario workers may share them freely.
    """

    #: Registry name; the value stored in ``ScenarioSpec.variant``.
    name: str = ""

    def validate_spec(self, spec: Any) -> None:
        """Reject specs this variant cannot execute.

        Raises :class:`~repro.errors.InvalidParameterError` on
        infeasible parameters (e.g. an evacuation fleet without a
        reliable majority); the default accepts every spec.
        """

    @abstractmethod
    def algorithm(self, spec: Any) -> Tuple[Callable[..., Any], Tuple]:
        """``(constructor, args)``: the search algorithm ``spec`` picks.

        This is the *domain* axis: the algorithm's trajectories define
        which part of the line the variant searches and how.  The pair
        is the fleet's cache key, so ``args`` must hold every spec field
        the choice depends on, and ``constructor`` must be a module-level
        callable.
        """

    def realize(self, spec: Any) -> Tuple[Any, Any]:
        """Build the ``(fleet, fault_model)`` pair for a spec.

        The fleet and its robots are new on every call, and so is the
        fault model, but the trajectories are shared: every spec that
        picks the same algorithm reads them from
        :data:`repro.batch.cache.FLEET_CACHE`, so a fleet's vertices are
        materialized once per process.  Fault behaviours wrap a
        trajectory and never mutate it.  An algorithm the constructor
        refuses is never cached, so it fails the same way on every call.
        """
        from repro.robustness.campaign import _fault_model_for

        model = _fault_model_for(spec)
        _, trajectories = cache.shared_trajectories(*self.algorithm(spec))
        return Fleet.from_trajectories(trajectories), model

    def run(self, scenario: Any, check_invariants: bool = True) -> Any:
        """Execute a scenario to a :class:`~repro.simulation.metrics.SearchOutcome`.

        This is the *termination predicate* axis: the returned
        outcome's ``detection_time`` is the instant the variant's own
        predicate was met (first detection, quorum commit, all reliable
        robots gathered, ...), so every downstream consumer — campaign
        executors, reports, perf workloads — scores variants uniformly.
        The engine is the one :func:`~repro.robustness.plan.plan_for`
        names for the scenario's spec.
        """
        return run_plan(scenario, check_invariants)

    def objective(self, outcome: Any) -> Optional[float]:
        """Score an outcome; the competitive ratio by default."""
        return outcome.competitive_ratio

    def describe(self) -> str:
        """One-line summary."""
        return f"variant {self.name!r}"


_REGISTRY: Dict[str, ProblemVariant] = {}


def variant_for(name: str) -> ProblemVariant:
    """The registered singleton for a variant name.

    Examples:
        >>> variant_for("line").name
        'line'
        >>> variant_for("halfline").name
        'halfline'
        >>> variant_for("evacuation").name
        'evacuation'
    """
    if not _REGISTRY:
        from repro.variants.evacuation import EvacuationVariant
        from repro.variants.halfline import HalfLineVariant
        from repro.variants.line import LineVariant

        for variant in (LineVariant(), HalfLineVariant(), EvacuationVariant()):
            _REGISTRY[variant.name] = variant
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown variant {name!r}; variants: {', '.join(VARIANT_NAMES)}"
        ) from None

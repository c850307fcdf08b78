"""Execution plans: every decision about a ``ScenarioSpec``, made once.

* :func:`validate_spec` refuses a spec no engine can run;
* :func:`plan_for` names the engine that runs a spec and, for
  ``method="batch"``, the reason the batch kernels are refused;
* :func:`run_plan` constructs that engine and runs the scenario.

The plan table, first matching row wins::

    spec                       engine          method="batch" refused
    variant="evacuation"       evacuation      yes (problem variant)
    protocol="confirmation"    confirmation    yes (confirmation protocol)
    mode != "sync"             event           yes (scheduled time)
    variant="halfline"         sync            yes (problem variant)
    otherwise                  batch or sync   no

The last row takes ``batch`` only for ``method="batch"`` with the
invariant audit off (the audit needs an event log), and falls back to
``sync`` when the fault model is not a pure crash-detection model.  The
library follows the table silently; the service and the CLI turn a
batch refusal into ``bad_request`` / exit 2.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.robots.faults import (
    AdversarialFaults,
    FaultModel,
    FixedFaults,
    RandomFaults,
)
from repro.robots.fleet import Fleet
from repro.simulation.engine import SearchSimulation

__all__ = ["VARIANT_NAMES", "plan_for", "run_plan", "validate_spec"]

#: Problem variants understood by ``ScenarioSpec``, in registry order.
VARIANT_NAMES = ("line", "halfline", "evacuation")


def validate_spec(spec: Any) -> None:
    """Refuse a spec no engine can run.

    Checks the fault kind and argument, the protocol, the variant and
    its feasibility, and the scheduler-mode grammar.  Fleet feasibility
    (e.g. ``n >= 2f + 1`` for the confirmation protocol) is left to
    realization, where a campaign isolates it as a failed scenario.

    Raises:
        InvalidParameterError: naming the first rule the spec breaks.
    """
    from repro.robustness.campaign import PROTOCOLS, _fault_model_for
    from repro.variants import variant_for

    # realize at least one faulty robot, so the argument is checked
    probe = spec if spec.f >= 1 else dataclasses.replace(spec, f=1)
    try:
        _fault_model_for(probe)
    except ValueError as exc:
        raise InvalidParameterError(
            f"invalid fault spec {spec.fault!r}: {exc}"
        ) from None
    if spec.protocol not in PROTOCOLS:
        raise InvalidParameterError(
            f"unknown protocol {spec.protocol!r}; "
            f"protocols: {', '.join(PROTOCOLS)}"
        )
    variant_for(spec.variant).validate_spec(spec)
    if spec.mode != "sync":
        from repro.async_sched.schedulers import scheduler_from_spec

        scheduler_from_spec(spec.mode)


#: Spec fields that rule out the batch kernels, checked in order: they
#: have no claim/vote semantics, no wall time, and assume whole-line
#: fleets.  ``(field, value the kernels need, what the spec is)``.
_BATCH_NEEDS = (
    ("protocol", "none", "confirmation-protocol"),
    ("mode", "sync", "scheduled-time"),
    ("variant", "line", "problem-variant"),
)


def plan_for(
    spec: Any, method: str = "event", check_invariants: bool = True
) -> Tuple[str, Optional[str]]:
    """``(engine, batch_refusal)`` for ``spec`` (see the module's table).

    ``batch_refusal`` is set when ``method="batch"`` and the spec's
    protocol, mode or variant rules the batch kernels out.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec
        >>> plan_for(ScenarioSpec(3, 1, 2.0), "batch", check_invariants=False)
        ('batch', None)
        >>> spec = ScenarioSpec(5, 2, 2.0, protocol="confirmation")
        >>> plan_for(spec, "batch")
        ('confirmation', "method 'batch' cannot run confirmation-protocol ...")
    """
    refusal = None
    if method == "batch":
        for name, needed, what in _BATCH_NEEDS:
            if getattr(spec, name) != needed:
                refusal = (
                    f"method 'batch' cannot run {what} scenarios; "
                    f"use method 'event' for {name} != {needed!r}"
                )
                break
    if spec.variant == "evacuation":
        engine = "evacuation"
    elif spec.protocol == "confirmation":
        engine = "confirmation"
    elif spec.mode != "sync":
        engine = "event"
    elif method == "batch" and refusal is None and not check_invariants:
        engine = "batch"
    else:
        engine = "sync"
    return engine, refusal


def _timelines(fleet: Fleet, spec: Any):
    """Per-robot scheduler timelines for a scheduled-time spec, else
    ``None`` (the protocol simulations then run in plan time)."""
    if spec.mode == "sync":
        return None
    from repro.async_sched.engine import timelines_for
    from repro.async_sched.schedulers import scheduler_from_spec

    return timelines_for(
        [r.effective_trajectory for r in fleet],
        scheduler_from_spec(spec.mode),
        spec.target,
        seed=spec.seed or 0,
    )


def _batch_outcome(fleet: Fleet, model: FaultModel, target: float):
    """Run one scenario through the batch kernels, or ``None`` when its
    fault model is not expressible there.

    Only the pure crash-detection models qualify (exact types — a
    subclass may override semantics): the adversarial worst case maps to
    ``T_{f+1}``, and fixed/random subsets map to a column min over the
    reliable robots.  Behavioral models (crash-stop, Byzantine,
    probabilistic) shape trajectories or detection draws in ways the
    first-visit matrix does not capture, so they stay on the engine.
    """
    from repro.batch import BatchEvaluator
    from repro.core.tolerance import times_close
    from repro.simulation.metrics import SearchOutcome

    if type(model) is AdversarialFaults:
        evaluator = BatchEvaluator(fleet, fault_budget=model.fault_budget)
        detection_time = evaluator.search_times([target])[0]
        faulty = frozenset(model.assign(fleet, target))
    elif type(model) in (FixedFaults, RandomFaults):
        faulty = frozenset(model.assign(fleet, target))
        evaluator = BatchEvaluator(fleet, fault_budget=model.fault_budget)
        detection_time = evaluator.detection_times([target], faulty)[0]
    else:
        return None
    detecting = None
    if math.isfinite(detection_time):
        for robot in fleet:
            if robot.index in faulty:
                continue
            t = robot.trajectory.first_visit_time(target)
            if t is not None and times_close(t, detection_time):
                detecting = robot.index
                break
    return SearchOutcome(
        target=target,
        detection_time=detection_time,
        detecting_robot=detecting,
        faulty_robots=faulty,
        events=(),
    )


def run_plan(scenario: Any, check_invariants: bool = True):
    """Build ``scenario`` and run it on the engine its plan names.

    The only place a campaign scenario's engine is constructed;
    :meth:`repro.variants.base.ProblemVariant.run` defaults to it.
    """
    spec = scenario.spec
    engine, _ = plan_for(spec, scenario.method, check_invariants)
    fleet, model = scenario.build()
    if engine == "batch":
        outcome = _batch_outcome(fleet, model, spec.target)
        if outcome is not None:
            return outcome
        engine = "sync"
    if engine == "sync":
        return SearchSimulation(
            fleet,
            spec.target,
            fault_model=model,
            check_invariants=check_invariants,
        ).run(with_events=check_invariants)
    if engine == "event":
        from repro.async_sched.engine import EventEngine
        from repro.async_sched.schedulers import scheduler_from_spec

        return EventEngine(
            fleet,
            spec.target,
            scheduler=scheduler_from_spec(spec.mode),
            fault_model=model,
            seed=spec.seed or 0,
            check_invariants=check_invariants,
        ).run(with_events=check_invariants)
    if engine == "confirmation":
        from repro.byzantine.simulate import ByzantineSearchSimulation

        return ByzantineSearchSimulation(
            fleet,
            spec.target,
            fault_model=model,
            check_invariants=check_invariants,
            timelines=_timelines(fleet, spec),
        ).run()
    from repro.variants.evacuation import EvacuationSearchSimulation

    return EvacuationSearchSimulation(
        fleet,
        spec.target,
        fault_model=model,
        check_invariants=check_invariants,
        timelines=_timelines(fleet, spec),
    ).run()

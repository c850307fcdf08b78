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

The last row takes ``batch`` by default (``method=None``) and for
``method="batch"`` when the invariant audit is off (the audit needs an
event log); ``method="event"`` forces ``sync``, the engine that is the
oracle.  At run time a ``batch`` plan still falls back to ``sync`` when
the fault model is not a pure crash-detection model or the fleet has no
structural key (:func:`repro.batch.cache.fleet_key`).  The library
follows the table silently; the service and the CLI turn a batch
refusal into ``bad_request`` / exit 2.

Every engine reads its fleet's trajectories from the one fleet cache
(:data:`repro.batch.cache.FLEET_CACHE`): a spec-built scenario's
factory is its variant's ``realize``, which shares them per algorithm.

A campaign does not take the batch route one scenario at a time.
Before running anything, the executor passes its scenarios to
:func:`_grouped_outcomes`, which groups the spec-built ``batch`` ones by
``(n, f)``.  Each group reads its fleet's cache entry once, for the
shared trajectories and then the compiled arrays, and makes one
:func:`_batch_outcomes` call: one ``first_visit_row`` per robot over
the group's sorted targets.  :func:`run_plan` calls the same helper
with one case, for the scenarios left over: ad-hoc factories, cases
the kernels leave to the engine, and groups in which anything raised.
"""

from __future__ import annotations

import dataclasses
import math
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.batch import cache
from repro.batch.kernels import START_RTOL, first_visit_row
from repro.core.tolerance import times_close
from repro.errors import InvalidParameterError
from repro.robots.faults import (
    AdversarialFaults,
    FaultModel,
    FixedFaults,
    RandomFaults,
)
from repro.robots.fleet import Fleet
from repro.simulation.engine import SearchSimulation
from repro.simulation.metrics import SearchOutcome

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
    spec: Any, method: Optional[str] = None, check_invariants: bool = True
) -> Tuple[str, Optional[str]]:
    """``(engine, batch_refusal)`` for ``spec`` (see the module's table).

    ``method`` is ``None`` (let the plan decide), ``"event"`` (force
    the engines) or ``"batch"``.  ``batch_refusal`` is set when
    ``method="batch"`` and the spec's protocol, mode or variant rules
    the batch kernels out.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec
        >>> plan_for(ScenarioSpec(3, 1, 2.0), check_invariants=False)
        ('batch', None)
        >>> plan_for(ScenarioSpec(3, 1, 2.0), "event", check_invariants=False)
        ('sync', None)
        >>> spec = ScenarioSpec(5, 2, 2.0, protocol="confirmation")
        >>> plan_for(spec, "batch")
        ('confirmation', "method 'batch' cannot run confirmation-protocol ...")
    """
    refusal = None
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
    elif method != "event" and refusal is None and not check_invariants:
        engine = "batch"
    else:
        engine = "sync"
    return engine, refusal if method == "batch" else None


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


#: The pure crash-detection models, by exact type: a subclass may
#: override their semantics.
_KERNEL_MODELS = (AdversarialFaults, FixedFaults, RandomFaults)


def _batch_outcomes(
    fleet: Fleet,
    cases: Sequence[Tuple[FaultModel, float]],
    key: Optional[Hashable] = None,
):
    """Run ``(model, target)`` cases on ``fleet`` through the batch
    kernels; the outcome of each case, or ``None`` where the engine must
    run it.  ``key`` is the fleet's cache key, its structural key
    (:func:`repro.batch.cache.fleet_key`) by default.

    Only the pure crash-detection models qualify.  Behavioral models
    (crash-stop, Byzantine, probabilistic) shape trajectories or
    detection draws in ways the first-visit matrix does not capture, so
    they stay on the engine, as does a fleet without a structural key.

    Every case is one column of the fleet's first-visit matrix: one
    ``first_visit_row`` per robot of the fleet compiled under ``key`` in
    :data:`repro.batch.cache.FLEET_CACHE`, over the cases' sorted
    distinct targets.  The adversary corrupts the first ``f`` visitors
    by ``(time, index)`` — exactly ``visiting_order`` — so detection is
    ``T_{f+1}``; a fixed or random fault set is a minimum over the
    reliable robots.  The detecting robot is chosen by the engine's
    rule.  Targets the engine refuses, or places at the start by its
    tolerance, are left to it.
    """
    outcomes: List[Optional[SearchOutcome]] = [None] * len(cases)
    if not isinstance(fleet, Fleet):
        return outcomes
    eligible = [
        (k, model, float(target))
        for k, (model, target) in enumerate(cases)
        if type(model) in _KERNEL_MODELS
        and math.isfinite(target)
        and abs(target) > START_RTOL * (1.0 + abs(target))
        and model.fault_budget <= fleet.size
    ]
    if not eligible:
        return outcomes
    trajectories = fleet.trajectories
    if key is None:
        key = cache.fleet_key(trajectories)
        if key is None:
            return outcomes
    targets = sorted({target for _, _, target in eligible})
    compiled = cache.FLEET_CACHE.compiled(
        key, trajectories, max(abs(targets[0]), abs(targets[-1]))
    )
    rows = [first_visit_row(c, targets) for c in compiled.trajectories]
    column = {target: j for j, target in enumerate(targets)}
    for k, model, target in eligible:
        j = column[target]
        visits = [
            (i, row[j]) for i, row in enumerate(rows) if row[j] != math.inf
        ]
        if type(model) is AdversarialFaults:
            visitors = sorted((t, i) for i, t in visits)
            faulty = frozenset(i for _, i in visitors[: model.fault_budget])
        else:
            faulty = frozenset(model.assign(fleet, target))
        reliable = [(i, t) for i, t in visits if i not in faulty]
        detection_time = min((t for _, t in reliable), default=math.inf)
        detecting = next(
            (i for i, t in reliable if times_close(t, detection_time)), None
        )
        outcomes[k] = SearchOutcome(
            target=target,
            detection_time=detection_time,
            detecting_robot=detecting,
            faulty_robots=faulty,
            events=(),
        )
    return outcomes


def _grouped_outcomes(
    tasks: Sequence[Tuple[int, Any]],
    check_invariants: bool,
    stopping: Callable[[], bool],
) -> Dict[int, SearchOutcome]:
    """The batch outcomes of ``(index, scenario)`` tasks, one fleet
    cache read and one :func:`_batch_outcomes` call per fleet group.

    A task is taken when its plan names ``batch`` and its factory is the
    one ``build_scenario`` makes (``campaign._spec_built``); an ad-hoc
    factory is the truth about its fleet, so it stays on
    :func:`run_plan`.  Taken tasks are grouped by ``(n, f)``: a
    ``batch`` plan already fixes the protocol (none) and the variant
    (line), so these two fields determine the fleet.  Each group takes
    its first spec's shared trajectories and cache key from
    :func:`repro.batch.cache.shared_trajectories`, the entry its
    scenarios' own ``realize`` reads, and each spec realizes its own
    fault model.  ``stopping`` is polled between groups.  A group
    where anything raises is left out whole, so its scenarios rerun one
    by one and fail exactly as they do there; so is every case
    :func:`_batch_outcomes` leaves to the engine.  Returns
    ``{index: outcome}``.
    """
    from repro.robustness.campaign import _fault_model_for, _spec_built
    from repro.variants import variant_for

    groups: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}
    for index, scenario in tasks:
        spec = scenario.spec
        if (
            plan_for(spec, scenario.method, check_invariants)[0] == "batch"
            and _spec_built(scenario)
        ):
            groups.setdefault((spec.n, spec.f), []).append((index, scenario))
    ready: Dict[int, SearchOutcome] = {}
    for members in groups.values():
        if stopping():
            break
        try:
            spec = members[0][1].spec
            key, trajectories = cache.shared_trajectories(
                *variant_for(spec.variant).algorithm(spec)
            )
            outcomes = _batch_outcomes(
                Fleet.from_trajectories(trajectories),
                [(_fault_model_for(scenario.spec), scenario.spec.target)
                 for _, scenario in members],
                key,
            )
        except Exception:
            continue  # rerun one by one, each failure is reported there
        ready.update(
            (index, outcome)
            for (index, _), outcome in zip(members, outcomes)
            if outcome is not None
        )
    return ready


def run_plan(scenario: Any, check_invariants: bool = True):
    """Build ``scenario`` and run it on the engine its plan names.

    The only place a campaign scenario's engine is constructed;
    :meth:`repro.variants.base.ProblemVariant.run` defaults to it.
    """
    spec = scenario.spec
    engine, _ = plan_for(spec, scenario.method, check_invariants)
    fleet, model = scenario.build()
    if engine == "batch":
        (outcome,) = _batch_outcomes(fleet, [(model, spec.target)])
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

"""Differential testing: every faster or rescheduled path against the engine.

The continuous :class:`~repro.simulation.engine.SearchSimulation` — the
``T_{f+1}(x)`` of the paper's Section 2 — is the semantic oracle of
this library.  Every other path to a detection time is a *candidate*
that must reproduce it.  This module replays a seeded grid of
(regime, target, fault) points through an oracle and a candidate
(:func:`run_parity`) and reports agreement point by point: ``==`` on
detection times and the same detecting robot.  Three comparisons ship:

* :func:`run_parity_harness` — the batch kernels of :mod:`repro.batch`
  over adversarial (worst-case ``T_{f+1}``) and explicit crash-fault
  sets; the kernels name no detecting robot, so neither side reports
  one.
  The service runs a small grid at startup as the batch fast path's
  license to serve, and CI runs the default grid in a bare venv.
* :func:`run_async_parity` — the FSYNC timeline of the one scenario
  engine: :class:`~repro.async_sched.engine.EventEngine` runs the same
  assign → detect → render core as the synchronous engine, mapped
  through one FSYNC :class:`~repro.async_sched.timeline.Timeline` per
  robot at unit speeds.  Cumulative-offset timelines make
  bit-exactness achievable.  It checks the timeline, not a second
  engine; the synchronous path's independent oracles are the batch
  kernels (:func:`run_parity_harness`), the closed forms, and the
  time-stepped grid scanner of :mod:`repro.simulation.timestep`.
* :func:`run_variant_parity` — ``variant="line"`` dispatch through
  :class:`~repro.variants.line.LineVariant` and the plan table.
* :func:`run_closed_form_parity` — the closed forms against the exact
  competitive-ratio kernel (:func:`repro.batch.kernels.ratio_supremum`):
  Lemma 4's ``T_{f+1}`` just past every turning point and Theorem 1's
  ratio at the supremum.  A closed form is not the same float
  expression, so this comparison is relative, within
  :data:`CLOSED_FORM_RTOL`.

Fault-DSL specs are realized *fresh* for each run: stochastic models
(``random``, ``probabilistic``) keep generator state across
``assign()`` calls, so sharing one instance between oracle and
candidate would silently compare different fault draws.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.batch.evaluate import BatchEvaluator
from repro.errors import InvalidParameterError
from repro.robots.faults import AdversarialFaults, FixedFaults
from repro.robots.fleet import Fleet
from repro.robustness.campaign import (
    ScenarioSpec,
    _fault_model_for,
    build_scenario,
)
from repro.robustness.plan import validate_spec
from repro.simulation.engine import SearchSimulation

__all__ = [
    "ASYNC_PAIRS",
    "BATCH_PAIRS",
    "DEFAULT_FAULT_KINDS",
    "VARIANT_PAIRS",
    "ParityCase",
    "ParityReport",
    "CLOSED_FORM_RTOL",
    "run_async_parity",
    "run_closed_form_parity",
    "run_parity",
    "run_parity_harness",
    "run_variant_parity",
]

#: Batch regimes: n = f+1 twice, n = 2f+1 twice, one interior
#: proportional regime, and one trivial-regime (n >= 2f+2) fleet.
BATCH_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1),
    (3, 2),
    (3, 1),
    (5, 2),
    (4, 2),
    (6, 2),
)

#: FSYNC regimes: the paper's extremes n = f+1 and n = 2f+1, and an
#: interior proportional regime.
ASYNC_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1),
    (3, 2),
    (3, 1),
    (5, 2),
    (4, 2),
    (7, 3),
)

#: The FSYNC regimes plus two trivial-regime fleets (``n >= 2f + 2``
#: routes through ``TwoGroupAlgorithm``), so both sides of the regime
#: rule are pinned.
VARIANT_PAIRS: Tuple[Tuple[int, int], ...] = ASYNC_PAIRS + ((4, 1), (6, 2))

#: Relative agreement of :func:`run_closed_form_parity`: a closed form
#: and the kernel are different float expressions of the same value.
CLOSED_FORM_RTOL = 1e-12

#: Fault-DSL specs compared per target, spanning the behavior taxonomy:
#: pure crash-detection, motion-truncating crash-stop, log-shaping
#: Byzantine alarms, and seeded probabilistic detection.
DEFAULT_FAULT_KINDS: Tuple[str, ...] = (
    "none",
    "adversarial",
    "fixed",
    "crash_stop:2.0",
    "byzantine:0.5;1.5",
    "probabilistic:0.7",
)

#: A fault-DSL string, or explicit crash-fault indices (``None`` for the
#: adversarial worst case).
Fault = Union[str, Optional[Tuple[int, ...]]]

#: ``run(n, f, target, fault) -> (detection_time, detecting_robot)``.
Runner = Callable[[int, int, float, Any], Tuple[float, Optional[int]]]


def _encode(t: float):
    """Non-finite times as strings, like the campaign report."""
    return t if math.isfinite(t) else repr(t)


@dataclass(frozen=True)
class ParityCase:
    """One compared point: a regime, a target, a fault, two outcomes.

    ``fault`` is a fault-DSL string (:mod:`repro.robustness.campaign`)
    or a set of crash-detection faulty indices, ``None`` standing for the
    adversarial worst case.  ``labels`` name the oracle and the
    candidate in :meth:`describe` and in the ``<label>_time`` /
    ``<label>_robot`` keys of :meth:`to_dict`.
    """

    n: int
    f: int
    target: float
    fault: Fault
    oracle_time: float
    candidate_time: float
    oracle_robot: Optional[int] = None
    candidate_robot: Optional[int] = None
    labels: Tuple[str, str] = ("oracle", "candidate")
    rtol: float = 0.0

    @property
    def agree(self) -> bool:
        """Whether the two outcomes agree: ``==`` detection times (an
        infinite time matches only itself), or finite times within
        ``rtol`` relative when a closed form is the oracle, and equal
        detecting robots."""
        oracle, candidate = self.oracle_time, self.candidate_time
        return (
            oracle == candidate
            or math.isfinite(oracle)
            and abs(oracle - candidate) <= self.rtol * abs(oracle)
        ) and self.oracle_robot == self.candidate_robot

    def describe(self) -> str:
        """One-line summary."""
        oracle, candidate = self.labels
        if isinstance(self.fault, str):
            fault = f"fault={self.fault}"
        elif self.fault is None:
            fault = "adversarial"
        else:
            fault = f"faulty={list(self.fault)}"
        times = (
            f"{oracle}={self.oracle_time!r} "
            f"{candidate}={self.candidate_time!r} robots="
            f"{self.oracle_robot}/{self.candidate_robot}"
        )
        verdict = "ok " if self.agree else "MISMATCH"
        return (
            f"{verdict} A({self.n},{self.f}) x={self.target:.6g} "
            f"{fault}: {times}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        oracle, candidate = self.labels
        data: Dict[str, Any] = {"n": self.n, "f": self.f, "target": self.target}
        if isinstance(self.fault, str):
            data["fault"] = self.fault
        else:
            data["fault_set"] = None if self.fault is None else list(self.fault)
        data[f"{oracle}_time"] = _encode(self.oracle_time)
        data[f"{candidate}_time"] = _encode(self.candidate_time)
        data[f"{oracle}_robot"] = self.oracle_robot
        data[f"{candidate}_robot"] = self.candidate_robot
        data["agree"] = self.agree
        return data


@dataclass
class ParityReport:
    """The outcome of one parity run: every case, plus the verdict.

    :meth:`describe` heads the summary with ``name[tag]``; the JSON
    ``format`` is derived from ``name``, and ``params`` are extra
    top-level JSON keys (the batch backend, the FSYNC quantum).
    """

    name: str
    tag: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    cases: List[ParityCase] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of compared points."""
        return len(self.cases)

    @property
    def regimes(self) -> List[Tuple[int, int]]:
        """Distinct ``(n, f)`` regimes covered, sorted."""
        return sorted({(c.n, c.f) for c in self.cases})

    def mismatches(self) -> List[ParityCase]:
        """Cases where oracle and candidate disagree."""
        return [c for c in self.cases if not c.agree]

    @property
    def passed(self) -> bool:
        """Whether every compared point agreed."""
        return not self.mismatches()

    def describe(self, max_mismatches: int = 10) -> str:
        """Multi-line summary."""
        bad = self.mismatches()
        rtol = self.params.get("rtol")
        agreement = "bit-exact" if rtol is None else f"within rtol={rtol:g}"
        lines = [
            f"{self.name}[{self.tag}]: {self.total - len(bad)}/{self.total} "
            f"points {agreement} across {len(self.regimes)} regimes "
            f"(seed={self.seed})"
        ]
        for case in bad[:max_mismatches]:
            lines.append("  " + case.describe())
        hidden = len(bad) - max_mismatches
        if hidden > 0:
            lines.append(f"  ... and {hidden} more mismatches")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "format": f"linesearch-{self.name.replace(' ', '-')}-report",
            "version": 1,
            **self.params,
            "seed": self.seed,
            "total": self.total,
            "passed": self.passed,
            "regimes": [list(r) for r in self.regimes],
            "mismatches": len(self.mismatches()),
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize as a durable JSON artifact (canonical key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_parity(
    grid: Iterable[Tuple[int, int, float, Fault]],
    oracle: Tuple[str, Runner],
    candidate: Tuple[str, Runner],
    name: str,
    tag: str,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
    rtol: float = 0.0,
) -> ParityReport:
    """Run ``oracle`` and ``candidate`` on every grid point and compare.

    Each side is a ``(label, run)`` pair, where ``run(n, f, target,
    fault)`` returns ``(detection_time, detecting_robot)``, compared by
    :attr:`ParityCase.agree` (``==``, or within ``rtol`` relative when
    it is positive); ``name``, ``tag``, ``seed`` and ``params`` head the
    :class:`ParityReport`.
    """
    (oracle_label, run_oracle), (candidate_label, run_candidate) = (
        oracle,
        candidate,
    )
    cases = []
    for n, f, target, fault in grid:
        oracle_time, oracle_robot = run_oracle(n, f, target, fault)
        candidate_time, candidate_robot = run_candidate(n, f, target, fault)
        cases.append(
            ParityCase(
                n=n,
                f=f,
                target=target,
                fault=fault,
                oracle_time=oracle_time,
                candidate_time=candidate_time,
                oracle_robot=oracle_robot,
                candidate_robot=candidate_robot,
                labels=(oracle_label, candidate_label),
                rtol=rtol,
            )
        )
    return ParityReport(
        name=name,
        tag=tag,
        seed=seed,
        params=dict(params or {}),
        cases=cases,
    )


def _validate_grid(
    x_max: float,
    pairs: Sequence[Tuple[int, int]] = (),
    fault_kinds: Sequence[str] = (),
    **counts: int,
) -> None:
    """Refuse a grid before any engine runs: every count must be >= 1,
    ``x_max`` finite and > 1, and every fault spec valid for every
    regime (:func:`~repro.robustness.plan.validate_spec`)."""
    for label, count in counts.items():
        if count < 1:
            raise InvalidParameterError(f"{label} must be >= 1, got {count}")
    if not (math.isfinite(x_max) and x_max > 1.0):
        raise InvalidParameterError(
            f"x_max must be finite and exceed 1, got {x_max}"
        )
    for n, f in pairs:
        for fault in fault_kinds:
            validate_spec(ScenarioSpec(n=n, f=f, target=x_max, fault=fault))


def _seeded_grid(
    pairs: Sequence[Tuple[int, int]],
    targets_per_pair: int,
    faults: Callable[[random.Random, int, int], Sequence[Fault]],
    seed: int,
    x_max: float,
) -> Iterator[Tuple[int, int, float, Fault]]:
    """``(n, f, target, fault)`` points, reproducible from ``seed``.

    Per regime: ``targets_per_pair`` targets log-uniform in
    ``[1, x_max]`` with random signs, then ``faults(rng, n, f)`` per
    target.
    """
    rng = random.Random(seed)
    log_max = math.log(x_max)
    for n, f in pairs:
        targets = []
        for _ in range(targets_per_pair):
            magnitude = math.exp(rng.uniform(0.0, log_max))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            targets.append(sign * magnitude)
        for target in targets:
            for fault in faults(rng, n, f):
                yield n, f, target, fault


def _fleets() -> Callable[[int, int], Fleet]:
    """A per-run cache of regime-rule fleets, one per ``(n, f)``."""
    from repro.schedule import algorithm_for

    return functools.lru_cache(maxsize=None)(
        lambda n, f: Fleet.from_algorithm(algorithm_for(n, f))
    )


def _engine(fleet: Fleet, target: float, model) -> Tuple[float, Optional[int]]:
    """The oracle: one continuous-engine run, no event log."""
    outcome = SearchSimulation(fleet, target, fault_model=model).run(
        with_events=False
    )
    return outcome.detection_time, outcome.detecting_robot


def _dsl_engine(fleet: Callable[[int, int], Fleet], seed: int) -> Runner:
    """The oracle for fault-DSL grids, with a fresh fault model per run."""

    def run(n: int, f: int, target: float, fault: str):
        spec = ScenarioSpec(n=n, f=f, target=target, fault=fault, seed=seed)
        return _engine(fleet(n, f), target, _fault_model_for(spec))

    return run


def run_parity_harness(
    pairs: Sequence[Tuple[int, int]] = BATCH_PAIRS,
    targets_per_pair: int = 40,
    fault_sets_per_target: int = 5,
    seed: int = 2016,
    x_max: float = 32.0,
) -> ParityReport:
    """The batch kernels against the engine, bit-exact.

    Each target is compared under the adversarial worst case, no
    faults, and seeded random fault subsets of size at most ``f``.

    Args:
        pairs: ``(n, f)`` regimes; each is realized with the library's
            regime rule (proportional ``A(n, f)`` when
            ``f < n < 2f + 2``, the two-group algorithm otherwise).
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_sets_per_target: Fault assignments compared per target
            (adversarial + fault-free + random subsets).
        seed: Master seed; the whole grid is reproducible from it.
        x_max: Largest target magnitude drawn.

    Examples:
        >>> report = run_parity_harness(
        ...     pairs=[(3, 1)], targets_per_pair=3,
        ...     fault_sets_per_target=2,
        ... )
        >>> report.passed
        True
        >>> report.total
        6
    """
    from repro.schedule import algorithm_for

    _validate_grid(
        x_max,
        targets_per_pair=targets_per_pair,
        fault_sets_per_target=fault_sets_per_target,
    )
    fleet = _fleets()
    evaluator = functools.lru_cache(maxsize=None)(
        lambda n, f: BatchEvaluator(algorithm_for(n, f), fault_budget=f)
    )

    def fault_sets(rng: random.Random, n: int, f: int) -> List[Fault]:
        sets: List[Fault] = [None, ()]
        while len(sets) < fault_sets_per_target:
            size = rng.randint(0, f)
            sets.append(tuple(sorted(rng.sample(range(n), size))))
        return sets[:fault_sets_per_target]

    def engine(n: int, f: int, target: float, fault_set):
        if fault_set is None:
            model = AdversarialFaults(f)
        else:
            model = FixedFaults(fault_set) if fault_set else None
        return _engine(fleet(n, f), target, model)[0], None

    def batch(n: int, f: int, target: float, fault_set):
        if fault_set is None:
            times = evaluator(n, f).search_times([target])
        else:
            times = evaluator(n, f).detection_times([target], fault_set)
        return times[0], None

    return run_parity(
        _seeded_grid(pairs, targets_per_pair, fault_sets, seed, x_max),
        oracle=("engine", engine),
        candidate=("batch", batch),
        name="parity",
        tag="pure",
        seed=seed,
        # kept so parity reports keep their JSON shape
        params={"backend": "pure"},
    )


def run_async_parity(
    pairs: Sequence[Tuple[int, int]] = ASYNC_PAIRS,
    targets_per_pair: int = 12,
    fault_kinds: Sequence[str] = DEFAULT_FAULT_KINDS,
    seed: int = 2016,
    x_max: float = 16.0,
    quantum: float = 0.5,
) -> ParityReport:
    """The FSYNC timeline of the scenario engine, bit-exact.

    :class:`~repro.async_sched.engine.EventEngine` and the synchronous
    engine share one assign → detect → render core, so this harness
    checks that FSYNC timelines map plan time to itself — built by
    :func:`~repro.async_sched.engine.timelines_for` and queried through
    every detection — not that two engines agree.

    Args:
        pairs: ``(n, f)`` regimes, realized with the library's regime
            rule (:func:`repro.schedule.algorithm_for`).
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_kinds: Campaign fault-DSL strings compared per target.
        seed: Master seed; also each scenario's fault seed.
        x_max: Largest target magnitude drawn.
        quantum: FSYNC activation quantum (parity must hold for any
            positive value — the quantum only partitions plan time).

    Examples:
        >>> report = run_async_parity(
        ...     pairs=[(3, 1)], targets_per_pair=2,
        ...     fault_kinds=("none", "adversarial"),
        ... )
        >>> report.passed
        True
        >>> report.total
        4
    """
    from repro.async_sched.engine import EventEngine
    from repro.async_sched.schedulers import FsyncScheduler

    _validate_grid(x_max, pairs, fault_kinds, targets_per_pair=targets_per_pair)
    fleet = _fleets()

    def event(n: int, f: int, target: float, fault: str):
        spec = ScenarioSpec(n=n, f=f, target=target, fault=fault, seed=seed)
        outcome = EventEngine(
            fleet(n, f),
            target,
            scheduler=FsyncScheduler(quantum),
            fault_model=_fault_model_for(spec),
            seed=seed,
        ).run(with_events=False)
        return outcome.detection_time, outcome.detecting_robot

    return run_parity(
        _seeded_grid(
            pairs, targets_per_pair, lambda *_: fault_kinds, seed, x_max
        ),
        oracle=("continuous", _dsl_engine(fleet, seed)),
        candidate=("event", event),
        name="async parity",
        tag=f"fsync, quantum={quantum:g}",
        seed=seed,
        params={"quantum": quantum},
    )


def run_variant_parity(
    pairs: Sequence[Tuple[int, int]] = VARIANT_PAIRS,
    targets_per_pair: int = 8,
    fault_kinds: Sequence[str] = DEFAULT_FAULT_KINDS,
    seed: int = 2016,
    x_max: float = 16.0,
) -> ParityReport:
    """``variant="line"`` dispatch against the engine, bit-exact.

    Args:
        pairs: ``(n, f)`` regimes, realized with the library's regime
            rule on both sides.
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_kinds: Campaign fault-DSL strings compared per target.
        seed: Master seed; also each scenario's fault seed.
        x_max: Largest target magnitude drawn.

    Examples:
        >>> report = run_variant_parity(
        ...     pairs=[(3, 1)], targets_per_pair=2,
        ...     fault_kinds=("none", "adversarial"),
        ... )
        >>> report.passed
        True
        >>> report.total
        4
    """
    from repro.variants import variant_for

    _validate_grid(x_max, pairs, fault_kinds, targets_per_pair=targets_per_pair)
    line = variant_for("line")

    def variant(n: int, f: int, target: float, fault: str):
        spec = ScenarioSpec(n=n, f=f, target=target, fault=fault, seed=seed)
        outcome = line.run(build_scenario(spec), check_invariants=False)
        return outcome.detection_time, outcome.detecting_robot

    return run_parity(
        _seeded_grid(
            pairs, targets_per_pair, lambda *_: fault_kinds, seed, x_max
        ),
        oracle=("engine", _dsl_engine(_fleets(), seed)),
        candidate=("variant", variant),
        name="variant parity",
        tag="line",
        seed=seed,
    )


def run_closed_form_parity(
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    x_max: float = 200.0,
) -> ParityReport:
    """Theorem 1 and Lemma 4 against the exact competitive-ratio kernel.

    For each proportional regime ``A(n, f)``, at every turning point
    ``p`` with ``1 <= |p| < x_max`` (both signs), the kernel's right
    limit ``T_{f+1}(p⁺)`` is compared with Lemma 4's closed form
    (:func:`~repro.core.proportional.t_f_plus_1_at_turning_point`):
    the case's ``fault`` reads ``"lemma4"``.  One more case per regime,
    ``"theorem1"``, compares the kernel's supremum ``T_{f+1}`` at its
    witness ``x`` with Theorem 1's ratio times ``|x|``.  Every case is
    the adversarial worst case.  ``pairs`` defaults to the proportional
    rows of Table 1 (:data:`~repro.experiments.table1.PAPER_TABLE1` with
    ``n < 2f + 2``); times agree within :data:`CLOSED_FORM_RTOL`.

    Examples:
        >>> report = run_closed_form_parity(pairs=[(3, 1)], x_max=20.0)
        >>> report.passed
        True
        >>> sorted({case.fault for case in report.cases})
        ['lemma4', 'theorem1']
    """
    from repro.batch.compile import compile_fleet
    from repro.batch.kernels import (
        breakpoints,
        ratio_candidates,
        ratio_supremum,
    )
    from repro.core.proportional import t_f_plus_1_at_turning_point
    from repro.experiments.table1 import PAPER_TABLE1
    from repro.schedule import algorithm_for

    _validate_grid(x_max)
    if pairs is None:
        pairs = [(n, f) for n, f, *_ in PAPER_TABLE1 if n < 2 * f + 2]
    # (n, f, x, case) -> (closed form, kernel)
    points: Dict[Tuple[int, int, float, Fault], Tuple[float, float]] = {}
    for n, f in pairs:
        algorithm = algorithm_for(n, f)
        beta = getattr(algorithm, "beta", None)
        if beta is None:
            raise InvalidParameterError(
                f"A({n},{f}) is not a proportional schedule (needs "
                "f < n < 2f + 2)"
            )
        compiled = compile_fleet(
            Fleet.from_algorithm(algorithm).trajectories, -x_max, x_max
        ).trajectories
        # every robot starts at the origin: these are its turning points
        turns = breakpoints(compiled, 1.0, x_max)
        for x, t, side in ratio_candidates(compiled, f + 1, 1.0, x_max):
            if side == "right" and x in turns:
                lemma4 = t_f_plus_1_at_turning_point(beta, n, f, abs(x))
                points[n, f, x, "lemma4"] = (lemma4, t)
        (x, t, _), _ = ratio_supremum(compiled, f + 1, 1.0, x_max)
        theorem1 = algorithm.theoretical_competitive_ratio() * abs(x)
        points[n, f, x, "theorem1"] = (theorem1, t)

    return run_parity(
        points,
        oracle=("closed_form", lambda *point: (points[point][0], None)),
        candidate=("kernel", lambda *point: (points[point][1], None)),
        name="closed-form parity",
        tag="Theorem 1, Lemma 4",
        seed=0,
        params={"rtol": CLOSED_FORM_RTOL, "x_max": x_max},
        rtol=CLOSED_FORM_RTOL,
    )

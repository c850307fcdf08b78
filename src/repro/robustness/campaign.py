"""Chaos campaigns: seeded scenario batches with per-scenario isolation.

A *campaign* executes many search scenarios — fleets × targets × fault
specs — and never lets one bad scenario abort the sweep.  Each scenario
runs inside its own fault boundary: any exception (a broken fault model,
a speed-violating trajectory, an invariant audit failure, …) is captured
into a structured :class:`ScenarioResult` carrying the error class, the
seed, and the declarative :class:`ScenarioSpec`, so every failure is
replayable in isolation.  Stochastic scenarios that fail are retried
once before being recorded — a transient unlucky draw should not
pollute a robustness report.

The declarative layer is deliberately small: a :class:`ScenarioSpec`
names an ``(n, f)`` fleet (built with the paper's regime rules), a
target, a fault spec string, and a seed.  Fault spec strings cover the
whole taxonomy::

    none                   no faults
    adversarial            the paper's worst-case adversary, budget f
    random                 uniformly random f-subset (seeded)
    fixed                  robots 0..f-1 are crash-detection faulty
    crash_stop:T           robots 0..f-1 halt at T*(i+1)
    byzantine:T1;T2;...    robots 0..f-1 raise false alarms at the T_i
    byzantine_adversarial:T1;T2;...
                           worst-case liar placement: the f first
                           visitors of the target lie at the T_i
    probabilistic:P        robots 0..f-1 detect each visit w.p. P (seeded)

A spec may additionally name a ``protocol``: ``"none"`` (the engine's
first-detection termination) or ``"confirmation"`` — the Byzantine
voting layer of :mod:`repro.byzantine`, under which a claim commits
only after ``f + 1`` confirmations and lying robots cannot terminate
the search at a false point.

A spec may also name a ``mode``: ``"sync"`` (the default continuous
synchronous engine) or an activation-scheduler spec such as
``"event"``, ``"event:adversarial:1.0"``, or ``"event:ssync:0.5"`` —
the discrete-event engine of :mod:`repro.async_sched`, where robots
advance their plans only when the scheduler activates them (see
:func:`repro.async_sched.scheduler_from_spec` for the grammar).
Confirmation-protocol scenarios compose: the Byzantine simulation
receives the scheduler's per-robot timelines.

Finally, a spec may name a ``variant`` — the *problem* being solved:
``"line"`` (the source paper's whole-line search, the default),
``"halfline"`` (p-faulty search on a ray, arXiv:2002.07797), or
``"evacuation"`` (commit-then-gather with a near majority of faulty
agents, arXiv:2605.08355).  Every spec is realized and executed by its
variant's :class:`~repro.variants.base.ProblemVariant`; line specs
behave bit-for-bit as before the field existed (the parity harness
:func:`repro.parity.run_variant_parity` pins this).

Which specs are valid and which engine runs each is decided in
:mod:`repro.robustness.plan`.

Programmatic callers can bypass the DSL entirely by handing
:func:`run_campaign` arbitrary :class:`Scenario` objects whose ``build``
callables produce any fleet/fault-model pair — including deliberately
broken ones, which is exactly how the test suite chaos-tests the engine.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError, LineSearchError
from repro.robots.faults import (
    AdversarialFaults,
    BehavioralFaults,
    ByzantineAdversary,
    ByzantineFalseAlarmFault,
    CrashStopFault,
    FaultModel,
    FixedFaults,
    ProbabilisticDetectionFault,
    RandomFaults,
)
from repro.robots.fleet import Fleet
from repro.robustness.plan import VARIANT_NAMES as VARIANTS
from repro.robustness.plan import validate_spec

__all__ = [
    "FAULT_KINDS",
    "PROTOCOLS",
    "VARIANTS",
    "CampaignReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "build_scenario",
    "chaos_scenarios",
    "run_campaign",
    "scenario_key",
]

#: Fault spec kinds understood by :class:`ScenarioSpec`.
FAULT_KINDS = (
    "none",
    "adversarial",
    "random",
    "fixed",
    "crash_stop",
    "byzantine",
    "byzantine_adversarial",
    "probabilistic",
)

#: Fault kinds whose outcome depends on a seeded draw; their scenarios
#: get the executor's retry (:attr:`Scenario.stochastic`).
_STOCHASTIC_FAULT_KINDS = ("random", "probabilistic")

#: Termination protocols understood by :class:`ScenarioSpec`.
PROTOCOLS = ("none", "confirmation")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative recipe for one scenario — everything a replay needs.

    Examples:
        >>> spec = ScenarioSpec(n=3, f=1, target=2.0, fault="adversarial", seed=7)
        >>> spec.describe()
        'A(3,1) target=2 fault=adversarial seed=7'
    """

    n: int
    f: int
    target: float
    fault: str = "adversarial"
    seed: Optional[int] = None
    protocol: str = "none"
    mode: str = "sync"
    variant: str = "line"

    def describe(self) -> str:
        """One-line summary."""
        suffix = (
            f" protocol={self.protocol}" if self.protocol != "none" else ""
        )
        if self.mode != "sync":
            suffix += f" mode={self.mode}"
        if self.variant != "line":
            suffix += f" variant={self.variant}"
        return (
            f"A({self.n},{self.f}) target={self.target:g} "
            f"fault={self.fault} seed={self.seed}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        The defaults ``protocol="none"``, ``mode="sync"``, and
        ``variant="line"`` are *omitted* so every digest, journal key,
        and golden report produced before those fields existed stays
        byte-identical.
        """
        data = {
            "n": self.n,
            "f": self.f,
            "target": self.target,
            "fault": self.fault,
            "seed": self.seed,
        }
        if self.protocol != "none":
            data["protocol"] = self.protocol
        if self.mode != "sync":
            data["mode"] = self.mode
        if self.variant != "line":
            data["variant"] = self.variant
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            n=int(data["n"]),
            f=int(data["f"]),
            target=float(data["target"]),
            fault=str(data.get("fault", "adversarial")),
            seed=None if data.get("seed") is None else int(data["seed"]),
            protocol=str(data.get("protocol", "none")),
            mode=str(data.get("mode", "sync")),
            variant=str(data.get("variant", "line")),
        )


def scenario_key(spec: ScenarioSpec) -> str:
    """Deterministic identity of a spec, stable across processes and runs.

    The campaign journal keys every outcome by this digest so a resumed
    campaign can recognize already-completed scenarios regardless of
    execution order, worker placement, or interpreter restarts.

    Examples:
        >>> a = scenario_key(ScenarioSpec(3, 1, 2.0, "none", 7))
        >>> b = scenario_key(ScenarioSpec(3, 1, 2.0, "none", 7))
        >>> a == b
        True
        >>> a == scenario_key(ScenarioSpec(3, 1, 2.0, "none", 8))
        False
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Scenario:
    """An executable scenario: a spec plus the factory realizing it.

    ``build`` is called fresh on every attempt (including retries) and
    returns the fleet and fault model to simulate.  Custom scenarios may
    pair any spec with any factory — the spec is documentation and
    replay metadata, the factory is the truth.

    ``method=None`` (the default) lets
    :func:`~repro.robustness.plan.plan_for` decide: a line, sync,
    unprotected crash-fault scenario run without the invariant audit
    takes the analytic fast path of :mod:`repro.batch`, everything else
    the engine the plan names.  ``method="event"`` forces the engines,
    which remain the oracle; ``method="batch"`` asks for the kernels and
    is refused where the spec rules them out.
    """

    spec: ScenarioSpec
    build: Callable[[], Tuple[Fleet, FaultModel]]
    stochastic: bool = False
    method: Optional[str] = None


@dataclass(frozen=True)
class ScenarioResult:
    """The isolated outcome of one scenario, success or failure.

    ``attempt_errors`` records the error class and message of *every*
    failed attempt, not just the last one — a scenario that succeeded
    on its second try still carries the transient error that cost it
    the first attempt.
    """

    spec: ScenarioSpec
    ok: bool
    attempts: int = 1
    detection_time: Optional[float] = None
    competitive_ratio: Optional[float] = None
    detecting_robot: Optional[int] = None
    faulty_robots: Tuple[int, ...] = ()
    error: Optional[str] = None
    error_message: Optional[str] = None
    attempt_errors: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line summary."""
        if self.ok:
            detection = (
                f"T={self.detection_time:.6g}"
                if self.detection_time is not None
                and math.isfinite(self.detection_time)
                else "undetected"
            )
            return f"ok   {self.spec.describe()}: {detection}"
        retried = " (retried)" if self.attempts > 1 else ""
        return (
            f"FAIL {self.spec.describe()}: {self.error}: "
            f"{self.error_message}{retried}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        Non-finite detection times (an undetected target) are encoded
        as strings so the output stays strict JSON.
        """
        detection = self.detection_time
        if detection is not None and not math.isfinite(detection):
            detection = repr(detection)
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "attempts": self.attempts,
            "detection_time": detection,
            "competitive_ratio": self.competitive_ratio,
            "detecting_robot": self.detecting_robot,
            "faulty_robots": list(self.faulty_robots),
            "error": self.error,
            "error_message": self.error_message,
            "attempt_errors": list(self.attempt_errors),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output."""
        detection = data.get("detection_time")
        if isinstance(detection, str):
            detection = float(detection)
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            ok=bool(data["ok"]),
            attempts=int(data.get("attempts", 1)),
            detection_time=detection,
            competitive_ratio=data.get("competitive_ratio"),
            detecting_robot=data.get("detecting_robot"),
            faulty_robots=tuple(data.get("faulty_robots", ())),
            error=data.get("error"),
            error_message=data.get("error_message"),
            attempt_errors=tuple(data.get("attempt_errors", ())),
        )


@dataclass
class CampaignReport:
    """Aggregated results of a campaign, failures isolated and replayable."""

    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of scenarios executed."""
        return len(self.results)

    @property
    def succeeded(self) -> int:
        """Number of scenarios that completed without error."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        """Number of scenarios captured as failures."""
        return self.total - self.succeeded

    def failures(self) -> List[ScenarioResult]:
        """The failed results, in execution order."""
        return [r for r in self.results if not r.ok]

    def error_counts(self) -> Dict[str, int]:
        """Failure tally per error class."""
        counts: Dict[str, int] = {}
        for result in self.failures():
            counts[result.error or "?"] = counts.get(result.error or "?", 0) + 1
        return counts

    def describe(self, max_failures: int = 10) -> str:
        """Multi-line campaign summary."""
        lines = [
            f"chaos campaign: {self.succeeded}/{self.total} scenarios ok, "
            f"{self.failed} failure(s) isolated"
        ]
        for error, count in sorted(self.error_counts().items()):
            lines.append(f"  {error}: {count}")
        shown = self.failures()[:max_failures]
        if shown:
            lines.append("first failures (replay via spec + seed):")
            lines.extend("  " + r.describe() for r in shown)
            hidden = self.failed - len(shown)
            if hidden > 0:
                lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "format": "linesearch-campaign-report",
            "version": 1,
            "total": self.total,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            results=[ScenarioResult.from_dict(r) for r in data["results"]]
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the report as a durable JSON artifact.

        The encoding is canonical (sorted keys), so two reports with
        equal results serialize byte-identically — the resume tests
        rely on this.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        """Rebuild a report from :meth:`to_json` output.

        Examples:
            >>> report = CampaignReport()
            >>> CampaignReport.from_json(report.to_json()).total
            0
        """
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# spec realization
# ----------------------------------------------------------------------

def _fault_model_for(spec: ScenarioSpec) -> FaultModel:
    """Realize the fault spec string."""
    kind, _, argument = spec.fault.partition(":")
    seed = spec.seed
    if kind == "none":
        return AdversarialFaults(0)
    if kind == "adversarial":
        return AdversarialFaults(spec.f)
    if kind == "random":
        return RandomFaults(spec.f, seed=seed)
    if kind == "fixed":
        if argument:
            indices = [int(i) for i in argument.split(",")]
        else:
            indices = list(range(spec.f))
        return FixedFaults(indices)
    if kind == "crash_stop":
        halt = float(argument) if argument else 2.0
        return BehavioralFaults(
            {i: CrashStopFault(halt * (i + 1)) for i in range(spec.f)}
        )
    if kind == "byzantine":
        alarms = (
            [float(t) for t in argument.split(";")] if argument else [0.5, 1.5]
        )
        return BehavioralFaults(
            {i: ByzantineFalseAlarmFault(alarms) for i in range(spec.f)}
        )
    if kind == "byzantine_adversarial":
        alarms = (
            [float(t) for t in argument.split(";")] if argument else [0.5, 1.5]
        )
        return ByzantineAdversary(spec.f, alarm_times=alarms)
    if kind == "probabilistic":
        p = float(argument) if argument else 0.5
        base = seed if seed is not None else 0
        return BehavioralFaults(
            {
                i: ProbabilisticDetectionFault(p, seed=base + i)
                for i in range(spec.f)
            }
        )
    raise InvalidParameterError(
        f"unknown fault kind {kind!r}; kinds: {', '.join(FAULT_KINDS)}"
    )


def build_scenario(
    spec: ScenarioSpec, method: Optional[str] = None
) -> Scenario:
    """Realize a declarative spec into an executable scenario.

    The spec is checked by :func:`~repro.robustness.plan.validate_spec`
    first, so a malformed spec fails here rather than mid-campaign.  The
    factory is the spec's variant's ``realize``, bound to the spec; it
    pickles by value, so the parallel executor ships it to workers as-is.

    Examples:
        >>> scenario = build_scenario(ScenarioSpec(3, 1, 2.0, "crash_stop:1.5"))
        >>> fleet, model = scenario.build()
        >>> fleet.size
        3
    """
    from repro.variants import variant_for

    if method not in (None, "event", "batch"):
        raise InvalidParameterError(
            f"method must be None, 'event' or 'batch', got {method!r}"
        )
    validate_spec(spec)
    return Scenario(
        spec=spec,
        build=functools.partial(variant_for(spec.variant).realize, spec),
        stochastic=spec.fault.partition(":")[0] in _STOCHASTIC_FAULT_KINDS,
        method=method,
    )


def _spec_built(scenario: Scenario) -> bool:
    """Whether ``scenario``'s factory is the one :func:`build_scenario`
    makes: its spec's variant's ``realize``, bound to that spec."""
    from repro.variants import variant_for

    build = scenario.build
    return (
        isinstance(build, functools.partial)
        and build.args == (scenario.spec,)
        and not build.keywords
        and build.func == variant_for(scenario.spec.variant).realize
    )


def chaos_scenarios(
    pairs: Sequence[Tuple[int, int]],
    targets: Sequence[float],
    faults: Sequence[str] = FAULT_KINDS,
    seed: int = 0,
    method: Optional[str] = None,
    protocol: str = "none",
    mode: str = "sync",
    variant: str = "line",
) -> List[Scenario]:
    """The full seeded grid of scenarios: pairs × targets × fault specs.

    Per-scenario seeds are drawn from a master generator, so the whole
    campaign is reproducible from ``seed`` alone and every entry is
    replayable from its own recorded seed.

    ``protocol``, ``mode`` and ``variant`` apply to every generated
    spec; the per-scenario seed also seeds a non-default ``mode``'s
    scheduler, so the whole campaign stays replayable from its spec.
    Which engine runs each scenario is decided by
    :func:`~repro.robustness.plan.plan_for` from ``method`` (see
    :class:`Scenario`); where the plan refuses batch, the library
    silently uses the event engines.

    Examples:
        >>> grid = chaos_scenarios([(3, 1)], [1.0, -2.0], ["none", "random"])
        >>> len(grid)
        4
    """
    master = random.Random(seed)
    scenarios: List[Scenario] = []
    for n, f in pairs:
        for target in targets:
            for fault in faults:
                spec = ScenarioSpec(
                    n=n,
                    f=f,
                    target=target,
                    fault=fault,
                    seed=master.randrange(2**32),
                    protocol=protocol,
                    mode=mode,
                    variant=variant,
                )
                scenarios.append(build_scenario(spec, method=method))
    return scenarios


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def error_class_of(exc: BaseException) -> str:
    """The error label recorded on results: bare name for library errors,
    module-qualified for foreign exceptions."""
    if isinstance(exc, LineSearchError):
        return type(exc).__name__
    return f"{type(exc).__module__}.{type(exc).__name__}"


def run_campaign(
    scenarios: Iterable[Scenario],
    check_invariants: bool = True,
    retry_stochastic: bool = True,
    retry_policy=None,
    executor=None,
) -> CampaignReport:
    """Execute scenarios with per-scenario fault isolation.

    A scenario that raises — during fleet construction, fault
    assignment, simulation, or the invariant audit — is captured as a
    failed :class:`ScenarioResult` and the campaign continues.  By
    default stochastic scenarios get one retry before their failure is
    recorded; pass a :class:`~repro.robustness.executor.RetryPolicy`
    to change attempts/backoff, or a fully configured
    :class:`~repro.robustness.executor.CampaignExecutor` via
    ``executor=`` for parallel workers, watchdog timeouts, and the
    crash-safe journal.

    Examples:
        >>> report = run_campaign(chaos_scenarios([(3, 1)], [2.0], ["none"]))
        >>> report.succeeded, report.failed
        (1, 0)
    """
    from repro.robustness.executor import CampaignExecutor, RetryPolicy

    if executor is None:
        if retry_policy is None:
            retry_policy = (
                RetryPolicy() if retry_stochastic else RetryPolicy.none()
            )
        executor = CampaignExecutor(retry_policy=retry_policy)
    return executor.execute(scenarios, check_invariants=check_invariants)

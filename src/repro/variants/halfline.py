"""The ``halfline`` variant: p-faulty search on a ray (arXiv:2002.07797).

**Domain** — the ray containing the target: the fleet is a staggered
:class:`~repro.schedule.halfline.HalfLineAlgorithm` whose schedules
never cross the origin (``side`` follows the target's sign — in the
half-line model the searcher *knows* which ray the target is on; what
it does not know is the distance).

**Termination predicate** — unchanged from the base problem: the first
reliable detection ends the run, so the whole fault taxonomy, the
scheduled-time modes, and the confirmation protocol compose with the
one-sided fleet through the campaign's shared engine dispatch.

**Objective** — the paper's: the *expected* detection time under
per-visit detection probability ``p``, computed by wiring the
one-sided fleet into :func:`repro.core.expected_time.expected_detection_time`
(:func:`halfline_expected_estimate`).  :func:`run_halfline_sweep`
validates the closed forms of :mod:`repro.core.halfline` against that
simulation across a p-grid and checks the numeric turning-point
optimizer against ``gamma*(p)`` — the report is the CI gate for the
variant's analytics.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.expected_time import ExpectedTimeEstimate, expected_detection_time
from repro.core.halfline import (
    halfline_bracket,
    halfline_expected_time,
    optimal_halfline_gamma,
    optimal_halfline_ratio,
    optimize_halfline_gamma,
)
from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet
from repro.robustness.plan import run_plan
from repro.schedule.halfline import HalfLineAlgorithm
from repro.variants.base import ProblemVariant

__all__ = [
    "HalfLineSweepPoint",
    "HalfLineSweepReport",
    "HalfLineVariant",
    "halfline_fleet",
    "halfline_expected_estimate",
    "run_halfline_sweep",
]

#: Default p-grid for sweeps: spans weak to near-certain detection.
DEFAULT_P_GRID: Tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.75, 0.9)

#: Default validation target — deliberately irrational-looking so it
#: never lands on a turning point of any swept ``gamma`` (exactly at an
#: apex the two per-round visits merge and the closed form does not
#: apply).
DEFAULT_SWEEP_TARGET = 3.7


class HalfLineVariant(ProblemVariant):
    """One-sided search with p-faulty detection.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec, build_scenario
        >>> spec = ScenarioSpec(3, 1, 2.5, "none", variant="halfline")
        >>> outcome = HalfLineVariant().run(
        ...     build_scenario(spec), check_invariants=False
        ... )
        >>> round(outcome.detection_time, 9)
        5.0198421
        >>> fleet, _ = HalfLineVariant().realize(spec)
        >>> all(t.covers(2.5) and not t.covers(-2.5) for t in fleet.trajectories)
        True
    """

    name = "halfline"

    def algorithm(self, spec: Any) -> Tuple[Callable[..., Any], Tuple]:
        return _one_sided, (spec.n, spec.f, 1 if spec.target >= 0 else -1)

    def run(self, scenario: Any, check_invariants: bool = True) -> Any:
        telemetry = obs.current()
        started = _time.perf_counter() if telemetry is not None else 0.0
        with obs.span(
            "variants.run",
            variant=self.name,
            target=scenario.spec.target,
            n=scenario.spec.n,
            f=scenario.spec.f,
        ):
            outcome = run_plan(scenario, check_invariants)
        if telemetry is not None:
            obs.count("variants_runs_total")
            obs.count("variants_halfline_runs_total")
            obs.observe(
                "variants_wall_seconds", _time.perf_counter() - started
            )
        return outcome


def _one_sided(n: int, f: int, side: int) -> HalfLineAlgorithm:
    """The default-gamma fleet searching the ray on ``side``."""
    return HalfLineAlgorithm(n, f, side=side)


def halfline_fleet(
    n: int = 1,
    gamma: float = 2.0,
    f: int = 0,
    side: int = 1,
) -> Fleet:
    """A staggered half-line fleet, ready for the expected-time objective.

    Examples:
        >>> fleet = halfline_fleet(gamma=2.0)
        >>> fleet.trajectories[0].first_visit_time(3.0)
        9.0
    """
    return Fleet.from_algorithm(HalfLineAlgorithm(n, f, gamma=gamma, side=side))


def halfline_expected_estimate(
    target: float,
    gamma: float,
    p: float,
    rtol: float = 1e-12,
) -> ExpectedTimeEstimate:
    """Simulated ``E[T]`` of the single-robot full-return strategy.

    Wires the one-sided fleet into the probabilistic objective of
    :func:`repro.core.expected_time.expected_detection_time` — the
    quantity :func:`repro.core.halfline.halfline_expected_time` claims
    in closed form.  Tight ``rtol`` by default: the validation sweep
    demands relative error below 1e-9 against the closed form.

    Examples:
        >>> estimate = halfline_expected_estimate(3.0, 2.0, 0.75)
        >>> round(estimate.expected_time, 9)
        10.085714286
    """
    if target <= 0:
        raise InvalidParameterError(
            f"half-line targets are positive distances, got {target!r}"
        )
    fleet = halfline_fleet(n=1, gamma=gamma)
    return expected_detection_time(fleet, target, p, rtol=rtol)


@dataclass(frozen=True)
class HalfLineSweepPoint:
    """Closed form vs. simulation vs. numeric optimizer, at one ``p``."""

    p: float
    gamma_closed: float
    gamma_numeric: float
    ratio_closed: float
    expected_closed: float
    expected_simulated: float

    @property
    def expected_rel_error(self) -> float:
        """Relative disagreement of the two ``E[T]`` values."""
        scale = max(abs(self.expected_closed), abs(self.expected_simulated))
        if scale == 0.0:
            return 0.0
        if math.isinf(self.expected_closed) or math.isinf(
            self.expected_simulated
        ):
            return 0.0 if self.expected_closed == self.expected_simulated else math.inf
        return abs(self.expected_closed - self.expected_simulated) / scale

    @property
    def gamma_rel_error(self) -> float:
        """Relative disagreement of closed-form and numeric ``gamma*``."""
        return abs(self.gamma_closed - self.gamma_numeric) / self.gamma_closed

    def ok(self, rtol: float = 1e-9, gamma_rtol: float = 1e-6) -> bool:
        """Whether both validations pass at the given tolerances."""
        return (
            self.expected_rel_error <= rtol
            and self.gamma_rel_error <= gamma_rtol
        )

    def describe(self) -> str:
        verdict = "ok " if self.ok() else "FAIL"
        return (
            f"{verdict} p={self.p:g}: gamma*={self.gamma_closed:.9g} "
            f"(numeric {self.gamma_numeric:.9g}), R*={self.ratio_closed:.6g}, "
            f"E[T] closed={self.expected_closed:.12g} vs "
            f"simulated={self.expected_simulated:.12g} "
            f"(rel err {self.expected_rel_error:.3g})"
        )


@dataclass
class HalfLineSweepReport:
    """The validation sweep: the variant's analytics against simulation."""

    target: float
    points: List[HalfLineSweepPoint] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def passed(self) -> bool:
        return all(point.ok() for point in self.points)

    def describe(self) -> str:
        good = sum(1 for point in self.points if point.ok())
        lines = [
            f"half-line sweep at x={self.target:g}: {good}/{self.total} "
            f"p-grid points validated (closed form vs simulation, "
            f"optimizer vs gamma*)"
        ]
        lines.extend("  " + point.describe() for point in self.points)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "linesearch-halfline-sweep-report",
            "version": 1,
            "target": self.target,
            "total": self.total,
            "passed": self.passed,
            "points": [
                {
                    "p": point.p,
                    "gamma_closed": point.gamma_closed,
                    "gamma_numeric": point.gamma_numeric,
                    "ratio_closed": point.ratio_closed,
                    "expected_closed": point.expected_closed,
                    "expected_simulated": point.expected_simulated,
                    "expected_rel_error": point.expected_rel_error,
                    "gamma_rel_error": point.gamma_rel_error,
                    "ok": point.ok(),
                }
                for point in self.points
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_halfline_sweep(
    ps: Sequence[float] = DEFAULT_P_GRID,
    target: float = DEFAULT_SWEEP_TARGET,
    rtol: float = 1e-12,
) -> HalfLineSweepReport:
    """Validate the half-line closed forms across a p-grid.

    For each ``p``: recover ``gamma*`` numerically and in closed form,
    evaluate the closed-form ``E[T]`` at ``gamma*``, and compare it
    against the simulated expectation of the actual one-sided fleet.
    The target must not sit exactly on a turning point of any swept
    strategy (see :mod:`repro.core.halfline`).

    Examples:
        >>> report = run_halfline_sweep(ps=(0.5, 0.75), target=3.7)
        >>> report.passed
        True
        >>> report.total
        2
    """
    if target <= 0:
        raise InvalidParameterError(
            f"half-line targets are positive distances, got {target!r}"
        )
    telemetry = obs.current()
    points: List[HalfLineSweepPoint] = []
    for p in ps:
        gamma = optimal_halfline_gamma(p)
        bracket = halfline_bracket(target, gamma)
        if math.isclose(
            gamma**bracket, target, rel_tol=1e-9
        ) or math.isclose(gamma ** max(bracket - 1, 0), target, rel_tol=1e-9):
            raise InvalidParameterError(
                f"target {target!r} sits on a turning point of "
                f"gamma*={gamma!r} at p={p!r}; the closed form does not "
                "apply there — pick a generic target"
            )
        closed = halfline_expected_time(target, gamma, p)
        simulated = halfline_expected_estimate(target, gamma, p, rtol=rtol)
        points.append(
            HalfLineSweepPoint(
                p=float(p),
                gamma_closed=gamma,
                gamma_numeric=optimize_halfline_gamma(p),
                ratio_closed=optimal_halfline_ratio(p),
                expected_closed=closed,
                expected_simulated=simulated.expected_time,
            )
        )
        if telemetry is not None:
            obs.count("variants_halfline_sweep_points_total")
    return HalfLineSweepReport(target=float(target), points=points)

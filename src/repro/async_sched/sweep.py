"""CR-degradation sweeps: competitive ratio vs. scheduler adversity.

The paper's competitive-ratio guarantees hold in the fully synchronous
unit-speed model.  :func:`run_degradation_sweep` measures how they
degrade when an activation scheduler withholds wall-clock time: for a
grid of symmetric targets it compares the continuous worst-case ratio
``K(x) = T_{f+1}(x) / |x|`` against the event engine's wall-clock ratio
at increasing values of the scheduler's delay knob.

Empirical shape of the result (pinned loosely by the test suite, and
the headline number the closed forms — including the lower bounds of
arXiv:1707.05077 — do not cover):

- the target-covering **adversarial** scheduler is a constant shift:
  it delays only the quanta whose plan window visits the target, and a
  robot's first visit lies in the first such window, so every robot's
  wall first visit is its plan first visit plus ``max_delay``, as
  floats.  Detection times therefore rise by exactly ``max_delay`` and
  the ratio by exactly ``max_delay / |x|`` (pinned with ``==`` by the
  test suite);
- seeded **async** delays degrade *multiplicatively*: every quantum of
  progress pays an expected gap of ``max_delay / 2``, inflating
  detection times by roughly ``1 + max_delay / (2 * quantum)`` across
  the whole grid.

The delay knob maps onto each scheduler kind as the natural "expected
idleness" parameter — see :func:`_scheduler_for`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.async_sched.schedulers import (
    SCHEDULER_KINDS,
    ActivationScheduler,
    AdversarialScheduler,
    AsyncScheduler,
    FsyncScheduler,
    SsyncScheduler,
)
from repro.errors import InvalidParameterError
from repro.extensions.multi_speed import MultiSpeedProportionalAlgorithm
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet
from repro.schedule.algorithm import ProportionalAlgorithm
from repro.simulation.sweep import geometric_grid, target_sweep

__all__ = ["DegradationPoint", "DegradationReport", "run_degradation_sweep"]


@dataclass(frozen=True)
class DegradationPoint:
    """Competitive-ratio statistics at one delay setting.

    Attributes:
        max_delay: The scheduler delay knob for this point.
        supremum_ratio: Worst wall-clock ratio over the target grid.
        witness_target: Target achieving the supremum.
        mean_ratio: Mean wall-clock ratio over the grid.
    """

    max_delay: float
    supremum_ratio: float
    witness_target: float
    mean_ratio: float

    def to_dict(self) -> dict:
        return {
            "max_delay": self.max_delay,
            "supremum_ratio": self.supremum_ratio,
            "witness_target": self.witness_target,
            "mean_ratio": self.mean_ratio,
        }


@dataclass(frozen=True)
class DegradationReport:
    """Full CR-degradation sweep result.

    Attributes:
        n: Fleet size.
        f: Fault budget (adversarial crash-detection faults).
        scheduler: Scheduler kind swept.
        quantum: Activation quantum used throughout.
        seed: Scheduler seed.
        targets: The symmetric target grid.
        baseline_supremum: Continuous-model supremum ratio
            ``sup K(x)`` over the same grid.
        baseline_witness: Target achieving the continuous supremum.
        points: One :class:`DegradationPoint` per delay value.
        speeds: Per-robot speeds (``None`` = unit speeds).
    """

    n: int
    f: int
    scheduler: str
    quantum: float
    seed: int
    targets: Tuple[float, ...]
    baseline_supremum: float
    baseline_witness: float
    points: Tuple[DegradationPoint, ...]
    speeds: Optional[Tuple[float, ...]] = field(default=None)

    def to_dict(self) -> dict:
        payload = {
            "n": self.n,
            "f": self.f,
            "scheduler": self.scheduler,
            "quantum": self.quantum,
            "seed": self.seed,
            "targets": list(self.targets),
            "baseline_supremum": self.baseline_supremum,
            "baseline_witness": self.baseline_witness,
            "points": [p.to_dict() for p in self.points],
        }
        if self.speeds is not None:
            payload["speeds"] = list(self.speeds)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def describe(self) -> str:
        """Human-readable sweep table."""
        speeds = (
            "unit"
            if self.speeds is None
            else "(" + ", ".join(f"{s:g}" for s in self.speeds) + ")"
        )
        lines = [
            f"CR degradation: A({self.n},{self.f}), "
            f"scheduler={self.scheduler}, quantum={self.quantum:g}, "
            f"seed={self.seed}, speeds={speeds}",
            f"  targets: {len(self.targets)} symmetric points in "
            f"[{min(self.targets):g}, {max(self.targets):g}]",
            f"  continuous baseline: sup K(x) = "
            f"{self.baseline_supremum:.4f} at x = {self.baseline_witness:g}",
            "  max_delay   sup ratio   mean ratio   witness x   overhead",
        ]
        for p in self.points:
            overhead = (
                p.supremum_ratio / self.baseline_supremum
                if self.baseline_supremum > 0
                and math.isfinite(p.supremum_ratio)
                else math.inf
            )
            lines.append(
                f"  {p.max_delay:>9g}   {p.supremum_ratio:>9.4f}   "
                f"{p.mean_ratio:>10.4f}   {p.witness_target:>9g}   "
                f"{overhead:>7.3f}x"
            )
        return "\n".join(lines)


def _scheduler_for(
    kind: str, max_delay: float, quantum: float
) -> ActivationScheduler:
    """Map the sweep's delay knob onto a scheduler instance.

    - ``fsync``: knob ignored (no delays exist in this model).
    - ``ssync``: activation probability ``p = 1 / (1 + max_delay)``, so
      the expected number of idle rounds before an activation is
      exactly ``max_delay`` (expected gap ``max_delay * quantum``).
    - ``async`` / ``adversarial``: the knob is ``max_delay`` directly.
    """
    if kind == "fsync":
        return FsyncScheduler(quantum)
    if kind == "ssync":
        return SsyncScheduler(p=1.0 / (1.0 + max_delay), quantum=quantum)
    if kind == "async":
        return AsyncScheduler(max_delay, quantum)
    return AdversarialScheduler(max_delay, quantum)


def run_degradation_sweep(
    n: int,
    f: int,
    delays: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    scheduler: str = "adversarial",
    quantum: float = 0.5,
    seed: int = 0,
    x_max: float = 8.0,
    points: int = 12,
    speeds: Optional[Sequence[float]] = None,
) -> DegradationReport:
    """Measure CR degradation of ``A(n, f)`` under a scheduler sweep.

    Args:
        n: Fleet size (``n >= 2f + 1`` for the proportional schedule).
        f: Crash-fault budget; faults are assigned adversarially.
        delays: Delay-knob values to sweep (each must be finite,
            ``>= 0``).
        scheduler: Scheduler kind, one of
            :data:`~repro.async_sched.schedulers.SCHEDULER_KINDS`.
        quantum: Activation quantum shared by every point.
        seed: Scheduler seed (fixed across delays, so async-kind draws
            are coupled and ratios are monotone in the knob).
        x_max: Targets span ``±[1, x_max]`` geometrically.
        points: Total number of targets (split across both signs,
            minimum 4).
        speeds: Optional per-robot speeds in ``(0, 1]``.

    Examples:
        >>> report = run_degradation_sweep(
        ...     3, 1, delays=(0.0, 1.0), points=4, x_max=4.0
        ... )
        >>> report.points[0].supremum_ratio <= report.points[1].supremum_ratio
        True
    """
    if scheduler not in SCHEDULER_KINDS:
        raise InvalidParameterError(
            f"unknown scheduler kind {scheduler!r}; expected one of "
            f"{', '.join(SCHEDULER_KINDS)}"
        )
    delays = [float(d) for d in delays]
    if not delays:
        raise InvalidParameterError("delays must be non-empty")
    if any(not (math.isfinite(d) and d >= 0.0) for d in delays):
        raise InvalidParameterError(
            f"delays must be finite and >= 0, got {delays}"
        )
    if points < 4:
        raise InvalidParameterError(
            f"need at least 4 targets for a sweep, got {points}"
        )
    if speeds is None:
        algorithm = ProportionalAlgorithm(n, f)
        speed_tuple: Optional[Tuple[float, ...]] = None
    else:
        algorithm = MultiSpeedProportionalAlgorithm(n, f, speeds=speeds)
        speed_tuple = tuple(float(s) for s in speeds)
    fleet = Fleet.from_algorithm(algorithm)

    half = geometric_grid(1.0, float(x_max), max(2, points // 2))
    targets = tuple([x for x in half] + [-x for x in half])

    with obs.span(
        "async.degradation_sweep",
        n=n,
        f=f,
        scheduler=scheduler,
        delays=len(delays),
        targets=len(targets),
    ):
        baseline = target_sweep(fleet, f, targets).supremum
        sweep_points: List[DegradationPoint] = []
        for delay in delays:
            profile = target_sweep(
                fleet,
                f,
                targets,
                scheduler=_scheduler_for(scheduler, delay, float(quantum)),
                seed=seed,
            )
            obs.count("async_sweep_points_total", len(targets))
            worst = profile.supremum
            # Left to right, not sum(): Python 3.12's sum() compensates,
            # which would make the mean differ between versions.
            total = 0.0
            for ratio in profile.ratios():
                total += ratio
            sweep_points.append(
                DegradationPoint(
                    max_delay=delay,
                    supremum_ratio=worst.ratio,
                    witness_target=worst.x,
                    mean_ratio=total / len(targets),
                )
            )
    return DegradationReport(
        n=n,
        f=f,
        scheduler=scheduler,
        quantum=float(quantum),
        seed=int(seed),
        targets=targets,
        baseline_supremum=baseline.ratio,
        baseline_witness=baseline.x,
        points=tuple(sweep_points),
        speeds=speed_tuple,
    )

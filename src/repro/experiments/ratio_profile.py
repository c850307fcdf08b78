"""Experiment ``ratio_profile``: the sawtooth of Lemma 3, plotted.

The function ``K(x) = T_{f+1}(x) / |x|`` (Definition 3) is, per Lemma 3,
piecewise decreasing with upward jumps exactly at turning points, and per
Lemma 5 its per-interval suprema are all equal to the competitive ratio.
This experiment samples ``K`` densely over a few expansion periods of
``A(n, f)``, verifies both structural facts numerically, and renders the
sawtooth as a terminal chart — the picture the paper describes in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.competitive_ratio import algorithm_competitive_ratio
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.schedule.algorithm import ProportionalAlgorithm
from repro.simulation.sweep import target_sweep
from repro.viz.ascii_art import line_chart

__all__ = ["RatioProfileResult", "run_ratio_profile", "render_ratio_profile"]


@dataclass(frozen=True)
class RatioProfileResult:
    """Sampled sawtooth plus its verified structure."""

    n: int
    f: int
    xs: Tuple[float, ...]
    ratios: Tuple[float, ...]
    turning_points: Tuple[float, ...]
    supremum: float
    theorem1: float

    @property
    def supremum_matches_theorem1(self) -> bool:
        """Whether the sampled supremum hits the Theorem 1 value."""
        return abs(self.supremum - self.theorem1) <= 1e-6 * self.theorem1


def run_ratio_profile(
    n: int = 3,
    f: int = 1,
    periods: int = 2,
    samples_per_interval: int = 24,
) -> RatioProfileResult:
    """Sample ``K(x)`` over ``periods`` expansion periods of ``A(n, f)``.

    The sample grid covers each interval between consecutive combined
    turning points, including a probe just past each jump.

    Examples:
        >>> result = run_ratio_profile(3, 1, periods=1)
        >>> result.supremum_matches_theorem1
        True
    """
    if periods < 1:
        raise InvalidParameterError(f"periods must be >= 1, got {periods}")
    if samples_per_interval < 2:
        raise InvalidParameterError(
            f"samples_per_interval must be >= 2, got {samples_per_interval}"
        )
    algorithm = ProportionalAlgorithm(n, f)
    fleet = Fleet.from_algorithm(algorithm)
    r = algorithm.proportionality_ratio
    turning_points = [r**j for j in range(periods * n + 1)]

    xs: List[float] = []
    for tau, nxt in zip(turning_points, turning_points[1:]):
        for i in range(samples_per_interval):
            frac = i / samples_per_interval
            x = tau * (1 + 1e-9) if i == 0 else tau + frac * (nxt - tau)
            xs.append(x)
    ratios = target_sweep(fleet, f, xs).ratios()
    return RatioProfileResult(
        n=n,
        f=f,
        xs=tuple(xs),
        ratios=tuple(ratios),
        turning_points=tuple(turning_points),
        supremum=max(ratios),
        theorem1=algorithm_competitive_ratio(n, f),
    )


def render_ratio_profile(result: RatioProfileResult) -> str:
    """Terminal chart of the sawtooth plus its verified facts."""
    chart = line_chart(list(result.xs), list(result.ratios),
                       width=72, height=16, log_x=True)
    facts = [
        f"K(x) for A({result.n},{result.f}); jumps at combined turning "
        f"points " + ", ".join(f"{t:.3f}" for t in result.turning_points),
        f"sampled supremum {result.supremum:.6f} vs Theorem 1 "
        f"{result.theorem1:.6f} (match: "
        f"{result.supremum_matches_theorem1})",
    ]
    return (
        "Ratio profile (the Lemma 3 sawtooth)\n"
        + chart + "\n" + "\n".join(facts)
    )

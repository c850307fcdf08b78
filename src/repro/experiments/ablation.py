"""Experiment ``ablation``: design-choice validation.

Two ablations called out in DESIGN.md:

* **beta sweep** — the paper optimizes the cone slope analytically
  (``beta* = (4f+4)/n - 1``).  We sweep ``beta`` over ``(1, 3)`` and
  confirm, both in closed form and by simulation, that ``beta*`` is the
  minimizer and how sharply the ratio degrades off-optimum.
* **baseline comparison** — the proportional schedule versus group
  doubling (ratio 9), split doubling, delayed doubling, and — where
  legal — the two-group straight-line algorithm (ratio 1).  This
  reproduces the paper's motivating comparisons in Section 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.group_doubling import GroupDoubling
from repro.baselines.naive import DelayedGroupDoubling, SplitDoubling
from repro.core.optimal import optimal_beta
from repro.core.parameters import SearchParameters
from repro.errors import InvalidParameterError
from repro.experiments.report import render_table
from repro.schedule import algorithm_for
from repro.schedule.base import SearchAlgorithm
from repro.simulation.adversary import measure_competitive_ratio
from repro.simulation.sweep import SweepPoint, beta_sweep

__all__ = [
    "BaselineRow",
    "run_beta_ablation",
    "render_beta_ablation",
    "run_baseline_comparison",
    "render_baseline_comparison",
]


def run_beta_ablation(
    n: int,
    f: int,
    points: int = 11,
    measure: bool = False,
    x_max: float = 60.0,
) -> Tuple[float, List[SweepPoint]]:
    """Sweep the cone slope around the optimum.

    Returns ``(beta_star, sweep_points)`` where the sweep covers
    ``(1, 3)`` on an even grid plus ``beta_star`` itself.

    Examples:
        >>> beta_star, pts = run_beta_ablation(3, 1, points=5)
        >>> round(beta_star, 4)
        1.6667
        >>> best = min(pts, key=lambda p: p.theoretical)
        >>> abs(best.parameter - beta_star) < 1e-9
        True
    """
    if points < 3:
        raise InvalidParameterError(f"points must be >= 3, got {points}")
    SearchParameters(n, f).require_proportional()
    beta_star = optimal_beta(n, f)
    lo, hi = 1.05, 2.95
    grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    grid.append(beta_star)
    grid = sorted(set(grid))
    return beta_star, beta_sweep(n, f, grid, measure=measure, x_max=x_max)


def render_beta_ablation(
    n: int, f: int, beta_star: float, points: List[SweepPoint]
) -> str:
    """Text rendering of the beta ablation."""
    headers = ["beta", "CR (Lemma 5)", "CR (measured)", "is beta*"]
    body = [
        [
            p.parameter,
            p.theoretical,
            p.measured,
            abs(p.parameter - beta_star) < 1e-9,
        ]
        for p in points
    ]
    return render_table(
        headers, body, precision=6,
        title=(
            f"Beta ablation for (n={n}, f={f}) — the analytic optimum "
            f"beta*={beta_star:.6g} minimizes the ratio"
        ),
    )


@dataclass(frozen=True)
class BaselineRow:
    """Competitive ratio of one algorithm at one ``(n, f)``."""

    algorithm: str
    n: int
    f: int
    theoretical: Optional[float]
    measured: float


def _algorithms_for(n: int, f: int) -> List[SearchAlgorithm]:
    return [
        algorithm_for(n, f),
        GroupDoubling(n, f),
        SplitDoubling(n, f),
        DelayedGroupDoubling(n, f, delay=1.0),
    ]


def run_baseline_comparison(
    pairs: Sequence[Tuple[int, int]] = ((3, 1), (4, 2), (5, 2), (4, 1)),
    x_max: float = 200.0,
) -> List[BaselineRow]:
    """Measure every applicable algorithm at each ``(n, f)`` pair.

    Examples:
        >>> rows = run_baseline_comparison(pairs=[(3, 1)], x_max=60.0)
        >>> prop = [r for r in rows if r.algorithm.startswith("A(")][0]
        >>> group = [r for r in rows if "GroupDoubling" in r.algorithm][0]
        >>> prop.measured < group.measured   # the paper's headline win
        True
    """
    if not pairs:
        raise InvalidParameterError("pairs must be non-empty")
    rows: List[BaselineRow] = []
    for n, f in pairs:
        for algorithm in _algorithms_for(n, f):
            measured = measure_competitive_ratio(
                algorithm, f, x_max=x_max
            ).value
            rows.append(
                BaselineRow(
                    algorithm=algorithm.name,
                    n=n,
                    f=f,
                    theoretical=algorithm.theoretical_competitive_ratio(),
                    measured=measured,
                )
            )
    return rows


def render_baseline_comparison(rows: List[BaselineRow]) -> str:
    """Text rendering of the baseline comparison."""
    headers = ["algorithm", "n", "f", "CR (theory)", "CR (measured)"]
    body = [
        [r.algorithm, r.n, r.f, r.theoretical, r.measured] for r in rows
    ]
    return render_table(
        headers, body, precision=4,
        title="Baseline comparison — worst-case competitive ratios",
    )

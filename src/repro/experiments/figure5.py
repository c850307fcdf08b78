"""Experiment ``figure5``: reproduce both plots of Figure 5.

* **Left**: the competitive ratio of the proportional schedule for
  ``n = 2f + 1`` robots as a function of ``n``, i.e.
  ``(2 + 2/n)^(1 + 1/n) (2/n)^(-1/n) + 1`` for ``n = 3 .. 20``.  For odd
  ``n`` this is exactly the Theorem 1 value of ``A(n, (n-1)/2)``, and we
  additionally *measure* the simulated fleet at those points.
* **Right**: the asymptotic competitive ratio as a function of the
  robots-per-fault ratio ``a = n/f in (1, 2)``:
  ``(4/a)^(2/a) (4/a - 2)^(1 - 2/a) + 1``.  We additionally compute the
  finite-``n`` Theorem 1 value along sequences with ``n/f -> a`` to show
  the convergence the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.asymptotics import asymptotic_cr, odd_critical_cr
from repro.core.competitive_ratio import algorithm_competitive_ratio
from repro.errors import InvalidParameterError
from repro.experiments.report import render_table
from repro.schedule.algorithm import ProportionalAlgorithm
from repro.simulation.adversary import measure_competitive_ratio

__all__ = [
    "ConvergencePoint",
    "figure5_right_convergence",
    "Figure5LeftPoint",
    "Figure5RightPoint",
    "figure5_left",
    "figure5_right",
    "render_figure5_left",
    "render_figure5_right",
]


@dataclass(frozen=True)
class Figure5LeftPoint:
    """One point of the left plot (``n = 2f + 1`` family)."""

    n: int
    formula_value: float
    theorem1_value: Optional[float]  # only defined at odd n
    measured_value: Optional[float]


@dataclass(frozen=True)
class Figure5RightPoint:
    """One point of the right plot (fault-fraction family)."""

    a: float
    asymptotic_value: float
    finite_n_value: Optional[float]
    finite_n: Optional[int]


def figure5_left(
    n_min: int = 3,
    n_max: int = 20,
    measure: bool = False,
    x_max: float = 100.0,
) -> List[Figure5LeftPoint]:
    """The left plot's series, optionally with simulation measurements.

    Examples:
        >>> pts = figure5_left()
        >>> len(pts)
        18
        >>> round(pts[0].formula_value, 3)   # n = 3
        5.233
        >>> pts[-1].formula_value < pts[0].formula_value   # decreasing
        True
    """
    if n_min < 2 or n_max < n_min:
        raise InvalidParameterError(
            f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]"
        )
    points: List[Figure5LeftPoint] = []
    for n in range(n_min, n_max + 1):
        formula = odd_critical_cr(n)
        theorem1 = None
        measured = None
        if n % 2 == 1:
            f = (n - 1) // 2
            theorem1 = algorithm_competitive_ratio(n, f)
            if measure:
                measured = measure_competitive_ratio(
                    ProportionalAlgorithm(n, f), f, x_max=x_max
                ).value
        points.append(
            Figure5LeftPoint(
                n=n,
                formula_value=formula,
                theorem1_value=theorem1,
                measured_value=measured,
            )
        )
    return points


def figure5_right(
    grid_points: int = 21,
    finite_f: Optional[int] = 40,
) -> List[Figure5RightPoint]:
    """The right plot's series over ``a in [1, 2]``.

    For each grid value of ``a`` (other than the endpoints, where the
    finite pair may leave the proportional regime), also evaluates the
    finite-``n`` Theorem 1 ratio at ``(n, f) = (round(a * finite_f),
    finite_f)`` to exhibit convergence.

    Examples:
        >>> pts = figure5_right(grid_points=5)
        >>> [round(p.a, 2) for p in pts]
        [1.0, 1.25, 1.5, 1.75, 2.0]
        >>> pts[0].asymptotic_value
        9.0
        >>> round(pts[-1].asymptotic_value, 6)
        3.0
    """
    if grid_points < 2:
        raise InvalidParameterError(
            f"grid_points must be >= 2, got {grid_points}"
        )
    points: List[Figure5RightPoint] = []
    for i in range(grid_points):
        a = 1.0 + i / (grid_points - 1)
        asymptotic = asymptotic_cr(a)
        finite_value = None
        finite_n = None
        if finite_f is not None:
            n = round(a * finite_f)
            f = finite_f
            if f < n < 2 * f + 2:
                finite_n = n
                finite_value = algorithm_competitive_ratio(n, f)
        points.append(
            Figure5RightPoint(
                a=a,
                asymptotic_value=asymptotic,
                finite_n_value=finite_value,
                finite_n=finite_n,
            )
        )
    return points


@dataclass(frozen=True)
class ConvergencePoint:
    """Finite-size error of the Figure 5 (right) limit at one ``f``."""

    f: int
    n: int
    finite_value: float
    asymptotic_value: float

    @property
    def error(self) -> float:
        """``finite - asymptotic`` (always positive: extra 4/n terms)."""
        return self.finite_value - self.asymptotic_value


def figure5_right_convergence(
    a: float = 1.5,
    f_values: Tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
) -> List[ConvergencePoint]:
    """Quantify the convergence rate behind Figure 5 (right).

    The paper states the finite-``n`` ratio "tends to" the asymptote;
    this experiment measures the error along ``n = a * f`` and the tests
    confirm it decays like ``Theta(1/n)`` (halving ``1/n`` halves the
    error).

    Examples:
        >>> points = figure5_right_convergence(f_values=(8, 16, 32))
        >>> all(p.error > 0 for p in points)
        True
        >>> points[-1].error < points[0].error
        True
    """
    if not 1.0 < a < 2.0:
        raise InvalidParameterError(f"a must be in (1, 2), got {a}")
    if not f_values:
        raise InvalidParameterError("f_values must be non-empty")
    asymptote = asymptotic_cr(a)
    points: List[ConvergencePoint] = []
    for f in f_values:
        n = round(a * f)
        if not f < n < 2 * f + 2:
            raise InvalidParameterError(
                f"(n={n}, f={f}) fell outside the proportional regime; "
                "choose a strictly inside (1, 2)"
            )
        points.append(
            ConvergencePoint(
                f=f,
                n=n,
                finite_value=algorithm_competitive_ratio(n, f),
                asymptotic_value=asymptote,
            )
        )
    return points


def render_figure5_left(points: List[Figure5LeftPoint]) -> str:
    """Text rendering of the left plot's data."""
    headers = ["n", "formula (2+2/n)^(1+1/n)(2/n)^(-1/n)+1",
               "Theorem 1 (odd n)", "measured"]
    body = [
        [p.n, p.formula_value, p.theorem1_value, p.measured_value]
        for p in points
    ]
    return render_table(
        headers, body, precision=6,
        title="Figure 5 (left) — CR of A(2f+1, f) versus n",
    )


def render_figure5_right(points: List[Figure5RightPoint]) -> str:
    """Text rendering of the right plot's data."""
    headers = ["a = n/f", "asymptotic CR", "finite-n CR", "finite n"]
    body = [
        [p.a, p.asymptotic_value, p.finite_n_value, p.finite_n]
        for p in points
    ]
    return render_table(
        headers, body, precision=6,
        title="Figure 5 (right) — asymptotic CR versus fault fraction a",
    )

"""Extension experiments: measuring the paper-adjacent model variants.

Four studies, one per module in :mod:`repro.extensions`:

* ``ext_scaled_copies`` — the alternative schedule construction: matches
  Theorem 1 asymptotically but is strictly worse at the minimum
  distance (why Definition 4's start-up matters);
* ``ext_turn_cost`` — ratio under a per-reversal cost ``c``: grows
  linearly in ``c`` with the worst case pinned at ``|x| = 1``;
* ``ext_bounded`` — known distance bound ``D``: naive truncation leaves
  the ratio unchanged (negative result; see module docs);
* ``ext_multi_speed`` — heterogeneous speeds: a single slow robot of
  speed ``s`` inflates the ratio to ``CR / s`` whenever it is pivotal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.competitive_ratio import algorithm_competitive_ratio
from repro.errors import InvalidParameterError
from repro.experiments.report import render_table
from repro.extensions.bounded import BoundedDistanceAlgorithm
from repro.extensions.multi_speed import MultiSpeedProportionalAlgorithm
from repro.extensions.scaled_copies import ScaledCopiesAlgorithm
from repro.extensions.turn_cost import TurnCostProportionalAlgorithm
from repro.robots.fleet import Fleet
from repro.simulation.adversary import measure_competitive_ratio

__all__ = [
    "ScaledCopiesRow",
    "run_scaled_copies",
    "render_scaled_copies",
    "run_turn_cost",
    "render_turn_cost",
    "run_bounded",
    "render_bounded",
    "run_multi_speed",
    "render_multi_speed",
    "run_evacuation",
    "render_evacuation",
]


def _measure(algorithm, f: int, min_distance: float, x_max: float) -> float:
    return measure_competitive_ratio(
        algorithm, f, x_max=x_max, min_distance=min_distance
    ).value


# ----------------------------------------------------------------------
# scaled copies
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledCopiesRow:
    """Near- and far-field ratio of the scaled-copies construction."""

    n: int
    f: int
    theorem1: float
    near_field: float   # sup over 1 <= |x| <= 100
    far_field: float    # sup over 100 <= |x| <= 5000

    @property
    def startup_penalty(self) -> float:
        """How much worse the construction is near the origin."""
        return self.near_field - self.theorem1


def run_scaled_copies(
    pairs: Sequence[Tuple[int, int]] = ((3, 1), (5, 2), (5, 3)),
) -> List[ScaledCopiesRow]:
    """Measure the scaled-copies construction near and far."""
    if not pairs:
        raise InvalidParameterError("pairs must be non-empty")
    rows: List[ScaledCopiesRow] = []
    for n, f in pairs:
        alg = ScaledCopiesAlgorithm(n, f)
        rows.append(
            ScaledCopiesRow(
                n=n,
                f=f,
                theorem1=algorithm_competitive_ratio(n, f),
                near_field=_measure(alg, f, min_distance=1.0, x_max=100.0),
                far_field=_measure(
                    alg, f, min_distance=100.0, x_max=5000.0
                ),
            )
        )
    return rows


def render_scaled_copies(rows: List[ScaledCopiesRow]) -> str:
    """Text rendering of the scaled-copies study."""
    headers = ["n", "f", "Theorem 1 (A(n,f))", "scaled copies near |x|<=100",
               "scaled copies far |x|>=100", "start-up penalty"]
    body = [
        [r.n, r.f, r.theorem1, r.near_field, r.far_field, r.startup_penalty]
        for r in rows
    ]
    return render_table(
        headers, body, precision=4,
        title=(
            "Scaled-copies construction — matches Theorem 1 only "
            "asymptotically; Definition 4's cone start-up removes the "
            "near-origin penalty"
        ),
    )


# ----------------------------------------------------------------------
# turn cost
# ----------------------------------------------------------------------

def run_turn_cost(
    n: int = 3,
    f: int = 1,
    costs: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0),
    x_max: float = 200.0,
) -> List[Tuple[float, float]]:
    """Measured ratio of ``A(n, f)`` as the per-turn cost sweeps.

    Returns ``(cost, measured_ratio)`` pairs.
    """
    if not costs:
        raise InvalidParameterError("costs must be non-empty")
    out: List[Tuple[float, float]] = []
    for cost in costs:
        alg = TurnCostProportionalAlgorithm(n, f, cost=cost)
        out.append((cost, _measure(alg, f, 1.0, x_max)))
    return out


def render_turn_cost(n: int, f: int, rows: List[Tuple[float, float]]) -> str:
    """Text rendering of the turn-cost sweep."""
    base = algorithm_competitive_ratio(n, f)
    headers = ["turn cost c", "CR measured", "CR - CR(0)"]
    body = [[c, v, v - base] for c, v in rows]
    return render_table(
        headers, body, precision=4,
        title=(
            f"Turn-cost sweep for A({n},{f}) — the ratio grows linearly "
            "in c (worst case pinned at |x| = 1)"
        ),
    )


# ----------------------------------------------------------------------
# bounded distance
# ----------------------------------------------------------------------

def run_bounded(
    n: int = 3,
    f: int = 1,
    radii: Sequence[float] = (2.0, 5.0, 20.0, 100.0),
) -> List[Tuple[float, float]]:
    """Measured ratio of the truncated schedule for each radius ``D``."""
    if not radii:
        raise InvalidParameterError("radii must be non-empty")
    out: List[Tuple[float, float]] = []
    for radius in radii:
        alg = BoundedDistanceAlgorithm(n, f, radius=radius)
        out.append((radius, _measure(alg, f, 1.0, radius)))
    return out


def render_bounded(n: int, f: int, rows: List[Tuple[float, float]]) -> str:
    """Text rendering of the bounded-distance study."""
    base = algorithm_competitive_ratio(n, f)
    headers = ["radius D", "CR measured", "unbounded Theorem 1"]
    body = [[d, v, base] for d, v in rows]
    return render_table(
        headers, body, precision=4,
        title=(
            f"Known-distance-bound study for A({n},{f}) — naive "
            "truncation does not improve the ratio (negative result)"
        ),
    )


# ----------------------------------------------------------------------
# evacuation (group arrival, reference [14])
# ----------------------------------------------------------------------

def run_evacuation(
    targets: Sequence[float] = (2.0, 5.0, 20.0, -3.0, -12.0),
) -> List[Tuple[str, float, float, float, float]]:
    """Detection vs evacuation ratios across algorithms and targets.

    Returns rows ``(algorithm, target, detection_ratio,
    evacuation_ratio, assembly_overhead)``.
    """
    from repro.baselines.group_doubling import GroupDoubling
    from repro.baselines.two_group import TwoGroupAlgorithm
    from repro.extensions.evacuation import evacuation_time
    from repro.robots.faults import AdversarialFaults
    from repro.schedule.algorithm import ProportionalAlgorithm

    if not targets:
        raise InvalidParameterError("targets must be non-empty")
    configurations = [
        (ProportionalAlgorithm(3, 1), AdversarialFaults(1)),
        (GroupDoubling(3, 1), AdversarialFaults(1)),
        (TwoGroupAlgorithm(4, 1), AdversarialFaults(1)),
    ]
    rows: List[Tuple[str, float, float, float, float]] = []
    for algorithm, model in configurations:
        fleet = Fleet.from_algorithm(algorithm)
        for x in targets:
            outcome = evacuation_time(fleet, x, model)
            rows.append(
                (
                    algorithm.name,
                    x,
                    outcome.detection_time / abs(x),
                    outcome.evacuation_ratio,
                    outcome.assembly_overhead,
                )
            )
    return rows


def render_evacuation(
    rows: List[Tuple[str, float, float, float, float]]
) -> str:
    """Text rendering of the evacuation study."""
    headers = [
        "algorithm", "target", "detection ratio", "evacuation ratio",
        "assembly overhead",
    ]
    return render_table(
        headers, [list(r) for r in rows], precision=4,
        title=(
            "Evacuation (last-arrival) study — the [14] group-search "
            "objective under faults"
        ),
    )


# ----------------------------------------------------------------------
# multi speed
# ----------------------------------------------------------------------

def run_multi_speed(
    n: int = 3,
    f: int = 1,
    slow_speeds: Sequence[float] = (1.0, 0.9, 0.75, 0.5),
    slow_index: int = 1,
    x_max: float = 100.0,
) -> List[Tuple[float, float, Optional[float]]]:
    """One slow robot: measured ratio vs the ``CR / s`` prediction.

    Returns ``(speed, measured, predicted)`` tuples; ``predicted`` is
    ``CR(n,f) / s``, the law observed when the slow robot is pivotal.
    """
    if not slow_speeds:
        raise InvalidParameterError("slow_speeds must be non-empty")
    if not 0 <= slow_index < n:
        raise InvalidParameterError(
            f"slow_index must be in 0..{n - 1}, got {slow_index}"
        )
    base = algorithm_competitive_ratio(n, f)
    out: List[Tuple[float, float, Optional[float]]] = []
    for s in slow_speeds:
        speeds = [1.0] * n
        speeds[slow_index] = s
        alg = MultiSpeedProportionalAlgorithm(n, f, speeds=speeds)
        out.append((s, _measure(alg, f, 1.0, x_max), base / s))
    return out


def render_multi_speed(
    n: int, f: int, rows: List[Tuple[float, float, Optional[float]]]
) -> str:
    """Text rendering of the multi-speed study."""
    headers = ["slow robot speed s", "CR measured", "CR(n,f) / s"]
    return render_table(
        headers, [list(r) for r in rows], precision=4,
        title=(
            f"Heterogeneous speeds for A({n},{f}) — one slow robot "
            "inflates the ratio to CR / s while it stays pivotal"
        ),
    )

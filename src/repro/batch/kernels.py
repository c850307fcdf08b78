"""Dependency-free array kernels over compiled segment arrays.

The pure-Python kernels here are the one implementation of batch
visit-time evaluation, shared by :class:`~repro.batch.evaluate.BatchEvaluator`
and the campaign route of :mod:`repro.robustness.plan`.

The first-visit kernel exploits the geometry of a continuous path: the
set of positions swept by any prefix of the path is a contiguous
interval around the start.  Walking the segments in time order, each
segment can only assign first-visit times to the targets in the strip it
*newly* covers — the targets between the old envelope edge and the
segment's endpoint.  With the targets sorted once, the strip's far end
is one bisect and its times are one slice assignment, so each target is
written exactly once: ``O(S log T + T)`` work for ``S`` segments and
``T`` targets instead of the naive ``O(S * T)``.  A segment that covers
no new target costs one comparison.

The kernels reproduce the event path's tolerance rules exactly:

* a target within the engine's start tolerance
  (``|x - start| <= START_RTOL * (1 + |x|)``, the first check of
  :meth:`repro.trajectory.base.Trajectory.first_visit_time`) is visited
  at the start instant;
* a segment covers a target up to :data:`SEG_EPS` beyond its endpoint
  (:meth:`repro.geometry.segment.MotionSegment.covers_position`), and
  the crossing fraction is clamped into the segment — so a target
  sitting one float rounding beyond a turning point is visited at the
  turn, exactly as the engine reports it.

The crossing time inside a segment is always computed as

    ``frac = (x - x0) / (x1 - x0)``, clamped to at most ``1``, then
    ``t0 + frac * (t1 - t0)``

— division first, in this exact operand order — which is the same
expression (and the same rounding) as
:meth:`repro.geometry.segment.MotionSegment.visit_time`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Set

from repro.errors import InvalidParameterError

__all__ = [
    "SEG_EPS",
    "START_RTOL",
    "first_visit_row",
    "kth_smallest_per_column",
    "min_excluding_rows",
]

#: Absolute positional slack of one segment, matching
#: ``repro.geometry.segment._EPS`` (``covers_position``).
SEG_EPS = 1e-12

#: Relative start tolerance, matching ``repro.trajectory.base._EPS``
#: (the start check of ``Trajectory.first_visit_time``).
START_RTOL = 1e-9


def _minus_eps(x: float) -> float:
    return x - SEG_EPS


def _plus_eps(x: float) -> float:
    return x + SEG_EPS


def _strip(
    xs: Sequence[float], x0: float, x1: float, t0: float, t1: float
) -> List[float]:
    """Crossing times of ``xs`` on the leg ``(x0, t0) -> (x1, t1)``: the
    clamped, division-first expression of the module docstring."""
    dx = x1 - x0
    dt = t1 - t0
    return [
        t0 + (1.0 if frac > 1.0 else frac) * dt
        for x in xs
        for frac in [(x - x0) / dx]
    ]


def first_visit_row(compiled, xs_sorted: Sequence[float]) -> List[float]:
    """First-visit time of each target for one compiled trajectory.

    Args:
        compiled: A :class:`~repro.batch.compile.CompiledTrajectory`.
        xs_sorted: Target positions in ascending order.

    Returns:
        Times aligned with ``xs_sorted``; ``math.inf`` for targets the
        compiled prefix never reaches.  A target exactly equal to the
        start position gets the start time.

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import DoublingTrajectory
        >>> c = compile_trajectory(DoublingTrajectory(), -4.0, 4.0)
        >>> first_visit_row(c, [-1.0, 0.0, 1.0, 2.0])
        [3.0, 0.0, 1.0, 8.0]
    """
    n = len(xs_sorted)
    times = [math.inf] * n
    s = compiled.start_position
    # Engine start rule: targets within the relative start tolerance are
    # visited at the start instant.  The predicate is monotone away from
    # the start, so the matching targets are one contiguous run.
    anchor = bisect_left(xs_sorted, s)
    lo_idx = anchor
    while lo_idx > 0 and abs(xs_sorted[lo_idx - 1] - s) <= START_RTOL * (
        1.0 + abs(xs_sorted[lo_idx - 1])
    ):
        lo_idx -= 1
    hi_idx = anchor
    while hi_idx < n and abs(xs_sorted[hi_idx] - s) <= START_RTOL * (
        1.0 + abs(xs_sorted[hi_idx])
    ):
        hi_idx += 1
    for i in range(lo_idx, hi_idx):
        times[i] = compiled.start_time
    next_up = hi_idx          # first unassigned target above the start
    next_dn = lo_idx - 1      # last unassigned target below the start
    env_lo = env_hi = s
    x0s, t0s, x1s, t1s = compiled.x0, compiled.t0, compiled.x1, compiled.t1
    for j in range(len(x0s)):
        x1 = x1s[j]
        if x1 > env_hi:
            env_hi = x1
            # Float subtraction of a constant is monotone, so the strip
            # ends exactly where the per-target test ``x - SEG_EPS <= x1``
            # first fails.
            if next_up < n and xs_sorted[next_up] - SEG_EPS <= x1:
                end = bisect_right(
                    xs_sorted, x1, next_up + 1, n, key=_minus_eps
                )
                times[next_up:end] = _strip(
                    xs_sorted[next_up:end], x0s[j], x1, t0s[j], t1s[j]
                )
                next_up = end
        elif x1 < env_lo:
            env_lo = x1
            if next_dn >= 0 and xs_sorted[next_dn] + SEG_EPS >= x1:
                start = bisect_left(xs_sorted, x1, 0, next_dn, key=_plus_eps)
                times[start:next_dn + 1] = _strip(
                    xs_sorted[start:next_dn + 1], x0s[j], x1, t0s[j], t1s[j]
                )
                next_dn = start - 1
        if next_up >= n and next_dn < 0:
            break
    return times


def kth_smallest_per_column(
    rows: Sequence[Sequence[float]], k: int
) -> List[float]:
    """The ``k``-th smallest value down each column of a row-major matrix.

    With rows = per-robot first-visit times, column ``j``'s result is the
    ``k``-th distinct-robot visit time of target ``j`` — ``k = f + 1``
    gives the paper's ``T_{f+1}``.  ``inf`` entries (never-visits) sort
    last, so a column with fewer than ``k`` finite entries yields ``inf``
    exactly as :func:`repro.trajectory.visits.kth_distinct_visit_time`
    does.

    Examples:
        >>> kth_smallest_per_column([[1.0, 5.0], [3.0, 2.0]], 2)
        [3.0, 5.0]
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not rows:
        raise InvalidParameterError("need at least one row")
    if k > len(rows):
        return [math.inf] * len(rows[0])
    index = k - 1
    return [sorted(column)[index] for column in zip(*rows)]


def min_excluding_rows(
    rows: Sequence[Sequence[float]], excluded: Set[int]
) -> List[float]:
    """Column-wise minimum over the rows *not* in ``excluded``.

    With rows = per-robot first-visit times and ``excluded`` = an
    explicit crash-detection fault set, this is the detection time of
    each target: the earliest visit by a reliable robot (``inf`` when no
    reliable robot ever arrives).

    Examples:
        >>> min_excluding_rows([[1.0, 4.0], [2.0, 3.0]], {0})
        [2.0, 3.0]
    """
    if not rows:
        raise InvalidParameterError("need at least one row")
    unknown = {i for i in excluded if i < 0 or i >= len(rows)}
    if unknown:
        raise InvalidParameterError(
            f"excluded row indices out of range: {sorted(unknown)}"
        )
    width = len(rows[0])
    out = [math.inf] * width
    for i, row in enumerate(rows):
        if i in excluded:
            continue
        for j in range(width):
            t = row[j]
            if t < out[j]:
                out[j] = t
    return out

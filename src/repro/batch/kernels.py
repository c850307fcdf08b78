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

The walk is split in two: :func:`visit_pieces` returns each robot's
runs of targets that share one leg, and :func:`first_visit_row` fills
them.  A strip is cut at its leg's end ``x1``, so the clamped tail
within :data:`SEG_EPS` past a turn is its own constant piece.

The rank kernel :func:`kth_visit_times` reads ``T_{f+1}`` without
filling every robot's row.  Between two consecutive piece boundaries
of the whole fleet (a *range*), each robot is on one leg, constant, or
never arrives, so in exact arithmetic the difference of two robots'
times is affine and its minimum over the range lies at one of its ends
(Lemma 3: the order of the robots can change only at turning points).
A computed crossing time is within a few ulps of its exact value
(times are never negative — :class:`~repro.geometry.point.SpaceTimePoint`
refuses them — so no crossing cancels), so when the ``k``-th robot at both ends has the same ``k - 1`` robots
below it and a gap of at least :data:`RANK_RTOL` ``* (1 + t)`` to every
other robot, no rounding can reorder them inside the range: that one
robot's leg fills the range.  Robots on the same leg compute the same
floats, so they tie exactly and count as one.  Any other range is
ranked column by column with :func:`kth_smallest_per_column`.  On the
Table 1 fleets over 2000 targets in ``[1, 1000]`` that is 2 to 37 ranges
per fleet, none of which falls back.  The cost is ``n`` piece passes of
``O(S log T)``, ``O(n log n)`` per range and one filled row, instead of
``n`` filled rows and ``T`` sorted columns of ``n``: ``search_times``
over those 9 fleets took 6.5 ms per round instead of 18.9 ms (best of
15, one process, 2-core x86 VM).

The ratio kernel :func:`ratio_supremum` reads ``sup K`` for
``K(x) = T_k(x) / |x|`` without probing.  Between two consecutive
:func:`breakpoints` (turning points and the edges of each start run)
every robot is on one leg, so ``K`` is the ``k``-th smallest of functions affine in
``1 / |x|`` and its supremum there is a limit at an end of the
interval or a crossing of two legs (:func:`ratio_candidates`).  The
legs come from :func:`visit_pieces` at the interval midpoints and are
evaluated with :func:`_at`, so every candidate is a float the engine
computes on that leg.  On the proportional Table 1 fleets that is 15
to 62 candidates per fleet, within 1.3e-15 of Theorem 1.

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
:meth:`repro.geometry.segment.MotionSegment.visit_time`.  Rounding is
monotone, so ``frac <= 1`` exactly for every target up to ``x1``, and
the clamped tail past it is the constant ``t0 + 1.0 * (t1 - t0)``,
which can differ from ``t1`` by an ulp.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InvalidParameterError

__all__ = [
    "SEG_EPS",
    "START_RTOL",
    "RANK_RTOL",
    "breakpoints",
    "first_visit_row",
    "kth_smallest_per_column",
    "kth_visit_times",
    "min_excluding_rows",
    "ratio_candidates",
    "ratio_supremum",
    "visit_pieces",
]

#: Absolute positional slack of one segment, matching
#: ``repro.geometry.segment._EPS`` (``covers_position``).
SEG_EPS = 1e-12

#: Relative start tolerance, matching ``repro.trajectory.base._EPS``
#: (the start check of ``Trajectory.first_visit_time``).
START_RTOL = 1e-9

#: Relative gap that proves the ``k``-th robot of a range keeps its rank
#: (:func:`kth_visit_times`): far above the few-ulp error of a computed
#: crossing time, far below any real gap between two robots.
RANK_RTOL = 1e-12


def _minus_eps(x: float) -> float:
    return x - SEG_EPS


def _plus_eps(x: float) -> float:
    return x + SEG_EPS


#: One leg of a piece: a constant time (``float``; ``inf`` where a robot
#: never arrives), or the affine crossing ``(x0, dx, t0, dt)`` of a leg
#: ``(x0, t0) -> (x0 + dx, t0 + dt)``.
Leg = Union[float, Tuple[float, float, float, float]]

#: ``(lo, hi, leg)``: the sorted targets ``[lo, hi)`` all lie on ``leg``.
Piece = Tuple[int, int, Leg]

#: ``(x, t, side)``: ``K = t / |x|`` read at ``x`` itself (``"at"``), or
#: as the limit where ``|x|`` falls to ``|p|`` from outside, just past a
#: turn (``"right"``), or rises to it from inside (``"left"``).
RatioCandidate = Tuple[float, float, str]


def _strip(xs: Sequence[float], leg: Leg) -> List[float]:
    """Times of ``xs`` on one leg: the constant, or the division-first
    crossing expression of the module docstring.  An affine piece never
    reaches past its leg's end, so its fraction never needs the clamp."""
    if leg.__class__ is not tuple:
        return [leg] * len(xs)
    x0, dx, t0, dt = leg
    return [t0 + (x - x0) / dx * dt for x in xs]


def _at(x: float, leg: Leg) -> float:
    """:func:`_strip` at one target."""
    if leg.__class__ is not tuple:
        return leg
    x0, dx, t0, dt = leg
    return t0 + (x - x0) / dx * dt


def visit_pieces(compiled, xs_sorted: Sequence[float]) -> List[Piece]:
    """First-visit pieces of one compiled trajectory over sorted targets.

    Args:
        compiled: A :class:`~repro.batch.compile.CompiledTrajectory`.
        xs_sorted: Target positions in ascending order.

    Returns:
        ``(lo, hi, leg)`` runs in ascending ``lo``: the targets
        ``xs_sorted[lo:hi]`` are first visited on ``leg`` — a constant
        time (the start run, or the clamped tail within ``SEG_EPS``
        past a turn) or an affine crossing ``(x0, dx, t0, dt)``.  A
        target in no run is never reached.

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import DoublingTrajectory
        >>> c = compile_trajectory(DoublingTrajectory(), -4.0, 4.0)
        >>> for piece in visit_pieces(c, [-1.0, 0.0, 1.0, 2.0]):
        ...     print(piece)
        (0, 1, (1.0, -3.0, 1.0, 3.0))
        (1, 2, 0.0)
        (2, 3, (0.0, 1.0, 0.0, 1.0))
        (3, 4, (-2.0, 6.0, 4.0, 6.0))
    """
    n = len(xs_sorted)
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
    up: List[Piece] = []
    down: List[Piece] = []        # descending lo
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
            # first fails; past ``x1`` the fraction clamps to 1.
            if next_up < n and xs_sorted[next_up] - SEG_EPS <= x1:
                end = bisect_right(
                    xs_sorted, x1, next_up + 1, n, key=_minus_eps
                )
                cut = bisect_right(xs_sorted, x1, next_up, end)
                x0, t0 = x0s[j], t0s[j]
                dt = t1s[j] - t0
                if cut > next_up:
                    up.append((next_up, cut, (x0, x1 - x0, t0, dt)))
                if end > cut:
                    up.append((cut, end, t0 + 1.0 * dt))
                next_up = end
        elif x1 < env_lo:
            env_lo = x1
            if next_dn >= 0 and xs_sorted[next_dn] + SEG_EPS >= x1:
                start = bisect_left(xs_sorted, x1, 0, next_dn, key=_plus_eps)
                cut = bisect_left(xs_sorted, x1, start, next_dn + 1)
                x0, t0 = x0s[j], t0s[j]
                dt = t1s[j] - t0
                if next_dn + 1 > cut:
                    down.append((cut, next_dn + 1, (x0, x1 - x0, t0, dt)))
                if cut > start:
                    down.append((start, cut, t0 + 1.0 * dt))
                next_dn = start - 1
        if next_up >= n and next_dn < 0:
            break
    down.reverse()
    if hi_idx > lo_idx:
        down.append((lo_idx, hi_idx, compiled.start_time))
    return down + up


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
    times = [math.inf] * len(xs_sorted)
    for lo, hi, leg in visit_pieces(compiled, xs_sorted):
        times[lo:hi] = _strip(xs_sorted[lo:hi], leg)
    return times


def _ranked_leg(
    legs: List[Leg], left: List[float], right: List[float], k: int
) -> Optional[Leg]:
    """The leg that is ``k``-th smallest at every target of a range, given
    every robot's time at its first (``left``) and last (``right``)
    target; ``None`` when the two ends cannot prove it.

    The ``k``-th robot — with every robot on the same leg, whose times
    are the same floats — must be at least ``RANK_RTOL * (1 + t)`` from
    every other robot at both ends, and each other robot on the same
    side of it at both ends.  The ``k``-th time must be positive, so a
    signed zero never decides a tie.
    """
    t_left = sorted(left)[k - 1]
    if t_left == math.inf:
        return t_left               # fewer than k robots reach the range
    margin = RANK_RTOL * (1.0 + abs(t_left))
    leg = None
    for i, t in enumerate(left):
        if abs(t - t_left) <= margin:
            if leg is None:
                leg, t_right = legs[i], right[i]
            elif legs[i] != leg:
                return None
    if not (t_left > 0.0 and t_right > 0.0):
        return None
    below = t_right - RANK_RTOL * (1.0 + t_right)
    above = t_right + RANK_RTOL * (1.0 + t_right)
    for a, b in zip(left, right):
        if a < t_left and b > below or a > t_left and b < above:
            return None
    return leg


def kth_visit_times(
    compiled: Sequence, xs_sorted: Sequence[float], k: int
) -> List[float]:
    """The ``k``-th smallest first-visit time of each sorted target.

    Equals ``kth_smallest_per_column([first_visit_row(c, xs_sorted) for
    c in compiled], k)`` bit for bit, without filling every robot's row:
    over each range of targets where every robot stays on one piece,
    one robot's leg is proved ``k``-th at both ends and fills the range
    (:func:`_ranked_leg`); any other range is ranked column by column.

    Args:
        compiled: One :class:`~repro.batch.compile.CompiledTrajectory`
            per robot.
        xs_sorted: Target positions in ascending order.
        k: Rank, ``>= 1``; ``k = f + 1`` gives the paper's ``T_{f+1}``.

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import LinearTrajectory
        >>> fleet = [compile_trajectory(LinearTrajectory(d), -4.0, 4.0)
        ...          for d in (1, 1, -1)]
        >>> kth_visit_times(fleet, [-2.0, 1.0, 3.0], 2)
        [inf, 1.0, 3.0]
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not compiled:
        raise InvalidParameterError("need at least one row")
    width = len(xs_sorted)
    if k > len(compiled):
        return [math.inf] * width
    # Each robot's leg changes only at its piece boundaries: a piece's
    # end sets it to inf, and a piece starting there sets it again.
    changes: Dict[int, List[Tuple[int, Leg]]] = {0: [], width: []}
    for i, c in enumerate(compiled):
        for lo, hi, leg in visit_pieces(c, xs_sorted):
            changes.setdefault(lo, []).append((i, leg))
            changes.setdefault(hi, []).append((i, math.inf))
    legs: List[Leg] = [math.inf] * len(compiled)
    bounds = sorted(changes)
    out: List[float] = []
    for a, b in zip(bounds, bounds[1:]):
        for i, leg in changes[a]:
            legs[i] = leg
        xs = xs_sorted[a:b]
        left = [_at(xs[0], g) for g in legs]
        right = [_at(xs[-1], g) for g in legs]
        leg = _ranked_leg(legs, left, right, k)
        if leg is not None:
            out += _strip(xs, leg)
        else:
            out += kth_smallest_per_column([_strip(xs, g) for g in legs], k)
    return out


def _start_run_edges(s: float) -> Tuple[float, float]:
    """The nearest floats below and above ``s`` that the start rule of
    :func:`visit_pieces` does not read as the start.

    The run ``|x - s| <= START_RTOL * (1 + |x|)`` is one interval of
    floats around ``s`` (the rule is monotone away from it) and lies
    inside ``s ± 2 * START_RTOL * (1 + |s|)``; each edge is bisected
    between ``s`` and that bound, a few dozen predicate calls.
    """
    width = 2.0 * START_RTOL * (1.0 + abs(s))
    edges = []
    for out in (s - width, s + width):
        out = min(max(out, -sys.float_info.max), sys.float_info.max)
        inn = s
        while True:
            mid = 0.5 * inn + 0.5 * out
            if mid == inn or mid == out:
                mid = math.nextafter(inn, out)
                if mid == out:
                    break
            if abs(mid - s) <= START_RTOL * (1.0 + abs(mid)):
                inn = mid
            else:
                out = mid
        edges.append(out)
    return edges[0], edges[1]


def breakpoints(compiled: Sequence, lo: float, hi: float) -> Set[float]:
    """Every ``p`` with ``lo <= |p| < hi`` where some robot's first-visit
    leg can change: the first float on either side of its start run
    (:func:`_start_run_edges`), and the end of each leg that widens the
    interval it has swept (its turning points).

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import DoublingTrajectory
        >>> c = compile_trajectory(DoublingTrajectory(), -8.0, 8.0)
        >>> sorted(breakpoints([c], 1.0, 8.0))
        [-2.0, 1.0, 4.0]
    """
    points: Set[float] = set()
    for c in compiled:
        s = c.start_position
        if abs(s) + 2.0 * START_RTOL * (1.0 + abs(s)) >= lo:
            points.update(_start_run_edges(s))
        env_lo = env_hi = s
        for x1 in c.x1:
            if x1 > env_hi:
                env_hi = x1
            elif x1 < env_lo:
                env_lo = x1
            else:
                continue
            points.add(x1)
            if env_hi >= hi and env_lo <= -hi:
                break
    return {p for p in points if lo <= abs(p) < hi}


def _kth_at(x: float, legs: Sequence[Leg], k: int) -> float:
    """The ``k``-th smallest of ``legs`` evaluated at ``x``."""
    return sorted([_at(x, g) for g in legs])[k - 1]


def _steepest(compiled: Sequence) -> float:
    """The largest ``|dt / dx|`` of any moving leg: no first-visit time
    grows faster with ``|x|`` (``1 / v`` of the slowest leg)."""
    return max(
        [
            abs((t1 - t0) / (x1 - x0))
            for c in compiled
            for x0, t0, x1, t1 in zip(c.x0, c.t0, c.x1, c.t1)
            if x1 != x0
        ],
        default=0.0,
    )


def _crossings(legs: Sequence[Leg], lo: float, hi: float) -> List[float]:
    """Where two affine legs of different slopes cross strictly inside
    ``(lo, hi)``."""
    lines = {
        (dt / dx, t0 - x0 * (dt / dx))
        for x0, dx, t0, dt in (g for g in legs if g.__class__ is tuple)
    }
    out = []
    for s1, c1 in lines:
        for s2, c2 in lines:
            if s1 > s2:
                x = (c2 - c1) / (s1 - s2)
                if lo < x < hi:
                    out.append(x)
    return out


def ratio_candidates(
    compiled: Sequence, k: int, min_distance: float, x_max: float
) -> List[RatioCandidate]:
    """Every point where ``sup K`` over ``min_distance <= |x| <= x_max``
    can sit, with ``K(x) = T_k(x) / |x|``.

    The breakpoints of each sign are ``±min_distance`` and every
    position in the window where some robot's first-visit leg changes
    (:func:`breakpoints`: the edges of its start run and each leg end
    that widens its swept interval).  Between two consecutive breakpoints every robot
    is first on one leg, read off :func:`visit_pieces` at the
    interval's midpoint, so ``T_i = a_i + b_i |x|`` and
    ``K_i = b_i + a_i / |x|`` is affine in ``1 / |x|``.  The ``k``-th
    smallest of affine functions is piecewise affine, so its supremum
    on the interval is a limit at one of its ends or a value where two
    robots' lines cross.

    No time grows faster than ``S |x|``, ``S`` the steepest leg's
    ``|dt / dx|`` (:func:`_steepest`), so ``K <= (t + S d) / (|p| + d)``
    at distance ``d`` past the inner end ``p``.  When the limit there,
    ``t / |p|``, is at least ``S`` that bound never exceeds it and the
    interval needs nothing more: always for unit-speed fleets, whose
    ``K`` is at least 1 and decreases between turns (Lemma 3).  Any
    other interval adds the crossings of every two legs of different
    slopes inside it and the limit at its outer end.

    Returns:
        ``(x, t, side)`` per candidate (:data:`RatioCandidate`): the
        value at ``+min_distance`` and at ``-min_distance``; then per
        interval, inner to outer, positive side first, the limit at the
        inner end (``"right"``) and, where the bound above does not
        settle the interval, the crossings (``"at"``) and the limit at
        the outer end (``"left"``).  Every time is a :func:`_at` value,
        the float the engine computes on that leg.

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import DoublingTrajectory
        >>> c = compile_trajectory(DoublingTrajectory(), -8.0, 8.0)
        >>> for candidate in ratio_candidates([c], 1, 1.0, 4.0):
        ...     print(candidate)
        (1.0, 1.0, 'at')
        (-1.0, 3.0, 'at')
        (1.0, 7.0, 'right')
        (-1.0, 3.0, 'right')
        (-2.0, 16.0, 'right')
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not compiled:
        raise InvalidParameterError("need at least one robot")
    if not 0.0 < min_distance < x_max:
        raise InvalidParameterError(
            f"need 0 < min_distance < x_max, got {min_distance!r} and "
            f"{x_max!r}"
        )
    if k > len(compiled):
        return [(min_distance, math.inf, "at")]
    ends = breakpoints(compiled, min_distance, x_max)
    sides = []
    for sign in (1.0, -1.0):
        bounds = (
            [sign * min_distance]
            + sorted((p for p in ends if sign * p > min_distance), key=abs)
            + [sign * x_max]
        )
        intervals = []
        for a, b in zip(bounds, bounds[1:]):
            mid = 0.5 * a + 0.5 * b
            if mid != a and mid != b:
                intervals.append((a, b, mid))
        sides.append(intervals)
    positive, negative = sides
    xs = (
        [mid for _, _, mid in reversed(negative)]
        + [-min_distance, min_distance]
        + [mid for _, _, mid in positive]
    )
    rows = []
    for c in compiled:
        row: List[Leg] = [math.inf] * len(xs)
        for lo, hi, leg in visit_pieces(c, xs):
            row[lo:hi] = [leg] * (hi - lo)
        rows.append(row)
    columns = list(zip(*rows))
    at_origin = len(negative)   # the column of -min_distance
    out: List[RatioCandidate] = [
        (min_distance, _kth_at(min_distance, columns[at_origin + 1], k), "at"),
        (-min_distance, _kth_at(-min_distance, columns[at_origin], k), "at"),
    ]
    steepest = _steepest(compiled)
    for intervals, first, step in (
        (positive, at_origin + 2, 1), (negative, at_origin - 1, -1)
    ):
        for j, (a, b, _) in enumerate(intervals):
            legs = columns[first + step * j]
            t = _kth_at(a, legs, k)
            out.append((a, t, "right"))
            if t >= steepest * abs(a):
                continue
            lo, hi = (a, b) if a < b else (b, a)
            for x in sorted(_crossings(legs, lo, hi), key=abs):
                out.append((x, _kth_at(x, legs, k), "at"))
            out.append((b, _kth_at(b, legs, k), "left"))
    return out


def _ratio(candidate: RatioCandidate) -> float:
    return candidate[1] / abs(candidate[0])


def ratio_supremum(
    compiled: Sequence, k: int, min_distance: float, x_max: float
) -> Tuple[RatioCandidate, int]:
    """``sup K`` over ``min_distance <= |x| <= x_max``, exactly.

    Returns:
        The :func:`ratio_candidates` entry with the largest
        ``t / |x|`` (the first of tied maxima), and the number of
        candidates compared.

    Examples:
        >>> from repro.batch.compile import compile_trajectory
        >>> from repro.trajectory import DoublingTrajectory
        >>> c = compile_trajectory(DoublingTrajectory(), -300.0, 300.0)
        >>> (x, t, side), _ = ratio_supremum([c], 1, 1.0, 200.0)
        >>> x, t / abs(x), side
        (-128.0, 8.984375, 'right')
    """
    candidates = ratio_candidates(compiled, k, min_distance, x_max)
    return max(candidates, key=_ratio), len(candidates)


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

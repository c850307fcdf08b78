"""A process-wide cache of compiled fleets, keyed on fleet structure.

A crash-fault campaign realizes the same fleet for every target and
fault spec of a pair, yet each scenario builds fresh trajectories, and
a ratio sweep or estimate builds its own evaluator per call.  Both batch
front ends — the campaign route of :mod:`repro.robustness.plan` and
:class:`~repro.batch.evaluate.BatchEvaluator` — therefore read
per-robot first-visit times from a
:class:`~repro.batch.compile.CompiledFleet` shared by every caller whose
fleet has the same *structure*.

The key is taken from the fleet, never from a spec: the exact
trajectory type plus the constructor arguments that fully determine its
vertices.  Only two types have one —

* :class:`~repro.trajectory.cone_zigzag.ConeZigZag`: the cone, the
  anchor and the inner radius;
* :class:`~repro.trajectory.linear.LinearTrajectory`: the direction,
  the speed and the start time.

Any other trajectory (or a subclass, which may override its vertices)
has no key, and its fleet is not shared: a ``BatchEvaluator`` keeps it
in a private :class:`CompiledFleetCache`.

Entries are immutable plain data, so concurrent campaigns (the
service's worker threads) share them safely; a miss compiles the
caller's own fresh trajectories, never a shared lazy one.  Windows are
symmetric and grow geometrically, so a campaign whose ``|x|`` keeps
growing recompiles each fleet O(log) times.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Hashable, Optional, Sequence, Tuple

from repro.batch.compile import CompiledFleet, compile_fleet
from repro.observability import instrument as obs
from repro.trajectory.base import Trajectory
from repro.trajectory.cone_zigzag import ConeZigZag
from repro.trajectory.linear import LinearTrajectory

__all__ = ["CACHE_SIZE", "CompiledFleetCache", "FLEET_CACHE", "fleet_key"]

#: Most compiled fleets one cache holds; the least recently used is
#: evicted first.
CACHE_SIZE = 64


def _trajectory_key(trajectory: Trajectory) -> Optional[Hashable]:
    kind = type(trajectory)
    if kind is ConeZigZag:
        return (kind, trajectory.cone, trajectory.anchor,
                trajectory.inner_radius)
    if kind is LinearTrajectory:
        return (kind, trajectory.direction, trajectory.speed,
                trajectory.start_time)
    return None


def fleet_key(trajectories: Sequence[Trajectory]) -> Optional[Tuple]:
    """The structural key of a fleet, or ``None`` when any of its
    trajectories has none.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> from repro.trajectory import DoublingTrajectory
        >>> build = ProportionalAlgorithm(3, 1).build
        >>> fleet_key(build()) == fleet_key(build())
        True
        >>> fleet_key([DoublingTrajectory()]) is None
        True
    """
    keys = tuple(_trajectory_key(t) for t in trajectories)
    return None if None in keys else keys


class CompiledFleetCache:
    """A bounded, thread-safe map from fleet key to compiled fleet.

    Examples:
        >>> from repro.schedule import ProportionalAlgorithm
        >>> cache = CompiledFleetCache()
        >>> fleet = ProportionalAlgorithm(3, 1).build()
        >>> compiled = cache.compiled(fleet_key(fleet), fleet, 5.0)
        >>> compiled.window_lo, compiled.window_hi
        (-5.0, 5.0)
        >>> cache.compiled(fleet_key(fleet), fleet, 3.0) is compiled
        True
        >>> cache.compiled(fleet_key(fleet), fleet, 6.0).window_hi
        10.0
        >>> len(cache)
        1
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, CompiledFleet]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[CompiledFleet]:
        """The fleet keyed ``key`` as compiled so far, or ``None``."""
        with self._lock:
            return self._entries.get(key)

    def compiled(
        self, key: Hashable, trajectories: Sequence[Trajectory], radius: float
    ) -> CompiledFleet:
        """The fleet keyed ``key``, compiled over at least
        ``[-radius, radius]``.

        On a miss, ``trajectories`` (the caller's own instances, of the
        structure ``key`` names) are compiled over the larger of
        ``radius`` and twice the cached window.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None and radius <= cached.window_hi:
                self._entries.move_to_end(key)
                return cached
        if cached is not None:
            radius = min(max(radius, 2.0 * cached.window_hi),
                         sys.float_info.max)
        with obs.span("batch.compile", n=len(trajectories),
                      window_lo=-radius, window_hi=radius) as sp:
            compiled = compile_fleet(trajectories, -radius, radius)
            sp.set(segments=compiled.segment_count)
        obs.count("batch_compiles_total")
        with self._lock:
            current = self._entries.get(key)
            if current is None or current.window_hi < radius:
                self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > CACHE_SIZE:
                self._entries.popitem(last=False)
        return compiled


#: The cache every batch front end reads for keyed fleets.
FLEET_CACHE = CompiledFleetCache()

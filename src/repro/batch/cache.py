"""A process-wide cache of fleets: shared trajectories and their
compiled arrays, under one key.

A campaign realizes the same few fleets for every target and fault spec
of a pair, and a ratio sweep or estimate evaluates the same algorithm
call after call.  One bounded LRU (:data:`FLEET_CACHE`,
:data:`CACHE_SIZE` entries) serves both routes.  An entry holds

* the fleet's **trajectories**, shared by every caller
  (:meth:`CompiledFleetCache.realized`): each problem variant's
  ``realize`` reads them, so an engine run extends one lazy path per
  fleet and process instead of rebuilding the same zig-zag vertices;
* its **compiled arrays** (:meth:`CompiledFleetCache.compiled`), which
  the batch front ends — the campaign route of
  :mod:`repro.robustness.plan` and
  :class:`~repro.batch.evaluate.BatchEvaluator` — read per-robot
  first-visit times from.

There are two kinds of key.

* A **realization key** names the search algorithm a spec picks: its
  constructor and typed arguments
  (:meth:`repro.variants.base.ProblemVariant.algorithm`,
  :func:`shared_trajectories`).  Only a constructor call that
  succeeded is ever cached, so a spec the constructor refuses raises
  the same error on every call.
* A **structural key** (:func:`fleet_key`) comes from a fleet the caller
  built itself: the exact trajectory type plus the constructor
  arguments that fully determine its vertices.  Only two types have
  one —

  * :class:`~repro.trajectory.cone_zigzag.ConeZigZag`: the cone, the
    anchor and the inner radius;
  * :class:`~repro.trajectory.linear.LinearTrajectory`: the direction,
    the speed and the start time.

  Any other trajectory (or a subclass, which may override its vertices)
  has no key, and its fleet is not shared: a ``BatchEvaluator`` keeps
  it in a private :class:`CompiledFleetCache`.

Compiled arrays are immutable plain data.  Shared trajectories are
lazy, but never mutated by their readers: fault behaviours wrap them,
and :meth:`~repro.trajectory.base.Trajectory._pull_vertex` serializes
materialization per trajectory, so the service's worker threads share
both safely.  Windows are symmetric and grow geometrically, so a
campaign whose ``|x|`` keeps growing recompiles each fleet O(log) times.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Sequence, Tuple

from repro.batch.compile import CompiledFleet, compile_fleet
from repro.observability import instrument as obs
from repro.robots.fleet import Fleet
from repro.trajectory.base import Trajectory
from repro.trajectory.cone_zigzag import ConeZigZag
from repro.trajectory.linear import LinearTrajectory

__all__ = [
    "CACHE_SIZE", "CompiledFleetCache", "FLEET_CACHE", "fleet_key",
    "shared_trajectories",
]

#: Most fleets one cache holds; the least recently used is evicted
#: first.
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


class _Entry:
    """One fleet: its shared trajectories and its widest compilation,
    either still ``None``."""

    __slots__ = ("trajectories", "compiled")

    def __init__(self) -> None:
        self.trajectories: Optional[Tuple[Trajectory, ...]] = None
        self.compiled: Optional[CompiledFleet] = None


class CompiledFleetCache:
    """A bounded, thread-safe map from fleet key to shared trajectories
    and compiled fleet.

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
        >>> shared = cache.realized("3,1", ProportionalAlgorithm(3, 1).build)
        >>> cache.realized("3,1", list) is shared
        True
        >>> len(cache)
        2
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self, key: Hashable) -> _Entry:
        """The entry for ``key``, made most recent (created if missing,
        evicting the least recent past :data:`CACHE_SIZE`); the caller
        holds the lock."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
            while len(self._entries) > CACHE_SIZE:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    def get(self, key: Hashable) -> Optional[CompiledFleet]:
        """The fleet keyed ``key`` as compiled so far, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.compiled

    def realized(
        self, key: Hashable, build: Callable[[], Sequence[Trajectory]]
    ) -> Tuple[Trajectory, ...]:
        """The shared trajectories of the fleet keyed ``key``.

        On a miss, ``build()`` makes them; if it raises, nothing is
        cached, so the next call raises again.  When two threads miss
        at once, both build and the first to finish is kept.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.trajectories is not None:
                self._entries.move_to_end(key)
                return entry.trajectories
        trajectories = tuple(build())
        with self._lock:
            entry = self._touch(key)
            if entry.trajectories is None:
                entry.trajectories = trajectories
            return entry.trajectories

    def compiled(
        self, key: Hashable, trajectories: Sequence[Trajectory], radius: float
    ) -> CompiledFleet:
        """The fleet keyed ``key``, compiled over at least
        ``[-radius, radius]``.

        On a miss, ``trajectories`` (of the fleet ``key`` names) are
        compiled over the larger of ``radius`` and twice the cached
        window.
        """
        with self._lock:
            entry = self._entries.get(key)
            cached = None if entry is None else entry.compiled
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
            entry = self._touch(key)
            if entry.compiled is None or entry.compiled.window_hi < radius:
                entry.compiled = compiled
        return compiled


#: The one fleet cache: realized trajectories for every variant's
#: ``realize``, compiled arrays for every batch front end.
FLEET_CACHE = CompiledFleetCache()


def _forget_after_fork() -> None:
    """Give a forked child an empty cache.  Another parent thread may
    have held a lock, or been mid-pull on a shared trajectory, at the
    fork; in the child that thread is gone and would never release it."""
    global FLEET_CACHE
    FLEET_CACHE = CompiledFleetCache()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)


def shared_trajectories(
    constructor: Callable[..., Any], args: Tuple
) -> Tuple[Tuple, Tuple[Trajectory, ...]]:
    """``(key, trajectories)`` of the fleet of ``constructor(*args)``,
    a search algorithm, shared through :data:`FLEET_CACHE`.

    The key is the constructor and each argument with its type, so
    ``3`` and ``3.0`` (which the constructor may refuse) never share an
    entry.  A miss builds through
    :meth:`~repro.robots.fleet.Fleet.from_algorithm`.

    Examples:
        >>> from repro.schedule import algorithm_for
        >>> key, shared = shared_trajectories(algorithm_for, (3, 1))
        >>> shared_trajectories(algorithm_for, (3, 1))[1] is shared
        True
        >>> shared_trajectories(algorithm_for, (4, 1))[1] is shared
        False
    """
    key = (constructor,) + tuple((type(a), a) for a in args)
    return key, FLEET_CACHE.realized(
        key, lambda: Fleet.from_algorithm(constructor(*args)).trajectories
    )

"""Scenario-fingerprint result cache: bounded segmented LRU with
hit/miss counters.

The cache key is :func:`~repro.robustness.campaign.scenario_key` — the
same deterministic digest the campaign journal uses — so anything ever
journaled can be served again without recomputation.  That identity is
what makes the cache *correct*: a scenario spec fully determines its
outcome (seeds included), so equal keys imply equal results.  The
property tests in ``tests/robustness/test_scenario_key_property.py``
pin that contract; drift there would mean wrong answers served.

The cache is strictly bounded (``max_entries``) and thread-safe; it
never grows with traffic.  It is a *segmented* LRU, so a scan of
one-off results cannot flush the results that are read again: a new
result enters a probation segment, a hit moves it to a protected
segment of at most :data:`PROTECTED_SHARE` of the capacity (pushing
that segment's least recent entry back to probation), and eviction
takes probation's least recent entry first.  On server restart it is
*warmed* from the campaign journals in the state directory, which is
how a resumed campaign's already-computed scenarios are served as
cache hits rather than recomputed.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional

from repro.errors import InvalidParameterError
from repro.observability import instrument as obs
from repro.robustness.campaign import ScenarioResult

__all__ = ["ResultCache"]

#: Share of ``max_entries`` that results hit at least once may hold.
PROTECTED_SHARE = 0.8


class ResultCache:
    """Bounded, thread-safe segmented LRU of ``scenario_key`` → result.

    Only successful results are cached — a failure may be transient
    (a flaky stochastic draw, a watchdog kill under load) and must not
    be served as the scenario's answer forever.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec, ScenarioResult
        >>> cache = ResultCache(max_entries=2)
        >>> spec = ScenarioSpec(3, 1, 2.0, "none", 7)
        >>> cache.put("k1", ScenarioResult(spec=spec, ok=True))
        >>> cache.get("k1") is not None
        True
        >>> cache.get("missing") is None
        True
        >>> cache.stats()["hits"], cache.stats()["misses"]
        (1, 1)
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise InvalidParameterError(
                "cache max_entries must be >= 1 "
                "(disable the cache at the service layer instead)"
            )
        self.max_entries = max_entries
        self._protected_cap = int(PROTECTED_SHARE * max_entries)
        # least recent first in each segment
        self._probation: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        self._protected: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[ScenarioResult]:
        """The cached result for ``key``, or ``None`` (counted as a miss)."""
        with self._lock:
            result = self._protected.get(key)
            if result is not None:
                self._protected.move_to_end(key)
            else:
                result = self._probation.get(key)
                if result is None:
                    self._misses += 1
                    obs.count("service_cache_misses_total")
                    return None
                self._promote(key)
            self._hits += 1
            obs.count("service_cache_hits_total")
            return result

    def _promote(self, key: str) -> None:
        """Move a probation entry that was just hit to the protected
        segment, demoting its least recent entry when it is full; with
        no protected room it is just made most recent; the caller holds
        the lock."""
        if not self._protected_cap:
            self._probation.move_to_end(key)
            return
        self._protected[key] = self._probation.pop(key)
        if len(self._protected) > self._protected_cap:
            demoted, result = self._protected.popitem(last=False)
            self._probation[demoted] = result

    def put(self, key: str, result: ScenarioResult) -> None:
        """Insert ``key`` → ``result``, evicting at capacity: the least
        recent probation entry first, a protected one only when
        probation is empty.  A key already cached keeps its segment.

        Failed results are ignored (see class docstring).
        """
        if not result.ok:
            return
        with self._lock:
            segment = (
                self._protected if key in self._protected else self._probation
            )
            segment[key] = result
            segment.move_to_end(key)
            while self._size() > self.max_entries:
                (self._probation or self._protected).popitem(last=False)
                self._evictions += 1
            obs.gauge_set("service_cache_size", self._size())

    def _size(self) -> int:
        return len(self._probation) + len(self._protected)

    def __len__(self) -> int:
        with self._lock:
            return self._size()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._protected or key in self._probation

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters and occupancy, for readiness output."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": self._size(),
                "capacity": self.max_entries,
            }

    # -- warm-up -------------------------------------------------------

    def warm_from_journal(self, path: str) -> int:
        """Load every successful outcome of one campaign journal.

        Tolerates missing or unreadable journals (returns 0) — warming
        is best-effort; a cold cache only costs recomputation.
        """
        from repro.errors import JournalError
        from repro.robustness.journal import CampaignJournal

        if not os.path.exists(path):
            return 0
        try:
            journal = CampaignJournal.load(path)
        except (JournalError, OSError):
            return 0
        loaded = 0
        for entry in journal.entries:
            try:
                result = ScenarioResult.from_dict(entry["result"])
            except (KeyError, TypeError, ValueError):
                continue
            if result.ok:
                self.put(str(entry.get("key")), result)
                loaded += 1
        return loaded

    def warm_from_journals(self, paths: Iterable[str]) -> int:
        """Warm from many journals; returns total results loaded."""
        return sum(self.warm_from_journal(path) for path in paths)

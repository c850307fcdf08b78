"""Tests for the bounded scenario-fingerprint result cache."""

import pytest

from repro.errors import InvalidParameterError
from repro.robustness import (
    CampaignExecutor,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    scenario_key,
)
from repro.service.cache import ResultCache


def _result(seed, ok=True):
    spec = ScenarioSpec(3, 1, 2.0, "none", seed)
    return ScenarioResult(spec=spec, ok=ok)


class TestBounds:
    def test_capacity_validated(self):
        with pytest.raises(InvalidParameterError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_lru_eviction_never_exceeds_capacity(self):
        cache = ResultCache(max_entries=3)
        for seed in range(10):
            cache.put(f"k{seed}", _result(seed))
            assert len(cache) <= 3
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 7
        # the three most recent survive
        assert "k9" in cache and "k7" in cache
        assert "k0" not in cache

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _result(1))
        cache.put("b", _result(2))
        cache.get("a")  # now 'b' is least recent
        cache.put("c", _result(3))
        assert "a" in cache and "b" not in cache


class TestCounters:
    def test_hit_and_miss_counters(self):
        cache = ResultCache()
        cache.put("k", _result(1))
        assert cache.get("k") is not None
        assert cache.get("k") is not None
        assert cache.get("absent") is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (2, 1)


class TestPolicy:
    def test_failed_results_never_cached(self):
        cache = ResultCache()
        cache.put("bad", _result(1, ok=False))
        assert len(cache) == 0
        assert cache.get("bad") is None


class TestJournalWarmup:
    def test_warm_from_journal_serves_journaled_results(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = [ScenarioSpec(3, 1, float(t), "none", t) for t in (1, 2, 3)]
        scenarios = [build_scenario(s) for s in specs]
        report = CampaignExecutor(
            journal_path=journal, handle_sigterm=False
        ).execute(scenarios)

        cache = ResultCache()
        loaded = cache.warm_from_journal(journal)
        assert loaded == 3
        for spec, expected in zip(specs, report.results):
            hit = cache.get(scenario_key(spec))
            assert hit is not None
            assert hit.to_dict() == expected.to_dict()

    def test_missing_or_garbage_journal_is_harmless(self, tmp_path):
        cache = ResultCache()
        assert cache.warm_from_journal(str(tmp_path / "absent")) == 0
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        assert cache.warm_from_journal(str(garbage)) == 0
        assert len(cache) == 0


class TestScanResistance:
    def test_hit_entries_survive_a_scan_of_fresh_results(self):
        cache = ResultCache(max_entries=256)
        for seed in range(64):
            cache.put(f"read{seed}", _result(seed))
        for seed in range(64):
            assert cache.get(f"read{seed}") is not None
        for seed in range(2 * cache.max_entries):
            cache.put(f"scan{seed}", _result(seed))
            assert len(cache) <= cache.max_entries
        for seed in range(64):
            assert cache.get(f"read{seed}") is not None, seed
        assert cache.stats()["entries"] == cache.max_entries

    def test_protected_segment_is_capped(self):
        cache = ResultCache(max_entries=10)
        for seed in range(10):
            cache.put(f"k{seed}", _result(seed))
            cache.get(f"k{seed}")
        # every entry was hit, but only 8 fit the protected segment:
        # the two least recent went back to probation and go first
        cache.put("new", _result(99))
        assert "k0" not in cache and "k1" in cache and "new" in cache

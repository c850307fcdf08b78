"""Seeded parity harness tests: FSYNC event engine == continuous engine."""

import json

from repro.parity import ASYNC_PAIRS as DEFAULT_PAIRS
from repro.parity import DEFAULT_FAULT_KINDS, run_async_parity


class TestHarness:
    def test_small_grid_is_bit_exact(self):
        report = run_async_parity(
            pairs=[(3, 1), (4, 2)], targets_per_pair=4, seed=9
        )
        assert report.passed
        assert report.mismatches() == []
        assert report.total == 2 * 4 * len(DEFAULT_FAULT_KINDS)
        assert all(case.agree for case in report.cases)

    def test_exact_equality_not_closeness(self):
        # The contract is ==, including the hex bit pattern.
        report = run_async_parity(
            pairs=[(3, 1)], targets_per_pair=3, seed=2016
        )
        for case in report.cases:
            if case.oracle_time is not None:
                assert (
                    case.oracle_time.hex() == case.candidate_time.hex()
                ), case

    def test_default_regimes(self):
        assert DEFAULT_PAIRS == ((2, 1), (3, 2), (3, 1), (5, 2), (4, 2), (7, 3))

    def test_report_serialization(self):
        report = run_async_parity(
            pairs=[(3, 1)], targets_per_pair=2,
            fault_kinds=("none", "adversarial"), seed=4,
        )
        payload = json.loads(report.to_json())
        assert payload["format"] == "linesearch-async-parity-report"
        assert payload["passed"] is True
        assert payload["total"] == 4
        assert "describe" not in payload  # data, not prose

    def test_describe_mentions_regimes(self):
        report = run_async_parity(
            pairs=[(3, 1), (5, 2)], targets_per_pair=2,
            fault_kinds=("none",), seed=4,
        )
        text = report.describe()
        assert "2 regimes" in text
        assert "bit-exact" in text

    def test_seed_changes_targets_not_verdict(self):
        a = run_async_parity(
            pairs=[(3, 1)], targets_per_pair=3,
            fault_kinds=("none",), seed=1,
        )
        b = run_async_parity(
            pairs=[(3, 1)], targets_per_pair=3,
            fault_kinds=("none",), seed=2,
        )
        assert a.passed and b.passed
        assert [c.target for c in a.cases] != [c.target for c in b.cases]

"""The acceptance-bar parity run: batch vs engine on the seeded grid."""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.parity import BATCH_PAIRS as DEFAULT_PAIRS
from repro.parity import run_parity_harness


class TestDefaultGrid:
    def test_default_grid_meets_acceptance_bar(self):
        # >= 1000 (target, fault-set) points across >= 5 regimes,
        # including n = f + 1 and n = 2f + 1.
        report = run_parity_harness()
        assert report.passed, report.describe()
        assert report.total >= 1000
        assert len(report.regimes) >= 5
        assert any(n == f + 1 for n, f in report.regimes)
        assert any(n == 2 * f + 1 for n, f in report.regimes)
        assert set(report.regimes) == set(DEFAULT_PAIRS)

    def test_seed_reproducibility(self):
        small = dict(
            pairs=[(3, 1)], targets_per_pair=4, fault_sets_per_target=3,
        )
        a = run_parity_harness(seed=7, **small)
        b = run_parity_harness(seed=7, **small)
        assert [c.target for c in a.cases] == [c.target for c in b.cases]
        assert [c.fault for c in a.cases] == [
            c.fault for c in b.cases
        ]


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_parity_harness(
            pairs=[(2, 1), (4, 2)],
            targets_per_pair=5,
            fault_sets_per_target=3,
        )

    def test_shape(self, report):
        assert report.total == 2 * 5 * 3
        assert report.regimes == [(2, 1), (4, 2)]
        assert report.mismatches() == []

    def test_describe(self, report):
        text = report.describe()
        assert "30/30" in text
        assert "pure" in text

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["format"] == "linesearch-parity-report"
        assert payload["passed"] is True
        assert payload["total"] == report.total
        assert len(payload["cases"]) == report.total
        # inf engine/batch times must be JSON-safe strings
        for case in payload["cases"]:
            for key in ("engine_time", "batch_time"):
                assert isinstance(case[key], (float, str))
            # the kernels name no detecting robot, so neither side does
            assert case["engine_robot"] is None
            assert case["batch_robot"] is None

    def test_case_describe(self, report):
        line = report.cases[0].describe()
        assert "A(2,1)" in line
        assert line.startswith("ok")


class TestValidation:
    def test_degenerate_grid_rejected(self):
        with pytest.raises(InvalidParameterError, match=">= 1"):
            run_parity_harness(targets_per_pair=0)
        with pytest.raises(InvalidParameterError, match="x_max"):
            run_parity_harness(x_max=0.5)

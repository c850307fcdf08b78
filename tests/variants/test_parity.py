"""Line-variant dispatch must reproduce the continuous engine bit-exactly."""

import json
import math

import pytest

from repro.errors import InvalidParameterError
from repro.parity import VARIANT_PAIRS as DEFAULT_PAIRS
from repro.parity import DEFAULT_FAULT_KINDS
from repro.parity import ParityCase as VariantParityCase
from repro.parity import run_variant_parity


class TestHarness:
    def test_small_run_is_bit_exact(self):
        report = run_variant_parity(
            pairs=[(3, 1), (5, 2)],
            targets_per_pair=3,
            fault_kinds=("none", "adversarial", "probabilistic:0.7"),
            seed=7,
        )
        assert report.passed
        assert report.mismatches() == []
        assert report.total == 2 * 3 * 3
        assert report.regimes == [(3, 1), (5, 2)]

    def test_seeded_targets_are_reproducible(self):
        a = run_variant_parity(pairs=[(3, 1)], targets_per_pair=4, seed=99)
        b = run_variant_parity(pairs=[(3, 1)], targets_per_pair=4, seed=99)
        assert [c.target for c in a.cases] == [c.target for c in b.cases]
        assert [c.oracle_time for c in a.cases] == [
            c.oracle_time for c in b.cases
        ]

    def test_every_default_fault_kind_covered(self):
        report = run_variant_parity(pairs=[(3, 1)], targets_per_pair=1)
        faults = {case.fault for case in report.cases}
        assert faults == set(DEFAULT_FAULT_KINDS)

    def test_default_pairs_span_regimes(self):
        # proportional (f < n < 2f+2) and trivial (n >= 2f+2) both present
        assert any(n < 2 * f + 2 for n, f in DEFAULT_PAIRS)
        assert any(n >= 2 * f + 2 for n, f in DEFAULT_PAIRS)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            run_variant_parity(targets_per_pair=0)
        with pytest.raises(InvalidParameterError):
            run_variant_parity(x_max=1.0)


class TestCase:
    def test_exact_equality_required(self):
        agree = VariantParityCase(
            3, 1, 2.0, "none", 5.0, 5.0, 1, 1
        )
        assert agree.agree
        off_by_ulp = VariantParityCase(
            3, 1, 2.0, "none", 5.0, math.nextafter(5.0, 6.0), 1, 1
        )
        assert not off_by_ulp.agree
        wrong_robot = VariantParityCase(
            3, 1, 2.0, "none", 5.0, 5.0, 1, 2
        )
        assert not wrong_robot.agree

    def test_infinite_outcomes_may_match(self):
        both_inf = VariantParityCase(
            3, 1, 2.0, "fixed", math.inf, math.inf, None, None
        )
        assert both_inf.agree
        one_inf = VariantParityCase(
            3, 1, 2.0, "fixed", math.inf, 5.0, None, 1
        )
        assert not one_inf.agree


class TestReport:
    def test_serialization_roundtrip(self):
        report = run_variant_parity(
            pairs=[(3, 1)], targets_per_pair=2,
            fault_kinds=("none", "fixed"), seed=3,
        )
        data = json.loads(report.to_json())
        assert data["format"] == "linesearch-variant-parity-report"
        assert data["passed"] is True
        assert data["total"] == report.total
        assert len(data["cases"]) == report.total

    def test_describe_summarizes(self):
        report = run_variant_parity(
            pairs=[(3, 1)], targets_per_pair=2,
            fault_kinds=("none",), seed=3,
        )
        text = report.describe()
        assert "2/2" in text

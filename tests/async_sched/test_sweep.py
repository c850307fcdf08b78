"""Tests for the CR-degradation sweep."""

import json
import math

import pytest

from repro.async_sched import run_degradation_sweep
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.schedule import algorithm_for
from repro.simulation import target_sweep


class TestSweep:
    def test_zero_delay_matches_continuous_baseline(self):
        report = run_degradation_sweep(
            3, 1, delays=(0.0,), scheduler="adversarial", points=8
        )
        point = report.points[0]
        assert point.supremum_ratio == pytest.approx(
            report.baseline_supremum
        )

    def test_adversarial_monotone_in_delay(self):
        report = run_degradation_sweep(
            3, 1, delays=(0.0, 0.5, 1.0, 2.0), scheduler="adversarial",
            points=8,
        )
        sups = [p.supremum_ratio for p in report.points]
        assert sups == sorted(sups)
        assert sups[-1] > sups[0]

    def test_async_kind_degrades(self):
        report = run_degradation_sweep(
            3, 1, delays=(0.0, 2.0), scheduler="async", points=8, seed=3
        )
        assert (
            report.points[1].mean_ratio > report.points[0].mean_ratio
        )

    def test_fsync_ignores_the_knob(self):
        report = run_degradation_sweep(
            3, 1, delays=(0.0, 5.0), scheduler="fsync", points=8
        )
        assert report.points[0].supremum_ratio == pytest.approx(
            report.points[1].supremum_ratio
        )

    def test_speeds_inflate_ratios(self):
        unit = run_degradation_sweep(
            3, 1, delays=(0.0,), scheduler="fsync", points=8
        )
        slow = run_degradation_sweep(
            3, 1, delays=(0.0,), scheduler="fsync", points=8,
            speeds=[0.5, 0.5, 0.5],
        )
        assert slow.speeds == (0.5, 0.5, 0.5)
        # uniform slowdown: every ratio scales by exactly 1/s
        assert slow.baseline_supremum == pytest.approx(
            2.0 * unit.baseline_supremum
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_degradation_sweep(3, 1, scheduler="bogus")
        with pytest.raises(InvalidParameterError):
            run_degradation_sweep(3, 1, delays=())
        with pytest.raises(InvalidParameterError):
            run_degradation_sweep(3, 1, delays=(-1.0,))
        with pytest.raises(InvalidParameterError):
            run_degradation_sweep(3, 1, delays=(math.inf,))
        with pytest.raises(InvalidParameterError):
            run_degradation_sweep(3, 1, points=3)


class TestReport:
    def test_serialization_round_trip(self):
        report = run_degradation_sweep(
            3, 1, delays=(0.0, 1.0), points=6, seed=5
        )
        payload = json.loads(report.to_json())
        assert payload["n"] == 3
        assert payload["scheduler"] == "adversarial"
        assert len(payload["points"]) == 2
        assert "speeds" not in payload  # omitted at unit speed
        assert payload["points"][0]["max_delay"] == 0.0

    def test_describe_is_a_table(self):
        report = run_degradation_sweep(3, 1, delays=(0.0, 1.0), points=6)
        text = report.describe()
        assert "CR degradation: A(3,1)" in text
        assert "max_delay" in text
        assert "overhead" in text

    def test_counters(self):
        from repro.observability import instrument as obs

        telemetry = obs.enable()
        try:
            run_degradation_sweep(3, 1, delays=(0.0,), points=4)
        finally:
            obs.disable()
        counted = telemetry.metrics.counter(
            "async_sweep_points_total"
        ).value()
        assert counted == 4.0


SHIFT_PAIRS = [(n, f) for n in range(2, 8) for f in range(1, min(n, 5))]
SHIFT_TARGETS = [
    sign * 1.37 ** k for k in range(13) for sign in (1.0, -1.0)
]


@pytest.mark.parametrize(
    "delay, quantum", [(1.0, 0.5), (1.0, 0.3), (2.0, 0.125), (0.7, 0.1)]
)
def test_adversarial_scheduler_is_a_constant_shift(delay, quantum):
    """A robot's first visit lies in its first delayed window, so every
    detection time is the synchronous one plus ``max_delay``, as floats."""
    mode = f"event:adversarial:{delay}:{quantum}"
    for n, f in SHIFT_PAIRS:
        fleet = Fleet.from_algorithm(algorithm_for(n, f))
        sync = target_sweep(fleet, f, SHIFT_TARGETS)
        shifted = target_sweep(fleet, f, SHIFT_TARGETS, scheduler=mode)
        assert [s.x for s in shifted.samples] == SHIFT_TARGETS
        assert [s.detection_time for s in shifted.samples] == [
            s.detection_time + delay for s in sync.samples
        ], (n, f)

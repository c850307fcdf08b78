"""Unit tests for result containers."""

import math

import pytest

from repro.errors import InvalidParameterError
from repro.simulation.metrics import (
    CompetitiveRatioEstimate,
    RatioProfile,
    RatioSample,
    SearchOutcome,
)


class TestSearchOutcome:
    def test_ratio(self):
        o = SearchOutcome(2.0, 5.0, 0, frozenset())
        assert o.competitive_ratio == pytest.approx(2.5)
        assert o.detected

    def test_undetected(self):
        o = SearchOutcome(2.0, math.inf, None, frozenset({0}))
        assert not o.detected
        assert "NEVER" in o.describe()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SearchOutcome(0.0, 1.0, 0, frozenset())
        with pytest.raises(InvalidParameterError):
            SearchOutcome(1.0, -1.0, 0, frozenset())


class TestRatioSample:
    def test_ratio(self):
        s = RatioSample(x=-2.0, detection_time=8.0)
        assert s.ratio == pytest.approx(4.0)


class TestRatioProfile:
    def test_supremum(self):
        profile = RatioProfile(
            [RatioSample(1.0, 3.0), RatioSample(2.0, 10.0), RatioSample(4.0, 8.0)]
        )
        assert profile.supremum.x == 2.0
        assert profile.ratios() == pytest.approx([3.0, 5.0, 2.0])

    def test_empty_supremum_rejected(self):
        with pytest.raises(InvalidParameterError):
            RatioProfile([]).supremum
        with pytest.raises(InvalidParameterError):
            RatioProfile.from_columns([], []).supremum

    def test_columns_agree_with_samples(self):
        # -2.0 and 4.0 tie at the maximum ratio, 3.0
        xs = [1.0, -2.0, 0.5, 4.0, -0.25]
        times = [2.0, 6.0, 1.25, 12.0, 0.5]
        columnar = RatioProfile.from_columns(xs, times)
        built = RatioProfile([RatioSample(x, t) for x, t in zip(xs, times)])
        assert len(columnar) == len(built) == 5
        assert columnar.samples == built.samples
        assert [r.hex() for r in columnar.ratios()] == [
            r.hex() for r in built.ratios()
        ]
        assert columnar.supremum == built.supremum == RatioSample(-2.0, 6.0)
        assert columnar == built
        assert repr(columnar) == repr(built)
        assert columnar != RatioProfile.from_columns(xs, times[:-1] + [0.75])

    def test_supremum_is_the_first_of_tied_maxima(self):
        profile = RatioProfile.from_columns(
            [1.0, 2.0, -1.0, 4.0], [3.0, 6.0, math.inf, math.inf]
        )
        assert profile.supremum == RatioSample(-1.0, math.inf)
        samples = profile.samples
        assert profile.supremum == max(samples, key=lambda s: s.ratio)

    def test_samples_built_once(self):
        profile = RatioProfile.from_columns([1.0], [2.0])
        assert profile.samples is profile.samples

    def test_column_lengths_must_match(self):
        with pytest.raises(InvalidParameterError, match="column lengths"):
            RatioProfile.from_columns([1.0, 2.0], [1.0])


class TestEstimate:
    def test_matches_tolerance(self):
        est = CompetitiveRatioEstimate(
            value=9.0000001,
            witness=RatioSample(1.0, 9.0000001),
            samples_evaluated=10,
            x_max=100.0,
        )
        assert est.matches(9.0)
        assert not est.matches(8.5)

    def test_describe(self):
        est = CompetitiveRatioEstimate(
            value=5.0,
            witness=RatioSample(2.0, 10.0),
            samples_evaluated=42,
            x_max=100.0,
        )
        text = est.describe()
        assert "5" in text and "42" in text

"""Tests for the variability metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import (
    coefficient_of_variation,
    mean,
    range_of_variability,
    sample_stddev,
    summarize,
)

FLOATS = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stddev_known_value(self):
        # Sample sd of [2, 4, 4, 4, 5, 5, 7, 9] is ~2.138.
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert abs(sample_stddev(values) - 2.1381) < 1e-3

    def test_stddev_single_value_zero(self):
        assert sample_stddev([5.0]) == 0.0

    def test_cov_definition(self):
        # Paper 3.3: CoV = 100 x sd / mean.
        values = [90.0, 100.0, 110.0]
        expected = 100.0 * sample_stddev(values) / 100.0
        assert coefficient_of_variation(values) == pytest.approx(expected)

    def test_range_definition(self):
        # Paper 4.2: (max - min) as a percentage of the mean.
        assert range_of_variability([90.0, 100.0, 110.0]) == pytest.approx(20.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])
        with pytest.raises(ValueError):
            range_of_variability([-1.0, 1.0])


class TestSummary:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.n == 3
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_renders(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "CoV" in text and "range" in text

    def test_one_run_shows_no_variability_figures(self):
        """'CoV=0.00%' from a single run is the fallacy the paper is
        about: one run has no spread to report, not a spread of zero."""
        summary = summarize([16670.0])
        assert str(summary) == "n=1 mean=1.667e+04 sd=n/a CoV=n/a range=n/a"
        assert summary.stddev == 0.0 and summary.coefficient_of_variation == 0.0
        assert str(summarize([5.0, 5.0])).endswith("sd=0 CoV=0.00% range=0.00%")


class TestProperties:
    @given(st.lists(FLOATS, min_size=2, max_size=50))
    def test_cov_nonnegative(self, values):
        assert coefficient_of_variation(values) >= 0.0

    @given(st.lists(FLOATS, min_size=2, max_size=50))
    def test_range_at_least_spread_over_mean(self, values):
        # range >= 0 and zero iff all equal.
        rov = range_of_variability(values)
        if max(values) == min(values):
            assert rov == 0.0
        else:
            assert rov > 0.0

    @given(st.lists(FLOATS, min_size=2, max_size=50), st.floats(min_value=0.5, max_value=10.0))
    def test_cov_scale_invariant(self, values, factor):
        scaled = [v * factor for v in values]
        assert coefficient_of_variation(scaled) == pytest.approx(
            coefficient_of_variation(values), rel=1e-6
        )

    @given(st.lists(FLOATS, min_size=2, max_size=50))
    def test_mean_within_extremes(self, values):
        m = mean(values)
        tolerance = 1e-9 * max(values)
        assert min(values) - tolerance <= m <= max(values) + tolerance

    @given(st.lists(FLOATS, min_size=2, max_size=30))
    def test_stddev_matches_numpy(self, values):
        import numpy as np

        assert sample_stddev(values) == pytest.approx(
            float(np.std(values, ddof=1)), rel=1e-9, abs=1e-9
        )

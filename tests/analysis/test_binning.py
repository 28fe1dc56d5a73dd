"""Tests for utilization binning (the Figure 6-15 x-axis transform)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import bin_by_utilization, utilization_bins


class TestUtilizationBins:
    def test_rounding(self):
        bins = utilization_bins(np.array([54.4, 54.5, 54.6]))
        assert list(bins) == [54, 54, 55]  # banker's rounding on .5

    def test_clipping(self):
        bins = utilization_bins(np.array([-3.0, 105.0]))
        assert list(bins) == [0, 100]


class TestBinByUtilization:
    def test_averages_within_bin(self):
        util = np.array([50.2, 49.8, 50.1, 80.0])
        values = np.array([1.0, 2.0, 3.0, 10.0])
        series = bin_by_utilization(util, values)
        assert series.value_at(50) == pytest.approx(2.0)
        assert series.value_at(80) == pytest.approx(10.0)
        assert series.count[list(series.utilization).index(50)] == 3

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            bin_by_utilization(np.array([1.0]), np.array([1.0, 2.0]))

    def test_restricted_range(self):
        util = np.array([10.0, 50.0, 95.0])
        values = np.array([1.0, 2.0, 3.0])
        series = bin_by_utilization(util, values).restricted(30, 99)
        assert list(series.utilization) == [50.0, 95.0]

    def test_value_at_nearest(self):
        series = bin_by_utilization(np.array([50.0]), np.array([7.0]))
        assert series.value_at(48.0) == 7.0  # nearest bin wins

    def test_value_at_empty_is_nan(self):
        series = bin_by_utilization(np.array([50.0]), np.array([1.0])).restricted(
            60, 70
        )
        assert np.isnan(series.value_at(65))


@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(-50, 50)),
        min_size=1,
        max_size=80,
    )
)
def test_binned_mean_bounded_by_value_range(pairs):
    util = np.array([u for u, _ in pairs])
    values = np.array([v for _, v in pairs])
    series = bin_by_utilization(util, values)
    assert np.all(series.value >= values.min() - 1e-9)
    assert np.all(series.value <= values.max() + 1e-9)
    # Count-weighted mean of bins equals the global mean.
    weighted = (series.value * series.count).sum() / series.count.sum()
    assert weighted == pytest.approx(values.mean(), abs=1e-6)

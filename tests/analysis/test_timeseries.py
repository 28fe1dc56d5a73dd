"""Tests for per-interval aggregation helpers."""

import numpy as np
import pytest

from repro.analysis import count_per_interval, interval_index, sum_per_interval
from repro.frames import Trace

from ..conftest import data


class TestIntervalIndex:
    def test_basic(self):
        idx = interval_index(np.array([0, 999_999, 1_000_000]), 0, 1_000_000)
        assert list(idx) == [0, 0, 1]

    def test_offset_start(self):
        idx = interval_index(np.array([5_000_000]), 2_000_000, 1_000_000)
        assert idx[0] == 3

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            interval_index(np.array([0]), 0, 0)


class TestCounts:
    def test_count_per_interval(self):
        trace = Trace.from_rows(
            [data(0, 10, 1), data(100, 10, 1), data(2_000_001, 10, 1)]
        )
        counts = count_per_interval(trace)
        assert list(counts) == [2, 0, 1]

    def test_explicit_window(self):
        trace = Trace.from_rows([data(500_000, 10, 1)])
        counts = count_per_interval(trace, start_us=0, n_intervals=3)
        assert list(counts) == [1, 0, 0]

    def test_frames_before_start_ignored(self):
        trace = Trace.from_rows([data(0, 10, 1), data(3_000_000, 10, 1)])
        counts = count_per_interval(trace, start_us=2_000_000, n_intervals=2)
        assert list(counts) == [0, 1]

    def test_empty(self):
        assert list(count_per_interval(Trace.empty(), n_intervals=2)) == [0, 0]


class TestSumsAndMeans:
    def test_sum_per_interval(self):
        trace = Trace.from_rows([data(0, 10, 1), data(100, 10, 1)])
        sums = sum_per_interval(trace, np.array([1.5, 2.5]))
        assert sums[0] == pytest.approx(4.0)

    def test_values_must_be_parallel(self):
        trace = Trace.from_rows([data(0, 10, 1)])
        with pytest.raises(ValueError):
            sum_per_interval(trace, np.array([1.0, 2.0]))

"""Tests for multi-sniffer capture fusion."""

import numpy as np
import pytest

from repro.core.merge import coverage_gain, merge_captures
from repro.frames import FrameRow, FrameType, Trace

from ..conftest import ack, data


def _capture(rows, snr=20.0):
    adjusted = [
        FrameRow(
            time_us=r.time_us, ftype=r.ftype, rate_mbps=r.rate_mbps,
            size=r.size, src=r.src, dst=r.dst, retry=r.retry,
            channel=r.channel, seq=r.seq, snr_db=snr,
        )
        for r in rows
    ]
    return Trace.from_rows(adjusted)


class TestMergeCaptures:
    def test_identical_captures_collapse(self):
        rows = [data(0, 10, 1, seq=5), ack(1500, 1, 10)]
        a = _capture(rows, snr=20.0)
        b = _capture(rows, snr=25.0)
        merged = merge_captures([a, b])
        assert len(merged) == 2
        # The stronger-SNR record wins.
        assert merged.snr_db[0] == pytest.approx(25.0)

    def test_disjoint_captures_union(self):
        a = _capture([data(0, 10, 1, seq=1)])
        b = _capture([data(5000, 11, 1, seq=2)])
        merged = merge_captures([a, b])
        assert len(merged) == 2
        assert merged.is_time_sorted()

    def test_partial_overlap(self):
        shared = data(0, 10, 1, seq=1)
        a = _capture([shared, data(5000, 10, 1, seq=2)])
        b = _capture([shared, data(9000, 10, 1, seq=3)])
        merged = merge_captures([a, b])
        assert len(merged) == 3

    def test_same_instant_different_channels_kept(self):
        a = _capture([data(0, 10, 1, seq=1, channel=1)])
        b = _capture([data(0, 10, 1, seq=1, channel=6)])
        assert len(merge_captures([a, b])) == 2

    def test_distinct_frames_with_colliding_linear_keys_kept(self):
        """dst * 257 + seq * 17 reads the same for (dst 1, seq 300) and
        (dst 18, seq 43); grouping on the columns keeps both frames."""
        a = _capture([data(1_000, 5, 1, seq=300, channel=6)])
        b = _capture([data(1_000, 5, 18, seq=43, channel=6)])
        merged = merge_captures([a, b])
        assert len(merged) == 2
        assert sorted(merged.dst.tolist()) == [1, 18]

    def test_dedupe_disabled(self):
        rows = [data(0, 10, 1, seq=5)]
        merged = merge_captures([_capture(rows), _capture(rows)], dedupe=False)
        assert len(merged) == 2

    def test_empty_inputs(self):
        assert len(merge_captures([])) == 0
        assert len(merge_captures([Trace.empty(), Trace.empty()])) == 0


class TestCoverageGain:
    def test_gain_from_complementary_sniffers(self):
        """Two sniffers each missing different frames: fusion recovers
        more than either alone (the paper's §4.4 recommendation)."""
        shared = [data(i * 1000, 10, 1, seq=i) for i in range(10)]
        a = _capture(shared[:7])         # missed the tail
        b = _capture(shared[3:])         # missed the head
        gain = coverage_gain([a, b])
        assert gain.fused_frames == 10
        assert gain.best_single == 7
        assert gain.gain_over_best == pytest.approx(10 / 7)

    def test_gain_nan_for_empty(self):
        gain = coverage_gain([Trace.empty()])
        assert np.isnan(gain.gain_over_best)

    def test_fused_never_below_best_single(self, small_scenario):
        # Split the real capture into two overlapping halves by parity.
        trace = small_scenario.trace
        idx = np.arange(len(trace))
        a = trace.take(idx[idx % 3 != 0])
        b = trace.take(idx[idx % 3 != 1])
        gain = coverage_gain([a, b])
        assert gain.fused_frames >= gain.best_single
        assert gain.fused_frames == len(trace)

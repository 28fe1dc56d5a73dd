"""The pipeline's hard contract: run_all == analyze_trace, number for number.

Every consumer must reproduce its wrapped ``repro.core`` analysis
exactly, for any chunk size — including chunk boundaries that split
DATA-ACK pairs, retry chains and one-second intervals.
"""

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.frames import Trace
from repro.pipeline import run_all, trace_chunks

from ..conftest import ack, beacon, cts, data, rts


def assert_binned_equal(a, b, label=""):
    assert np.array_equal(a.utilization, b.utilization), label
    assert np.allclose(a.value, b.value, equal_nan=True), label
    assert np.array_equal(a.count, b.count), label


def assert_reports_equal(a, b):
    """Field-by-field comparison of two CongestionReports."""
    assert a.summary == b.summary
    assert a.utilization.start_us == b.utilization.start_us
    assert np.allclose(a.utilization.percent, b.utilization.percent)
    assert a.thresholds == b.thresholds
    assert a.level_occupancy == b.level_occupancy
    assert_binned_equal(
        a.throughput.throughput_mbps, b.throughput.throughput_mbps, "throughput"
    )
    assert_binned_equal(
        a.throughput.goodput_mbps, b.throughput.goodput_mbps, "goodput"
    )
    assert_binned_equal(a.rts_cts.rts, b.rts_cts.rts, "rts")
    assert_binned_equal(a.rts_cts.cts, b.rts_cts.cts, "cts")
    for rate in a.busytime_share.rates:
        assert_binned_equal(
            a.busytime_share[rate], b.busytime_share[rate], f"share {rate}"
        )
        assert_binned_equal(
            a.bytes_per_rate[rate], b.bytes_per_rate[rate], f"bytes {rate}"
        )
        assert_binned_equal(a.reception[rate], b.reception[rate], f"recv {rate}")
    assert a.transmissions.names == b.transmissions.names
    for name in a.transmissions.names:
        assert_binned_equal(
            a.transmissions[name], b.transmissions[name], f"tx {name}"
        )
    assert a.delays.names == b.delays.names
    for name in a.delays.names:
        assert_binned_equal(a.delays[name], b.delays[name], f"delay {name}")
    ua, ub = a.unrecorded, b.unrecorded
    assert ua.captured_frames == ub.captured_frames
    assert ua.missing_data == ub.missing_data
    assert ua.missing_rts == ub.missing_rts
    assert ua.missing_cts == ub.missing_cts
    assert ua.missing_data_by_node == ub.missing_data_by_node
    for attr in ("ap_activity", "unrecorded_per_ap", "user_series"):
        assert (getattr(a, attr) is None) == (getattr(b, attr) is None), attr
    if a.ap_activity is not None:
        assert a.ap_activity.total_frames == b.ap_activity.total_frames
        for col in ("ap", "rank", "frames"):
            assert np.array_equal(
                a.ap_activity.table.column(col), b.ap_activity.table.column(col)
            ), col
    if a.unrecorded_per_ap is not None:
        for col in ("ap", "captured", "missing"):
            assert np.array_equal(
                a.unrecorded_per_ap.column(col), b.unrecorded_per_ap.column(col)
            ), col
        assert np.allclose(
            a.unrecorded_per_ap.column("unrecorded_percent"),
            b.unrecorded_per_ap.column("unrecorded_percent"),
        )
    if a.user_series is not None:
        assert np.array_equal(
            a.user_series.column("interval"), b.user_series.column("interval")
        )
        assert np.array_equal(
            a.user_series.column("users"), b.user_series.column("users")
        )


@pytest.mark.parametrize("chunk_frames", [37, 512, 1_000_000])
def test_run_all_matches_analyze_trace(small_scenario, chunk_frames):
    """Simulated capture: every report field identical, any chunking."""
    trace, roster = small_scenario.trace, small_scenario.roster
    batch = analyze_trace(trace, roster, name="scenario")
    streamed = run_all(
        trace_chunks(trace, chunk_frames), roster, name="scenario"
    )
    assert_reports_equal(batch, streamed)
    assert batch.headline() == streamed.headline()


@pytest.mark.parametrize("chunk_frames", [1, 2, 3, 100])
def test_tiny_exchange_trace(exchange_trace, tiny_roster, chunk_frames):
    """Chunk sizes down to one frame: boundary pairs must still match."""
    batch = analyze_trace(exchange_trace, tiny_roster, name="tiny")
    streamed = run_all(
        trace_chunks(exchange_trace, chunk_frames), tiny_roster, name="tiny"
    )
    assert_reports_equal(batch, streamed)


def test_without_roster(small_scenario):
    """Roster-less runs skip the Fig-4 analyses, like analyze_trace."""
    batch = analyze_trace(small_scenario.trace, name="bare")
    streamed = run_all(trace_chunks(small_scenario.trace, 999), name="bare")
    assert_reports_equal(batch, streamed)
    assert streamed.ap_activity is None
    assert streamed.unrecorded_per_ap is None
    assert streamed.user_series is None


def test_empty_trace():
    batch = analyze_trace(Trace.empty(), name="empty")
    streamed = run_all(Trace.empty(), name="empty")
    assert_reports_equal(batch, streamed)


def test_pre_chunked_segment_stream(small_scenario):
    """An iterable of sorted segments (a live feed) matches the batch run."""
    trace = small_scenario.trace.sorted_by_time()
    segments = list(trace_chunks(trace, chunk_frames=777))
    batch = analyze_trace(trace, name="feed")
    streamed = run_all(iter(segments), name="feed")
    assert_reports_equal(batch, streamed)


def test_unrecorded_rules_across_boundaries(tiny_roster):
    """Lone ACK / lone CTS / skipped CTS land on chunk edges."""
    rows = [
        beacon(0, src=1),
        ack(1_000, src=1, dst=10),          # lone ACK: missing DATA from 10
        rts(5_000, src=11, dst=1),
        data(5_600, src=11, dst=1, seq=3),  # RTS->DATA: missing CTS
        ack(7_000, src=1, dst=11),
        cts(9_000, src=1, dst=11),          # lone CTS: missing RTS
        data(10_000, src=10, dst=1, seq=4),
        ack(11_000, src=1, dst=10),
    ]
    trace = Trace.from_rows(rows)
    batch = analyze_trace(trace, tiny_roster, name="rules")
    for chunk_frames in (1, 2, 3, 5, 8):
        streamed = run_all(
            trace_chunks(trace, chunk_frames), tiny_roster, name="rules"
        )
        assert_reports_equal(batch, streamed)
    assert batch.unrecorded.missing_data == 1
    assert batch.unrecorded.missing_rts == 1
    assert batch.unrecorded.missing_cts == 1

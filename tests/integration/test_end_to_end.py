"""Integration tests: simulate -> capture -> analyze -> (pcap) -> analyze."""

import numpy as np
import pytest

from repro.core import (
    analyze_trace,
    estimate_unrecorded,
    utilization_series,
)
from repro.pcap import read_trace, write_trace


class TestSimulateAnalyze:
    def test_report_invariants(self, small_scenario):
        report = analyze_trace(
            small_scenario.trace, small_scenario.roster, name="e2e"
        )
        # Utilization is physical: non-negative, bounded by oversubscribed 120 %.
        assert np.all(report.utilization.percent >= 0)
        assert report.utilization.percent.max() < 130
        # Goodput <= throughput bin-wise (Fig 6 sanity).
        assert np.all(
            report.throughput.goodput_mbps.value
            <= report.throughput.throughput_mbps.value + 1e-9
        )
        # Per-rate busy-time in any second cannot exceed the second.
        for rate in (1.0, 2.0, 5.5, 11.0):
            assert np.all(report.busytime_share[rate].value <= 1.2)
        # Acceptance delays are positive and below the retry-limit bound.
        delays = report.delays
        for name in delays.names:
            assert np.all(delays[name].value >= 0)
            assert np.all(delays[name].value < 5.0)

    def test_capture_is_subset_of_ground_truth(self, small_scenario):
        assert len(small_scenario.trace) <= len(small_scenario.ground_truth)
        assert small_scenario.capture_ratio > 0.5  # central sniffer hears most

    def test_unrecorded_estimator_detects_losses(self, small_scenario):
        """The §4.4 estimator must report a loss rate in the same decade
        as the true sniffer loss rate."""
        estimate = estimate_unrecorded(small_scenario.trace)
        true_missing = len(small_scenario.ground_truth) - len(small_scenario.trace)
        true_percent = 100.0 * true_missing / len(small_scenario.ground_truth)
        # The estimator only sees DATA/RTS/CTS gaps, so it underestimates,
        # but it must be positive when losses exist and not wildly over.
        if true_percent > 1.0:
            assert estimate.unrecorded_percent > 0
        assert estimate.unrecorded_percent <= max(4 * true_percent, 5.0)

    def test_utilization_of_capture_tracks_ground_truth(self, small_scenario):
        cap = utilization_series(small_scenario.trace)
        truth = utilization_series(
            small_scenario.ground_truth,
            start_us=cap.start_us,
            n_seconds=len(cap),
        )
        # Captured utilization is within sniffer losses of the truth.
        # The miss is biased toward *long* low-SNR frames (obstructed
        # stations are as hard to hear at the sniffer as at the AP), so
        # the CBT ratio runs below the frame-count capture ratio.
        mask = truth.percent > 5.0
        if mask.any():
            ratio = cap.percent[mask] / truth.percent[mask]
            assert np.median(ratio) > 0.45
            assert np.median(ratio) < 1.1


class TestPcapPipeline:
    def test_pcap_round_trip_preserves_report(self, small_scenario, tmp_path):
        """Figure data computed from a pcap file matches the live trace.

        (ACK/CTS transmitter addresses are lost on the air, which the
        §6.4 ACK matcher works around via address *destination* checks,
        so the throughput/utilization/goodput results must be identical.)
        """
        path = tmp_path / "session.pcap"
        write_trace(small_scenario.trace, path)
        loaded = read_trace(path)

        live = analyze_trace(small_scenario.trace, name="live")
        from_file = analyze_trace(loaded, name="pcap")

        assert np.allclose(
            live.utilization.percent, from_file.utilization.percent
        )
        assert np.allclose(
            live.throughput.throughput_mbps.value,
            from_file.throughput.throughput_mbps.value,
        )
        assert np.allclose(
            live.throughput.goodput_mbps.value,
            from_file.throughput.goodput_mbps.value,
        )
        assert live.summary.n_data == from_file.summary.n_data
        assert live.summary.n_ack == from_file.summary.n_ack

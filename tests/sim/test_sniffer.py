"""Tests for the vicinity-sniffer capture model (paper §4.2/§4.4)."""

import numpy as np
import pytest

from repro.frames import FrameType
from repro.sim import (
    Medium,
    Position,
    PropagationModel,
    SimFrame,
    Sniffer,
    SnifferConfig,
    Simulator,
    ground_truth_trace,
)

from .test_medium import RecordingListener, _frame


def _setup(sniffer_config=None, seed=5):
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(shadowing_sigma_db=0.0),
        rng=np.random.default_rng(seed),
    )
    sniffer = Sniffer(
        sim,
        medium,
        node_id=60000,
        position=Position(5, 5),
        channel=1,
        rng=np.random.default_rng(seed + 1),
        config=sniffer_config or SnifferConfig(drop_floor=0.0, drop_per_frame=0.0),
    )
    return sim, medium, sniffer


class TestCapture:
    def test_nearby_frames_captured_with_metadata(self):
        sim, medium, sniffer = _setup()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        frame = _frame(1, 2, size=800, rate=5.5)
        frame.seq = 42
        frame.retry = True
        medium.transmit(tx, frame, 15.0)
        sim.run_until(1_000_000)
        trace = sniffer.to_trace()
        assert len(trace) == 1
        row = trace.row(0)
        assert row.size == 800
        assert row.rate_mbps == 5.5
        assert row.seq == 42
        assert row.retry
        assert row.snr_db > 10
        assert row.channel == 1

    def test_timestamp_is_frame_start(self):
        sim, medium, sniffer = _setup()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        sim.run_until(7_777)
        frame = _frame(1, 2, size=500, rate=11.0)
        medium.transmit(tx, frame, 15.0)
        sim.run_until(1_000_000)
        assert sniffer.to_trace().row(0).time_us == 7_777

    def test_distant_transmitter_hidden(self):
        sim, medium, sniffer = _setup()
        far = RecordingListener(1, Position(4000, 4000))
        medium.attach(far)
        medium.transmit(far, _frame(1, 2), 15.0)
        sim.run_until(1_000_000)
        assert sniffer.frames_captured == 0

    def test_other_channel_ignored(self):
        sim, medium, sniffer = _setup()
        tx = RecordingListener(1, Position(0, 0), channel=6)
        medium.attach(tx)
        medium.transmit(tx, _frame(1, 2, channel=6), 15.0)
        sim.run_until(1_000_000)
        assert sniffer.frames_captured == 0


class TestHardwareDrops:
    def test_high_drop_config_loses_frames(self):
        config = SnifferConfig(drop_floor=1.0, drop_per_frame=0.0, drop_ceiling=1.0)
        sim, medium, sniffer = _setup(sniffer_config=config)
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for i in range(10):
            medium.transmit(tx, _frame(1, 2, size=100), 15.0)
            sim.run_until(sim.now_us + 10_000)
        sim.run_until(10_000_000)
        assert sniffer.frames_captured == 0
        assert sniffer.hardware_drops == 10

    def test_load_dependent_drops(self):
        """Drop rate grows with capture load (Yeo et al. behaviour)."""
        config = SnifferConfig(drop_floor=0.0, drop_per_frame=0.01, drop_ceiling=0.9)
        sim, medium, sniffer = _setup(sniffer_config=config)
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for i in range(300):
            medium.transmit(tx, _frame(1, 2, size=60), 15.0)
            sim.run_until(sim.now_us + 700)
        sim.run_until(10_000_000)
        assert sniffer.hardware_drops > 0
        assert sniffer.frames_captured > 0


class TestGroundTruth:
    def test_ground_truth_trace_complete_and_sorted(self):
        sim, medium, sniffer = _setup()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for i in range(5):
            medium.transmit(tx, _frame(1, 2, size=100 + i), 15.0)
            sim.run_until(sim.now_us + 5_000)
        sim.run_until(1_000_000)
        truth = ground_truth_trace(medium)
        assert len(truth) == 5
        assert truth.is_time_sorted()
        assert list(truth.size) == [100, 101, 102, 103, 104]

    def test_capture_subset_of_ground_truth(self):
        config = SnifferConfig(drop_floor=0.3, drop_per_frame=0.0)
        sim, medium, sniffer = _setup(sniffer_config=config)
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for _ in range(100):
            medium.transmit(tx, _frame(1, 2, size=100), 15.0)
            sim.run_until(sim.now_us + 3_000)
        sim.run_until(10_000_000)
        assert sniffer.frames_captured < len(ground_truth_trace(medium))

    def test_recording_gate_keeps_counters_only(self):
        """record_ground_truth=False: no frame list, counters intact."""
        sim, medium, sniffer = _setup()
        medium.record_ground_truth = False
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for _ in range(4):
            medium.transmit(tx, _frame(1, 2, size=100), 15.0)
            sim.run_until(sim.now_us + 5_000)
        sim.run_until(1_000_000)
        assert medium.ground_truth == []
        assert medium.frames_transmitted == 4
        assert medium.channel_tx_counts == {1: 4}


class TestDrain:
    def _capture_n(self, n, gap_us=5_000):
        sim, medium, sniffer = _setup()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        for i in range(n):
            medium.transmit(tx, _frame(1, 2, size=100 + i), 15.0)
            sim.run_until(sim.now_us + gap_us)
        sim.run_until(1_000_000)
        return sniffer

    def test_drain_all_empties_buffer_keeps_totals(self):
        sniffer = self._capture_n(5)
        full = sniffer.to_trace()
        drained = sniffer.drain_trace()
        assert drained == full
        assert sniffer.frames_buffered == 0
        assert sniffer.frames_captured == 5      # monotone total
        assert len(sniffer.to_trace()) == 0

    def test_partial_drain_splits_at_watermark(self):
        sniffer = self._capture_n(5, gap_us=5_000)
        full = sniffer.to_trace()
        cut = int(full.time_us[2])  # strictly-before semantics
        early = sniffer.drain_trace(before_us=cut)
        assert list(early.time_us) == list(full.time_us[:2])
        assert sniffer.frames_buffered == 3
        late = sniffer.drain_trace()
        assert list(late.time_us) == list(full.time_us[2:])
        # Recombined, nothing lost and metadata intact.
        assert list(early.size) + list(late.size) == list(full.size)

    def test_drain_preserves_all_columns(self):
        sniffer = self._capture_n(4)
        full = sniffer.to_trace()
        part1 = sniffer.drain_trace(before_us=int(full.time_us[2]))
        part2 = sniffer.drain_trace()
        from repro.frames import Trace

        assert Trace.concatenate([part1, part2]) == full

    def test_drain_empty_buffer(self):
        sim, medium, sniffer = _setup()
        assert len(sniffer.drain_trace()) == 0
        assert len(sniffer.drain_trace(before_us=1_000)) == 0

    def test_boundary_timestamp_drained_exactly_once(self):
        """A frame whose timestamp *equals* the watermark is kept by that
        drain and returned by the next one — once, never twice or zero
        times across consecutive drains."""
        sniffer = self._capture_n(3, gap_us=5_000)
        full = sniffer.to_trace()
        boundary = int(full.time_us[1])

        first = sniffer.drain_trace(before_us=boundary)
        # Strictly-exclusive watermark: the boundary row is NOT drained.
        assert list(first.time_us) == list(full.time_us[:1])
        assert boundary not in list(first.time_us)
        assert sniffer.frames_buffered == 2

        # Re-draining at the same watermark drains nothing (no dupes).
        again = sniffer.drain_trace(before_us=boundary)
        assert len(again) == 0
        assert sniffer.frames_buffered == 2

        # The first later watermark picks the boundary row up, once.
        second = sniffer.drain_trace(before_us=boundary + 1)
        assert list(second.time_us) == [boundary]
        rest = sniffer.drain_trace()
        assert boundary not in list(rest.time_us)
        # Nothing lost, nothing duplicated across the four drains.
        from repro.frames import Trace

        assert Trace.concatenate([first, again, second, rest]) == full
        assert sniffer.frames_buffered == 0

    def test_equal_timestamps_at_boundary_drain_together(self):
        """Several rows sharing the watermark timestamp all stay, then
        all drain together in the next window."""
        sim, medium, sniffer = _setup()
        frame = _frame(1, 2, size=100)
        # Direct record: equal capture timestamps cannot be produced via
        # the medium (same-channel transmissions serialize), but drained
        # streams must still handle them — e.g. identical-duration
        # frames on different channels merged downstream.
        t0 = 10_000 + frame.duration_us
        sniffer._record(t0, frame, 20.0)
        sniffer._record(t0, frame, 21.0)
        sniffer._record(t0 + 500 + frame.duration_us, frame, 22.0)
        boundary = 10_000
        assert len(sniffer.drain_trace(before_us=boundary)) == 0
        both = sniffer.drain_trace(before_us=boundary + 1)
        assert list(both.time_us) == [boundary, boundary]
        assert sniffer.frames_buffered == 1

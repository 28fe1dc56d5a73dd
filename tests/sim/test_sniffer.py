"""Tests for the vicinity-sniffer capture model (paper §4.2/§4.4)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import FrameType, Trace
from repro.sim import (
    Medium,
    Position,
    PropagationModel,
    SimFrame,
    Sniffer,
    SnifferConfig,
    Simulator,
    build_scenario,
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
        trace = sniffer.drain_trace()
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
        assert sniffer.drain_trace().row(0).time_us == 7_777

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

    def test_a_stream_holds_one_window(self):
        """A streamed run drains the medium's ground truth every window,
        and its counters still cover the whole run."""
        streamed = build_scenario("day", duration_s=3.0, seed=2)
        assert len(streamed.config.channels) == 3
        for _ in streamed.stream():
            assert streamed.medium.ground_truth == []
        assert streamed.medium.ground_truth == []
        twin = build_scenario("day", duration_s=3.0, seed=2)
        twin.run()
        assert streamed.frames_transmitted == twin.frames_transmitted > 0
        assert (
            streamed.medium.channel_tx_counts == twin.medium.channel_tx_counts
        )
        assert set(streamed.medium.channel_tx_counts) == {1, 6, 11}


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
        full = self._capture_n(5).drain_trace()
        drained = sniffer.drain_trace()
        assert drained == full
        assert sniffer.frames_buffered == 0
        assert sniffer.frames_captured == 5      # monotone total
        assert len(sniffer.drain_trace()) == 0

    def test_partial_drain_splits_at_watermark(self):
        sniffer = self._capture_n(5, gap_us=5_000)
        full = self._capture_n(5, gap_us=5_000).drain_trace()
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
        full = self._capture_n(4).drain_trace()
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
        full = self._capture_n(3, gap_us=5_000).drain_trace()
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
        # Direct decodes: equal capture timestamps cannot be produced via
        # the medium (same-channel transmissions serialize), but drained
        # streams must still handle them — e.g. identical-duration
        # frames on different channels merged downstream.
        t0 = 10_000 + frame.duration_us
        for decoded_us, snr_db in (
            (t0, 20.0), (t0, 21.0), (t0 + 500 + frame.duration_us, 22.0)
        ):
            sim.run_until(decoded_us)
            sniffer.on_frame_received(frame, snr_db)
        boundary = 10_000
        assert len(sniffer.drain_trace(before_us=boundary)) == 0
        both = sniffer.drain_trace(before_us=boundary + 1)
        assert list(both.time_us) == [boundary, boundary]
        assert sniffer.frames_buffered == 1


class _ReferenceDrops:
    """The per-frame drop law: a deque of decode times in the trailing
    window and one scalar draw as each frame decodes.  The sniffer
    settles its queue in bulk and must match it row for row."""

    def __init__(self, config: SnifferConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.recent: deque[int] = deque()
        self.kept: list[int] = []  # frame ids, decode order
        self.drops = 0

    def decode(self, now_us: int, frame_id: int) -> None:
        window_start = now_us - self.config.load_window_us
        recent = self.recent
        while recent and recent[0] < window_start:
            recent.popleft()
        p_drop = min(
            self.config.drop_ceiling,
            self.config.drop_floor + self.config.drop_per_frame * len(recent),
        )
        recent.append(now_us)
        if self.rng.random() < p_drop:
            self.drops += 1
        else:
            self.kept.append(frame_id)


#: A 5 ms window that a burst of 17 decodes lifts to the ceiling.
_BURSTY = SnifferConfig(
    drop_floor=0.01, drop_per_frame=0.02, drop_ceiling=0.35, load_window_us=5_000
)
_DURATION_US = 150

#: Decode gaps: dense bursts that reach the ceiling (0 is a
#: same-microsecond decode), sparser steps that land decodes exactly
#: one window apart below it, and quiet spells longer than the window.
_gaps = st.one_of(
    st.lists(gap, min_size=1, max_size=60)
    for gap in (
        st.integers(0, 400),
        st.sampled_from((0, 250, 500, 1_000, 1_250)),
        st.integers(5_001, 20_000),
    )
)
#: A settle: a counter read, or a drain with a cutoff behind now.
_settles = st.tuples(
    st.sampled_from(["captured", "drops", "buffered", "drain"]),
    st.integers(0, 30_000),
)
_blocks = st.lists(st.tuples(_gaps, _settles), min_size=1, max_size=12)


class TestBulkDropLaw:
    @settings(max_examples=60, deadline=None)
    @given(blocks=_blocks, seed=st.integers(0, 2**32 - 1))
    def test_settling_matches_the_per_frame_law(self, blocks, seed):
        sim, medium, _ = _setup()
        sniffer = Sniffer(
            sim, medium, node_id=60_001, position=Position(5, 5), channel=1,
            rng=np.random.default_rng(seed), config=_BURSTY,
        )
        reference = _ReferenceDrops(_BURSTY, np.random.default_rng(seed))
        decoded_at: dict[int, int] = {}
        drained: list[Trace] = []
        for gaps, (kind, value) in blocks:
            for gap in gaps:
                sim.run_until(sim.now_us + gap)
                frame_id = len(decoded_at) + 1
                decoded_at[frame_id] = sim.now_us
                frame = _frame(1, 2, size=frame_id)
                frame.duration_us = _DURATION_US
                sniffer.on_frame_received(frame, float(frame_id % 40))
                reference.decode(sim.now_us, frame_id)
            if kind == "captured":
                assert sniffer.frames_captured == len(reference.kept)
            elif kind == "drops":
                assert sniffer.hardware_drops == reference.drops
            elif kind == "buffered":
                assert sniffer.frames_buffered + sum(map(len, drained)) == len(
                    reference.kept
                )
            else:
                cutoff = sim.now_us - value
                part = sniffer.drain_trace(before_us=cutoff)
                assert (part.time_us < cutoff).all()
                drained.append(part)
        drained.append(sniffer.drain_trace())
        rows = Trace.concatenate(drained)
        order = np.argsort(rows.size, kind="stable")
        assert rows.size[order].tolist() == reference.kept
        assert rows.time_us[order].tolist() == [
            decoded_at[i] - _DURATION_US for i in reference.kept
        ]
        assert rows.snr_db[order].tolist() == [float(i % 40) for i in reference.kept]
        assert sniffer.hardware_drops == reference.drops
        assert sniffer.frames_captured == len(reference.kept)

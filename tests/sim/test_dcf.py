"""Tests for the DCF MAC state machine."""

import numpy as np
import pytest

from repro.frames import BROADCAST, FrameType
from repro.sim import (
    DcfMac,
    FixedRate,
    MacConfig,
    Medium,
    Position,
    PropagationModel,
    SimFrame,
    Simulator,
)


def _pair(seed=3, distance=5.0, config=None, config_b=None, shadowing=0.0):
    """Two MACs on a clean channel."""
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(shadowing_sigma_db=shadowing),
        rng=np.random.default_rng(seed),
    )
    a = DcfMac(
        sim, medium, node_id=1, position=Position(0, 0), channel=1,
        rng=np.random.default_rng(seed + 1), config=config or MacConfig(),
        rate_adaptation=FixedRate(11.0),
    )
    b = DcfMac(
        sim, medium, node_id=2, position=Position(distance, 0), channel=1,
        rng=np.random.default_rng(seed + 2), config=config_b or config or MacConfig(),
        rate_adaptation=FixedRate(11.0),
    )
    return sim, medium, a, b


class TestBasicExchange:
    def test_data_ack_exchange(self):
        sim, medium, a, b = _pair()
        a.enqueue(2, 1000)
        sim.run_until(1_000_000)
        assert a.stats.data_attempts == 1
        assert a.stats.data_successes == 1
        assert b.stats.delivered_frames == 1
        assert b.stats.delivered_bytes == 1000
        kinds = [frame.ftype for _, frame in medium.ground_truth]
        assert kinds == [FrameType.DATA, FrameType.ACK]

    def test_queue_drains_in_order(self):
        sim, medium, a, b = _pair()
        for size in (100, 200, 300):
            a.enqueue(2, size)
        sim.run_until(1_000_000)
        delivered = [
            frame.size for _, frame in medium.ground_truth
            if frame.ftype == FrameType.DATA
        ]
        assert delivered == [100, 200, 300]
        assert a.stats.data_successes == 3

    def test_queue_overflow(self):
        config = MacConfig(queue_limit=2)
        sim, medium, a, b = _pair(config=config)
        accepted = [a.enqueue(2, 100) for _ in range(5)]
        # First is dequeued for service immediately; two more fit the queue.
        assert accepted.count(False) >= 1
        assert a.stats.queue_overflows >= 1

    def test_broadcast_not_acked(self):
        sim, medium, a, b = _pair()
        a.enqueue(BROADCAST, 80, FrameType.BEACON)
        sim.run_until(1_000_000)
        kinds = [frame.ftype for _, frame in medium.ground_truth]
        assert kinds == [FrameType.BEACON]


class TestRetries:
    def test_unreachable_peer_retries_then_drops(self):
        """A peer 5 km away never ACKs: retry_limit attempts then drop."""
        config = MacConfig(retry_limit=3)
        sim, medium, a, b = _pair(distance=5000.0, config=config)
        a.enqueue(2, 1000)
        sim.run_until(5_000_000)
        assert a.stats.data_attempts == 4  # 1 + 3 retries
        assert a.stats.data_successes == 0
        assert a.stats.data_drops == 1

    def test_retry_bit_set_on_retransmissions(self):
        config = MacConfig(retry_limit=2)
        sim, medium, a, b = _pair(distance=5000.0, config=config)
        a.enqueue(2, 500)
        sim.run_until(5_000_000)
        retries = [frame.retry for _, frame in medium.ground_truth]
        assert retries == [False, True, True]
        seqs = {frame.seq for _, frame in medium.ground_truth}
        assert len(seqs) == 1  # retries reuse the sequence number

    def test_next_packet_after_drop(self):
        config = MacConfig(retry_limit=1)
        sim, medium, a, b = _pair(distance=5000.0, config=config)
        a.enqueue(2, 500)
        a.enqueue(2, 600)
        sim.run_until(5_000_000)
        assert a.stats.data_drops == 2
        sizes = {frame.size for _, frame in medium.ground_truth}
        assert sizes == {500, 600}


class TestRtsCts:
    def test_full_handshake_sequence(self):
        config = MacConfig(rts_threshold=500)
        sim, medium, a, b = _pair(config=config, config_b=MacConfig())
        a.enqueue(2, 1000)
        sim.run_until(1_000_000)
        kinds = [frame.ftype for _, frame in medium.ground_truth]
        assert kinds == [FrameType.RTS, FrameType.CTS, FrameType.DATA, FrameType.ACK]
        assert a.stats.rts_attempts == 1
        assert a.stats.cts_received == 1
        assert a.stats.data_successes == 1

    def test_small_frames_skip_rts(self):
        config = MacConfig(rts_threshold=500)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 100)
        sim.run_until(1_000_000)
        kinds = [frame.ftype for _, frame in medium.ground_truth]
        assert kinds == [FrameType.DATA, FrameType.ACK]

    def test_rts_timeout_retries(self):
        config = MacConfig(rts_threshold=0, retry_limit=2)
        sim, medium, a, b = _pair(distance=5000.0, config=config)
        a.enqueue(2, 1000)
        sim.run_until(5_000_000)
        assert a.stats.rts_attempts == 3
        assert a.stats.data_drops == 1
        # No DATA ever sent: handshake never completed.
        assert all(
            frame.ftype == FrameType.RTS for _, frame in medium.ground_truth
        )


class TestTimingFidelity:
    def test_ack_follows_data_by_sifs(self):
        sim, medium, a, b = _pair()
        a.enqueue(2, 1000)
        sim.run_until(1_000_000)
        (t_data, data_frame), (t_ack, _) = medium.ground_truth
        data_end = t_data + data_frame.duration_us
        assert t_ack - data_end == 10  # SIFS

    def test_difs_plus_backoff_before_transmission(self):
        sim, medium, a, b = _pair()
        a.enqueue(2, 1000)
        sim.run_until(1_000_000)
        t_data, _ = medium.ground_truth[0]
        # At least DIFS; at most DIFS + CWmin slots.
        assert 50 <= t_data <= 50 + 31 * 20

    def test_two_contenders_serialise(self):
        """Carrier sense: concurrent senders do not overlap (usually)."""
        sim, medium, a, b = _pair(seed=9)
        a.enqueue(2, 1400)
        b.enqueue(1, 1400)
        sim.run_until(1_000_000)
        spans = [
            (t, t + f.duration_us)
            for t, f in medium.ground_truth
            if f.ftype == FrameType.DATA
        ]
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1  # no overlap between data frames


class TestBackoffBatching:
    """The MAC's per-call backoff draws are exactly the scalar stream of
    its generator, whatever sequence of windows it draws at."""

    def _observed_and_reference(self, seed, bounds):
        """Draw through the MAC and through a fresh RNG (scalar)."""
        _, _, a, _ = _pair(seed=seed)
        observed = []
        for bound in bounds:
            a._cw = bound - 1
            a._draw_backoff()
            observed.append(a._backoff_slots)
        reference_rng = np.random.default_rng(seed + 1)  # _pair wires seed+1
        reference = [int(reference_rng.integers(0, b)) for b in bounds]
        return observed, reference

    def test_constant_window_matches_scalar_stream(self):
        bounds = [32] * 100
        observed, reference = self._observed_and_reference(3, bounds)
        assert observed == reference

    def test_window_changes_mid_batch_match_scalar_stream(self):
        # Collisions double cw and successes reset it; the observed
        # draws must equal a pure scalar draw-per-call sequence.
        bounds = (
            [32] * 5 + [64] * 3 + [128] * 2 + [32] * 40 + [64] * 1 + [32] * 20
        )
        observed, reference = self._observed_and_reference(9, bounds)
        assert observed == reference

    def test_draws_stay_within_window(self):
        _, _, a, _ = _pair(seed=5)
        for _ in range(200):
            a._draw_backoff()
            assert 0 <= a._backoff_slots <= a._cw

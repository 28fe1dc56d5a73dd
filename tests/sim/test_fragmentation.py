"""Tests for 802.11 fragmentation in the DCF MAC."""

import numpy as np
import pytest

from repro.frames import BROADCAST, FrameType
from repro.sim import MacConfig

from .test_dcf import _pair


class TestFragmentBurst:
    def test_msdu_split_into_fragments(self):
        config = MacConfig(fragmentation_threshold=400)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 1000)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [400, 400, 200]
        # Each fragment individually acknowledged.
        acks = [f for _, f in medium.ground_truth if f.ftype == FrameType.ACK]
        assert len(acks) == 3

    def test_fragments_share_sequence_number(self):
        config = MacConfig(fragmentation_threshold=400)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 900)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert len({f.seq for f in data}) == 1

    def test_burst_is_sifs_spaced(self):
        """Fragments after the first follow the previous ACK by SIFS,
        without re-contending for the channel."""
        config = MacConfig(fragmentation_threshold=400)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 800)
        sim.run_until(2_000_000)
        events = medium.ground_truth
        # Sequence: DATA ACK DATA ACK.
        kinds = [f.ftype for _, f in events]
        assert kinds == [FrameType.DATA, FrameType.ACK] * 2
        (t_ack1, ack1) = events[1]
        (t_data2, _) = events[2]
        assert t_data2 - (t_ack1 + ack1.duration_us) == 10  # SIFS

    def test_small_frames_not_fragmented(self):
        config = MacConfig(fragmentation_threshold=400)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 400)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [400]

    def test_broadcast_never_fragmented(self):
        config = MacConfig(fragmentation_threshold=100)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(BROADCAST, 500, FrameType.DATA)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [500]

    def test_exact_multiple_has_no_tail_fragment(self):
        config = MacConfig(fragmentation_threshold=500)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 1000)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [500, 500]

    def test_disabled_by_default(self):
        sim, medium, a, b = _pair()
        a.enqueue(2, 1500)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [1500]


class TestFragmentRetries:
    def test_lost_fragment_retried_with_backoff(self):
        """A fragment that times out is retried like any frame; the
        burst then continues from the retried fragment."""
        config = MacConfig(fragmentation_threshold=400, retry_limit=2)
        sim, medium, a, b = _pair(distance=5000.0, config=config)
        a.enqueue(2, 800)
        sim.run_until(5_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        # Only the first fragment is ever attempted (never acked).
        assert all(f.size == 400 for f in data)
        assert len(data) == 3  # 1 + retry_limit
        assert a.stats.data_drops == 1

    def test_queue_continues_after_fragmented_msdu(self):
        config = MacConfig(fragmentation_threshold=400)
        sim, medium, a, b = _pair(config=config)
        a.enqueue(2, 800)
        a.enqueue(2, 100)
        sim.run_until(2_000_000)
        data = [f for _, f in medium.ground_truth if f.ftype == FrameType.DATA]
        assert [f.size for f in data] == [400, 400, 100]

    def test_delivery_improves_on_marginal_link(self):
        """The Modiano frame-size effect: on a high-BER link, smaller
        fragments raise end-to-end delivery of large MSDUs."""
        import numpy as np
        from repro.sim import (
            DcfMac, FixedRate, Medium, Position,
            PropagationModel, Simulator,
        )

        def run(threshold):
            sim = Simulator()
            prop = PropagationModel(shadowing_sigma_db=0.0)
            # Attenuation chosen so the link SNR sits near 8.5 dB: at
            # 11 Mbps a 1500 B frame survives ~36% of the time but a
            # 300 B fragment ~80% — the regime where fragmentation pays.
            prop.node_extra_loss_db[1] = 41.5
            medium = Medium(sim, prop, np.random.default_rng(3))
            config = MacConfig(
                fragmentation_threshold=threshold, retry_limit=4
            )
            a = DcfMac(sim, medium, 1, Position(0, 0), 1,
                       np.random.default_rng(4), config=config,
                       rate_adaptation=FixedRate(11.0))
            b = DcfMac(sim, medium, 2, Position(5, 0), 1,
                       np.random.default_rng(5), config=config,
                       rate_adaptation=FixedRate(11.0))
            for _ in range(30):
                a.enqueue(2, 1500)
            sim.run_until(30_000_000)
            return b.stats.delivered_bytes

        assert run(300) > run(None)

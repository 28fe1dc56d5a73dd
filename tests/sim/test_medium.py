"""Tests for the shared medium: sensing, collisions, capture, delivery."""

import numpy as np
import pytest

from repro.frames import FrameType
from repro.sim import (
    Medium,
    Position,
    PropagationModel,
    SimFrame,
    Simulator,
    available_scenarios,
    build_scenario,
)

from .golden_lib import trace_digest


class RecordingListener:
    """Minimal medium listener that logs its callbacks."""

    def __init__(self, node_id, position, channel=1, sense=-85.0):
        self.node_id = node_id
        self.position = position
        self.channel = channel
        self.sense_threshold_dbm = sense
        self.busy_events = 0
        self.idle_events = 0
        self.received = []

    def on_medium_busy(self):
        self.busy_events += 1

    def on_medium_idle(self):
        self.idle_events += 1

    def on_frame_received(self, frame, snr_db):
        self.received.append((frame, snr_db))


def _make_medium(seed=1, shadowing=0.0):
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(shadowing_sigma_db=shadowing),
        rng=np.random.default_rng(seed),
    )
    return sim, medium


def _frame(src, dst, size=500, rate=11.0, channel=1, ftype=FrameType.DATA):
    return SimFrame(ftype=ftype, src=src, dst=dst, size=size, rate_mbps=rate, channel=channel)


class TestDelivery:
    def test_clean_frame_delivered_to_all_listeners(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        rx = RecordingListener(2, Position(5, 0))
        overhear = RecordingListener(3, Position(3, 3))
        for node in (tx, rx, overhear):
            medium.attach(node)
        medium.transmit(tx, _frame(1, 2), tx_power_dbm=15.0)
        sim.run_until(10_000)
        assert len(rx.received) == 1
        assert len(overhear.received) == 1
        assert len(tx.received) == 0  # no self-reception
        frame, snr = rx.received[0]
        assert frame.src == 1 and snr > 20

    def test_out_of_range_listener_hears_nothing(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        hidden = RecordingListener(2, Position(5000, 0))
        medium.attach(tx)
        medium.attach(hidden)
        medium.transmit(tx, _frame(1, 2), tx_power_dbm=15.0)
        sim.run_until(10_000)
        assert hidden.received == []
        assert hidden.busy_events == 0  # below sense threshold: hidden terminal

    def test_cross_channel_isolation(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0), channel=1)
        other = RecordingListener(2, Position(1, 0), channel=6)
        medium.attach(tx)
        medium.attach(other)
        medium.transmit(tx, _frame(1, 2, channel=1), tx_power_dbm=15.0)
        sim.run_until(10_000)
        assert other.received == []
        assert other.busy_events == 0

    def test_duration_filled_from_phy(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        frame = _frame(1, 2, size=1500, rate=11.0)
        medium.transmit(tx, frame, 15.0)
        assert frame.duration_us == round(192 + 8 * 1534 / 11.0)


class TestCarrierSense:
    def test_busy_idle_transitions(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        nearby = RecordingListener(2, Position(4, 0))
        medium.attach(tx)
        medium.attach(nearby)
        medium.transmit(tx, _frame(1, 2), 15.0)
        assert not medium.is_idle(nearby)
        assert nearby.busy_events == 1
        sim.run_until(1_000_000)
        assert medium.is_idle(nearby)
        assert nearby.idle_events == 1

    def test_overlapping_transmissions_single_busy_period(self):
        sim, medium = _make_medium()
        a = RecordingListener(1, Position(0, 0))
        b = RecordingListener(2, Position(2, 0))
        listener = RecordingListener(3, Position(1, 0))
        for node in (a, b, listener):
            medium.attach(node)
        medium.transmit(a, _frame(1, 3, size=1500, rate=1.0), 15.0)
        sim.run_until(100)
        medium.transmit(b, _frame(2, 3, size=1500, rate=1.0), 15.0)
        sim.run_until(1_000_000)
        # One busy onset (second tx arrived while already busy), one idle.
        assert listener.busy_events == 1
        assert listener.idle_events == 1


class TestCollisions:
    def test_equal_power_collision_destroys_both(self):
        sim, medium = _make_medium()
        a = RecordingListener(1, Position(0, 0))
        b = RecordingListener(2, Position(10, 0))
        rx = RecordingListener(3, Position(5, 0))  # equidistant: SIR ~ 0 dB
        for node in (a, b, rx):
            medium.attach(node)
        medium.transmit(a, _frame(1, 3, size=1400, rate=11.0), 15.0)
        medium.transmit(b, _frame(2, 3, size=1400, rate=11.0), 15.0)
        sim.run_until(1_000_000)
        assert rx.received == []

    def test_capture_effect_saves_strong_frame(self):
        sim, medium = _make_medium()
        strong = RecordingListener(1, Position(1, 0))
        weak = RecordingListener(2, Position(60, 0))
        rx = RecordingListener(3, Position(0, 0))
        for node in (strong, weak, rx):
            medium.attach(node)
        medium.transmit(strong, _frame(1, 3, size=500, rate=1.0), 18.0)
        medium.transmit(weak, _frame(2, 3, size=500, rate=1.0), 8.0)
        sim.run_until(1_000_000)
        received_srcs = {f.src for f, _ in rx.received}
        assert 1 in received_srcs   # strong survives (capture)
        assert 2 not in received_srcs

    def test_ground_truth_records_everything(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        medium.attach(tx)
        medium.transmit(tx, _frame(1, 2), 15.0)
        sim.run_until(100)
        medium.transmit(tx, _frame(1, 2), 15.0)
        sim.run_until(1_000_000)
        assert len(medium.ground_truth) == 2
        assert medium.frames_transmitted == 2


class TestDeliveryPlans:
    """The cached audibility/delivery plans and their invalidation."""

    def test_repeat_transmissions_reuse_plan(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        rx = RecordingListener(2, Position(5, 0))
        medium.attach(tx)
        medium.attach(rx)
        medium.transmit(tx, _frame(1, 2), 15.0)
        sim.run_all()
        assert len(medium._plans) == 1
        medium.transmit(tx, _frame(1, 2), 15.0)
        sim.run_all()
        assert len(medium._plans) == 1
        assert len(rx.received) == 2

    def test_notify_topology_changed_invalidates(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        rx = RecordingListener(2, Position(5, 0))
        medium.attach(tx)
        medium.attach(rx)
        medium.transmit(tx, _frame(1, 2), 15.0)
        sim.run_all()
        assert len(rx.received) == 1
        # Re-target the receiver's channel; a bare attribute write on an
        # ad-hoc listener must be announced to the medium.
        rx.channel = 6
        medium.notify_topology_changed()
        medium.transmit(tx, _frame(1, 2, channel=1), 15.0)
        sim.run_all()
        assert len(rx.received) == 1  # cross-channel now: nothing new

    def test_attach_mid_flight_falls_back_to_dynamic_delivery(self):
        """A listener attached while a frame is in the air still receives
        it — exactly what the uncached per-finish loop always did."""
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        early = RecordingListener(2, Position(5, 0))
        medium.attach(tx)
        medium.attach(early)
        medium.transmit(tx, _frame(1, 2), 15.0)
        late = RecordingListener(3, Position(6, 0))
        medium.attach(late)  # bumps the plan epoch mid-flight
        sim.run_all()
        assert len(early.received) == 1
        assert len(late.received) == 1

    def test_dcf_channel_property_announces_change(self):
        import repro.sim.dcf as dcf
        from repro.sim.rate_adaptation import FixedRate

        sim, medium = _make_medium()
        mac = dcf.DcfMac(
            sim=sim,
            medium=medium,
            node_id=7,
            position=Position(1, 1),
            channel=1,
            rng=np.random.default_rng(3),
            rate_adaptation=FixedRate(11.0),
        )
        epoch = medium._plan_epoch
        mac.channel = 6
        assert mac.channel == 6
        assert medium._plan_epoch == epoch + 1

    def test_passive_listener_skips_sense_bookkeeping(self):
        sim, medium = _make_medium()
        tx = RecordingListener(1, Position(0, 0))
        passive = RecordingListener(2, Position(5, 0))
        passive.medium_passive = True
        medium.attach(tx)
        medium.attach(passive)
        medium.transmit(tx, _frame(1, 2), 15.0)
        assert medium.is_idle(passive)  # no sensed entries are tracked
        sim.run_all()
        assert passive.busy_events == 0
        assert passive.idle_events == 0
        assert len(passive.received) == 1  # reception is unaffected


class TestNoopSkip:
    """Skipping no-op overhearers must not move a single frame."""

    @staticmethod
    def _digests(name, full_path):
        built = build_scenario(name, duration_s=3.0, seed=1)
        if full_path:
            # No MAC declares overhearing a no-op, so every decodable
            # plan entry computes its outcome and delivers on success.
            for node in built.aps + built.stations:
                node.mac.overhear_noop = False
            built.medium.notify_topology_changed()
        result = built.run()
        return (
            trace_digest(result.trace.sorted_by_time()),
            trace_digest(result.ground_truth),
        )

    @pytest.mark.parametrize("name", available_scenarios())
    def test_skip_path_matches_full_path(self, name):
        assert self._digests(name, full_path=False) == self._digests(
            name, full_path=True
        )

    @staticmethod
    def _shadowing_after_stale_overlap(noop):
        """Link shadowing after a skipped entry meets a stale interferer.

        The overhearer (node 3) joins channel 1 while A's frame is on
        the air, so A's plan, from an older epoch, never evaluated the
        A-overhearer link.  B's frame to A overlaps A's; at its end the
        full path evaluates that link at the overhearer's entry, then
        A's self-link at A's entry, each drawing shadowing on first use.
        """
        sim, medium = _make_medium(shadowing=4.0)
        overhearer = RecordingListener(3, Position(5, 0), channel=6)
        overhearer.overhear_noop = noop
        a = RecordingListener(1, Position(0, 0))
        b = RecordingListener(2, Position(10, 0))
        for node in (overhearer, a, b):
            medium.attach(node)
        medium.transmit(a, _frame(1, 2, size=1400, rate=1.0), 15.0)
        sim.run_until(100)
        overhearer.channel = 1
        medium.notify_topology_changed()
        sim.run_until(200)
        medium.transmit(b, _frame(2, 1, size=100, rate=11.0), 15.0)
        sim.run_all()
        shadowing = medium.propagation.link_shadowing_db
        return [shadowing(1, 3), shadowing(1, 1)]

    def test_stale_interferer_link_is_still_evaluated(self):
        assert self._shadowing_after_stale_overlap(
            noop=True
        ) == self._shadowing_after_stale_overlap(noop=False)


class TestPinnedFaults:
    """Delivery faults whose fixes move the golden digests.

    Each is pinned as a strict xfail until ROADMAP item 1 versions the
    digests once; a fix that lands without that version fails here.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="a listener that leaves the channel mid-frame keeps the "
        "frame's tx id; the fix moves golden digests (ROADMAP item 1)",
    )
    def test_channel_change_mid_frame_ends_carrier_sense(self):
        sim, medium = _make_medium()
        a = RecordingListener(1, Position(0, 0))
        b = RecordingListener(2, Position(5, 0))
        medium.attach(a)
        medium.attach(b)
        medium.transmit(a, _frame(1, 2, size=1400, rate=1.0), 15.0)
        sim.run_until(1_000)
        assert not medium.is_idle(b)
        b.channel = 6
        medium.notify_topology_changed()
        sim.run_all()
        assert medium.is_idle(b)
        assert b.idle_events == 1

    @pytest.mark.parametrize(
        "extra_loss_db",
        [
            0.0,
            pytest.param(
                50.0,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="an obstructed listener's self-link interference "
                    "is ~100 dB down, so it decodes while transmitting; "
                    "the fix moves golden digests (ROADMAP item 1)",
                ),
            ),
        ],
    )
    def test_transmitting_listener_decodes_nothing(self, extra_loss_db):
        sim, medium = _make_medium(shadowing=0.0)
        medium.propagation.node_extra_loss_db[1] = extra_loss_db
        a = RecordingListener(1, Position(0, 0))
        b = RecordingListener(2, Position(2, 0))
        medium.attach(a)
        medium.attach(b)
        medium.transmit(a, _frame(1, 2, size=1400, rate=1.0), 15.0)
        sim.run_until(1_000)
        medium.transmit(b, _frame(2, 1, size=100, rate=1.0), 15.0)
        sim.run_all()
        assert a.received == []  # half duplex: A is still on the air

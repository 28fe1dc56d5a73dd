"""Shared wireless medium: carrier sense, collisions, reception.

The medium connects transceiver entities (MACs, sniffers) on a channel:

* **Carrier sense** is energy-based and per-listener: a listener senses
  busy while any ongoing transmission arrives above its sense threshold.
  Hidden terminals arise naturally when path loss puts a transmitter
  below a listener's threshold.
* **Collisions**: transmissions that overlap in time contribute
  interference at each listener; reception success is sampled from the
  PHY error model at the resulting SINR, so strong frames can survive a
  collision (capture effect) and weak ones fail even alone.
* **Delivery** happens at transmission end: every attached listener on
  the channel (not only the addressee) gets ``on_frame_received`` when it
  decodes the frame — MACs use overheard frames for NAV, sniffers for
  capture.

Hot path
--------
Positions, thresholds and (between explicit topology changes) channels
are static for a run, so per-transmitter **delivery plans** are cached:
one pass over all listeners per ``(sender, tx power, channel)`` computes
who is *audible* (above carrier-sense threshold) and who is *decodable*
(above decode floor), and every later frame from that transmitter walks
only those listeners — O(audible) Python work per frame instead of
O(attached).  Each plan entry carries the static link SNR and lazily
caches :func:`repro.sim.phy.log_survival` terms per rate and
:func:`repro.sim.phy.control_success_probability` per frame type,
collapsing the per-reception erfc/log1p/exp chain to one ``math.exp``.
The arithmetic is kept expression-for-expression identical to
:func:`repro.sim.phy.frame_success_probability`, so
optimized runs emit byte-identical traces (enforced by
``tests/sim/test_determinism_golden.py``).

Most decodable entries are MACs declaring ``overhear_noop`` that hear a
frame addressed elsewhere with no NAV: nothing they decode can act, so
delivery computes no outcome for them.  Such an entry keeps its slot in
the delivery's one vectorized draw, and still makes every lazy link
evaluation that can draw shadowing (its own overlapping transmission,
and interferers whose plan predates a topology change), so the RNG
streams advance exactly as if its outcome were computed.

A transmission carries its own tx id, and its finish is scheduled as
a bound call on the :class:`Transmission` (``partial(_finish, tx)``):
no closure and no id-to-transmission table per frame.

Plans are invalidated by ``notify_topology_changed()`` — called
automatically when a :class:`~repro.sim.dcf.DcfMac` channel is
re-targeted (roaming, channel management) or a listener attaches.
Transmissions in flight across an invalidation finish on a dynamic
fallback that re-reads listener channels exactly like the uncached
loop.  Purely passive listeners (sniffers) declare ``medium_passive``
and skip carrier-sense bookkeeping entirely: nothing ever queries a
sniffer's busy state.

Every transmission is appended to ``ground_truth`` as it goes on the
air.  The list holds the transmissions since a scenario's window loop
(:mod:`repro.sim.builder`) last drained it, so a run of any length holds
one window of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol

import numpy as np

from ..core.timing import DOT11B_TIMING
from ..frames import FrameType
from . import phy
from .engine import Simulator
from .phy import BASIC_RATE_MBPS, PLCP_HEADER_BITS
from .propagation import NOISE_FLOOR_DBM, Position, PropagationModel

__all__ = ["SimFrame", "MediumListener", "Medium", "Transmission"]


@dataclass(slots=True)
class SimFrame:
    """A frame in flight inside the simulator."""

    ftype: FrameType
    src: int
    dst: int
    size: int               # bytes, the paper's S in D_DATA
    rate_mbps: float
    seq: int = 0
    retry: bool = False
    channel: int = 1
    duration_us: int = 0    # on-air time, filled by the transmitter
    nav_us: int = 0         # medium-reservation hint (RTS/CTS duration field)


class MediumListener(Protocol):
    """What the medium needs from an attached entity.

    Optional attributes refine the fast path: ``decode_threshold_dbm``
    (decode gate; defaults to just above the noise floor),
    ``medium_passive`` (never consults carrier sense — sniffers), and
    ``overhear_noop`` (receiving a frame addressed elsewhere with no NAV
    is a provable no-op, so delivery can be skipped).
    """

    node_id: int
    position: Position
    channel: int
    sense_threshold_dbm: float

    def on_medium_busy(self) -> None: ...
    def on_medium_idle(self) -> None: ...
    def on_frame_received(self, frame: SimFrame, snr_db: float) -> None: ...


@dataclass(slots=True, eq=False)
class Transmission:
    """One ongoing transmission and its interference bookkeeping.

    Identity equality (``eq=False``): transmissions are unique live
    objects — the active-list bookkeeping must never confuse two
    field-identical frames in flight.
    """

    frame: SimFrame
    tx: "MediumListener"
    tx_power_dbm: float
    start_us: int
    end_us: int
    #: the id the sensed sets of listeners that hear this frame hold.
    tx_id: int
    overlapped: list["Transmission"] = field(default_factory=list)
    #: delivery-plan entries captured at transmit time (fast path), and
    #: the plan epoch they belong to — a mismatch at finish time means
    #: the topology changed mid-flight and the dynamic path takes over.
    plan: list | None = None
    plan_epoch: int = -1


class Medium:
    """The shared channel; all entities attach to one medium instance."""

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.propagation = propagation
        self.rng = rng
        self._listeners: list[MediumListener] = []
        self._active: list[Transmission] = []
        self._sensed: dict[int, set[int]] = {}  # listener id -> active tx ids
        self._tx_counter = 0
        self.frames_transmitted = 0
        #: per-channel transmission counts over the whole run, so
        #: infrastructure like the channel manager can measure load
        #: without the ground-truth list.
        self.channel_tx_counts: dict[int, int] = {}
        #: the transmissions put on the air since a scenario's window
        #: loop last drained this list (or, with no loop, since the
        #: medium was made): (start_us, frame).  This is the
        #: simulator's ground truth, against which the sniffer capture
        #: model (and the paper's unrecorded-frame estimator) can be
        #: validated.
        self.ground_truth: list[tuple[int, SimFrame]] = []
        # Delivery plans: (id(sender), tx_power, channel) -> (sender,
        # finish_entries, transmit_entries).  Cleared wholesale on any
        # topology change; the epoch stamps in-flight transmissions.
        self._plans: dict[tuple[int, float, int], tuple] = {}
        self._plan_epoch = 0
        # On-air duration per (ftype, size, rate): small key space, hit
        # on every transmit.
        self._duration_cache: dict[tuple[FrameType, int, float], int] = {}
        # Interference helpers: per-link received power in mW (pure
        # 10**(dBm/10) of the link's dBm), and success probabilities for
        # collision SINRs, which repeat whenever the same link pair
        # collides.  The collision cache is bounded: distinct overlap
        # sets are combinatorial in principle, so it is cleared (a pure
        # perf event, never a semantic one) if it ever balloons.
        self._power_mw_cache: dict[tuple[int, int, float], float] = {}
        # Separate dicts: data keys (snr, rate) and control keys
        # (snr, FrameType) could otherwise compare equal (IntEnum).
        self._collision_terms: dict[tuple, tuple[float, float]] = {}
        self._collision_ctrl_p: dict[tuple, float] = {}
        # The constant factor of PropagationModel.snr_db, precomputed so
        # the collision path can inline the SINR formula.
        self._noise_mw = 10.0 ** (NOISE_FLOOR_DBM / 10.0)

    # -- attachment --------------------------------------------------------

    def attach(self, listener: MediumListener) -> None:
        """Register an entity to sense and receive on its channel."""
        self._listeners.append(listener)
        self._sensed[id(listener)] = set()
        self.notify_topology_changed()

    def notify_topology_changed(self) -> None:
        """Invalidate cached delivery plans (channel/attachment change).

        Cheap to call; plans rebuild lazily on the next transmission.
        Frames already in the air fall back to the dynamic delivery loop
        at their end-of-transmission.
        """
        self._plans.clear()
        self._plan_epoch += 1

    def is_idle(self, listener: MediumListener) -> bool:
        """Energy carrier sense: nothing audible is on the air."""
        return not self._sensed[id(listener)]

    # -- link power and the decode gate --------------------------------------

    def _link_power_dbm(
        self, tx_entity: MediumListener, tx_power_dbm: float, listener: MediumListener
    ) -> float:
        return self.propagation.received_power_dbm(
            tx_power_dbm,
            tx_entity.position,
            listener.position,
            tx_id=tx_entity.node_id,
            rx_id=listener.node_id,
        )

    def decode_floor_dbm(self, listener: MediumListener) -> float:
        """The decode gate: below this received power a frame is noise.

        Radios decode well below the energy-detect carrier-sense
        threshold (1 Mbps DSSS sensitivity sits near the noise floor
        thanks to the Barker spreading gain), so the gate is the
        listener's ``decode_threshold_dbm``, defaulting to just above
        thermal noise; the PHY BER model decides success from there.
        """
        return getattr(listener, "decode_threshold_dbm", NOISE_FLOOR_DBM + 1.0)

    # -- delivery plans ----------------------------------------------------

    def _build_plan(
        self, sender: MediumListener, tx_power_dbm: float, channel: int
    ) -> tuple:
        """One full pass over the listeners for this (sender, power, channel).

        Iterates in attach order computing link powers exactly like the
        dynamic loop, so lazily-drawn link shadowing consumes the
        propagation RNG in the identical order, then keeps only the
        listeners that can sense or decode this transmitter.

        Returns ``(sender, finish_entries, transmit_entries, n_draws,
        mw_by_listener)`` where ``n_draws`` is the decodable-listener
        count — the number of medium-RNG doubles every delivery of this
        plan consumes, one fixed slot per decodable entry (an entry's
        ``reception`` is None below the decode floor) — and
        ``mw_by_listener`` maps ``id(listener)`` to this transmitter's
        signal power in mW there (the interference contribution when
        this transmission overlaps another).
        Listeners exposing an ``in_contention`` flag (DCF MACs) become
        the *gate* of their own busy/idle callbacks: the medium skips
        the call when the MAC is not contending, which is exactly the
        callback's own first early-return.
        """
        propagation = self.propagation
        finish_entries = []
        transmit_entries = []
        mw_by_listener: dict[int, float] = {}
        n_draws = 0
        for listener in self._listeners:
            if listener is sender or listener.channel != channel:
                continue
            power = self._link_power_dbm(sender, tx_power_dbm, listener)
            audible = power >= listener.sense_threshold_dbm
            decodable = power >= self.decode_floor_dbm(listener)
            if not audible and not decodable:
                continue
            # Only the audible, active listeners that ``transmit`` marks
            # busy carry their sensed set; the rest have nothing to clear.
            if audible and not getattr(listener, "medium_passive", False):
                sensed = self._sensed[id(listener)]
            else:
                sensed = None
            gate = listener if hasattr(listener, "in_contention") else None
            sig_mw = 10.0 ** (power / 10.0)
            mw_by_listener[id(listener)] = sig_mw
            if decodable:
                reception = (
                    n_draws,                             # slot in the draw
                    propagation.snr_db(power, 0.0),      # interference-free SNR
                    sig_mw,
                    listener.on_frame_received,
                    {},  # rate -> (log1p(-ber_header), log1p(-ber_body))
                    {},  # control ftype -> success probability
                )
                n_draws += 1
            else:
                reception = None
            finish_entries.append((
                listener,
                sensed,
                gate,
                listener.on_medium_idle,
                listener.node_id,
                getattr(listener, "overhear_noop", False),
                reception,
            ))
            if sensed is not None:
                transmit_entries.append((sensed, gate, listener.on_medium_busy))
        return (sender, finish_entries, transmit_entries, n_draws, mw_by_listener)

    # -- transmission --------------------------------------------------------

    def transmit(
        self, sender: MediumListener, frame: SimFrame, tx_power_dbm: float
    ) -> Transmission:
        """Put ``frame`` on the air from ``sender`` now.

        The caller is responsible for having done carrier sense; the
        medium never rejects a transmission (collisions are physics, not
        errors).
        """
        now = self.sim.now_us
        if frame.duration_us <= 0:
            dkey = (frame.ftype, frame.size, frame.rate_mbps)
            duration = self._duration_cache.get(dkey)
            if duration is None:
                duration = phy.frame_duration_us(
                    frame.ftype, frame.size, frame.rate_mbps
                )
                self._duration_cache[dkey] = duration
            frame.duration_us = duration
        self._tx_counter += 1
        tx_id = self._tx_counter
        tx = Transmission(
            frame, sender, tx_power_dbm, now, now + frame.duration_us, tx_id
        )
        self.frames_transmitted += 1
        channel = frame.channel
        counts = self.channel_tx_counts
        counts[channel] = counts.get(channel, 0) + 1
        self.ground_truth.append((now, frame))

        # Overlap bookkeeping with already-active transmissions.
        tx_overlapped = tx.overlapped
        for other in self._active:
            other.overlapped.append(tx)
            tx_overlapped.append(other)
        self._active.append(tx)

        key = (id(sender), tx_power_dbm, channel)
        plan = self._plans.get(key)
        if plan is None or plan[0] is not sender:
            # Defensive bound: continuous TPC adaptation mints a fresh
            # power (and hence plan key) per transmission; clearing is a
            # pure perf event — in-flight transmissions keep their plan
            # references and the epoch is untouched.
            if len(self._plans) >= 4096:
                self._plans.clear()
            plan = self._build_plan(sender, tx_power_dbm, channel)
            self._plans[key] = plan
        tx.plan = plan
        tx.plan_epoch = self._plan_epoch

        # Busy transitions at every listener that can hear this.  The
        # gate is the callback's own not-contending early-return, peeked
        # so idle MACs cost an attribute load instead of a call.
        for sensed, gate, on_busy in plan[2]:
            was_idle = not sensed
            sensed.add(tx_id)
            if was_idle and (gate is None or gate.in_contention):
                on_busy()

        self.sim.schedule_at(tx.end_us, partial(self._finish, tx))
        return tx

    def _finish(self, tx: Transmission) -> None:
        self._active.remove(tx)
        tx_id = tx.tx_id
        plan = tx.plan
        epoch = tx.plan_epoch
        if plan is None or epoch != self._plan_epoch:
            self._finish_dynamic(tx)
            return

        frame = tx.frame
        ftype = frame.ftype
        is_data = ftype is FrameType.DATA or ftype is FrameType.MGMT
        if is_data:
            body_bits = 8 * (DOT11B_TIMING.mac_overhead_bytes + frame.size)
        else:
            body_bits = 0
        rate = frame.rate_mbps
        dst = frame.dst
        nav_free = frame.nav_us <= 0
        channel = frame.channel
        # Only same-channel overlaps interfere; prefilter once per
        # frame instead of once per (listener, overlap) pair.
        overlapped = tx.overlapped
        interferers = (
            [o for o in overlapped if o.frame.channel == channel]
            if overlapped
            else ()
        )
        # One vectorized draw for the whole delivery: the plan's
        # decodable count is exactly how many doubles the sequential
        # loop would consume, and numpy's Generator produces the
        # identical sequence for vector and scalar draws.  Each
        # decodable entry reads its own fixed slot.  No callback below
        # touches the medium RNG, so order is preserved.
        n_draws = plan[3]
        draws = self.rng.random(n_draws).tolist() if n_draws else ()
        exp = math.exp
        log10 = math.log10
        noise_mw = self._noise_mw
        link_power_mw = self._link_power_mw
        collision_terms = self._collision_terms
        collision_ctrl_p = self._collision_ctrl_p

        for (listener, sensed, gate, idle_cb, node_id, noop,
             reception) in plan[1]:
            # Idle transition first, so receive callbacks observe the
            # post-frame medium state (they often start SIFS responses).
            if sensed is not None and tx_id in sensed:
                sensed.discard(tx_id)
                if not sensed and (gate is None or gate.in_contention):
                    idle_cb()
            if reception is None:
                continue  # below the decode floor
            if noop and nav_free and node_id != dst:
                # Provably a no-op at the receiver (frame addressed
                # elsewhere, no NAV to set, and the listener declared
                # overhearing side-effect-free), so compute no outcome;
                # its draw slot goes unread.  A link the full path below
                # evaluates lazily draws shadowing on first use, so keep
                # those evaluations: the listener's own overlapping
                # transmission (no plan holds a self-link) and
                # interferers whose plan predates a topology change.  A
                # current-epoch plan evaluated every link on its channel.
                for other in interferers:
                    if other.tx is listener or other.plan_epoch != epoch:
                        link_power_mw(other.tx, other.tx_power_dbm, listener)
                continue
            slot, snr0, sig_mw, recv_cb, data_terms, ctrl_p = reception
            snr_db = snr0
            collided = False
            if interferers:
                interference_mw = 0.0
                lid = id(listener)
                for other in interferers:
                    # The interferer's own plan already knows its signal
                    # power at this listener; fall back to the link
                    # cache for listeners outside that plan.
                    other_plan = other.plan
                    mw = other_plan[4].get(lid) if other_plan else None
                    if mw is None:
                        mw = link_power_mw(other.tx, other.tx_power_dbm, listener)
                    interference_mw += mw
                if interference_mw:
                    collided = True
                    # PropagationModel.snr_db inlined with the entry's
                    # precomputed signal mW — identical arithmetic.
                    snr_db = 10.0 * log10(sig_mw / (noise_mw + interference_mw))
                    if is_data:
                        terms = collision_terms.get((snr_db, rate))
                        if terms is None:
                            terms = self._collision_data_terms(snr_db, rate)
                        p = exp(PLCP_HEADER_BITS * terms[0] + (body_bits * terms[1]))
                    else:
                        p = collision_ctrl_p.get((snr_db, ftype))
                        if p is None:
                            p = self._collision_control_p(snr_db, ftype)
            if not collided:
                if is_data:
                    terms = data_terms.get(rate)
                    if terms is None:
                        terms = self._data_terms(data_terms, snr0, rate)
                    # Header bits at the basic rate, body at the data
                    # rate; term-for-term the PHY's expression, so the
                    # probability is bit-identical to the uncached path.
                    p = exp(PLCP_HEADER_BITS * terms[0] + (body_bits * terms[1]))
                else:
                    p = ctrl_p.get(ftype)
                    if p is None:
                        p = phy.control_success_probability(snr0, ftype)
                        ctrl_p[ftype] = p
            if draws[slot] < p:
                recv_cb(frame, snr_db)

    def _data_terms(
        self, store: dict, snr_db: float, rate: float, key=None
    ) -> tuple[float, float]:
        """:func:`~repro.sim.phy.log_survival` at the basic and the data
        rate for one (SNR, rate), stored for reuse; ``_finish``
        recombines them with the exact expression of
        :func:`~repro.sim.phy.frame_success_probability`, so
        probabilities (and hence RNG outcomes) are bit-identical to the
        uncached path.
        """
        terms = (
            phy.log_survival(snr_db, BASIC_RATE_MBPS),
            phy.log_survival(snr_db, rate),
        )
        store[rate if key is None else key] = terms
        return terms

    def _link_power_mw(
        self, tx_entity: MediumListener, tx_power_dbm: float, listener: MediumListener
    ) -> float:
        """Cached ``10 ** (link dBm / 10)`` for interference summing.

        Bounded like the collision caches: TPC mints fresh power keys
        continuously, and clearing only recomputes pure arithmetic
        (link shadowing lives in the propagation model's own cache).
        """
        key = (tx_entity.node_id, listener.node_id, tx_power_dbm)
        mw = self._power_mw_cache.get(key)
        if mw is None:
            if len(self._power_mw_cache) >= 200_000:
                self._power_mw_cache.clear()
            mw = 10.0 ** (self._link_power_dbm(tx_entity, tx_power_dbm, listener) / 10.0)
            self._power_mw_cache[key] = mw
        return mw

    # Collision SINRs repeat (the same link pairs collide over and over)
    # even though data frame sizes do not, so the collision caches hold
    # per-(SINR, rate) log1p(-BER) factors and per-(SINR, ftype) control
    # probabilities; _finish folds the frame size in via the PHY's exact
    # expression.  Both caches are bounded defensively: clearing an
    # overfull cache can never change results, only recompute them.

    def _collision_data_terms(self, snr_db: float, rate: float) -> tuple[float, float]:
        cache = self._collision_terms
        if len(cache) >= 200_000:
            cache.clear()
        return self._data_terms(cache, snr_db, rate, key=(snr_db, rate))

    def _collision_control_p(self, snr_db: float, ftype: FrameType) -> float:
        cache = self._collision_ctrl_p
        if len(cache) >= 200_000:
            cache.clear()
        p = phy.control_success_probability(snr_db, ftype)
        cache[(snr_db, ftype)] = p
        return p

    def _finish_dynamic(self, tx: Transmission) -> None:
        """Delivery for frames whose plan was invalidated mid-flight.

        Re-reads listener channels at finish time — the exact uncached
        behaviour, preserved for transmissions that straddle a roam or
        channel switch.
        """
        frame = tx.frame
        tx_id = tx.tx_id
        for listener in self._listeners:
            if listener is tx.tx or listener.channel != frame.channel:
                continue
            power = self._link_power_dbm(tx.tx, tx.tx_power_dbm, listener)
            # Idle transition first, so receive callbacks observe the
            # post-frame medium state (they often start SIFS responses).
            sensed = self._sensed[id(listener)]
            if tx_id in sensed:
                sensed.discard(tx_id)
                if not sensed:
                    listener.on_medium_idle()
            if power < self.decode_floor_dbm(listener):
                continue  # inaudible: cannot decode
            interference_mw = 0.0
            for other in tx.overlapped:
                if other.frame.channel != frame.channel:
                    continue
                other_power = self._link_power_dbm(
                    other.tx, other.tx_power_dbm, listener
                )
                interference_mw += 10.0 ** (other_power / 10.0)
            snr_db = self.propagation.snr_db(power, interference_mw)
            if self.rng.random() < self._success_probability(frame, snr_db):
                listener.on_frame_received(frame, snr_db)

    def _success_probability(self, frame: SimFrame, snr_db: float) -> float:
        if frame.ftype in (FrameType.DATA, FrameType.MGMT):
            return phy.frame_success_probability(
                snr_db, frame.size, frame.rate_mbps
            )
        return phy.control_success_probability(snr_db, frame.ftype)

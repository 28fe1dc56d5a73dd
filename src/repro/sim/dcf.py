"""IEEE 802.11b DCF MAC state machine (paper §3).

Implements CSMA/CA as the paper describes it: carrier sense, DIFS
deferral, exponential backoff with freeze/resume, optional RTS/CTS
handshake above a size threshold, SIFS-spaced ACK/CTS responses, NAV
virtual carrier sense from overheard RTS/CTS, retry with contention-
window growth (31 -> 255 slot times by default, the paper's MaxBO
range) and a retry limit, plus pluggable multirate adaptation consulted
on every attempt.

Fidelity notes: timing is event-accurate at microsecond granularity;
slot-boundary alignment and EIFS are simplified (backoff resumes DIFS
after the medium goes idle), which does not affect any quantity the
paper measures at one-second granularity.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.timing import DOT11B_TIMING
from ..frames import RTS_FRAME_BYTES, FrameType, BROADCAST
from . import phy
from .engine import EventHandle, Simulator
from .medium import Medium, SimFrame
from .phy import BASIC_RATE_MBPS, CONTROL_FRAME_BYTES
from .propagation import Position
from .power_control import TransmitPowerControl
from .rate_adaptation import FixedRate, RateAdaptation

__all__ = ["MacConfig", "MacStats", "DcfMac"]


@dataclass(frozen=True)
class MacConfig:
    """DCF parameters; IFS, slot and CW bounds default to ``DOT11B_TIMING``."""

    sifs_us: int = int(DOT11B_TIMING.sifs_us)
    difs_us: int = int(DOT11B_TIMING.difs_us)
    slot_us: int = int(DOT11B_TIMING.slot_us)
    cw_min: int = DOT11B_TIMING.cw_min
    cw_max: int = DOT11B_TIMING.cw_max
    retry_limit: int = 7
    rts_threshold: int | None = None  # None disables RTS/CTS (the default)
    #: MSDUs larger than this are split into fragments delivered as a
    #: SIFS-spaced burst with per-fragment ACKs (802.11 fragmentation);
    #: None disables fragmentation.  Smaller fragments survive bit
    #: errors better at the cost of per-fragment overhead — the frame
    #: size adaptation studied by Modiano [16] and others the paper
    #: cites in §2.
    fragmentation_threshold: int | None = None
    ack_timeout_margin_us: int = 60
    queue_limit: int = 200


@dataclass
class MacStats:
    """Counters a MAC accumulates over a run (ground-truth diagnostics)."""

    data_attempts: int = 0
    data_successes: int = 0
    data_drops: int = 0
    rts_attempts: int = 0
    cts_received: int = 0
    queue_overflows: int = 0
    delivered_frames: int = 0     # frames received as addressee
    delivered_bytes: int = 0

    @property
    def delivery_ratio(self) -> float:
        if self.data_attempts == 0:
            return 0.0
        return self.data_successes / self.data_attempts


class _State(enum.Enum):
    IDLE = "idle"
    CONTEND = "contend"
    TX = "tx"
    WAIT_CTS = "wait_cts"
    WAIT_ACK = "wait_ack"


@dataclass(slots=True)
class _Pending:
    """The MSDU currently being delivered."""

    dst: int
    size: int                      # size of the *current* fragment
    seq: int
    retries: int = 0
    rate_mbps: float = 11.0
    ftype: FrameType = FrameType.DATA
    fragments: list[int] | None = None   # remaining fragment sizes
    fragment_index: int = 0


class DcfMac:
    """One node's DCF MAC entity, attached to a :class:`Medium`."""

    #: Energy-detect carrier-sense threshold, read by the medium's
    #: listener protocol and the fast engine's hidden-pair graph.
    sense_threshold_dbm = -85.0

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Position,
        channel: int,
        rng: np.random.Generator,
        config: MacConfig | None = None,
        rate_adaptation: RateAdaptation | None = None,
        tx_power_dbm: float = 15.0,
        power_control: TransmitPowerControl | None = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.position = position
        self._channel = channel
        self.rng = rng
        self.config = config or MacConfig()
        self.rate_adaptation = rate_adaptation or FixedRate(11.0)
        self.tx_power_dbm = tx_power_dbm
        self.power_control = power_control
        #: Overhearing a frame addressed elsewhere with no NAV field is a
        #: provable no-op for this MAC (its rate adaptation ignores SNR
        #: feedback and it runs no power control), so the medium may skip
        #: the delivery callback entirely.  Recomputed nowhere: swapping
        #: ``rate_adaptation``/``power_control`` mid-run is unsupported.
        #: False when the adaptation scheme inherits the base class's
        #: no-op SNR hook — reception then skips the dead call.
        self._ra_wants_snr = (
            type(self.rate_adaptation).on_feedback_snr
            is not RateAdaptation.on_feedback_snr
        )
        self.overhear_noop = not self._ra_wants_snr and power_control is None
        self.stats = MacStats()

        self._queue: deque[tuple[int, int, FrameType]] = deque()
        #: ``_state is CONTEND``, set beside every ``_state`` assignment.
        #: The MAC tests it for contention, and the medium peeks it to
        #: skip busy/idle callbacks whose own first statement would be
        #: the not-contending return.
        self.in_contention = False
        self._state = _State.IDLE
        self._pending: _Pending | None = None
        self._cw = self.config.cw_min
        self._backoff_slots = 0
        self._backoff_event: EventHandle | None = None
        self._timeout_event: EventHandle | None = None
        self._nav_until = 0
        self._nav_event: EventHandle | None = None
        self._resume_started_at: int | None = None
        self._seq_counter = 0
        # Set when another station started transmitting in the very
        # microsecond our own backoff expired: a real radio cannot
        # sense a same-slot start before its own transmission begins,
        # so it must transmit anyway — this is precisely how DCF
        # collisions happen.
        self._transmit_despite_busy = False
        # Hot-path constants (the config is frozen after init).
        cfg = self.config
        self._sifs_us = cfg.sifs_us
        self._difs_us = cfg.difs_us
        self._slot_us = cfg.slot_us
        self._cts_duration_us = phy.control_duration_us(FrameType.CTS)
        self._ack_duration_us = phy.control_duration_us(FrameType.ACK)
        medium.attach(self)

    @property
    def channel(self) -> int:
        return self._channel

    @channel.setter
    def channel(self, value: int) -> None:
        """Re-targeting a MAC's channel (roaming, channel management)
        invalidates the medium's cached delivery plans."""
        self._channel = value
        self.medium.notify_topology_changed()

    # -- upper-layer interface -------------------------------------------

    def enqueue(self, dst: int, size: int, ftype: FrameType = FrameType.DATA) -> bool:
        """Queue an MSDU for delivery; returns False on queue overflow."""
        if len(self._queue) >= self.config.queue_limit:
            self.stats.queue_overflows += 1
            return False
        self._queue.append((dst, size, ftype))
        if self._state is _State.IDLE:
            self._begin_next()
        return True

    def enqueue_front(self, dst: int, size: int, ftype: FrameType) -> None:
        """Queue-jumping insert, used for beacons."""
        self._queue.appendleft((dst, size, ftype))
        if self._state is _State.IDLE:
            self._begin_next()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- contention --------------------------------------------------------

    def _begin_next(self) -> None:
        if not self._queue:
            self._state = _State.IDLE
            self.in_contention = False
            return
        dst, size, ftype = self._queue.popleft()
        self._seq_counter = (self._seq_counter + 1) % 4096
        rate = (
            BASIC_RATE_MBPS
            if ftype == FrameType.BEACON
            else self.rate_adaptation.rate_for(dst)
        )
        fragments = self._fragment_sizes(size, ftype, dst)
        self._pending = _Pending(
            dst=dst,
            size=fragments[0] if fragments else size,
            seq=self._seq_counter,
            rate_mbps=rate,
            ftype=ftype,
            fragments=fragments,
        )
        self._cw = self.config.cw_min
        self._draw_backoff()
        self._state = _State.CONTEND
        self.in_contention = True
        self._try_resume()

    def _fragment_sizes(
        self, size: int, ftype: FrameType, dst: int
    ) -> list[int] | None:
        """Split an MSDU into fragment sizes, or None when not fragmenting."""
        threshold = self.config.fragmentation_threshold
        if (
            threshold is None
            or ftype != FrameType.DATA
            or dst == BROADCAST
            or size <= threshold
        ):
            return None
        sizes = [threshold] * (size // threshold)
        if size % threshold:
            sizes.append(size % threshold)
        return sizes

    def _draw_backoff(self) -> None:
        """Draw the next backoff count, uniform over [0, cw] slots.

        One scalar draw per call from the MAC's generator, which nothing
        else consumes once the node is built, so the stream depends only
        on this MAC's own sequence of contention windows.
        """
        self._backoff_slots = int(self.rng.integers(0, self._cw + 1))

    def _try_resume(self) -> None:
        """(Re)arm the backoff-completion timer if the medium allows."""
        if not self.in_contention:
            return
        now = self.sim.now_us
        if self._nav_until > now:
            nav_event = self._nav_event
            if nav_event is None or nav_event.cancelled:
                self._nav_event = self.sim.schedule_at(
                    self._nav_until, self._try_resume
                )
            return
        if not self.medium.is_idle(self):
            return  # on_medium_idle will call us back
        backoff_event = self._backoff_event
        if backoff_event is not None and not backoff_event.cancelled:
            return  # already counting down
        delay = self._difs_us + self._backoff_slots * self._slot_us
        self._resume_started_at = now
        self._backoff_event = self.sim.schedule_in(delay, self._backoff_done)

    def on_medium_busy(self) -> None:
        """Medium callback: freeze a running backoff countdown."""
        if not self.in_contention:
            return
        backoff_event = self._backoff_event
        if backoff_event is not None and not backoff_event.cancelled:
            if backoff_event.time_us <= self.sim.now_us:
                # Backoff expired in this very slot: the concurrent
                # starter is not yet sensible to our radio.  Let the
                # pending completion fire and transmit into the
                # collision (the DCF vulnerability window).
                self._transmit_despite_busy = True
                return
            backoff_event.cancel()
            elapsed = self.sim.now_us - (self._resume_started_at or 0)
            slots_consumed = max(0, (elapsed - self._difs_us)) // self._slot_us
            self._backoff_slots = max(0, self._backoff_slots - int(slots_consumed))
        self._backoff_event = None

    def on_medium_idle(self) -> None:
        """Medium callback: resume the countdown after DIFS."""
        if self.in_contention:
            self._try_resume()

    def _backoff_done(self) -> None:
        self._backoff_event = None
        transmit_anyway = self._transmit_despite_busy
        self._transmit_despite_busy = False
        if not self.in_contention or self._pending is None:
            return
        if self._nav_until > self.sim.now_us or (
            not transmit_anyway and not self.medium.is_idle(self)
        ):
            self._try_resume()
            return
        pending = self._pending
        use_rts = (
            self.config.rts_threshold is not None
            and pending.ftype == FrameType.DATA
            and pending.size >= self.config.rts_threshold
        )
        if use_rts:
            self._send_rts(pending)
        else:
            self._send_data(pending)

    # -- transmission legs --------------------------------------------------

    def _send_rts(self, pending: _Pending) -> None:
        cfg = self.config
        data_dur = phy.data_duration_us(pending.size, pending.rate_mbps)
        nav = (
            3 * cfg.sifs_us
            + self._cts_duration_us
            + data_dur
            + self._ack_duration_us
        )
        frame = SimFrame(
            ftype=FrameType.RTS,
            src=self.node_id,
            dst=pending.dst,
            size=RTS_FRAME_BYTES,
            rate_mbps=BASIC_RATE_MBPS,
            seq=pending.seq,
            retry=pending.retries > 0,
            channel=self.channel,
            nav_us=nav,
        )
        self.stats.rts_attempts += 1
        self._state = _State.TX
        self.in_contention = False
        self.medium.transmit(self, frame, self._power_toward(pending.dst))
        timeout = (
            frame.duration_us
            + cfg.sifs_us
            + self._cts_duration_us
            + cfg.ack_timeout_margin_us
        )
        self._state = _State.WAIT_CTS
        self._timeout_event = self.sim.schedule_in(
            timeout, self._handshake_timeout
        )

    def _send_data(self, pending: _Pending) -> None:
        frame = SimFrame(
            ftype=pending.ftype,
            src=self.node_id,
            dst=pending.dst,
            size=pending.size,
            rate_mbps=pending.rate_mbps,
            seq=pending.seq,
            retry=pending.retries > 0,
            channel=self._channel,
        )
        if pending.ftype == FrameType.DATA:
            self.stats.data_attempts += 1
        duration = self.medium.transmit(
            self, frame, self._power_toward(pending.dst)
        ).frame.duration_us
        self.in_contention = False
        if pending.dst == BROADCAST:
            # Broadcasts are not acknowledged: done at the end of the tx.
            self._state = _State.TX
            self.sim.schedule_in(duration, self._broadcast_done)
            return
        timeout = (
            duration
            + self._sifs_us
            + self._ack_duration_us
            + self.config.ack_timeout_margin_us
        )
        self._state = _State.WAIT_ACK
        self._timeout_event = self.sim.schedule_in(timeout, self._ack_timeout)

    def _broadcast_done(self) -> None:
        self._pending = None
        self._begin_next()

    # -- outcomes --------------------------------------------------------

    def _ack_timeout(self) -> None:
        self._timeout_event = None
        if self._state is not _State.WAIT_ACK or self._pending is None:
            return
        pending = self._pending
        self.rate_adaptation.on_failure(pending.dst)
        self._retry_or_drop(pending)

    def _handshake_timeout(self) -> None:
        self._timeout_event = None
        if self._state is not _State.WAIT_CTS or self._pending is None:
            return
        pending = self._pending
        # A lost handshake is a channel-access failure, not a data-rate
        # failure; classic ARF implementations still count it.
        self.rate_adaptation.on_failure(pending.dst)
        self._retry_or_drop(pending)

    def _retry_or_drop(self, pending: _Pending) -> None:
        pending.retries += 1
        if pending.retries > self.config.retry_limit:
            self.stats.data_drops += 1
            self._pending = None
            self._begin_next()
            return
        self._cw = min((self._cw + 1) * 2 - 1, self.config.cw_max)
        pending.rate_mbps = (
            BASIC_RATE_MBPS
            if pending.ftype == FrameType.BEACON
            else self.rate_adaptation.rate_for(pending.dst)
        )
        self._draw_backoff()
        self._state = _State.CONTEND
        self.in_contention = True
        self._try_resume()

    def _fragment_or_success(self) -> None:
        """An ACK arrived: continue the fragment burst or finish the MSDU."""
        pending = self._pending
        if (
            pending is not None
            and pending.fragments is not None
            and pending.fragment_index < len(pending.fragments) - 1
        ):
            if self._timeout_event is not None:
                self._timeout_event.cancel()
                self._timeout_event = None
            self.rate_adaptation.on_success(pending.dst)
            pending.fragment_index += 1
            pending.size = pending.fragments[pending.fragment_index]
            pending.retries = 0
            self._cw = self.config.cw_min
            # The burst holds the channel: next fragment after SIFS.
            self.sim.schedule_in(
                self.config.sifs_us,
                lambda: self._send_fragment_continuation(pending),
            )
            return
        self._success()

    def _send_fragment_continuation(self, pending: _Pending) -> None:
        if self._pending is not pending:
            return  # superseded by a timeout-driven retry path
        self._send_data(pending)

    def _success(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        pending = self._pending
        if pending is not None:
            self.rate_adaptation.on_success(pending.dst)
            if pending.ftype == FrameType.DATA:
                self.stats.data_successes += 1
        self._pending = None
        self._begin_next()

    # -- reception --------------------------------------------------------

    def _power_toward(self, dst: int) -> float:
        """Per-destination transmit power (closed-loop when TPC is on)."""
        if self.power_control is not None and dst != BROADCAST:
            return self.power_control.power_for(dst)
        return self.tx_power_dbm

    def on_frame_received(self, frame: SimFrame, snr_db: float) -> None:
        """Medium callback: a frame decoded successfully at this node."""
        if self._ra_wants_snr:
            self.rate_adaptation.on_feedback_snr(frame.src, snr_db)
        if self.power_control is not None:
            self.power_control.on_feedback_snr(frame.src, snr_db)

        if frame.dst != self.node_id:
            if frame.nav_us > 0:
                self._set_nav(self.sim.now_us + frame.nav_us)
            return

        if frame.ftype in (FrameType.DATA, FrameType.MGMT):
            self.stats.delivered_frames += 1
            self.stats.delivered_bytes += frame.size
            self._respond(FrameType.ACK, frame.src)
        elif frame.ftype == FrameType.ACK:
            if self._state is _State.WAIT_ACK:
                self._fragment_or_success()
        elif frame.ftype == FrameType.CTS:
            if self._state is _State.WAIT_CTS and self._pending is not None:
                self.stats.cts_received += 1
                if self._timeout_event is not None:
                    self._timeout_event.cancel()
                pending = self._pending
                self.sim.schedule_in(
                    self.config.sifs_us, lambda: self._send_data_after_cts(pending)
                )
        elif frame.ftype == FrameType.RTS:
            self._respond(FrameType.CTS, frame.src, nav_us=frame.nav_us)

    def _send_data_after_cts(self, pending: _Pending) -> None:
        if self._pending is not pending:
            return  # superseded (timeout fired in the SIFS gap)
        self._send_data(pending)

    def _respond(self, ftype: FrameType, dst: int, nav_us: int = 0) -> None:
        """SIFS-spaced control response (ACK or CTS)."""
        remaining_nav = 0
        if ftype == FrameType.CTS and nav_us > 0:
            # CTS re-advertises the remaining reservation.
            remaining_nav = max(
                0,
                nav_us
                - self.config.sifs_us
                - self._cts_duration_us,
            )
        frame = SimFrame(
            ftype=ftype,
            src=self.node_id,
            dst=dst,
            size=CONTROL_FRAME_BYTES[ftype],
            rate_mbps=BASIC_RATE_MBPS,
            channel=self._channel,
            nav_us=remaining_nav,
        )
        self.sim.schedule_in(
            self._sifs_us,
            lambda: self.medium.transmit(self, frame, self._power_toward(dst)),
        )

    def _set_nav(self, until_us: int) -> None:
        if until_us > self._nav_until:
            self._nav_until = until_us
            if self.in_contention:
                self._try_resume()

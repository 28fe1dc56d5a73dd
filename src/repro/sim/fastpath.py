"""Columnar batch-stepped DCF core — the ``fidelity="fast"`` engine.

The default simulator is a discrete-event machine: every backoff slot,
ACK and timeout is one Python callback, which pins it near ~36 us of
order-frozen work per frame (see BENCH_sim.json history).  This module
trades byte-identical event ordering for throughput: it steps a whole
channel cell per *window epoch* (one second,
:data:`~repro.sim.builder.DRAIN_WINDOW_US`, matching the paper's
analysis granularity) with every per-frame quantity held in numpy
arrays.  Each channel cell holds the rows it emits, capture and ground
truth, in :class:`~repro.frames.TraceBuffer` objects until the window's
watermark passes them.  ``run()`` and ``stream()`` are the ones the
default engine has (:class:`~repro.sim.builder.ScenarioRun`) over this
module's window loop, so they simulate the same network.

What stays exact
----------------
* Topology, roles, placements, associations, obstruction shadowing:
  the fast engine wraps a normally built :class:`~repro.sim.builder.
  BuiltScenario`, so the builder's seeded RNG streams are consumed
  identically and the network is the same network the default engine
  would simulate.
* The PHY: frame durations (paper Table 2), the per-bit survival and
  frame success laws (:func:`~repro.sim.phy.log_survival` terms
  recombined vectorised, :func:`~repro.sim.phy.frame_success_probability`,
  :func:`~repro.sim.phy.control_success_probability`) and the decode
  gate (:meth:`~repro.sim.medium.Medium.decode_floor_dbm`).
* Arrival processes: per-flow Poisson counts per 100 ms sub-slice with
  order-statistics uniform placement — an exact Poisson process for
  the same rate schedules.  Each channel cell draws a window's arrivals
  in three calls, whatever its number of flows: the counts over its
  (flow x sub-slice) rate matrix, their placements, and their sizes
  from a pool (see ``FastBuiltScenario._generate_arrivals``).
* The capture model: sniffer audibility, SNR-dependent decode and the
  load-proportional hardware-drop law from
  :class:`~repro.sim.sniffer.SnifferConfig`.

What is relaxed (and validated statistically instead of by digest)
------------------------------------------------------------------
* RNG draw order and event interleaving: frames are serialised per
  window with a vectorised Lindley recursion
  (``start_i = max(arrival_i, finish_{i-1})``), not one event per slot.
* Contention: collisions are sampled from a hidden-terminal coupling
  model — per-source airtime measured over recent windows against the
  carrier-sense graph — instead of per-slot medium arbitration.
* Rate selection: each link transmits at the rate the one SNR-oracle
  rule picks for its clean SNR (:func:`~repro.sim.phy.best_rate_for_snr`:
  the fastest rate whose :data:`~repro.sim.phy.RATE_REFERENCE_BYTES`
  frame error probability stays within
  :data:`~repro.sim.phy.RATE_TARGET_PER`) — the stationary point ARF
  hovers around — instead of per-ACK ladder moves.

``tests/sim/test_fast_fidelity.py`` holds the contract: delivery
ratio, channel utilization and busy-time share must agree with the
default engine within bootstrap confidence bands across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.timing import DOT11B_TIMING
from ..frames import (
    ACK_FRAME_BYTES,
    ASSOC_FRAME_BYTES,
    BEACON_BODY_BYTES,
    BROADCAST,
    CTS_FRAME_BYTES,
    DOT11_RATES_MBPS,
    RTS_FRAME_BYTES,
    FrameType,
    NodeRoster,
    Trace,
    TraceBuffer,
    rate_to_code,
)
from . import phy
from .builder import DRAIN_WINDOW_US, BuiltScenario, ScenarioRun
from .node import BEACON_INTERVAL_US
from .phy import BASIC_RATE_MBPS, CONTROL_FRAME_BYTES, PLCP_HEADER_BITS
from .propagation import NOISE_FLOOR_DBM
from .traffic import size_pool

__all__ = ["FIDELITY_MODES", "FastBuiltScenario"]

#: The engine fidelities a scenario can be built at.
FIDELITY_MODES = ("default", "fast")

#: Draws pre-sampled from the configured size mixture at init; window
#: steps bootstrap-resample this pool instead of calling the scalar
#: sampler once per frame.
_SIZE_POOL = 4096

#: Rate-schedule evaluation granularity inside a window.  100 ms keeps
#: ``LinearRamp`` faithful and divides the 1 s ``ModulatedRate`` epoch.
_SUBSLICE_US = 100_000

#: Sub-slice starts relative to a flow's first edge in a window: enough
#: 100 ms sub-slices to cover a whole window.
_SUBSLICE_OFFSETS = np.arange(0, DRAIN_WINDOW_US, _SUBSLICE_US, dtype=np.int64)

#: Beacon times relative to an AP's first beacon in a window: a window
#: holds at most this many beacons.
_BEACON_OFFSETS = np.arange(
    0, DRAIN_WINDOW_US, BEACON_INTERVAL_US, dtype=np.int64
)

#: EWMA weight for the measured per-source airtime that drives the
#: next window's hidden-terminal collision probability.
_BUSY_EWMA = 0.5

#: Hidden-terminal vulnerability factor.  A frame of duration T is lost
#: when a station hidden from its transmitter starts anywhere inside
#: ``T + T_hidden`` — roughly twice its own airtime for comparable
#: frame lengths — so overlap probability is ``1 - exp(-k * busy)``
#: against the hidden cohort's busy fraction.  k sits a notch above
#: the geometric ~2 because the event engine charges an overlapping
#: interferer's full power for the whole frame (see Medium._finish),
#: which is harsher than proportional-overlap corruption.  Calibrated
#: on uniform n={3,10,20} x seeds {7,21,42} against the default
#: engine's delivery ratios.
_HIDDEN_COUPLING = 2.5

#: Probability that a retry reuses the job-level hidden-collision draw
#: instead of a fresh one.  Hidden pairs cannot see each other, so
#: after a collision both sides retry into the same interference and
#: re-collide — the retry storms that saturate hidden victims in the
#: event engine.  1.0 would doom a colliding job for all its retries;
#: 0.0 would make attempts independent.
_HIDDEN_PERSIST = 0.8

_DATA = int(FrameType.DATA)
_MGMT = int(FrameType.MGMT)
_BEACON = int(FrameType.BEACON)

#: The frame types of a window's jobs, in the order they are drawn.
_JOB_FTYPES = np.array([_MGMT, _DATA, _BEACON], dtype=np.int64)

#: ``CONTROL_FRAME_BYTES`` indexed by frame type (0 for DATA and MGMT,
#: whose error law counts their body instead).
_CONTROL_BYTES = np.array(
    [CONTROL_FRAME_BYTES.get(ftype, 0) for ftype in FrameType], dtype=np.int64
)


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Each element's rank among the elements with its key, in order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.arange(len(keys))
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = sorted_keys[1:] != sorted_keys[:-1]
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(opens, pos, 0))
    return rank


@dataclass
class _FastMediumStats:
    """Stands in for ``ScenarioResult.medium`` after a fast run."""

    frames_transmitted: int = 0


@dataclass(frozen=True)
class _CellFlows:
    """What a channel cell's arrivals are drawn from, fixed at build.

    ``traffic`` lists the cell's traffic flows with each one's activity
    window [``start``, ``end``) and its rate schedule's index in
    ``FastBuiltScenario._schedules``; ``assoc`` the uplink flows whose
    station associates at ``assoc_at``; ``beacons`` the cell's AP
    beacon flows, each beaconing at ``beacon_at`` modulo the interval.
    """

    traffic: np.ndarray
    start: np.ndarray
    end: np.ndarray
    sched: np.ndarray
    assoc: np.ndarray
    assoc_at: np.ndarray
    beacons: np.ndarray
    beacon_at: np.ndarray


class _ChannelCell:
    """Mutable per-channel scheduling state carried across windows."""

    __slots__ = ("flows", "busy_until", "backlog", "capture", "truth", "src_busy")

    def __init__(self, flows: _CellFlows, max_id: int) -> None:
        self.flows = flows
        self.busy_until = 0
        #: Jobs whose service did not start before the window closed:
        #: dict of flow/arrival/size/seq/ftype arrays, or None.
        self.backlog: dict[str, np.ndarray] | None = None
        #: Emitted rows held until the window watermark passes them: a
        #: backed-up channel may compute rows seconds ahead of a quiet
        #: one, and the merged stream must stay time-sorted.
        self.capture = TraceBuffer()
        self.truth = TraceBuffer()
        #: EWMA per-source transmit airtime fraction from past windows;
        #: drives the hidden-terminal loss term of the next window.
        self.src_busy = np.zeros(max_id, dtype=np.float64)


class FastBuiltScenario(ScenarioRun):
    """A built scenario that runs on the columnar fast engine.

    Exposes the same surface as :class:`~repro.sim.builder.
    BuiltScenario` — ``run()``, ``stream()``, ``roster``,
    ``perf_counters`` and the headline counters — so campaigns,
    benchmarks and the pipeline drive either engine unchanged.
    """

    fidelity = "fast"

    def __init__(self, built: BuiltScenario) -> None:
        self._built = built
        self.config = built.config
        self.sim = built.sim
        self._rng = np.random.default_rng([int(built.config.seed), 0xFA57])

        self.frames_transmitted = 0
        self.frames_captured = 0
        self._offered = 0
        self._data_attempts = 0
        self._data_successes = 0
        self._data_drops = 0
        self._queue_overflows = 0
        self._windows_stepped = 0
        self._jobs_batched = 0

        self._extract_topology(built)

    # ------------------------------------------------------------------
    # topology extraction (runs once, scalar math is fine here)
    # ------------------------------------------------------------------

    def _extract_topology(self, built: BuiltScenario) -> None:
        config = built.config
        propagation = built.propagation
        noise = NOISE_FLOOR_DBM
        decode_floor_dbm = built.medium.decode_floor_dbm

        macs = {ap.node_id: ap.mac for ap in built.aps}
        macs.update({s.node_id: s.mac for s in built.stations})

        def link_power(tx_id: int, rx_id: int) -> float:
            tx, rx = macs[tx_id], macs[rx_id]
            return propagation.received_power_dbm(
                tx.tx_power_dbm, tx.position, rx.position, tx_id=tx_id, rx_id=rx_id
            )

        # Bootstrap pool for the configured size mixture: the first
        # _SIZE_POOL draws of the sampler, then windows resample the
        # pool with vectorised integer draws.
        self._size_pool = size_pool(
            config.size_mix, [int(config.seed), 0x512E], _SIZE_POOL
        )

        # Hidden-pair matrix.  A transmission from s collides when a
        # node h that cannot carrier-sense s starts mid-frame, or when
        # s itself starts over an in-flight frame it cannot sense — so
        # the vulnerable set for s is symmetric: pairs where either
        # side fails to sense the other.  Overlap analysis of the event
        # engine shows this is essentially its *only* collision source
        # (same-slot backoff ties are ~one in thousands of frames).
        # Losses are fed by each window's measured per-source airtime
        # (see _step_cell).
        ids = sorted(macs)
        self._max_id = max(ids) + 1
        cant_sense = np.zeros((self._max_id, self._max_id), dtype=bool)
        for s_id in ids:
            s_mac = macs[s_id]
            for h_id in ids:
                if h_id != s_id and link_power(h_id, s_id) < s_mac.sense_threshold_dbm:
                    cant_sense[s_id, h_id] = True
        self._hidden = cant_sense | cant_sense.T

        # Channel visibility: the share of the room that carrier-senses
        # each node.  A transmission only occupies the *shared* channel
        # timeline to the extent other contenders defer to it — a badly
        # shadowed station nobody senses transmits in parallel with
        # everyone else (that is what being hidden means), so its
        # airtime must not serialise against the cohort's.
        n_others = max(len(ids) - 1, 1)
        self._visibility = np.ones(self._max_id, dtype=np.float64)
        for s_id in ids:
            unseen = int(cant_sense[:, s_id].sum())
            self._visibility[s_id] = max(1.0 - unseen / n_others, 0.05)

        # Sniffer-side per-node decode terms.  Sniffers are co-located
        # (one per channel at the same position), so one geometry pass
        # covers every channel.
        sniffer = built.sniffers[0]
        self._sniff_cfg = sniffer.config
        max_id = max(macs) + 1
        self._sniff_snr = np.zeros(max_id, dtype=np.float64)
        self._sniff_audible = np.zeros(max_id, dtype=bool)
        #: log(1-BER) at the sniffer per node and 802.11b rate code;
        #: column 0 (1 Mbps) also covers PLCP headers + control bodies.
        self._sniff_lr = np.zeros((max_id, len(DOT11_RATES_MBPS)), dtype=np.float64)
        for node_id, mac in macs.items():
            power = propagation.received_power_dbm(
                mac.tx_power_dbm,
                mac.position,
                sniffer.position,
                tx_id=node_id,
                rx_id=sniffer.node_id,
            )
            snr = power - noise
            self._sniff_snr[node_id] = snr
            self._sniff_audible[node_id] = power >= self._sniff_cfg.sensitivity_dbm
            for code, rate in enumerate(DOT11_RATES_MBPS):
                self._sniff_lr[node_id, code] = phy.log_survival(snr, rate)

        # -- flows: uplink + downlink per station, one beacon flow per AP
        flow_src: list[int] = []
        flow_dst: list[int] = []
        flow_rate: list[float] = []
        flow_chan: list[int] = []
        flow_rts: list[bool] = []
        flow_l1: list[float] = []   # link log(1-BER) at 1 Mbps (header)
        flow_lr: list[float] = []   # link log(1-BER) at the flow rate
        flow_p_ack: list[float] = []
        flow_p_hand: list[float] = []
        flow_hidw: list[np.ndarray] = []

        def hidden_weights(src, dst, rate, fwd_power):
            """Per-interferer loss probability given a hidden overlap.

            A station is usually hidden *because* its signal is weak, and
            a weak interferer rarely corrupts — the capture effect.  The
            weight is the extra frame loss at the receiver with the
            interferer's power added to the noise floor (SINR), so storm
            traffic from a barely-audible corner of the room discounts
            itself while a strong hidden peer scores ~1.
            """
            row = np.zeros(self._max_id, dtype=np.float64)
            p_clean = phy.frame_success_probability(
                fwd_power - noise, phy.RATE_REFERENCE_BYTES, rate
            )
            for h in ids:
                if h == src or not self._hidden[src, h]:
                    continue
                if h == dst:
                    row[h] = 1.0       # the receiver itself transmitting
                    continue
                interference = link_power(h, dst)
                snr_eff = fwd_power - 10.0 * math.log10(
                    10.0 ** (noise / 10.0) + 10.0 ** (interference / 10.0)
                )
                p_eff = phy.frame_success_probability(
                    snr_eff, phy.RATE_REFERENCE_BYTES, rate
                )
                row[h] = min(1.0, max(0.0, 1.0 - p_eff / max(p_clean, 1e-12)))
            return row

        def add_flow(src, dst, channel, rts, beacon=False):
            if beacon:
                snr, rate = 40.0, BASIC_RATE_MBPS
            else:
                snr = link_power(src, dst) - noise
                rate = phy.best_rate_for_snr(snr)
            flow_src.append(src)
            flow_dst.append(dst)
            flow_rate.append(rate)
            flow_chan.append(channel)
            flow_rts.append(rts)
            flow_l1.append(phy.log_survival(snr, BASIC_RATE_MBPS))
            flow_lr.append(phy.log_survival(snr, rate))
            if beacon:
                flow_p_ack.append(1.0)
                flow_p_hand.append(1.0)
                flow_hidw.append(np.zeros(self._max_id, dtype=np.float64))
            else:
                # The medium's decode gate: a frame (or its ACK/CTS)
                # below the receiver's decode floor never succeeds,
                # whatever the BER says — this is what makes a badly
                # shadowed station's link *dead* rather than lossy,
                # and its retry storms are real traffic.
                fwd_power = link_power(src, dst)
                rev_power = link_power(dst, src)
                rev = rev_power - noise
                alive = float(
                    fwd_power >= decode_floor_dbm(macs[dst])
                    and rev_power >= decode_floor_dbm(macs[src])
                )
                flow_p_ack.append(
                    alive * phy.control_success_probability(rev, FrameType.ACK)
                )
                flow_p_hand.append(
                    alive
                    * phy.control_success_probability(snr, FrameType.RTS)
                    * phy.control_success_probability(rev, FrameType.CTS)
                )
                flow_hidw.append(hidden_weights(src, dst, rate, fwd_power))

        # Traffic flows 2j and 2j+1 are station j's uplink and downlink,
        # in the order of their sources in built.sources.
        for j, station in enumerate(built.stations):
            add_flow(
                station.node_id, station.ap_id, station.mac.channel,
                built.roles[j].uses_rtscts,
            )
            add_flow(station.ap_id, station.node_id, station.mac.channel, False)
        n_traffic = len(flow_src)
        beacon_at: list[int] = []
        for ap in built.aps:
            add_flow(ap.node_id, BROADCAST, ap.channel, False, beacon=True)
            beacon_at.append(int(self._rng.integers(0, BEACON_INTERVAL_US)))

        self.flow_src = np.array(flow_src, dtype=np.int64)
        self.flow_dst = np.array(flow_dst, dtype=np.int64)
        self.flow_rate_code = np.array(
            [rate_to_code(r) for r in flow_rate], dtype=np.int64
        )
        self.flow_chan = np.array(flow_chan, dtype=np.int64)
        self.flow_rts = np.array(flow_rts, dtype=bool)
        self.flow_l1 = np.array(flow_l1, dtype=np.float64)
        self.flow_lr = np.array(flow_lr, dtype=np.float64)
        self.flow_p_ack = np.array(flow_p_ack, dtype=np.float64)
        self.flow_p_hand = np.array(flow_p_hand, dtype=np.float64)
        self.flow_hidw = np.array(flow_hidw, dtype=np.float64)
        self._rates_by_code = np.array(DOT11_RATES_MBPS, dtype=np.float64)

        self._seq_counter = np.zeros(max_id, dtype=np.int64)

        mac_cfg = config.mac_config
        self._sifs = int(mac_cfg.sifs_us)
        self._difs = int(mac_cfg.difs_us)
        self._slot = int(mac_cfg.slot_us)
        self._retry_limit = int(mac_cfg.retry_limit)
        self._queue_limit = int(mac_cfg.queue_limit)
        self._ack_margin = int(mac_cfg.ack_timeout_margin_us)
        self._ack_dur = phy.control_duration_us(FrameType.ACK)
        self._cts_dur = phy.control_duration_us(FrameType.CTS)
        self._rts_dur = phy.control_duration_us(FrameType.RTS)
        self._beacon_dur = phy.control_duration_us(FrameType.BEACON)
        # Contention-window ladder per attempt: 31, 63, 127, 255, 255...
        ladder, cw = [], mac_cfg.cw_min
        for _ in range(self._retry_limit + 1):
            ladder.append(cw)
            cw = min((cw + 1) * 2 - 1, mac_cfg.cw_max)
        self._cw_ladder = np.array(ladder, dtype=np.float64)

        # Each traffic flow's activity window, and its rate schedule as
        # an index into the distinct schedules (by identity).
        sources = built.sources
        distinct = {id(source.schedule): source.schedule for source in sources}
        self._schedules = list(distinct.values())
        slot = {key: i for i, key in enumerate(distinct)}
        sched = np.array([slot[id(s.schedule)] for s in sources], dtype=np.int64)
        start = np.array([s.start_us for s in sources], dtype=np.int64)
        end = np.array(
            [config.duration_us if s.end_us is None else s.end_us for s in sources],
            dtype=np.int64,
        )
        beacon_at = np.array(beacon_at, dtype=np.int64)

        def cell_flows(channel: int) -> _CellFlows:
            on = self.flow_chan == channel
            traffic = np.flatnonzero(on[:n_traffic])
            # Uplink flows sit at even indices; a station that is ever
            # active associates at its activity start.
            assoc = traffic[(traffic % 2 == 0) & (start[traffic] < end[traffic])]
            beacons = np.flatnonzero(on[n_traffic:])
            return _CellFlows(
                traffic, start[traffic], end[traffic], sched[traffic],
                assoc, start[assoc], n_traffic + beacons, beacon_at[beacons],
            )

        self._channels = [int(c) for c in config.channels]
        self._cells = {
            c: _ChannelCell(cell_flows(c), self._max_id) for c in self._channels
        }

    # ------------------------------------------------------------------
    # public surface (BuiltScenario parity)
    # ------------------------------------------------------------------

    @property
    def roster(self) -> NodeRoster:
        return self._built.roster

    @property
    def offered_packets(self) -> int:
        return self._offered

    @property
    def delivery_ratio(self) -> float:
        if not self._data_attempts:
            return 0.0
        return self._data_successes / self._data_attempts

    @property
    def perf_counters(self) -> dict[str, int]:
        """Batch-engine diagnostics.

        The event-loop counters are structurally zero here — nothing is
        heap-scheduled — while ``slot_epochs`` and ``batched_jobs``
        report the columnar work instead, so profiles and benchmark
        reports can tell the two engine shapes apart.
        """
        return {
            "frames_transmitted": self.frames_transmitted,
            "events_processed": 0,
            "events_cancelled": 0,
            "events_pending": 0,
            "slot_epochs": self._windows_stepped,
            "batched_jobs": self._jobs_batched,
        }

    def _result(self, trace: Trace, ground_truth: Trace):
        from .scenarios import ScenarioResult

        return ScenarioResult(
            trace=trace,
            ground_truth=ground_truth,
            roster=self.roster,
            stations=self._built.stations,
            aps=self._built.aps,
            sniffers=self._built.sniffers,
            medium=_FastMediumStats(frames_transmitted=self.frames_transmitted),
            sim=self.sim,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # the window loop
    # ------------------------------------------------------------------

    def _windows(self, keep_truth: bool):
        """Step every channel cell through each window, then drain the
        cells of the rows stamped before the window's end (everything at
        the run's end)."""
        duration = self.config.duration_us
        cells = self._cells.values()
        t0 = 0
        while t0 < duration:
            t1 = min(t0 + DRAIN_WINDOW_US, duration)
            for channel in self._channels:
                self._step_cell(self._cells[channel], channel, t0, t1, keep_truth)
            self._windows_stepped += 1
            until = None if t1 >= duration else t1
            capture = Trace.concatenate([c.capture.drain(until) for c in cells])
            truth = None
            if keep_truth:
                truth = Trace.concatenate([c.truth.drain(until) for c in cells])
            yield capture, truth
            t0 = t1

    # -- one channel, one window ----------------------------------------

    def _step_cell(
        self, cell: _ChannelCell, channel: int, t0: int, t1: int, keep_truth: bool
    ) -> None:
        rng = self._rng
        jflow, jarr, jsize, jftype = self._generate_arrivals(cell.flows, t0, t1)

        n_backlog = 0
        jseq_backlog = np.empty(0, dtype=np.int64)
        if cell.backlog is not None:
            b = cell.backlog
            n_backlog = len(b["flow"])
            jflow = np.concatenate([b["flow"], jflow])
            jarr = np.concatenate([b["arrival"], jarr])
            jsize = np.concatenate([b["size"], jsize])
            jftype = np.concatenate([b["ftype"], jftype])
            jseq_backlog = b["seq"]
            cell.backlog = None

        n = len(jflow)
        if n == 0:
            cell.busy_until = max(cell.busy_until, t0)
            cell.src_busy *= 1.0 - _BUSY_EWMA
            return

        order = np.argsort(jarr, kind="stable")
        jflow, jarr = jflow[order], jarr[order]
        jsize, jftype = jsize[order], jftype[order]

        # Sequence numbers: backlogged jobs keep the ones assigned at
        # their original arrival; fresh jobs get per-source modulo-4096
        # MSDU counters in arrival order, mirroring the per-MAC counter.
        jseq = np.empty(n, dtype=np.int64)
        fresh_pos = np.flatnonzero(order >= n_backlog)
        back_pos = np.flatnonzero(order < n_backlog)
        jseq[back_pos] = jseq_backlog[order[back_pos]]
        if len(fresh_pos):
            jseq[fresh_pos] = self._assign_seqs(self.flow_src[jflow[fresh_pos]])

        self._jobs_batched += n

        is_beacon = jftype == _BEACON
        is_data = jftype == _DATA
        use_rts = self.flow_rts[jflow] & ~is_beacon
        rate_code = np.where(is_beacon, 0, self.flow_rate_code[jflow])
        rate = self._rates_by_code[rate_code]
        body_bits = 8.0 * (DOT11B_TIMING.mac_overhead_bytes + jsize)
        data_dur = np.where(
            is_beacon,
            float(self._beacon_dur),
            np.round(DOT11B_TIMING.plcp_us + body_bits / rate),
        ).astype(np.int64)

        # -- per-attempt success draws ----------------------------------
        p_frame = np.exp(
            PLCP_HEADER_BITS * self.flow_l1[jflow]
            + body_bits * self.flow_lr[jflow]
        )

        # Hidden-terminal losses — the engine's collision model.  A
        # transmitter cannot defer to stations it cannot sense (nor
        # they to it), so its frame is clobbered in proportion to the
        # hidden cohort's airtime measured over recent windows.
        # RTS/CTS flows are vulnerable only at the short handshake — the
        # CTS silences hidden stations for the data leg, which is the
        # paper's motivation for the handshake.
        jsrc = self.flow_src[jflow]
        hid_exposure = self.flow_hidw[jflow] @ cell.src_busy
        no_hid = np.exp(-_HIDDEN_COUPLING * hid_exposure)[:, None]

        A = self._retry_limit + 1
        link_p = (p_frame * self.flow_p_ack[jflow])[:, None]

        # Hidden collisions are sticky across a job's retries: the two
        # sides of a hidden pair cannot coordinate, so both retry into
        # the same interference.  Each attempt reuses the job-level
        # uniform with probability _HIDDEN_PERSIST, else redraws.
        u_job = rng.random(n)[:, None]
        u_att = rng.random((n, A))
        sticky = rng.random((n, A)) < _HIDDEN_PERSIST
        hid_ok = np.where(sticky, u_job, u_att) < no_hid

        # RTS flows resolve contention at the handshake (the CTS
        # silences hidden stations for the data leg); plain flows are
        # exposed at the data frame itself.
        link_hand = np.where(
            use_rts[:, None], self.flow_p_hand[jflow][:, None], 1.0
        )
        hand_ok = (rng.random((n, A)) < link_hand) & (
            hid_ok | ~use_rts[:, None]
        )
        attempt_ok = (
            hand_ok
            & (rng.random((n, A)) < link_p)
            & (hid_ok | use_rts[:, None])
        )
        attempt_ok[is_beacon] = True       # broadcasts never retry
        delivered = attempt_ok.any(axis=1)
        natt = np.where(delivered, attempt_ok.argmax(axis=1) + 1, A)
        natt = np.where(is_beacon, 1, natt)

        used = np.arange(A)[None, :] < natt[:, None]
        success = attempt_ok & used
        backoff = np.floor(
            rng.random((n, A)) * (self._cw_ladder[None, :] + 1.0)
        ).astype(np.int64)

        # -- per-attempt durations --------------------------------------
        pre = self._difs + backoff * self._slot
        rts_leg = np.where(
            use_rts[:, None],
            np.where(
                hand_ok,
                self._rts_dur + self._sifs + self._cts_dur + self._sifs,
                self._rts_dur + self._sifs + self._cts_dur + self._ack_margin,
            ),
            0,
        )
        data_reached = ~use_rts[:, None] | hand_ok
        ack_tail = np.where(
            success,
            self._sifs + self._ack_dur,
            self._sifs + self._ack_dur + self._ack_margin,
        )
        ack_tail[is_beacon] = 0
        data_leg = np.where(data_reached, data_dur[:, None] + ack_tail, 0)
        att_dur = np.where(used, pre + rts_leg + data_leg, 0)
        service = att_dur.sum(axis=1)

        # -- serialise the channel (vectorised Lindley recursion) -------
        # Each job's full airtime stamps its emitted rows, but it only
        # advances the shared channel clock by its visibility-scaled
        # share: transmissions nobody senses overlap instead of
        # queueing, which is how the event engine's channel airtime
        # exceeds 1.0 under hidden-terminal storms.
        base = max(cell.busy_until, t0)
        arr_eff = np.maximum(jarr, base)
        service_eff = service * self._visibility[jsrc]
        cum = np.cumsum(service_eff)
        finish = (
            np.maximum.accumulate(arr_eff - np.concatenate(([0], cum[:-1]))) + cum
        )
        start = finish - service_eff

        kept = start < t1
        if not kept.all():
            spill_idx = np.flatnonzero(~kept)
            # MAC queue cap on the carried backlog: jobs are in arrival
            # order, so per-source drop-tail beyond queue_limit matches
            # the event engine's 200-deep instantaneous queue.
            hold = self._cap_backlog(self.flow_src[jflow[spill_idx]])
            spill_idx = spill_idx[hold]
            cell.backlog = {
                "flow": jflow[spill_idx],
                "arrival": jarr[spill_idx],
                "size": jsize[spill_idx],
                "seq": jseq[spill_idx],
                "ftype": jftype[spill_idx],
            }
        n_kept = int(np.count_nonzero(kept))
        if n_kept == 0:
            cell.busy_until = max(base, t1)
            cell.src_busy *= 1.0 - _BUSY_EWMA
            return
        cell.busy_until = max(t1, int(finish[kept][-1]))

        # Per-source transmit airtime this window feeds the next
        # window's hidden-terminal exposure.  Only the transmitter-side
        # legs count: RTS frames plus reached data/beacon frames.
        # Spilled jobs count too: the event engine does not serialise
        # hidden transmissions, so its channel airtime can exceed 1.0
        # under saturation — demanded airtime, not served airtime, is
        # what a hidden listener is exposed to.
        tx_us = (
            (used & use_rts[:, None]).astype(np.float64) * self._rts_dur
            + (used & data_reached).astype(np.float64) * data_dur[:, None]
        ).sum(axis=1)
        busy_frac = (
            np.bincount(jsrc, weights=tx_us, minlength=self._max_id)
            / float(t1 - t0)
        )
        cell.src_busy = (
            (1.0 - _BUSY_EWMA) * cell.src_busy + _BUSY_EWMA * busy_frac
        )

        self._emit_rows(
            cell, channel, keep_truth,
            jflow[kept], jsize[kept], jseq[kept], jftype[kept],
            rate_code[kept], data_dur[kept], is_beacon[kept], use_rts[kept],
            used[kept], success[kept], hand_ok[kept],
            att_dur[kept], backoff[kept], start[kept],
            delivered[kept], is_data[kept],
        )

    # -- arrivals --------------------------------------------------------

    def _generate_arrivals(self, flows: _CellFlows, t0: int, t1: int):
        """Association MGMT, Poisson DATA and beacons for [t0, t1).

        Each traffic flow's active part of the window, from
        ``max(t0, start)`` to ``min(t1, end)``, is cut into 100 ms
        sub-slices offered at the flow's rate at their midpoints.  The
        cell then makes three draws: one ``rng.poisson`` over its
        (flow x sub-slice) rate matrix, one ``rng.random`` placing every
        arrival uniformly in its sub-slice, and one ``rng.integers``
        picking their sizes from the pool.
        """
        rng = self._rng
        lo = np.maximum(flows.start, t0)
        hi = np.minimum(flows.end, t1)
        edges = lo[:, None] + _SUBSLICE_OFFSETS
        widths = np.minimum(edges + _SUBSLICE_US, hi[:, None]) - edges
        live = widths > 0
        # One rate_at call per distinct (schedule, sub-slice midpoint).
        span = self.config.duration_us
        keys, inverse = np.unique(
            (flows.sched[:, None] * span + edges + widths // 2)[live],
            return_inverse=True,
        )
        rates = np.array(
            [self._schedules[k // span].rate_at(k % span) for k in keys.tolist()],
            dtype=np.float64,
        )
        lam = np.zeros(edges.shape)
        lam[live] = np.maximum(rates[inverse], 0.0) * (widths[live] / 1e6)
        counts = rng.poisson(lam)
        per_slice = counts.ravel()
        total = int(per_slice.sum())
        self._offered += total
        arrivals = (
            np.repeat(edges.ravel(), per_slice)
            + rng.random(total) * np.repeat(widths.ravel(), per_slice)
        ).astype(np.int64)
        sizes = self._size_pool[rng.integers(0, _SIZE_POOL, total)]

        due = (t0 <= flows.assoc_at) & (flows.assoc_at < t1)
        assoc, assoc_at = flows.assoc[due], flows.assoc_at[due]

        at = flows.beacon_at
        first = at - (at - t0) // BEACON_INTERVAL_US * BEACON_INTERVAL_US
        beacon_times = first[:, None] + _BEACON_OFFSETS
        sent = beacon_times < t1
        beacons = np.broadcast_to(flows.beacons[:, None], sent.shape)[sent]
        beacon_times = beacon_times[sent]

        n_assoc, n_beacon = len(assoc), len(beacons)
        return (
            np.concatenate(
                (assoc, np.repeat(flows.traffic, counts.sum(axis=1)), beacons)
            ),
            np.concatenate((assoc_at, arrivals, beacon_times)),
            np.concatenate(
                (
                    np.full(n_assoc, ASSOC_FRAME_BYTES, dtype=np.int64),
                    sizes,
                    np.full(n_beacon, BEACON_BODY_BYTES, dtype=np.int64),
                )
            ),
            np.repeat(_JOB_FTYPES, (n_assoc, total, n_beacon)),
        )

    def _assign_seqs(self, src_ids: np.ndarray) -> np.ndarray:
        """Per-source modulo-4096 MSDU counters, in the order given."""
        counter = self._seq_counter
        seqs = (counter[src_ids] + 1 + _rank_within(src_ids)) % 4096
        self._seq_counter = (
            counter + np.bincount(src_ids, minlength=len(counter))
        ) % 4096
        return seqs

    def _cap_backlog(self, spill_src: np.ndarray) -> np.ndarray:
        """Keep-mask limiting each source's carried backlog (drop-tail).

        ``spill_src`` is in arrival order, so ranking each job within
        its source and cutting at ``queue_limit`` drops the latest
        arrivals — what a full MAC queue does.
        """
        keep = _rank_within(spill_src) < self._queue_limit
        self._queue_overflows += len(keep) - int(np.count_nonzero(keep))
        return keep

    # -- row emission ----------------------------------------------------

    def _emit_rows(
        self, cell, channel, keep_truth,
        jflow, jsize, jseq, jftype, rate_code, data_dur, is_beacon, use_rts,
        used, success, hand_ok, att_dur, backoff, start, delivered, is_data,
    ) -> None:
        n, A = used.shape
        src = self.flow_src[jflow]
        dst = self.flow_dst[jflow]
        basic_code = rate_to_code(BASIC_RATE_MBPS)

        att_start = start[:, None] + np.cumsum(att_dur, axis=1) - att_dur
        pre = self._difs + backoff * self._slot
        retry_bit = np.broadcast_to(np.arange(A)[None, :] > 0, used.shape)

        cols: dict[str, list[np.ndarray]] = {
            k: []
            for k in (
                "time_us", "ftype", "rate_code", "size", "src", "dst",
                "retry", "seq",
            )
        }

        def add(mask, time2d, ftype_rows, rc_rows, size_rows, src_rows,
                dst_rows, retry2d, seq_rows):
            ji, ai = np.nonzero(mask)
            count = len(ji)
            if not count:
                return
            cols["time_us"].append(time2d[ji, ai].astype(np.int64))
            cols["ftype"].append(np.broadcast_to(ftype_rows, (n,))[ji])
            cols["rate_code"].append(np.broadcast_to(rc_rows, (n,))[ji])
            cols["size"].append(np.broadcast_to(size_rows, (n,))[ji])
            cols["src"].append(src_rows[ji])
            cols["dst"].append(dst_rows[ji])
            if retry2d is None:
                cols["retry"].append(np.zeros(count, dtype=bool))
            else:
                cols["retry"].append(retry2d[ji, ai])
            if seq_rows is None:
                cols["seq"].append(np.zeros(count, dtype=np.int64))
            else:
                cols["seq"].append(seq_rows[ji])

        # RTS attempts (every used attempt of an RTS job).
        rts_mask = used & use_rts[:, None]
        rts_time = att_start + pre
        add(rts_mask, rts_time, np.int64(int(FrameType.RTS)),
            np.int64(basic_code), np.int64(RTS_FRAME_BYTES),
            src, dst, retry_bit, jseq)

        # CTS responses where the handshake succeeded.
        cts_mask = rts_mask & hand_ok
        cts_time = rts_time + self._rts_dur + self._sifs
        add(cts_mask, cts_time, np.int64(int(FrameType.CTS)),
            np.int64(basic_code), np.int64(CTS_FRAME_BYTES),
            dst, src, None, None)

        # DATA / MGMT / BEACON transmissions.
        data_mask = used & (~use_rts[:, None] | hand_ok)
        data_time = np.where(
            use_rts[:, None],
            cts_time + self._cts_dur + self._sifs,
            att_start + pre,
        )
        add(data_mask, data_time, jftype, rate_code, jsize,
            src, dst, retry_bit, jseq)

        # ACKs for delivered attempts (broadcasts are never acked).
        ack_mask = success & ~is_beacon[:, None]
        ack_time = data_time + data_dur[:, None] + self._sifs
        add(ack_mask, ack_time, np.int64(int(FrameType.ACK)),
            np.int64(basic_code), np.int64(ACK_FRAME_BYTES),
            dst, src, None, None)

        if not cols["time_us"]:
            return
        time_us = np.concatenate(cols["time_us"])
        ftype = np.concatenate(cols["ftype"])
        rcodes = np.concatenate(cols["rate_code"])
        sizes = np.concatenate(cols["size"])
        srcs = np.concatenate(cols["src"])
        dsts = np.concatenate(cols["dst"])
        retries = np.concatenate(cols["retry"])
        seqs = np.concatenate(cols["seq"])
        n_rows = len(time_us)

        # -- MAC stats ---------------------------------------------------
        self._data_attempts += int((data_mask & is_data[:, None]).sum())
        self._data_successes += int((delivered & is_data).sum())
        self._data_drops += int((~delivered & is_data).sum())

        # -- capture filter ---------------------------------------------
        audible = self._sniff_audible[srcs]
        is_payload = (ftype == _DATA) | (ftype == _MGMT)
        ctrl_size = _CONTROL_BYTES[ftype]
        l1 = self._sniff_lr[srcs, 0]
        lr = self._sniff_lr[srcs, np.minimum(rcodes, len(DOT11_RATES_MBPS) - 1)]
        body_bits = 8.0 * (DOT11B_TIMING.mac_overhead_bytes + sizes)
        p_decode = np.where(
            is_payload,
            np.exp(PLCP_HEADER_BITS * l1 + body_bits * lr),
            np.exp(8.0 * ctrl_size * l1),
        )
        span_us = max(int(time_us.max() - time_us.min()), 100_000)
        cfg = self._sniff_cfg
        rate_100ms = float(audible.sum()) * 100_000.0 / span_us
        p_drop = min(
            cfg.drop_ceiling, cfg.drop_floor + cfg.drop_per_frame * rate_100ms
        )
        u = self._rng.random(n_rows)
        captured = audible & (u < p_decode * (1.0 - p_drop))

        rows = {
            "time_us": time_us,
            "ftype": ftype,
            "rate_code": rcodes,
            "size": sizes,
            "src": srcs,
            "dst": dsts,
            "retry": retries,
            "channel": np.full(n_rows, channel, dtype=np.uint8),
            "snr_db": self._sniff_snr[srcs],
            "seq": seqs % 4096,
        }
        # A job that starts just before the run's end stamps its
        # retries and ACKs after it.  The run holds no such frame; they
        # go only now, after every draw, so that no draw moves.
        in_run = time_us < self.config.duration_us
        if not in_run.all():
            rows = {name: column[in_run] for name, column in rows.items()}
            captured = captured[in_run]
        self.frames_transmitted += len(rows["time_us"])
        self.frames_captured += int(captured.sum())
        cell.capture.append(Trace(rows).select(captured))
        if keep_truth:
            rows["snr_db"] = np.full(len(captured), 40.0, dtype=np.float32)
            cell.truth.append(Trace(rows))

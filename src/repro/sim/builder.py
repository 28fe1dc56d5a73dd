"""Scenario assembly: one config in, one wired network out.

:func:`build` turns a :class:`~repro.sim.scenarios.ScenarioConfig`, the
whole description of a network, into a :class:`BuiltScenario` in fixed
steps.  APs stand on the room's centre line and the sniffers at its
centre (:mod:`repro.sim.topology`); the only step that varies between
scenarios is station placement, which the config's ``placement`` field
decides.  The other steps read the config too: its RTS/CTS and
obstruction quotas set each station's :class:`StationRole`, an
obstructed station's link is calibrated into the config's SNR band, and
every station gets an open-loop Poisson uplink/downlink pair.

Both engines step a run the same way (:class:`ScenarioRun`): one
generator, ``_windows``, advances the simulation one one-second drain
window (:data:`DRAIN_WINDOW_US`) at a time and yields that window's
merged, time-sorted sniffer capture and, when asked, its ground truth.
``stream()`` yields the captures as they come — the live feed the
single-pass analysis pipeline consumes without ever materialising a
full-run trace — and ``run()`` is the same stream kept whole, returned
as a :class:`~repro.sim.scenarios.ScenarioResult`.  The build draws
every RNG stream, attaches every entity to the medium and schedules
every event in a fixed order, so a config reproduces frame for frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..frames import ASSOC_FRAME_BYTES, FrameType, NodeRoster, Trace
from .channel_manager import ChannelManager
from .engine import Simulator
from .medium import Medium
from .node import AccessPoint, Station
from .propagation import NOISE_FLOOR_DBM, Position, PropagationModel
from .rate_adaptation import make_rate_adaptation
from .roaming import RoamingManager
from .sniffer import Sniffer, ground_truth_trace
from .topology import place_aps, sniffer_position
from .traffic import PoissonSource, ScaledRate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .scenarios import ScenarioConfig, ScenarioResult

__all__ = [
    "DRAIN_WINDOW_US",
    "MAX_FRAME_AIRTIME_US",
    "StationRole",
    "BuiltScenario",
    "build",
]


#: Sniffer node ids start here (outside the station/AP id space).
SNIFFER_ID_BASE = 60_000

#: Upper bound on one frame's on-air time: a maximum-size MSDU at
#: 1 Mbps plus the long PLCP preamble is ~18.6 ms; rounded up with
#: margin.  A window drains only capture rows older than this behind
#: the simulation clock, so no frame can later appear before the
#: watermark (sniffers timestamp a frame at its transmission *start*
#: but record it at its end).
MAX_FRAME_AIRTIME_US = 24_000

#: Simulated time per drain window — the paper's one-second analysis
#: interval.  Both engines step the whole run in windows of this length.
DRAIN_WINDOW_US = 1_000_000


# ---------------------------------------------------------------------------
# station roles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationRole:
    """Per-station facts the builder wires into the network."""

    uses_rtscts: bool = False
    obstructed: bool = False
    load_factor: float = 1.0


# ---------------------------------------------------------------------------
# the fixed build steps
# ---------------------------------------------------------------------------


def _assign_roles(
    config: "ScenarioConfig", rng: np.random.Generator
) -> list[StationRole]:
    """Quota-based roles from the config fractions.

    The first ``round(rtscts_fraction * n)`` station indices use
    RTS/CTS; ``round(obstructed_fraction * n)`` indices drawn without
    replacement are obstructed and get the configured load factor —
    exactly the populations ``run_scenario`` always built.
    """
    n = config.n_stations
    n_rtscts = round(config.rtscts_fraction * n)
    n_obstructed = round(config.obstructed_fraction * n)
    obstructed = set(
        rng.choice(n, size=n_obstructed, replace=False).tolist()
    )
    return [
        StationRole(
            uses_rtscts=j < n_rtscts,
            obstructed=j in obstructed,
            load_factor=(
                config.obstructed_load_factor if j in obstructed else 1.0
            ),
        )
        for j in range(n)
    ]


def _obstruct(
    config: "ScenarioConfig",
    propagation: PropagationModel,
    node_id: int,
    position: Position,
    ap: AccessPoint,
    rng: np.random.Generator,
) -> None:
    """Give an obstructed station extra loss calibrated so the weaker
    link direction lands in the config's SNR band.

    Calibrate on the *weaker* direction (usually the station uplink,
    lower tx power): the stronger direction then sits a few dB above
    the band.  Calibrating on the strong direction would leave the weak
    one below the band — undeliverable at any rate.
    """
    clean_rx = propagation.received_power_dbm(
        min(config.station_tx_power_dbm, config.ap_tx_power_dbm),
        ap.mac.position,
        position,
        tx_id=ap.node_id,
        rx_id=node_id,
    )
    clean_snr = clean_rx - NOISE_FLOOR_DBM
    lo, hi = config.obstructed_snr_band_db
    target_snr = float(rng.uniform(lo, hi))
    propagation.node_extra_loss_db[node_id] = max(0.0, clean_snr - target_snr)


def _attach_traffic(built: "BuiltScenario") -> list[object]:
    """Per-station open-loop Poisson uplink + downlink.

    Follows the config's rate schedules, size mix and activity windows;
    stations whose role carries a load factor get both directions
    scaled (their upper layers would back off on a bad link).
    """
    config, sim = built.config, built.sim
    sources: list[object] = []
    # One (uplink, downlink) schedule pair per load factor, shared by
    # every station with that factor.
    schedules = {1.0: (config.uplink, config.downlink)}
    for j, station in enumerate(built.stations):
        sta_rng = np.random.default_rng(config.seed + 1000 + j)
        if config.activity is not None:
            start_us, end_us = config.activity(j, sta_rng)
        else:
            start_us, end_us = 0, config.duration_us
        factor = built.roles[j].load_factor
        if factor not in schedules:
            schedules[factor] = (
                ScaledRate(config.uplink, factor),
                ScaledRate(config.downlink, factor),
            )
        uplink, downlink = schedules[factor]
        # Association management frame at activity start.
        sim.schedule_at(
            max(start_us, 0),
            lambda s=station: s.mac.enqueue(s.ap_id, ASSOC_FRAME_BYTES, FrameType.MGMT),
        )
        sources.append(
            PoissonSource(
                sim=sim,
                enqueue=station.mac.enqueue,
                dst=station.ap_id,
                schedule=uplink,
                sizes=config.size_mix,
                rng=sta_rng,
                start_us=start_us,
                end_us=end_us,
            )
        )
        sources.append(
            PoissonSource(
                sim=sim,
                enqueue=built.downlink_enqueue(station.node_id),
                dst=station.node_id,
                schedule=downlink,
                sizes=config.size_mix,
                rng=np.random.default_rng(config.seed + 2000 + j),
                start_us=start_us,
                end_us=end_us,
            )
        )
    return sources


# ---------------------------------------------------------------------------
# the built scenario
# ---------------------------------------------------------------------------


class ScenarioRun:
    """What both engines share: a network that runs once, window by window.

    An engine supplies ``_windows(keep_truth)``, a generator that
    advances the run one :data:`DRAIN_WINDOW_US` window at a time and
    yields each window's merged capture (stably time-sorted, so the
    segments concatenate to one time-sorted trace) with its ground
    truth, or None when ``keep_truth`` is False; and ``_result(trace,
    ground_truth)``, which wraps a whole run as a
    :class:`~repro.sim.scenarios.ScenarioResult`.
    """

    _consumed = False

    def _start(self, keep_truth: bool) -> Iterator[tuple[Trace, Trace | None]]:
        if self._consumed:
            raise RuntimeError(
                f"this {type(self).__name__} has already run; build a fresh one"
            )
        self._consumed = True
        return self._windows(keep_truth)

    def run(self) -> "ScenarioResult":
        """Run to the configured duration: the stream kept whole, with
        its ground truth."""
        capture, truth = [], []
        for window_capture, window_truth in self._start(keep_truth=True):
            capture.append(window_capture)
            truth.append(window_truth)
        return self._result(Trace.concatenate(capture), Trace.concatenate(truth))

    def stream(self) -> Iterator[Trace]:
        """Yield the merged sniffer capture as one time-sorted segment
        per window (windows that captured nothing yield none).

        Memory stays bounded by a window: each window drains what it
        captured and transmitted, and no ground truth is kept.  The
        segments concatenate to ``run().trace``, the capture merged
        across sniffers in stable time order — exactly the row order
        ``analyze_trace`` works on — so a streamed analysis is
        field-identical to the buffered one.  Feed it straight to
        :func:`repro.pipeline.run_all`.
        """
        for capture, _ in self._start(keep_truth=False):
            if len(capture):
                yield capture

    @property
    def capture_ratio(self) -> float:
        """Captured / transmitted; 0.0 for a degenerate zero-frame run."""
        total = self.frames_transmitted
        return self.frames_captured / total if total else 0.0


@dataclass
class BuiltScenario(ScenarioRun):
    """A fully wired network on the discrete-event engine, ready to run
    exactly once (see :class:`ScenarioRun`)."""

    config: "ScenarioConfig"
    sim: Simulator
    medium: Medium
    propagation: PropagationModel
    aps: list[AccessPoint]
    stations: list[Station]
    roles: list[StationRole]
    downlink_router: dict[int, AccessPoint]
    sniffers: list[Sniffer] = field(default_factory=list)
    sources: list[object] = field(default_factory=list)
    channel_manager: ChannelManager | None = None
    roaming_manager: RoamingManager | None = None

    @property
    def roster(self) -> NodeRoster:
        return NodeRoster(
            [ap.info for ap in self.aps]
            + [station.info for station in self.stations]
        )

    def downlink_enqueue(self, station_id: int):
        """Enqueue-callable that routes via the station's *current* AP.

        Sources look the serving AP up per packet, so roaming re-targets
        in-flight flows like a real distribution system.
        """

        def enqueue(dst, size, ftype):
            return self.downlink_router[station_id].mac.enqueue(dst, size, ftype)

        return enqueue

    # -- post-run statistics (valid after run() or a finished stream()) ----

    @property
    def frames_transmitted(self) -> int:
        return self.medium.frames_transmitted

    @property
    def frames_captured(self) -> int:
        return sum(s.frames_captured for s in self.sniffers)

    @property
    def offered_packets(self) -> int:
        """MSDUs offered by all traffic sources that count them."""
        return sum(
            int(getattr(source, "packets_offered", 0)) for source in self.sources
        )

    @property
    def perf_counters(self) -> dict[str, int]:
        """Hot-path diagnostics: frame and event-loop counters.

        ``events_cancelled`` tracks timeout churn (ACK/CTS timeouts
        cancelled on success, frozen backoff countdowns); the engine
        drops each such entry when it pops it.  Benchmarks and campaign
        cells report these so perf regressions are attributable.
        """
        return {
            "frames_transmitted": self.medium.frames_transmitted,
            "events_processed": self.sim.events_processed,
            "events_cancelled": self.sim.events_cancelled,
            "events_pending": self.sim.events_pending,
            # Discrete-event engine: no batch-stepped window epochs.
            # The fast engine reports the mirror image (epochs > 0,
            # event counters 0), so profiles stay attributable.
            "slot_epochs": 0,
        }

    @property
    def delivery_ratio(self) -> float:
        """Aggregate DATA delivery ratio across every MAC in the network.

        Guarded: a run where nothing was attempted reports 0.0 rather
        than dividing by zero.
        """
        attempts = successes = 0
        for node in (*self.stations, *self.aps):
            attempts += node.mac.stats.data_attempts
            successes += node.mac.stats.data_successes
        return successes / attempts if attempts else 0.0

    def _windows(self, keep_truth: bool) -> Iterator[tuple[Trace, Trace | None]]:
        """Run the event loop to each window's end, then drain every
        sniffer of the rows older than ``MAX_FRAME_AIRTIME_US`` behind
        it (everything at the run's end) and the medium of the window's
        transmissions."""
        duration_us = self.config.duration_us
        now = 0
        while now < duration_us:
            now = min(now + DRAIN_WINDOW_US, duration_us)
            self.sim.run_until(now)
            cutoff = None if now >= duration_us else now - MAX_FRAME_AIRTIME_US
            # concatenate() stably time-sorts the merged sniffers.
            capture = Trace.concatenate(
                [s.drain_trace(cutoff) for s in self.sniffers]
            )
            truth = ground_truth_trace(self.medium) if keep_truth else None
            self.medium.ground_truth.clear()
            yield capture, truth

    def _result(self, trace: Trace, ground_truth: Trace) -> "ScenarioResult":
        from .scenarios import ScenarioResult

        return ScenarioResult(
            trace=trace,
            ground_truth=ground_truth,
            roster=self.roster,
            stations=self.stations,
            aps=self.aps,
            sniffers=self.sniffers,
            medium=self.medium,
            sim=self.sim,
            config=self.config,
            channel_manager=self.channel_manager,
            roaming_manager=self.roaming_manager,
        )


# ---------------------------------------------------------------------------
# the build
# ---------------------------------------------------------------------------


def build(config: "ScenarioConfig", fidelity: str = "default"):
    """Wire the network ``config`` describes.

    >>> from repro.sim import HotspotPlacement, ScenarioConfig, build
    >>> built = build(ScenarioConfig(
    ...     n_stations=2, duration_s=1.0,
    ...     placement=HotspotPlacement(centres=((0.3, 0.5),)),
    ... ))
    >>> len(built.stations)
    2

    The steps run in a fixed order (APs → station placement → roles →
    per-station obstruction → traffic → infrastructure → sniffers)
    sharing one seeded RNG stream, so a given config is fully
    reproducible.

    ``fidelity`` selects the engine the built scenario runs on:
    ``"default"`` is the byte-identical discrete-event machine pinned by
    the golden-trace digests; ``"fast"`` wraps the same wired network in
    the columnar batch-stepped core
    (:class:`~repro.sim.fastpath.FastBuiltScenario`), which is validated
    statistically instead.  The wiring below runs identically for both,
    so the RNG streams — and therefore the topology — never depend on
    the fidelity choice.
    """
    from .fastpath import FIDELITY_MODES, FastBuiltScenario

    if fidelity not in FIDELITY_MODES:
        choices = ", ".join(repr(m) for m in FIDELITY_MODES)
        raise ValueError(
            f"unknown fidelity {fidelity!r}: expected one of {choices}"
        )
    rng = np.random.default_rng(config.seed)
    sim = Simulator()
    propagation = PropagationModel(
        exponent=config.path_loss_exponent,
        shadowing_sigma_db=config.shadowing_sigma_db,
        rng=np.random.default_rng(config.seed + 1),
    )
    medium = Medium(sim, propagation, rng=np.random.default_rng(config.seed + 2))
    width, depth = config.room_width_m, config.room_depth_m

    # --- access points: centre line, round-robin over channels ---------
    aps: list[AccessPoint] = []
    for i, pos in enumerate(place_aps(config.n_aps, width, depth)):
        aps.append(
            AccessPoint.create(
                sim=sim,
                medium=medium,
                node_id=i + 1,
                position=pos,
                channel=config.channels[i % len(config.channels)],
                rng=np.random.default_rng(config.seed + 10 + i),
                rate_adaptation=make_rate_adaptation(
                    config.rate_algorithm, **config.rate_adaptation_kwargs
                ),
                tx_power_dbm=config.ap_tx_power_dbm,
                mac_config=config.mac_config,
            )
        )

    # --- stations: placed, role-assigned, associated to nearest AP ------
    sta_positions = config.placement.station_positions(config, rng)
    roles = _assign_roles(config, rng)
    station_ra_kwargs = _station_ra_kwargs(config)
    stations: list[Station] = []
    for j, pos in enumerate(sta_positions):
        nearest = min(aps, key=lambda ap: ap.mac.position.distance_to(pos))
        node_id = config.n_aps + 1 + j
        if roles[j].obstructed:
            _obstruct(config, propagation, node_id, pos, nearest, rng)
        station = Station.create(
            sim=sim,
            medium=medium,
            node_id=node_id,
            position=pos,
            channel=nearest.channel,
            ap_id=nearest.node_id,
            rng=np.random.default_rng(config.seed + 100 + j),
            rate_adaptation=make_rate_adaptation(
                config.rate_algorithm, **station_ra_kwargs
            ),
            uses_rtscts=roles[j].uses_rtscts,
            tx_power_dbm=config.station_tx_power_dbm,
            mac_config=config.mac_config,
            power_control=config.power_control,
        )
        nearest.associate(station.node_id)
        stations.append(station)

    downlink_router: dict[int, AccessPoint] = {
        station.node_id: next(a for a in aps if a.node_id == station.ap_id)
        for station in stations
    }
    built = BuiltScenario(
        config=config,
        sim=sim,
        medium=medium,
        propagation=propagation,
        aps=aps,
        stations=stations,
        roles=roles,
        downlink_router=downlink_router,
    )

    # --- traffic, infrastructure, sniffers (original event order) ------
    built.sources = _attach_traffic(built)
    if config.channel_management:
        built.channel_manager = ChannelManager(
            sim=sim,
            medium=medium,
            aps=aps,
            stations=stations,
            channels=config.channels,
        )
    if config.roaming:
        built.roaming_manager = RoamingManager(
            sim=sim,
            propagation=propagation,
            aps=aps,
            stations=stations,
            downlink_router=downlink_router,
            ap_tx_power_dbm=config.ap_tx_power_dbm,
        )
    centre = sniffer_position(width, depth)
    for k, channel in enumerate(config.channels):
        built.sniffers.append(
            Sniffer(
                sim=sim,
                medium=medium,
                node_id=SNIFFER_ID_BASE + k,
                position=centre,
                channel=channel,
                rng=np.random.default_rng(config.seed + 3000 + k),
                config=config.sniffer_config,
            )
        )
    if fidelity == "fast":
        return FastBuiltScenario(built)
    return built


def _station_ra_kwargs(config: "ScenarioConfig") -> dict:
    """Station-side rate-adaptation kwargs.

    SNR-based schemes measure the *downlink* (frames heard from the AP)
    but transmit on the *uplink*; the AP typically runs hotter, so the
    station oracle budgets the tx-power asymmetry as a margin.
    """
    kwargs = dict(config.rate_adaptation_kwargs)
    if config.rate_algorithm == "snr" and "margin_db" not in kwargs:
        kwargs["margin_db"] = max(
            0.0, config.ap_tx_power_dbm - config.station_tx_power_dbm
        )
    return kwargs

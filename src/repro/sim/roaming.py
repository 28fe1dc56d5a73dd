"""Station roaming / AP handoff (paper §2, citing Mishra et al. [15]).

Conference clients reassociate when another AP's beacons come in
stronger than their serving AP's — the handoff behaviour Mishra et al.
measured and the reason the paper's Figure 4(b) association counts
move.  The manager periodically "scans" (evaluates beacon SNR from
every AP via the propagation model, which is what a real scan measures)
and moves a station when a candidate beats its serving AP by a
hysteresis margin, with a per-station cooldown against ping-ponging.

A roam re-targets the station's MAC channel, updates the AP association
lists and the downlink router, and emits a reassociation MGMT frame —
so captures show the handoff exactly as a sniffer would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frames import ASSOC_FRAME_BYTES, FrameType
from .engine import Simulator
from .node import AccessPoint, Station
from .propagation import NOISE_FLOOR_DBM, PropagationModel

__all__ = ["Roam", "RoamingManager"]

#: Time between two scans of every station.
SCAN_INTERVAL_US = 2_000_000

#: How far a candidate AP's beacon SNR must beat the serving AP's.
HYSTERESIS_DB = 4.0

#: Minimum time between two roams of one station.
ROAM_COOLDOWN_US = 10_000_000


@dataclass(frozen=True)
class Roam:
    """One recorded handoff."""

    time_us: int
    station_id: int
    old_ap: int
    new_ap: int


class RoamingManager:
    """Periodic best-AP evaluation and reassociation for all stations."""

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        aps: list[AccessPoint],
        stations: list[Station],
        downlink_router: dict[int, AccessPoint],
        ap_tx_power_dbm: float = 18.0,
    ) -> None:
        self.sim = sim
        self.propagation = propagation
        self.aps = aps
        self.stations = stations
        self.router = downlink_router
        self.ap_tx_power_dbm = ap_tx_power_dbm
        self.roams: list[Roam] = []
        self._last_roam: dict[int, int] = {}
        sim.schedule_in(SCAN_INTERVAL_US, self._scan)

    # -- measurement --------------------------------------------------------

    def beacon_snr_db(self, station: Station, ap: AccessPoint) -> float:
        """Long-run beacon SNR of ``ap`` at ``station`` (a scan result)."""
        rx = self.propagation.received_power_dbm(
            self.ap_tx_power_dbm,
            ap.mac.position,
            station.mac.position,
            tx_id=ap.node_id,
            rx_id=station.node_id,
        )
        return rx - NOISE_FLOOR_DBM

    def best_ap(self, station: Station) -> AccessPoint:
        """The AP with the strongest beacons at this station."""
        return max(self.aps, key=lambda ap: self.beacon_snr_db(station, ap))

    # -- the scan/roam loop -------------------------------------------------

    def _scan(self) -> None:
        now = self.sim.now_us
        for station in self.stations:
            last = self._last_roam.get(station.node_id)
            if last is not None and now - last < ROAM_COOLDOWN_US:
                continue
            serving = next(
                (ap for ap in self.aps if ap.node_id == station.ap_id), None
            )
            if serving is None:
                continue
            candidate = self.best_ap(station)
            if candidate.node_id == serving.node_id:
                continue
            gain = self.beacon_snr_db(station, candidate) - self.beacon_snr_db(
                station, serving
            )
            if gain >= HYSTERESIS_DB:
                self._roam(station, serving, candidate)
        self.sim.schedule_in(SCAN_INTERVAL_US, self._scan)

    def _roam(
        self, station: Station, old: AccessPoint, new: AccessPoint
    ) -> None:
        if station.node_id in old.stations:
            old.stations.remove(station.node_id)
        new.associate(station.node_id)
        station.ap_id = new.node_id
        station.mac.channel = new.channel
        self.router[station.node_id] = new
        # Reassociation management exchange, visible to sniffers.
        station.mac.enqueue(new.node_id, ASSOC_FRAME_BYTES, FrameType.MGMT)
        self._last_roam[station.node_id] = self.sim.now_us
        self.roams.append(
            Roam(
                time_us=self.sim.now_us,
                station_id=station.node_id,
                old_ap=old.node_id,
                new_ap=new.node_id,
            )
        )

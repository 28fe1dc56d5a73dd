"""Stations and access points.

A :class:`Station` bundles a DCF MAC with uplink traffic sources and an
association to one AP.  An :class:`AccessPoint` adds 100 ms beaconing
(the paper's D_BEACON accounting depends on beacons being on the air)
and carries downlink traffic to its associated stations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..frames import BROADCAST, FrameType, NodeInfo
from .dcf import DcfMac, MacConfig
from .engine import Simulator
from .medium import Medium
from .power_control import TransmitPowerControl
from .propagation import Position
from .rate_adaptation import RateAdaptation

__all__ = ["Station", "AccessPoint", "BEACON_INTERVAL_US"]

#: The standard 802.11 beacon interval the paper assumes (§5.1).
BEACON_INTERVAL_US = 100_000


@dataclass
class Station:
    """A user device: one MAC plus its association."""

    node_id: int
    mac: DcfMac
    ap_id: int
    uses_rtscts: bool = False

    @property
    def info(self) -> NodeInfo:
        return NodeInfo(
            node_id=self.node_id,
            is_ap=False,
            name=f"sta-{self.node_id}",
            uses_rtscts=self.uses_rtscts,
        )

    @classmethod
    def create(
        cls,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Position,
        channel: int,
        ap_id: int,
        rng: np.random.Generator,
        rate_adaptation: RateAdaptation,
        uses_rtscts: bool = False,
        tx_power_dbm: float = 15.0,
        mac_config: MacConfig | None = None,
        power_control: bool = False,
    ) -> "Station":
        config = mac_config or MacConfig()
        if uses_rtscts:
            # An RTS/CTS station reserves the medium for every frame.
            config = dataclasses.replace(config, rts_threshold=0)
        tpc = (
            TransmitPowerControl(base_power_dbm=tx_power_dbm)
            if power_control
            else None
        )
        mac = DcfMac(
            sim=sim,
            medium=medium,
            node_id=node_id,
            position=position,
            channel=channel,
            rng=rng,
            config=config,
            rate_adaptation=rate_adaptation,
            tx_power_dbm=tx_power_dbm,
            power_control=tpc,
        )
        return cls(node_id=node_id, mac=mac, ap_id=ap_id, uses_rtscts=uses_rtscts)


@dataclass
class AccessPoint:
    """An AP: beaconing MAC plus the set of associated stations."""

    node_id: int
    mac: DcfMac
    stations: list[int] = field(default_factory=list)

    @property
    def channel(self) -> int:
        """The channel the AP's MAC is on."""
        return self.mac.channel

    @property
    def info(self) -> NodeInfo:
        return NodeInfo(node_id=self.node_id, is_ap=True, name=f"ap-{self.node_id}")

    @classmethod
    def create(
        cls,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Position,
        channel: int,
        rng: np.random.Generator,
        rate_adaptation: RateAdaptation,
        tx_power_dbm: float = 18.0,
        mac_config: MacConfig | None = None,
    ) -> "AccessPoint":
        mac = DcfMac(
            sim=sim,
            medium=medium,
            node_id=node_id,
            position=position,
            channel=channel,
            rng=rng,
            config=mac_config or MacConfig(),
            rate_adaptation=rate_adaptation,
            tx_power_dbm=tx_power_dbm,
        )
        ap = cls(node_id=node_id, mac=mac)
        # Stagger beacon phases so co-channel APs do not beacon in lockstep.
        offset = int(rng.integers(0, BEACON_INTERVAL_US))
        sim.schedule_at(offset, ap._beacon_loop_factory(sim))
        return ap

    def _beacon_loop_factory(self, sim: Simulator):
        def beacon_loop() -> None:
            from ..frames import BEACON_BODY_BYTES

            self.mac.enqueue_front(BROADCAST, BEACON_BODY_BYTES, FrameType.BEACON)
            sim.schedule_in(BEACON_INTERVAL_US, beacon_loop)

        return beacon_loop

    def associate(self, station_id: int) -> None:
        """Record a station as associated with this AP."""
        if station_id not in self.stations:
            self.stations.append(station_id)

"""Dynamic channel assignment (paper §4.1).

The IETF's Airespace APs "switch[ed] channels dynamically to balance the
number of users and traffic volume on the three channels"; the details
were proprietary.  This manager implements the observable behaviour: it
periodically measures per-channel traffic volume and, when one channel
carries disproportionately more than the lightest one *and* hosts more
than one AP, moves that channel's least-loaded AP — stations follow
their AP, as infrastructure clients do.

Switches are rate-limited per AP (cooldown) to avoid flip-flopping, and
an AP is only moved while its MAC is quiescent.  A station's carrier-
sense state self-corrects within one frame time after a switch (stale
busy entries are cleared when their transmissions end), which is far
below the one-second analysis granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Simulator
from .medium import Medium
from .node import AccessPoint, Station

__all__ = ["ChannelSwitch", "ChannelManager"]

#: Measurement and decision period.
REBALANCE_INTERVAL_US = 5_000_000

#: Heaviest/lightest per-channel load ratio that triggers a move.
IMBALANCE_RATIO = 1.5

#: Minimum time between two moves of one AP.
SWITCH_COOLDOWN_US = 15_000_000


@dataclass(frozen=True)
class ChannelSwitch:
    """One recorded channel reassignment."""

    time_us: int
    ap_id: int
    old_channel: int
    new_channel: int


class ChannelManager:
    """Periodic per-channel load balancing across a set of APs."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        aps: list[AccessPoint],
        stations: list[Station],
        channels: tuple[int, ...],
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.aps = aps
        self.stations = stations
        self.channels = channels
        self.switches: list[ChannelSwitch] = []
        self._last_counts: dict[int, int] = {}  # per-channel count watermark
        self._last_switch: dict[int, int] = {}
        sim.schedule_in(REBALANCE_INTERVAL_US, self._evaluate)

    # -- measurement --------------------------------------------------------

    def _interval_load(self) -> dict[int, int]:
        """Frames transmitted per channel since the last evaluation.

        Reads the medium's running per-channel counters rather than the
        ground-truth frame list, so it works on streaming runs where
        per-frame ground truth is not recorded.
        """
        counts = self.medium.channel_tx_counts
        load = {
            ch: counts.get(ch, 0) - self._last_counts.get(ch, 0)
            for ch in self.channels
        }
        self._last_counts = {ch: counts.get(ch, 0) for ch in self.channels}
        return load

    def _aps_on(self, channel: int) -> list[AccessPoint]:
        return [ap for ap in self.aps if ap.channel == channel]

    # -- decision --------------------------------------------------------

    def _evaluate(self) -> None:
        load = self._interval_load()
        self._maybe_rebalance(load)
        self.sim.schedule_in(REBALANCE_INTERVAL_US, self._evaluate)

    def _maybe_rebalance(self, load: dict[int, int]) -> None:
        heavy = max(load, key=lambda ch: load[ch])
        light = min(load, key=lambda ch: load[ch])
        if heavy == light:
            return
        if load[heavy] < IMBALANCE_RATIO * max(load[light], 1):
            return
        candidates = self._aps_on(heavy)
        if len(candidates) < 2:
            return  # moving a lone AP moves its load with it: pointless
        now = self.sim.now_us
        movable = [
            ap
            for ap in candidates
            if now - self._last_switch.get(ap.node_id, -(10**12))
            >= SWITCH_COOLDOWN_US
            and ap.mac.queue_length == 0
        ]
        if not movable:
            return
        # Move the least-loaded AP (fewest associated stations).
        ap = min(movable, key=lambda a: len(a.stations))
        self._switch(ap, light)

    def _switch(self, ap: AccessPoint, new_channel: int) -> None:
        old = ap.channel
        ap.mac.channel = new_channel
        for station in self.stations:
            if station.ap_id == ap.node_id:
                station.mac.channel = new_channel
        self._last_switch[ap.node_id] = self.sim.now_us
        self.switches.append(
            ChannelSwitch(
                time_us=self.sim.now_us,
                ap_id=ap.node_id,
                old_channel=old,
                new_channel=new_channel,
            )
        )

"""Tests for dynamic channel management (paper §4.1)."""

import numpy as np
import pytest

from repro.sim import (
    ChannelManager,
    ConstantRate,
    ScenarioConfig,
    run_scenario,
)
from repro.sim.channel_manager import SWITCH_COOLDOWN_US


def _crowded_config(channel_management: bool, seed: int = 71) -> ScenarioConfig:
    """Three APs on two channels: channel 1 starts with two APs and
    therefore roughly double the traffic — the rebalancing case."""
    return ScenarioConfig(
        n_stations=9,
        n_aps=3,
        channels=(1, 6),
        duration_s=30.0,
        seed=seed,
        room_width_m=40.0,
        room_depth_m=24.0,
        uplink=ConstantRate(8.0),
        downlink=ConstantRate(8.0),
        channel_management=channel_management,
    )


class TestRebalancing:
    def test_overloaded_channel_sheds_an_ap(self):
        result = run_scenario(_crowded_config(channel_management=True))
        manager = result.channel_manager
        assert manager is not None
        assert len(manager.switches) >= 1
        switch = manager.switches[0]
        assert switch.old_channel != switch.new_channel
        # After the dust settles, no channel hosts all three APs.
        per_channel = {ch: 0 for ch in (1, 6)}
        for ap in result.aps:
            per_channel[ap.channel] += 1
        assert max(per_channel.values()) <= 2

    def test_stations_follow_their_ap(self):
        result = run_scenario(_crowded_config(channel_management=True))
        for station in result.stations:
            ap = next(a for a in result.aps if a.node_id == station.ap_id)
            assert station.mac.channel == ap.mac.channel

    def test_disabled_by_default(self):
        result = run_scenario(_crowded_config(channel_management=False))
        assert result.channel_manager is None
        # All APs keep their round-robin assignment.
        assert [ap.channel for ap in result.aps] == [1, 6, 1]

    def test_cooldown_limits_flapping(self):
        result = run_scenario(_crowded_config(channel_management=True))
        manager = result.channel_manager
        switch_times = {}
        for switch in manager.switches:
            times = switch_times.setdefault(switch.ap_id, [])
            if times:
                assert switch.time_us - times[-1] >= SWITCH_COOLDOWN_US
            times.append(switch.time_us)

    def test_traffic_continues_after_switch(self):
        """The network keeps delivering after a reassignment."""
        result = run_scenario(_crowded_config(channel_management=True))
        manager = result.channel_manager
        if not manager.switches:
            pytest.skip("no switch occurred at this seed")
        t_switch = manager.switches[0].time_us
        after = result.ground_truth.between(
            t_switch, int(result.config.duration_us)
        )
        assert len(after) > 100

"""Tests for station roaming / AP handoff."""

import numpy as np

from repro.frames import FrameType
from repro.sim import (
    ConstantRate,
    ScenarioConfig,
    run_scenario,
)
from repro.sim.roaming import HYSTERESIS_DB, ROAM_COOLDOWN_US


def _two_ap_cell(roaming: bool, seed: int = 83) -> ScenarioConfig:
    """Two APs with heavy shadowing: distance-based initial association
    frequently disagrees with best-beacon association, so a roaming
    client population corrects itself."""
    return ScenarioConfig(
        n_stations=10,
        n_aps=2,
        channels=(1, 6),
        duration_s=20.0,
        seed=seed,
        room_width_m=50.0,
        room_depth_m=25.0,
        shadowing_sigma_db=8.0,
        uplink=ConstantRate(4.0),
        downlink=ConstantRate(4.0),
        roaming=roaming,
    )


class TestRoaming:
    def test_disabled_by_default(self):
        result = run_scenario(_two_ap_cell(roaming=False))
        assert result.roaming_manager is None

    def test_stations_converge_to_best_beacon_ap(self):
        result = run_scenario(_two_ap_cell(roaming=True))
        manager = result.roaming_manager
        assert manager is not None
        assert len(manager.roams) >= 1  # shadowing made someone move
        for station in result.stations:
            best = manager.best_ap(station)
            serving_snr = manager.beacon_snr_db(
                station, next(a for a in result.aps if a.node_id == station.ap_id)
            )
            best_snr = manager.beacon_snr_db(station, best)
            # Post-convergence: nobody is more than the hysteresis away
            # from their best AP.
            assert best_snr - serving_snr < HYSTERESIS_DB + 1e-9

    def test_roam_updates_channel_and_association(self):
        result = run_scenario(_two_ap_cell(roaming=True))
        for station in result.stations:
            ap = next(a for a in result.aps if a.node_id == station.ap_id)
            assert station.mac.channel == ap.channel
            assert station.node_id in ap.stations
        # No station appears in two APs' association lists.
        seen = [s for ap in result.aps for s in ap.stations]
        assert len(seen) == len(set(seen))

    def test_downlink_follows_the_roam(self):
        """After a handoff, downlink frames to the roamer come from the
        new AP."""
        result = run_scenario(_two_ap_cell(roaming=True))
        manager = result.roaming_manager
        assert manager.roams, "seed 83 gave no roam, so nothing is tested"
        roam = manager.roams[0]
        truth = result.ground_truth
        after = truth.between(roam.time_us, int(result.config.duration_us))
        data = after.only_type(FrameType.DATA)
        to_roamer = data.select(data.dst == roam.station_id)
        if len(to_roamer):
            sources = set(np.unique(to_roamer.src).tolist())
            assert roam.new_ap in sources
            assert roam.old_ap not in sources

    def test_reassociation_frame_emitted(self):
        result = run_scenario(_two_ap_cell(roaming=True))
        manager = result.roaming_manager
        assert manager.roams, "seed 83 gave no roam, so nothing is tested"
        roam = manager.roams[0]
        truth = result.ground_truth
        mgmt = truth.only_type(FrameType.MGMT)
        reassoc = mgmt.select(
            (mgmt.src == roam.station_id) & (mgmt.dst == roam.new_ap)
        )
        assert len(reassoc) >= 1

    def test_cooldown_limits_ping_pong(self):
        result = run_scenario(_two_ap_cell(roaming=True))
        manager = result.roaming_manager
        per_station: dict[int, list[int]] = {}
        for roam in manager.roams:
            times = per_station.setdefault(roam.station_id, [])
            if times:
                assert roam.time_us - times[-1] >= ROAM_COOLDOWN_US
            times.append(roam.time_us)

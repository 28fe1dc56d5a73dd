"""Tests for scenario assembly: one config in, one wired network out."""

import numpy as np
import pytest

from repro.frames import Trace
from repro.sim import (
    ConstantRate,
    HotspotPlacement,
    ScenarioConfig,
    build,
    place_aps,
    run_scenario,
    sniffer_position,
)


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        n_stations=4,
        n_aps=1,
        duration_s=3.0,
        seed=5,
        uplink=ConstantRate(8.0),
        downlink=ConstantRate(10.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestDefaultEquivalence:
    def test_builder_run_matches_run_scenario(self):
        """run_scenario builds its config; building the same config by
        hand must reproduce it frame for frame."""
        config = small_config(rtscts_fraction=0.5, obstructed_fraction=0.25)
        classic = run_scenario(config)
        built = build(config).run()
        assert built.trace == classic.trace
        assert built.ground_truth == classic.ground_truth

    def test_stream_concatenation_equals_buffered_trace(self):
        config = small_config(n_aps=2, channels=(1, 6))
        buffered = run_scenario(config).trace.sorted_by_time()
        chunks = list(build(config).stream())
        assert len(chunks) == 3  # one segment per one-second drain window
        assert Trace.concatenate(chunks) == buffered


class TestComponents:
    def test_fraction_population_quotas(self):
        """The builder's role step gives round(fraction * n) stations each
        role, and obstructed stations the config's load factor."""
        config = small_config(
            n_stations=10, rtscts_fraction=0.3, obstructed_fraction=0.2
        )
        roles = build(config).roles
        assert sum(r.uses_rtscts for r in roles) == 3
        assert sum(r.obstructed for r in roles) == 2
        for role in roles:
            expected = config.obstructed_load_factor if role.obstructed else 1.0
            assert role.load_factor == expected

    def test_explicit_population_wired_into_stations(self):
        """Each station is wired with its own role: the first
        round(rtscts_fraction * n) stations run RTS/CTS, and only
        obstructed stations get a calibrated link loss."""
        config = small_config(
            n_stations=10, rtscts_fraction=0.3, obstructed_fraction=0.2
        )
        built = build(config)
        roles = built.roles
        assert [s.uses_rtscts for s in built.stations] == [
            True, True, True, False, False, False, False, False, False, False,
        ]
        assert [s.uses_rtscts for s in built.stations] == [
            r.uses_rtscts for r in roles
        ]
        assert set(built.propagation.node_extra_loss_db) == {
            station.node_id
            for station, role in zip(built.stations, roles)
            if role.obstructed
        }

    def test_hotspot_placement_clusters_near_focus(self):
        config = small_config(
            n_stations=40, room_width_m=50.0, room_depth_m=30.0
        )
        placement = HotspotPlacement(centres=((0.2, 0.5),), spread_m=2.0)
        positions = placement.station_positions(
            config, np.random.default_rng(1)
        )
        xs = np.array([p.x for p in positions])
        ys = np.array([p.y for p in positions])
        assert len(positions) == 40
        # Focus is (10, 15); a 2 m spread keeps everyone well inside 20 m.
        assert np.all(np.hypot(xs - 10.0, ys - 15.0) < 20.0)
        assert np.mean(np.hypot(xs - 10.0, ys - 15.0)) < 5.0

    def test_hotspot_placement_validation(self):
        with pytest.raises(ValueError, match="centre"):
            HotspotPlacement(centres=())
        with pytest.raises(ValueError, match="spread"):
            HotspotPlacement(spread_m=0.0)

    def test_placement_moves_only_the_stations(self):
        """APs stand on the centre line and sniffers at the room centre
        whatever the placement; a hotspot placement moves the stations."""
        config = small_config(
            n_stations=6, n_aps=2, channels=(1, 6),
            placement=HotspotPlacement(centres=((0.1, 0.1),), spread_m=1.0),
        )
        built = build(config)
        width, depth = config.room_width_m, config.room_depth_m
        assert [ap.mac.position for ap in built.aps] == place_aps(2, width, depth)
        assert all(ap.mac.position.y == depth / 2.0 for ap in built.aps)
        assert {s.position for s in built.sniffers} == {sniffer_position(width, depth)}
        assert all(s.mac.position.x < width / 2.0 for s in built.stations)


class TestBuilderApi:
    def test_built_scenario_runs_once(self):
        built = build(small_config())
        built.run()
        with pytest.raises(RuntimeError, match="already run"):
            built.run()
        with pytest.raises(RuntimeError, match="already run"):
            list(built.stream())

    def test_roster_available_before_run(self):
        built = build(small_config(n_aps=2, channels=(1, 6)))
        roster = built.roster
        assert len(roster.ap_ids) == 2
        assert len(roster.station_ids) == 4


class TestStreamedRunState:
    def test_streamed_run_records_no_ground_truth(self):
        built = build(small_config())
        total = sum(len(chunk) for chunk in built.stream())
        assert len(built.medium.ground_truth) == 0
        assert built.frames_transmitted > 0
        assert total == built.frames_captured
        assert sum(s.frames_buffered for s in built.sniffers) == 0

    def test_post_run_statistics(self):
        built = build(small_config())
        built.run()
        assert 0.0 < built.capture_ratio <= 1.0
        assert 0.0 < built.delivery_ratio <= 1.0
        assert built.offered_packets > 0

    def test_ratio_guards_on_silent_network(self):
        """Zero offered load: ratios report cleanly, never raise."""
        config = small_config(
            duration_s=0.5,
            uplink=ConstantRate(0.0),
            downlink=ConstantRate(0.0),
        )

        built = build(config)
        list(built.stream())
        # Beacons and association MGMT frames still go on the air, but
        # no DATA was ever attempted.
        assert built.delivery_ratio == 0.0
        assert built.offered_packets == 0
        assert 0.0 <= built.capture_ratio <= 1.0

    def test_capture_ratio_zero_frame_guard(self):
        """Degenerate zero-transmission state: 0.0, not ZeroDivisionError."""
        built = build(small_config())
        # Inspect before any run: nothing has been transmitted yet.
        assert built.frames_transmitted == 0
        assert built.capture_ratio == 0.0

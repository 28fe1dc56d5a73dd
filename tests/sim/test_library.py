"""Tests for the named scenario library."""

import inspect

import numpy as np
import pytest

from repro.frames import FrameType
from repro.sim import (
    SCENARIO_LIBRARY,
    available_scenarios,
    build_scenario,
    place_aps,
    run_scenario,
    scenario_config,
)


class TestRegistry:
    def test_expected_scenarios_present(self):
        assert available_scenarios() == [
            "co-channel",
            "day",
            "hidden-terminal",
            "hotspot-plenary",
            "plenary",
            "ramp",
            "roaming-storm",
            "uniform",
        ]

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("ramp", dict(
                n_stations=12, duration_s=240.0, peak_downlink_pps=50.0,
                peak_uplink_pps=16.0, seed=11, rate_algorithm="arf",
                rtscts_fraction=0.15, size_mix=None, burst_sigma=1.0,
            )),
            ("day", dict(n_stations=36, duration_s=120.0, seed=21)),
            ("plenary", dict(n_stations=30, duration_s=120.0, seed=22)),
            ("uniform", dict(
                n_stations=10, n_aps=1, duration_s=20.0, seed=7,
                uplink_pps=8.0, downlink_pps=18.0, rate_algorithm="arf",
                rtscts_fraction=0.0, obstructed_fraction=0.25,
            )),
            ("hidden-terminal", dict(
                n_stations=8, duration_s=20.0, seed=31, room_width_m=64.0,
                uplink_pps=22.0, rtscts_fraction=0.0,
            )),
            ("hotspot-plenary", dict(
                n_stations=24, duration_s=45.0, seed=33, burst_sigma=1.3,
                spread_m=4.0,
            )),
            ("co-channel", dict(
                n_stations=18, n_aps=3, duration_s=30.0, seed=35,
            )),
            ("roaming-storm", dict(n_stations=20, duration_s=40.0, seed=37)),
        ],
    )
    def test_factory_keywords_and_defaults_pinned(self, name, expected):
        """The keywords a factory declares (what cell params carry and
        what reaches the factory instead of the config) and their
        defaults, in declaration order."""
        declared = {
            pname: param.default
            for pname, param in inspect.signature(
                SCENARIO_LIBRARY[name]
            ).parameters.items()
            if param.kind is not inspect.Parameter.VAR_KEYWORD
        }
        assert list(declared) == list(expected)
        for pname, default in expected.items():
            assert declared[pname] == default, pname
            assert type(declared[pname]) is type(default), pname

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_config("no-such-scenario")

    def test_factory_params_and_config_overrides_split(self):
        config = scenario_config(
            "ramp", n_stations=9, duration_s=12.0, room_width_m=50.0
        )
        assert config.n_stations == 9       # factory kwarg
        assert config.duration_s == 12.0    # factory kwarg
        assert config.room_width_m == 50.0  # ScenarioConfig override

    def test_unknown_override_raises(self):
        with pytest.raises(TypeError):
            scenario_config("ramp", bogus_field=1)

    def test_every_entry_builds(self):
        for name in available_scenarios():
            built = build_scenario(name, n_stations=2, duration_s=1.0)
            assert len(built.stations) == 2

    @pytest.mark.parametrize("name", sorted(SCENARIO_LIBRARY))
    def test_the_config_is_the_whole_scenario(self, name):
        """Running a scenario's config runs the scenario: nothing that
        shapes the network (its placement included) lives beside it."""
        config = scenario_config(name, duration_s=1.0, seed=3)
        from_config = run_scenario(config)
        from_name = build_scenario(name, duration_s=1.0, seed=3).run()
        assert from_config.trace == from_name.trace
        assert from_config.ground_truth == from_name.ground_truth


class TestHiddenTerminal:
    def test_clusters_cannot_sense_each_other_but_reach_ap(self):
        built = build_scenario("hidden-terminal", n_stations=4, duration_s=1.0)
        prop = built.propagation
        ap = built.aps[0]
        # Stations alternate ends; station 0 and 1 sit on opposite sides.
        left, right = built.stations[0], built.stations[1]
        cross_rx = prop.received_power_dbm(
            built.config.station_tx_power_dbm,
            left.mac.position,
            right.mac.position,
            tx_id=left.node_id,
            rx_id=right.node_id,
        )
        ap_rx = prop.received_power_dbm(
            built.config.station_tx_power_dbm,
            left.mac.position,
            ap.mac.position,
            tx_id=left.node_id,
            rx_id=ap.node_id,
        )
        # Below the MAC carrier-sense threshold across the room, but
        # comfortably decodable at the AP.
        assert cross_rx < left.mac.sense_threshold_dbm
        assert ap_rx > ap.mac.sense_threshold_dbm + 5.0

    def test_geometry_overrides_reach_the_pinned_placement(self):
        """The end-cluster placement reads the room from the config it
        is built with, so a room override moves the stations."""
        built = build_scenario(
            "hidden-terminal", n_stations=4, duration_s=1.0,
            room_depth_m=24.0,
        )
        assert built.config.room_depth_m == 24.0
        ys = [s.mac.position.y for s in built.stations]
        # Stations spread over the full 24 m depth, not the default 8 m.
        assert max(ys) > 8.0
        assert built.sniffers[0].position.y == 12.0

    def test_extra_aps_stand_on_the_centre_line(self):
        built = build_scenario(
            "hidden-terminal", n_stations=4, duration_s=1.0, n_aps=3
        )
        config = built.config
        assert [ap.mac.position for ap in built.aps] == place_aps(
            3, config.room_width_m, config.room_depth_m
        )

    def test_collisions_hurt_delivery_and_rtscts_recovers(self):
        bare = build_scenario(
            "hidden-terminal", n_stations=6, duration_s=6.0
        ).run()
        protected = build_scenario(
            "hidden-terminal", n_stations=6, duration_s=6.0,
            rtscts_fraction=1.0,
        ).run()

        def delivery(result):
            stats = [s.mac.stats for s in result.stations]
            attempts = sum(st.data_attempts for st in stats)
            successes = sum(st.data_successes for st in stats)
            return successes / attempts

        assert delivery(bare) < 0.6          # hidden DATA collides hard
        assert delivery(protected) > delivery(bare)


class TestCoChannel:
    def test_all_aps_share_one_channel(self):
        built = build_scenario("co-channel", n_stations=4, duration_s=1.0)
        assert {ap.channel for ap in built.aps} == {1}
        assert len(built.aps) == 3
        assert len(built.sniffers) == 1


class TestRoamingStorm:
    def test_roams_occur(self):
        result = build_scenario(
            "roaming-storm", n_stations=10, duration_s=12.0
        ).run()
        assert result.roaming_manager is not None
        assert len(result.roaming_manager.roams) >= 1
        # Reassociation management frames are on the air.
        mgmt = result.ground_truth.only_type(FrameType.MGMT)
        assert len(mgmt) >= len(result.roaming_manager.roams)


class TestHotspotPlenary:
    def test_stations_concentrate_at_foci(self):
        built = build_scenario("hotspot-plenary", n_stations=30, duration_s=1.0)
        config = built.config
        xs = np.array([s.mac.position.x for s in built.stations])
        ys = np.array([s.mac.position.y for s in built.stations])
        foci = np.array(
            [
                (0.15 * config.room_width_m, 0.5 * config.room_depth_m),
                (0.85 * config.room_width_m, 0.55 * config.room_depth_m),
                (0.5 * config.room_width_m, 0.3 * config.room_depth_m),
            ]
        )
        dist_to_nearest = np.min(
            np.hypot(xs[:, None] - foci[:, 0], ys[:, None] - foci[:, 1]),
            axis=1,
        )
        # A 4 m Gaussian spread keeps nearly everyone within ~3 sigma of
        # a focus; a uniform scatter over a 40x25 room would not.
        assert np.mean(dist_to_nearest) < 8.0


class TestParameterValidation:
    """scenario_parameters / validate_scenario_params (the typo guard)."""

    def test_parameters_union_factory_and_config(self):
        from repro.sim import scenario_parameters

        params = scenario_parameters("hidden-terminal")
        assert "uplink_pps" in params        # factory keyword
        assert "room_width_m" in params      # factory AND config field
        assert "shadowing_sigma_db" in params  # config-only override

    def test_factory_keywords_are_parameters(self):
        """A config factory's declared keywords are scenario parameters
        beside the config fields."""
        from repro.sim import scenario_parameters

        assert "uplink_pps" in scenario_parameters("uniform")
        assert "downlink_pps" in scenario_parameters("uniform")

    def test_typo_raises_with_suggestion(self):
        from repro.sim import UnknownParameterError, validate_scenario_params

        with pytest.raises(UnknownParameterError, match="did you mean 'n_stations'"):
            validate_scenario_params("ramp", ["n_statoins"])

    def test_unknown_parameter_is_a_type_error(self):
        """Back-compat: unknown kwargs raised TypeError before; the new
        did-you-mean error must still be caught by `except TypeError`."""
        from repro.sim import UnknownParameterError

        assert issubclass(UnknownParameterError, TypeError)
        with pytest.raises(TypeError, match="did you mean"):
            scenario_config("ramp", n_statoins=4)

    def test_unknown_scenario_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'ramp'"):
            scenario_config("rampp")

    def test_valid_params_pass(self):
        from repro.sim import validate_scenario_params

        validate_scenario_params(
            "uniform", ["n_stations", "uplink_pps", "room_width_m", "seed"]
        )


class TestUniformScenario:
    def test_registered(self):
        assert "uniform" in available_scenarios()

    def test_scalar_rates_become_schedules(self):
        from repro.sim import ConstantRate

        config = scenario_config("uniform", uplink_pps=5.0, downlink_pps=9.0)
        assert config.uplink == ConstantRate(5.0)
        assert config.downlink == ConstantRate(9.0)

    def test_builds_and_runs(self):
        built = build_scenario("uniform", n_stations=2, duration_s=1.0)
        result = built.run()
        assert len(result.trace) > 0

"""Tests for scenario configs and the runners that build them."""

import numpy as np
import pytest

from repro.frames import FrameType
from repro.sim import (
    BEACON_INTERVAL_US,
    ConstantRate,
    ScenarioConfig,
    build_scenario,
    ietf_day_config,
    ietf_plenary_config,
    load_ramp_config,
    run_scenario,
    scenario_config,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_stations": 0},
            {"n_aps": 0},
            {"duration_s": 0},
            {"rtscts_fraction": 1.5},
            {"obstructed_fraction": -0.1},
            {"channels": ()},
            {"channels": (1, 1)},
            {"channels": (99,)},
            {"channels": (0,)},
            {"obstructed_snr_band_db": (3.0, -1.0)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("duration_s", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_duration_names_the_field(self, duration_s):
        with pytest.raises(ValueError, match="duration_s must be finite"):
            ScenarioConfig(duration_s=duration_s)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("uplink", 3),
            ("downlink", "x"),
            ("placement", "x"),
            ("mac_config", 3),
            ("sniffer_config", "x"),
            ("size_mix", 3),
            ("activity", 3),
            ("rate_adaptation_kwargs", 3),
            ("rate_algorithm", 3),
            ("n_stations", 2.5),
            ("n_aps", 1.5),
            ("seed", -1),
            ("seed", None),
            ("room_width_m", "wide"),
            ("channels", 1),
            ("channels", (1.0, 6.0)),
            ("obstructed_snr_band_db", 1),
            ("obstructed_snr_band_db", (-1.0, 1.0, 3.0)),
        ],
    )
    def test_wrong_kind_names_the_field(self, field, value):
        """A value the builder could not use is refused up front, by
        the name of the field it was given for."""
        with pytest.raises((TypeError, ValueError), match=rf"^{field} must be "):
            scenario_config("uniform", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("room_width_m", -3),
            ("room_width_m", 0.0),
            ("room_width_m", float("inf")),
            pytest.param("room_width_m", 10**400, id="room_width_m-int-beyond-float"),
            ("room_depth_m", float("nan")),
            ("path_loss_exponent", 0),
            ("path_loss_exponent", -2.0),
            ("shadowing_sigma_db", -2),
            ("shadowing_sigma_db", float("inf")),
            ("obstructed_load_factor", -1),
            ("station_tx_power_dbm", float("inf")),
            ("ap_tx_power_dbm", float("nan")),
            ("uplink_pps", -5),
            ("uplink_pps", float("inf")),
            ("uplink_pps", "x"),
            pytest.param("uplink_pps", 10**400, id="uplink_pps-int-beyond-float"),
            pytest.param("duration_s", 10**400, id="duration_s-int-beyond-float"),
            ("downlink_pps", float("nan")),
            ("downlink_pps", None),
        ],
    )
    def test_out_of_range_names_the_field(self, field, value):
        """A config that describes no physical network is refused by the
        name of the field or ``uniform`` keyword it was given for."""
        with pytest.raises((TypeError, ValueError), match=rf"^{field} must be "):
            scenario_config("uniform", **{field: value})

    def test_zero_rates_and_shadowing_are_in_range(self):
        config = scenario_config(
            "uniform", uplink_pps=0, downlink_pps=0.0, shadowing_sigma_db=0
        )
        assert config.uplink.rate_at(0) == 0 and config.shadowing_sigma_db == 0

    @pytest.mark.parametrize("name", ["bogus", "arff"])
    def test_unknown_rate_algorithm_is_refused(self, name):
        with pytest.raises(
            ValueError, match=rf"^rate_algorithm: unknown rate adaptation algorithm '{name}'"
        ):
            scenario_config("uniform", rate_algorithm=name)

    @pytest.mark.parametrize(
        "algorithm, kwargs",
        [("arf", {"bogus": 1}), ("snr", {"up_threshold": 3}), ("fixed", {1: 2})],
    )
    def test_unknown_rate_adaptation_kwargs_are_refused(self, algorithm, kwargs):
        with pytest.raises(ValueError, match=r"^rate_adaptation_kwargs: "):
            scenario_config(
                "uniform", rate_algorithm=algorithm, rate_adaptation_kwargs=kwargs
            )

    @pytest.mark.parametrize(
        "algorithm, kwargs",
        [
            ("ARF", {"up_threshold": 5}),
            ("aarf", {"max_up_threshold": 40}),
            ("snr", {"margin_db": 2.0}),
            ("fixed", {"rate_mbps": 5.5}),
        ],
    )
    def test_rate_adaptation_kwargs_the_class_takes_pass(self, algorithm, kwargs):
        built = build_scenario(
            "uniform", duration_s=0.1, rate_algorithm=algorithm,
            rate_adaptation_kwargs=kwargs,
        )
        assert built.stations

    def test_numpy_integers_are_integers(self):
        config = ScenarioConfig(
            n_stations=np.int64(3), seed=np.uint32(2), channels=(np.int64(6),)
        )
        assert config.n_stations == 3 and config.channels == (6,)

    def test_channel_error_names_the_channels_it_accepts(self):
        ScenarioConfig(channels=(14,))  # 2484 MHz, the table's last entry
        with pytest.raises(ValueError, match=r"15 is not an 802\.11b channel \(1-14\)"):
            ScenarioConfig(channels=(15,))


class TestCaptureRatioGuard:
    def test_zero_frame_ground_truth_reports_zero(self):
        """Degenerate configs must report 0.0, not ZeroDivisionError."""
        from repro.frames import NodeRoster, Trace
        from repro.sim import ScenarioResult, Simulator

        result = ScenarioResult(
            trace=Trace.empty(),
            ground_truth=Trace.empty(),
            roster=NodeRoster(),
            stations=[],
            aps=[],
            sniffers=[],
            medium=None,
            sim=Simulator(),
            config=ScenarioConfig(),
        )
        assert result.capture_ratio == 0.0


class TestRunScenario:
    def test_roster_and_traces(self, small_scenario):
        result = small_scenario
        config = result.config
        assert len(result.roster.ap_ids) == config.n_aps
        assert len(result.roster.station_ids) == config.n_stations
        assert len(result.trace) > 0
        assert len(result.ground_truth) >= len(result.trace)
        assert 0 < result.capture_ratio <= 1.0

    def test_trace_sorted_and_channel_consistent(self, small_scenario):
        trace = small_scenario.trace
        assert trace.is_time_sorted()
        assert set(np.unique(trace.channel)) <= {1, 6, 11}

    def test_beacons_present_at_100ms_cadence(self, small_scenario):
        truth = small_scenario.ground_truth
        beacons = truth.only_type(FrameType.BEACON)
        duration_s = small_scenario.config.duration_s
        expected = duration_s * 10 * small_scenario.config.n_aps
        assert len(beacons) == pytest.approx(expected, rel=0.25)

    def test_uplink_and_downlink_traffic(self, small_scenario):
        truth = small_scenario.ground_truth
        data = truth.only_type(FrameType.DATA)
        ap_ids = set(small_scenario.roster.ap_ids)
        from_ap = np.isin(data.src, list(ap_ids)).sum()
        to_ap = np.isin(data.dst, list(ap_ids)).sum()
        assert from_ap > 0 and to_ap > 0

    def test_deterministic_given_seed(self):
        config = ScenarioConfig(
            n_stations=3, duration_s=2.0, seed=77,
            uplink=ConstantRate(5.0), downlink=ConstantRate(5.0),
        )
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.trace == b.trace

    def test_rtscts_population(self):
        config = ScenarioConfig(
            n_stations=4, duration_s=1.0, rtscts_fraction=0.5, seed=3,
            uplink=ConstantRate(2.0), downlink=ConstantRate(2.0),
        )
        result = run_scenario(config)
        rtscts = [s for s in result.stations if s.uses_rtscts]
        assert len(rtscts) == 2
        # Roster reflects the RTS/CTS flag for the fairness analysis.
        flagged = [n for n in result.roster if n.uses_rtscts]
        assert len(flagged) == 2

    def test_activity_windows_limit_traffic(self):
        config = ScenarioConfig(
            n_stations=2, duration_s=4.0, seed=5,
            uplink=ConstantRate(30.0), downlink=ConstantRate(0.0),
            activity=lambda j, rng: (2_000_000, 4_000_000),
        )
        result = run_scenario(config)
        data = result.ground_truth.only_type(FrameType.DATA)
        if len(data):
            assert data.time_us.min() >= 2_000_000

    def test_multi_channel_scenario(self):
        config = ScenarioConfig(
            n_stations=6, n_aps=3, channels=(1, 6, 11), duration_s=2.0, seed=8,
            uplink=ConstantRate(4.0), downlink=ConstantRate(4.0),
        )
        result = run_scenario(config)
        assert set(np.unique(result.ground_truth.channel)) == {1, 6, 11}
        assert len(result.sniffers) == 3


class TestNamedConfigs:
    def test_load_ramp_shape(self):
        config = load_ramp_config(duration_s=10.0)
        assert config.n_aps == 1
        start = config.downlink.rate_at(0)
        end = config.downlink.rate_at(config.duration_us)
        # Modulation adds noise, but the trend must be strongly upward.
        assert end > start

    def test_ietf_day_config(self):
        config = ietf_day_config(duration_s=10.0)
        assert config.channels == (1, 6, 11)
        assert config.n_aps == 6
        assert config.activity is not None

    def test_ietf_plenary_heavier_than_day(self):
        day = ietf_day_config(duration_s=10.0)
        plenary = ietf_plenary_config(duration_s=10.0)
        # Compare underlying mean offered load (modulation is unit-mean).
        assert plenary.downlink.base.rate_at(0) > day.downlink.base.rate_at(0)

"""Tests for the rate-adaptation algorithms."""

import pytest

from repro.sim import (
    AarfRateAdaptation,
    ArfRateAdaptation,
    FixedRate,
    SnrOracleRateAdaptation,
    make_rate_adaptation,
)
from repro.sim.rate_adaptation import RATE_ALGORITHMS, rate_adaptation_class


class TestFixed:
    def test_rate_never_changes(self):
        ra = FixedRate(5.5)
        ra.on_failure(1)
        ra.on_failure(1)
        ra.on_success(1)
        assert ra.rate_for(1) == 5.5

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FixedRate(54.0)


class TestArf:
    def test_initial_rate(self):
        assert ArfRateAdaptation().rate_for(1) == 11.0

    def test_two_failures_step_down(self):
        ra = ArfRateAdaptation(down_threshold=2)
        ra.on_failure(1)
        assert ra.rate_for(1) == 11.0  # one failure is not enough
        ra.on_failure(1)
        assert ra.rate_for(1) == 5.5

    def test_ten_successes_step_up(self):
        ra = ArfRateAdaptation(up_threshold=10, down_threshold=2)
        ra.on_failure(1); ra.on_failure(1)            # drop to 5.5
        for _ in range(9):
            ra.on_success(1)
        assert ra.rate_for(1) == 5.5
        ra.on_success(1)
        assert ra.rate_for(1) == 11.0

    def test_failure_right_after_upgrade_reverts(self):
        ra = ArfRateAdaptation(up_threshold=3, down_threshold=2)
        ra.on_failure(1); ra.on_failure(1)            # 5.5
        for _ in range(3):
            ra.on_success(1)                          # probe up to 11
        assert ra.rate_for(1) == 11.0
        ra.on_failure(1)                              # immediate revert
        assert ra.rate_for(1) == 5.5

    def test_floor_at_1mbps(self):
        ra = ArfRateAdaptation(down_threshold=1)
        for _ in range(10):
            ra.on_failure(1)
        assert ra.rate_for(1) == 1.0

    def test_ceiling_at_11mbps(self):
        ra = ArfRateAdaptation(up_threshold=1)
        for _ in range(10):
            ra.on_success(1)
        assert ra.rate_for(1) == 11.0

    def test_links_independent(self):
        ra = ArfRateAdaptation(down_threshold=1)
        ra.on_failure(1)
        assert ra.rate_for(1) == 5.5
        assert ra.rate_for(2) == 11.0

    def test_reset_forgets_link(self):
        ra = ArfRateAdaptation(down_threshold=1)
        ra.on_failure(1)
        ra.reset(1)
        assert ra.rate_for(1) == 11.0

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            ArfRateAdaptation(up_threshold=0)


class TestAarf:
    def test_failed_probe_doubles_threshold(self):
        ra = AarfRateAdaptation(up_threshold=2, down_threshold=2)
        ra.on_failure(1); ra.on_failure(1)        # down to 5.5
        ra.on_success(1); ra.on_success(1)        # probe up to 11
        assert ra.rate_for(1) == 11.0
        ra.on_failure(1)                           # probe fails -> back down
        assert ra.rate_for(1) == 5.5
        # Now 2 successes are no longer enough (threshold doubled to 4).
        ra.on_success(1); ra.on_success(1)
        assert ra.rate_for(1) == 5.5
        ra.on_success(1); ra.on_success(1)
        assert ra.rate_for(1) == 11.0

    def test_threshold_capped(self):
        ra = AarfRateAdaptation(up_threshold=2, max_up_threshold=4)
        state = ra._link(1)
        state.just_upgraded = True
        ra.on_failure(1)
        state = ra._link(1)
        assert state.up_threshold == 4
        state.just_upgraded = True
        ra.on_failure(1)
        assert ra._link(1).up_threshold == 4  # capped


class TestSnrOracle:
    def test_no_feedback_uses_initial_rate(self):
        assert SnrOracleRateAdaptation().rate_for(1) == 11.0

    def test_good_snr_keeps_11(self):
        ra = SnrOracleRateAdaptation()
        ra.on_feedback_snr(1, 28.0)
        assert ra.rate_for(1) == 11.0

    def test_bad_snr_falls_back(self):
        ra = SnrOracleRateAdaptation()
        ra.on_feedback_snr(1, 3.0)
        assert ra.rate_for(1) <= 2.0

    def test_failures_do_not_change_rate(self):
        """The defining property: collision losses leave the rate alone."""
        ra = SnrOracleRateAdaptation()
        ra.on_feedback_snr(1, 28.0)
        for _ in range(50):
            ra.on_failure(1)
        assert ra.rate_for(1) == 11.0

    def test_ewma_tracks_snr(self):
        ra = SnrOracleRateAdaptation(ewma_alpha=1.0)
        ra.on_feedback_snr(1, 28.0)
        assert ra.rate_for(1) == 11.0
        ra.on_feedback_snr(1, 2.0)
        assert ra.rate_for(1) == 1.0

    def test_reset(self):
        ra = SnrOracleRateAdaptation()
        ra.on_feedback_snr(1, 2.0)
        ra.reset(1)
        assert ra.rate_for(1) == 11.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            SnrOracleRateAdaptation(ewma_alpha=0.0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fixed", FixedRate),
            ("arf", ArfRateAdaptation),
            ("aarf", AarfRateAdaptation),
            ("snr", SnrOracleRateAdaptation),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_rate_adaptation(name), cls)

    def test_kwargs_forwarded(self):
        ra = make_rate_adaptation("arf", down_threshold=5)
        assert ra.down_threshold == 5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_rate_adaptation("minstrel")

    def test_the_config_check_lists_every_name_the_factory_builds(self):
        """``ScenarioConfig`` checks names against the same tuple."""
        assert RATE_ALGORITHMS == ("fixed", "arf", "aarf", "snr")
        for name in RATE_ALGORITHMS:
            ra = make_rate_adaptation(name.upper())
            assert type(ra) is rate_adaptation_class(name)

"""Shape tests for the paper's headline findings on a scaled load ramp.

These are the scientific acceptance tests: each ``TestF…`` class below
asserts the *direction* of one of the paper's findings on a small ramp
run.  Magnitudes differ from the paper (our substrate is a scaled simulator);
directions must not.
"""

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.sim import load_ramp_config, run_scenario


@pytest.fixture(scope="module")
def ramp_report():
    # Shorter run than the benchmark default, so the peak load is raised
    # to guarantee the ramp drives the channel past saturation.
    config = load_ramp_config(
        duration_s=100.0, peak_downlink_pps=45.0, peak_uplink_pps=14.0, seed=17
    )
    result = run_scenario(config)
    return analyze_trace(result.trace, result.roster, name="ramp"), result


class TestF1ThroughputCollapse:
    def test_peak_is_inside_the_band_not_at_the_edges(self, ramp_report):
        report, _ = ramp_report
        peak_util, _ = report.throughput.peak()
        assert 40.0 <= peak_util <= 95.0

    def test_throughput_rises_through_moderate_band(self, ramp_report):
        """Count-weighted band means: the upper moderate band out-delivers
        the lower one (single bins are too noisy at this scale)."""
        report, _ = ramp_report
        tput = report.throughput.throughput_mbps

        def band_mean(lo, hi):
            band = tput.restricted(lo, hi)
            if band.count.sum() == 0:
                return float("nan")
            return float(np.average(band.value, weights=band.count))

        low = band_mean(20, 45)
        mid = band_mean(50, report.thresholds.high)
        assert not (np.isnan(low) or np.isnan(mid)), "a band holds no seconds"
        assert mid > low


class TestF2RateUsage:
    def test_1_and_11_mbps_dominate(self, ramp_report):
        """'Scarce use of the 2 Mbps and 5.5 Mbps data rates.'"""
        _, result = ramp_report
        from repro.frames import FrameType

        data = result.trace.only_type(FrameType.DATA)
        counts = np.bincount(data.rate_code, minlength=4).astype(float)
        extremes = counts[0] + counts[3]
        middles = counts[1] + counts[2]
        assert extremes > middles


class TestF4SlowFramesEatAirtime:
    def test_1mbps_airtime_grows_past_knee(self, ramp_report):
        report, _ = ramp_report
        share = report.busytime_share[1.0]
        moderate = share.value_at(55)
        high = share.value_at(95)
        assert not (np.isnan(moderate) or np.isnan(high)), "a bin holds no seconds"
        assert high > moderate

    def test_11mbps_moves_more_bytes_per_airtime(self, ramp_report):
        """11 Mbps delivers more bytes despite less or similar airtime."""
        report, _ = ramp_report
        total_bytes_11 = np.nansum(
            report.bytes_per_rate[11.0].value * report.bytes_per_rate[11.0].count
        )
        total_bytes_1 = np.nansum(
            report.bytes_per_rate[1.0].value * report.bytes_per_rate[1.0].count
        )
        total_busy_11 = np.nansum(
            report.busytime_share[11.0].value * report.busytime_share[11.0].count
        )
        total_busy_1 = np.nansum(
            report.busytime_share[1.0].value * report.busytime_share[1.0].count
        )
        totals = (total_bytes_11, total_bytes_1, total_busy_11, total_busy_1)
        assert min(totals) > 0, totals
        per_airtime_11 = total_bytes_11 / total_busy_11
        per_airtime_1 = total_bytes_1 / total_busy_1
        assert per_airtime_11 > 3 * per_airtime_1


class TestF5AcceptanceDelay:
    def test_1mbps_delays_exceed_11mbps_delays(self, ramp_report):
        """Pooled over all deliveries: the 1 Mbps median acceptance
        delay sits far above the 11 Mbps median (paper Fig 15)."""
        from repro.core import acceptance_delays

        _, result = ramp_report
        delays = acceptance_delays(result.trace)
        slow = delays.delay_us[delays.rate_code == 0]
        fast = delays.delay_us[delays.rate_code == 3]
        assert len(slow) >= 10 and len(fast) >= 10
        assert np.median(slow) > 2 * np.median(fast)


class TestCongestionClassification:
    def test_all_three_states_observed_on_a_full_ramp(self, ramp_report):
        report, _ = ramp_report
        occupancy = report.level_occupancy
        assert all(f >= 0 for f in occupancy.values())
        # The ramp starts idle and ends saturated: at least uncongested
        # and highly congested seconds must both exist.
        from repro.core import CongestionLevel

        assert occupancy[CongestionLevel.UNCONGESTED] > 0
        assert occupancy[CongestionLevel.HIGH] > 0

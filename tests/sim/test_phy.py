"""Tests for the 802.11b PHY model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frames import FrameType
from repro.sim import phy


class TestDurations:
    """Control durations must reproduce the paper's Table 2."""

    def test_rts_352(self):
        assert phy.control_duration_us(FrameType.RTS) == 352

    def test_cts_ack_beacon_304(self):
        for ftype in (FrameType.CTS, FrameType.ACK, FrameType.BEACON):
            assert phy.control_duration_us(ftype) == 304

    def test_data_duration(self):
        assert phy.data_duration_us(1500, 11.0) == round(192 + 8 * 1534 / 11.0)

    def test_frame_duration_dispatch(self):
        assert phy.frame_duration_us(FrameType.DATA, 100, 2.0) == round(
            192 + 8 * 134 / 2.0
        )
        assert phy.frame_duration_us(FrameType.ACK, 0, 1.0) == 304

    def test_data_is_not_fixed_duration(self):
        with pytest.raises(ValueError):
            phy.control_duration_us(FrameType.DATA)


class TestErrorModel:
    def test_ber_decreases_with_snr(self):
        bers = [phy.bit_error_rate(snr, 11.0) for snr in (0.0, 5.0, 10.0, 15.0)]
        assert bers == sorted(bers, reverse=True)

    def test_slower_rates_more_robust(self):
        """At any SNR the processing-gain ladder orders the BERs."""
        for snr in (-2.0, 3.0, 8.0):
            bers = [phy.bit_error_rate(snr, r) for r in (1.0, 2.0, 5.5, 11.0)]
            assert bers == sorted(bers)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError):
            phy.bit_error_rate(10.0, 54.0)

    def test_success_probability_decreases_with_size(self):
        p_small = phy.frame_success_probability(6.0, 100, 11.0)
        p_large = phy.frame_success_probability(6.0, 1500, 11.0)
        assert p_small > p_large

    def test_high_snr_is_clean(self):
        assert phy.frame_success_probability(25.0, 1500, 11.0) > 0.999

    def test_low_snr_kills_11mbps_but_not_1mbps(self):
        """The sensitivity ladder the rate-adaptation story rests on."""
        snr = 4.0
        assert phy.frame_success_probability(snr, 1000, 11.0) < 0.01
        assert phy.frame_success_probability(snr, 1000, 1.0) > 0.99

    def test_control_success_probability(self):
        assert phy.control_success_probability(15.0, FrameType.ACK) > 0.999
        low = phy.control_success_probability(-8.0, FrameType.ACK)
        assert low < 0.9


class TestBestRate:
    def test_high_snr_picks_11(self):
        assert phy.best_rate_for_snr(25.0) == 11.0

    def test_low_snr_picks_1(self):
        assert phy.best_rate_for_snr(2.0) == 1.0

    def test_monotone_in_snr(self):
        rates = [phy.best_rate_for_snr(snr) for snr in range(-2, 26)]
        assert rates == sorted(rates)

    def test_fallback_when_nothing_qualifies(self):
        assert phy.best_rate_for_snr(-20.0) == 1.0


@given(
    snr=st.floats(min_value=-10.0, max_value=40.0),
    size=st.integers(min_value=0, max_value=2000),
    rate=st.sampled_from([1.0, 2.0, 5.5, 11.0]),
)
def test_success_probability_is_a_probability(snr, size, rate):
    p = phy.frame_success_probability(snr, size, rate)
    assert 0.0 <= p <= 1.0

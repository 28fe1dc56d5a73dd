"""SNR-oracle rate adaptation (the paper's §7 recommendation).

The paper concludes that loss-triggered adaptation misreads collisions
as channel errors and recommends schemes that "determine an optimal
packet transmission rate based on SNR" (citing RBAR and OAR).  This
implementation keeps an exponentially-weighted estimate of the SNR of
frames heard *from* each peer (ACKs are the natural feedback channel)
and picks the highest rate whose predicted frame error rate at that SNR
is below a target (:func:`repro.sim.phy.best_rate_for_snr`, the one
rate rule).  Collision losses leave the SNR estimate — and hence the
rate — untouched, which is exactly the property the paper asks for.
"""

from __future__ import annotations

from ...frames import DOT11_RATES_MBPS
from .. import phy
from .base import RateAdaptation

__all__ = ["SnrOracleRateAdaptation"]


class SnrOracleRateAdaptation(RateAdaptation):
    """Pick the fastest rate whose predicted PER at the link SNR is OK."""

    def __init__(self, ewma_alpha: float = 0.25, margin_db: float = 0.0) -> None:
        """``margin_db`` is subtracted from the observed feedback SNR
        before choosing a rate.  Feedback measures the *reverse* link;
        when the peer transmits hotter than we do (an AP typically runs
        ~6 dB above a laptop), the forward link is weaker by exactly
        that asymmetry, and RBAR-style schemes budget for it."""
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if margin_db < 0:
            raise ValueError("margin_db must be non-negative")
        self.ewma_alpha = ewma_alpha
        self.margin_db = margin_db
        self._snr: dict[int, float] = {}

    def on_feedback_snr(self, dst: int, snr_db: float) -> None:
        old = self._snr.get(dst)
        if old is None:
            self._snr[dst] = snr_db
        else:
            self._snr[dst] = (1 - self.ewma_alpha) * old + self.ewma_alpha * snr_db

    def rate_for(self, dst: int) -> float:
        snr = self._snr.get(dst)
        if snr is None:
            return DOT11_RATES_MBPS[-1]  # no feedback yet: the top rate
        return phy.best_rate_for_snr(snr - self.margin_db)

    def on_success(self, dst: int) -> None:
        pass  # outcome-independent by design

    def on_failure(self, dst: int) -> None:
        pass  # collisions must not drive the rate down

    def reset(self, dst: int) -> None:
        self._snr.pop(dst, None)

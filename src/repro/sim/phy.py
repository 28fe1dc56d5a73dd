"""802.11b physical layer model: rates, durations, error probabilities.

Frame durations follow the paper's Table 2 exactly: a long-preamble PLCP
header of 192 us precedes every frame, the MAC body is ``8*(34+size)/rate``
microseconds, and the 1 Mbps control frames come out at the paper's
D_RTS = 352 us, D_CTS = D_ACK = 304 us.

Bit error rates use a processing-gain-scaled Gaussian-Q family:

    BER(rate) = 0.5 * erfc(sqrt(g_rate * snr_linear))

with g = 11.0 / 5.5 / 2.0 / 1.0 for 1 / 2 / 5.5 / 11 Mbps.  The gains
mirror the DSSS spreading gain ladder (Barker-11 at 1 Mbps down to CCK-8
at 11 Mbps) and reproduce the ~3 dB-per-step receiver-sensitivity ladder
of commodity 802.11b radios (-94/-91/-87/-82 dBm class behaviour):
robust low rates, fragile high rates.  The paper's observations depend
only on that ordering, not on exact coded BER curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..frames import (
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    RTS_FRAME_BYTES,
    FrameType,
)
from ..core.timing import DOT11B_TIMING

__all__ = [
    "PhyModel",
    "BASIC_RATE_MBPS",
    "CONTROL_FRAME_BYTES",
    "PLCP_HEADER_BITS",
    "snr_db_to_linear",
]

#: Control frames and PLCP are sent at the 1 Mbps basic rate.
BASIC_RATE_MBPS = 1.0

#: PLCP SIGNAL/SERVICE/LENGTH/CRC bits, ahead of every frame at the
#: basic rate; the bits of a frame's error law besides its body.
PLCP_HEADER_BITS = 48

#: Bytes of each fixed-size frame in its error law; a beacon counts as
#: an ACK.
CONTROL_FRAME_BYTES = {
    FrameType.RTS: RTS_FRAME_BYTES,
    FrameType.CTS: CTS_FRAME_BYTES,
    FrameType.ACK: ACK_FRAME_BYTES,
    FrameType.BEACON: ACK_FRAME_BYTES,
}

#: Spreading/processing gain per 802.11b rate (see module docstring).
_PROCESSING_GAIN = {1.0: 11.0, 2.0: 5.5, 5.5: 2.0, 11.0: 1.0}


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR in dB to a linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class PhyModel:
    """802.11b PHY: durations and per-frame error probabilities.

    Durations come from the paper's Table 2 (:data:`DOT11B_TIMING`).
    """

    # -- durations -------------------------------------------------------

    def data_duration_us(self, size_bytes: int, rate_mbps: float) -> int:
        """On-air time of a data/management frame, rounded to whole us."""
        return round(DOT11B_TIMING.data_frame_duration_us(size_bytes, rate_mbps))

    def control_duration_us(self, ftype: FrameType) -> int:
        """On-air time of a control/beacon frame (Table 2 constants)."""
        if ftype == FrameType.RTS:
            return round(DOT11B_TIMING.rts_us)
        if ftype == FrameType.CTS:
            return round(DOT11B_TIMING.cts_us)
        if ftype == FrameType.ACK:
            return round(DOT11B_TIMING.ack_us)
        if ftype == FrameType.BEACON:
            return round(DOT11B_TIMING.beacon_us)
        raise ValueError(f"{ftype!r} is not a fixed-duration frame type")

    def frame_duration_us(
        self, ftype: FrameType, size_bytes: int, rate_mbps: float
    ) -> int:
        """On-air time of any frame type."""
        if ftype in (FrameType.DATA, FrameType.MGMT):
            return self.data_duration_us(size_bytes, rate_mbps)
        return self.control_duration_us(ftype)

    # -- error model -------------------------------------------------------

    def bit_error_rate(self, snr_db: float, rate_mbps: float) -> float:
        """BER at a given post-processing SNR for one 802.11b rate."""
        gain = _PROCESSING_GAIN.get(float(rate_mbps))
        if gain is None:
            raise ValueError(f"{rate_mbps!r} is not an 802.11b rate")
        snr_linear = snr_db_to_linear(snr_db)
        return _q_function(math.sqrt(2.0 * gain * snr_linear))

    def log_survival(self, snr_db: float, rate_mbps: float) -> float:
        """``log(1 - BER)``, the per-bit survival law, BER clamped below 1.

        Every success probability in both engines is ``exp`` of bit
        counts times these terms; callers that cache them recombine the
        exact expressions below, so probabilities stay bit-identical.
        """
        return math.log1p(-min(self.bit_error_rate(snr_db, rate_mbps), 1 - 1e-12))

    def frame_success_probability(
        self, snr_db: float, size_bytes: int, rate_mbps: float
    ) -> float:
        """P(all bits survive): (1-BER_header)^header * (1-BER_rate)^body.

        The PLCP header always rides at the basic rate; the body at
        ``rate_mbps``.  ``size_bytes`` excludes the 34-byte MAC overhead,
        which we add back, matching the duration formula.
        """
        body_bits = 8 * (DOT11B_TIMING.mac_overhead_bytes + size_bytes)
        return math.exp(
            PLCP_HEADER_BITS * self.log_survival(snr_db, BASIC_RATE_MBPS)
            + body_bits * self.log_survival(snr_db, rate_mbps)
        )

    def control_success_probability(self, snr_db: float, ftype: FrameType) -> float:
        """Success probability for fixed-size control/beacon frames."""
        size = CONTROL_FRAME_BYTES[ftype]
        return math.exp(8 * size * self.log_survival(snr_db, BASIC_RATE_MBPS))

    def best_rate_for_snr(
        self, snr_db: float, size_bytes: int = 1000, target_per: float = 0.1
    ) -> float:
        """Highest rate whose frame error prob. stays under ``target_per``.

        Used by the SNR-oracle rate-adaptation baseline (the paper's §7
        recommendation).  Falls back to 1 Mbps when nothing qualifies.
        """
        from ..frames import DOT11_RATES_MBPS

        for rate in sorted(DOT11_RATES_MBPS, reverse=True):
            per = 1.0 - self.frame_success_probability(snr_db, size_bytes, rate)
            if per <= target_per:
                return rate
        return 1.0

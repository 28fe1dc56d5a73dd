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

There is one PHY, so its laws are functions of this module
(``phy.frame_success_probability(...)``, ``phy.log_survival(...)``,
``phy.best_rate_for_snr(...)``) that both engines, the rate policies
and the Cantieni baseline call directly; nothing holds a PHY instance.
"""

from __future__ import annotations

import math

from ..frames import (
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    DOT11_RATES_MBPS,
    RTS_FRAME_BYTES,
    FrameType,
)
from ..core.timing import DOT11B_TIMING

__all__ = [
    "BASIC_RATE_MBPS",
    "CONTROL_FRAME_BYTES",
    "PLCP_HEADER_BITS",
    "RATE_REFERENCE_BYTES",
    "RATE_TARGET_PER",
    "best_rate_for_snr",
    "bit_error_rate",
    "control_duration_us",
    "control_success_probability",
    "data_duration_us",
    "frame_duration_us",
    "frame_success_probability",
    "log_survival",
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

#: The SNR-oracle rate rule (:func:`best_rate_for_snr`): the fastest
#: rate whose frame of this many bytes keeps its error probability
#: within this target.  The oracle policy and the fast engine's per-link
#: rates apply it, and the fast engine's hidden-pair weights price a
#: frame of the same size.  There the rule stands in for the default
#: engine's oracle, which seeds at 11 Mbps and tracks a noisy EWMA of
#: interference-depressed SNR, so its effective choice is a notch more
#: aggressive than the clean steady state; the target is calibrated
#: against its measured retry rates.
RATE_REFERENCE_BYTES = 1000
RATE_TARGET_PER = 0.1

#: Spreading/processing gain per 802.11b rate (see module docstring).
_PROCESSING_GAIN = {1.0: 11.0, 2.0: 5.5, 5.5: 2.0, 11.0: 1.0}


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR in dB to a linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# -- durations -------------------------------------------------------------


def data_duration_us(size_bytes: int, rate_mbps: float) -> int:
    """On-air time of a data/management frame, rounded to whole us."""
    return round(DOT11B_TIMING.data_frame_duration_us(size_bytes, rate_mbps))


def control_duration_us(ftype: FrameType) -> int:
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


def frame_duration_us(ftype: FrameType, size_bytes: int, rate_mbps: float) -> int:
    """On-air time of any frame type."""
    if ftype in (FrameType.DATA, FrameType.MGMT):
        return data_duration_us(size_bytes, rate_mbps)
    return control_duration_us(ftype)


# -- error model -------------------------------------------------------------


def bit_error_rate(snr_db: float, rate_mbps: float) -> float:
    """BER at a given post-processing SNR for one 802.11b rate."""
    gain = _PROCESSING_GAIN.get(float(rate_mbps))
    if gain is None:
        raise ValueError(f"{rate_mbps!r} is not an 802.11b rate")
    snr_linear = snr_db_to_linear(snr_db)
    return _q_function(math.sqrt(2.0 * gain * snr_linear))


def log_survival(snr_db: float, rate_mbps: float) -> float:
    """``log(1 - BER)``, the per-bit survival law, BER clamped below 1.

    Every success probability in both engines is ``exp`` of bit counts
    times these terms; callers that cache them recombine the exact
    expressions below, so probabilities stay bit-identical.
    """
    return math.log1p(-min(bit_error_rate(snr_db, rate_mbps), 1 - 1e-12))


def frame_success_probability(
    snr_db: float, size_bytes: int, rate_mbps: float
) -> float:
    """P(all bits survive): (1-BER_header)^header * (1-BER_rate)^body.

    The PLCP header always rides at the basic rate; the body at
    ``rate_mbps``.  ``size_bytes`` excludes the 34-byte MAC overhead,
    which we add back, matching the duration formula.
    """
    body_bits = 8 * (DOT11B_TIMING.mac_overhead_bytes + size_bytes)
    return math.exp(
        PLCP_HEADER_BITS * log_survival(snr_db, BASIC_RATE_MBPS)
        + body_bits * log_survival(snr_db, rate_mbps)
    )


def control_success_probability(snr_db: float, ftype: FrameType) -> float:
    """Success probability for fixed-size control/beacon frames."""
    size = CONTROL_FRAME_BYTES[ftype]
    return math.exp(8 * size * log_survival(snr_db, BASIC_RATE_MBPS))


def best_rate_for_snr(snr_db: float) -> float:
    """Highest rate whose :data:`RATE_REFERENCE_BYTES` frame error
    probability stays within :data:`RATE_TARGET_PER`.

    The SNR-oracle rate rule (the paper's §7 recommendation), read by
    the oracle policy and the fast engine's per-link rates.  Falls back
    to 1 Mbps when nothing qualifies.
    """
    for rate in sorted(DOT11_RATES_MBPS, reverse=True):
        per = 1.0 - frame_success_probability(snr_db, RATE_REFERENCE_BYTES, rate)
        if per <= RATE_TARGET_PER:
            return rate
    return 1.0

"""Channel throughput and goodput versus utilization (paper §5.2, Fig 6).

* **Throughput** of a one-second interval: total bits of *all* frames
  transmitted on the channel during that second (retransmissions count).
* **Goodput**: total bits of all control frames plus all *successfully
  acknowledged* data frames during that second — wasted (unacked or
  retransmitted-in-vain) data bits are excluded.

Figure 6 plots the average of each quantity over all seconds that share
the same integer utilization percentage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization, sum_per_interval
from ..frames import FrameType, Trace
from .acking import match_acks
from .utilization import UtilizationSeries, utilization_series

__all__ = [
    "ThroughputSeries",
    "control_frame_mask",
    "frame_bits",
    "throughput_per_second",
    "goodput_per_second",
    "throughput_vs_utilization",
]


def control_frame_mask(ftype: np.ndarray) -> np.ndarray:
    """Frames whose bits always count toward goodput (§5.2).

    Control and management frames are never retransmitted-in-vain data,
    so the paper's goodput includes them unconditionally.  Shared by
    :func:`goodput_per_second` and the streaming pipeline.
    """
    return (
        (ftype == int(FrameType.ACK))
        | (ftype == int(FrameType.RTS))
        | (ftype == int(FrameType.CTS))
        | (ftype == int(FrameType.BEACON))
        | (ftype == int(FrameType.MGMT))
    )


@dataclass(frozen=True)
class ThroughputSeries:
    """Figure 6 payload: throughput and goodput per utilization bin."""

    throughput_mbps: BinnedSeries
    goodput_mbps: BinnedSeries
    utilization: UtilizationSeries

    def peak(self) -> tuple[float, float]:
        """(utilization %, Mbps) at the throughput maximum."""
        idx = int(np.argmax(self.throughput_mbps.value))
        return (
            float(self.throughput_mbps.utilization[idx]),
            float(self.throughput_mbps.value[idx]),
        )


def frame_bits(trace: Trace) -> np.ndarray:
    """On-air information bits per frame.

    Data/management frames carry ``8 * size`` payload bits; control
    frames carry their fixed frame sizes.  This matches the paper's
    "total number of bits of all frames" accounting.
    """
    from ..frames import ACK_FRAME_BYTES, CTS_FRAME_BYTES, RTS_FRAME_BYTES

    bits = trace.size.astype(np.float64) * 8.0
    ftype = trace.ftype
    bits[ftype == int(FrameType.ACK)] = ACK_FRAME_BYTES * 8.0
    bits[ftype == int(FrameType.RTS)] = RTS_FRAME_BYTES * 8.0
    bits[ftype == int(FrameType.CTS)] = CTS_FRAME_BYTES * 8.0
    return bits


def throughput_per_second(
    trace: Trace,
    start_us: int | None = None,
    n_seconds: int | None = None,
) -> np.ndarray:
    """Total transmitted bits per second (Mbps array)."""
    bits = frame_bits(trace)
    per_second = sum_per_interval(
        trace, bits, interval_us=1_000_000, start_us=start_us, n_intervals=n_seconds
    )
    return per_second / 1e6


def goodput_per_second(
    trace: Trace,
    start_us: int | None = None,
    n_seconds: int | None = None,
) -> np.ndarray:
    """Bits of control frames plus acked data frames, per second (Mbps)."""
    bits = frame_bits(trace)
    match = match_acks(trace)
    good = control_frame_mask(trace.ftype) | match.acked
    masked_bits = np.where(good, bits, 0.0)
    per_second = sum_per_interval(
        trace,
        masked_bits,
        interval_us=1_000_000,
        start_us=start_us,
        n_intervals=n_seconds,
    )
    return per_second / 1e6


def throughput_vs_utilization(trace: Trace) -> ThroughputSeries:
    """Reproduce Figure 6 for ``trace``.

    Computes per-second utilization, throughput and goodput over the
    same second grid, then averages the Mbps values per integer
    utilization bin.
    """
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    start = util.start_us
    tput = throughput_per_second(trace, start_us=start, n_seconds=n)
    gput = goodput_per_second(trace, start_us=start, n_seconds=n)
    return ThroughputSeries(
        throughput_mbps=bin_by_utilization(util.percent, tput),
        goodput_mbps=bin_by_utilization(util.percent, gput),
        utilization=util,
    )

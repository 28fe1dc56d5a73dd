"""First-attempt frame reception (paper §6.4, Figure 14).

Figure 14 plots, against utilization, the average number of data frames
per second that were **successfully acknowledged on their first
transmission attempt**, split by data rate.  The paper's reading: 11 Mbps
frames dominate, dip in the 80-84 % contention band, and rise again under
high congestion as slow 1 Mbps frames crowd the channel and the short
11 Mbps frames that do get through survive with higher probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization, sum_per_interval
from ..frames import DOT11_RATES_MBPS, FrameType, Trace
from .acking import match_acks
from .utilization import utilization_series

__all__ = ["ReceptionSeries", "first_attempt_ack_vs_utilization"]


@dataclass(frozen=True)
class ReceptionSeries:
    """First-attempt-acked frames/second per rate, per utilization bin."""

    per_rate: dict[float, BinnedSeries]

    def __getitem__(self, rate_mbps: float) -> BinnedSeries:
        return self.per_rate[rate_mbps]

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(self.per_rate)


def first_attempt_ack_vs_utilization(trace: Trace) -> ReceptionSeries:
    """Reproduce Figure 14 for ``trace``.

    A frame qualifies when (a) its Retry bit is clear — it is a first
    attempt — and (b) it is immediately followed in the capture by its
    ACK (the paper's §6.4 identification rule).
    """
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    match = match_acks(trace)
    first_attempt_acked = (
        match.acked
        & (trace.ftype == int(FrameType.DATA))
        & ~trace.retry
    )
    per_rate: dict[float, BinnedSeries] = {}
    for code, rate in enumerate(DOT11_RATES_MBPS):
        qualifying = (first_attempt_acked & (trace.rate_code == code)).astype(
            np.float64
        )
        counts = sum_per_interval(
            trace, qualifying, start_us=util.start_us, n_intervals=n
        )
        per_rate[rate] = bin_by_utilization(util.percent, counts)
    return ReceptionSeries(per_rate=per_rate)

"""Per-rate channel busy-time share and byte volume (paper §6.2, Figs 8-9).

Figure 8: for each utilization level, the average fraction of a one-second
interval occupied by data frames at each of the four rates.  The paper's
headline: the 1 Mbps share grows from 0.43 s to 0.54 s across the
high-congestion knee while the 11 Mbps share stays near half that.

Figure 9: average number of bytes transmitted per second at each rate.
11 Mbps carries roughly 300 % more bytes than 1 Mbps despite occupying
half the channel time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization, sum_per_interval
from ..frames import DOT11_RATES_MBPS, FrameType, Trace
from .busytime import cbt_by_second_per_rate
from .utilization import utilization_series

__all__ = ["RateShareSeries", "busytime_share_vs_utilization", "bytes_per_rate_vs_utilization"]


@dataclass(frozen=True)
class RateShareSeries:
    """Per-rate binned series, keyed by Mbps value (1, 2, 5.5, 11)."""

    per_rate: dict[float, BinnedSeries]

    def __getitem__(self, rate_mbps: float) -> BinnedSeries:
        return self.per_rate[rate_mbps]

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(self.per_rate)

    def ratio_at(self, num_rate: float, den_rate: float, utilization: float) -> float:
        """value(num_rate)/value(den_rate) at a utilization bin."""
        num = self.per_rate[num_rate].value_at(utilization)
        den = self.per_rate[den_rate].value_at(utilization)
        if den == 0 or np.isnan(den):
            return float("nan")
        return num / den


def busytime_share_vs_utilization(trace: Trace) -> RateShareSeries:
    """Reproduce Figure 8: seconds of channel time per rate, per bin."""
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    cbt = cbt_by_second_per_rate(trace, start_us=util.start_us, n_seconds=n)
    per_rate = {}
    for code, rate in enumerate(DOT11_RATES_MBPS):
        seconds_busy = cbt[:, code] / 1e6  # fraction of each second
        per_rate[rate] = bin_by_utilization(util.percent, seconds_busy)
    return RateShareSeries(per_rate=per_rate)


def bytes_per_rate_vs_utilization(trace: Trace) -> RateShareSeries:
    """Reproduce Figure 9: data bytes per second per rate, per bin."""
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    data = trace.only_type(FrameType.DATA)
    per_rate = {}
    for code, rate in enumerate(DOT11_RATES_MBPS):
        sub = data.select(data.rate_code == code)
        byte_counts = sum_per_interval(
            sub,
            sub.size.astype(np.float64),
            start_us=util.start_us,
            n_intervals=n,
        )
        per_rate[rate] = bin_by_utilization(util.percent, byte_counts)
    return RateShareSeries(per_rate=per_rate)

"""Analysis substrate: columnar tables, binning, time series, statistics."""

from .binning import BinnedSeries, bin_by_utilization, utilization_bins
from .columns import ColumnTable
from .stats import Knee, find_knee, moving_average
from .timeseries import count_per_interval, interval_index, sum_per_interval

__all__ = [
    "BinnedSeries",
    "ColumnTable",
    "Knee",
    "bin_by_utilization",
    "count_per_interval",
    "find_knee",
    "interval_index",
    "moving_average",
    "sum_per_interval",
    "utilization_bins",
]

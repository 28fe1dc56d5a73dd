"""Utilization binning — the x-axis transform behind Figures 6-15.

Every "versus channel utilization" figure in the paper is built the same
way: take all one-second intervals, compute each second's utilization
percentage, round it to an integer bin, and average the quantity of
interest over all seconds that landed in the same bin ("each point value
y ... is the average over all one second intervals that are y %
utilized").  :func:`bin_by_utilization` implements that transform once so
every analysis module shares identical semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinnedSeries", "bin_by_utilization", "utilization_bins"]


@dataclass(frozen=True)
class BinnedSeries:
    """A per-utilization-bin aggregate.

    ``utilization[i]`` is the integer bin (percent) and ``value[i]`` the
    mean of the y-quantity over the ``count[i]`` seconds in that bin.
    """

    utilization: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.utilization)

    def restricted(self, lo: float, hi: float) -> "BinnedSeries":
        """Bins with ``lo <= utilization <= hi`` (paper uses 30-99 %)."""
        sel = (self.utilization >= lo) & (self.utilization <= hi)
        return BinnedSeries(
            self.utilization[sel], self.value[sel], self.count[sel]
        )

    def value_at(self, utilization: float) -> float:
        """Mean y at the bin nearest ``utilization`` (nan if empty)."""
        if len(self.utilization) == 0:
            return float("nan")
        idx = int(np.argmin(np.abs(self.utilization - utilization)))
        return float(self.value[idx])


def utilization_bins(percent: np.ndarray) -> np.ndarray:
    """Integer utilization bin per second: round then clip to [0, 100]."""
    return np.clip(np.rint(percent), 0, 100.0).astype(np.int64)


def bin_by_utilization(
    utilization_percent: np.ndarray, values: np.ndarray
) -> BinnedSeries:
    """Average ``values`` over seconds grouped by integer utilization bin.

    ``utilization_percent`` and ``values`` are parallel per-second
    arrays.  Every bin at least one second landed in is kept.
    """
    utilization_percent = np.asarray(utilization_percent, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if utilization_percent.shape != values.shape:
        raise ValueError("utilization and values must be parallel arrays")
    bins = utilization_bins(utilization_percent)
    n_bins = 101  # 0 % to 100 %
    counts = np.bincount(bins, minlength=n_bins)
    sums = np.bincount(bins, weights=values, minlength=n_bins)
    present = counts > 0
    lefts = np.arange(n_bins)[present]
    means = sums[present] / counts[present]
    return BinnedSeries(
        utilization=lefts.astype(np.float64),
        value=means,
        count=counts[present].astype(np.int64),
    )

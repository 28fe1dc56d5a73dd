"""Statistical helpers: knee detection and smoothing.

The paper locates its high-congestion threshold by eye: throughput rises
with utilization until ~84 %, then collapses.  :func:`find_knee`
automates that: find the utilization at which a smoothed y-curve attains
its maximum, requiring that the curve actually *declines* afterwards so a
monotone curve reports no knee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinnedSeries

__all__ = ["Knee", "find_knee", "moving_average"]


@dataclass(frozen=True)
class Knee:
    """Location of a rise-then-fall maximum in a binned series."""

    utilization: float     # x position of the peak (percent)
    peak_value: float      # smoothed y at the peak
    tail_value: float      # smoothed y at the right edge of the series
    drop_fraction: float   # (peak - tail) / peak

    @property
    def is_significant(self) -> bool:
        """True when the post-peak decline exceeds 10 % of the peak."""
        return self.drop_fraction >= 0.10


def moving_average(values: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average with edge padding."""
    values = np.asarray(values, dtype=np.float64)
    if window <= 1 or len(values) < window:
        return values.copy()
    kernel = np.ones(window) / window
    padded = np.pad(values, window // 2, mode="edge")
    return np.convolve(padded, kernel, mode="valid")[: len(values)]


#: Bins at the right edge that make up the post-peak tail.
_TAIL_BINS = 3


def find_knee(series: BinnedSeries, smooth_window: int = 5) -> Knee | None:
    """Find the utilization at which ``series`` peaks before declining.

    Returns ``None`` when the series is too short or the peak sits in
    the last :data:`_TAIL_BINS` bins (no observable decline, hence no
    knee).  The returned :class:`Knee` reports the magnitude of the
    post-peak drop, against the mean of those bins, so callers can
    judge significance.
    """
    if len(series) < smooth_window + _TAIL_BINS:
        return None
    smooth = moving_average(series.value, smooth_window)
    peak_idx = int(np.argmax(smooth))
    if peak_idx >= len(smooth) - _TAIL_BINS:
        return None  # peak at the edge: monotone rise, no knee
    peak = float(smooth[peak_idx])
    tail = float(np.mean(smooth[-_TAIL_BINS:]))
    if peak <= 0:
        return None
    return Knee(
        utilization=float(series.utilization[peak_idx]),
        peak_value=peak,
        tail_value=tail,
        drop_fraction=(peak - tail) / peak,
    )

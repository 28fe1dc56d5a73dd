"""Per-second channel utilization U(t) — paper §5.1, Equation 8.

U(t) = CBT_TOTAL(t) / 1e6 * 100, i.e. the busy microseconds in a
one-second interval expressed as a percentage.  Because the CBT model
attributes nominal IFS overheads to every captured frame, a saturated
second can exceed 100 % slightly; the paper's Figure 5 clips its axis at
100 but the raw metric is unbounded above.  We keep the raw value and let
callers clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frames import Trace
from .busytime import cbt_by_second

__all__ = ["UtilizationSeries", "utilization_series", "utilization_histogram"]


@dataclass(frozen=True)
class UtilizationSeries:
    """Per-second utilization of one channel or one merged data set.

    ``start_us`` anchors second ``0``; ``percent[i]`` is U(t) for the
    interval ``[start_us + i s, start_us + (i+1) s)``.
    """

    start_us: int
    percent: np.ndarray

    def __len__(self) -> int:
        return len(self.percent)

    @property
    def seconds(self) -> np.ndarray:
        """Elapsed-seconds axis for plotting (Fig 5a/5b)."""
        return np.arange(len(self.percent))

    def clipped(self) -> np.ndarray:
        """Utilization clipped to ``[0, 100]`` as displayed in Fig 5."""
        return np.clip(self.percent, 0.0, 100.0)

    def histogram(self, bin_width: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Frequency of utilization values (Fig 5c).

        Returns ``(bin_lefts, counts)`` where counts[i] is the number of
        seconds whose (clipped) utilization fell in
        ``[bin_lefts[i], bin_lefts[i] + bin_width)``.
        """
        edges = np.arange(0.0, 100.0 + bin_width, bin_width)
        counts, _ = np.histogram(self.clipped(), bins=edges)
        return edges[:-1], counts

    def mode_percent(self, bin_width: float = 1.0) -> float:
        """The most frequent utilization level (paper: ~55 % day, ~86 % plenary)."""
        lefts, counts = self.histogram(bin_width)
        if counts.sum() == 0:
            return 0.0
        return float(lefts[np.argmax(counts)] + bin_width / 2.0)


def utilization_series(
    trace: Trace,
    start_us: int | None = None,
    n_seconds: int | None = None,
) -> UtilizationSeries:
    """Compute U(t) for every one-second interval of ``trace`` (Eq 8)."""
    if len(trace) and start_us is None:
        start_us = int(trace.sorted_by_time().time_us[0])
    busy_us = cbt_by_second(trace, start_us=start_us, n_seconds=n_seconds)
    return UtilizationSeries(
        start_us=int(start_us or 0), percent=busy_us / 1_000_000.0 * 100.0
    )


def utilization_histogram(
    trace: Trace, bin_width: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """One-call Figure 5(c): histogram of per-second utilization."""
    return utilization_series(trace).histogram(bin_width)

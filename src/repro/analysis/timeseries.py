"""Per-interval time-series aggregation over traces.

Figures 4(b) and 5(a/b) are time series: a quantity aggregated over
fixed intervals of trace time (30 s for user counts, 1 s for
utilization).  These helpers map frame timestamps onto interval indices
and aggregate values per interval.
"""

from __future__ import annotations

import numpy as np

from ..frames import Trace

__all__ = ["interval_index", "count_per_interval", "sum_per_interval"]


def interval_index(
    time_us: np.ndarray, start_us: int, interval_us: int
) -> np.ndarray:
    """Interval index of each timestamp relative to ``start_us``."""
    if interval_us <= 0:
        raise ValueError("interval_us must be positive")
    return ((np.asarray(time_us, dtype=np.int64) - start_us) // interval_us).astype(
        np.int64
    )


def _span(idx: np.ndarray, n_intervals: int | None) -> int:
    if n_intervals is not None:
        return int(n_intervals)
    return int(idx.max()) + 1 if len(idx) else 0


def count_per_interval(
    trace: Trace,
    interval_us: int = 1_000_000,
    start_us: int | None = None,
    n_intervals: int | None = None,
) -> np.ndarray:
    """Number of frames per interval."""
    if len(trace) == 0:
        return np.zeros(n_intervals or 0, dtype=np.int64)
    t0 = int(trace.time_us.min()) if start_us is None else int(start_us)
    idx = interval_index(trace.time_us, t0, interval_us)
    length = _span(idx, n_intervals)
    valid = (idx >= 0) & (idx < length)
    return np.bincount(idx[valid], minlength=length)[:length]


def sum_per_interval(
    trace: Trace,
    values: np.ndarray,
    interval_us: int = 1_000_000,
    start_us: int | None = None,
    n_intervals: int | None = None,
) -> np.ndarray:
    """Sum of a per-frame quantity (e.g. bits) per interval."""
    if len(trace) == 0:
        return np.zeros(n_intervals or 0, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != len(trace):
        raise ValueError("values must be parallel to the trace")
    t0 = int(trace.time_us.min()) if start_us is None else int(start_us)
    idx = interval_index(trace.time_us, t0, interval_us)
    length = _span(idx, n_intervals)
    valid = (idx >= 0) & (idx < length)
    return np.bincount(idx[valid], weights=values[valid], minlength=length)[:length]

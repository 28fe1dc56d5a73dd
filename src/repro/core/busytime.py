"""Per-frame channel busy-time (CBT) — paper §5.1, Equations 2-7.

The channel busy-time of a frame is the span of channel occupancy the
frame accounts for, *including* the inter-frame spacing that precedes it,
because during an IFS the medium is unshared:

* data frame:   CBT = D_DIFS + D_DATA(size)(rate)          (Eq 2)
* RTS frame:    CBT = D_RTS                                 (Eq 3)
* CTS frame:    CBT = D_SIFS + D_CTS                        (Eq 4)
* ACK frame:    CBT = D_SIFS + D_ACK                        (Eq 5)
* beacon frame: CBT = D_DIFS + D_BEACON                     (Eq 6)

(The paper attributes the DIFS preceding an RTS to the subsequent data
frame, so CBT_RTS carries no IFS term.)  Equation 7 sums CBT over all
frames captured in a one-second interval.
"""

from __future__ import annotations

import numpy as np

from ..frames import FrameType, Trace
from .timing import DOT11B_TIMING

__all__ = [
    "frame_cbt_us",
    "trace_cbt_us",
    "cbt_by_second",
    "cbt_by_second_per_rate",
]


#: CBT of the fixed-size frames (Equations 3-6).
_FIXED_CBT_US = {
    FrameType.RTS: DOT11B_TIMING.rts_us,
    FrameType.CTS: DOT11B_TIMING.sifs_us + DOT11B_TIMING.cts_us,
    FrameType.ACK: DOT11B_TIMING.sifs_us + DOT11B_TIMING.ack_us,
    FrameType.BEACON: DOT11B_TIMING.difs_us + DOT11B_TIMING.beacon_us,
}


def frame_cbt_us(
    ftype: FrameType, size_bytes: int = 0, rate_mbps: float = 1.0
) -> float:
    """Channel busy-time of one frame, in microseconds (Equations 2-6).

    Management frames other than beacons are treated like data frames
    (they are data-rate encoded payloads preceded by a DIFS).
    """
    if ftype in (FrameType.DATA, FrameType.MGMT):
        duration_us = DOT11B_TIMING.data_frame_duration_us(size_bytes, rate_mbps)
        return DOT11B_TIMING.difs_us + duration_us
    if ftype in _FIXED_CBT_US:
        return _FIXED_CBT_US[ftype]
    raise ValueError(f"unknown frame type: {ftype!r}")


def trace_cbt_us(trace: Trace) -> np.ndarray:
    """Vectorised per-frame CBT for a whole trace, in microseconds."""
    cbt = np.zeros(len(trace), dtype=np.float64)
    ftype = trace.ftype
    data_like = (ftype == int(FrameType.DATA)) | (ftype == int(FrameType.MGMT))
    if np.any(data_like):
        cbt[data_like] = DOT11B_TIMING.difs_us + (
            DOT11B_TIMING.data_frame_duration_us_array(
                trace.size[data_like], trace.rate_mbps[data_like]
            )
        )
    for fixed, cbt_us in _FIXED_CBT_US.items():
        cbt[ftype == int(fixed)] = cbt_us
    return cbt


def _second_index(trace: Trace, start_us: int | None) -> tuple[np.ndarray, int]:
    """Map each frame to its one-second interval index from ``start_us``."""
    t0 = int(trace.time_us[0]) if start_us is None else int(start_us)
    seconds = ((trace.time_us - t0) // 1_000_000).astype(np.int64)
    n_seconds = int(seconds[-1]) + 1 if len(trace) else 0
    return seconds, n_seconds


def cbt_by_second(
    trace: Trace,
    start_us: int | None = None,
    n_seconds: int | None = None,
) -> np.ndarray:
    """CBT_TOTAL(t) for each one-second interval t (Equation 7).

    Returns an array of busy microseconds per second of trace time,
    starting at ``start_us`` (default: first frame's timestamp).  If
    ``n_seconds`` is given the result is padded or truncated to that
    length so callers can align multiple per-second series.
    """
    if len(trace) == 0:
        return np.zeros(n_seconds or 0, dtype=np.float64)
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    seconds, span = _second_index(trace, start_us)
    length = span if n_seconds is None else int(n_seconds)
    valid = (seconds >= 0) & (seconds < length)
    totals = np.bincount(
        seconds[valid], weights=trace_cbt_us(trace)[valid], minlength=length
    )
    return totals[:length]


def cbt_by_second_per_rate(
    trace: Trace,
    start_us: int | None = None,
    n_seconds: int | None = None,
) -> np.ndarray:
    """CBT per second split by data rate — the quantity behind Figure 8.

    Returns an array of shape ``(n_seconds, 4)`` of busy microseconds
    attributable to *data* frames sent at each of the four 802.11b rates.
    Control/management frames are excluded, matching the figure's focus
    on data-rate share.
    """
    data = trace.only_type(FrameType.DATA)
    if len(data) == 0:
        return np.zeros((n_seconds or 0, 4), dtype=np.float64)
    if not data.is_time_sorted():
        data = data.sorted_by_time()
    if start_us is None:
        start_us = int(trace.time_us[0]) if len(trace) else 0
    seconds, span = _second_index(data, start_us)
    length = span if n_seconds is None else int(n_seconds)
    cbt = trace_cbt_us(data)
    out = np.zeros((length, 4), dtype=np.float64)
    for code in range(4):
        sel = (data.rate_code == code) & (seconds >= 0) & (seconds < length)
        if np.any(sel):
            out[:, code] = np.bincount(
                seconds[sel], weights=cbt[sel], minlength=length
            )[:length]
    return out

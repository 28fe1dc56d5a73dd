"""Multi-sniffer capture fusion (paper §4.2).

The day-session deployment placed *three* sniffers in one room, each on
its own channel; but overlapping deployments (several sniffers on the
same channel, as the paper recommends for future work in §4.4) capture
many frames twice.  :func:`merge_captures` fuses any number of captures
into one analysis-ready trace, removing duplicates: two records are the
same frame when they agree on (timestamp, type, source, destination,
sequence number, channel) — the on-air identity of a frame.

Fusing overlapping sniffers *reduces* the unrecorded-frame percentage,
because a frame missed by one vantage point is often captured by
another; :func:`coverage_gain` quantifies that, which is exactly the
"use a greater number of sniffers" improvement §4.4 calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..frames import Trace

__all__ = ["merge_captures", "CoverageGain", "coverage_gain"]


def merge_captures(captures: Sequence[Trace], dedupe: bool = True) -> Trace:
    """Fuse sniffer captures into one time-sorted trace.

    With ``dedupe`` (the default), frames recorded by several sniffers
    appear once — the record kept is the one with the strongest SNR
    (the best vantage point's measurement).
    """
    merged = Trace.concatenate(list(captures))
    if not dedupe or len(merged) == 0:
        return merged
    identity = [
        getattr(merged, name)
        for name in ("channel", "seq", "dst", "src", "ftype", "time_us")
    ]
    # Group rows on the six identity columns, highest SNR first in each
    # group, and keep each group's first row.
    order = np.lexsort([-merged.snr_db, *identity])
    first_of_group = np.zeros(len(order), dtype=np.bool_)
    first_of_group[0] = True
    for column in identity:
        ranked = column[order]
        first_of_group[1:] |= ranked[1:] != ranked[:-1]
    keep = order[first_of_group]
    keep.sort()
    return merged.take(keep)


@dataclass(frozen=True)
class CoverageGain:
    """How much a multi-sniffer fusion improved coverage."""

    per_sniffer_frames: tuple[int, ...]
    fused_frames: int

    @property
    def best_single(self) -> int:
        return max(self.per_sniffer_frames, default=0)

    @property
    def gain_over_best(self) -> float:
        """Fused frames / best single sniffer (>= 1)."""
        if self.best_single == 0:
            return float("nan")
        return self.fused_frames / self.best_single


def coverage_gain(captures: Sequence[Trace]) -> CoverageGain:
    """Quantify the §4.4 multi-sniffer coverage improvement."""
    fused = merge_captures(captures, dedupe=True)
    return CoverageGain(
        per_sniffer_frames=tuple(len(c) for c in captures),
        fused_frames=len(fused),
    )

"""Theoretical maximum throughput of 802.11b (Jun et al., NCA 2003).

The paper's reference [11] and the source of its Table 2 delay values.
TMT is the data throughput of a single perfect sender/receiver pair:
no collisions, no retries, zero backoff — the channel alternates
DIFS + DATA + SIFS + ACK exchanges (plus RTS/CTS when enabled).  The
paper uses the 11 Mbps TMT as the ceiling its Figure 6 peak (4.9 Mbps)
approaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.timing import DOT11B_TIMING

__all__ = ["TmtPoint", "theoretical_maximum_throughput", "tmt_table"]


@dataclass(frozen=True)
class TmtPoint:
    """TMT for one (payload size, rate, RTS/CTS) configuration."""

    size_bytes: int
    rate_mbps: float
    rts_cts: bool
    cycle_us: float
    throughput_mbps: float


def theoretical_maximum_throughput(
    size_bytes: int,
    rate_mbps: float,
    rts_cts: bool = False,
    mean_backoff_slots: float = 15.5,
) -> TmtPoint:
    """TMT for a payload of ``size_bytes`` at ``rate_mbps``.

    ``mean_backoff_slots`` charges the average post-DIFS backoff to each
    cycle; Jun et al. use CWmin/2 = 15.5 slots, which reproduces their
    published 6.06 Mbps for a 1500-byte payload at 11 Mbps.  Pass 0 for
    the paper's D_BO = 0 utilization accounting instead.
    """
    if size_bytes <= 0:
        raise ValueError("payload size must be positive")
    t = DOT11B_TIMING
    cycle = (
        t.difs_us
        + mean_backoff_slots * t.slot_us
        + t.data_frame_duration_us(size_bytes, rate_mbps)
        + t.sifs_us
        + t.ack_us
    )
    if rts_cts:
        cycle += t.rts_us + t.sifs_us + t.cts_us + t.sifs_us
    return TmtPoint(
        size_bytes=size_bytes,
        rate_mbps=rate_mbps,
        rts_cts=rts_cts,
        cycle_us=cycle,
        throughput_mbps=8.0 * size_bytes / cycle,
    )


def tmt_table(
    sizes: tuple[int, ...] = (400, 800, 1200, 1500),
    rates: tuple[float, ...] = (1.0, 2.0, 5.5, 11.0),
    rts_cts: bool = False,
) -> list[TmtPoint]:
    """TMT over a grid of sizes and rates (Jun et al.'s headline table)."""
    return [
        theoretical_maximum_throughput(size, rate, rts_cts)
        for rate in rates
        for size in sizes
    ]

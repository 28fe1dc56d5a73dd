"""Acceptance delay (paper §6.5, Figure 15).

The *acceptance delay* of a data frame is the time from its **first
transmission attempt** to the moment its acknowledgment is recorded,
independent of how many retransmissions occurred in between.  Figure 15
plots the average acceptance delay per utilization bin for the S-1,
XL-1, S-11 and XL-11 categories and finds that 1 Mbps frames pay far
larger delays than 11 Mbps frames of *any* size.

Reconstruction: 802.11 retransmissions reuse the MPDU sequence number,
so a delivery attempt chain is the run of DATA frames sharing
``(src, dst, seq)``; the chain's acceptance delay is ``ack_time -
first_attempt_time`` where the ACK matches the chain's final frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, utilization_bins
from ..frames import FrameType, Trace, size_class_array
from .acking import match_acks
from .categories import ALL_CATEGORIES, Category
from .utilization import UtilizationSeries, utilization_series

__all__ = [
    "CHAIN_TIMEOUT_US",
    "DelaySeries",
    "acceptance_delays",
    "acceptance_delay_vs_utilization",
    "bin_deliveries",
    "bin_delay_tallies",
    "fold_chains",
    "FIGURE15_CATEGORIES",
]

#: The four categories Figure 15 reports.
FIGURE15_CATEGORIES = tuple(
    Category.from_name(name) for name in ("S-1", "XL-1", "S-11", "XL-11")
)


@dataclass(frozen=True)
class AcceptanceDelays:
    """Per-delivery acceptance delays extracted from a trace.

    Arrays are parallel, one entry per successfully acknowledged
    delivery (retry chain): the timestamp of the chain's first attempt,
    the delay to the ACK in microseconds, and the size/rate of the
    *acknowledged* frame (retransmissions may have changed rate; the
    paper's categories key off the delivered frame).
    """

    first_attempt_us: np.ndarray
    delay_us: np.ndarray
    size: np.ndarray
    rate_code: np.ndarray

    def __len__(self) -> int:
        return len(self.delay_us)


#: Maximum plausible age of an open retry chain.  802.11 sequence
#: numbers wrap at 4096, so a (src, dst, seq) key recycles after a few
#: thousand frames; without this bound a retry whose first attempt the
#: sniffer missed could inherit a stale first-attempt timestamp from a
#: previous incarnation of the same key, minutes in the past.  Seven
#: retries of an XL-1 frame with maximal backoff stay well under 1 s.
CHAIN_TIMEOUT_US = 1_000_000


def fold_chains(
    chains: dict[int, int], trace: Trace, rows: np.ndarray, acked: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the DATA ``rows`` of time-sorted ``trace`` into open retry chains.

    ``chains`` maps a chain key (src, dst, seq) to its first attempt's
    timestamp and is updated in place, so a stream folded chunk by
    chunk keeps passing the same dict.  A clear Retry bit starts a
    fresh chain; so does a retry with no recorded first attempt, or
    one recorded more than :data:`CHAIN_TIMEOUT_US` earlier (the
    sniffer missed it, or the seq number has wrapped since), which
    starts the chain at the earliest frame we did capture.  A row with
    ``acked[row]`` set closes its chain.  As trace time advances, once
    per timeout, chains older than the timeout are dropped: any later
    frame would restart them, so the table holds at most two timeouts
    of chains whatever the chunk size.

    Returns the delivered rows and each one's first-attempt time.
    """
    key = (
        (trace.src.astype(np.int64) << 28)
        | (trace.dst.astype(np.int64) << 12)
        | trace.seq.astype(np.int64)
    )[rows]
    delivered: list[int] = []
    firsts: list[int] = []
    next_sweep = float("-inf")
    for row, k, now, retry, done in zip(
        rows.tolist(),
        key.tolist(),
        trace.time_us[rows].tolist(),
        trace.retry[rows].tolist(),
        acked[rows].tolist(),
    ):
        if now >= next_sweep:
            horizon = now - CHAIN_TIMEOUT_US
            for stale in [c for c, first in chains.items() if first < horizon]:
                del chains[stale]
            next_sweep = now + CHAIN_TIMEOUT_US
        known = chains.get(k)
        if not retry or known is None or now - known > CHAIN_TIMEOUT_US:
            chains[k] = now
        if done:
            delivered.append(row)
            firsts.append(chains.pop(k))
    return np.array(delivered, dtype=np.int64), np.array(firsts, dtype=np.int64)


def acceptance_delays(trace: Trace) -> AcceptanceDelays:
    """Reconstruct retry chains and compute per-delivery acceptance delay."""
    trace = trace.sorted_by_time()
    match = match_acks(trace)
    rows = np.nonzero(trace.ftype == int(FrameType.DATA))[0]
    delivered, firsts = fold_chains({}, trace, rows, match.acked)
    return AcceptanceDelays(
        first_attempt_us=firsts,
        delay_us=(match.ack_time_us[delivered] - firsts).astype(np.float64),
        size=trace.size[delivered].astype(np.int64),
        rate_code=trace.rate_code[delivered].astype(np.int64),
    )


@dataclass(frozen=True)
class DelaySeries:
    """Mean acceptance delay (seconds) per category per utilization bin."""

    per_category: dict[str, BinnedSeries]

    def __getitem__(self, name: str) -> BinnedSeries:
        return self.per_category[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.per_category)

    def mean_delay(self, name: str, lo: float = 30.0, hi: float = 99.0) -> float:
        """Count-weighted mean delay of a category over a utilization range."""
        series = self.per_category[name].restricted(lo, hi)
        if len(series) == 0 or series.count.sum() == 0:
            return float("nan")
        return float(np.average(series.value, weights=series.count))


def acceptance_delay_vs_utilization(trace: Trace) -> DelaySeries:
    """Reproduce Figure 15 for ``trace``.

    Each delivery is assigned to the one-second interval of its first
    attempt; per-bin values are mean acceptance delay in **seconds** (the
    figure's y axis).
    """
    trace = trace.sorted_by_time()
    return bin_deliveries(acceptance_delays(trace), utilization_series(trace))


def bin_deliveries(
    deliveries: AcceptanceDelays, util: UtilizationSeries
) -> DelaySeries:
    """Bin extracted deliveries by the utilization of their first-attempt
    second: tally them per second, then :func:`bin_delay_tallies`."""
    n, width = len(util), len(ALL_CATEGORIES)
    second = (deliveries.first_attempt_us - util.start_us) // 1_000_000
    keep = (second >= 0) & (second < n)
    flat = (
        second[keep] * width
        + deliveries.rate_code[keep] * 4
        + size_class_array(deliveries.size[keep])
    )
    delay_sum_us = np.bincount(
        flat, weights=deliveries.delay_us[keep], minlength=n * width
    )
    count = np.bincount(flat, minlength=n * width)
    return bin_delay_tallies(
        util, delay_sum_us.reshape(n, width), count.reshape(n, width)
    )


def bin_delay_tallies(
    util: UtilizationSeries, delay_sum_us: np.ndarray, count: np.ndarray
) -> DelaySeries:
    """The Figure-15 transform over per-second delivery tallies.

    ``delay_sum_us`` and ``count`` are ``(len(util), 16)`` tables: per
    first-attempt second and category code (``rate_code * 4 +
    size_class``), the summed acceptance delay in microseconds and the
    number of deliveries.  A bin's value is its mean delay in seconds
    and its count the deliveries in it; a bin with no delivery is
    dropped.  Shared with the streaming pipeline, which keeps just
    these two tables.
    """
    bins = utilization_bins(util.percent)
    out: dict[str, BinnedSeries] = {}
    for cat in FIGURE15_CATEGORIES:
        delivered = np.bincount(bins, weights=count[:, cat.code])
        total_us = np.bincount(bins, weights=delay_sum_us[:, cat.code])
        present = delivered >= 1
        out[cat.name] = BinnedSeries(
            utilization=np.nonzero(present)[0].astype(np.float64),
            value=total_us[present] / delivered[present] / 1e6,
            count=delivered[present].astype(np.int64),
        )
    return DelaySeries(per_category=out)

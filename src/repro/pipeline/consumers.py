"""Streaming consumers wrapping every :mod:`repro.core` analysis.

Each consumer adapts one paper analysis to the single-pass protocol:

* ``start(ctx)``    — reset state for a new stream;
* ``consume(chunk)`` — fold one chunk's frames into running aggregates;
* ``finalize(ctx, deps)`` — assemble exactly the object the wrapped
  ``repro.core`` function returns.

Equivalence with the batch functions is a hard contract (verified by
``tests/pipeline/test_equivalence.py``): consumers call the core's own
rule and finalization helpers (``ack_match_pairs``, ``fold_chains``,
``atomicity_misses``, ``control_frame_mask``, ``bin_by_utilization``,
``bin_delay_tallies``, ``fit_curves``, ``ranking_from_counts``,
``ap_table_from_counts``, ``user_keys``, ``users_per_interval``), so
every rule lives in one place and a consumer only carries state across
chunks.  That state is bounded by seconds and stations, never by frames
(``tests/pipeline/test_bounded_state.py``).

Like the core, consumers take no options: busy time is the paper's
802.11b timing and every binned series keeps each non-empty 1 %
utilization bin, so a consumer is built with no arguments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..analysis import ColumnTable, bin_by_utilization
from ..core.ap_stats import (
    USER_INTERVAL_US,
    ApActivity,
    DatasetSummary,
    ap_frame_counts,
    ranking_from_counts,
    station_roles,
    user_keys,
    users_per_interval,
)
from ..core.categories import ALL_CATEGORIES, category_codes
from ..core.congestion import (
    CongestionClassifier,
    CongestionLevel,
    CongestionThresholds,
)
from ..core.delay import DelaySeries, bin_delay_tallies, fold_chains
from ..core.rate_share import RateShareSeries
from ..core.reception import ReceptionSeries
from ..core.rts_cts import RtsCtsSeries
from ..core.throughput import ThroughputSeries, control_frame_mask, frame_bits
from ..core.transmissions import CategoryCounts
from ..core.unrecorded import (
    NO_PREDECESSOR,
    UnrecordedEstimate,
    ap_table_from_counts,
    atomicity_misses,
)
from ..frames import DOT11_RATES_MBPS, FrameType
from .accumulate import SecondAccumulator
from .registry import register_consumer
from .stream import Chunk, StreamContext

__all__ = [
    "Consumer",
    "CongestionResult",
    "SummaryConsumer",
    "UtilizationConsumer",
    "ThroughputConsumer",
    "CongestionConsumer",
    "RtsCtsConsumer",
    "BusytimeShareConsumer",
    "BytesPerRateConsumer",
    "TransmissionsConsumer",
    "ReceptionConsumer",
    "DelayConsumer",
    "UnrecordedConsumer",
    "ApActivityConsumer",
    "UnrecordedByApConsumer",
    "UserSeriesConsumer",
]


class Consumer:
    """Base streaming consumer.

    Subclasses set ``name`` (registry key) and optionally ``requires``
    — names of consumers whose finalized results they need; the
    executor finalizes in dependency order and passes them via
    ``deps``.

    ``needs_ack_match`` and ``needs_cbt`` default to True
    (``chunk.acked``/``chunk.ack_time_us``, ``chunk.cbt_us`` and
    ``ctx.utilization`` are always populated); consumers that never
    read them set the flag False so that runs composed entirely of
    such consumers skip the DATA-ACK matching / busy-time work.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    needs_ack_match: bool = True
    needs_cbt: bool = True

    def start(self, ctx: StreamContext) -> None:
        """Reset state before the first chunk."""

    def consume(self, chunk: Chunk) -> None:
        """Fold one chunk into the running aggregates."""

    def finalize(self, ctx: StreamContext, deps: Mapping[str, object]):
        """Assemble the analysis result after the pass completes."""
        raise NotImplementedError


@register_consumer("summary")
class SummaryConsumer(Consumer):
    """Table 1 / §4.3 dataset summary (``dataset_summary``)."""

    name = "summary"
    needs_ack_match = False
    needs_cbt = False

    _COUNTED = (
        FrameType.DATA,
        FrameType.ACK,
        FrameType.RTS,
        FrameType.CTS,
        FrameType.BEACON,
    )

    def start(self, ctx: StreamContext) -> None:
        self._n = 0
        self._counts = {ft: 0 for ft in self._COUNTED}
        self._channels: set[int] = set()
        self._last_us = 0

    def consume(self, chunk: Chunk) -> None:
        ftype = chunk.trace.ftype
        self._n += len(chunk)
        for ft in self._COUNTED:
            self._counts[ft] += int(np.count_nonzero(ftype == int(ft)))
        self._channels.update(int(c) for c in np.unique(chunk.trace.channel))
        self._last_us = int(chunk.trace.time_us[-1])

    def finalize(self, ctx: StreamContext, deps) -> DatasetSummary:
        start = int(ctx.start_us or 0)
        duration_s = (self._last_us - start) / 1e6 if self._n else 0.0
        return DatasetSummary(
            name=ctx.name,
            channels=tuple(sorted(self._channels)),
            start_us=start,
            duration_s=duration_s,
            n_frames=self._n,
            n_data=self._counts[FrameType.DATA],
            n_ack=self._counts[FrameType.ACK],
            n_rts=self._counts[FrameType.RTS],
            n_cts=self._counts[FrameType.CTS],
            n_beacon=self._counts[FrameType.BEACON],
        )


@register_consumer("utilization")
class UtilizationConsumer(Consumer):
    """Figure 5 per-second utilization (``utilization_series``).

    The executor itself accumulates total busy time per second (every
    binned consumer needs it); this consumer just publishes the series.
    """

    name = "utilization"
    needs_ack_match = False

    def finalize(self, ctx: StreamContext, deps):
        return ctx.utilization


@register_consumer("throughput")
class ThroughputConsumer(Consumer):
    """Figure 6 throughput/goodput curves (``throughput_vs_utilization``)."""

    name = "throughput"

    def start(self, ctx: StreamContext) -> None:
        self._bits = SecondAccumulator()
        self._good_bits = SecondAccumulator()

    def consume(self, chunk: Chunk) -> None:
        bits = frame_bits(chunk.trace)
        good = control_frame_mask(chunk.trace.ftype) | chunk.acked
        self._bits.add(chunk.second, weights=bits)
        self._good_bits.add(chunk.second, weights=np.where(good, bits, 0.0))

    def finalize(self, ctx: StreamContext, deps) -> ThroughputSeries:
        util = ctx.utilization
        n = len(util)
        tput = self._bits.totals(n) / 1e6
        gput = self._good_bits.totals(n) / 1e6
        return ThroughputSeries(
            throughput_mbps=bin_by_utilization(util.percent, tput),
            goodput_mbps=bin_by_utilization(util.percent, gput),
            utilization=util,
        )


@dataclass(frozen=True)
class CongestionResult:
    """§5.3 classification payload for one stream."""

    thresholds: CongestionThresholds
    level_occupancy: dict[CongestionLevel, float]
    classifier: CongestionClassifier


@register_consumer("congestion")
class CongestionConsumer(Consumer):
    """§5.3 knee-derived thresholds + per-level occupancy.

    Pure finalize-time work: reuses the throughput consumer's curves
    via ``CongestionClassifier.fit_curves``.
    """

    name = "congestion"
    requires = ("throughput",)
    needs_ack_match = False

    def finalize(self, ctx: StreamContext, deps) -> CongestionResult:
        classifier = CongestionClassifier().fit_curves(deps["throughput"])
        levels = classifier.classify_percent(ctx.utilization.percent)
        n = max(len(levels), 1)
        occupancy = {
            level: float(np.count_nonzero(levels == int(level))) / n
            for level in CongestionLevel
        }
        assert classifier.thresholds is not None
        return CongestionResult(
            thresholds=classifier.thresholds,
            level_occupancy=occupancy,
            classifier=classifier,
        )


@register_consumer("rts_cts")
class RtsCtsConsumer(Consumer):
    """Figure 7 RTS/CTS rates (``rts_cts_vs_utilization``)."""

    name = "rts_cts"
    needs_ack_match = False

    def start(self, ctx: StreamContext) -> None:
        self._rts = SecondAccumulator()
        self._cts = SecondAccumulator()

    def consume(self, chunk: Chunk) -> None:
        ftype = chunk.trace.ftype
        self._rts.add(chunk.second[ftype == int(FrameType.RTS)])
        self._cts.add(chunk.second[ftype == int(FrameType.CTS)])

    def finalize(self, ctx: StreamContext, deps) -> RtsCtsSeries:
        util = ctx.utilization
        n = len(util)
        return RtsCtsSeries(
            rts=bin_by_utilization(util.percent, self._rts.totals(n)),
            cts=bin_by_utilization(util.percent, self._cts.totals(n)),
        )


class _PerRateConsumer(Consumer):
    """Shared shape for the Figures 8/9/14 per-rate series."""

    def start(self, ctx: StreamContext) -> None:
        self._acc = SecondAccumulator(width=len(DOT11_RATES_MBPS))

    def _per_second(self, totals: np.ndarray, code: int) -> np.ndarray:
        return totals[:, code]

    def _series(self, ctx: StreamContext) -> dict[float, "np.ndarray"]:
        util = ctx.utilization
        totals = self._acc.totals(len(util))
        return {
            rate: bin_by_utilization(
                util.percent,
                self._per_second(totals, code),
            )
            for code, rate in enumerate(DOT11_RATES_MBPS)
        }


@register_consumer("busytime_share")
class BusytimeShareConsumer(_PerRateConsumer):
    """Figure 8 per-rate busy-time share (``busytime_share_vs_utilization``)."""

    name = "busytime_share"
    needs_ack_match = False

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        self._acc.add(
            chunk.second[mask],
            weights=chunk.cbt_us[mask],
            cols=chunk.trace.rate_code[mask],
        )

    def _per_second(self, totals: np.ndarray, code: int) -> np.ndarray:
        return totals[:, code] / 1e6  # busy seconds per second

    def finalize(self, ctx: StreamContext, deps) -> RateShareSeries:
        return RateShareSeries(per_rate=self._series(ctx))


@register_consumer("bytes_per_rate")
class BytesPerRateConsumer(_PerRateConsumer):
    """Figure 9 per-rate byte volume (``bytes_per_rate_vs_utilization``)."""

    name = "bytes_per_rate"
    needs_ack_match = False

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        self._acc.add(
            chunk.second[mask],
            weights=chunk.trace.size[mask].astype(np.float64),
            cols=chunk.trace.rate_code[mask],
        )

    def finalize(self, ctx: StreamContext, deps) -> RateShareSeries:
        return RateShareSeries(per_rate=self._series(ctx))


@register_consumer("reception")
class ReceptionConsumer(_PerRateConsumer):
    """Figure 14 first-attempt receptions (``first_attempt_ack_vs_utilization``)."""

    name = "reception"

    def consume(self, chunk: Chunk) -> None:
        qualifying = chunk.acked & chunk.is_data & ~chunk.trace.retry
        self._acc.add(
            chunk.second[qualifying], cols=chunk.trace.rate_code[qualifying]
        )

    def finalize(self, ctx: StreamContext, deps) -> ReceptionSeries:
        return ReceptionSeries(per_rate=self._series(ctx))


@register_consumer("transmissions")
class TransmissionsConsumer(Consumer):
    """Figures 10-13 per-category counts (``transmissions_vs_utilization``)."""

    name = "transmissions"
    needs_ack_match = False

    def start(self, ctx: StreamContext) -> None:
        self._acc = SecondAccumulator(width=16)

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        self._acc.add(chunk.second[mask], cols=category_codes(chunk.trace)[mask])

    def finalize(self, ctx: StreamContext, deps) -> CategoryCounts:
        util = ctx.utilization
        totals = self._acc.totals(len(util))
        out = {
            cat.name: bin_by_utilization(util.percent, totals[:, cat.code])
            for cat in ALL_CATEGORIES
        }
        return CategoryCounts(per_category=out)


@register_consumer("delays")
class DelayConsumer(Consumer):
    """Figure 15 acceptance delays (``acceptance_delay_vs_utilization``).

    Each chunk's DATA frames go through the core's :func:`fold_chains`
    with an open-chain table that persists across chunks, so chunking
    never splits a delivery; the table drops chains past
    ``CHAIN_TIMEOUT_US``.  Deliveries are kept only as per-second delay
    sums and counts by category code, which :func:`bin_delay_tallies`
    bins.
    """

    name = "delays"

    def start(self, ctx: StreamContext) -> None:
        self._ctx = ctx  # start_us is filled in before the first chunk
        self._chains: dict[int, int] = {}
        self._delay_sum_us = SecondAccumulator(width=16)
        self._deliveries = SecondAccumulator(width=16)

    def consume(self, chunk: Chunk) -> None:
        trace = chunk.trace
        rows, firsts = fold_chains(
            self._chains, trace, np.nonzero(chunk.is_data)[0], chunk.acked
        )
        second = (firsts - self._ctx.start_us) // 1_000_000
        codes = category_codes(trace)[rows]
        delay_us = (chunk.ack_time_us[rows] - firsts).astype(np.float64)
        self._delay_sum_us.add(second, weights=delay_us, cols=codes)
        self._deliveries.add(second, cols=codes)

    def finalize(self, ctx: StreamContext, deps) -> DelaySeries:
        n = len(ctx.utilization)
        return bin_delay_tallies(
            ctx.utilization,
            self._delay_sum_us.totals(n),
            self._deliveries.totals(n),
        )


@register_consumer("unrecorded")
class UnrecordedConsumer(Consumer):
    """§4.4 unrecorded-frame estimate (``estimate_unrecorded``).

    The core's :func:`atomicity_misses` judges each frame against the
    one before it; the consumer carries the last frame of each chunk
    (:data:`NO_PREDECESSOR` before the first) so pairs straddling a
    chunk boundary are judged exactly once.
    """

    name = "unrecorded"
    needs_ack_match = False
    needs_cbt = False

    def start(self, ctx: StreamContext) -> None:
        self._total = 0
        self._missing = [0, 0, 0]  # DATA, RTS, CTS
        self._by_node: Counter[int] = Counter()
        self._carry = NO_PREDECESSOR

    def consume(self, chunk: Chunk) -> None:
        trace = chunk.trace
        *missing, by_node = atomicity_misses(self._carry, trace)
        self._missing = [a + b for a, b in zip(self._missing, missing)]
        self._by_node.update(by_node)
        self._total += len(chunk)
        self._carry = (int(trace.ftype[-1]), int(trace.src[-1]), int(trace.dst[-1]))

    def finalize(self, ctx: StreamContext, deps) -> UnrecordedEstimate:
        if self._total < 2:  # the core's degenerate-trace rule
            return UnrecordedEstimate(self._total, 0, 0, 0, {})
        return UnrecordedEstimate(self._total, *self._missing, dict(self._by_node))


class _RosterConsumer(Consumer):
    """Base for the AP-aware Figure 4 consumers (roster required)."""

    def start(self, ctx: StreamContext) -> None:
        if ctx.roster is None:
            raise ValueError(f"consumer {self.name!r} needs a NodeRoster")


@register_consumer("ap_activity")
class ApActivityConsumer(_RosterConsumer):
    """Figure 4a per-AP frame ranking (``ap_frame_ranking``)."""

    name = "ap_activity"
    needs_ack_match = False
    needs_cbt = False

    def start(self, ctx: StreamContext) -> None:
        super().start(ctx)
        self._ap_ids = np.array(ctx.roster.ap_ids, dtype=np.int64)
        self._counts = np.zeros(len(self._ap_ids), dtype=np.int64)

    def consume(self, chunk: Chunk) -> None:
        self._counts += ap_frame_counts(chunk.trace, self._ap_ids)

    def finalize(self, ctx: StreamContext, deps) -> ApActivity:
        return ranking_from_counts(self._ap_ids, self._counts)


@register_consumer("unrecorded_per_ap")
class UnrecordedByApConsumer(_RosterConsumer):
    """Figure 4c per-AP unrecorded share (``unrecorded_by_ap``).

    Reuses the ap_activity counts (same captured-frames definition) and
    the unrecorded estimate's reconstructed (src, dst) attributions.
    """

    name = "unrecorded_per_ap"
    requires = ("unrecorded", "ap_activity")
    needs_ack_match = False
    needs_cbt = False

    def finalize(self, ctx: StreamContext, deps) -> ColumnTable:
        by_node = deps["unrecorded"].missing_data_by_node
        activity: ApActivity = deps["ap_activity"]
        ap_ids = ctx.roster.ap_ids
        by_ap = dict(
            zip(
                activity.table.column("ap").tolist(),
                activity.table.column("frames").tolist(),
            )
        )
        captured = [by_ap.get(ap, 0) for ap in ap_ids]
        missing = [by_node.get(ap, 0) for ap in ap_ids]
        return ap_table_from_counts(ap_ids, captured, missing)


@register_consumer("user_series")
class UserSeriesConsumer(_RosterConsumer):
    """Figure 4b active-user census (``user_association_series``)."""

    name = "user_series"
    needs_ack_match = False
    needs_cbt = False

    def start(self, ctx: StreamContext) -> None:
        super().start(ctx)
        self._ctx = ctx  # start_us is filled in before the first chunk
        self._roles = station_roles(ctx.roster)
        self._seen: set[int] = set()
        self._max_interval = -1

    def consume(self, chunk: Chunk) -> None:
        keys, last = user_keys(
            self._roles, chunk.trace, int(self._ctx.start_us), USER_INTERVAL_US
        )
        self._max_interval = max(self._max_interval, last)
        self._seen.update(keys.tolist())

    def finalize(self, ctx: StreamContext, deps) -> ColumnTable:
        keys = np.fromiter(self._seen, dtype=np.int64, count=len(self._seen))
        return users_per_interval(keys, self._max_interval + 1)

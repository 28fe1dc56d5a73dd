"""Per-AP traffic and user-association statistics (paper §4.3, Fig 4a/4b, Table 1).

* Figure 4(a): data+control frames sent/received by the 15 most active
  APs; the top 15 carried 90.33 % (day) / 95.37 % (plenary) of frames.
* Figure 4(b): number of users associated with the network over time,
  averaged over 30-second intervals (peaks: 523 day, 325 plenary).
* Table 1: per-session, per-channel capture summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import ColumnTable
from ..frames import FrameType, NodeRoster, Trace

__all__ = [
    "ApActivity",
    "ap_frame_counts",
    "ap_frame_ranking",
    "ranking_from_counts",
    "user_association_series",
    "DatasetSummary",
    "dataset_summary",
]


@dataclass(frozen=True)
class ApActivity:
    """Figure 4(a) payload: per-AP frame counts, descending."""

    table: ColumnTable  # columns: ap, rank, frames
    total_frames: int

    def top_fraction(self, n: int = 15) -> float:
        """Fraction of all AP-touching frames carried by the top ``n`` APs."""
        if self.total_frames == 0:
            return 0.0
        frames = self.table.column("frames")
        return float(frames[:n].sum()) / self.total_frames


def ap_frame_counts(trace: Trace, ap_ids: np.ndarray) -> np.ndarray:
    """Frames each AP in ``ap_ids`` sent or received, in that order."""
    src = trace.src.astype(np.int64)
    dst = trace.dst.astype(np.int64)
    return np.array(
        [int(np.count_nonzero((src == ap) | (dst == ap))) for ap in ap_ids],
        dtype=np.int64,
    )


def ap_frame_ranking(trace: Trace, roster: NodeRoster) -> ApActivity:
    """Rank APs by data+control frames sent or received (Fig 4a)."""
    ap_ids = np.array(roster.ap_ids, dtype=np.int64)
    return ranking_from_counts(ap_ids, ap_frame_counts(trace, ap_ids))


def ranking_from_counts(ap_ids: np.ndarray, counts: np.ndarray) -> ApActivity:
    """Assemble the Fig-4a ranking from per-AP frame counts.

    Shared with the streaming pipeline, which accumulates the counts
    chunk by chunk instead of scanning the whole trace at once.
    """
    ap_ids = np.asarray(ap_ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(counts, kind="stable")[::-1]
    table = ColumnTable(
        {
            "ap": ap_ids[order],
            "rank": np.arange(1, len(ap_ids) + 1),
            "frames": counts[order],
        }
    )
    return ApActivity(table=table, total_frames=int(counts.sum()))


def user_association_series(
    trace: Trace,
    roster: NodeRoster,
    interval_us: int = 30_000_000,
) -> ColumnTable:
    """Users active with the network per interval (Fig 4b).

    The paper counts SNMP-style associations; from a link-layer trace we
    count distinct non-AP stations that exchanged any frame with an AP in
    each 30-second interval — the observable proxy for "associated and
    active".  Returns columns ``interval`` (index) and ``users``.
    """
    if len(trace) == 0:
        return ColumnTable(
            {"interval": np.empty(0, dtype=np.int64), "users": np.empty(0, dtype=np.int64)}
        )
    trace = trace.sorted_by_time()
    ap_set = np.array(roster.ap_ids, dtype=np.int64)
    src = trace.src.astype(np.int64)
    dst = trace.dst.astype(np.int64)
    src_is_ap = np.isin(src, ap_set)
    dst_is_ap = np.isin(dst, ap_set)
    # The station endpoint of each AP<->station frame; -1 where none.
    station = np.where(
        src_is_ap & ~dst_is_ap, dst, np.where(dst_is_ap & ~src_is_ap, src, -1)
    )
    # Only roster stations count as users: broadcast destinations
    # (beacons) and pseudo-addresses must not inflate the census.
    station_set = np.array(roster.station_ids, dtype=np.int64)
    station = np.where(np.isin(station, station_set), station, -1)
    t0 = int(trace.time_us[0])
    interval = ((trace.time_us - t0) // interval_us).astype(np.int64)
    n_intervals = int(interval[-1]) + 1
    users = np.zeros(n_intervals, dtype=np.int64)
    valid = station >= 0
    for i in range(n_intervals):
        sel = valid & (interval == i)
        users[i] = len(np.unique(station[sel]))
    return ColumnTable(
        {"interval": np.arange(n_intervals), "users": users}
    )


@dataclass(frozen=True)
class DatasetSummary:
    """Table 1 analogue plus the frame-mix counts reported in §4.3."""

    name: str
    channels: tuple[int, ...]
    start_us: int
    duration_s: float
    n_frames: int
    n_data: int
    n_ack: int
    n_rts: int
    n_cts: int
    n_beacon: int

    def as_row(self) -> dict:
        return {
            "dataset": self.name,
            "channels": "/".join(str(c) for c in self.channels),
            "duration_s": round(self.duration_s, 1),
            "frames": self.n_frames,
            "data": self.n_data,
            "ack": self.n_ack,
            "rts": self.n_rts,
            "cts": self.n_cts,
            "beacon": self.n_beacon,
        }


def dataset_summary(trace: Trace, name: str) -> DatasetSummary:
    """Summarise a captured data set (Table 1 row + §4.3 frame counts)."""
    ftype = trace.ftype

    def count(ft: FrameType) -> int:
        return int(np.count_nonzero(ftype == int(ft)))

    channels = tuple(sorted(int(c) for c in np.unique(trace.channel))) if len(trace) else ()
    return DatasetSummary(
        name=name,
        channels=channels,
        start_us=int(trace.time_us.min()) if len(trace) else 0,
        duration_s=trace.sorted_by_time().duration_us / 1e6 if len(trace) else 0.0,
        n_frames=len(trace),
        n_data=count(FrameType.DATA),
        n_ack=count(FrameType.ACK),
        n_rts=count(FrameType.RTS),
        n_cts=count(FrameType.CTS),
        n_beacon=count(FrameType.BEACON),
    )

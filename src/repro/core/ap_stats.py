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
    "USER_INTERVAL_US",
    "ApActivity",
    "ap_frame_counts",
    "ap_frame_ranking",
    "ranking_from_counts",
    "station_roles",
    "user_association_series",
    "user_keys",
    "users_per_interval",
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


#: Figure 4b's census interval: 30 s.
USER_INTERVAL_US = 30_000_000


def user_association_series(
    trace: Trace,
    roster: NodeRoster,
    interval_us: int = USER_INTERVAL_US,
) -> ColumnTable:
    """Users active with the network per interval (Fig 4b).

    The paper counts SNMP-style associations; from a link-layer trace we
    count distinct non-AP stations that exchanged any frame with an AP in
    each 30-second interval — the observable proxy for "associated and
    active".  Returns columns ``interval`` (index) and ``users``.
    """
    if len(trace) == 0:
        return users_per_interval(np.empty(0, dtype=np.int64), 0)
    trace = trace.sorted_by_time()
    keys, last = user_keys(
        station_roles(roster), trace, int(trace.time_us[0]), interval_us
    )
    return users_per_interval(keys, last + 1)


_AP, _STATION = 1, 2


def station_roles(roster: NodeRoster) -> np.ndarray:
    """Node-indexed roles for :func:`user_keys`: 1 for an AP, 2 for a
    roster station, 0 for any other id; the last entry stands for every
    id past the roster."""
    roles = np.zeros(max((n.node_id for n in roster), default=-1) + 2, dtype=np.int8)
    roles[roster.ap_ids] = _AP
    roles[roster.station_ids] = _STATION
    return roles


def user_keys(
    roles: np.ndarray, trace: Trace, start_us: int, interval_us: int
) -> tuple[np.ndarray, int]:
    """Figure 4b's user rule over time-sorted ``trace``: the distinct
    ``interval << 16 | station`` keys of its frames between an AP and a
    roster station, and the index of its last frame's interval.

    Only roster stations count, so broadcast destinations (beacons) and
    pseudo-addresses never inflate the census.
    """
    top = len(roles) - 1
    src = trace.src.astype(np.int64)
    dst = trace.dst.astype(np.int64)
    src_role = roles[np.minimum(src, top)]
    dst_role = roles[np.minimum(dst, top)]
    station = np.where(
        (src_role == _AP) & (dst_role == _STATION),
        dst,
        np.where((dst_role == _AP) & (src_role == _STATION), src, -1),
    )
    interval = ((trace.time_us - start_us) // interval_us).astype(np.int64)
    valid = station >= 0
    keys = np.unique((interval[valid] << 16) | station[valid])
    return keys, int(interval[-1])


def users_per_interval(keys: np.ndarray, n_intervals: int) -> ColumnTable:
    """Figure 4b's table from distinct :func:`user_keys` keys."""
    return ColumnTable(
        {
            "interval": np.arange(n_intervals),
            "users": np.bincount(keys >> 16, minlength=n_intervals),
        }
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

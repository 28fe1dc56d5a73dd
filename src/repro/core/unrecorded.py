"""Unrecorded-frame estimation via DCF atomicity (paper §4.4, Eq 1).

Vicinity sniffers miss frames (bit errors, hardware drops, hidden
terminals).  The paper estimates how many by exploiting three atomicity
rules of the 802.11 DCF exchange:

* **DATA-ACK**: every captured ACK must be preceded by the DATA frame it
  acknowledges (ACK receiver == DATA transmitter).  A lone ACK implies
  one unrecorded DATA frame.
* **RTS-CTS**: every captured CTS must be preceded by its RTS
  (CTS receiver == RTS transmitter).  A lone CTS implies an unrecorded RTS.
* **RTS-CTS-DATA**: if an RTS and the subsequent DATA from the same
  transmitter are captured but no CTS between them, the CTS (which must
  have been sent, else no DATA would follow) was unrecorded.

Unrecorded % = unrecorded / (unrecorded + captured)    (Equation 1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import ColumnTable
from ..frames import FrameType, NodeRoster, Trace
from .ap_stats import ap_frame_counts

__all__ = [
    "NO_PREDECESSOR",
    "UnrecordedEstimate",
    "atomicity_misses",
    "estimate_unrecorded",
    "unrecorded_by_ap",
    "ap_table_from_counts",
]

#: ``(ftype, src, dst)`` standing in for the frame before a trace's
#: first: a type no rule matches, so an opening ACK or CTS is lone.
NO_PREDECESSOR = (-1, -1, -1)


@dataclass(frozen=True)
class UnrecordedEstimate:
    """Counts of inferred-missing frames for one trace.

    ``missing_data_by_node`` counts, per node, the inferred-missing
    DATA frames it must have sent or received; the per-AP attribution
    of Figure 4c reads it.
    """

    captured_frames: int
    missing_data: int
    missing_rts: int
    missing_cts: int
    missing_data_by_node: dict[int, int]

    @property
    def total_missing(self) -> int:
        return self.missing_data + self.missing_rts + self.missing_cts

    @property
    def unrecorded_percent(self) -> float:
        """Equation 1, over the whole trace."""
        denom = self.total_missing + self.captured_frames
        if denom == 0:
            return 0.0
        return 100.0 * self.total_missing / denom


def atomicity_misses(
    prev: tuple[int, int, int], cur: Trace
) -> tuple[int, int, int, dict[int, int]]:
    """Apply the three atomicity rules to every frame of ``cur``.

    Each frame is judged against the one before it; ``prev`` is the
    ``(ftype, src, dst)`` of the frame before ``cur``'s first, or
    :data:`NO_PREDECESSOR`.  Returns the inferred-missing DATA, RTS and
    CTS counts, and the missing DATA per node: each went from the lone
    ACK's receiver to its transmitter and counts once toward each.
    """
    ftype = cur.ftype.astype(np.int64)
    src = cur.src.astype(np.int64)
    dst = cur.dst.astype(np.int64)
    prev_type, prev_src, prev_dst = (
        np.concatenate([[first], column[:-1]])
        for first, column in zip(prev, (ftype, src, dst))
    )
    # DATA-ACK: an ACK not preceded by its DATA implies a missing DATA.
    lone_ack = (ftype == int(FrameType.ACK)) & ~(
        (prev_type == int(FrameType.DATA)) & (prev_src == dst)
    )
    # RTS-CTS: a CTS not preceded by its RTS implies a missing RTS.
    lone_cts = (ftype == int(FrameType.CTS)) & ~(
        (prev_type == int(FrameType.RTS)) & (prev_src == dst)
    )
    # RTS-CTS-DATA: an RTS directly followed by the DATA it protected
    # (same transmitter, same receiver) skipped a CTS.
    skipped_cts = (
        (prev_type == int(FrameType.RTS))
        & (ftype == int(FrameType.DATA))
        & (src == prev_src)
        & (dst == prev_dst)
    )
    sender, receiver = dst[lone_ack], src[lone_ack]
    nodes, counts = np.unique(
        np.concatenate([sender, receiver[receiver != sender]]),
        return_counts=True,
    )
    return (
        int(np.count_nonzero(lone_ack)),
        int(np.count_nonzero(lone_cts)),
        int(np.count_nonzero(skipped_cts)),
        dict(zip(nodes.tolist(), counts.tolist())),
    )


def estimate_unrecorded(trace: Trace) -> UnrecordedEstimate:
    """Apply the three atomicity rules to a time-sorted trace."""
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    n = len(trace)
    if n < 2:
        return UnrecordedEstimate(n, 0, 0, 0, {})
    return UnrecordedEstimate(n, *atomicity_misses(NO_PREDECESSOR, trace))


def unrecorded_by_ap(
    trace: Trace, roster: NodeRoster, top_n: int = 15
) -> ColumnTable:
    """Per-AP unrecorded percentage for the ``top_n`` busiest APs (Fig 4c).

    A captured frame counts toward an AP when the AP is its source or
    destination; an inferred-missing DATA frame counts toward the AP
    endpoint of its reconstructed (src, dst) pair.  Returns a table with
    columns ``ap``, ``rank``, ``captured``, ``missing``,
    ``unrecorded_percent`` ordered by descending captured traffic.
    """
    ap_ids = np.array(roster.ap_ids, dtype=np.int64)
    by_node = estimate_unrecorded(trace).missing_data_by_node
    missing = [by_node.get(ap, 0) for ap in ap_ids.tolist()]
    return ap_table_from_counts(
        ap_ids, ap_frame_counts(trace, ap_ids), missing, top_n
    )


def ap_table_from_counts(
    ap_ids: np.ndarray,
    captured: np.ndarray,
    missing: np.ndarray,
    top_n: int = 15,
) -> ColumnTable:
    """Assemble the Fig-4c table from per-AP captured/missing counts.

    Shared with the streaming pipeline, which accumulates both count
    arrays incrementally instead of re-scanning the trace.
    """
    ap_ids = np.asarray(ap_ids, dtype=np.int64)
    captured = np.asarray(captured, dtype=np.int64)
    missing = np.asarray(missing, dtype=np.int64)
    order = np.argsort(captured, kind="stable")[::-1][:top_n]
    cap, mis = captured[order], missing[order]
    with np.errstate(invalid="ignore", divide="ignore"):
        percent = np.where(
            cap + mis > 0, 100.0 * mis / (cap + mis), 0.0
        )
    return ColumnTable(
        {
            "ap": ap_ids[order],
            "rank": np.arange(1, len(order) + 1),
            "captured": cap,
            "missing": mis,
            "unrecorded_percent": percent,
        }
    )

"""DATA-ACK matching over a captured trace (paper §6.4).

The paper identifies a *successfully acknowledged* data frame as "a data
frame that is immediately followed by an acknowledgment from the
receiving station" in the sniffer log — the DATA-ACK atomicity of DCF
guarantees nothing else can legally appear between the two on the same
channel.  We reproduce that rule verbatim: DATA at row *i* is acked iff
row *i+1* (on the same channel) is an ACK whose receiver address equals
the DATA's transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frames import FrameType, Trace

__all__ = ["AckMatch", "ack_match_pairs", "match_acks"]


def ack_match_pairs(
    ftype_prev: np.ndarray,
    ftype_next: np.ndarray,
    src_prev: np.ndarray,
    dst_next: np.ndarray,
    channel_prev: np.ndarray,
    channel_next: np.ndarray,
) -> np.ndarray:
    """The §6.4 rule on consecutive frame pairs, as a boolean array.

    True where the *prev* frame is a DATA frame immediately followed by
    its ACK (*next*): same channel, ACK receiver == DATA transmitter.
    Single source of the rule for :func:`match_acks` and the streaming
    pipeline's chunk-boundary matching.
    """
    return (
        (ftype_prev == int(FrameType.DATA))
        & (ftype_next == int(FrameType.ACK))
        & (dst_next == src_prev)
        & (channel_next == channel_prev)
    )


@dataclass(frozen=True)
class AckMatch:
    """Result of scanning a trace for DATA-ACK pairs.

    All arrays are parallel to the input trace rows.

    ``acked``    — True for DATA rows immediately followed by their ACK.
    ``ack_index``— row index of the matching ACK (-1 where unmatched).
    ``ack_time_us`` — timestamp of the matching ACK (-1 where unmatched).
    """

    acked: np.ndarray
    ack_index: np.ndarray
    ack_time_us: np.ndarray

    @property
    def n_acked(self) -> int:
        return int(np.count_nonzero(self.acked))


def match_acks(trace: Trace) -> AckMatch:
    """Match each DATA frame with its immediately-following ACK.

    The trace must be time-sorted.  Each DATA is judged against the
    next row of the whole trace, whatever its channel, and no caller
    splits a capture by channel first: on a capture merged across
    channels, a frame of another channel between a DATA and its ACK
    leaves the DATA unacked (pinned by
    ``tests/core/test_merged_channels.py``).
    """
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    n = len(trace)
    acked = np.zeros(n, dtype=np.bool_)
    ack_index = np.full(n, -1, dtype=np.int64)
    ack_time = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return AckMatch(acked, ack_index, ack_time)

    ftype = trace.ftype
    hit = ack_match_pairs(
        ftype[:-1],
        ftype[1:],
        trace.src[:-1],
        trace.dst[1:],
        trace.channel[:-1],
        trace.channel[1:],
    )

    idx = np.nonzero(hit)[0]
    acked[idx] = True
    ack_index[idx] = idx + 1
    ack_time[idx] = trace.time_us[idx + 1]
    return AckMatch(acked, ack_index, ack_time)

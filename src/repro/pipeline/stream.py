"""Chunked record sources and the per-chunk view the executor fans out.

The pipeline walks a capture exactly once, in bounded-size chunks, so
multi-hour (multi-million-frame) traces never need to be resident as
per-analysis temporaries.  A *source* is anything that yields
time-sorted :class:`~repro.frames.Trace` segments:

* :func:`trace_chunks` — slice an in-memory trace (sorting it once);
* :func:`pcap_chunks` — a radiotap pcap file, via :mod:`repro.pcap`;
* :func:`repro.sim.stream_scenario` or a built scenario's ``stream()``
  — a *live* simulated vicinity-sniffer feed, one segment per
  one-second drain window (never a full-run trace);
* any generator of your own (e.g. a live RFMon reader) that yields
  sorted, non-overlapping trace segments.

Only the two slicing helpers choose a segment size; the report is the
same for any segmentation, so everything above them takes the
default.

The executor wraps each segment in a :class:`Chunk` carrying the shared
per-frame derivations every consumer needs — channel busy-time, second
index, DATA-ACK matching — computed once per pass instead of once per
analysis.

>>> from repro.frames import FrameRow, FrameType, Trace
>>> rows = [
...     FrameRow(time_us=t * 1000, ftype=FrameType.DATA,
...              rate_mbps=11.0, size=1000, src=10, dst=1)
...     for t in range(8)
... ]
>>> [len(c) for c in trace_chunks(Trace.from_rows(rows), chunk_frames=3)]
[3, 3, 2]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..frames import FrameType, NodeRoster, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.utilization import UtilizationSeries

__all__ = [
    "DEFAULT_CHUNK_FRAMES",
    "Chunk",
    "StreamContext",
    "UnsortedStreamError",
    "trace_chunks",
    "pcap_chunks",
    "as_stream",
]


class UnsortedStreamError(ValueError):
    """A streaming source turned out not to be globally time-ordered.

    Raised mid-stream, after earlier segments may already have been
    consumed; the executor catches it for path sources and restarts
    with a load-and-sort pass.
    """

#: Default frames per chunk: large enough that numpy kernels amortise
#: their dispatch cost, small enough that per-chunk temporaries stay in
#: cache-friendly territory (~10 MB of derived arrays).
DEFAULT_CHUNK_FRAMES = 131_072


@dataclass
class StreamContext:
    """Per-run facts shared by every consumer.

    ``start_us`` is fixed when the first frame is seen; ``n_seconds``
    and ``utilization`` become available only after the pass completes
    (the executor fills them in before calling ``finalize``).
    """

    name: str = "trace"
    roster: NodeRoster | None = None
    start_us: int | None = None
    n_seconds: int = 0
    utilization: "UtilizationSeries | None" = None


@dataclass
class Chunk:
    """One time-ordered slice of the stream plus shared derivations.

    All arrays are parallel to ``trace`` rows.  ``acked`` and
    ``ack_time_us`` reproduce :func:`repro.core.match_acks` exactly,
    including DATA-ACK pairs that straddle the chunk boundary (the
    executor looks one frame ahead into the next segment); they are
    ``None`` when no consumer in the run declares ``needs_ack_match``,
    as is ``cbt_us`` when none declares ``needs_cbt``.
    """

    trace: Trace
    second: np.ndarray         # int64 second index relative to stream start
    cbt_us: np.ndarray         # float64 per-frame channel busy-time (Eq 2-6)
    acked: np.ndarray          # bool: DATA immediately followed by its ACK
    ack_time_us: np.ndarray    # int64 matching-ACK timestamp (-1 unmatched)
    is_data: np.ndarray = field(default=None)  # bool: ftype == DATA

    def __post_init__(self) -> None:
        if self.is_data is None:
            self.is_data = self.trace.ftype == int(FrameType.DATA)

    def __len__(self) -> int:
        return len(self.trace)


def trace_chunks(
    trace: Trace, chunk_frames: int = DEFAULT_CHUNK_FRAMES
) -> Iterator[Trace]:
    """Yield ``trace`` as time-sorted segments of ``chunk_frames`` rows.

    An unsorted trace is sorted once up front (stable, like
    ``analyze_trace``); the yielded segments are zero-copy views of the
    sorted columns.
    """
    if chunk_frames <= 0:
        raise ValueError("chunk_frames must be positive")
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    for lo in range(0, len(trace), chunk_frames):
        yield trace.slice_rows(lo, min(lo + chunk_frames, len(trace)))


def pcap_chunks(
    path: str | Path, chunk_frames: int = DEFAULT_CHUNK_FRAMES
) -> Iterator[Trace]:
    """Stream a radiotap pcap straight from disk in bounded batches.

    Records are decoded incrementally (memory stays bounded regardless
    of capture size).  Each batch is stably time-sorted before being
    yielded, so local disorder — e.g. merged multi-sniffer captures
    with small clock skew — streams fine; only disorder wider than a
    batch raises :class:`UnsortedStreamError` (the executor falls back
    to load-and-sort for path sources; do the same by hand with
    ``trace_chunks(read_trace(path))``).

    A capture with a truncated or corrupt tail yields every cleanly
    decoded batch first, then raises :class:`repro.pcap.TruncatedPcapError`
    (byte offset + frames read) — callers see the intact prefix and a
    typed failure, never a raw ``struct.error``.
    """
    from ..pcap import read_trace_batches

    last_time: int | None = None
    for batch in read_trace_batches(path, batch_frames=chunk_frames):
        if not batch.is_time_sorted():
            batch = batch.sorted_by_time()
        if last_time is not None and int(batch.time_us[0]) < last_time:
            raise UnsortedStreamError(
                f"{path}: records out of time order beyond one batch; "
                "load-and-sort with trace_chunks(read_trace(path))"
            )
        last_time = int(batch.time_us[-1])
        yield batch


def as_stream(source) -> Iterable[Trace]:
    """Normalise any supported source into an iterable of trace segments.

    Accepts a :class:`Trace`, a pcap path, or an iterable of segments
    (passed through as-is; the executor validates time ordering).
    """
    if isinstance(source, Trace):
        return trace_chunks(source)
    if isinstance(source, (str, Path)):
        return pcap_chunks(source)
    return source

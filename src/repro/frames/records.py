"""Columnar link-layer trace container.

A :class:`Trace` is the reproduction's equivalent of the paper's sniffer
logs: one row per captured frame carrying exactly the fields the paper's
analysis consumes — timestamp, frame type, data rate, size, source,
destination, retry flag, channel and SNR.  Rows are stored as a numpy
struct-of-arrays so that multi-million-frame traces stay cheap to filter
and aggregate (the original data set held 57M frames).

Timestamps are integer microseconds, matching 802.11's native timing
granularity and avoiding float drift over multi-hour sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dot11 import (
    CHANNEL_FREQ_MHZ,
    DOT11_RATES_MBPS,
    FrameType,
    code_to_rate,
    rate_to_code,
)
from .sizes import size_class_array

__all__ = [
    "FrameRow",
    "Trace",
    "TraceBuffer",
    "NodeInfo",
    "NodeRoster",
    "TRACE_COLUMNS",
    "TRACE_SCHEMA",
    "first_column_fault",
]


#: Column name -> numpy dtype for the trace storage.
_SCHEMA = (
    ("time_us", np.int64),     # frame start-of-transmission timestamp
    ("ftype", np.uint8),       # FrameType value
    ("rate_code", np.uint8),   # index into DOT11_RATES_MBPS
    ("size", np.uint32),       # frame size in bytes (paper's S in D_DATA)
    ("src", np.uint16),        # transmitter node id
    ("dst", np.uint16),        # receiver node id (BROADCAST/NO_NODE allowed)
    ("retry", np.bool_),       # 802.11 Retry bit
    ("channel", np.uint8),     # 802.11b channel number (1/6/11)
    ("snr_db", np.float32),    # SNR recorded by the sniffer (RFMon field)
    ("seq", np.uint16),        # 802.11 sequence number (0-4095)
)

_COLUMNS = tuple(name for name, _ in _SCHEMA)

#: Public trace column names, in schema order (for bulk producers and
#: serialisation layers that assemble column dicts).
TRACE_COLUMNS = _COLUMNS

#: Public (name, dtype) schema pairs — the single source for layers
#: that materialise trace columns themselves (e.g. the pcap reader).
TRACE_SCHEMA = _SCHEMA

#: Channel numbers a ``channel`` column may hold, indexed by value.
_IS_CHANNEL = np.zeros(256, dtype=bool)
_IS_CHANNEL[list(CHANNEL_FREQ_MHZ)] = True


def first_column_fault(
    cols: Mapping[str, np.ndarray], extra: Iterable = ()
) -> tuple[int, str, str] | None:
    """``(row, column, reason)`` of the first row of the schema-typed
    trace columns ``cols`` that no frame can carry, or None.

    A row is at fault when its frame type, rate code or channel is not
    802.11b's, its SNR is not finite or its time is negative.  ``extra``
    adds ``(column, bad_rows_mask, reason)`` checks, as a container does
    for the fields it cannot hold.  Where one row fails several checks,
    the earliest in that order is named.
    """
    checks = (
        ("ftype", cols["ftype"] >= len(FrameType), "is not a frame type"),
        (
            "rate_code",
            cols["rate_code"] >= len(DOT11_RATES_MBPS),
            "is not an 802.11b rate code",
        ),
        ("snr_db", ~np.isfinite(cols["snr_db"]), "is not finite"),
        ("time_us", cols["time_us"] < 0, "is negative"),
        ("channel", ~_IS_CHANNEL[cols["channel"]], "is not an 802.11b channel"),
        *extra,
    )
    first = None
    for column, bad, reason in checks:
        if bad.any():
            row = int(bad.argmax())
            if first is None or row < first[0]:
                first = (row, column, reason)
    return first


@dataclass(frozen=True)
class FrameRow:
    """One captured frame, as a convenient scalar view of a trace row."""

    time_us: int
    ftype: FrameType
    rate_mbps: float
    size: int
    src: int
    dst: int
    retry: bool = False
    channel: int = 1
    snr_db: float = 25.0
    seq: int = 0


@dataclass(frozen=True)
class NodeInfo:
    """Static facts about a node appearing in a trace."""

    node_id: int
    is_ap: bool
    name: str = ""
    uses_rtscts: bool = False


class NodeRoster:
    """Registry mapping node ids to :class:`NodeInfo`.

    The paper distinguishes APs from user devices when ranking per-AP
    traffic (Fig 4a) and counting associations (Fig 4b); the roster is
    how analyses learn which trace endpoints are APs.
    """

    def __init__(self, nodes: Iterable[NodeInfo] = ()) -> None:
        self._nodes: dict[int, NodeInfo] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: NodeInfo) -> None:
        """Register ``node``; re-registering the same id must be identical."""
        existing = self._nodes.get(node.node_id)
        if existing is not None and existing != node:
            raise ValueError(f"conflicting roster entries for id {node.node_id}")
        self._nodes[node.node_id] = node

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __getitem__(self, node_id: int) -> NodeInfo:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeInfo]:
        return iter(self._nodes.values())

    def get(self, node_id: int, default: NodeInfo | None = None) -> NodeInfo | None:
        return self._nodes.get(node_id, default)

    @property
    def ap_ids(self) -> list[int]:
        """Ids of all access points, sorted."""
        return sorted(n.node_id for n in self if n.is_ap)

    @property
    def station_ids(self) -> list[int]:
        """Ids of all non-AP stations, sorted."""
        return sorted(n.node_id for n in self if not n.is_ap)

    def merged_with(self, other: "NodeRoster") -> "NodeRoster":
        """Union of two rosters (conflicting ids must agree)."""
        merged = NodeRoster(self)
        for node in other:
            merged.add(node)
        return merged


class Trace:
    """Immutable-ish columnar frame trace.

    Construct with :meth:`from_rows` for readability or directly from
    column arrays for bulk producers (the simulator, the pcap reader).
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        missing = set(_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"trace missing columns: {sorted(missing)}")
        n = len(columns["time_us"])
        self._cols: dict[str, np.ndarray] = {}
        for name, dtype in _SCHEMA:
            arr = np.asarray(columns[name])
            if len(arr) != n:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {n}"
                )
            self._cols[name] = arr.astype(dtype, copy=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[FrameRow]) -> "Trace":
        """Build a trace from scalar :class:`FrameRow` objects."""
        return cls(
            {
                "time_us": np.array([r.time_us for r in rows], dtype=np.int64),
                "ftype": np.array([int(r.ftype) for r in rows], dtype=np.uint8),
                "rate_code": np.array(
                    [rate_to_code(r.rate_mbps) for r in rows], dtype=np.uint8
                ),
                "size": np.array([r.size for r in rows], dtype=np.uint32),
                "src": np.array([r.src for r in rows], dtype=np.uint16),
                "dst": np.array([r.dst for r in rows], dtype=np.uint16),
                "retry": np.array([r.retry for r in rows], dtype=np.bool_),
                "channel": np.array([r.channel for r in rows], dtype=np.uint8),
                "snr_db": np.array([r.snr_db for r in rows], dtype=np.float32),
                "seq": np.array([r.seq for r in rows], dtype=np.uint16),
            }
        )

    @classmethod
    def empty(cls) -> "Trace":
        """A trace with zero frames."""
        return cls({name: np.empty(0, dtype=dtype) for name, dtype in _SCHEMA})

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"]) -> "Trace":
        """Merge traces (e.g. one per sniffer) and sort by timestamp.

        This mirrors how the paper fuses per-channel sniffer logs into
        the day/plenary data sets.
        """
        if not traces:
            return cls.empty()
        cols = {
            name: np.concatenate([t._cols[name] for t in traces])
            for name in _COLUMNS
        }
        merged = cls(cols)
        return merged.sorted_by_time()

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._cols["time_us"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            np.array_equal(self._cols[c], other._cols[c]) for c in _COLUMNS
        )

    def __repr__(self) -> str:
        if len(self) == 0:
            return "Trace(empty)"
        t0, t1 = self.time_us[0], self.time_us[-1]
        return f"Trace({len(self)} frames, {t0}..{t1} us)"

    def row(self, index: int) -> FrameRow:
        """Materialise row ``index`` as a :class:`FrameRow`."""
        return FrameRow(
            time_us=int(self.time_us[index]),
            ftype=FrameType(int(self.ftype[index])),
            rate_mbps=code_to_rate(int(self.rate_code[index])),
            size=int(self.size[index]),
            src=int(self.src[index]),
            dst=int(self.dst[index]),
            retry=bool(self.retry[index]),
            channel=int(self.channel[index]),
            snr_db=float(self.snr_db[index]),
            seq=int(self.seq[index]),
        )

    def iter_rows(self) -> Iterator[FrameRow]:
        """Iterate rows as :class:`FrameRow` objects (slow path; tests/IO)."""
        for i in range(len(self)):
            yield self.row(i)

    # -- column accessors -------------------------------------------------

    @property
    def time_us(self) -> np.ndarray:
        return self._cols["time_us"]

    @property
    def ftype(self) -> np.ndarray:
        return self._cols["ftype"]

    @property
    def rate_code(self) -> np.ndarray:
        return self._cols["rate_code"]

    @property
    def rate_mbps(self) -> np.ndarray:
        """Per-frame data rate in Mbps as ``float64``."""
        from .dot11 import DOT11_RATES_MBPS

        table = np.array(DOT11_RATES_MBPS)
        return table[self._cols["rate_code"]]

    @property
    def size(self) -> np.ndarray:
        return self._cols["size"]

    @property
    def src(self) -> np.ndarray:
        return self._cols["src"]

    @property
    def dst(self) -> np.ndarray:
        return self._cols["dst"]

    @property
    def retry(self) -> np.ndarray:
        return self._cols["retry"]

    @property
    def channel(self) -> np.ndarray:
        return self._cols["channel"]

    @property
    def snr_db(self) -> np.ndarray:
        return self._cols["snr_db"]

    @property
    def seq(self) -> np.ndarray:
        return self._cols["seq"]

    @property
    def size_class(self) -> np.ndarray:
        """Per-frame size-class code (S/M/L/XL) for data frames."""
        return size_class_array(self._cols["size"])

    def column(self, name: str) -> np.ndarray:
        """Raw column access by name."""
        return self._cols[name]

    # -- transformations ----------------------------------------------------

    def select(self, mask: np.ndarray) -> "Trace":
        """Return the sub-trace of rows where ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or len(mask) != len(self):
            raise ValueError("mask must be a boolean array matching the trace")
        return Trace({name: arr[mask] for name, arr in self._cols.items()})

    def take(self, indices: np.ndarray) -> "Trace":
        """Return the sub-trace at integer ``indices`` (in that order)."""
        return Trace({name: arr[indices] for name, arr in self._cols.items()})

    def sorted_by_time(self) -> "Trace":
        """Return a stably time-sorted copy (sniffer merge invariant)."""
        order = np.argsort(self.time_us, kind="stable")
        return self.take(order)

    def is_time_sorted(self) -> bool:
        """True if timestamps are non-decreasing."""
        return bool(np.all(np.diff(self.time_us) >= 0)) if len(self) > 1 else True

    def only_type(self, ftype: FrameType) -> "Trace":
        """Sub-trace of a single frame type."""
        return self.select(self.ftype == int(ftype))

    def only_channel(self, channel: int) -> "Trace":
        """Sub-trace of a single 802.11b channel."""
        return self.select(self.channel == channel)

    def between(self, start_us: int, end_us: int) -> "Trace":
        """Sub-trace of frames with ``start_us <= time_us < end_us``."""
        t = self.time_us
        return self.select((t >= start_us) & (t < end_us))

    def slice_rows(self, lo: int, hi: int) -> "Trace":
        """Zero-copy view of the row range ``[lo, hi)``.

        Unlike :meth:`select`/:meth:`take` this never copies column
        data — numpy basic slicing returns views — so the streaming
        pipeline can chunk multi-million-frame traces for free.
        """
        return Trace({name: arr[lo:hi] for name, arr in self._cols.items()})

    @property
    def duration_us(self) -> int:
        """Span from first to last timestamp (0 for traces of < 2 frames)."""
        if len(self) < 2:
            return 0
        return int(self.time_us[-1] - self.time_us[0])

    def to_columns(self) -> dict[str, np.ndarray]:
        """Copy out the raw column arrays (for serialisation layers)."""
        return {name: arr.copy() for name, arr in self._cols.items()}


class TraceBuffer:
    """Rows held until a time watermark passes them.

    A producer appends traces in any time order (a frame is stamped at
    its start but recorded at its end, so a later record can carry an
    earlier stamp), and :meth:`drain` removes and returns the rows
    stamped before a watermark, stably time-sorted: rows with equal
    times come out in append order, and successive drains concatenate
    to :meth:`Trace.concatenate` of everything appended.
    """

    def __init__(self) -> None:
        self._parts: list[Trace] = []

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def append(self, trace: Trace) -> None:
        if len(trace):
            self._parts.append(trace)

    def drain(self, before_us: int | None = None) -> Trace:
        """Remove and return the rows with ``time_us < before_us``.

        The watermark is exclusive: a row stamped exactly at it stays
        and comes out, once, in the first drain whose watermark passes
        it.  ``None`` drains every row.
        """
        held = Trace.concatenate(self._parts)
        cut = len(held)
        if before_us is not None:
            cut = int(held.time_us.searchsorted(before_us))
        rest = held.slice_rows(cut, len(held))
        self._parts = [rest] if len(rest) else []
        return held.slice_rows(0, cut)

"""Wire format for pushing frame batches into a running daemon.

A *batch* is one time-sorted :class:`~repro.frames.Trace` segment,
serialised column by column in :data:`~repro.frames.TRACE_SCHEMA`
order (the same single source of truth the pcap reader materialises
from).  On a socket, batches travel length-prefixed::

    [4-byte magic "RPF1"][4-byte big-endian payload length][payload]

A zero-length payload is the end-of-feed marker: the producer is done
and the feed should finalize its report.  Anything malformed — wrong
magic, wrong payload size for the advertised row count, oversized
batch — raises :class:`FrameBatchError`; the serve layer turns that
into a failed feed without taking the daemon down.

The magic + length framing itself is the shared :mod:`repro.framing`
layer (the campaign dispatch protocol rides the same envelope under a
different magic); this module owns only the batch payload layout.

The payload layout is::

    [4-byte big-endian row count] [time_us rows][ftype rows]...[seq rows]

with each column's raw little-endian array bytes at its schema dtype.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

from ..frames import TRACE_SCHEMA, Trace, first_column_fault
from ..framing import FrameError, encode_frame, header_length
from ..protocol_registry import BATCH_MAGIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

__all__ = [
    "BATCH_MAGIC",
    "MAX_BATCH_BYTES",
    "FrameBatchError",
    "encode_batch",
    "decode_batch",
    "encode_eof",
    "read_batches",
    "write_batch",
    "write_eof",
]

#: Upper bound on one batch's payload: a malicious or corrupt length
#: prefix must never make the daemon allocate unbounded memory.
MAX_BATCH_BYTES = 64 * 1024 * 1024

_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in TRACE_SCHEMA)


class FrameBatchError(FrameError):
    """A pushed frame batch failed to decode (corrupt or mis-framed)."""


def encode_batch(trace: Trace) -> bytes:
    """Serialise one trace segment as a batch payload (no framing)."""
    parts = [struct.pack(">I", len(trace))]
    for name, dtype in TRACE_SCHEMA:
        column = np.ascontiguousarray(
            trace.column(name), dtype=np.dtype(dtype).newbyteorder("<")
        )
        parts.append(column.tobytes())
    return b"".join(parts)


def decode_batch(payload: bytes) -> Trace:
    """Parse a batch payload back into a :class:`Trace`.

    Validates the advertised row count against the actual payload size
    byte-for-byte, so a truncated or padded batch fails loudly instead
    of decoding shifted garbage, and every row against the trace
    schema (:func:`~repro.frames.first_column_fault`), so a value no
    frame can carry is refused here, naming its row and column, and
    never reaches an analysis.
    """
    if len(payload) < 4:
        raise FrameBatchError(
            f"batch payload too short for a row count ({len(payload)} bytes)"
        )
    (n_rows,) = struct.unpack(">I", payload[:4])
    expected = 4 + n_rows * _ROW_BYTES
    if len(payload) != expected:
        raise FrameBatchError(
            f"batch advertises {n_rows} rows ({expected} bytes) "
            f"but carries {len(payload)} bytes"
        )
    columns: dict[str, np.ndarray] = {}
    offset = 4
    for name, dtype in TRACE_SCHEMA:
        little = np.dtype(dtype).newbyteorder("<")
        end = offset + n_rows * little.itemsize
        columns[name] = np.frombuffer(
            payload[offset:end], dtype=little
        ).astype(dtype, copy=False)
        offset = end
    fault = first_column_fault(columns)
    if fault is not None:
        row, column, reason = fault
        raise FrameBatchError(
            f"batch column {column!r} row {row}: "
            f"{columns[column][row].item()!r} {reason}"
        )
    return Trace(columns)


def encode_eof() -> bytes:
    """The framed end-of-feed marker."""
    return encode_frame(b"", BATCH_MAGIC)


def frame_batch(payload: bytes) -> bytes:
    """Wrap an encoded batch payload in magic + length framing."""
    return encode_frame(payload, BATCH_MAGIC)


async def read_batches(reader: "asyncio.StreamReader"):
    """Yield decoded Traces from a framed socket stream.

    Terminates cleanly on the end-of-feed marker.  A connection that
    drops mid-batch raises :class:`ConnectionResetError`; bad magic, a
    silly length or an undecodable payload raise
    :class:`FrameBatchError`.  Either way the caller (the feed ingest
    task) records the failure on that one feed only.
    """
    import asyncio

    while True:
        try:
            header = await reader.readexactly(8)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                # Clean EOF between batches but without the marker:
                # the producer vanished; treat as a mid-feed disconnect.
                raise ConnectionResetError(
                    "feed connection closed without end-of-feed marker"
                ) from error
            raise ConnectionResetError(
                "feed connection dropped mid-batch header"
            ) from error
        length = header_length(
            header,
            magic=BATCH_MAGIC,
            max_bytes=MAX_BATCH_BYTES,
            error=FrameBatchError,
        )
        if length == 0:
            return
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise ConnectionResetError(
                "feed connection dropped mid-batch payload"
            ) from error
        yield decode_batch(payload)


async def write_batch(writer: "asyncio.StreamWriter", trace: Trace) -> None:
    """Send one framed batch (client-side helper, used by tests/tools)."""
    writer.write(frame_batch(encode_batch(trace)))
    await writer.drain()


async def write_eof(writer: "asyncio.StreamWriter") -> None:
    """Send the end-of-feed marker."""
    writer.write(encode_eof())
    await writer.drain()

"""Capture codec: the containers this repo writes and reads.

Writes radiotap-encapsulated 802.11 traces in two containers and reads
them back into a :class:`repro.frames.Trace`:

* classic little-endian pcap (magic ``0xa1b2c3d4``, version 2.4) with
  linktype 127 (IEEE802_11_RADIOTAP) — the same container a tethereal
  RFMon capture like the paper's produces;
* RFC 1761 snoop (big-endian, ident ``b"snoop\\0\\0\\0"``, version 2).
  The RFC assigns datalink codes 0–9 only; radiotap is the project
  extension 127, numbered to match the pcap linktype, so both carry the
  same payload.

Either may be gzipped (level 6, mtime pinned to 0, so output is
byte-deterministic).  :data:`_CONTAINERS` lists the two once, as
(name, suffix, leading bytes, record layout): :func:`write_trace` picks
a row by path suffix, and one content sniffer — gzip magic, then each
row's leading bytes — serves :func:`read_trace_batches` and
:func:`detect_format`.  Compressed captures are read through
:class:`_Inflater`, and every reported byte offset is into the
*decompressed* stream.

Like the paper's capture (snap length 250 bytes, §4.2), packets may be
truncated on disk; the record's ``orig_len`` preserves the true on-air
size, so frame sizes survive the round trip.

Information that genuinely does not exist on the air is lost exactly as
it was for the paper: ACK and CTS frames carry no transmitter address,
so those frames read back with ``src == NO_NODE``.

Both containers run through one columnar codec.  A
:class:`_RecordLayout` describes what differs between them — the
record header's fields, byte order and padding, the file header and
the error class — and everything else is shared: the block encoder,
which places each record's bytes through a strided window over its
output; the slab reader, whose scan finds records by the radiotap
lead word and walks record by record only where that chain breaks;
the vectorized decoder, which reads each record as one structured row
of a byte window over the slab, with its eligibility mask; and the
per-record scalar fallback.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import operator
import struct
import zlib
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..core.timing import DOT11B_TIMING
from ..frames import (
    ACK_FRAME_BYTES,
    BROADCAST,
    CTS_FRAME_BYTES,
    DOT11_RATES_MBPS,
    NO_NODE,
    RTS_FRAME_BYTES,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    FrameType,
    Trace,
    first_column_fault,
    rate_to_code,
)
from ..frames.dot11 import RATE_CODES, frame_type_from_dot11
from .dot11_codec import _frame_control, decode_frame, encode_frame
from .radiotap import _CHAN_FLAGS_B, CHANNEL_FREQ_MHZ, RadiotapHeader
from .radiotap import _PRESENT as _RT_PRESENT

__all__ = [
    "write_trace",
    "read_trace",
    "read_trace_batches",
    "detect_format",
    "CaptureError",
    "TruncatedPcapError",
    "TruncatedSnoopError",
    "CAPTURE_FORMATS",
    "CAPTURE_SUFFIXES",
    "PAPER_SNAPLEN",
    "LINKTYPE_RADIOTAP",
]


class CaptureError(ValueError):
    """A damaged capture, or bytes that are not a capture this codec reads.

    The one error the capture decoders raise at their boundary.  It
    carries the capture's ``path``, where the damage starts
    (``byte_offset``) and how many frames decoded cleanly before it
    (``frames_read``), so callers — the streaming pipeline, the serve
    daemon, batch runs, corpus indexing — can report the partial read
    instead of surfacing a raw ``struct.error``.  A bad file header is
    at offset 0 with no frame read.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        byte_offset: int = 0,
        frames_read: int = 0,
    ) -> None:
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.byte_offset = byte_offset
        self.frames_read = frames_read
        self._message = message

    def _fields(self) -> dict:
        return {
            "path": self.path,
            "byte_offset": self.byte_offset,
            "frames_read": self.frames_read,
        }

    def __reduce__(self):
        # The default reduction, ``cls(*args)``, drops keyword-only args.
        return functools.partial(type(self), **self._fields()), (self._message,)


class TruncatedPcapError(CaptureError):
    """A pcap ended mid-record or a record failed to decode.

    ``compressed`` marks offsets into the decompressed stream of a
    gzipped capture (the on-disk file offset is not meaningful there).
    """

    def __init__(
        self,
        message: str,
        *,
        byte_offset: int,
        frames_read: int,
        compressed: bool = False,
        path: str | Path | None = None,
    ) -> None:
        super().__init__(
            f"{message} ({_where(compressed)} {byte_offset}, "
            f"{frames_read} frames read cleanly)",
            path=path,
            byte_offset=byte_offset,
            frames_read=frames_read,
        )
        self.compressed = compressed
        self._message = message

    def _fields(self) -> dict:
        return {**super()._fields(), "compressed": self.compressed}


class TruncatedSnoopError(TruncatedPcapError):
    """A snoop capture ended mid-record or a record failed to decode.

    Subclasses :class:`TruncatedPcapError` so every partial-read
    handler (streaming pipeline, serve daemon, batch runs, corpus
    indexing) treats both containers alike.
    """


def _where(compressed: bool) -> str:
    return "decompressed byte offset" if compressed else "byte offset"


_MAGIC = 0xA1B2C3D4
LINKTYPE_RADIOTAP = 127

_GZIP_MAGIC = b"\x1f\x8b"

#: The snap length the paper's sniffers used (§4.2).
PAPER_SNAPLEN = 250

_NOISE_FLOOR_DBM = -96
#: Duration field with ``duration_fill``: SIFS + an ACK at 1 Mbps.
_DURATION_FILL_US = round(DOT11B_TIMING.sifs_us + DOT11B_TIMING.ack_us)

#: File-read granularity for the batched reader, and the output size of
#: one encoded block for the writer.
_CHUNK_BYTES = 4 << 20

#: Most compressed bytes one read from a gzip file feeds zlib.
_GZIP_PIECE_BYTES = 1 << 16

_U32_MAX = 0xFFFFFFFF


# --- record layouts ---------------------------------------------------------


class _RecordLayout:
    """Where one capture container keeps a record's framing.

    ``words`` names the record header's 32-bit fields in file order
    (``byte_order`` ``"<"`` or ``">"``); every container has
    ``ts_sec``, ``ts_usec``, ``incl_len`` and ``orig_len``.  A container
    either stores the record length (a ``rec_len`` word: snoop) or
    implies it as header plus included bytes (pcap).  Payloads are
    zero-padded to a multiple of ``pad`` bytes.  ``error`` is the
    container's damage error; ``file_header(snaplen)`` builds the
    (fixed-size) file header and ``check_file_header(path, header)``
    raises :class:`CaptureError` for a foreign one.
    """

    def __init__(
        self,
        *,
        words: tuple[str, ...],
        byte_order: str,
        pad: int,
        error: type[TruncatedPcapError],
        file_header: Callable[[int], bytes],
        check_file_header: Callable[[Path, bytes], None],
    ) -> None:
        self.words = words
        self.record = struct.Struct(byte_order + "L" * len(words))
        self.size = self.record.size
        header_fields = [(word, byte_order + "u4") for word in words]
        #: One encoder scratch row: record header, then the packet prefix.
        self.prefix_dtype = np.dtype(header_fields + _PACKET_PREFIX)
        #: The same row as the decoder reads it: the header words and
        #: the prefix fields it tests (see _PREFIX_READ).
        fields = self.prefix_dtype.fields
        self.read_dtype = np.dtype(
            {
                "names": [*words, *(name for name, *_ in _PREFIX_READ)],
                "formats": [fmt for _, fmt in header_fields]
                + [fmt for _, fmt, _, _ in _PREFIX_READ],
                "offsets": [4 * i for i in range(len(words))]
                + [fields[field][1] + at for _, _, field, at in _PREFIX_READ],
                "itemsize": self.prefix_dtype.itemsize,
            }
        )
        self.stores_length = "rec_len" in words
        length_word = "rec_len" if self.stores_length else "incl_len"
        self.length_at = 4 * words.index(length_word)
        self.length_bias = 0 if self.stores_length else self.size
        #: Reads the length word at a record's offset plus length_at.
        self.length = struct.Struct(byte_order + "L")
        self.length_dtype = np.dtype(byte_order + "u4")
        self.pad = pad
        self.error = error
        self.file_header_size = len(file_header(0))
        self.file_header = file_header
        self.check_file_header = check_file_header

    def unpack(self, buf: bytes, pos: int) -> dict[str, int]:
        """The record header at ``pos`` as a word -> value dict."""
        return dict(zip(self.words, self.record.unpack_from(buf, pos)))

    def max_packet(self, snaplen: int) -> int:
        """The longest packet whose record header fields fit 32 bits."""
        if self.stores_length:
            room = (_U32_MAX - self.size) // self.pad * self.pad
            if snaplen > room:
                return room  # a longer packet would overflow rec_len
        return _U32_MAX


#: The packet prefix the encoder builds per record: the 24-byte radiotap
#: header ``RadiotapHeader.encode`` emits, then the longest 802.11
#: header ``encode_frame`` emits (a DATA/MGMT/BEACON header; control
#: frames use its first 10 or 16 bytes).  Every later packet byte is a
#: zero body byte.
_PACKET_PREFIX = [
    ("rt_head", "u1", (8,)),  # version, pad, length, present word
    ("tsft", "<u8"),
    ("flags", "u1"),
    ("rate", "u1"),
    ("freq", "<u2"),
    ("chan_flags", "<u2"),
    ("signal", "i1"),
    ("noise", "i1"),
    ("fc", "<u2"),
    ("duration", "<u2"),
    ("addr1", "u1", (6,)),
    ("addr2", "u1", (6,)),
    ("addr3", "u1", (6,)),
    ("seq_ctrl", "<u2"),
]

#: The prefix fields the decoder tests, each read where the encoder
#: writes it: (name, dtype, prefix field, byte offset inside it).  An
#: address is its 4-byte prefix (``02 00 00 00`` ours, ``ff ff ff ff``
#: broadcast) and its 2-byte node id.
_PREFIX_READ = [
    ("rt_version", "u1", "rt_head", 0),
    ("rt_len", "<u2", "rt_head", 2),
    ("rt_present", "<u4", "rt_head", 4),
    ("rate", "u1", "rate", 0),
    ("freq", "<u2", "freq", 0),
    ("signal", "i1", "signal", 0),
    ("noise", "i1", "noise", 0),
    ("fc", "<u2", "fc", 0),
    ("addr1_prefix", ">u4", "addr1", 0),
    ("addr1_node", ">u2", "addr1", 4),
    ("addr2_prefix", ">u4", "addr2", 0),
    ("addr2_node", ">u2", "addr2", 4),
    ("seq_ctrl", "<u2", "seq_ctrl", 0),
]

_RT_FIXED_LEN = 24  # radiotap header write_trace emits: 8 + QBBHHbb body
_RT_HEAD = np.frombuffer(
    struct.pack("<BBHI", 0, 0, _RT_FIXED_LEN, _RT_PRESENT), dtype=np.uint8
)
#: The first word of every packet :func:`write_trace` emits, read
#: little-endian: radiotap version 0, pad 0, length 24 (``00 00 18 00``).
_LEAD_WORD = int(_RT_HEAD[:4].view("<u4")[0])


_PCAP_FILE_HEADER = struct.Struct("<IHHiIII")


def _pcap_file_header(snaplen: int) -> bytes:
    return _PCAP_FILE_HEADER.pack(
        _MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_RADIOTAP
    )


def _check_pcap_file_header(path: Path, header: bytes) -> None:
    if len(header) < _PCAP_FILE_HEADER.size:
        raise CaptureError(f"{path}: not a pcap file (too short)", path=path)
    magic, _vmaj, _vmin, _tz, _sig, _snaplen, linktype = (
        _PCAP_FILE_HEADER.unpack(header)
    )
    if magic != _MAGIC:
        raise CaptureError(f"{path}: bad pcap magic {magic:#x}", path=path)
    if linktype != LINKTYPE_RADIOTAP:
        raise CaptureError(
            f"{path}: linktype {linktype}, expected radiotap "
            f"({LINKTYPE_RADIOTAP})",
            path=path,
        )


_PCAP = _RecordLayout(
    words=("ts_sec", "ts_usec", "incl_len", "orig_len"),
    byte_order="<",
    pad=1,
    error=TruncatedPcapError,
    file_header=_pcap_file_header,
    check_file_header=_check_pcap_file_header,
)


_SNOOP_IDENT = b"snoop\x00\x00\x00"
_SNOOP_VERSION = 2
_SNOOP_FILE_HEADER = struct.Struct(">8sLL")


def _snoop_file_header(snaplen: int) -> bytes:
    # RFC 1761 has no snap length field: each record carries its own
    # original and included lengths.
    return _SNOOP_FILE_HEADER.pack(
        _SNOOP_IDENT, _SNOOP_VERSION, LINKTYPE_RADIOTAP
    )


def _check_snoop_file_header(path: Path, header: bytes) -> None:
    # The sniffer chose this layout by its ident, so only the rest of
    # the header is left to check.
    if len(header) < _SNOOP_FILE_HEADER.size:
        raise CaptureError(f"{path}: not a snoop file (too short)", path=path)
    _ident, version, datalink = _SNOOP_FILE_HEADER.unpack(header)
    if version != _SNOOP_VERSION:
        raise CaptureError(
            f"{path}: snoop version {version}, expected {_SNOOP_VERSION}",
            path=path,
        )
    if datalink != LINKTYPE_RADIOTAP:
        raise CaptureError(
            f"{path}: snoop datalink {datalink}, expected radiotap "
            f"({LINKTYPE_RADIOTAP})",
            path=path,
        )


#: RFC 1761 record framing: every record's ``drops`` word is 0.
_SNOOP = _RecordLayout(
    words=("orig_len", "incl_len", "rec_len", "drops", "ts_sec", "ts_usec"),
    byte_order=">",
    pad=4,
    error=TruncatedSnoopError,
    file_header=_snoop_file_header,
    check_file_header=_check_snoop_file_header,
)

#: Every container, each optionally gzipped: (name, path suffix,
#: leading bytes of its content, record layout).
_CONTAINERS = (
    ("pcap", ".pcap", _MAGIC.to_bytes(4, "little"), _PCAP),
    ("snoop", ".snoop", _SNOOP_IDENT, _SNOOP),
)
_SNIFF_BYTES = max(len(lead) for _, _, lead, _ in _CONTAINERS)

#: The container names :func:`detect_format` reports.
CAPTURE_FORMATS = tuple(name for name, _, _, _ in _CONTAINERS)
#: Every suffix a capture file may carry, plain then gzipped.
CAPTURE_SUFFIXES = tuple(
    suffix + gz for gz in ("", ".gz") for _, suffix, _, _ in _CONTAINERS
)


# --- per-frame-type tables (indexed by any uint8, so unchecked input is
# --- safe to look up) -------------------------------------------------------

_DATA_CLASS = np.zeros(256, dtype=bool)
_DATA_CLASS[[FrameType.DATA, FrameType.MGMT, FrameType.BEACON]] = True
#: Frame types whose 802.11 header carries the transmitter address.
_WRITES_SRC = _DATA_CLASS.copy()
_WRITES_SRC[FrameType.RTS] = True
#: Radiotap + 802.11 header bytes of each frame type (a packet with no
#: body), measured on the scalar codec.
_PACKET_HEAD = np.zeros(256, dtype=np.int64)
#: 802.11 Frame Control word of each frame type, retry bit clear.
_FC = np.zeros(256, dtype=np.uint16)
for _ft in FrameType:
    _PACKET_HEAD[_ft] = _RT_FIXED_LEN + len(encode_frame(_ft, src=0, dst=0))
    _FC[_ft] = _frame_control(_ft, False)
_RETRY_BIT = 1 << 11

#: radiotap rate byte (0.5 Mbps units) of each rate code.
_RATE_UNITS = np.array(
    [int(round(rate * 2)) for rate in DOT11_RATES_MBPS], dtype=np.uint8
)
#: Centre frequency of each channel number, 0 = not an 802.11b channel.
_CHANNEL_FREQ = np.zeros(256, dtype=np.uint16)
for _ch, _freq in CHANNEL_FREQ_MHZ.items():
    _CHANNEL_FREQ[_ch] = _freq

#: First time_us whose seconds overflow a 32-bit record header field.
_TS_LIMIT = (_U32_MAX + 1) * 1_000_000


# --- writing ----------------------------------------------------------------


def _first_fault(cols: dict[str, np.ndarray], max_size: int):
    """``(row, column, reason)`` of the first row in ``cols`` that a
    container cannot hold, or None: the trace schema's column check,
    then the container's own limits.  The checks follow the per-record
    encoder's order, so a row with two faults names the one it meets
    first."""
    ftype = cols["ftype"]
    return first_column_fault(
        cols,
        (
            ("dst", cols["dst"] == NO_NODE, "has no MAC address"),
            (
                "src",
                _WRITES_SRC[ftype] & (cols["src"] == NO_NODE),
                "has no MAC address",
            ),
            (
                "time_us",
                cols["time_us"] >= _TS_LIMIT,
                "overflows the 32-bit seconds field",
            ),
            (
                "size",
                _DATA_CLASS[ftype] & (cols["size"] > max_size),
                "overflows a 32-bit length field",
            ),
        ),
    )


def _check_writable(
    trace: Trace, path: Path, snaplen: int, layout: _RecordLayout
) -> None:
    """Raise ``ValueError`` naming the first row ``layout`` cannot hold.

    Runs before the file is opened, so a rejected trace leaves nothing
    on disk, and no value reaches a fixed-width cast unchecked.  Rows
    are checked in blocks, so the masks stay small however long the
    trace.
    """
    # A DATA/MGMT/BEACON packet is 24 + max(size, 24) bytes.
    max_size = layout.max_packet(snaplen) - 24
    step = 1 << 16
    for start in range(0, len(trace), step):
        cols = {
            name: trace.column(name)[start : start + step]
            for name in TRACE_COLUMNS
        }
        fault = _first_fault(cols, max_size)
        if fault is not None:
            row, column, reason = fault
            raise ValueError(
                f"cannot write {path}: column {column!r} row {start + row}: "
                f"{cols[column][row].item()!r} {reason}"
            )


def _macs(node: np.ndarray) -> np.ndarray:
    """``node_to_mac`` over a column: one 6-byte address per row."""
    mac = np.zeros((len(node), 6), dtype=np.uint8)
    mac[:, 0] = 0x02
    mac[:, 4] = node >> 8
    mac[:, 5] = node & 0xFF
    mac[node == BROADCAST] = 0xFF
    return mac


def _encode_block(
    cols: dict[str, np.ndarray],
    snaplen: int,
    duration: int,
    layout: _RecordLayout,
) -> tuple[np.ndarray, int]:
    """Encode the leading rows of ``cols`` that fit ``_CHUNK_BYTES``.

    Returns the records' bytes and how many rows they hold (at least
    one, whatever its size).  Each record's header and packet prefix
    are built as one structured row, then copied into a zeroed buffer
    through a window that starts a row at every byte; body and padding
    bytes are the zeros left around them.
    """
    ftype = cols["ftype"]
    body = np.maximum(cols["size"].astype(np.int64) - 24, 0)
    orig = _PACKET_HEAD[ftype] + np.where(_DATA_CLASS[ftype], body, 0)
    incl = np.minimum(orig, snaplen)
    rec_len = layout.size + incl + (-incl % layout.pad)
    ends = np.cumsum(rec_len)
    n = max(1, int(np.searchsorted(ends, _CHUNK_BYTES, side="right")))
    cols = {name: col[:n] for name, col in cols.items()}
    ftype, orig, incl, rec_len = ftype[:n], orig[:n], incl[:n], rec_len[:n]
    starts = ends[:n] - rec_len
    total = int(ends[n - 1])

    rec = np.zeros(n, dtype=layout.prefix_dtype)
    time_us = cols["time_us"]
    ts_sec, ts_usec = np.divmod(time_us, 1_000_000)
    header = {
        "ts_sec": ts_sec,
        "ts_usec": ts_usec,
        "incl_len": incl,
        "orig_len": orig,
        "rec_len": rec_len,
    }
    for word in layout.words:
        if word in header:
            rec[word] = header[word]
    rec["rt_head"] = _RT_HEAD
    rec["tsft"] = time_us
    rec["rate"] = _RATE_UNITS[cols["rate_code"]]
    rec["freq"] = _CHANNEL_FREQ[cols["channel"]]
    rec["chan_flags"] = _CHAN_FLAGS_B
    # Python's round() and np.rint both round half to even.
    rec["signal"] = np.clip(
        np.rint(cols["snr_db"].astype(np.float64) + _NOISE_FLOOR_DBM),
        -128,
        127,
    )
    rec["noise"] = _NOISE_FLOOR_DBM
    rec["fc"] = _FC[ftype] | np.where(cols["retry"], _RETRY_BIT, 0)
    rec["duration"] = duration
    rec["addr1"] = _macs(cols["dst"])
    src = _macs(cols["src"])
    rec["addr2"] = src  # transmitter
    rec["addr3"] = src  # BSSID
    rec["seq_ctrl"] = (cols["seq"] & 0x0FFF) << 4

    prefix = rec.view(np.uint8).reshape(n, -1)
    width = prefix.shape[1]
    # Write only the header and the captured part of the prefix, one
    # assignment per distinct length (ACK/CTS, RTS, DATA-class).  Each
    # written row lies inside its own record, so no two overlap.
    written = layout.size + np.minimum(incl, width - layout.size)
    out = np.zeros(total + width, dtype=np.uint8)
    rows = as_strided(out, shape=(total, width), strides=(1, 1))
    for length in np.flatnonzero(np.bincount(written)):
        group = written == length
        rows[starts[group], :length] = prefix[group, :length]
    return out[:total], n


def write_trace(
    trace: Trace,
    path: str | Path,
    snaplen: int = PAPER_SNAPLEN,
    duration_fill: bool = True,
) -> int:
    """Write ``trace`` to ``path``; returns frame count.

    The container is chosen by suffix from :data:`_CONTAINERS`:
    ``.snoop`` writes RFC 1761 snoop, anything else a radiotap pcap,
    and a further ``.gz`` gzip-compresses (level 6, mtime pinned to 0,
    so output is byte-deterministic).

    The whole trace is validated first: a row the container cannot
    hold (unknown channel, frame type or rate code, a ``NO_NODE``
    address that would be written, negative or 32-bit-overflowing time,
    non-finite SNR, a length overflowing its 32-bit field) raises one
    ``ValueError`` naming its column and row before the file is opened,
    as does a ``snaplen`` outside [0, 2**32).  Records are then encoded
    in columnar blocks of about ``_CHUNK_BYTES``, byte-identical to the
    per-record encoders (``RadiotapHeader.encode``, ``encode_frame``).

    ``duration_fill`` populates the 802.11 Duration field with each
    frame's NAV-style remaining-exchange estimate (SIFS + ACK) so real
    tools display something sensible; it is not read back.
    """
    path = Path(path)
    filename = path.name.lower()
    compressed = filename.endswith(".gz")
    plain = filename.removesuffix(".gz")
    layout = next(
        (lay for _, suffix, _, lay in _CONTAINERS if plain.endswith(suffix)),
        _PCAP,
    )
    snaplen = operator.index(snaplen)
    if not 0 <= snaplen <= _U32_MAX:
        raise ValueError(f"snaplen {snaplen} outside [0, 2**32)")
    _check_writable(trace, path, snaplen, layout)
    duration = _DURATION_FILL_US if duration_fill else 0
    # Row cap per block, so its scratch rows and masks stay small too.
    max_rows = max(1, _CHUNK_BYTES // 1024)
    cols = {name: trace.column(name) for name in TRACE_COLUMNS}
    # filename="" and mtime=0 keep the gzip member header free of the
    # output path and clock: identical traces compress to identical
    # bytes, so the corpus content hash is write-order independent.
    # The level is part of those bytes too.
    with path.open("wb") as raw, (
        gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", compresslevel=6, mtime=0
        )
        if compressed
        else contextlib.nullcontext(raw)
    ) as fp:
        fp.write(layout.file_header(snaplen))
        start = 0
        while start < len(trace):
            stop = start + max_rows
            block, rows = _encode_block(
                {name: col[start:stop] for name, col in cols.items()},
                snaplen,
                duration,
                layout,
            )
            fp.write(block)
            start += rows
    return len(trace)


# --- reading ----------------------------------------------------------------


class _RowBuffer:
    """Decoded-record accumulator, flushed into Traces batch by batch.

    Holds a row-ordered mix of column-array chunks (the vectorized
    decoder's output) and scalar rows (the fallback decoder's output).
    Columns and dtypes come from the trace schema
    (:data:`repro.frames.TRACE_SCHEMA`) so the pcap layer never
    restates them.
    """

    def __init__(self) -> None:
        self._chunks: list[dict[str, np.ndarray]] = []
        self._scalar: dict[str, list] | None = None
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append_row(self, values: dict) -> None:
        if self._scalar is None:
            self._scalar = {name: [] for name, _ in TRACE_SCHEMA}
        for name, _ in TRACE_SCHEMA:
            self._scalar[name].append(values[name])
        self._len += 1

    def append_chunk(self, cols: dict[str, np.ndarray]) -> None:
        self._seal()
        self._chunks.append(cols)
        self._len += len(cols["time_us"])

    def _seal(self) -> None:
        if self._scalar is not None:
            self._chunks.append(
                {
                    name: np.array(self._scalar[name], dtype=dtype)
                    for name, dtype in TRACE_SCHEMA
                }
            )
            self._scalar = None

    def take(self, count: int) -> Trace:
        """Remove and return the first ``count`` rows as a Trace."""
        self._seal()
        if len(self._chunks) == 1:
            merged = self._chunks[0]
        else:
            merged = {
                name: np.concatenate([c[name] for c in self._chunks])
                for name, _ in TRACE_SCHEMA
            }
        if count < self._len:
            rest = {name: col[count:] for name, col in merged.items()}
            merged = {name: col[:count] for name, col in merged.items()}
            self._chunks = [rest]
            self._len -= count
        else:
            self._chunks = []
            self._len = 0
        return Trace(
            {
                name: np.ascontiguousarray(merged[name], dtype=dtype)
                for name, dtype in TRACE_SCHEMA
            }
        )

    def flush(self) -> Trace:
        return self.take(self._len)


# --- vectorized record decoding --------------------------------------------
#
# Captures written by :func:`write_trace` have one fixed shape: a
# 24-byte radiotap header (version 0, the exact present-word
# ``radiotap._PRESENT``) followed by an 802.11 header from our codec.
# Records of that shape are found and decoded wholesale.  The scan
# finds each packet's lead word with four aligned 32-bit compares and
# keeps the chain of records that starts at offset 0, each ending where
# the next begins; only from the chain's first break does it walk
# record by record.  The decoder takes each record's prefix as one row
# of a byte window over the slab and reads it through one structured
# dtype, so one pass materialises every trace column for thousands of
# records.  Any record that does not match (foreign radiotap geometry,
# unknown type/subtype, alien MAC prefix, non-11b rate...) drops to the
# scalar codec path, which reproduces the legacy per-record behaviour —
# including which exception surfaces and with what offsets — exactly.

#: (dot11_type << 4 | subtype) -> FrameType value, 255 = undecodable.
_FT_TABLE = np.full(64, 255, dtype=np.uint8)
for _t in range(4):
    for _s in range(16):
        try:
            _FT_TABLE[_t * 16 + _s] = int(frame_type_from_dot11(_t, _s))
        except ValueError:
            pass

#: radiotap rate byte (0.5 Mbps units) -> trace rate code, 255 = invalid.
_RATE_TABLE = np.full(256, 255, dtype=np.uint8)
for _rate, _code in RATE_CODES.items():
    _RATE_TABLE[int(_rate * 2)] = _code

_FREQ_SORTED = np.array(sorted(CHANNEL_FREQ_MHZ.values()), dtype=np.uint16)
_FREQ_CHANNEL = np.array(
    [
        {f: c for c, f in CHANNEL_FREQ_MHZ.items()}[int(f)]
        for f in _FREQ_SORTED
    ],
    dtype=np.uint8,
)

#: Control-frame on-air sizes indexed by FrameType value.
_CTRL_SIZE = np.zeros(8, dtype=np.uint32)
_CTRL_SIZE[int(FrameType.ACK)] = ACK_FRAME_BYTES
_CTRL_SIZE[int(FrameType.CTS)] = CTS_FRAME_BYTES
_CTRL_SIZE[int(FrameType.RTS)] = RTS_FRAME_BYTES

#: An address's first four bytes, big-endian: ours, and broadcast.
_OUR_MAC_PREFIX = 0x02000000
_BROADCAST_PREFIX = 0xFFFFFFFF


def _lead_chain(buf: bytes, layout: _RecordLayout) -> tuple[np.ndarray, int]:
    """The records the lead word finds: ``(offsets, end)`` of the run
    of records that starts at offset 0, each ending where the next
    begins, as the per-record walk would take them.  The walk from
    ``end`` finds the rest.
    """
    limit, size = len(buf), layout.size
    if limit < size + 4:
        return np.zeros(0, dtype=np.int64), 0
    hits = []
    for a in range(4):
        words = np.frombuffer(buf, "<u4", (limit - a) // 4, a)
        hits.append(np.flatnonzero(words == _LEAD_WORD) * 4 + a)
    starts = np.sort(np.concatenate(hits)) - size
    starts = starts[starts >= 0]
    if not len(starts) or starts[0]:
        return starts[:0], 0
    # The layout's length word at every byte offset.
    lengths = np.ndarray(
        (limit - 3,), dtype=layout.length_dtype, buffer=buf, strides=(1,)
    )
    ends = starts + layout.length_bias + lengths[starts + layout.length_at]
    run, broken = _chain_run(starts, ends, limit)
    if broken:
        # Lead bytes inside a record are a stray candidate, which no
        # sound candidate ends at: drop those and take the run again.
        sound = ends[(starts < ends) & (ends <= limit)]
        at = np.minimum(np.searchsorted(starts, sound), len(starts) - 1)
        keep = np.zeros(len(starts), dtype=bool)
        keep[at[starts[at] == sound]] = True
        keep[0] = True
        starts, ends = starts[keep], ends[keep]
        run, _ = _chain_run(starts, ends, limit)
    return starts[:run], int(ends[run - 1]) if run else 0


def _chain_run(
    starts: np.ndarray, ends: np.ndarray, limit: int
) -> tuple[int, bool]:
    """How many leading candidates the walk from offset 0 takes, and
    whether it left the last of them for an offset that is no candidate
    (rather than stopping at an unsound record or taking them all)."""
    sound = (starts < ends) & (ends <= limit)
    good = sound.copy()
    good[:-1] &= ends[:-1] == starts[1:]
    stop = len(good) if good.all() else int(good.argmin())
    broken = stop < len(good) and bool(sound[stop])
    return stop + broken, broken


def _scan_records(buf: bytes, layout: _RecordLayout) -> tuple[np.ndarray, int]:
    """Offsets of complete records in ``buf`` and the bytes consumed.

    Equal, for any bytes, to a walk from record to record: the walk
    starts where :func:`_lead_chain`'s run ends.  Stored lengths are
    not checked here, only kept from stalling the walk (a zero length
    stops it); :func:`_first_bad_length` finds the first one too short
    for its record.
    """
    offs, pos = _lead_chain(buf, layout)
    walked: list[int] = []
    limit = len(buf)
    size = layout.size
    at, bias = layout.length_at, layout.length_bias
    unpack_from = layout.length.unpack_from
    while pos + size <= limit:
        end = pos + bias + unpack_from(buf, pos + at)[0]
        if not pos < end <= limit:
            break
        walked.append(pos)
        pos = end
    if walked:
        offs = np.concatenate((offs, np.array(walked, dtype=np.int64)))
    return offs, pos


def _prefix_rows(buf: bytes, offs: np.ndarray, layout: _RecordLayout) -> np.ndarray:
    """The records at ``offs`` as rows of ``layout.read_dtype``: one
    window of the slab, zero-padded by one row, per record."""
    width = layout.read_dtype.itemsize
    u8 = np.concatenate(
        (np.frombuffer(buf, dtype=np.uint8), np.zeros(width, dtype=np.uint8))
    )
    return sliding_window_view(u8, width)[offs].view(layout.read_dtype)[:, 0]


def _first_bad_length(rows: np.ndarray, layout: _RecordLayout) -> int | None:
    """Index of the first of ``rows`` whose stored length cannot hold
    its header plus included bytes; None when all are sound, as implied
    lengths always are."""
    if not layout.stores_length or not len(rows):
        return None
    bad = rows["rec_len"] < layout.size + rows["incl_len"].astype(np.int64)
    return int(bad.argmax()) if bad.any() else None


def _known_mac(prefix: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Which addresses are ours or broadcast (whose node id reads as
    ``BROADCAST``)."""
    bcast = (prefix == _BROADCAST_PREFIX) & (node == BROADCAST)
    return bcast | (prefix == _OUR_MAC_PREFIX)


def _decode_block(rows: np.ndarray) -> tuple[dict, np.ndarray]:
    """Vector-decode records read as ``rows``; returns (columns, ok mask).

    Columns are full-length; positions where ``ok`` is False hold
    garbage and must be re-decoded by the scalar path.
    """
    incl = rows["incl_len"].astype(np.int64)
    orig = rows["orig_len"].astype(np.int64)
    ok = (
        (incl >= 34)
        & (rows["rt_version"] == 0)
        & (rows["rt_len"] == _RT_FIXED_LEN)
        & (rows["rt_present"] == np.uint32(_RT_PRESENT))
    )

    rate_code = _RATE_TABLE[rows["rate"]]
    ok &= rate_code != 255
    freq = rows["freq"]
    fidx = np.minimum(
        np.searchsorted(_FREQ_SORTED, freq), len(_FREQ_SORTED) - 1
    )
    ok &= _FREQ_SORTED[fidx] == freq
    channel = _FREQ_CHANNEL[fidx]
    snr = (rows["signal"].astype(np.int16) - rows["noise"]).astype(np.float32)

    fc = rows["fc"]
    ftype = _FT_TABLE[((fc >> 2) & 0b11) * 16 + ((fc >> 4) & 0b1111)]
    ok &= ftype != 255
    retry = (fc & _RETRY_BIT) != 0

    is_data_cls = _DATA_CLASS[ftype]
    has_src = _WRITES_SRC[ftype]
    need = np.where(is_data_cls, 48, np.where(has_src, 40, 34))
    ok &= incl >= need

    dst = rows["addr1_node"]
    ok &= _known_mac(rows["addr1_prefix"], dst)
    src = rows["addr2_node"]
    ok &= _known_mac(rows["addr2_prefix"], src) | ~has_src
    src = np.where(has_src, src, np.uint16(NO_NODE))
    seq = np.where(is_data_cls, rows["seq_ctrl"] >> 4, np.uint16(0))

    # orig_len preserves the pre-snap size: radiotap + 24 + body.
    size = np.where(
        is_data_cls,
        np.maximum(orig - _RT_FIXED_LEN - 24, 0) + 24,
        _CTRL_SIZE[ftype & 0b111],
    ).astype(np.uint32)

    cols = {
        "time_us": rows["ts_sec"].astype(np.int64) * 1_000_000
        + rows["ts_usec"],
        "ftype": ftype,
        "rate_code": rate_code,
        "size": size,
        "src": src.astype(np.uint16),
        "dst": dst.astype(np.uint16),
        "retry": retry,
        "channel": channel,
        "snr_db": snr,
        "seq": seq.astype(np.uint16),
    }
    return cols, ok


#: Exceptions the radiotap/802.11 codecs raise on damaged bytes.
_CODEC_ERRORS = (struct.error, ValueError, KeyError, IndexError)


def _decode_record_scalar(
    buf: bytes,
    pos: int,
    abs_offset: int,
    frames_read: int,
    path: Path,
    compressed: bool,
    layout: _RecordLayout,
) -> dict:
    """Per-record decode — the behavioural reference and the fallback.

    Raises the container's damage error (``layout.error``, with the
    record's absolute byte offset) when the codecs reject the bytes,
    and a :class:`CaptureError` naming the path and offset for a
    well-formed record bearing a non-802.11b rate — that is not
    truncation, it is an out-of-scope capture.
    """
    header = layout.unpack(buf, pos)
    start = pos + layout.size
    packet = buf[start : start + header["incl_len"]]
    try:
        radiotap, rt_len = RadiotapHeader.decode(packet)
        frame = decode_frame(packet[rt_len:])
    except _CODEC_ERRORS as error:
        raise layout.error(
            f"{path}: undecodable record "
            f"({type(error).__name__}: {error})",
            byte_offset=abs_offset,
            frames_read=frames_read,
            compressed=compressed,
            path=path,
        ) from error
    try:
        rate_code = rate_to_code(radiotap.rate_mbps)
    except ValueError as error:
        raise CaptureError(
            f"{path}: {error} ({_where(compressed)} {abs_offset})",
            path=path,
            byte_offset=abs_offset,
            frames_read=frames_read,
        ) from error
    if frame.ftype in (FrameType.DATA, FrameType.MGMT, FrameType.BEACON):
        size = max(0, header["orig_len"] - rt_len - 24) + 24
    else:
        size = int(_CTRL_SIZE[frame.ftype])
    return {
        "time_us": header["ts_sec"] * 1_000_000 + header["ts_usec"],
        "ftype": int(frame.ftype),
        "rate_code": rate_code,
        "size": size,
        "src": frame.src,
        "dst": frame.dst,
        "retry": frame.retry,
        "channel": radiotap.channel,
        "snr_db": radiotap.snr_db,
        "seq": frame.seq,
    }


def _sniff(path: Path) -> tuple[str | None, _RecordLayout, bool]:
    """``(name, layout, compressed)`` of the container whose leading
    bytes start ``path``'s content, looking through a gzip wrapper.

    Bytes no container claims give ``(None, _PCAP, compressed)``: read
    as pcap, its header check names what is wrong with them.  A gzip
    wrapper that dies before those bytes raises
    :class:`TruncatedPcapError` at decompressed offset 0.
    """
    with path.open("rb") as fp:
        head = fp.read(_SNIFF_BYTES)
        compressed = head.startswith(_GZIP_MAGIC)
        if compressed:
            fp.seek(0)
            head, error = _Inflater(fp).read(_SNIFF_BYTES)
            if error is not None:
                raise TruncatedPcapError(
                    f"{path}: corrupt gzip stream "
                    f"({type(error).__name__}: {error})",
                    byte_offset=0,
                    frames_read=0,
                    compressed=True,
                    path=path,
                ) from error
    for name, _, lead, layout in _CONTAINERS:
        if head.startswith(lead):
            return name, layout, compressed
    return None, _PCAP, compressed


def detect_format(path: str | Path) -> tuple[str, bool]:
    """Identify ``path`` by content, never by name: ``(container name,
    compressed)``, e.g. ``("snoop", True)`` for a gzipped snoop file.

    Raises :class:`CaptureError` for bytes no container claims (a
    :class:`TruncatedPcapError` when a gzip wrapper cannot be read
    that far).
    """
    path = Path(path)
    name, _, compressed = _sniff(path)
    if name is None:
        raise CaptureError(
            f"{path}: not a recognised capture format "
            f"(known: {sorted(CAPTURE_FORMATS)})",
            path=path,
        )
    return name, compressed


class _Inflater:
    """The decompressed bytes of a gzip file, ``size`` at a time.

    One ``zlib.decompressobj`` per gzip member inflates raw reads of at
    most ``_GZIP_PIECE_BYTES``, each call bounded to the output still
    asked for; a member's ``unused_data``, after any zero padding,
    starts the next member, as :mod:`gzip` reads them.  zlib checks the
    header, CRC and length itself.  When it rejects a read, the read is
    replayed a byte at a time from the member's state before it, so
    every byte inflated before the damage is still returned.
    """

    def __init__(self, raw) -> None:
        self._raw = raw
        self._member = None  # the open member's decompressobj
        self._input = b""  # compressed bytes not yet inflated
        # The last call filled its output bound: zlib may hold more
        # output for the bytes it has already taken.
        self._full = False

    def read(self, size: int) -> tuple[bytes, BaseException | None]:
        """Up to ``size`` decompressed bytes, fewer only at the end of
        the file or at damage, plus the error that cut them short:
        ``EOFError`` for a truncated member, the ``zlib.error`` of
        damaged bytes, or ``None``."""
        out, have = [], 0
        while have < size:
            if not (self._input or self._full):
                self._input = self._raw.read(_GZIP_PIECE_BYTES)
                if not self._input:
                    if self._member is None:
                        break
                    return b"".join(out), EOFError(
                        "Compressed file ended before the end-of-stream "
                        "marker was reached"
                    )
            if self._member is None:
                self._input = self._input.lstrip(b"\0")
                if not self._input:
                    continue
                self._member = zlib.decompressobj(31)
            feed, before, room = self._input, self._member.copy(), size - have
            try:
                piece = self._member.decompress(feed, room)
            except zlib.error as error:
                # Replay the read a byte at a time from the state before it.
                for i in range(len(feed)):
                    try:
                        out.append(before.decompress(feed[i : i + 1]))
                    except zlib.error:
                        break
                return b"".join(out), error
            out.append(piece)
            have += len(piece)
            self._full = len(piece) == room
            if self._member.eof:
                self._input, self._member = self._member.unused_data, None
                self._full = False
            else:
                self._input = self._member.unconsumed_tail
        return b"".join(out), None


def read_trace_batches(
    path: str | Path, batch_frames: int = 131_072
):
    """Incrementally read a capture as bounded-size Traces.

    The container is detected from the leading bytes, never the name
    (see :func:`detect_format`): plain radiotap pcap, RFC 1761 snoop,
    and gzip-compressed variants of both.  Bytes no container claims
    fail the pcap header check ("magic", "too short", "linktype").
    For compressed captures, reads stream through zlib
    (:class:`_Inflater`) — the file is never fully decompressed in
    memory — and every reported byte offset is into the decompressed
    stream.

    The file is consumed in multi-megabyte slabs, so memory stays
    bounded no matter how large the capture is — the streaming
    pipeline's pcap source.  Records in the shape :func:`write_trace`
    emits are found by their radiotap lead word and decoded in bulk, as
    rows of one byte window over the slab; anything else falls back,
    record by record, to the scalar codecs, which also own the error
    behaviour: damaged tails, and corrupt gzip streams, raise the
    container's damage error (:class:`TruncatedPcapError`, or its
    subclass :class:`TruncatedSnoopError`) *after* the clean prefix is
    flushed.
    Frames are yielded in file order; captures written by
    :func:`write_trace` are time-ordered.
    """
    if batch_frames <= 0:
        raise ValueError("batch_frames must be positive")
    path = Path(path)
    _, layout, compressed = _sniff(path)

    def corrupt_gzip(error, byte_offset, frames_read):
        return layout.error(
            f"{path}: corrupt gzip stream "
            f"({type(error).__name__}: {error})",
            byte_offset=byte_offset,
            frames_read=frames_read,
            compressed=True,
            path=path,
        )

    with path.open("rb") as fp:
        # read(size) -> (bytes, the error that cut them short or None)
        read = _Inflater(fp).read if compressed else lambda n: (fp.read(n), None)
        header, error = read(layout.file_header_size)
        if error is not None:
            raise corrupt_gzip(error, 0, 0) from error
        layout.check_file_header(path, header)

        rows = _RowBuffer()
        # absolute (decompressed) offset of buf[0]
        base = layout.file_header_size
        buf = b""
        frames_read = 0
        eof = False
        stream_error = None
        while not eof and stream_error is None:
            data, stream_error = read(_CHUNK_BYTES)
            if not data:
                eof = True
            else:
                buf = buf + data if buf else data
            offs, consumed = _scan_records(buf, layout)
            # The record the scan stopped at, if its header is whole,
            # has its stored length checked too.
            heads = (
                np.append(offs, consumed)
                if consumed + layout.size <= len(buf)
                else offs
            )
            prefixes = _prefix_rows(buf, heads, layout)
            bad = _first_bad_length(prefixes, layout)
            if bad is not None:
                bad_at = int(heads[bad])
                offs = offs[:bad]
            elif not eof and not len(offs):
                continue  # record longer than the slab: keep reading
            if len(offs):
                cols, ok = _decode_block(prefixes[: len(offs)])
                # Runs of records the block decode kept or left over.
                bounds = np.flatnonzero(ok[1:] != ok[:-1]) + 1
                for run_start, run_end in zip(
                    [0, *bounds.tolist()], [*bounds.tolist(), len(offs)]
                ):
                    if ok[run_start]:
                        rows.append_chunk(
                            {
                                name: col[run_start:run_end]
                                for name, col in cols.items()
                            }
                        )
                        frames_read += run_end - run_start
                        while len(rows) >= batch_frames:
                            yield rows.take(batch_frames)
                    else:
                        for i in range(run_start, run_end):
                            try:
                                values = _decode_record_scalar(
                                    buf,
                                    int(offs[i]),
                                    base + int(offs[i]),
                                    frames_read,
                                    path,
                                    compressed,
                                    layout,
                                )
                            except TruncatedPcapError:
                                if len(rows):
                                    yield rows.flush()
                                raise
                            rows.append_row(values)
                            frames_read += 1
                            if len(rows) >= batch_frames:
                                yield rows.take(batch_frames)
            if bad is not None:
                header = layout.unpack(buf, bad_at)
                if len(rows):
                    yield rows.flush()
                raise layout.error(
                    f"{path}: invalid record length {header['rec_len']} "
                    f"(included length {header['incl_len']})",
                    byte_offset=base + bad_at,
                    frames_read=frames_read,
                    compressed=compressed,
                    path=path,
                )
            buf = buf[consumed:]
            base += consumed
        if stream_error is not None:
            # The gzip stream itself died (truncated or corrupt
            # compressed bytes): every record decompressed before the
            # damage is a clean prefix, exactly like an on-disk
            # truncation.
            if len(rows):
                yield rows.flush()
            raise corrupt_gzip(
                stream_error, base + len(buf), frames_read
            ) from stream_error
        if buf:
            # Damage found: flush the clean prefix first so streaming
            # callers keep every frame read so far.
            if len(rows):
                yield rows.flush()
            if len(buf) < layout.size:
                raise layout.error(
                    f"{path}: truncated record header",
                    byte_offset=base,
                    frames_read=frames_read,
                    compressed=compressed,
                    path=path,
                )
            raise layout.error(
                f"{path}: truncated record body",
                byte_offset=base + layout.size,
                frames_read=frames_read,
                compressed=compressed,
                path=path,
            )
        if len(rows):
            yield rows.flush()


def read_trace(path: str | Path) -> Trace:
    """Read a capture (pcap/snoop, optionally gzipped) into a Trace."""
    batches = list(read_trace_batches(path))
    if not batches:
        return Trace.empty()
    if len(batches) == 1:
        return batches[0]
    return Trace(
        {
            name: np.concatenate([b.column(name) for b in batches])
            for name in TRACE_COLUMNS
        }
    )

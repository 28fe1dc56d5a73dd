"""RFC 1761 snoop reader/writer for radiotap-encapsulated 802.11 traces.

The second capture container the corpus understands (Solaris ``snoop``,
the other format wireless captures of the paper's era shipped in).
Produces and consumes the exact same :class:`repro.frames.Trace` schema
as :mod:`repro.pcap.pcapio` — a trace written as snoop and read back is
field-identical to the pcap round trip.

Layout (all integers big-endian, RFC 1761 §2):

* file header — 8-byte ident ``b"snoop\\0\\0\\0"``, version (2),
  datalink type;
* per record — original length, included length, record length
  (header + payload + pad), cumulative drops, seconds, microseconds,
  then the payload padded to a 4-byte boundary.

RFC 1761 only assigns datalink codes 0–9; radiotap postdates it.  We
register the project extension ``IEEE_802_11_RADIOTAP = 127``,
mirroring the pcap linktype number, so the two containers agree on
what the payload is.

This module only describes that layout (:data:`_LAYOUT`): writing and
reading run through the columnar codec :mod:`repro.pcap.pcapio` shares
between both containers — block encoder, slab reader, vectorized
decoder and scalar fallback.  A record the decoder does not recognise
falls back to the per-record codecs exactly as a pcap record does.

A ``.gz`` suffix on write — and the gzip magic on read — selects
transparent, deterministic (level 9, mtime pinned to 0) gzip
streaming, same as the pcap side.  Truncation/corruption surfaces as
:class:`TruncatedSnoopError`, a subclass of
:class:`repro.pcap.TruncatedPcapError`, after the clean prefix has
been yielded; a foreign file header is a :class:`repro.pcap.CaptureError`.
"""

from __future__ import annotations

import enum
import struct
from pathlib import Path

from ..frames import Trace
from ..pcap.pcapio import (  # noqa: F401 - _CHUNK_BYTES is re-exported
    _CHUNK_BYTES,  # the shared reader's slab size, set on repro.pcap.pcapio
    _GZIP_MAGIC,
    PAPER_SNAPLEN,
    CaptureError,
    TruncatedPcapError,
    _collect,
    _read_batches,
    _RecordLayout,
    _write_capture,
)

__all__ = [
    "SNOOP_IDENT",
    "SNOOP_VERSION",
    "SnoopDatalinkType",
    "TruncatedSnoopError",
    "write_snoop",
    "read_snoop",
    "read_snoop_batches",
]

SNOOP_IDENT = b"snoop\x00\x00\x00"
SNOOP_VERSION = 2


class SnoopDatalinkType(enum.IntEnum):
    """RFC 1761 §2 datalink codes, plus our radiotap extension."""

    #: IEEE Ethernet
    IEEE_802_3 = 0
    #: IEEE Token Bus
    IEEE_802_4 = 1
    #: IEEE Metro Net
    IEEE_802_5 = 2
    #: Ethernet II
    ETHERNET = 4
    #: High-Level Data Link Control; ISO/IEC 13239
    HDLC = 5
    #: Synchronous Data Link Control; Character Synchronous
    SDLC = 6
    #: IBM Channel-to-Channel
    FICON_CTC = 7
    #: Fiber Distributed Data Interface
    FDDI = 8
    OTHER = 9
    #: Project extension: radiotap-encapsulated 802.11, numbered to
    #: match the pcap linktype (127) — not an IANA assignment.
    IEEE_802_11_RADIOTAP = 127


_FILE_HEADER = struct.Struct(">8sLL")


class TruncatedSnoopError(TruncatedPcapError):
    """A snoop capture ended mid-record or a record failed to decode.

    Subclasses :class:`repro.pcap.TruncatedPcapError` so every existing
    partial-read handler (streaming pipeline, serve daemon, batch runs,
    corpus indexing) treats both containers uniformly.
    """


def _file_header(snaplen: int) -> bytes:
    # RFC 1761 has no snap length field: each record carries its own
    # original and included lengths.
    return _FILE_HEADER.pack(
        SNOOP_IDENT, SNOOP_VERSION, int(SnoopDatalinkType.IEEE_802_11_RADIOTAP)
    )


def _check_file_header(path: Path, header: bytes) -> None:
    if len(header) < _FILE_HEADER.size:
        raise CaptureError(f"{path}: not a snoop file (too short)", path=path)
    ident, version, datalink = _FILE_HEADER.unpack(header)
    if ident != SNOOP_IDENT:
        raise CaptureError(f"{path}: bad snoop ident {ident!r}", path=path)
    if version != SNOOP_VERSION:
        raise CaptureError(
            f"{path}: snoop version {version}, expected {SNOOP_VERSION}",
            path=path,
        )
    if datalink != SnoopDatalinkType.IEEE_802_11_RADIOTAP:
        raise CaptureError(
            f"{path}: snoop datalink {datalink}, expected radiotap "
            f"({int(SnoopDatalinkType.IEEE_802_11_RADIOTAP)})",
            path=path,
        )


#: The RFC 1761 record framing, for the shared codec.
_LAYOUT = _RecordLayout(
    words=("orig_len", "incl_len", "rec_len", "drops", "ts_sec", "ts_usec"),
    byte_order=">",
    pad=4,
    error=TruncatedSnoopError,
    file_header=_file_header,
    check_file_header=_check_file_header,
)


def write_snoop(
    trace: Trace,
    path: str | Path,
    snaplen: int = PAPER_SNAPLEN,
    duration_fill: bool = True,
) -> int:
    """Write ``trace`` to ``path`` as RFC 1761 snoop; returns frame count.

    A ``.gz`` suffix gzip-compresses (byte-deterministic: level 9,
    mtime 0).  Validation, ``snaplen`` and ``duration_fill`` behave as
    in :func:`repro.pcap.write_trace`: a trace the container cannot
    hold raises ``ValueError`` before the file is opened, and records
    are encoded in columnar blocks byte-identical to the per-record
    encoders.  Every record's ``drops`` word is 0.
    """
    return _write_capture(trace, path, snaplen, duration_fill, _LAYOUT)


def read_snoop_batches(
    path: str | Path, batch_frames: int = 131_072
):
    """Incrementally read a snoop capture as bounded-size Traces.

    Runs the slab loop and vectorized decoder of
    :func:`repro.pcap.read_trace_batches` on the snoop record layout:
    memory stays bounded, gzip input is detected by magic and
    streamed, and damage — a cut record, an undecodable one, a record
    length shorter than its header plus included bytes, a corrupt gzip
    stream — raises :class:`TruncatedSnoopError` only after the clean
    prefix has been yielded.  Offsets in errors are into the
    decompressed stream for ``.gz`` input.
    """
    if batch_frames <= 0:
        raise ValueError("batch_frames must be positive")
    path = Path(path)
    with path.open("rb") as fp:
        compressed = fp.read(2) == _GZIP_MAGIC
    yield from _read_batches(path, batch_frames, compressed, _LAYOUT)


def read_snoop(path: str | Path) -> Trace:
    """Read a snoop capture (optionally gzipped) into a Trace."""
    return _collect(read_snoop_batches(path))

"""Per-record oracles for the columnar capture codec.

The container writers and the slab reader work on blocks of records.
These loops do the same work one record at a time through the
per-record codecs — :func:`encode_packet` (``RadiotapHeader.encode`` +
``encode_frame``) on the way out,
:func:`repro.pcap.pcapio._decode_record_scalar` on the way in — with
the record framing spelled out here from the pcap format and RFC 1761
rather than taken from the codec under test.  The tests and
``benchmarks/bench_capture_codec.py`` compare against them.
"""

from __future__ import annotations

import gzip
import io
import struct

from repro.frames import FrameType
from repro.pcap.dot11_codec import encode_frame
from repro.pcap.pcapio import (
    _DURATION_FILL_US,
    _NOISE_FLOOR_DBM,
    _PCAP as PCAP_LAYOUT,
    _SNOOP as SNOOP_LAYOUT,
    TruncatedPcapError,
    _decode_record_scalar,
    _RowBuffer,
)
from repro.pcap.radiotap import RadiotapHeader

SUFFIXES = (".pcap", ".pcap.gz", ".snoop", ".snoop.gz")


def _pcap_header(snaplen):
    return struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 127)


def _pcap_record(packet, incl, ts_sec, ts_usec):
    return struct.pack("<IIII", ts_sec, ts_usec, len(incl), len(packet)), incl


def _snoop_header(snaplen):
    return struct.pack(">8sLL", b"snoop\x00\x00\x00", 2, 127)


def _snoop_record(packet, incl, ts_sec, ts_usec):
    pad = -len(incl) % 4
    header = struct.pack(
        ">LLLLLL", len(packet), len(incl), 24 + len(incl) + pad, 0,
        ts_sec, ts_usec,
    )
    return header, incl, b"\0" * pad


#: container -> (file header, record pieces, layout the reader uses)
CONTAINERS = {
    "pcap": (_pcap_header, _pcap_record, PCAP_LAYOUT),
    "snoop": (_snoop_header, _snoop_record, SNOOP_LAYOUT),
}


def container_of(suffix: str) -> str:
    return "snoop" if ".snoop" in suffix else "pcap"


def encode_packet(row, duration_fill: bool) -> bytes:
    """One trace row as radiotap + 802.11 bytes, through the per-record
    encoders."""
    radiotap = RadiotapHeader(
        tsft_us=row.time_us,
        rate_mbps=row.rate_mbps,
        channel=row.channel,
        signal_dbm=int(round(_NOISE_FLOOR_DBM + row.snr_db)),
        noise_dbm=_NOISE_FLOOR_DBM,
    ).encode()
    body_size = 0
    if row.ftype in (FrameType.DATA, FrameType.MGMT, FrameType.BEACON):
        body_size = max(0, row.size - 24)
    duration = _DURATION_FILL_US if duration_fill else 0
    dot11 = encode_frame(
        ftype=row.ftype,
        src=row.src,
        dst=row.dst,
        seq=row.seq,
        retry=row.retry,
        body_size=body_size,
        duration_us=duration,
    )
    return radiotap + dot11


def oracle_pieces(trace, container, snaplen, duration_fill=True):
    """The container's bytes in the pieces a per-row writer emits:
    the file header, then each record's header, payload and padding."""
    file_header, record, _ = CONTAINERS[container]
    yield file_header(snaplen)
    for row in trace.iter_rows():
        packet = encode_packet(row, duration_fill)
        ts_sec, ts_usec = divmod(row.time_us, 1_000_000)
        yield from record(packet, packet[:snaplen], ts_sec, ts_usec)


def oracle_write(fp, trace, suffix, snaplen=250, duration_fill=True):
    """Write what ``write_trace(trace, "x" + suffix, snaplen)`` must
    write into the binary file ``fp``, one write per piece as the
    per-row writers did; a ``.gz`` suffix compresses at gzip level 6
    with mtime 0 and no name."""
    pieces = oracle_pieces(trace, container_of(suffix), snaplen, duration_fill)
    if suffix.endswith(".gz"):
        with gzip.GzipFile(
            filename="", fileobj=fp, mode="wb", compresslevel=6, mtime=0
        ) as zp:
            for piece in pieces:
                zp.write(piece)
    else:
        for piece in pieces:
            fp.write(piece)


def oracle_bytes(trace, suffix, snaplen=250, duration_fill=True) -> bytes:
    out = io.BytesIO()
    oracle_write(out, trace, suffix, snaplen, duration_fill)
    return out.getvalue()


def scalar_read(path, batch_frames, raw=None):
    """Decode a plain capture record by record; returns (batches, error).

    Mirrors the reader's contract: complete batches are "yielded" as
    they fill, the clean remainder is flushed before a
    :class:`TruncatedPcapError` (any other error loses it), and the
    error itself is returned for comparison.  ``raw`` overrides the
    file's bytes (a decompressed ``.gz``).
    """
    raw = path.read_bytes() if raw is None else raw
    layout = CONTAINERS["snoop" if raw.startswith(b"snoop") else "pcap"][2]
    size = layout.size
    order = "<" if layout is PCAP_LAYOUT else ">"
    record = struct.Struct(order + "L" * len(layout.words))
    rows = _RowBuffer()
    yielded = []
    frames_read = 0
    error = None
    pos = layout.file_header_size
    while pos + size <= len(raw):
        words = dict(zip(layout.words, record.unpack_from(raw, pos)))
        length = words.get("rec_len", size + words["incl_len"])
        if length < size + words["incl_len"]:
            error = layout.error(
                f"{path}: invalid record length {length} "
                f"(included length {words['incl_len']})",
                byte_offset=pos,
                frames_read=frames_read,
            )
            break
        if pos + length > len(raw):
            break
        try:
            values = _decode_record_scalar(
                raw, pos, pos, frames_read, path, False, layout
            )
        except Exception as exc:  # noqa: BLE001 - parity on any error
            error = exc
            break
        rows.append_row(values)
        frames_read += 1
        if len(rows) >= batch_frames:
            yielded.append(rows.take(batch_frames))
        pos += length
    if error is None and pos < len(raw):
        cut_header = len(raw) - pos < size
        error = layout.error(
            f"{path}: truncated record {'header' if cut_header else 'body'}",
            byte_offset=pos if cut_header else pos + size,
            frames_read=frames_read,
        )
    if len(rows) and (error is None or isinstance(error, TruncatedPcapError)):
        yielded.append(rows.flush())
    return yielded, error

"""Typed truncation errors: damage reports carry offset + clean-frame count.

A sniffer killed mid-write (the paper's monitors ran for days) leaves a
pcap that ends mid-record.  The reader must (a) raise
:class:`TruncatedPcapError` — never a raw ``struct.error`` — with the
byte offset of the damage and how many frames decoded cleanly, and
(b) in streaming mode, yield the entire clean prefix *before* raising,
so the serve daemon can finalize a partial report.
"""

import pickle
import struct

import pytest

from repro.frames import Trace
from repro.pcap import (
    TruncatedPcapError,
    TruncatedSnoopError,
    read_trace,
    write_trace,
)
from repro.pipeline import pcap_chunks

from ..conftest import ack, data


N_FRAMES = 6


@pytest.fixture
def capture(tmp_path):
    """A clean 6-frame pcap plus its per-record header offsets."""
    rows = []
    for i in range(N_FRAMES // 2):
        rows.append(data(10_000 * i + 1_000, src=10, dst=1, seq=i))
        rows.append(ack(10_000 * i + 2_400, src=1, dst=10))
    path = tmp_path / "capture.pcap"
    write_trace(Trace.from_rows(rows), path)
    raw = path.read_bytes()
    offsets = []
    offset = 24
    while offset < len(raw):
        incl_len = struct.unpack("<I", raw[offset + 8 : offset + 12])[0]
        offsets.append(offset)
        offset += 16 + incl_len
    assert len(offsets) == N_FRAMES
    return path, raw, offsets


def collect_until_error(path, batch_frames=2):
    """Drain the batch generator, returning (clean_frames, error)."""
    frames = 0
    try:
        for batch in pcap_chunks(path, batch_frames):
            frames += len(batch)
    except TruncatedPcapError as error:
        return frames, error
    return frames, None


def test_truncated_record_header(capture, tmp_path):
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[-1] + 8])  # half a record header
    with pytest.raises(TruncatedPcapError) as exc:
        read_trace(cut)
    assert exc.value.byte_offset == offsets[-1]
    assert exc.value.frames_read == N_FRAMES - 1


def test_truncated_record_body(capture, tmp_path):
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[-1] + 16 + 5])  # header + 5 body bytes
    with pytest.raises(TruncatedPcapError) as exc:
        read_trace(cut)
    assert exc.value.byte_offset == offsets[-1] + 16
    assert exc.value.frames_read == N_FRAMES - 1


def test_undecodable_record(capture, tmp_path):
    """Garbage where a radiotap header should be: typed error, not struct."""
    path, raw, offsets = capture
    bad = bytearray(raw)
    start = offsets[-1] + 16
    bad[start : start + 8] = b"\xff" * 8
    corrupt = tmp_path / "corrupt.pcap"
    corrupt.write_bytes(bytes(bad))
    with pytest.raises(TruncatedPcapError, match="undecodable") as exc:
        read_trace(corrupt)
    assert exc.value.byte_offset == offsets[-1]
    assert exc.value.frames_read == N_FRAMES - 1


def test_streaming_yields_clean_prefix_before_raising(capture, tmp_path):
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[-1] + 16 + 3])
    frames, error = collect_until_error(cut, batch_frames=2)
    assert error is not None
    assert frames == N_FRAMES - 1          # every clean frame was delivered
    assert error.frames_read == frames


def test_streaming_partial_batch_flushed(capture, tmp_path):
    """Damage inside a half-full batch still flushes the buffered rows."""
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[3] + 8])  # 3 clean frames, batch size 2
    frames, error = collect_until_error(cut, batch_frames=2)
    assert frames == 3
    assert error.frames_read == 3
    assert error.byte_offset == offsets[3]


def test_damage_in_first_record(capture, tmp_path):
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[0] + 4])
    frames, error = collect_until_error(cut)
    assert frames == 0
    assert error.frames_read == 0
    assert error.byte_offset == offsets[0]


def test_error_message_names_offset_and_frames(capture, tmp_path):
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[-1] + 2])
    with pytest.raises(TruncatedPcapError) as exc:
        read_trace(cut)
    message = str(exc.value)
    assert f"byte offset {offsets[-1]}" in message
    assert f"{N_FRAMES - 1} frames read cleanly" in message


def test_is_a_value_error(capture, tmp_path):
    """Back-compat: callers catching ValueError keep working."""
    path, raw, offsets = capture
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(raw[: offsets[-1] + 8])
    with pytest.raises(ValueError, match="truncated"):
        read_trace(cut)


def test_clean_file_reads_without_error(capture):
    path, raw, offsets = capture
    trace = read_trace(path)
    assert len(trace) == N_FRAMES


@pytest.mark.parametrize("cls", [TruncatedPcapError, TruncatedSnoopError])
def test_pickle_round_trip(cls):
    """Truncation errors cross process boundaries (pools) intact."""
    error = cls(
        "truncated record body", byte_offset=5, frames_read=2, compressed=True
    )
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is cls
    assert str(clone) == str(error)
    assert (clone.byte_offset, clone.frames_read, clone.compressed) == (5, 2, True)

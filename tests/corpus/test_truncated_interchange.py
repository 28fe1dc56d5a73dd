"""Typed damage reports for the interchange containers.

Mirrors ``tests/pcap/test_truncated.py`` for the two new containers: a
snoop capture cut mid-record raises :class:`TruncatedSnoopError` (a
:class:`TruncatedPcapError`, so existing handlers keep working) with
the exact byte offset and clean-frame count, and a gzip stream cut
mid-member reports the *decompressed* offset — after the full clean
prefix has been yielded in streaming mode.
"""

import struct

import pytest

from repro.pcap import (
    TruncatedPcapError,
    TruncatedSnoopError,
    read_trace,
    write_trace,
)
from repro.pcap.pcapio import read_trace_batches

from .conftest import burst_trace

N_FRAMES = 20  # 10 DATA/ACK pairs


@pytest.fixture
def trace():
    return burst_trace(channel=6, t0_us=1_000_000)


@pytest.fixture
def snoop_capture(tmp_path, trace):
    """A clean snoop capture plus its per-record header offsets."""
    path = tmp_path / "capture.snoop"
    write_trace(trace, path)
    raw = path.read_bytes()
    offsets = []
    offset = 16
    while offset < len(raw):
        rec_len = struct.unpack(">L", raw[offset + 8 : offset + 12])[0]
        offsets.append(offset)
        offset += rec_len
    assert len(offsets) == N_FRAMES
    return path, raw, offsets


def collect_until_error(path, batch_frames=4):
    frames = 0
    try:
        for batch in read_trace_batches(path, batch_frames):
            frames += len(batch)
    except TruncatedPcapError as error:
        return frames, error
    return frames, None


class TestTruncatedSnoop:
    def test_cut_record_header(self, snoop_capture, tmp_path):
        path, raw, offsets = snoop_capture
        cut = tmp_path / "cut.snoop"
        cut.write_bytes(raw[: offsets[-1] + 10])  # partial 24-byte header
        with pytest.raises(TruncatedSnoopError) as exc:
            read_trace(cut)
        assert exc.value.byte_offset == offsets[-1]
        assert exc.value.frames_read == N_FRAMES - 1
        assert "truncated record header" in str(exc.value)

    def test_cut_record_body(self, snoop_capture, tmp_path):
        path, raw, offsets = snoop_capture
        cut = tmp_path / "cut.snoop"
        cut.write_bytes(raw[: offsets[-1] + 24 + 5])
        with pytest.raises(TruncatedSnoopError) as exc:
            read_trace(cut)
        assert exc.value.byte_offset == offsets[-1] + 24
        assert exc.value.frames_read == N_FRAMES - 1
        assert "truncated record body" in str(exc.value)

    def test_undecodable_record(self, snoop_capture, tmp_path):
        path, raw, offsets = snoop_capture
        bad = bytearray(raw)
        start = offsets[-1] + 24
        bad[start : start + 8] = b"\xff" * 8
        corrupt = tmp_path / "corrupt.snoop"
        corrupt.write_bytes(bytes(bad))
        with pytest.raises(TruncatedSnoopError, match="undecodable") as exc:
            read_trace(corrupt)
        assert exc.value.byte_offset == offsets[-1]
        assert exc.value.frames_read == N_FRAMES - 1

    def test_bad_record_length_rejected(self, snoop_capture, tmp_path):
        """record_length < 24 + included_length cannot be walked past."""
        path, raw, offsets = snoop_capture
        bad = bytearray(raw)
        struct.pack_into(">L", bad, offsets[0] + 8, 4)
        corrupt = tmp_path / "corrupt.snoop"
        corrupt.write_bytes(bytes(bad))
        with pytest.raises(TruncatedSnoopError, match="invalid record length"):
            read_trace(corrupt)

    def test_streaming_yields_clean_prefix_before_raising(
        self, snoop_capture, tmp_path
    ):
        path, raw, offsets = snoop_capture
        cut = tmp_path / "cut.snoop"
        cut.write_bytes(raw[: offsets[-1] + 24 + 3])
        frames, error = collect_until_error(cut, batch_frames=4)
        assert error is not None
        assert frames == N_FRAMES - 1
        assert error.frames_read == frames

    def test_is_a_truncated_pcap_error(self, snoop_capture, tmp_path):
        """Handlers written for pcap damage catch snoop damage too."""
        path, raw, offsets = snoop_capture
        cut = tmp_path / "cut.snoop"
        cut.write_bytes(raw[: offsets[-1] + 8])
        with pytest.raises(TruncatedPcapError):
            read_trace(cut)
        with pytest.raises(ValueError):
            read_trace(cut)

    def test_bad_ident_and_version(self, snoop_capture, tmp_path):
        path, raw, offsets = snoop_capture
        wrong = tmp_path / "wrong.snoop"
        wrong.write_bytes(b"notsnoop" + raw[8:])
        # A mangled ident no longer *is* a snoop file: the content
        # sniffer falls through to pcap and rejects the magic.
        with pytest.raises(ValueError):
            read_trace(wrong)
        bad_version = bytearray(raw)
        struct.pack_into(">L", bad_version, 8, 9)
        versioned = tmp_path / "versioned.snoop"
        versioned.write_bytes(bytes(bad_version))
        with pytest.raises(ValueError, match="snoop version"):
            read_trace(versioned)


class TestTruncatedGzip:
    @pytest.fixture(params=["capture.pcap.gz", "capture.snoop.gz"])
    def gz_capture(self, request, tmp_path, trace):
        path = tmp_path / request.param
        write_trace(trace, path)
        return path

    def test_cut_gzip_stream_reports_decompressed_offset(
        self, gz_capture, tmp_path, monkeypatch
    ):
        # Small slabs so several reads succeed before the cut: the
        # clean prefix must stream out ahead of the typed error.
        import repro.pcap.pcapio as pcapio_mod

        monkeypatch.setattr(pcapio_mod, "_CHUNK_BYTES", 512)
        cut = tmp_path / f"cut-{gz_capture.name}"
        raw = gz_capture.read_bytes()
        cut.write_bytes(raw[: int(len(raw) * 0.6)])
        frames, error = collect_until_error(cut, batch_frames=4)
        assert error is not None
        assert 0 < frames < N_FRAMES  # clean prefix delivered first
        assert error.frames_read == frames
        assert "decompressed byte offset" in str(error)
        assert "corrupt gzip stream" in str(error)

    def test_cut_gzip_header_is_typed(self, gz_capture, tmp_path):
        """Damage before any member data: typed error, zero frames."""
        cut = tmp_path / f"cut-{gz_capture.name}"
        cut.write_bytes(gz_capture.read_bytes()[:6])
        with pytest.raises(TruncatedPcapError) as exc:
            read_trace(cut)
        assert exc.value.frames_read == 0

    def test_clean_gzip_reads_without_error(self, gz_capture):
        assert len(read_trace(gz_capture)) == N_FRAMES

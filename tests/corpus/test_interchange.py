"""Interchange fidelity: every container yields the same decoded trace.

The corpus accepts captures in classic pcap and RFC 1761 snoop, each
optionally gzipped.  ``write_trace`` routes by extension and
``read_trace`` sniffs content, so the four containers must round-trip
**field-identical** — same schema columns, bit for bit — or analysis
results would depend on which sniffer wrote the file.
"""

import gzip
import struct

import numpy as np
import pytest

from repro.frames import TRACE_SCHEMA
from repro.pcap import detect_format, read_trace, write_trace

from .conftest import burst_trace

SUFFIXES = (".pcap", ".pcap.gz", ".snoop", ".snoop.gz")


def assert_traces_identical(a, b):
    assert len(a) == len(b)
    for name, _ in TRACE_SCHEMA:
        assert np.array_equal(a.column(name), b.column(name)), name


@pytest.fixture
def trace():
    return burst_trace(channel=6, t0_us=1_000_000)


def test_all_containers_field_identical(tmp_path, trace):
    # The reference is the *pcap read-back*, not the in-memory trace:
    # the 802.11 encoding itself drops what the air never carries
    # (an ACK has no transmitter address), identically in every
    # container — interchange fidelity means the containers agree.
    reference = None
    for suffix in SUFFIXES:
        path = tmp_path / f"capture{suffix}"
        n = write_trace(trace, path)
        assert n == len(trace)
        decoded = read_trace(path)
        if reference is None:
            reference = decoded
        else:
            assert_traces_identical(decoded, reference)
    assert len(reference) == len(trace)
    assert np.array_equal(reference.column("time_us"), trace.column("time_us"))


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_detect_format_by_content(tmp_path, trace, suffix):
    # Deliberately misleading extension: detection sniffs bytes.
    path = tmp_path / "mystery.bin"
    staged = tmp_path / f"staged{suffix}"
    write_trace(trace, staged)
    path.write_bytes(staged.read_bytes())
    name, compressed = detect_format(path)
    assert name == ("snoop" if "snoop" in suffix else "pcap")
    assert compressed == suffix.endswith(".gz")


def test_snoop_header_layout(tmp_path, trace):
    """The on-disk snoop header is RFC 1761: ident, version 2, and the
    radiotap datalink 127 (a project extension matching the pcap
    linktype)."""
    path = tmp_path / "capture.snoop"
    write_trace(trace, path)
    raw = path.read_bytes()
    ident, version, datalink = struct.unpack(">8sLL", raw[:16])
    assert ident == b"snoop\x00\x00\x00"
    assert version == 2
    assert datalink == 127


def test_snoop_records_are_padded_to_four_bytes(tmp_path, trace):
    path = tmp_path / "capture.snoop"
    write_trace(trace, path)
    raw = path.read_bytes()
    pos = 16
    records = 0
    while pos < len(raw):
        orig, incl, rec_len, drops, _, _ = struct.unpack(
            ">LLLLLL", raw[pos : pos + 24]
        )
        assert rec_len == 24 + incl + (-incl % 4)
        assert rec_len % 4 == 0
        assert drops == 0
        records += 1
        pos += rec_len
    assert pos == len(raw)
    assert records == len(trace)


def test_gzip_output_is_deterministic(tmp_path, trace):
    """mtime is zeroed so byte-identical traces hash identically."""
    a, b = tmp_path / "a.pcap.gz", tmp_path / "b.pcap.gz"
    write_trace(trace, a)
    write_trace(trace, b)
    assert a.read_bytes() == b.read_bytes()


def test_gzip_actually_compresses_roundtrips(tmp_path, trace):
    path = tmp_path / "capture.snoop.gz"
    write_trace(trace, path)
    plain = tmp_path / "capture.snoop"
    write_trace(trace, plain)
    assert gzip.decompress(path.read_bytes()) == plain.read_bytes()


def test_unknown_extension_defaults_to_pcap(tmp_path, trace):
    path = tmp_path / "capture.cap"
    write_trace(trace, path)
    name, compressed = detect_format(path)
    assert (name, compressed) == ("pcap", False)
    assert len(read_trace(path)) == len(trace)

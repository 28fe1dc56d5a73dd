"""Properties of the four capture containers: pcap, snoop, and gzipped.

(a) Writing: for any valid trace, snap length and encoder block size,
    the columnar writer's bytes equal the per-row ``encode_packet``
    oracle; a trace with one bad value is rejected exactly when the
    oracle rejects it, with a ``ValueError`` and no file left behind.
(b) Reading a capture cut anywhere yields its longest clean prefix —
    every whole record before the cut, decompressed for a gzip stream
    — then a typed :class:`TruncatedPcapError` (none only when the cut
    falls on a record boundary of a plain capture).
(c) Reading a capture with 1–4 flipped bytes gives a result or a
    :class:`CaptureError` naming the capture — never a plain
    ``ValueError``, a raw ``zlib.error``, ``struct.error`` or
    ``IndexError``.

Runs are derandomized and bounded, so the suite stays deterministic.
"""

import gzip
import math
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pcap.pcapio as pcapio
from repro.frames import (
    BROADCAST,
    NO_NODE,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    FrameType,
    Trace,
)
from repro.pcap import (
    CaptureError,
    TruncatedPcapError,
    detect_format,
    read_trace,
    read_trace_batches,
    write_trace,
)
from repro.sim import build_scenario

from ..corpus.conftest import corrupt_deflate
from .capture_oracle import (
    CONTAINERS,
    SUFFIXES,
    container_of,
    oracle_bytes,
    scalar_read,
)

SNAPLENS = (0, 1, 33, 47, 48, 250, 65535)


def bounded(max_examples):
    return settings(
        derandomize=True,
        deadline=None,
        max_examples=max_examples,
        # tmp_path is shared by a test's examples; each one rewrites
        # the same file names.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


NODES = st.one_of(st.integers(0, NO_NODE - 1), st.just(BROADCAST))
#: Finite SNRs, half-dB values on round-half-even boundaries, and
#: values past both ends of the signal byte's [-128, 127] clamp
#: (signal = SNR - 96).
SNRS = st.one_of(
    st.floats(-300, 300, width=32),
    st.integers(-40, 230).map(lambda k: k + 0.5),
    st.sampled_from([-32.5, -32.0, -33.0, 222.5, 223.5, 224.0, 1e6, -1e6]),
)


@st.composite
def rows(draw):
    ftype = draw(st.sampled_from(FrameType))
    no_ta = ftype in (FrameType.ACK, FrameType.CTS)
    return {
        "time_us": draw(st.integers(0, pcapio._TS_LIMIT - 1)),
        "ftype": int(ftype),
        "rate_code": draw(st.integers(0, 3)),
        "size": draw(st.integers(0, 2_000)),
        "src": draw(NODES | st.just(NO_NODE) if no_ta else NODES),
        "dst": draw(NODES),
        "retry": draw(st.booleans()),
        "channel": draw(st.integers(1, 14)),
        "snr_db": draw(SNRS),
        "seq": draw(st.integers(0, 0xFFFF)),
    }


def to_trace(values):
    return Trace(
        {
            name: np.array([row[name] for row in values], dtype=dtype)
            for name, dtype in TRACE_SCHEMA
        }
    )


def traces(min_size=0, max_size=24):
    return st.lists(rows(), min_size=min_size, max_size=max_size).map(to_trace)


#: One bad value per column, in the ranges the column's dtype allows.
BAD_VALUES = {
    "time_us": st.sampled_from([-1, -(10**12), pcapio._TS_LIMIT]),
    "ftype": st.integers(len(FrameType), 255),
    "rate_code": st.integers(4, 255),
    "src": st.just(NO_NODE),
    "dst": st.just(NO_NODE),
    "channel": st.sampled_from([0, 15, 200, 255]),
    "snr_db": st.sampled_from([math.nan, math.inf, -math.inf]),
}

#: What the per-row oracle raises for a row it cannot encode.
ORACLE_ERRORS = (ValueError, OverflowError, IndexError, struct.error)


@bounded(60)
@given(
    trace=traces(),
    snaplen=st.sampled_from(SNAPLENS),
    duration_fill=st.booleans(),
    chunk=st.sampled_from([4 << 20, 1, 2_048, 8_192]),
)
def test_writer_matches_per_row_oracle(
    tmp_path, trace, snaplen, duration_fill, chunk
):
    # chunk shrinks the encoder's blocks so records cross block seams.
    with mock.patch.object(pcapio, "_CHUNK_BYTES", chunk):
        for suffix in SUFFIXES:
            path = tmp_path / f"capture{suffix}"
            n = write_trace(
                trace, path, snaplen=snaplen, duration_fill=duration_fill
            )
            assert n == len(trace)
            assert path.read_bytes() == oracle_bytes(
                trace, suffix, snaplen, duration_fill
            )


@bounded(80)
@given(
    trace=traces(min_size=1),
    data=st.data(),
    suffix=st.sampled_from(SUFFIXES),
    snaplen=st.sampled_from(SNAPLENS),
)
def test_writer_rejects_what_the_oracle_rejects(
    tmp_path, trace, data, suffix, snaplen
):
    column = data.draw(st.sampled_from(sorted(BAD_VALUES)))
    row = data.draw(st.integers(0, len(trace) - 1))
    cols = {name: trace.column(name).copy() for name in TRACE_COLUMNS}
    cols[column][row] = data.draw(BAD_VALUES[column])
    trace = Trace(cols)
    try:
        expected = oracle_bytes(trace, suffix, snaplen)
    except ORACLE_ERRORS:
        expected = None
    path = tmp_path / f"capture{suffix}"
    path.unlink(missing_ok=True)
    if expected is None:
        with pytest.raises(ValueError, match=f"column '{column}' row {row}:"):
            write_trace(trace, path, snaplen=snaplen)
        assert not path.exists()
    else:  # e.g. a NO_NODE source on an ACK, which carries none
        write_trace(trace, path, snaplen=snaplen)
        assert path.read_bytes() == expected


@bounded(120)
@given(
    trace=traces(min_size=1, max_size=16),
    suffix=st.sampled_from(SUFFIXES),
    data=st.data(),
)
def test_cut_capture_reads_clean_prefix(tmp_path, trace, suffix, data):
    path = tmp_path / f"capture{suffix}"
    write_trace(trace, path)
    raw = path.read_bytes()
    full = read_trace(path)
    compressed = suffix.endswith(".gz")
    layout = CONTAINERS[container_of(suffix)][2]
    # Shorter cuts are no longer this container (no gzip magic, or a
    # plain file with no file header): ValueError, not truncation.
    first = 2 if compressed else layout.file_header_size
    cut = data.draw(st.integers(first, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    # The longest clean prefix: the whole records in the cut bytes,
    # or in what an incremental decompress yields from them.
    clean = zlib.decompressobj(31).decompress(raw[:cut]) if compressed else raw[:cut]
    plain = suffix.removesuffix(".gz")
    ends = [
        len(oracle_bytes(trace.slice_rows(0, k), plain))
        for k in range(1, len(trace) + 1)
    ]
    longest = sum(1 for end in ends if end <= len(clean))

    # The real slab size, and slabs shorter than a record (the cut
    # lands after slab seams).
    for chunk_bytes in (pcapio._CHUNK_BYTES, 64):
        batches, error = [], None
        with mock.patch.object(pcapio, "_CHUNK_BYTES", chunk_bytes):
            try:
                for batch in read_trace_batches(path, 3):
                    batches.append(batch)
            except TruncatedPcapError as exc:
                error = exc
        n = sum(len(b) for b in batches)
        assert n == longest, chunk_bytes
        for name in TRACE_COLUMNS:
            got = np.concatenate([b.column(name) for b in batches]) if batches else []
            assert np.array_equal(got, full.column(name)[:n]), name
        if error is None:
            # Only a plain capture cut exactly between records reads clean.
            assert not compressed
            assert cut == len(oracle_bytes(trace.slice_rows(0, n), suffix))
        else:
            assert error.frames_read == n
            assert error.compressed == compressed


#: A 1,077-frame fast ``uniform`` capture (2 s, seed 3), gzipped at
#: level 6, cut at 50, 75, 90 and 99 % of its gzipped bytes: the whole
#: records in what an incremental zlib decompress yields from each cut.
CUT_GZIP_FRAMES = {
    ".pcap.gz": (553, 817, 973, 1066),
    ".snoop.gz": (529, 800, 966, 1066),
}


@pytest.mark.parametrize("suffix", sorted(CUT_GZIP_FRAMES))
def test_cut_gzip_capture_reads_its_clean_prefix(tmp_path, suffix):
    built = build_scenario("uniform", fidelity="fast", duration_s=2.0, seed=3)
    trace = Trace.concatenate(list(built.stream()))
    assert len(trace) == 1077
    path = tmp_path / f"capture{suffix}"
    write_trace(trace, path)
    raw = path.read_bytes()
    full = read_trace(path)
    for percent, expected in zip((50, 75, 90, 99), CUT_GZIP_FRAMES[suffix]):
        path.write_bytes(raw[: len(raw) * percent // 100])
        batches = []
        with pytest.raises(TruncatedPcapError, match="corrupt gzip stream") as info:
            for batch in read_trace_batches(path):
                batches.append(batch)
        assert sum(len(b) for b in batches) == expected, percent
        assert info.value.frames_read == expected
        got = Trace.concatenate(batches)
        for name in TRACE_COLUMNS:
            assert np.array_equal(got.column(name), full.column(name)[:expected])


def inflate_until_error(raw):
    """What zlib inflates from gzip bytes fed one at a time, up to the
    byte it rejects."""
    inflate, out = zlib.decompressobj(31), []
    for i in range(len(raw)):
        try:
            out.append(inflate.decompress(raw[i : i + 1]))
        except zlib.error:
            break
    return b"".join(out)


@pytest.mark.parametrize("suffix", [".pcap.gz", ".snoop.gz"])
def test_zlib_corrupt_capture_reads_every_clean_record(tmp_path, suffix):
    """A deflate stream that turns invalid midway yields every whole
    record in the bytes zlib inflates before the damage, then the
    container's error at the end of those bytes."""
    built = build_scenario("uniform", fidelity="fast", duration_s=1.0, seed=3)
    path = tmp_path / f"capture{suffix}"
    write_trace(Trace.concatenate(list(built.stream())), path)
    full = read_trace(path)
    plain = gzip.decompress(path.read_bytes())
    corrupt_deflate(path)
    clean = inflate_until_error(path.read_bytes())
    assert clean == plain[: len(plain) // 2]  # the half written cleanly
    oracle, _ = scalar_read(path, 1 << 30, raw=clean)
    expected = sum(len(b) for b in oracle)
    assert expected > 200

    batches = []
    layout = CONTAINERS[container_of(suffix)][2]
    with pytest.raises(layout.error, match="corrupt gzip stream") as info:
        for batch in read_trace_batches(path):
            batches.append(batch)
    assert "invalid block type" in str(info.value)
    assert sum(len(b) for b in batches) == expected
    assert info.value.frames_read == expected
    assert info.value.byte_offset == len(clean)
    got = Trace.concatenate(batches)
    for name in TRACE_COLUMNS:
        assert np.array_equal(got.column(name), full.column(name)[:expected])


@pytest.fixture(scope="module")
def clean_captures(tmp_path_factory):
    """A small simulated capture in every container."""
    built = build_scenario("uniform", fidelity="fast", duration_s=0.5, seed=3)
    trace = Trace.concatenate(list(built.stream()))
    folder = tmp_path_factory.mktemp("flips")
    out = {}
    for suffix in SUFFIXES:
        path = folder / f"capture{suffix}"
        write_trace(trace, path)
        out[suffix] = path
    return out


@bounded(240)
@given(suffix=st.sampled_from(SUFFIXES), data=st.data())
def test_flipped_bytes_fail_typed(tmp_path, clean_captures, suffix, data):
    raw = bytearray(clean_captures[suffix].read_bytes())
    flips = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        ),
        label="flips",
    )
    for position, mask in flips:
        raw[position] ^= mask
    path = tmp_path / f"mutant{suffix}"
    path.write_bytes(bytes(raw))
    # A clean read, or a CaptureError naming the capture; anything else
    # propagates and fails the test.
    for read in (read_trace, detect_format):
        try:
            read(path)
        except CaptureError as error:
            assert error.path == str(path)

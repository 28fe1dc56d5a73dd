"""Wire-format contract: framing, validation, and disconnect semantics."""

import asyncio
import struct

import numpy as np
import pytest

from repro.frames import TRACE_SCHEMA, Trace
from repro.serve import (
    BATCH_MAGIC,
    MAX_BATCH_BYTES,
    FrameBatchError,
    decode_batch,
    encode_batch,
    encode_eof,
    frame_batch,
    read_batches,
)

from .conftest import assert_traces_equal, make_segments, with_value


def test_roundtrip_preserves_every_column():
    trace = make_segments(1, frames_per=6)[0]
    assert_traces_equal(trace, decode_batch(encode_batch(trace)))


def test_roundtrip_empty_trace():
    decoded = decode_batch(encode_batch(Trace.empty()))
    assert len(decoded) == 0


def test_decoded_dtypes_match_schema():
    decoded = decode_batch(encode_batch(make_segments(1)[0]))
    for name, dtype in TRACE_SCHEMA:
        assert decoded.column(name).dtype == np.dtype(dtype), name


def test_payload_too_short_for_row_count():
    with pytest.raises(FrameBatchError, match="too short"):
        decode_batch(b"\x00\x00")


def test_truncated_payload_rejected():
    payload = encode_batch(make_segments(1)[0])
    with pytest.raises(FrameBatchError, match="carries"):
        decode_batch(payload[:-3])


def test_padded_payload_rejected():
    payload = encode_batch(make_segments(1)[0])
    with pytest.raises(FrameBatchError, match="carries"):
        decode_batch(payload + b"\x00")


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("ftype", 250, "250 is not a frame type"),
        ("rate_code", 200, "200 is not an 802.11b rate code"),
        ("snr_db", np.nan, "nan is not finite"),
        ("time_us", -5, "-5 is negative"),
        ("channel", 0, "0 is not an 802.11b channel"),
        ("channel", 15, "15 is not an 802.11b channel"),
    ],
)
def test_value_no_frame_can_carry_names_row_and_column(column, value, reason):
    bad = with_value(make_segments(1, frames_per=6)[0], column, 3, value)
    with pytest.raises(FrameBatchError) as caught:
        decode_batch(encode_batch(bad))
    assert str(caught.value) == f"batch column {column!r} row 3: {reason}"


def test_first_faulty_row_is_named():
    bad = with_value(make_segments(1, frames_per=6)[0], "channel", 4, 0)
    bad = with_value(bad, "rate_code", 2, 9)
    with pytest.raises(FrameBatchError, match="column 'rate_code' row 2: 9 "):
        decode_batch(encode_batch(bad))


def test_eof_marker_layout():
    assert encode_eof() == BATCH_MAGIC + struct.pack(">I", 0)


def test_frame_batch_layout():
    payload = encode_batch(make_segments(1)[0])
    framed = frame_batch(payload)
    assert framed[:4] == BATCH_MAGIC
    assert struct.unpack(">I", framed[4:8])[0] == len(payload)
    assert framed[8:] == payload


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


async def _drain(reader):
    return [batch async for batch in read_batches(reader)]


def test_read_batches_clean_stream():
    segments = make_segments(3)
    wire = b"".join(frame_batch(encode_batch(s)) for s in segments)
    wire += encode_eof()

    async def main():
        return await _drain(_reader_with(wire))

    received = asyncio.run(main())
    assert len(received) == len(segments)
    for sent, got in zip(segments, received):
        assert_traces_equal(sent, got)


def test_read_batches_bad_magic():
    async def main():
        reader = _reader_with(b"XXXX" + struct.pack(">I", 0))
        with pytest.raises(FrameBatchError, match="magic"):
            await _drain(reader)

    asyncio.run(main())


def test_read_batches_oversized_length_capped():
    async def main():
        reader = _reader_with(
            BATCH_MAGIC + struct.pack(">I", MAX_BATCH_BYTES + 1)
        )
        with pytest.raises(FrameBatchError, match="exceeds cap"):
            await _drain(reader)

    asyncio.run(main())


def test_read_batches_drop_mid_header():
    async def main():
        reader = _reader_with(BATCH_MAGIC[:2])  # half a header, then EOF
        with pytest.raises(ConnectionResetError, match="mid-batch header"):
            await _drain(reader)

    asyncio.run(main())


def test_read_batches_drop_mid_payload():
    payload = encode_batch(make_segments(1)[0])

    async def main():
        reader = _reader_with(frame_batch(payload)[:-5])
        with pytest.raises(ConnectionResetError, match="mid-batch payload"):
            await _drain(reader)

    asyncio.run(main())


def test_read_batches_close_without_eof_marker():
    """A clean TCP close between batches is still a producer crash."""
    wire = frame_batch(encode_batch(make_segments(1)[0]))  # no marker

    async def main():
        reader = _reader_with(wire)
        with pytest.raises(ConnectionResetError, match="without end-of-feed"):
            await _drain(reader)

    asyncio.run(main())

"""Vectorized capture decode parity: identical to the scalar codecs.

:func:`repro.pcap.pcapio.read_trace_batches` finds records by their
radiotap lead word, bulk-decodes them as rows of one byte window and
falls back to the per-record scalar codecs for anything unusual, for
pcap and snoop alike.  The scalar path
(:func:`_decode_record_scalar`) *is* the behavioural reference — this
suite re-decodes every capture through a pure scalar loop and asserts
the vectorized reader produces identical columns, identical batch
boundaries, and identical errors (type, message, byte offset,
clean-frame count) for every corruption mode that drops a record off
the fast path, and for damage that hypothesis draws.  The scan itself
is checked against a record-by-record walk kept here.  Each class runs
on pcap; its ``Snoop`` subclass runs the same cases on snoop.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pcap.pcapio as pcapio
from repro.frames import TRACE_COLUMNS
from repro.pcap import CaptureError, TruncatedPcapError, write_trace
from repro.pcap.pcapio import _lead_chain, _scan_records, read_trace_batches
from repro.sim import build_scenario

from .capture_oracle import CONTAINERS, scalar_read

#: The first four bytes of every packet the writer emits: radiotap
#: version 0, pad 0, length 24.
LEAD = b"\x00\x00\x18\x00"


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """A realistic simulated capture (data/ACK/RTS/CTS/beacons/retries)
    in each plain container, plus its per-record absolute offsets."""
    built = build_scenario(
        "uniform",
        n_stations=4,
        duration_s=2.0,
        seed=7,
        rtscts_fraction=0.5,
    )
    trace = built.run().ground_truth
    folder = tmp_path_factory.mktemp("parity")
    out = {}
    for container, (_, _, layout) in CONTAINERS.items():
        path = folder / f"capture.{container}"
        write_trace(trace, path)
        raw = path.read_bytes()
        head = layout.file_header_size
        rel_offs, consumed = _scan_records(raw[head:], layout)
        assert consumed == len(raw) - head
        out[container] = (path, raw, [head + off for off in rel_offs], layout)
    return out


@pytest.fixture
def capture(request, captures):
    return captures[request.cls.container]


def vectorized(path, batch_frames):
    batches = []
    error = None
    try:
        for batch in read_trace_batches(path, batch_frames):
            batches.append(batch)
    except Exception as exc:  # noqa: BLE001 - parity on any error
        error = exc
    return batches, error


def assert_parity(path, batch_frames=500):
    reference, ref_error = scalar_read(path, batch_frames)
    batches, vec_error = vectorized(path, batch_frames)
    assert (ref_error is None) == (vec_error is None)
    if ref_error is not None:
        assert type(vec_error).__name__ == type(ref_error).__name__
        assert str(vec_error) == str(ref_error)
        if isinstance(ref_error, CaptureError):
            assert vec_error.byte_offset == ref_error.byte_offset
            assert vec_error.frames_read == ref_error.frames_read
    assert [len(b) for b in batches] == [len(b) for b in reference]
    # Clean (non-final) batches honour the requested size exactly.
    for batch in batches[:-1]:
        assert len(batch) == batch_frames
    for name in TRACE_COLUMNS:
        for vec_batch, ref_batch in zip(batches, reference):
            vec_col = vec_batch.column(name)
            ref_col = ref_batch.column(name)
            assert vec_col.dtype == ref_col.dtype, name
            assert np.array_equal(vec_col, ref_col), name
    return batches, vec_error


class TestCleanCapture:
    container = "pcap"

    @pytest.mark.parametrize("batch_frames", [100_000, 1_000, 7])
    def test_columns_byte_identical(self, capture, batch_frames):
        path, _, _, _ = capture
        batches, error = assert_parity(path, batch_frames)
        assert error is None
        assert sum(len(b) for b in batches) > 0

    def test_small_slabs_byte_identical(self, capture, monkeypatch):
        """Slabs shorter than one record: every record crosses a seam."""
        import repro.pcap.pcapio as pcapio_mod

        monkeypatch.setattr(pcapio_mod, "_CHUNK_BYTES", 100)
        path, _, _, _ = capture
        _, error = assert_parity(path, 1_000)
        assert error is None


class TestCleanSnoopCapture(TestCleanCapture):
    container = "snoop"


class TestCorruptionFallsBackIdentically:
    """Each mutation kicks records onto the scalar path (or stops the
    scan); the observable behaviour must not change."""

    container = "pcap"

    def _mutated(self, tmp_path, raw, mutate):
        data = bytearray(raw)
        mutate(data)
        path = tmp_path / f"mutated.{self.container}"
        path.write_bytes(bytes(data))
        return path

    def test_truncated_record_header(self, capture, tmp_path):
        path, raw, offsets, _ = capture
        cut = tmp_path / f"cut.{self.container}"
        cut.write_bytes(raw[: offsets[50] + 5])
        _, error = assert_parity(cut)
        assert isinstance(error, TruncatedPcapError)
        assert "truncated record header" in str(error)

    def test_truncated_record_body(self, capture, tmp_path):
        path, raw, offsets, layout = capture
        cut = tmp_path / f"cut.{self.container}"
        cut.write_bytes(raw[: offsets[50] + layout.size + 4])
        _, error = assert_parity(cut)
        assert isinstance(error, TruncatedPcapError)
        assert "truncated record body" in str(error)

    def test_bad_radiotap_version(self, capture, tmp_path):
        path, raw, offsets, layout = capture

        def mutate(data):
            data[offsets[30] + layout.size] = 9  # radiotap version byte

        _, error = assert_parity(self._mutated(tmp_path, raw, mutate))
        assert isinstance(error, TruncatedPcapError)
        assert "undecodable record" in str(error)

    def test_foreign_mac_prefix(self, capture, tmp_path):
        path, raw, offsets, layout = capture

        def mutate(data):
            data[offsets[40] + layout.size + 24 + 4] = 0x55  # addr1 byte 0

        _, error = assert_parity(self._mutated(tmp_path, raw, mutate))
        assert isinstance(error, TruncatedPcapError)

    def test_non_dot11b_rate_raises_bare_valueerror(self, capture, tmp_path):
        path, raw, offsets, layout = capture

        def mutate(data):
            data[offsets[35] + layout.size + 17] = 12  # 6 Mbps: not 11b

        mutated = self._mutated(tmp_path, raw, mutate)
        _, error = assert_parity(mutated)
        # A typed capture error, but not truncation: an out-of-scope
        # capture, located by its path and record offset.
        assert type(error) is CaptureError
        assert str(error).startswith(f"{mutated}: 6.0 is not an 802.11b rate")
        assert str(error).endswith(f"(byte offset {offsets[35]})")
        assert (error.path, error.byte_offset) == (str(mutated), offsets[35])

    def test_unknown_frame_type(self, capture, tmp_path):
        path, raw, offsets, layout = capture

        def mutate(data):
            data[offsets[45] + layout.size + 24] = (1 << 2) | (0 << 4)  # ctrl/0

        _, error = assert_parity(self._mutated(tmp_path, raw, mutate))
        assert isinstance(error, TruncatedPcapError)


class TestSnoopCorruptionFallsBackIdentically(
    TestCorruptionFallsBackIdentically
):
    container = "snoop"

    @pytest.mark.parametrize(
        "rec_len, incl_len",
        [(0, None), (4, None), (30, None), (2**31, 2**31)],
    )
    def test_invalid_record_length(self, capture, tmp_path, rec_len, incl_len):
        """A stored record length shorter than header + included bytes.
        The scan stops on a zero length and on one reaching past the
        file, and walks past any other; each is caught at its record."""
        path, raw, offsets, _ = capture

        def mutate(data):
            struct.pack_into(">L", data, offsets[60] + 8, rec_len)
            if incl_len is not None:
                struct.pack_into(">L", data, offsets[60] + 4, incl_len)

        _, error = assert_parity(self._mutated(tmp_path, raw, mutate), 7)
        assert "invalid record length" in str(error)
        assert error.byte_offset == offsets[60]
        assert error.frames_read == 60


class TestLeadChain:
    """The scan finds a clean capture's records by their lead word,
    with no walk from record to record, stray lead bytes included."""

    container = "pcap"

    def test_clean_capture_is_one_chain(self, capture):
        _, raw, offsets, layout = capture
        head = layout.file_header_size
        offs, end = _lead_chain(raw[head:], layout)
        assert [head + off for off in offs] == offsets
        assert end == len(raw) - head

    def test_stray_lead_words_inside_records(self, capture, tmp_path):
        _, raw, offsets, layout = capture
        head = layout.file_header_size
        data = bytearray(raw)
        bodies = [
            (off, length)
            for off, length in zip(offsets, np.diff([*offsets, len(raw)]))
            if length > layout.size + 60
        ]
        assert len(bodies) > 20
        for off, length in bodies[::5]:
            # Past the 48-byte radiotap + 802.11 prefix, in the body.
            data[off + length - 8 : off + length - 4] = LEAD
        offs, end = _lead_chain(bytes(data[head:]), layout)
        assert [head + off for off in offs] == offsets
        assert end == len(raw) - head
        path = tmp_path / f"strays.{self.container}"
        path.write_bytes(bytes(data))
        batches, error = assert_parity(path)
        assert error is None
        assert sum(len(b) for b in batches) == len(offsets)


class TestSnoopLeadChain(TestLeadChain):
    container = "snoop"


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@settings(
    derandomize=True,
    deadline=None,
    max_examples=50,
    # tmp_path is shared by a test's examples; each one rewrites the
    # same file name.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_damaged_capture_reads_as_the_scalar_oracle(
    captures, tmp_path, container, data
):
    """Flipped bytes, spliced lead words, rewritten length words and
    cuts, anywhere past the file header: the block reader reads exactly
    what the per-record loop reads, batch for batch and error for
    error, in whole slabs and in slabs of a record or two."""
    _, raw, offsets, layout = captures[container]
    head = layout.file_header_size
    lengths = [4 * i for i, word in enumerate(layout.words) if word.endswith("_len")]
    order = layout.record.format[0]
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="damages")):
        kind = data.draw(
            st.sampled_from(["flip", "lead", "length", "cut"]), label="kind"
        )
        # Near a record start, where the headers the decoder tests are.
        near = data.draw(st.sampled_from(offsets)) + data.draw(
            st.integers(0, layout.size + 48)
        )
        at = min(max(near, head), len(buf))
        if kind == "flip" and at < len(buf):
            buf[at] ^= data.draw(st.integers(1, 255))
        elif kind == "lead" and at + 4 <= len(buf):
            buf[at : at + 4] = LEAD
        elif kind == "length":
            word = data.draw(st.sampled_from(offsets)) + data.draw(
                st.sampled_from(lengths)
            )
            if word + 4 <= len(buf):
                (value,) = struct.unpack_from(order + "L", buf, word)
                value = data.draw(
                    st.one_of(
                        st.integers(0, 300),
                        st.integers(-8, 8).map(lambda d: (value + d) % 2**32),
                        st.integers(0, 2**32 - 1),
                    )
                )
                struct.pack_into(order + "L", buf, word, value)
        elif kind == "cut":
            del buf[at:]
    path = tmp_path / f"damaged.{container}"
    path.write_bytes(bytes(buf))
    batch_frames = data.draw(st.sampled_from([1, 7, 500]))
    chunk = data.draw(st.sampled_from([pcapio._CHUNK_BYTES, 2_048, 300]))
    with mock.patch.object(pcapio, "_CHUNK_BYTES", chunk):
        assert_parity(path, batch_frames)


#: Each container's record walk, spelled out from the pcap format and
#: RFC 1761: (header bytes, length word format, its offset, and the
#: bytes the length leaves out).
WALKS = {
    "pcap": (16, "<L", 8, 16),  # incl_len: the packet bytes
    "snoop": (24, ">L", 8, 0),  # rec_len: the whole record
}


def walk_records(buf, container):
    """Offsets of whole records and the bytes they span, found record
    by record: the reference the scan must equal."""
    size, fmt, at, bias = WALKS[container]
    offs, pos = [], 0
    while pos + size <= len(buf):
        (length,) = struct.unpack_from(fmt, buf, pos + at)
        end = pos + bias + length
        if not pos < end <= len(buf):
            break
        offs.append(pos)
        pos = end
    return offs, pos


@st.composite
def record_soup(draw, container):
    """Bytes that look like records, more or less: headers whose length
    word is right, random or zero, packets with or without the lead
    word at their start and inside, and loose bytes between them."""
    size, fmt, at, bias = WALKS[container]
    pieces = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 6)) == 0:
            pieces.append(draw(st.binary(max_size=12)))
            continue
        packet = bytearray(draw(st.binary(max_size=40)))
        if draw(st.integers(0, 3)):
            packet[:0] = LEAD
        if draw(st.booleans()):
            cut = draw(st.integers(0, len(packet)))
            packet[cut:cut] = LEAD
        header = bytearray(draw(st.binary(min_size=size, max_size=size)))
        length = {
            "right": size + len(packet) - bias,
            "small": draw(st.integers(0, 80)),
            "huge": 2**32 - 1,
        }[draw(st.sampled_from(["right", "right", "right", "small", "huge"]))]
        struct.pack_into(fmt, header, at, length)
        pieces.append(bytes(header + packet))
    buf = b"".join(pieces)
    if draw(st.booleans()):
        buf = buf[: draw(st.integers(0, len(buf)))]
    return buf


@pytest.mark.parametrize("container", sorted(WALKS))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_scan_equals_the_record_walk(container, data):
    buf = data.draw(record_soup(container))
    layout = CONTAINERS[container][2]
    offs, consumed = _scan_records(buf, layout)
    assert (list(offs), consumed) == walk_records(buf, container)

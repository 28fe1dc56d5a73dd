"""Vectorized capture decode parity: identical to the scalar codecs.

:func:`repro.pcap.pcapio.read_trace_batches` bulk-decodes records with
numpy gathers and falls back to the per-record scalar codecs for
anything unusual, for pcap and snoop alike.  The scalar path
(:func:`_decode_record_scalar`) *is* the behavioural reference — this
suite re-decodes every capture through a pure scalar loop and asserts
the vectorized reader produces identical columns, identical batch
boundaries, and identical errors (type, message, byte offset,
clean-frame count) for every corruption mode that drops a record off
the fast path.  Each class runs on pcap; its ``Snoop`` subclass runs
the same cases on snoop.
"""

import struct

import numpy as np
import pytest

from repro.frames import TRACE_COLUMNS
from repro.pcap import CaptureError, TruncatedPcapError, write_trace
from repro.pcap.pcapio import _scan_records, read_trace_batches
from repro.sim import build_scenario

from .capture_oracle import CONTAINERS, scalar_read


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
        if isinstance(ref_error, TruncatedPcapError):
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

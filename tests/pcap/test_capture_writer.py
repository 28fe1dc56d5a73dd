"""The columnar capture writer: byte identity and validation first.

Every library scenario, simulated on both engines, must write the same
bytes in all four containers as the per-row ``encode_packet`` oracle.
A trace the containers cannot hold is rejected with one ``ValueError``
naming its column and first bad row before the file is opened.  The
per-value rejections are properties in ``test_capture_properties.py``;
this file covers the ones the oracle cannot be run on (lengths that
would need a 4 GiB record) and the snap length.
"""

import numpy as np
import pytest

from repro.frames import NO_NODE, TRACE_COLUMNS, Trace
from repro.pcap import write_trace
from repro.sim.library import available_scenarios, build_scenario

from ..conftest import ack, beacon, data
from .capture_oracle import SUFFIXES, oracle_bytes


@pytest.fixture(scope="module")
def scenario_traces():
    traces = {}
    for name in available_scenarios():
        for fidelity in ("default", "fast"):
            built = build_scenario(
                name, fidelity=fidelity, duration_s=0.5, seed=5
            )
            traces[name, fidelity] = Trace.concatenate(list(built.stream()))
    return traces


@pytest.mark.parametrize("snaplen", [250, 65535])
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_library_scenarios_match_oracle(
    scenario_traces, tmp_path, suffix, snaplen
):
    for (name, fidelity), trace in scenario_traces.items():
        assert len(trace) > 0
        path = tmp_path / f"{name}-{fidelity}{suffix}"
        write_trace(trace, path, snaplen=snaplen)
        assert path.read_bytes() == oracle_bytes(trace, suffix, snaplen), (
            name,
            fidelity,
        )


@pytest.fixture
def trace():
    return Trace.from_rows(
        [
            beacon(0, src=1),
            data(1_000, src=10, dst=1, seq=5),
            ack(2_400, src=1, dst=10),
            data(3_000, src=11, dst=1, seq=6),
        ]
    )


def with_value(trace, column, row, value):
    cols = {name: trace.column(name).copy() for name in TRACE_COLUMNS}
    cols[column][row] = value
    return Trace(cols)


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("snaplen", [-5, -1, 2**32, 2**40])
def test_snaplen_out_of_range_rejected(trace, tmp_path, suffix, snaplen):
    path = tmp_path / f"capture{suffix}"
    with pytest.raises(ValueError, match="snaplen"):
        write_trace(trace, path, snaplen=snaplen)
    assert not path.exists()


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_orig_len_overflow_rejected(trace, tmp_path, suffix):
    """radiotap (24) + 802.11 header (24) + body must fit 32 bits."""
    path = tmp_path / f"capture{suffix}"
    huge = with_value(trace, "size", 3, 2**32 - 24)
    with pytest.raises(ValueError, match="column 'size' row 3:"):
        write_trace(huge, path)
    assert not path.exists()


def test_snoop_record_length_overflow_rejected(trace, tmp_path):
    """A packet whose orig_len fits can still overflow snoop's record
    length (header + included bytes + pad) once snaplen lets it in."""
    path = tmp_path / "capture.snoop"
    big = with_value(trace, "size", 1, 2**32 - 48)  # orig_len 2**32 - 24
    with pytest.raises(ValueError, match="column 'size' row 1:"):
        write_trace(big, path, snaplen=2**32 - 1)
    assert not path.exists()


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_first_bad_row_is_named(trace, tmp_path, suffix):
    bad = with_value(trace, "dst", 1, NO_NODE)
    bad = with_value(bad, "channel", 2, 0)
    path = tmp_path / f"capture{suffix}"
    with pytest.raises(ValueError, match=r"column 'dst' row 1: 65534 has no MAC"):
        write_trace(bad, path)
    assert not path.exists()



def test_bad_row_past_the_first_check_block(trace, tmp_path):
    """Rows are validated in blocks; the row number stays absolute."""
    long = Trace(
        {name: np.tile(trace.column(name), 20_000) for name in TRACE_COLUMNS}
    )
    bad = with_value(long, "channel", 70_001, 0)
    path = tmp_path / "capture.pcap"
    with pytest.raises(ValueError, match=r"column 'channel' row 70001: 0 "):
        write_trace(bad, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "edits, named",
    [
        ({"ftype": [(2, 250)]}, "column 'ftype' row 2: 250 is not a frame type"),
        ({"rate_code": [(1, 200)]}, "column 'rate_code' row 1: 200 is not an 802.11b rate code"),
        ({"snr_db": [(3, np.nan)]}, "column 'snr_db' row 3: nan is not finite"),
        ({"time_us": [(0, -5)]}, "column 'time_us' row 0: -5 is negative"),
        ({"channel": [(2, 15)]}, "column 'channel' row 2: 15 is not an 802.11b channel"),
        ({"channel": [(2, 14)]}, None),
        ({"src": [(1, NO_NODE)]}, "column 'src' row 1: 65534 has no MAC address"),
        ({"src": [(2, NO_NODE)]}, None),  # an ACK carries no transmitter
        (
            {"time_us": [(3, 2**32 * 1_000_000)]},
            "column 'time_us' row 3: 4294967296000000 overflows the 32-bit seconds field",
        ),
        (
            {"ftype": [(2, 250)], "dst": [(2, NO_NODE)]},
            "column 'ftype' row 2: 250 is not a frame type",
        ),
        (
            {"channel": [(1, 0)], "dst": [(1, NO_NODE)]},
            "column 'channel' row 1: 0 is not an 802.11b channel",
        ),
        (
            {"snr_db": [(3, np.nan)], "dst": [(1, NO_NODE)]},
            "column 'dst' row 1: 65534 has no MAC address",
        ),
        (
            {"src": [(3, NO_NODE)], "rate_code": [(3, 4)], "time_us": [(3, -1)]},
            "column 'rate_code' row 3: 4 is not an 802.11b rate code",
        ),
    ],
)
def test_schema_and_container_checks_name_one_fault(trace, tmp_path, edits, named):
    """The trace schema's column check runs before the container's own
    limits, and the earliest row wins whichever half names it."""
    for column, cells in edits.items():
        for row, value in cells:
            trace = with_value(trace, column, row, value)
    path = tmp_path / "capture.pcap"
    if named is None:
        write_trace(trace, path)
        return
    with pytest.raises(ValueError) as caught:
        write_trace(trace, path)
    assert str(caught.value) == f"cannot write {path}: {named}"
    assert not path.exists()

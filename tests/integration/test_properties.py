"""Cross-module property-based tests (hypothesis).

These exercise invariants that must hold for *any* trace, not just the
fixtures: busy-time additivity, goodput/throughput ordering, pcap
round-trip identity for analysis-relevant fields, and classifier
totality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PAPER_THRESHOLDS,
    CongestionLevel,
    goodput_per_second,
    throughput_per_second,
    trace_cbt_us,
    utilization_series,
)
from repro.frames import BROADCAST, FrameRow, FrameType, Trace


@st.composite
def frame_rows(draw, max_time_us=5_000_000):
    """A random but physically plausible captured frame."""
    ftype = draw(st.sampled_from(list(FrameType)))
    time_us = draw(st.integers(min_value=0, max_value=max_time_us))
    rate = draw(st.sampled_from([1.0, 2.0, 5.5, 11.0]))
    if ftype in (FrameType.ACK, FrameType.CTS):
        size = 14
    elif ftype == FrameType.RTS:
        size = 20
    else:
        size = draw(st.integers(min_value=28, max_value=2000))
    return FrameRow(
        time_us=time_us,
        ftype=ftype,
        rate_mbps=rate,
        size=size,
        src=draw(st.integers(min_value=0, max_value=200)),
        dst=draw(
            st.one_of(
                st.integers(min_value=0, max_value=200),
                st.just(BROADCAST),
            )
        ),
        retry=draw(st.booleans()),
        channel=draw(st.sampled_from([1, 6, 11])),
        seq=draw(st.integers(min_value=0, max_value=4095)),
        snr_db=draw(st.floats(min_value=-5.0, max_value=40.0)),
    )


traces = st.lists(frame_rows(), min_size=0, max_size=60).map(
    lambda rows: Trace.from_rows(rows).sorted_by_time()
)


@given(traces)
@settings(max_examples=60, deadline=None)
def test_cbt_is_positive_and_additive(trace):
    cbt = trace_cbt_us(trace)
    assert np.all(cbt > 0) if len(trace) else True
    # Splitting the trace anywhere conserves total busy time.
    if len(trace) >= 2:
        k = len(trace) // 2
        head = trace.take(np.arange(k))
        tail = trace.take(np.arange(k, len(trace)))
        assert trace_cbt_us(head).sum() + trace_cbt_us(tail).sum() == pytest.approx(
            cbt.sum()
        )


@given(traces)
@settings(max_examples=60, deadline=None)
def test_goodput_never_exceeds_throughput(trace):
    if len(trace) == 0:
        return
    tput = throughput_per_second(trace)
    gput = goodput_per_second(trace, n_seconds=len(tput))
    assert np.all(gput <= tput + 1e-12)


@given(traces)
@settings(max_examples=60, deadline=None)
def test_utilization_nonnegative_and_classifiable(trace):
    series = utilization_series(trace)
    assert np.all(series.percent >= 0)
    levels = PAPER_THRESHOLDS.classify_array(series.percent)
    assert set(np.unique(levels)).issubset({int(l) for l in CongestionLevel})


@given(traces)
@settings(max_examples=30, deadline=None)
def test_pcap_round_trip_preserves_analysis_fields(trace):
    import tempfile
    from pathlib import Path

    from repro.pcap import read_trace, write_trace

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pcap"
        write_trace(trace, path)
        loaded = read_trace(path)

    assert len(loaded) == len(trace)
    if len(trace):
        assert np.array_equal(loaded.time_us, trace.time_us)
        assert np.array_equal(loaded.ftype, trace.ftype)
        assert np.array_equal(loaded.rate_code, trace.rate_code)
        assert np.array_equal(loaded.size, trace.size)
        assert np.array_equal(loaded.retry, trace.retry)
        assert np.array_equal(loaded.channel, trace.channel)
        # Utilization — the paper's central metric — survives exactly.
        assert np.allclose(
            utilization_series(loaded).percent,
            utilization_series(trace).percent,
        )


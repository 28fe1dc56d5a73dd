"""Property tests for TraceBuffer, the simulator's watermark hold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import TRACE_SCHEMA, Trace, TraceBuffer


def _trace(times, first_id):
    """Rows stamped at ``times``; ``size`` numbers them in append order."""
    n = len(times)
    cols = {name: np.zeros(n, dtype=dtype) for name, dtype in TRACE_SCHEMA}
    cols["time_us"] = np.array(times, dtype=np.int64)
    cols["size"] = np.arange(first_id, first_id + n, dtype=np.uint32)
    cols["channel"] = np.ones(n, dtype=np.uint8)
    return Trace(cols)


@st.composite
def _schedules(draw):
    """Steps of (parts to append, watermark to drain at).

    A part's times are unsorted and never before the last watermark;
    the narrow range makes equal times, and times equal to the next
    watermark, common.  Watermarks never decrease, and may repeat.
    """
    steps, watermark = [], 0
    for _ in range(draw(st.integers(1, 8))):
        times = st.integers(watermark, watermark + 40)
        parts = draw(st.lists(st.lists(times, max_size=12), max_size=3))
        watermark += draw(st.sampled_from((0, 1, 5, 20, 40)))
        steps.append((parts, watermark))
    return steps


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_drains_match_the_concatenated_trace(steps):
    buffer = TraceBuffer()
    appended, drains, watermarks = [], [], []
    held = 0
    for parts, watermark in steps:
        for times in parts:
            trace = _trace(times, sum(map(len, appended)))
            buffer.append(trace)
            appended.append(trace)
            held += len(trace)
        drained = buffer.drain(watermark)
        assert (drained.time_us < watermark).all()
        assert drained.is_time_sorted()
        held -= len(drained)
        assert len(buffer) == held
        drains.append(drained)
        watermarks.append(watermark)
    drains.append(buffer.drain())
    assert len(buffer) == 0
    assert len(buffer.drain(10**9)) == 0

    for drained in drains:
        # Equal times come out in append order.
        ids = drained.size.astype(np.int64)
        order = np.lexsort((ids, drained.time_us))
        assert (order == np.arange(len(drained))).all()
    # A row stamped at a watermark stays, and comes out once, later.
    drain_of = {
        int(row_id): k for k, drained in enumerate(drains) for row_id in drained.size
    }
    assert len(drain_of) == sum(map(len, appended))
    for k, watermark in enumerate(watermarks):
        for drained in drains:
            at = drained.size[drained.time_us == watermark]
            assert all(drain_of[int(row_id)] > k for row_id in at)
    assert Trace.concatenate(drains) == Trace.concatenate(appended)


def test_empty_buffer_drains_nothing():
    buffer = TraceBuffer()
    buffer.append(Trace.empty())
    assert len(buffer) == 0
    assert len(buffer.drain(5)) == 0
    assert len(buffer.drain()) == 0

"""Consumer state is bounded by seconds and stations, not by frames.

A live feed keeps one executor open for hours and every snapshot
deep-copies it, so what each consumer carries across chunks is what a
snapshot costs.  The same 10 s network (fast ``uniform``, seed 3) is
streamed at two offered loads, 2/4 and 16/32 pps uplink/downlink
(about 1.3k and 7.5k frames): same duration, same stations, ~6x the
frames.  No consumer's pickled state may grow by more than 25 %.

Nor may it grow with segment size: one 60 s fast ``hotspot-plenary``
capture (seed 1, ~79k frames) is fed in 1,000-frame segments and in
two halves, and each consumer's state after the halves must stay
within 25 % of its state after the small segments.
"""

from __future__ import annotations

import pickle

import pytest

from repro.pipeline import (
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    PipelineExecutor,
    create_consumers,
    trace_chunks,
)
from repro.sim import build_scenario

MAX_GROWTH = 1.25


def _state_after(segments, roster):
    consumers = create_consumers(DEFAULT_CONSUMERS + ROSTER_CONSUMERS)
    executor = PipelineExecutor(consumers, roster=roster)
    for segment in segments:
        executor.feed(segment)
    return executor.frames_fed, {c.name: len(pickle.dumps(c)) for c in consumers}


def _fed_state(uplink_pps: float, downlink_pps: float):
    built = build_scenario(
        "uniform",
        fidelity="fast",
        duration_s=10.0,
        seed=3,
        uplink_pps=uplink_pps,
        downlink_pps=downlink_pps,
    )
    return _state_after(built.stream(), built.roster)


@pytest.fixture(scope="module")
def two_loads():
    return _fed_state(2.0, 4.0), _fed_state(16.0, 32.0)


def test_the_loads_differ_in_frames(two_loads):
    (low_frames, _), (high_frames, _) = two_loads
    assert high_frames > 5 * low_frames


@pytest.mark.parametrize("name", DEFAULT_CONSUMERS + ROSTER_CONSUMERS)
def test_consumer_state_does_not_grow_with_frames(two_loads, name):
    (_, low), (_, high) = two_loads
    assert high[name] <= MAX_GROWTH * low[name], (
        f"{name}: {low[name]} -> {high[name]} bytes "
        f"({high[name] / low[name]:.2f}x)"
    )


@pytest.fixture(scope="module")
def two_segment_sizes():
    result = build_scenario(
        "hotspot-plenary", fidelity="fast", duration_s=60.0, seed=1
    ).run()
    trace, half = result.trace, len(result.trace) // 2
    halves = [trace.slice_rows(0, half), trace.slice_rows(half, len(trace))]
    return (
        _state_after(trace_chunks(trace, 1000), result.roster),
        _state_after(halves, result.roster),
    )


@pytest.mark.parametrize("name", DEFAULT_CONSUMERS + ROSTER_CONSUMERS)
def test_consumer_state_does_not_grow_with_segment_size(two_segment_sizes, name):
    (_, small), (_, large) = two_segment_sizes
    assert large[name] <= MAX_GROWTH * small[name], (
        f"{name}: {small[name]} -> {large[name]} bytes "
        f"({large[name] / small[name]:.2f}x)"
    )

"""Live sniffer streaming: field-identical to the buffered path.

The contract of the sim→pipeline boundary: a scenario streamed live
through :func:`repro.sim.stream_scenario` (bounded memory, no
full-trace materialisation) produces a :class:`CongestionReport`
field-identical to the buffered ``run_scenario`` + ``analyze_trace``
path, also when its one-second segments are re-sliced small.
"""

import pytest

from repro.core import analyze_trace
from repro.frames import Trace
from repro.pipeline import run_all, trace_chunks
from repro.sim import build, stream_scenario

from .test_equivalence import assert_reports_equal


def resliced(segments, chunk_frames):
    """A live stream cut into ``chunk_frames``-row segments."""
    for segment in segments:
        yield from trace_chunks(segment, chunk_frames)


@pytest.mark.parametrize("chunk_frames", [37, 1024])
def test_streamed_scenario_report_matches_buffered(
    small_scenario, chunk_frames
):
    """Same config, one buffered run vs one live-streamed run: every
    report field identical."""
    config = small_scenario.config
    buffered = analyze_trace(
        small_scenario.trace, small_scenario.roster, name="live"
    )
    streamed = run_all(
        resliced(stream_scenario(config), chunk_frames),
        roster=small_scenario.roster,
        name="live",
    )
    assert_reports_equal(buffered, streamed)
    assert buffered.headline() == streamed.headline()


def test_streamed_run_holds_no_full_trace(small_scenario):
    """Bounded memory, verified structurally: ground truth stays empty
    and sniffer buffers never approach the full capture."""
    config = small_scenario.config
    built = build(config)
    peak_buffered = 0
    total = 0
    for chunk in built.stream():
        total += len(chunk)
        peak_buffered = max(
            peak_buffered, sum(s.frames_buffered for s in built.sniffers)
        )
    assert total == len(small_scenario.trace)
    assert len(built.medium.ground_truth) == 0
    assert peak_buffered < total  # never the whole run in memory
    assert sum(s.frames_buffered for s in built.sniffers) == 0


def test_multi_channel_merge_order_preserved():
    """Multiple sniffers: the streamed merge reproduces the stable
    concatenate-then-sort order of the buffered path."""
    from repro.sim import ConstantRate, ScenarioConfig, run_scenario

    config = ScenarioConfig(
        n_stations=6,
        n_aps=3,
        channels=(1, 6, 11),
        duration_s=4.0,
        seed=17,
        uplink=ConstantRate(10.0),
        downlink=ConstantRate(12.0),
    )
    buffered = run_scenario(config)
    streamed = Trace.concatenate(
        list(resliced(stream_scenario(config), 128))
    )
    assert streamed == buffered.trace.sorted_by_time()
    report_buffered = analyze_trace(buffered.trace, buffered.roster, name="mc")
    report_streamed = run_all(
        resliced(stream_scenario(config), 128),
        roster=buffered.roster,
        name="mc",
    )
    assert_reports_equal(report_buffered, report_streamed)

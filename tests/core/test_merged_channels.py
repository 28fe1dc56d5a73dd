"""Pair rules on a merged multi-channel capture (pinned, not yet fixed).

The paper's DATA-ACK rule (§6.4) and its three atomicity rules (§4.4)
read one sniffer's log, which is one channel.  On a capture merged
across channels, ``match_acks``, the executor's chunk matching and
``atomicity_misses`` judge each frame against the next frame of *any*
channel, so a frame from another channel that lands between a DATA
and its ACK breaks the pair.  The fix needs per-channel adjacency in
the core and a per-channel carry in the pipeline, and it moves every
multi-channel report and the Figure 4c check, so these tests are
strict xfails until it lands (see ROADMAP).
"""

import pytest

from repro.core import estimate_unrecorded, match_acks
from repro.frames import Trace
from repro.pipeline import run_all, trace_chunks

from ..conftest import ack, beacon, data

pytestmark = pytest.mark.xfail(
    strict=True,
    reason="pair rules compare frames of different channels on a merged "
    "capture (ROADMAP: per-channel pair rules)",
)


def _merged_trace() -> Trace:
    """DATA 10->1 and its ACK on channel 1, a channel-6 beacon between."""
    return Trace.from_rows(
        [
            data(0, 10, 1, size=1400, channel=1),
            beacon(300, 2, channel=6),
            ack(1_500, 1, 10, channel=1),
        ]
    )


def test_match_acks_pairs_within_a_channel():
    assert match_acks(_merged_trace()).acked[0]


def test_estimate_unrecorded_infers_nothing():
    assert estimate_unrecorded(_merged_trace()).total_missing == 0


def test_run_all_acks_the_data_and_infers_nothing():
    report = run_all(trace_chunks(_merged_trace(), 1))
    assert report.delays["XL-11"].count.sum() == 1
    assert report.unrecorded.total_missing == 0

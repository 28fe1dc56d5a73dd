"""Byte-identical determinism against committed pre-optimization goldens.

``golden_traces.json`` holds SHA-256 digests of the capture and
ground-truth traces produced by the simulator *before* the hot-path
overhaul (audibility-culled medium, cached delivery plans, columnar
sniffer).  These tests prove the optimized
simulator emits byte-for-byte the same frames for every library
scenario and for ad-hoc configs that exercise mid-run topology mutation
(roaming and channel management re-target MAC channels, TPC varies
per-destination transmit power, fragmentation re-enters the data path
outside contention).
"""

from __future__ import annotations

import pytest

from repro.frames import Trace

from .golden_lib import (
    GOLDEN_CASES,
    case_fingerprint,
    first_difference,
    identity_summary,
    load_fixture,
    trace_digest,
)

FIXTURE = load_fixture()


def test_fixture_covers_every_case():
    assert set(FIXTURE) == set(GOLDEN_CASES)


@pytest.mark.parametrize(
    "new, path",
    [
        ({"a": {"b": [1, 2]}, "c": 3}, None),
        ({"a": {"b": [1, 5]}, "c": 4}, "/a/b/1"),
        ({"a": {"b": [1, 2, 3]}, "c": 3}, "/a/b/2"),
        ({"a": {"b": [1, 2]}}, "/c"),
        ({"a": {"b": [1, 2]}, "c": 3.0}, "/c"),
    ],
)
def test_identity_diff_names_the_first_differing_key_path(new, path):
    """``golden_lib --identity --against REV`` prints this path."""
    assert first_difference({"a": {"b": [1, 2]}, "c": 3}, new) == path


def test_identity_summary_counts_each_engine_apart():
    """``golden_lib --identity --against REV`` prints this summary: a
    line per engine, then cell keys and scenario parameters, each
    ``identical`` or its count of differing paths and the first."""
    def dump(fast_sha, fast_key, params):
        return {
            "uniform": {
                "parameters": params,
                "cases": {
                    "default/3.0s/seed=1": {
                        "cell_key": "k0",
                        "run": {"trace_sha256": "a", "offered_packets": 9},
                    },
                    "fast/3.0s/seed=1": {
                        "cell_key": fast_key,
                        "run": {"trace_sha256": fast_sha, "offered_packets": 9},
                        "stream": {"segment_lengths": [fast_sha]},
                    },
                },
            }
        }

    old = dump("b", "k1", ["n_stations"])
    assert identity_summary(old, dump("b", "k1", ["n_stations"])) is None
    assert identity_summary(old, dump("c", "k2", ["n_stations", "seed"])) == (
        "default: identical\n"
        "fast: 2 differing paths, first "
        "/uniform/cases/fast/3.0s/seed=1/run/trace_sha256\n"
        "cell keys: 1 differing path, first "
        "/uniform/cases/fast/3.0s/seed=1/cell_key\n"
        "scenario parameters: 1 differing path, first /uniform/parameters/1"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_trace_bytes_match_pre_optimization_golden(name):
    expected = FIXTURE[name]
    actual = case_fingerprint(name)
    assert actual["frames_transmitted"] == expected["frames_transmitted"]
    assert actual["frames_captured"] == expected["frames_captured"]
    assert actual["trace_sha256"] == expected["trace_sha256"]
    assert actual["ground_truth_sha256"] == expected["ground_truth_sha256"]


@pytest.mark.parametrize("name", ["day", "hotspot-plenary"])
def test_streamed_trace_matches_golden(name):
    """The live-streamed capture concatenates to the same golden bytes.

    ``stream()`` drains sniffers incrementally and never materialises
    ground truth, so this covers the columnar drain/compact path on top
    of the buffered ``run()`` covered above.
    """
    chunks = list(GOLDEN_CASES[name]().stream())
    merged = Trace.concatenate(chunks)
    assert trace_digest(merged) == FIXTURE[name]["trace_sha256"]

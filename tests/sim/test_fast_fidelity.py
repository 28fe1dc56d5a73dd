"""Statistical-equivalence contract for the ``fidelity="fast"`` engine.

The fast engine (:mod:`repro.sim.fastpath`) is *not* pinned by the
golden-trace digests — it is a columnar batch-stepped model of the same
network, so its per-frame stream differs from the discrete-event
engine's.  What it must preserve are the headline congestion metrics
the paper reasons about: delivery ratio and channel busy-time fraction.

This suite runs both engines over the same grid (``uniform`` at
n ∈ {3, 10}, three seeds, 8 simulated seconds, SNR rate adaptation)
and asserts:

* every cell's delivery-ratio gap is within the documented model
  tolerance (``DELIVERY_CELL_TOL``),
* the bootstrap 95% CI of the mean delivery-ratio gap lies inside
  ``±DELIVERY_MEAN_TOL``,
* the mean busy-time gap per grid size is within ``CBT_MEAN_TOL``.

Everything is seeded, so the suite is deterministic: a calibration
regression in the fast engine fails it reproducibly.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import FrameType, Trace
from repro.frames.dot11 import RATE_CODES
from repro.sim import (
    BEACON_INTERVAL_US,
    FIDELITY_MODES,
    SCENARIO_LIBRARY,
    FastBuiltScenario,
    build_scenario,
)

SEEDS = (7, 21, 42)
GRID_SIZES = (3, 10)
DURATION_S = 8.0

#: Per-cell absolute delivery-ratio tolerance (documented model gap —
#: the batch-stepped engine resolves contention statistically, not
#: per-slot, so individual seeds can diverge by a few percent).
DELIVERY_CELL_TOL = 0.12

#: The bootstrap CI of the mean gap must sit inside this band.
DELIVERY_MEAN_TOL = 0.10

#: Mean channel busy-time (offered airtime / duration) gap per grid size.
CBT_MEAN_TOL = 0.20

#: A flow's DATA arrivals over a run are Poisson with mean Λ, its
#: schedule's integral over its activity window: the count must lie
#: within ARRIVAL_SIGMAS standard deviations (√Λ) of Λ, plus
#: ARRIVAL_SLACK packets for flows whose mean is a few packets.
ARRIVAL_SIGMAS = 5.0
ARRIVAL_SLACK = 2.0

_CODE_TO_RATE = {code: rate for rate, code in RATE_CODES.items()}


def _cbt_fraction(trace, duration_s: float) -> float:
    """Offered-airtime fraction of the ground truth (the CBT proxy).

    192 us of preamble+PLCP per frame plus payload serialization at the
    frame's rate — the same accounting both engines use for airtime.
    """
    rate_code = trace.column("rate_code")
    size = trace.column("size").astype(np.float64)
    rate = np.zeros(len(rate_code), dtype=np.float64)
    for code, mbps in _CODE_TO_RATE.items():
        rate[rate_code == code] = mbps
    air_us = 192.0 + size * 8.0 / rate
    return float(air_us.sum() / (duration_s * 1e6))


def _run_cell(n_stations: int, seed: int, fidelity: str):
    built = build_scenario(
        "uniform",
        n_stations=n_stations,
        duration_s=DURATION_S,
        seed=seed,
        rate_algorithm="snr",
        fidelity=fidelity,
    )
    result = built.run()
    return built.delivery_ratio, _cbt_fraction(result.ground_truth, DURATION_S)


@pytest.fixture(scope="module")
def grid_metrics():
    """(delivery, cbt) per (n, seed) for both engines, computed once."""
    out = {}
    for fidelity in ("default", "fast"):
        for n in GRID_SIZES:
            for seed in SEEDS:
                out[(fidelity, n, seed)] = _run_cell(n, seed, fidelity)
    return out


class TestStatisticalEquivalence:
    def test_delivery_ratio_per_cell(self, grid_metrics):
        for n in GRID_SIZES:
            for seed in SEEDS:
                default, _ = grid_metrics[("default", n, seed)]
                fast, _ = grid_metrics[("fast", n, seed)]
                assert abs(fast - default) <= DELIVERY_CELL_TOL, (
                    f"n={n} seed={seed}: fast {fast:.3f} vs "
                    f"default {default:.3f}"
                )

    def test_delivery_ratio_bootstrap_ci(self, grid_metrics):
        gaps = np.array(
            [
                grid_metrics[("fast", n, seed)][0]
                - grid_metrics[("default", n, seed)][0]
                for n in GRID_SIZES
                for seed in SEEDS
            ]
        )
        rng = np.random.default_rng(0)
        resamples = rng.integers(0, len(gaps), size=(2000, len(gaps)))
        means = gaps[resamples].mean(axis=1)
        lo, hi = np.percentile(means, [2.5, 97.5])
        assert -DELIVERY_MEAN_TOL <= lo and hi <= DELIVERY_MEAN_TOL, (
            f"bootstrap CI of mean delivery gap [{lo:.3f}, {hi:.3f}] "
            f"outside ±{DELIVERY_MEAN_TOL}"
        )

    def test_busy_time_mean_per_grid_size(self, grid_metrics):
        for n in GRID_SIZES:
            default = np.mean(
                [grid_metrics[("default", n, s)][1] for s in SEEDS]
            )
            fast = np.mean([grid_metrics[("fast", n, s)][1] for s in SEEDS])
            assert abs(fast - default) <= CBT_MEAN_TOL, (
                f"n={n}: mean CBT fast {fast:.3f} vs default {default:.3f}"
            )

    def test_congestion_trend_preserved(self, grid_metrics):
        """More stations → lower delivery, busier channel (both engines)."""
        for fidelity in ("default", "fast"):
            small = np.mean(
                [grid_metrics[(fidelity, 3, s)][0] for s in SEEDS]
            )
            large = np.mean(
                [grid_metrics[(fidelity, 10, s)][0] for s in SEEDS]
            )
            assert large < small
            small_cbt = np.mean(
                [grid_metrics[(fidelity, 3, s)][1] for s in SEEDS]
            )
            large_cbt = np.mean(
                [grid_metrics[(fidelity, 10, s)][1] for s in SEEDS]
            )
            assert large_cbt > small_cbt


def _drawn_jobs(built):
    """Run ``built``; return each window step's ``(t0, t1, jobs)``, the
    fresh jobs its arrival draw handed the step (backlog excluded)."""
    drawn = []
    generate = built._generate_arrivals

    def recording(*args):
        jobs = generate(*args)
        drawn.append((args[-2], args[-1], jobs))
        return jobs

    built._generate_arrivals = recording
    built.run()
    return drawn


def _schedule_integral(schedule, start_us, end_us, step_us=10_000):
    """Packets ``schedule`` offers over [start_us, end_us), by the
    midpoint rule on a 10 ms grid."""
    edges = np.arange(start_us, end_us, step_us)
    widths = np.minimum(edges + step_us, end_us) - edges
    rates = [
        max(schedule.rate_at(int(e + w // 2)), 0.0)
        for e, w in zip(edges.tolist(), widths.tolist())
    ]
    return float(np.dot(rates, widths)) / 1e6


class TestArrivalLaw:
    """The jobs each window step draws: per-flow Poisson DATA inside the
    window and the flow's activity window, one association MGMT per
    station at its activity start, and a beacon per AP every 100 ms at
    its offset."""

    @pytest.mark.parametrize("scenario", ["uniform", "ramp", "day"])
    def test_window_arrivals_follow_the_law(self, scenario):
        built = build_scenario(scenario, duration_s=6.0, seed=3, fidelity="fast")
        network = built._built
        duration_us = built.config.duration_us
        # (src, dst) -> the flow's activity window and rate schedule.
        flows = {}
        for j, station in enumerate(network.stations):
            up, down = network.sources[2 * j], network.sources[2 * j + 1]
            end = duration_us if up.end_us is None else min(up.end_us, duration_us)
            flows[(station.node_id, station.ap_id)] = (up.start_us, end, up.schedule)
            flows[(station.ap_id, station.node_id)] = (up.start_us, end, down.schedule)

        data_count = Counter()
        assoc = defaultdict(list)
        beacons = defaultdict(list)
        for t0, t1, (jflow, jarr, _jsize, jftype) in _drawn_jobs(built):
            src = built.flow_src[jflow].tolist()
            dst = built.flow_dst[jflow].tolist()
            for s, d, t, kind in zip(src, dst, jarr.tolist(), jftype.tolist()):
                if kind == FrameType.DATA:
                    start, end, _ = flows[(s, d)]
                    assert t0 <= t < t1 and start <= t < end, (s, d, t)
                    data_count[(s, d)] += 1
                elif kind == FrameType.MGMT:
                    assoc[s].append(t)
                else:
                    assert kind == FrameType.BEACON
                    beacons[s].append(t)

        assert assoc == {
            station.node_id: [flows[(station.node_id, station.ap_id)][0]]
            for station in network.stations
            if flows[(station.node_id, station.ap_id)][0]
            < flows[(station.node_id, station.ap_id)][1]
        }
        assert sorted(beacons) == sorted(ap.node_id for ap in network.aps)
        for times in beacons.values():
            offset = min(times)
            assert 0 <= offset < BEACON_INTERVAL_US
            assert sorted(times) == list(
                range(offset, duration_us, BEACON_INTERVAL_US)
            )
        assert sum(data_count.values()) == built.offered_packets
        for (s, d), (start, end, schedule) in flows.items():
            mean = _schedule_integral(schedule, start, end)
            bound = ARRIVAL_SIGMAS * mean**0.5 + ARRIVAL_SLACK
            assert abs(data_count[(s, d)] - mean) <= bound, (s, d, mean)


@pytest.fixture(scope="module")
def small_fast():
    return build_scenario(
        "uniform", n_stations=3, duration_s=1.0, seed=7, fidelity="fast"
    )


class TestSourceRanks:
    """Sequence numbers and the backlog's drop-tail cap rank each job
    within its source; the per-source loops they replace are the
    reference."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), limit=st.integers(1, 12))
    def test_ranks_match_the_per_source_loops(self, small_fast, data, limit):
        n_ids = len(small_fast._seq_counter)
        src = data.draw(st.lists(st.integers(0, n_ids - 1), max_size=200))
        counter = data.draw(
            st.lists(st.integers(0, 4095), min_size=n_ids, max_size=n_ids)
        )
        expected_seqs, expected_counter = [], list(counter)
        kept, expected_keep = Counter(), []
        for s in src:
            expected_counter[s] = (expected_counter[s] + 1) % 4096
            expected_seqs.append(expected_counter[s])
            kept[s] += 1
            expected_keep.append(kept[s] <= limit)

        src = np.array(src, dtype=np.int64)
        small_fast._seq_counter = np.array(counter, dtype=np.int64)
        assert small_fast._assign_seqs(src).tolist() == expected_seqs
        assert small_fast._seq_counter.tolist() == expected_counter
        small_fast._queue_limit, small_fast._queue_overflows = limit, 0
        assert small_fast._cap_backlog(src).tolist() == expected_keep
        assert small_fast._queue_overflows == expected_keep.count(False)


class TestFastEngineSurface:
    def test_fidelity_modes_and_build_routing(self):
        assert set(FIDELITY_MODES) == {"default", "fast"}
        fast = build_scenario(
            "uniform", n_stations=3, duration_s=1.0, seed=7, fidelity="fast"
        )
        assert isinstance(fast, FastBuiltScenario)
        assert fast.fidelity == "fast"
        default = build_scenario(
            "uniform", n_stations=3, duration_s=1.0, seed=7
        )
        assert not isinstance(default, FastBuiltScenario)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            build_scenario("uniform", n_stations=3, fidelity="fastest")

    def test_fast_run_is_deterministic(self):
        def run():
            built = build_scenario(
                "uniform",
                n_stations=4,
                duration_s=2.0,
                seed=11,
                fidelity="fast",
            )
            result = built.run()
            return built.delivery_ratio, built.frames_transmitted, result

        d1, f1, r1 = run()
        d2, f2, r2 = run()
        assert d1 == d2
        assert f1 == f2
        assert len(r1.trace) == len(r2.trace)
        assert np.array_equal(
            r1.trace.column("time_us"), r2.trace.column("time_us")
        )

    @pytest.mark.parametrize("scenario", ["uniform", "co-channel", "day"])
    def test_stream_matches_buffered_run(self, scenario):
        """stream() steps the windows run() steps: the same network, so
        the same capture in every column (day: three channels)."""

        def build():
            return build_scenario(
                scenario, duration_s=4.0, seed=3, fidelity="fast"
            )

        buffered = build().run().trace
        chunks = list(build().stream())
        assert len(chunks) == 4  # one segment per one-second drain window
        assert Trace.concatenate(chunks) == buffered

    @pytest.mark.parametrize("duration_s, seed", [(3.0, 1), (2.5, 5)])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_LIBRARY))
    def test_no_frame_after_the_run_ends(self, scenario, duration_s, seed):
        """A job that starts just before the end stamps its retries and
        ACKs after it; the run keeps none of them, and counts what it
        keeps."""
        built = build_scenario(
            scenario, duration_s=duration_s, seed=seed, fidelity="fast"
        )
        result = built.run()
        end_us = built.config.duration_us
        assert (result.trace.time_us < end_us).all()
        assert (result.ground_truth.time_us < end_us).all()
        assert built.frames_transmitted == len(result.ground_truth)
        assert built.frames_captured == len(result.trace)

    def test_single_consumption_enforced(self):
        built = build_scenario(
            "uniform", n_stations=3, duration_s=1.0, seed=7, fidelity="fast"
        )
        built.run()
        with pytest.raises(RuntimeError, match="already run"):
            built.run()

    def test_perf_counters_report_batch_stepping(self):
        built = build_scenario(
            "uniform", n_stations=3, duration_s=2.0, seed=7, fidelity="fast"
        )
        built.run()
        counters = built.perf_counters
        assert counters["slot_epochs"] > 0
        # The event loop is bypassed entirely: work is batch-stepped,
        # not discrete events.
        assert built.sim.events_processed == 0

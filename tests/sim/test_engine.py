"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, build_scenario
from repro.sim.library import available_scenarios


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(30, lambda: fired.append(30))
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(20, lambda: fired.append(20))
        sim.run_until(100)
        assert fired == [10, 20, 30]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5, lambda: fired.append("a"))
        sim.schedule_at(5, lambda: fired.append("b"))
        sim.run_until(10)
        assert fired == ["a", "b"]

    def test_schedule_in_relative(self):
        sim = Simulator()
        fired = []
        sim.schedule_in(5, lambda: sim.schedule_in(7, lambda: fired.append(sim.now_us)))
        sim.run_until(100)
        assert fired == [12]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.run_until(10)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(10, lambda: fired.append(1))
        handle.cancel()
        sim.run_until(100)
        assert fired == []
        assert not handle.pending

    def test_cancel_twice_is_safe(self):
        handle = Simulator().schedule_at(10, lambda: None)
        handle.cancel()
        handle.cancel()


class TestRunSemantics:
    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(500)
        assert sim.now_us == 500

    def test_events_after_horizon_not_executed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(100, lambda: fired.append(1))
        sim.run_until(99)
        assert fired == []
        sim.run_until(100)
        assert fired == [1]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now_us)
            if sim.now_us < 50:
                sim.schedule_in(10, chain)

        sim.schedule_at(0, chain)
        sim.run_until(100)
        assert fired == [0, 10, 20, 30, 40, 50]

    def test_run_all_safety_limit(self):
        sim = Simulator()

        def forever():
            sim.schedule_in(1, forever)

        sim.schedule_at(0, forever)
        with pytest.raises(RuntimeError, match="event limit"):
            sim.run_all(safety_limit=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(t, lambda: None)
        sim.run_until(10)
        assert sim.events_processed == 5

    def test_run_all_drains_everything(self):
        sim = Simulator()
        fired = []
        for t in (5, 1, 9):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_all()
        assert fired == [1, 5, 9]
        assert sim.now_us == 9

    def test_tombstones_do_not_count_against_safety_limit(self):
        """Cancelled events are discarded for free in both loop modes."""
        sim = Simulator()
        fired = []
        for t in range(10):
            handle = sim.schedule_at(t, lambda t=t: fired.append(t))
            if t % 2:
                handle.cancel()
        sim.run_all(safety_limit=5)  # 5 live events exactly: must not raise
        assert fired == [0, 2, 4, 6, 8]

    def test_run_until_then_run_all_continue_seamlessly(self):
        """The shared drain helper keeps the two modes interleavable."""
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_until(15)
        assert fired == [10]
        sim.run_all()
        assert fired == [10, 20, 30]


class TestTombstoneCompaction:
    """Cancelled entries stay in the heap until popped, then drop."""

    def test_events_cancelled_counter(self):
        sim = Simulator()
        handles = [sim.schedule_at(t, lambda: None) for t in range(10)]
        for handle in handles[:4]:
            handle.cancel()
            handle.cancel()  # idempotent: must not double-count
        assert sim.events_cancelled == 4
        assert sim.events_pending == 6
        sim.run_all()
        assert sim.events_processed == 6
        assert sim.events_cancelled == 4

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        live = []
        for t in range(300):
            handle = sim.schedule_at(t, lambda t=t: fired.append(t))
            if t % 3 == 0:
                live.append(t)
            else:
                handle.cancel()
        sim.run_all()
        assert fired == live

    def test_cancel_all_then_run_small_heap(self):
        """Degenerate heap: every entry is a tombstone.  run_all must
        drain cleanly — no IndexError, no stall, no spurious
        executions."""
        sim = Simulator()
        handles = [sim.schedule_at(t, lambda: None) for t in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.events_pending == 0
        sim.run_all()
        assert sim.events_processed == 0
        assert sim.events_cancelled == 10
        assert sim.events_pending == 0
        assert sim._heap == []
        assert sim._tombstones == 0

    def test_cancel_all_then_run_compacted_heap(self):
        """Cancel-all over a larger heap: every tombstone is dropped as
        it is popped, and the tombstone accounting stays exact."""
        sim = Simulator()
        handles = [sim.schedule_at(t, lambda: None) for t in range(500)]
        for handle in handles:
            handle.cancel()
        assert sim.events_cancelled == 500
        assert sim.events_pending == 0
        sim.run_all()
        assert sim.events_processed == 0
        assert sim.events_cancelled == 500
        assert sim.events_pending == 0
        assert sim._tombstones == 0

    def test_cancel_all_then_schedule_and_run(self):
        """The engine stays fully usable after a cancel-all sweep."""
        sim = Simulator()
        for handle in [sim.schedule_at(t, lambda: None) for t in range(200)]:
            handle.cancel()
        fired = []
        sim.schedule_at(10_000, lambda: fired.append(sim.now_us))
        sim.run_until(20_000)
        assert fired == [10_000]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 200
        assert sim.now_us == 20_000

    def test_run_until_over_all_tombstones_advances_clock(self):
        sim = Simulator()
        for handle in [sim.schedule_at(500, lambda: None) for _ in range(80)]:
            handle.cancel()
        sim.run_until(1_000)
        assert sim.now_us == 1_000
        assert sim.events_processed == 0
        assert sim.events_pending == 0

    def test_cancel_heavy_rtscts_run_keeps_heap_lean(self):
        """An all-RTS/CTS network cancels a timeout per delivered frame;
        the tombstones left in the heap stay few and the counters
        expose the churn."""
        from repro.sim import ScenarioConfig, build
        from repro.sim.traffic import ConstantRate

        built = build(
            ScenarioConfig(
                n_stations=6,
                duration_s=3.0,
                seed=17,
                rtscts_fraction=1.0,
                uplink=ConstantRate(30.0),
                downlink=ConstantRate(10.0),
            )
        )
        result = built.run()
        sim = result.sim
        assert result.medium.frames_transmitted > 500
        assert sim.events_cancelled > 500          # handshake timeout churn
        assert sim.events_processed > 0
        # Post-run invariant: tombstones never dominate what is left.
        assert sim._tombstones * 2 <= len(sim._heap) + 64


_HEAP_BOUND_CASES = [
    pytest.param(name, {}, id=name) for name in available_scenarios()
] + [
    pytest.param(
        "hidden-terminal", {"rtscts_fraction": 1.0}, id="hidden-terminal-rtscts"
    )
]


class TestHeapBound:
    """Nothing compacts the heap, so what it holds must be bounded by
    the network — one arrival per source plus a few timers per node —
    and never grow with frames or simulated seconds."""

    @pytest.mark.parametrize("name, params", _HEAP_BOUND_CASES)
    def test_heap_bounded_by_network(self, name, params):
        built = build_scenario(name, duration_s=5.0, seed=5, **params)
        bound = len(built.sources) + 4 * (len(built.stations) + len(built.aps))
        windows = 0
        for _ in built.stream():
            windows += 1
            assert len(built.sim._heap) <= bound
        assert windows == 5
        assert built.sim.events_cancelled > 0

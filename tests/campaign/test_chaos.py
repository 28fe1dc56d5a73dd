"""Fault-injection tests: every failure mode ends in a complete result.

The dispatch contract under chaos — SIGKILLed workers (simulated as the
socket dying, which is all the coordinator can ever observe), stalled
heartbeats, dropped connections, duplicate completions, coordinator
restarts, hung cells and broken process pools — is that the campaign
still completes with zero lost cells, no completed cell recomputed, and
results identical to a serial run modulo per-cell wall-clock.

No test here synchronises by sleeping: timing-sensitive behaviour runs
on the fake-clock state machine, and socket-level tests wait on events
(or spin on coordinator state with a hard deadline) that resolve the
instant the server thread observes the fault.
"""

import dataclasses
import os
import signal
import time

import pytest

from repro.campaign import CampaignCell, ParameterGrid, run_campaign
from repro.campaign.dispatch import Coordinator
from repro.campaign.store import CampaignStore
from repro.sim.library import SCENARIO_LIBRARY

from .test_dispatch import (
    SALT,
    FakeClock,
    ProtocolWorker,
    failed_cell,
    fake_result,
    make_cells,
    make_state,
)


def wait_until(predicate, timeout=10.0):
    """Spin (no sleeping) until ``predicate`` holds; hard deadline."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
    return False


def normalized(results):
    """Cell results with the volatile wall-clock field zeroed."""
    return [dataclasses.replace(r, elapsed_s=0.0) for r in results]


class TestWorkerDeath:
    def test_sigkilled_worker_forfeits_batch_immediately(self, tmp_path):
        """A dead worker's unfinished cells move on without waiting out
        the lease deadline, and its finished cell is never recomputed."""
        cells = make_cells(4)
        with Coordinator(
            cells, tmp_path / "store", salt=SALT, batch=2, lease_s=3600.0
        ) as coordinator:
            victim = ProtocolWorker(coordinator, name="victim")
            grant = victim.lease()
            assert len(grant["cells"]) == 2
            victim.complete_entry(grant["lease"], grant["cells"][0])
            survivor_index = grant["cells"][1]["index"]
            victim.kill()  # SIGKILL as the coordinator sees it: dead socket

            # The lease_s is an hour: only the connection-death path can
            # free the second cell.  No worker owns anything afterwards.
            assert wait_until(lambda: not coordinator.state.leases)

            rescuer = ProtocolWorker(coordinator, name="rescuer")
            try:
                assert rescuer.drain() == 3  # 4 cells - 1 completed by victim
            finally:
                rescuer.close()
            assert coordinator.wait(timeout=10.0)
            result = coordinator.result()

        assert len(result.cells) == 4 and not result.failed
        state = coordinator.state
        # Recomputation is bounded by the dead worker's lease batch:
        # only the cell it held unfinished was attempted twice.
        retried = [i for i, n in enumerate(state.attempts) if n > 0]
        assert retried == [survivor_index]
        assert state.reclaims == 1

    def test_connection_drop_midbatch_loses_nothing(self, tmp_path):
        """Both workers die; a third finishes everything."""
        cells = make_cells(6)
        with Coordinator(
            cells, tmp_path / "store", salt=SALT, batch=2, lease_s=3600.0
        ) as coordinator:
            for name in ("w1", "w2"):
                worker = ProtocolWorker(coordinator, name=name)
                worker.lease()
                worker.kill()
            assert wait_until(lambda: not coordinator.state.leases)
            closer = ProtocolWorker(coordinator, name="closer")
            try:
                assert closer.drain() == 6
            finally:
                closer.close()
            assert coordinator.wait(timeout=10.0)
            result = coordinator.result()
        assert len(result.cells) == 6 and not result.failed

    def test_repeated_deaths_exhaust_retry_budget(self, tmp_path):
        """A cell that kills every worker becomes a recorded failure,
        not an infinite loop."""
        cells = make_cells(1)
        with Coordinator(
            cells,
            tmp_path / "store",
            salt=SALT,
            batch=1,
            lease_s=3600.0,
            max_attempts=2,
        ) as coordinator:
            for attempt in range(2):
                worker = ProtocolWorker(coordinator, name=f"doomed{attempt}")
                assert worker.lease()["op"] == "grant"
                worker.kill()
                assert wait_until(lambda: not coordinator.state.leases)
            assert coordinator.wait(timeout=10.0)
            result = coordinator.result()
        assert not result.cells
        assert len(result.failed) == 1
        assert result.failed[0].error_type == "LeaseExpired"


class TestStalledHeartbeat:
    """Deadline behaviour on the fake clock: stalls without any stalling."""

    def test_stalled_worker_is_reclaimed_and_late_result_absorbed(
        self, tmp_path
    ):
        store = CampaignStore(tmp_path / "store", salt=SALT)
        clock = FakeClock()
        cells = make_cells(2)
        state, _ = make_state(store, cells, clock, batch=2, lease_s=5.0)
        stalled = state.lease("stalled")
        # Heartbeats arrive for a while, then stop (the worker wedged).
        clock.advance(4.0)
        assert state.heartbeat("stalled", stalled["lease"])["op"] == "ok"
        clock.advance(5.1)  # past the extended deadline, no heartbeat
        assert state.reclaim() == 1

        fresh = state.lease("fresh")
        assert [e["index"] for e in fresh["cells"]] == [0, 1]
        for entry in fresh["cells"]:
            record = store.result_payload(
                fake_result(cells[entry["index"]]), entry["key"]
            )
            state.complete(
                "fresh", fresh["lease"], entry["index"], entry["key"], record
            )
        assert state.is_done

        # The stalled worker wakes up and reports its (now duplicate)
        # result: absorbed, acknowledged, nothing recomputed or rewritten.
        entry = stalled["cells"][0]
        late = store.result_payload(
            fake_result(cells[entry["index"]], elapsed_s=99.0), entry["key"]
        )
        ack = state.complete(
            "stalled", stalled["lease"], entry["index"], entry["key"], late
        )
        assert ack["duplicate"] is True
        stored = store.get(cells[entry["index"]])
        assert stored is not None and stored.elapsed_s != 99.0  # first write won

    def test_duplicate_completion_from_two_workers_first_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "store", salt=SALT)
        clock = FakeClock()
        cells = make_cells(1)
        state, _ = make_state(store, cells, clock, batch=1, lease_s=5.0)
        first = state.lease("w1")
        clock.advance(5.1)
        state.reclaim()
        second = state.lease("w2")
        entry = second["cells"][0]
        record_w2 = store.result_payload(
            fake_result(cells[0], elapsed_s=1.0), entry["key"]
        )
        assert state.complete(
            "w2", second["lease"], entry["index"], entry["key"], record_w2
        )["op"] == "ok"
        record_w1 = store.result_payload(
            fake_result(cells[0], elapsed_s=2.0), entry["key"]
        )
        ack = state.complete(
            "w1", first["lease"], entry["index"], entry["key"], record_w1
        )
        assert ack["duplicate"] is True
        assert store.get(cells[0]).elapsed_s == 1.0


class TestCoordinatorRestart:
    def test_restart_resumes_from_store_without_recompute(self, tmp_path):
        cells = make_cells(4)
        with Coordinator(
            cells, tmp_path / "store", salt=SALT, batch=2
        ) as first:
            worker = ProtocolWorker(first, name="w")
            grant = worker.lease()
            for entry in grant["cells"]:
                worker.complete_entry(grant["lease"], entry)
            worker.close()
            # Coordinator dies here with 2 of 4 cells done.

        with Coordinator(
            cells, tmp_path / "store", salt=SALT, batch=2
        ) as second:
            assert second.run.store_hits == 2
            worker = ProtocolWorker(second, name="w2")
            try:
                assert worker.drain() == 2  # only the unfinished half
            finally:
                worker.close()
            assert second.wait(timeout=10.0)
            result = second.result()
        assert len(result.cells) == 4
        assert result.store_hits == 2 and result.dispatched == 2

    def test_shard_record_orphaned_by_crash_is_recovered(self, tmp_path):
        """A worker wrote its shard but its completion report never
        arrived: the restarted coordinator merges the shard and answers
        the cell from the store instead of recomputing it."""
        cells = make_cells(2)
        shard = CampaignStore(
            tmp_path / "store" / "shards" / "w-crashed", salt=SALT
        )
        shard.put(fake_result(cells[0]))

        with Coordinator(
            cells, tmp_path / "store", salt=SALT
        ) as coordinator:
            assert coordinator.recovery.results_merged == 1
            assert coordinator.run.store_hits == 1
            worker = ProtocolWorker(coordinator, name="w")
            try:
                assert worker.drain() == 1
            finally:
                worker.close()
            assert coordinator.wait(timeout=10.0)
            result = coordinator.result()
        assert len(result.cells) == 2 and result.dispatched == 1

    def test_local_run_recovers_orphaned_shard_record(self, tmp_path, monkeypatch):
        """A local run over a store opens it the way a coordinator does:
        a shard record whose completion never reached the main store is
        merged and answers its cell."""
        cells = [
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=seed)
            for seed in (0, 1)
        ]
        shard = CampaignStore(
            tmp_path / "store" / "shards" / "w-crashed", salt=SALT
        )
        shard.put(fake_result(cells[0]))
        monkeypatch.setenv("REPRO_CAMPAIGN_SALT", SALT)
        result = run_campaign(cells, workers=1, store_dir=tmp_path / "store")
        assert result.store_hits == 1 and result.dispatched == 1
        assert result.cells[0] == fake_result(cells[0])

    def test_restart_resets_mid_budget_retry_counts(self, tmp_path):
        """Attempts live in coordinator memory, permanent failures in
        the store: a restart forgives half-spent retry budgets."""
        store = CampaignStore(tmp_path / "store", salt=SALT)
        cells = make_cells(1)
        clock = FakeClock()
        state, _ = make_state(store, cells, clock, batch=1, max_attempts=3)
        grant = state.lease("w1")
        entry = grant["cells"][0]
        failure = store.failure_payload(
            failed_cell(cells[0], "RuntimeError", "flaky"), entry["key"]
        )
        state.fail("w1", grant["lease"], entry["index"], entry["key"], failure)
        assert state.attempts[0] == 1
        # "Restart": a fresh state over the same store.
        reborn, _ = make_state(store, cells, FakeClock(), batch=1, max_attempts=3)
        assert reborn.attempts[0] == 0
        assert reborn.lease("w")["cells"][0]["attempt"] == 1


#: A grid whose cells simulate effectively forever (hours of simulated
#: time): the only way these campaigns finish is the timeout machinery.
HUNG_CELL = CampaignCell(
    "ramp",
    params=(("n_stations", 2), ("duration_s", 100000.0)),
    seed=0,
)


class TestCellTimeout:
    def test_serial_hung_cell_becomes_timeout_failure(self):
        result = run_campaign([HUNG_CELL], workers=1, timeout_s=0.15)
        assert not result.cells
        assert len(result.failed) == 1
        failure = result.failed[0]
        assert failure.error_type == "Timeout"
        assert "timeout_s=0.15" in failure.error
        assert failure.elapsed_s < 10.0

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="pool timeout test needs fork workers",
    )
    def test_pool_hung_cells_time_out_in_their_workers(self):
        hung = [
            dataclasses.replace(HUNG_CELL, seed=seed) for seed in (0, 1)
        ]
        result = run_campaign(hung, workers=2, timeout_s=0.15)
        assert not result.cells
        assert {f.error_type for f in result.failed} == {"Timeout"}
        assert len(result.failed) == 2

    def test_timeout_rides_the_dispatch_protocol(self, tmp_path):
        """Distributed: the coordinator ships timeout_s to workers and a
        hung leased cell fails as Timeout after its retry budget."""
        from repro.campaign.worker import run_worker

        with Coordinator(
            [HUNG_CELL],
            tmp_path / "store",
            batch=1,
            max_attempts=1,
            timeout_s=0.15,
        ) as coordinator:
            host, port = coordinator.address
            # In-process worker: the whole protocol round-trip stays
            # deterministic.
            completed = run_worker(host, port, worker_id="inline")
            assert completed == 1
            assert coordinator.wait(timeout=10.0)
            result = coordinator.result()
        assert not result.cells
        assert len(result.failed) == 1
        assert result.failed[0].error_type == "Timeout"

    def test_timeout_holds_off_the_main_thread(self):
        """The deadline is checked between stream chunks, not armed as a
        signal, so it bounds a cell run from any thread."""
        import threading

        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(
                result=run_campaign([HUNG_CELL], workers=1, timeout_s=0.15)
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "hung cell ignored its timeout"
        (failure,) = outcome["result"].failed
        assert failure.error_type == "Timeout"

    def test_fast_cells_unaffected_by_generous_timeout(self):
        cell = CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0)
        bounded = run_campaign([cell], workers=1, timeout_s=600.0)
        unbounded = run_campaign([cell], workers=1)
        assert normalized(bounded.cells) == normalized(unbounded.cells)
        assert not bounded.failed


def _kill_scenario_factory(**params):
    """A scenario whose build SIGKILLs its own process — from the pool's
    perspective, indistinguishable from the OOM killer."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestBrokenPool:
    @pytest.fixture
    def kill_scenario(self):
        SCENARIO_LIBRARY["chaos-kill"] = _kill_scenario_factory
        try:
            yield "chaos-kill"
        finally:
            del SCENARIO_LIBRARY["chaos-kill"]

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="test-registered scenarios reach pool workers via fork",
    )
    def test_pool_worker_sigkill_synthesizes_failed_cells(self, kill_scenario):
        """BrokenProcessPool mid-campaign: the campaign still completes,
        every cell is accounted for, and nothing hangs."""
        cells = [
            CampaignCell(kill_scenario, params=(), seed=seed)
            for seed in (0, 1)
        ]
        result = run_campaign(cells, workers=2)
        assert result.n_total == 2
        assert not result.cells
        assert len(result.failed) == 2
        assert {f.error_type for f in result.failed} == {"BrokenProcessPool"}


class TestDistributedEndToEnd:
    """One real-subprocess run: the only test here that spawns actual
    ``repro campaign-worker`` processes."""

    def test_distributed_equals_serial(self, tmp_path):
        grid = ParameterGrid(
            "ramp",
            axes={"n_stations": [2, 4]},
            fixed={"duration_s": 1.0},
        )
        serial = run_campaign(grid, workers=1)
        distributed = run_campaign(
            grid,
            workers=2,
            dispatch="distributed",
            store_dir=tmp_path / "store",
        )
        assert not distributed.failed
        assert normalized(distributed.cells) == normalized(serial.cells)
        assert distributed.dispatched == 2
        # Second invocation answers fully from the store: zero work.
        resumed = run_campaign(
            grid,
            workers=2,
            dispatch="distributed",
            store_dir=tmp_path / "store",
        )
        assert resumed.dispatched == 0 and resumed.store_hits == 2
        assert normalized(resumed.cells) == normalized(serial.cells)

    def test_failures_match_across_dispatch_paths(self, tmp_path):
        """Serial, pool and distributed runs of one grid with a good, a
        mistyped and a hung cell return the same cells and failures,
        store the same failure records, and resume with 0 dispatched."""
        grid = [
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0),
            CampaignCell("ramp", params=(("n_statoins", 3),), seed=0),
            HUNG_CELL,
        ]
        paths = {
            "serial": {"workers": 1},
            "pool": {"workers": 2},
            "distributed": {"workers": 2, "dispatch": "distributed"},
        }
        runs, records = {}, {}
        for name, options in paths.items():
            store_dir = tmp_path / name
            runs[name] = run_campaign(
                grid, timeout_s=0.15, store_dir=store_dir, **options
            )
            records[name] = sorted(
                (
                    {k: v for k, v in record.items() if k != "elapsed_s"}
                    | {"error": {**record["error"], "traceback": ""}}
                    for record in CampaignStore(store_dir).records()
                    if record["kind"] == "failure"
                ),
                key=lambda record: record["key"],
            )
            again = run_campaign(grid, timeout_s=0.15, store_dir=store_dir, **options)
            assert again.dispatched == 0, name

        def failures(result):
            return [(f.name, f.error_type, f.error) for f in result.failed]

        serial = runs["serial"]
        assert [f.error_type for f in serial.failed] == [
            "UnknownParameterError",
            "Timeout",
        ]
        assert len(records["serial"]) == 2
        for name in ("pool", "distributed"):
            assert normalized(runs[name].cells) == normalized(serial.cells), name
            assert failures(runs[name]) == failures(serial), name
            assert records[name] == records["serial"], name

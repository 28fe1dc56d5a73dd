"""Deterministic tests for the distributed-campaign dispatch protocol.

Everything timing-dependent runs against :class:`CoordinatorState` with
an injected fake clock — lease expiry, stalled heartbeats and retry
backoff are driven by advancing a number, never by sleeping.  The state
is built from the pending jobs of the campaign body (``_CellRun``) over
a test store, and resolves each job into it.  Socket tests speak the
real wire protocol through in-test fake workers that fabricate cell
records instead of simulating, so the whole file runs in well under a
second.
"""

import dataclasses
import json
import socket
import threading

import numpy as np
import pytest

from repro.campaign import CampaignCell, run_campaign
from repro.campaign.dispatch import (
    DISPATCH_MAGIC,
    Coordinator,
    CoordinatorState,
    DispatchError,
    cell_from_wire,
    cell_to_wire,
    recv_message,
    send_message,
)
from repro.campaign.merge import (
    MergeConflictError,
    merge_shard,
    merge_shards,
    shard_roots,
)
from repro.campaign.runner import CellResult, _CellRun
from repro.campaign.store import CampaignStore
from repro.framing import FrameError
from repro.jobs import JobError

SALT = "dispatch-test"


def make_cells(n=4):
    """Distinct cheap-to-key cells (no store record exists for them)."""
    return [
        CampaignCell("ramp", params=(("n_stations", 2 + i),), seed=0)
        for i in range(n)
    ]


def fake_result(cell, elapsed_s=0.25):
    """A fabricated CellResult: dispatch tests never simulate."""
    return CellResult(
        cell=cell,
        n_frames=100,
        frames_transmitted=120,
        offered_packets=90,
        duration_s=10.0,
        delivery_ratio=0.9,
        capture_ratio=100 / 120,
        mode_utilization=55.0,
        peak_throughput_mbps=3.1,
        peak_throughput_utilization=80.0,
        high_congestion_fraction=0.2,
        unrecorded_percent=1.5,
        elapsed_s=elapsed_s,
    )


def failed_cell(cell, error_type, error, traceback="", elapsed_s=0.1):
    """The failure record of ``cell``, as a campaign names it."""
    return JobError(
        error_type, error, traceback, elapsed_s, name=cell.name, source=cell
    )


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store", salt=SALT)


def make_state(store, cells, clock, *, resume=True, retry_failed=False, **kwargs):
    """The lease state machine over the pending jobs of a cell run on
    ``store``, resolving into it: ``(state, run)``."""
    kwargs.setdefault("lease_s", 10.0)
    kwargs.setdefault("batch", 2)
    kwargs.setdefault("backoff_s", 0.5)
    run = _CellRun(
        cells, store.root, salt=store.salt, resume=resume, retry_failed=retry_failed
    )
    jobs = [(run.keys[i], cell_to_wire(run.cells[i])) for i in run.pending]
    return CoordinatorState(jobs, run.record, clock=clock, **kwargs), run


def complete_cell(state, store, lease_id, entry, worker="w"):
    cell = cell_from_wire(entry["cell"])
    record = store.result_payload(fake_result(cell), entry["key"])
    return state.complete(worker, lease_id, entry["index"], entry["key"], record)


class TestWire:
    def test_cell_roundtrip(self):
        cell = CampaignCell(
            "ramp", params=(("n_stations", 8), ("duration_s", 2.5)), seed=3
        )
        assert cell_from_wire(cell_to_wire(cell)) == cell

    def test_fidelity_survives_the_wire(self):
        cell = CampaignCell("ramp", params=(), seed=0, fidelity="fast")
        wired = cell_from_wire(cell_to_wire(cell))
        assert wired.fidelity == "fast"
        assert wired == cell

    def test_numpy_scalars_coerced(self):
        cell = CampaignCell(
            "ramp", params=(("n_stations", np.int64(4)),), seed=0
        )
        wire = cell_to_wire(cell)
        assert json.dumps(wire)  # JSON-safe
        assert cell_from_wire(wire).kwargs["n_stations"] == 4

    def test_non_scalar_parameter_refused(self):
        cell = CampaignCell(
            "ramp", params=(("schedule", object()),), seed=0
        )
        with pytest.raises(DispatchError, match="not a JSON scalar"):
            cell_to_wire(cell)

    def test_message_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "hello", "worker": "w1"})
            assert recv_message(b) == {"op": "hello", "worker": "w1"}
            a.close()
            assert recv_message(b) is None  # clean EOF
        finally:
            b.close()

    def test_message_without_op_rejected(self):
        a, b = socket.socketpair()
        try:
            from repro.framing import send_frame

            send_frame(a, json.dumps({"not_op": 1}).encode(), DISPATCH_MAGIC)
            with pytest.raises(FrameError, match="without an op"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestCoordinatorState:
    def test_grants_batches_until_exhausted_then_wait(self, store):
        clock = FakeClock()
        state, _ = make_state(store, make_cells(3), clock)
        first = state.lease("w1")
        assert first["op"] == "grant"
        assert [e["index"] for e in first["cells"]] == [0, 1]
        second = state.lease("w2")
        assert [e["index"] for e in second["cells"]] == [2]
        third = state.lease("w3")
        assert third["op"] == "wait"
        assert 0.05 <= third["seconds"] <= 2.0

    def test_heartbeat_extends_lease_past_original_deadline(self, store):
        clock = FakeClock()
        state, _ = make_state(store, make_cells(2), clock)
        grant = state.lease("w1")
        clock.advance(8.0)
        assert state.heartbeat("w1", grant["lease"])["op"] == "ok"
        clock.advance(8.0)  # 16s since grant, 8s since heartbeat
        assert state.reclaim() == 0
        assert grant["lease"] in state.leases

    def test_expired_lease_is_reclaimed_and_cells_rerun(self, store):
        clock = FakeClock()
        state, _ = make_state(store, make_cells(2), clock)
        grant = state.lease("w1")
        clock.advance(10.1)
        assert state.reclaim() == 1
        assert state.heartbeat("w1", grant["lease"])["op"] == "gone"
        regrant = state.lease("w2")
        assert [e["index"] for e in regrant["cells"]] == [0, 1]
        assert all(e["attempt"] == 2 for e in regrant["cells"])

    def test_connection_death_reclaims_immediately(self, store):
        clock = FakeClock()
        state, _ = make_state(store, make_cells(2), clock)
        state.lease("w1")
        assert state.drop_worker("w1") == 1
        # No clock advance needed: the cells are dispatchable right now.
        assert state.lease("w2")["op"] == "grant"

    def test_duplicate_completion_is_absorbed(self, store):
        clock = FakeClock()
        state, run = make_state(store, make_cells(2), clock)
        grant = state.lease("w1")
        entry = grant["cells"][0]
        first = complete_cell(state, store, grant["lease"], entry)
        assert first == {"op": "ok", "lease_valid": True}
        again = complete_cell(state, store, grant["lease"], entry)
        assert again["duplicate"] is True
        assert len(run.results) == 1

    def test_stale_lease_completion_still_counts(self, store):
        """Work finished after the lease was reclaimed is never wasted."""
        clock = FakeClock()
        state, run = make_state(store, make_cells(2), clock)
        grant = state.lease("w1")
        clock.advance(10.1)
        state.reclaim()
        entry = grant["cells"][0]
        ack = complete_cell(state, store, grant["lease"], entry)
        assert ack["op"] == "ok" and ack["lease_valid"] is False
        # The completed cell must not be granted to anyone else.
        regrant = state.lease("w2")
        assert entry["index"] not in [e["index"] for e in regrant["cells"]]
        done = run.results[run.pending[entry["index"]]]
        assert store.key_for(done.cell) == entry["key"]

    def test_failed_cell_backs_off_then_retries(self, store):
        clock = FakeClock()
        state, _ = make_state(store, make_cells(1), clock, batch=1)
        grant = state.lease("w1")
        entry = grant["cells"][0]
        failure = store.failure_payload(
            failed_cell(make_cells(1)[0], "RuntimeError", "boom", "tb"),
            entry["key"],
        )
        ack = state.fail("w1", grant["lease"], entry["index"], entry["key"], failure)
        assert ack == {"op": "ok", "final": False, "retry_in_s": 0.5}
        waiting = state.lease("w1")
        assert waiting["op"] == "wait"
        assert waiting["seconds"] <= 0.5
        clock.advance(0.51)
        retry = state.lease("w1")
        assert retry["op"] == "grant"
        assert retry["cells"][0]["attempt"] == 2
        # Mid-budget failures are NOT persisted: a coordinator restart
        # resets the retry count instead of inheriting half-spent budgets.
        assert not store.failure_path(entry["key"]).exists()

    def test_retry_budget_exhaustion_records_permanent_failure(self, store):
        clock = FakeClock()
        cells = make_cells(1)
        state, _ = make_state(store, cells, clock, batch=1, max_attempts=2)
        failure = failed_cell(cells[0], "RuntimeError", "boom", "tb")
        for attempt in (1, 2):
            clock.advance(1.0)
            grant = state.lease("w1")
            assert grant["cells"][0]["attempt"] == attempt
            entry = grant["cells"][0]
            ack = state.fail(
                "w1", grant["lease"], entry["index"], entry["key"],
                store.failure_payload(failure, entry["key"]),
            )
        assert ack == {"op": "ok", "final": True}
        assert state.is_done
        assert state.lease("w1") == {"op": "done"}
        stored = store.get_failure(cells[0], key=entry["key"])
        assert stored is not None and stored.error_type == "RuntimeError"

    def test_repeatedly_fatal_cell_becomes_lease_expired_failure(self, store):
        """A cell that keeps killing its workers cannot starve the run."""
        clock = FakeClock()
        cells = make_cells(1)
        state, run = make_state(store, cells, clock, batch=1, max_attempts=3)
        for _ in range(3):
            grant = state.lease("w1")
            assert grant["op"] == "grant"
            state.drop_worker("w1")  # worker dies holding the lease
        assert state.is_done
        failure = run.failures[0]
        assert failure.error_type == "LeaseExpired"
        assert "retry budget" in failure.error
        assert store.get_failure(cells[0]) is not None

    def test_resume_preloads_store_results_and_failures(self, store):
        cells = make_cells(3)
        store.put(fake_result(cells[0]))
        store.put_failure(failed_cell(cells[1], "RuntimeError", "old"))
        state, run = make_state(store, cells, FakeClock())
        assert run.store_hits == 1
        assert 0 in run.results and 1 in run.failures
        grant = state.lease("w1")
        assert [cell_from_wire(e["cell"]) for e in grant["cells"]] == [cells[2]]

    def test_retry_failed_redispatches_recorded_failures(self, store):
        cells = make_cells(2)
        store.put_failure(failed_cell(cells[0], "RuntimeError", "old"))
        state, _ = make_state(store, cells, FakeClock(), retry_failed=True)
        grant = state.lease("w1")
        assert [e["index"] for e in grant["cells"]] == [0, 1]
        complete_cell(state, store, grant["lease"], grant["cells"][0])
        # Success erased the stale failure record.
        assert store.get_failure(cells[0]) is None
        assert store.get(cells[0]) is not None

    def test_corrupt_preload_record_recomputes_and_counts(self, store):
        cells = make_cells(1)
        path = store.put(fake_result(cells[0]))
        path.write_text("{ torn")
        state, run = make_state(store, cells, FakeClock())
        assert run.store_hits == 0
        assert run.store.quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert state.lease("w1")["op"] == "grant"

    def test_snapshot_shape(self, tmp_path):
        """The status view: the state's leases plus the cell run's counts."""
        with Coordinator(make_cells(3), tmp_path / "store", salt=SALT) as coordinator:
            worker = ProtocolWorker(coordinator, name="w")
            try:
                grant = worker.lease()
                worker.complete_entry(grant["lease"], grant["cells"][0])
                snap = worker.request({"op": "status"})["state"]
            finally:
                worker.close()
        assert snap["cells"] == 3 and snap["done"] == 1
        assert snap["leased"] == 1 and snap["ready"] == 1
        assert snap["workers"][worker.welcome["worker"]]["completed"] == 1
        assert snap["phase"] == "running"


class TestMerge:
    def test_union_copies_missing_records(self, store, tmp_path):
        cells = make_cells(3)
        shard = CampaignStore(tmp_path / "shard", salt=SALT)
        shard.put(fake_result(cells[0]))
        shard.put_failure(failed_cell(cells[1], "RuntimeError", "x"))
        report = merge_shard(store, shard.root)
        assert report.results_merged == 1 and report.failures_merged == 1
        assert store.get(cells[0]) is not None
        assert store.get_failure(cells[1]) is not None

    def test_identical_records_differing_only_in_elapsed_merge(
        self, store, tmp_path
    ):
        cells = make_cells(1)
        shard = CampaignStore(tmp_path / "shard", salt=SALT)
        store.put(fake_result(cells[0], elapsed_s=0.1))
        shard.put(fake_result(cells[0], elapsed_s=9.9))
        report = merge_shard(store, shard.root)
        assert report.results_identical == 1
        assert report.results_merged == 0

    def test_conflicting_records_raise(self, store, tmp_path):
        cells = make_cells(1)
        shard = CampaignStore(tmp_path / "shard", salt=SALT)
        store.put(fake_result(cells[0]))
        different = dataclasses.replace(fake_result(cells[0]), n_frames=999)
        shard.put(different, key=shard.key_for(cells[0]))
        with pytest.raises(MergeConflictError, match="disagree"):
            merge_shard(store, shard.root)

    def test_corrupt_shard_record_quarantined_not_trusted(
        self, store, tmp_path
    ):
        cells = make_cells(1)
        shard = CampaignStore(tmp_path / "shard", salt=SALT)
        path = shard.put(fake_result(cells[0]))
        path.write_text("not json at all")
        report = merge_shard(store, shard.root)
        assert report.quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.get(cells[0]) is None

    def test_failure_never_overrides_result(self, store, tmp_path):
        cells = make_cells(1)
        shard = CampaignStore(tmp_path / "shard", salt=SALT)
        store.put(fake_result(cells[0]))
        shard.put_failure(failed_cell(cells[0], "RuntimeError", "late"))
        report = merge_shard(store, shard.root)
        assert report.failures_skipped == 1
        assert store.get_failure(cells[0]) is None

    def test_shard_roots_lists_worker_dirs(self, tmp_path, store):
        shards = tmp_path / "store" / "shards"
        (shards / "w-b").mkdir(parents=True)
        (shards / "w-a").mkdir()
        (shards / "stray.txt").write_text("not a dir")
        roots = shard_roots(tmp_path / "store")
        assert [p.name for p in roots] == ["w-a", "w-b"]
        assert shard_roots(tmp_path / "nonexistent") == []

    def test_merge_shards_accumulates(self, store, tmp_path):
        cells = make_cells(2)
        for i, cell in enumerate(cells):
            shard = CampaignStore(tmp_path / f"shard{i}", salt=SALT)
            shard.put(fake_result(cell))
        report = merge_shards(
            store, [tmp_path / "shard0", tmp_path / "shard1"]
        )
        assert report.results_merged == 2
        assert len(report.shards) == 2


class ProtocolWorker:
    """In-test fake worker speaking the real wire protocol.

    Fabricates cell records instead of simulating, so socket-level
    coordinator behaviour (granting, completion durability, reclaim on
    disconnect) is tested in milliseconds.
    """

    def __init__(self, coordinator, name="fake"):
        host, port = coordinator.address
        self.sock = socket.create_connection((host, port))
        self.welcome = self.request({"op": "hello", "worker": name})
        assert self.welcome["op"] == "welcome"
        self.shard = CampaignStore(
            self.welcome["shard"], salt=self.welcome["salt"]
        )

    def request(self, message):
        send_message(self.sock, message)
        reply = recv_message(self.sock)
        assert reply is not None
        return reply

    def lease(self):
        return self.request(
            {"op": "lease", "worker": self.welcome["worker"]}
        )

    def complete_entry(self, lease, entry):
        cell = cell_from_wire(entry["cell"])
        result = fake_result(cell)
        self.shard.put(result, key=entry["key"])
        return self.request(
            {
                "op": "complete",
                "worker": self.welcome["worker"],
                "lease": lease,
                "index": entry["index"],
                "key": entry["key"],
                "record": self.shard.result_payload(result, entry["key"]),
            }
        )

    def drain(self):
        """Lease and fabricate until the coordinator says done."""
        completed = 0
        while True:
            reply = self.lease()
            if reply["op"] == "done":
                return completed
            assert reply["op"] == "grant", reply
            for entry in reply["cells"]:
                self.complete_entry(reply["lease"], entry)
                completed += 1

    def kill(self):
        """Vanish abruptly (simulated SIGKILL: the socket just dies)."""
        self.sock.close()

    def close(self):
        try:
            send_message(self.sock, {"op": "bye"})
        except OSError:
            pass
        self.sock.close()


class TestCoordinatorServer:
    def test_welcome_assigns_shard_and_salt(self, tmp_path):
        with Coordinator(
            make_cells(2), tmp_path / "store", salt=SALT
        ) as coordinator:
            worker = ProtocolWorker(coordinator)
            try:
                assert worker.welcome["salt"] == SALT
                assert str(tmp_path / "store" / "shards") in worker.welcome["shard"]
                assert worker.welcome["options"]["keep_reports"] is False
            finally:
                worker.close()

    def test_protocol_worker_drains_campaign(self, tmp_path):
        cells = make_cells(4)
        with Coordinator(
            cells, tmp_path / "store", salt=SALT, batch=3
        ) as coordinator:
            worker = ProtocolWorker(coordinator)
            try:
                assert worker.drain() == 4
            finally:
                worker.close()
            assert coordinator.wait(timeout=5.0)
            result = coordinator.result()
        assert [r.cell for r in result.cells] == cells
        assert result.dispatched == 4 and not result.failed
        assert result.store_dir == str(tmp_path / "store")

    def test_fully_stored_campaign_needs_no_workers(self, tmp_path):
        cells = make_cells(2)
        seed_store = CampaignStore(tmp_path / "store", salt=SALT)
        for cell in cells:
            seed_store.put(fake_result(cell))
        with Coordinator(cells, tmp_path / "store", salt=SALT) as coordinator:
            assert coordinator.finished
            result = coordinator.result()
        assert result.store_hits == 2 and result.dispatched == 0

    def test_unknown_op_reported_not_fatal(self, tmp_path):
        # send_frame directly: send_message refuses undeclared ops at
        # the sender, but an arbitrary client can still put one on the
        # wire — the server must reply with an error, not die.
        from repro.framing import send_frame

        with Coordinator(
            make_cells(1), tmp_path / "store", salt=SALT
        ) as coordinator:
            worker = ProtocolWorker(coordinator)
            try:
                payload = json.dumps({"op": "frobnicate"}).encode()
                send_frame(worker.sock, payload, DISPATCH_MAGIC)
                reply = recv_message(worker.sock)
                assert reply["op"] == "error"
                assert worker.lease()["op"] == "grant"  # connection survives
            finally:
                worker.close()

    def test_worker_connect_times_out_fast(self):
        """An unreachable coordinator fails the connect within the
        timeout instead of hanging (the satellite bug: bare
        create_connection blocks for the kernel's minutes-long
        default)."""
        import time

        from repro.campaign.worker import run_worker

        # RFC 5737 TEST-NET-1: guaranteed non-routable, so the connect
        # either times out or is refused immediately — never answered.
        start = time.perf_counter()
        with pytest.raises(OSError):
            run_worker("192.0.2.1", 9, connect_timeout_s=0.3)
        assert time.perf_counter() - start < 5.0

    def test_send_message_refuses_undeclared_op(self, tmp_path):
        with Coordinator(
            make_cells(1), tmp_path / "store", salt=SALT
        ) as coordinator:
            worker = ProtocolWorker(coordinator)
            try:
                with pytest.raises(DispatchError, match="did you mean 'heartbeat'"):
                    send_message(worker.sock, {"op": "heartbeet"})
                with pytest.raises(DispatchError, match="unknown dispatch op"):
                    send_message(worker.sock, {"no": "op"})
            finally:
                worker.close()


    @pytest.fixture
    def thread_errors(self, monkeypatch):
        """Exceptions that escape a coordinator handler thread."""
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        return errors

    def refused_report(self, tmp_path, thread_errors, op, record_for, **fields):
        """Send one bad ``op`` report for the first leased cell, with
        ``fields`` overriding the message's own; return the reply after
        checking nothing was stored, the lease and the connection stayed
        open, and no handler thread raised."""
        cells = make_cells(2)
        with Coordinator(cells, tmp_path / "store", salt=SALT) as coordinator:
            worker = ProtocolWorker(coordinator)
            try:
                grant = worker.lease()
                entry = grant["cells"][0]
                reply = worker.request(
                    {
                        "op": op,
                        "worker": worker.welcome["worker"],
                        "lease": grant["lease"],
                        "index": entry["index"],
                        "key": entry["key"],
                        "record": record_for(worker.shard, cells, entry),
                        **fields,
                    }
                )
                beat = worker.request(
                    {
                        "op": "heartbeat",
                        "worker": worker.welcome["worker"],
                        "lease": grant["lease"],
                    }
                )
                assert beat["op"] == "ok"  # lease and connection survive
                assert grant["lease"] in coordinator.state.leases
                assert coordinator.state.outstanding == 2
            finally:
                worker.close()
        assert list(CampaignStore(tmp_path / "store", salt=SALT).records()) == []
        assert thread_errors == []
        return reply

    def test_completion_carrying_another_cells_key_is_refused(
        self, tmp_path, thread_errors
    ):
        def other_cells_record(shard, cells, entry):
            other = cells[1]
            return shard.result_payload(fake_result(other), shard.key_for(other))

        reply = self.refused_report(
            tmp_path, thread_errors, "complete", other_cells_record
        )
        assert reply["op"] == "error"
        assert "carries key" in reply["error"] and "leased under" in reply["error"]

    def test_failure_whose_error_is_a_string_is_refused(self, tmp_path, thread_errors):
        def string_error(shard, cells, entry):
            record = shard.failure_payload(
                failed_cell(cells[0], "RuntimeError", "boom"), entry["key"]
            )
            return {**record, "error": "boom"}

        reply = self.refused_report(tmp_path, thread_errors, "fail", string_error)
        assert reply["op"] == "error"
        assert "no error object" in reply["error"]

    def test_completion_whose_record_is_a_list_is_refused(
        self, tmp_path, thread_errors
    ):
        reply = self.refused_report(
            tmp_path, thread_errors, "complete", lambda *_: ["not", "a", "record"]
        )
        assert reply["op"] == "error"
        assert "not a result record" in reply["error"]

    @pytest.mark.parametrize("op", ["complete", "fail"])
    @pytest.mark.parametrize(
        "index", [None, [0], float("inf"), "x"], ids=["null", "list", "inf", "str"]
    )
    def test_report_whose_index_is_not_an_integer_is_refused(
        self, tmp_path, thread_errors, op, index
    ):
        """The report is otherwise valid for the leased cell, so only
        the index can be at fault, and the reply names it."""

        def valid_record(shard, cells, entry):
            if op == "complete":
                return shard.result_payload(fake_result(cells[0]), entry["key"])
            return shard.failure_payload(
                failed_cell(cells[0], "RuntimeError", "boom"), entry["key"]
            )

        reply = self.refused_report(
            tmp_path, thread_errors, op, valid_record, index=index
        )
        assert reply["op"] == "error"
        assert f"{op} report refused: index" in reply["error"]
        assert "is not an integer" in reply["error"]


class TestRunCampaignRouting:
    def test_unknown_dispatch_mode_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'distributed'"):
            run_campaign(make_cells(1), dispatch="distributd")

    def test_distributed_refuses_keep_reports(self):
        with pytest.raises(ValueError, match="keep_reports"):
            run_campaign(
                make_cells(1), dispatch="distributed", keep_reports=True
            )

    def test_distributed_rejects_bad_timeout(self, tmp_path):
        """Checked by the shared cell run before any store is opened or
        worker spawned, as on the local path."""
        cell = CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0)
        with pytest.raises(ValueError, match="'timeout_s' must be > 0"):
            run_campaign(
                [cell],
                dispatch="distributed",
                timeout_s=0,
                store_dir=tmp_path / "store",
            )
        assert not (tmp_path / "store").exists()

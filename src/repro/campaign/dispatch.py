"""Fault-tolerant distributed campaigns: lease-based coordinator/worker.

One coordinator owns a campaign grid and its content-addressed
:class:`~repro.campaign.store.CampaignStore`; any number of worker
processes (same box or any host that can reach the socket and the
store's filesystem) connect and *lease* batches of pending cells.  The
protocol is deliberately boring — length-prefixed JSON messages over a
plain ``socket`` (the same :mod:`repro.framing` envelope the serve
daemon uses, under magic ``RPJ1``) — because every robustness property
comes from the state machine, not the transport:

* **Leases, not assignments.**  A granted batch carries a deadline.
  Heartbeats extend it; a worker that dies (its connection drops) or
  stalls (its deadline passes) forfeits the lease and the coordinator
  hands the unfinished cells to someone else.  Recomputation after a
  crash is bounded by one lease batch per dead worker, because workers
  report each cell *individually* the moment it finishes.
* **Retry budgets with backoff.**  A cell whose simulation raises — or
  that keeps killing its workers — is retried up to ``max_attempts``
  times with exponential backoff, then resolved as a permanent
  :class:`~repro.jobs.JobError` failure record instead of wedging the
  campaign.
* **Durability at two points.**  A worker writes each finished cell
  into its own store shard *and* ships the identical record to the
  coordinator, which checks it against the leased key and writes it
  into the main store immediately.  Either copy alone is enough to
  survive a crash: a restarted coordinator first merges the shards
  (:mod:`repro.campaign.merge`), then consults the store, and
  dispatches only what is genuinely missing.
* **Idempotent completion.**  Each job resolves once, so a worker
  finishing a cell *after* its lease was reclaimed (or a second worker
  finishing the same re-leased cell) is absorbed: the first report
  wins, duplicates are acknowledged and discarded, and the store never
  flaps.  A malformed report gets an ``error`` reply and changes
  nothing.

Store, resume rule, failure records and result are the local runner's
campaign body; :class:`CoordinatorState` is the lease state machine
over its pending jobs, resolving each through ``on_done`` as
:func:`repro.jobs.run_jobs` does (``tests/campaign/test_dispatch.py`` /
``test_chaos.py`` drive it on a fake clock).  :class:`Coordinator`
wraps it in a threaded socket server, which
``run_campaign(dispatch="distributed")`` drives with local workers.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .. import protocol_registry
from .._suggest import unknown_name_message
from ..framing import FrameError, recv_frame, send_frame
from ..protocol_registry import DISPATCH_OPS
from ..jobs import JobError
from ..store import write_atomic
from .grid import CampaignCell, ParameterGrid
from .merge import merge_shards, shard_roots
from .runner import CampaignResult, _CellRun
from .store import cell_result

__all__ = [
    "DISPATCH_MAGIC",
    "Coordinator",
    "CoordinatorState",
    "DispatchError",
    "cell_from_wire",
    "cell_to_wire",
    "recv_message",
    "send_message",
]

#: Protocol magic: JSON dispatch messages (vs the serve layer's RPF1).
#: Declared once in the registry; re-exported here for callers.
DISPATCH_MAGIC = protocol_registry.DISPATCH_MAGIC

#: A dispatch message is small JSON; anything near this cap is corrupt.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

#: Seconds a lease lives without a heartbeat.
DEFAULT_LEASE_S = 30.0

#: Cells granted per lease.  Small batches bound post-crash
#: recomputation (at most one batch per dead worker) at the cost of
#: more round trips; cells are seconds-long simulations, so the round
#: trips are noise.
DEFAULT_BATCH = 2

#: Tries per cell (first run + retries) before a permanent failure.
DEFAULT_MAX_ATTEMPTS = 3

#: Base of the exponential retry backoff (doubles per attempt).
DEFAULT_BACKOFF_S = 0.5

#: File the coordinator keeps updated inside the store directory so
#: ``repro campaign-status --store`` is cluster-aware.
STATE_FILENAME = "coordinator-state.json"


class DispatchError(RuntimeError):
    """A distributed-campaign protocol or configuration failure."""


# -- wire helpers ----------------------------------------------------------


def send_message(sock: socket.socket, message: Mapping) -> None:
    """Send one framed JSON message.

    Refuses ops outside :data:`repro.protocol_registry.DISPATCH_OPS`:
    an undeclared op would be rejected (or worse, misread) by the peer,
    so the typo fails here, at the sender, with a did-you-mean.
    """
    op = message.get("op")
    if not isinstance(op, str) or op not in DISPATCH_OPS:
        raise DispatchError(
            unknown_name_message("dispatch op", str(op), DISPATCH_OPS)
        )
    payload = json.dumps(message, separators=(",", ":")).encode()
    send_frame(sock, payload, DISPATCH_MAGIC)


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one framed JSON message; ``None`` on clean EOF."""
    payload = recv_frame(
        sock, magic=DISPATCH_MAGIC, max_bytes=MAX_MESSAGE_BYTES
    )
    if payload is None:
        return None
    try:
        message = json.loads(payload)
    except json.JSONDecodeError as error:
        raise FrameError(f"undecodable dispatch message: {error}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise FrameError(f"dispatch message without an op: {message!r}")
    return message


_WIRE_SCALARS = (bool, int, float, str, type(None))


def cell_to_wire(cell: CampaignCell) -> dict:
    """JSON-safe cell description (strict: scalar parameters only).

    Grids built from the CLI or spec files always satisfy this;
    programmatic grids holding live objects (schedules, closures) are
    process-pool-only and fail here loudly rather than shipping a lossy
    ``repr`` to a worker that would simulate something else.
    """
    params = []
    for key, value in cell.params:
        if isinstance(value, np.generic):
            value = value.item()
        if not isinstance(value, _WIRE_SCALARS):
            raise DispatchError(
                f"cell parameter {key}={value!r} is not a JSON scalar — "
                "distributed dispatch ships cells over the wire; use "
                "scalar parameters (or local dispatch) for this grid"
            )
        params.append([key, value])
    wire: dict = {"scenario": cell.scenario, "params": params, "seed": cell.seed}
    if cell.fidelity is not None:
        wire["fidelity"] = cell.fidelity
    return wire


def cell_from_wire(data: Mapping) -> CampaignCell:
    """Inverse of :func:`cell_to_wire`."""
    return CampaignCell(
        scenario=data["scenario"],
        params=tuple((key, value) for key, value in data["params"]),
        seed=data["seed"],
        fidelity=data.get("fidelity"),
    )


# -- coordinator state machine ---------------------------------------------


@dataclass
class Lease:
    """One granted batch: which jobs, whose, and until when."""

    lease_id: str
    worker: str
    indices: set[int]
    deadline: float


@dataclass
class WorkerStats:
    completed: int = 0
    failed: int = 0
    last_seen: float = 0.0


class CoordinatorState:
    """The pure lease state machine (no sockets, no store, injectable clock).

    ``jobs`` are one campaign's pending jobs, each a content key and a
    wire form; a grant's ``index`` is the job's slot, and ``on_done(slot,
    outcome)`` resolves each job once.  Every method uses ``self._clock()``
    for "now", so tests drive lease expiry, stalled heartbeats and retry
    backoff by advancing a fake clock — with zero sleeping.  Thread safety
    is the caller's job (:class:`Coordinator` holds one lock).
    """

    def __init__(
        self,
        jobs: Sequence[tuple[str, Mapping]],
        on_done: Callable[[int, Any], None],
        *,
        lease_s: float = DEFAULT_LEASE_S,
        batch: int = DEFAULT_BATCH,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.keys = [key for key, _ in jobs]
        self.wires = [wire for _, wire in jobs]
        self.on_done = on_done
        self.lease_s = lease_s
        self.batch = batch
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._clock = clock

        self.open = set(range(len(self.keys)))  # unresolved jobs
        self.ready = list(range(len(self.keys)))  # FIFO of dispatchable jobs
        self.attempts = [0] * len(self.keys)
        self.delayed: list[tuple[float, int]] = []  # backoff heap
        self.leases: dict[str, Lease] = {}
        self.dispatched: set[int] = set()
        self.workers: dict[str, WorkerStats] = {}
        self.reclaims = 0
        self.retries = 0
        self._lease_ids = itertools.count(1)

    # -- inspection --------------------------------------------------------

    @property
    def is_done(self) -> bool:
        return not self.open

    @property
    def outstanding(self) -> int:
        """Jobs not yet resolved (ready, delayed or leased)."""
        return len(self.open)

    # -- internals ---------------------------------------------------------

    def _touch(self, worker: str) -> float:
        stats = self.workers.setdefault(worker, WorkerStats())
        stats.last_seen = self._clock()
        return stats.last_seen

    def _promote_delayed(self, now: float) -> None:
        while self.delayed and self.delayed[0][0] <= now:
            _, index = heapq.heappop(self.delayed)
            self.ready.append(index)

    def _detach(self, index: int) -> None:
        """Remove a job from every lease, dropping empties."""
        for lease_id in [
            lid for lid, lease in self.leases.items() if index in lease.indices
        ]:
            lease = self.leases[lease_id]
            lease.indices.discard(index)
            if not lease.indices:
                del self.leases[lease_id]

    def _resolve(self, index: int, outcome: Any) -> None:
        self.open.discard(index)
        self._detach(index)
        self.on_done(index, outcome)

    def _expire_lease(self, lease: Lease, reason: str) -> None:
        """Return a forfeited lease's jobs to the pool (budget-counted).

        The expiry consumes one attempt per unfinished job: a cell
        whose simulation reliably kills its worker must exhaust the
        retry budget and become a recorded failure, not starve the
        campaign by killing workers forever.
        """
        del self.leases[lease.lease_id]
        self.reclaims += 1
        for index in sorted(lease.indices & self.open):
            self.attempts[index] += 1
            if self.attempts[index] < self.max_attempts:
                self.ready.append(index)
                continue
            message = (
                f"lease {lease.lease_id} ({reason}) on worker {lease.worker!r}; "
                f"retry budget ({self.max_attempts}) exhausted"
            )
            self._resolve(index, JobError("LeaseExpired", message, "", 0.0))

    def reclaim(self, now: float | None = None) -> int:
        """Expire overdue leases; returns how many were reclaimed."""
        now = self._clock() if now is None else now
        overdue = [l for l in self.leases.values() if l.deadline <= now]
        for lease in overdue:
            self._expire_lease(lease, "deadline passed")
        self._promote_delayed(now)
        return len(overdue)

    def drop_worker(self, worker: str) -> int:
        """A worker's connection died: forfeit its leases immediately.

        Faster than waiting out the deadline — a SIGKILLed worker frees
        its jobs the instant the socket closes.
        """
        owned = [l for l in self.leases.values() if l.worker == worker]
        for lease in owned:
            self._expire_lease(lease, "connection lost")
        return len(owned)

    def _wait_hint(self, now: float) -> float:
        """Seconds a worker should wait before asking again."""
        horizons = [ready_at - now for ready_at, _ in self.delayed]
        horizons += [lease.deadline - now for lease in self.leases.values()]
        if not horizons:
            return 0.1
        return min(max(min(horizons), 0.05), 2.0)

    def _decode(self, index: int, key: str, record: object, kind: str) -> Any:
        """Job ``index``'s outcome from a ``kind`` record checked against
        its leased key, or the ``error`` reply to a report that is not."""
        if not 0 <= index < len(self.keys) or key != self.keys[index]:
            fault = f"unknown job index={index} key={key}"
        elif not isinstance(record, Mapping) or record.get("kind") != kind:
            fault = f"not a {kind} record: {type(record).__name__}"
        elif record.get("key") != key:
            fault = f"record carries key {record.get('key')!r}, leased under {key}"
        elif kind == "result":
            result = cell_result(cell_from_wire(self.wires[index]), record)
            if result is not None:
                return result
            fault = "a result field is not a number"
        elif not isinstance(error := record.get("error"), Mapping):
            fault = f"no error object: {error!r}"
        elif not isinstance(elapsed := record.get("elapsed_s") or 0.0, (int, float)):
            fault = f"non-numeric elapsed_s: {elapsed!r}"
        else:
            return JobError(
                error_type=str(error.get("type", "Exception")),
                error=str(error.get("message", "")),
                traceback=str(error.get("traceback", "")),
                elapsed_s=float(elapsed),
            )
        return {"op": "error", "error": f"{kind} report refused: {fault}"}

    # -- protocol operations ----------------------------------------------

    def lease(self, worker: str) -> dict:
        """Grant a batch of ready jobs (or say wait / done)."""
        now = self._touch(worker)
        self.reclaim(now)
        if self.is_done:
            return {"op": "done"}
        grant = []
        while self.ready and len(grant) < self.batch:
            index = self.ready.pop(0)
            # A stale-lease completion can resolve a job that was
            # already reclaimed back into the queue: skip, don't regrant.
            if index in self.open:
                grant.append(index)
        if not grant:
            return {"op": "wait", "seconds": self._wait_hint(now)}
        lease_id = f"L{next(self._lease_ids)}"
        self.leases[lease_id] = Lease(
            lease_id=lease_id,
            worker=worker,
            indices=set(grant),
            deadline=now + self.lease_s,
        )
        self.dispatched.update(grant)
        return {
            "op": "grant",
            "lease": lease_id,
            "lease_s": self.lease_s,
            "cells": [
                {
                    "index": index,
                    "key": self.keys[index],
                    "cell": self.wires[index],
                    "attempt": self.attempts[index] + 1,
                }
                for index in grant
            ],
        }

    def heartbeat(self, worker: str, lease_id: str) -> dict:
        """Extend a live lease; ``gone`` if it was already reclaimed."""
        now = self._touch(worker)
        self.reclaim(now)
        lease = self.leases.get(lease_id)
        if lease is None:
            return {"op": "gone"}
        lease.deadline = now + self.lease_s
        return {"op": "ok", "lease_s": self.lease_s}

    def complete(
        self, worker: str, lease_id: str, index: int, key: str, record: object
    ) -> dict:
        """Resolve one finished job (idempotent; stale leases accepted).

        The work is content-addressed, so a result arriving after its
        lease expired — or for a job someone else finished meanwhile —
        is still valid; the first report resolves the job and duplicates
        are acknowledged without a second resolution.
        """
        now = self._touch(worker)
        result = self._decode(index, key, record, "result")
        if isinstance(result, dict):
            return result
        lease_valid = lease_id in self.leases
        if index not in self.open:
            self._detach(index)
            return {"op": "ok", "duplicate": True, "lease_valid": lease_valid}
        self._resolve(index, result)
        self.workers.setdefault(worker, WorkerStats()).completed += 1
        self.reclaim(now)
        return {"op": "ok", "lease_valid": lease_id in self.leases or lease_valid}

    def fail(
        self, worker: str, lease_id: str, index: int, key: str, record: object
    ) -> dict:
        """Count a failed attempt; back off and retry, or resolve finally."""
        now = self._touch(worker)
        failure = self._decode(index, key, record, "failure")
        if isinstance(failure, dict):
            return failure
        if index not in self.open:
            return {"op": "ok", "duplicate": True}
        self._detach(index)
        self.workers.setdefault(worker, WorkerStats()).failed += 1
        self.attempts[index] += 1
        if self.attempts[index] >= self.max_attempts:
            self._resolve(index, failure)
            return {"op": "ok", "final": True}
        retry_in = self.backoff_s * 2 ** (self.attempts[index] - 1)
        heapq.heappush(self.delayed, (now + retry_in, index))
        self.retries += 1
        return {"op": "ok", "final": False, "retry_in_s": retry_in}


# -- the socket server -----------------------------------------------------


class Coordinator:
    """Threaded socket server around :class:`CoordinatorState`.

    Starts listening on construction (``port=0`` picks an ephemeral
    port; read :attr:`address`).  One daemon thread accepts
    connections, one handler thread serves each worker, and a ticker
    thread reclaims overdue leases and keeps the cluster-status file
    fresh.  ``wait()`` blocks until every cell is resolved;
    ``result()`` then merges the shards and returns the result.

    On construction the coordinator *recovers first*: its cell run
    (:attr:`run`) merges existing worker shards into the main store
    before partitioning it, so restarting over an interrupted campaign
    re-dispatches only genuinely unfinished cells.
    """

    def __init__(
        self,
        grid: ParameterGrid | Sequence[CampaignCell],
        store_dir: str | os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        batch: int = DEFAULT_BATCH,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        resume: bool = True,
        retry_failed: bool = False,
        timeout_s: float | None = None,
        salt: str | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.run = run = _CellRun(
            grid,
            self.store_dir,
            salt=salt,
            timeout_s=timeout_s,
            resume=resume,
            retry_failed=retry_failed,
        )
        self.store, self.recovery = run.store, run.recovery
        self.state = CoordinatorState(
            [(run.keys[i], cell_to_wire(run.cells[i])) for i in run.pending],
            run.record,
            lease_s=lease_s,
            batch=batch,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
        )
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._stop = threading.Event()
        self._conn_ids = itertools.count(1)
        self._result: CampaignResult | None = None

        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        if self.state.is_done:
            self._finished.set()
        self._write_state_file()  # no other thread runs yet
        for loop in (self._accept_loop, self._tick_loop):
            threading.Thread(target=loop, daemon=True).start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop serving (does not delete any state — restartable)."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every cell is resolved; True if it is."""
        return self._finished.wait(timeout)

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    # -- serving -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One worker's session: framed JSON request → response, until
        EOF or ``bye``.  A worker that leaves forfeits the leases it
        still holds immediately (no need to wait out the deadline)."""
        worker = f"conn-{next(self._conn_ids)}"
        try:
            while (message := recv_message(conn)) and message.get("op") != "bye":
                if message.get("op") == "hello":
                    worker = self._register(message, worker)
                send_message(conn, self._handle(worker, message))
        except (ConnectionError, FrameError, OSError, ValueError):
            pass
        finally:
            with self._lock:
                self.state.drop_worker(worker)
                self._after_mutation()
            try:
                conn.close()
            except OSError:
                pass

    def _register(self, message: Mapping, fallback: str) -> str:
        name = str(message.get("worker") or fallback)
        # Connection-unique: two workers claiming one name must not be
        # able to reclaim each other's leases on disconnect.
        return f"{name}#{next(self._conn_ids)}"

    def _handle(self, worker: str, message: Mapping) -> dict:
        op = message.get("op")
        with self._lock:
            if op == "hello":
                shard = self.store_dir / "shards" / worker.replace("#", "-")
                reply = {
                    "op": "welcome",
                    "worker": worker,
                    "salt": self.store.salt,
                    "lease_s": self.state.lease_s,
                    "options": self.run.options,
                    "shard": str(message.get("shard") or shard),
                }
            elif op == "lease":
                reply = self.state.lease(worker)
            elif op == "heartbeat":
                reply = self.state.heartbeat(worker, str(message.get("lease")))
            elif op in ("complete", "fail"):
                index = message.get("index")
                if type(index) is not int:  # a JSON integer, not a bool
                    reply = {
                        "op": "error",
                        "error": f"{op} report refused: index {index!r} "
                        "is not an integer",
                    }
                else:
                    reply = getattr(self.state, op)(
                        worker,
                        str(message.get("lease")),
                        index,
                        str(message.get("key", "")),
                        message.get("record"),
                    )
            elif op == "status":
                reply = {"op": "status", "state": self._snapshot()}
            else:
                reply = {"op": "error", "error": f"unknown op {op!r}"}
            self._after_mutation()
        return reply

    def _after_mutation(self) -> None:
        """Caller holds the lock."""
        if self.state.is_done and not self._finished.is_set():
            self._finished.set()
            self._write_state_file()

    def _tick_loop(self) -> None:
        interval = max(0.05, min(1.0, self.state.lease_s / 4.0))
        while not self._stop.wait(interval):
            with self._lock:
                self.state.reclaim()
                self._after_mutation()
                self._write_state_file()
            if self._finished.is_set():
                return

    # -- status file -------------------------------------------------------

    def _snapshot(self) -> dict:
        """JSON-able progress view (the ``coordinator-state.json`` body);
        caller holds the lock."""
        run, state = self.run, self.state
        now = state._clock()
        return {
            "phase": "done" if state.is_done else "running",
            "cells": len(run.cells),
            "done": len(run.results),
            "failed": len(run.failures),
            "ready": len(state.ready),
            "delayed": len(state.delayed),
            "leased": sum(len(l.indices) for l in state.leases.values()),
            "store_hits": run.store_hits,
            "dispatched": len(state.dispatched),
            "reclaims": state.reclaims,
            "retries": state.retries,
            "quarantined": self.store.quarantined,
            "leases": [
                {
                    "lease": lease.lease_id,
                    "worker": lease.worker,
                    "cells": sorted(run.pending[slot] for slot in lease.indices),
                    "expires_in_s": round(lease.deadline - now, 3),
                }
                for lease in state.leases.values()
            ],
            "workers": {
                name: {
                    "completed": stats.completed,
                    "failed": stats.failed,
                    "idle_s": round(now - stats.last_seen, 3),
                }
                for name, stats in sorted(state.workers.items())
            },
        }

    def _write_state_file(self) -> None:
        """Caller holds the lock."""
        snapshot = self._snapshot()
        snapshot["address"] = list(self.address)
        snapshot["updated"] = time.time()  # repro: lint-ok[det-wall-clock] operator-facing staleness stamp, never feeds results
        snapshot["elapsed_s"] = round(time.perf_counter() - self.run.start, 3)
        try:
            write_atomic(
                self.store_dir / STATE_FILENAME,
                json.dumps(snapshot, indent=1, sort_keys=True).encode(),
            )
        except OSError:
            pass  # status is best-effort; the store itself is the truth

    # -- result ------------------------------------------------------------

    def result(self) -> CampaignResult:
        """The campaign's result (it must be finished).

        Merges every shard into the main store first — the merge is
        also the *verification* pass: a shard record disagreeing with
        the main store raises
        :class:`~repro.campaign.merge.MergeConflictError` instead of
        returning silently wrong numbers.
        """
        if not self._finished.is_set():
            raise DispatchError(
                f"campaign not finished: {self.state.outstanding} cells open"
            )
        with self._lock:
            if self._result is None:
                merge_shards(self.store, shard_roots(self.store_dir))
                self._result = self.run.result(max(len(self.state.workers), 1))
                self._write_state_file()
        return self._result


# -- local worker subprocesses ---------------------------------------------


def _worker_env() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` can import this ``repro``."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def _drive_local_workers(coordinator: Coordinator, n_workers: int) -> CampaignResult:
    """Keep ``n_workers`` local ``repro campaign-worker`` subprocesses on
    ``coordinator`` until it finishes; return its result.

    A killed worker's leases are reclaimed by the coordinator and, while
    unfinished work remains, a replacement is spawned (``n_workers``
    replacements in all).  A coordinator the store already answers
    spawns nothing.
    """
    if coordinator.finished:
        return coordinator.result()
    host, port = coordinator.address
    env = _worker_env()

    def spawn(index: int) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign-worker",
                "--connect",
                f"{host}:{port}",
                "--id",
                f"local-{index}",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    procs = [spawn(i) for i in range(n_workers)]
    spawned = n_workers
    try:
        while not coordinator.wait(timeout=0.2):
            procs = [p for p in procs if p.poll() is None]
            while len(procs) < n_workers and spawned < 2 * n_workers:
                procs.append(spawn(spawned))
                spawned += 1
            if not procs:
                raise DispatchError(
                    "every campaign worker exited with "
                    f"{coordinator.state.outstanding} cells "
                    "unresolved and the respawn budget spent"
                )
        return coordinator.result()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)

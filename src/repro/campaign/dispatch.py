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
  times with exponential backoff, then recorded as a permanent
  :class:`~repro.campaign.store.FailedCell` instead of wedging the
  campaign.
* **Durability at two points.**  A worker writes each finished cell
  into its own store shard *and* ships the identical record to the
  coordinator, which writes it into the main store immediately.  Either
  copy alone is enough to survive a crash: a restarted coordinator
  first merges the shards (:mod:`repro.campaign.merge`), then consults
  the store, and dispatches only what is genuinely missing.
* **Idempotent completion.**  Completions are keyed by cell index and
  content key, so a worker finishing a cell *after* its lease was
  reclaimed (or a second worker finishing the same re-leased cell) is
  absorbed: first record wins, duplicates are acknowledged and
  discarded, and the store never flaps.

The state machine lives in :class:`CoordinatorState` with an injectable
clock so every timing behaviour — expiry, stalled heartbeats, backoff —
is tested deterministically, without sleeping
(``tests/campaign/test_dispatch.py`` / ``test_chaos.py``).
:class:`Coordinator` wraps it in a threaded socket server;
:func:`run_distributed_campaign` is the one-call form behind
``run_campaign(dispatch="distributed")``.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .. import protocol_registry
from .._suggest import unknown_name_message
from ..framing import FrameError, recv_frame, send_frame
from ..protocol_registry import DISPATCH_OPS
from ..store import write_atomic
from .grid import CampaignCell, ParameterGrid
from .merge import merge_shards, shard_roots
from .runner import CELL_CHUNK_FRAMES, CampaignResult, _expand_cells
from .store import CampaignStore, FailedCell

__all__ = [
    "DISPATCH_MAGIC",
    "Coordinator",
    "CoordinatorState",
    "DispatchError",
    "cell_from_wire",
    "cell_to_wire",
    "recv_message",
    "run_distributed_campaign",
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
    """One granted batch: which cells, whose, and until when."""

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
    """The pure dispatch state machine (no sockets, injectable clock).

    Every method takes/uses ``self._clock()`` for "now", so tests drive
    lease expiry, stalled heartbeats and retry backoff by advancing a
    fake clock — deterministically, with zero sleeping.  Thread safety
    is the caller's job (:class:`Coordinator` holds one lock).
    """

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        store: CampaignStore,
        *,
        lease_s: float = DEFAULT_LEASE_S,
        batch: int = DEFAULT_BATCH,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        resume: bool = True,
        retry_failed: bool = False,
        options: Mapping | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.cells = list(cells)
        self.store = store
        self.lease_s = lease_s
        self.batch = batch
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.options = dict(options or {})
        self._clock = clock

        self.done: dict[int, str] = {}  # index -> content key
        self.failed: dict[int, FailedCell] = {}
        self.ready = list(range(len(self.cells)))  # FIFO of dispatchable indices
        if resume:  # the local runner's rule: CampaignStore.partition
            status = store.partition(self.cells, retry_failed=retry_failed)
            self.keys, self.ready = status.keys, status.pending
            self.done = {index: self.keys[index] for index in status.done}
            self.failed = dict(status.failed)
        else:
            self.keys = [store.key_for(cell) for cell in self.cells]
        self.attempts = [0] * len(self.cells)
        self.delayed: list[tuple[float, int]] = []  # backoff heap
        self.leases: dict[str, Lease] = {}
        self.dispatched: set[int] = set()
        self.workers: dict[str, WorkerStats] = {}
        self.store_hits = len(self.done)
        self.reclaims = 0
        self.retries = 0
        self._lease_ids = itertools.count(1)

    # -- inspection --------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def is_done(self) -> bool:
        return len(self.done) + len(self.failed) == len(self.cells)

    @property
    def outstanding(self) -> int:
        """Cells not yet resolved (ready, delayed or leased)."""
        return len(self.cells) - len(self.done) - len(self.failed)

    # -- internals ---------------------------------------------------------

    def _touch(self, worker: str, now: float) -> None:
        stats = self.workers.setdefault(worker, WorkerStats())
        stats.last_seen = now

    def _promote_delayed(self, now: float) -> None:
        while self.delayed and self.delayed[0][0] <= now:
            _, index = heapq.heappop(self.delayed)
            self.ready.append(index)

    def _detach(self, index: int) -> None:
        """Remove a resolved index from every lease, dropping empties."""
        for lease_id in [
            lid for lid, lease in self.leases.items() if index in lease.indices
        ]:
            lease = self.leases[lease_id]
            lease.indices.discard(index)
            if not lease.indices:
                del self.leases[lease_id]

    def _expire_lease(self, lease: Lease, reason: str) -> None:
        """Return a forfeited lease's cells to the pool (budget-counted).

        The expiry consumes one attempt per unfinished cell: a cell
        whose simulation reliably kills its worker must exhaust the
        retry budget and become a recorded failure, not starve the
        campaign by killing workers forever.
        """
        del self.leases[lease.lease_id]
        self.reclaims += 1
        for index in sorted(lease.indices):
            if index in self.done or index in self.failed:
                continue
            self.attempts[index] += 1
            if self.attempts[index] >= self.max_attempts:
                self._record_failure(
                    index,
                    FailedCell(
                        cell=self.cells[index],
                        error_type="LeaseExpired",
                        error=(
                            f"lease {lease.lease_id} ({reason}) on worker "
                            f"{lease.worker!r}; retry budget "
                            f"({self.max_attempts}) exhausted"
                        ),
                        traceback="",
                        elapsed_s=0.0,
                    ),
                )
            else:
                self.ready.append(index)

    def _record_failure(self, index: int, failure: FailedCell) -> None:
        self.failed[index] = failure
        self.store.put_failure(failure, key=self.keys[index])

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
        its cells the instant the socket closes.
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

    # -- protocol operations ----------------------------------------------

    def lease(self, worker: str) -> dict:
        """Grant a batch of ready cells (or say wait / done)."""
        now = self._clock()
        self._touch(worker, now)
        self.reclaim(now)
        if self.is_done:
            return {"op": "done"}
        if not self.ready:
            return {"op": "wait", "seconds": self._wait_hint(now)}
        grant = []
        while self.ready and len(grant) < self.batch:
            index = self.ready.pop(0)
            # A stale-lease completion can resolve a cell that was
            # already reclaimed back into the queue: skip, don't regrant.
            if index not in self.done and index not in self.failed:
                grant.append(index)
        if not grant:
            if self.is_done:
                return {"op": "done"}
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
                    "cell": cell_to_wire(self.cells[index]),
                    "attempt": self.attempts[index] + 1,
                }
                for index in grant
            ],
        }

    def heartbeat(self, worker: str, lease_id: str) -> dict:
        """Extend a live lease; ``gone`` if it was already reclaimed."""
        now = self._clock()
        self._touch(worker, now)
        self.reclaim(now)
        lease = self.leases.get(lease_id)
        if lease is None:
            return {"op": "gone"}
        lease.deadline = now + self.lease_s
        return {"op": "ok", "lease_s": self.lease_s}

    def complete(
        self, worker: str, lease_id: str, index: int, key: str, record: Mapping
    ) -> dict:
        """Absorb one finished cell (idempotent; stale leases accepted).

        The work is content-addressed, so a result arriving after its
        lease expired — or for a cell someone else finished meanwhile —
        is still valid; the first stored record wins and duplicates are
        acknowledged without a second write.
        """
        now = self._clock()
        self._touch(worker, now)
        if not 0 <= index < len(self.cells) or key != self.keys[index]:
            return {
                "op": "error",
                "error": f"completion for unknown cell index={index} key={key}",
            }
        lease_valid = lease_id in self.leases
        if index in self.done:
            self._detach(index)
            return {"op": "ok", "duplicate": True, "lease_valid": lease_valid}
        self.store.put_record(record)
        self.done[index] = key
        self.failed.pop(index, None)  # retry_failed path: success clears
        self._detach(index)
        self.workers.setdefault(worker, WorkerStats()).completed += 1
        self.reclaim(now)
        return {"op": "ok", "lease_valid": lease_id in self.leases or lease_valid}

    def fail(
        self, worker: str, lease_id: str, index: int, key: str, record: Mapping
    ) -> dict:
        """Count a failed attempt; back off and retry, or record finally."""
        now = self._clock()
        self._touch(worker, now)
        if not 0 <= index < len(self.cells) or key != self.keys[index]:
            return {
                "op": "error",
                "error": f"failure report for unknown cell index={index}",
            }
        if index in self.done:
            return {"op": "ok", "duplicate": True}
        self._detach(index)
        self.workers.setdefault(worker, WorkerStats()).failed += 1
        self.attempts[index] += 1
        error = record.get("error", {}) if isinstance(record, Mapping) else {}
        failure = FailedCell(
            cell=self.cells[index],
            error_type=str(error.get("type", "Exception")),
            error=str(error.get("message", "")),
            traceback=str(error.get("traceback", "")),
            elapsed_s=float(record.get("elapsed_s", 0.0) or 0.0),
        )
        if self.attempts[index] >= self.max_attempts:
            self._record_failure(index, failure)
            return {"op": "ok", "final": True}
        retry_in = self.backoff_s * 2 ** (self.attempts[index] - 1)
        heapq.heappush(self.delayed, (now + retry_in, index))
        self.retries += 1
        return {"op": "ok", "final": False, "retry_in_s": retry_in}

    # -- status ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able progress view (the ``coordinator-state.json`` body)."""
        now = self._clock()
        return {
            "phase": "done" if self.is_done else "running",
            "cells": len(self.cells),
            "done": len(self.done),
            "failed": len(self.failed),
            "ready": len(self.ready),
            "delayed": len(self.delayed),
            "leased": sum(len(l.indices) for l in self.leases.values()),
            "store_hits": self.store_hits,
            "dispatched": len(self.dispatched),
            "reclaims": self.reclaims,
            "retries": self.retries,
            "quarantined": self.store.quarantined,
            "leases": [
                {
                    "lease": lease.lease_id,
                    "worker": lease.worker,
                    "cells": sorted(lease.indices),
                    "expires_in_s": round(lease.deadline - now, 3),
                }
                for lease in self.leases.values()
            ],
            "workers": {
                name: {
                    "completed": stats.completed,
                    "failed": stats.failed,
                    "idle_s": round(now - stats.last_seen, 3),
                }
                for name, stats in sorted(self.workers.items())
            },
        }


# -- the socket server -----------------------------------------------------


class Coordinator:
    """Threaded socket server around :class:`CoordinatorState`.

    Starts listening on construction (``port=0`` picks an ephemeral
    port; read :attr:`address`).  One daemon thread accepts
    connections, one handler thread serves each worker, and a ticker
    thread reclaims overdue leases and keeps the cluster-status file
    fresh.  ``wait()`` blocks until every cell is resolved;
    ``result()`` then merges the shards and assembles the
    :class:`~repro.campaign.runner.CampaignResult`.

    On construction the coordinator *recovers first*: existing worker
    shards are merged into the main store, so restarting over an
    interrupted campaign re-dispatches only genuinely unfinished cells.
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
        chunk_frames: int | None = None,
        window_s: float = 1.0,
        timeout_s: float | None = None,
        salt: str | None = None,
    ) -> None:
        cells = _expand_cells(grid)
        self.store_dir = Path(store_dir)
        self.store = CampaignStore(self.store_dir, salt=salt)
        self.recovery = merge_shards(self.store, shard_roots(self.store_dir))
        options = {
            "chunk_frames": chunk_frames or CELL_CHUNK_FRAMES,
            "window_s": window_s,
            "keep_reports": False,
            "timeout_s": timeout_s,
        }
        self.state = CoordinatorState(
            cells,
            self.store,
            lease_s=lease_s,
            batch=batch,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            resume=resume,
            retry_failed=retry_failed,
            options=options,
        )
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._stop = threading.Event()
        self._start = time.perf_counter()
        self._conn_ids = itertools.count(1)
        self._result: CampaignResult | None = None

        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        if self.state.is_done:
            self._finished.set()
        self._write_state_file()
        self._threads = [
            threading.Thread(target=self._accept_loop, daemon=True),
            threading.Thread(target=self._tick_loop, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

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
        EOF.  A dropped connection forfeits the worker's leases
        immediately (no need to wait out the deadline)."""
        worker = f"conn-{next(self._conn_ids)}"
        clean = False
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    clean = not self._worker_owns_leases(worker)
                    return
                if message.get("op") == "bye":
                    clean = True
                    return
                if message.get("op") == "hello":
                    worker = self._register(message, worker)
                reply = self._handle(worker, message)
                send_message(conn, reply)
        except (ConnectionError, FrameError, OSError, ValueError):
            pass
        finally:
            if not clean:
                with self._lock:
                    self.state.drop_worker(worker)
                    self._after_mutation()
            try:
                conn.close()
            except OSError:
                pass

    def _worker_owns_leases(self, worker: str) -> bool:
        with self._lock:
            return any(l.worker == worker for l in self.state.leases.values())

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
                    "options": self.state.options,
                    "shard": str(message.get("shard") or shard),
                }
            elif op == "lease":
                reply = self.state.lease(worker)
            elif op == "heartbeat":
                reply = self.state.heartbeat(worker, str(message.get("lease")))
            elif op == "complete":
                reply = self.state.complete(
                    worker,
                    str(message.get("lease")),
                    int(message.get("index", -1)),
                    str(message.get("key", "")),
                    message.get("record") or {},
                )
            elif op == "fail":
                reply = self.state.fail(
                    worker,
                    str(message.get("lease")),
                    int(message.get("index", -1)),
                    str(message.get("key", "")),
                    message.get("record") or {},
                )
            elif op == "status":
                reply = {"op": "status", "state": self.state.snapshot()}
            else:
                reply = {"op": "error", "error": f"unknown op {op!r}"}
            self._after_mutation()
        return reply

    def _after_mutation(self) -> None:
        """Caller holds the lock."""
        if self.state.is_done and not self._finished.is_set():
            self._finished.set()
            self._write_state_file_locked()

    def _tick_loop(self) -> None:
        interval = max(0.05, min(1.0, self.state.lease_s / 4.0))
        while not self._stop.wait(interval):
            with self._lock:
                self.state.reclaim()
                self._after_mutation()
                self._write_state_file_locked()
            if self._finished.is_set():
                return

    # -- status file -------------------------------------------------------

    def _write_state_file(self) -> None:
        with self._lock:
            self._write_state_file_locked()

    def _write_state_file_locked(self) -> None:
        snapshot = self.state.snapshot()
        snapshot["address"] = list(self.address)
        snapshot["updated"] = time.time()  # repro: lint-ok[det-wall-clock] operator-facing staleness stamp, never feeds results
        snapshot["elapsed_s"] = round(time.perf_counter() - self._start, 3)
        try:
            write_atomic(
                self.store_dir / STATE_FILENAME,
                json.dumps(snapshot, indent=1, sort_keys=True).encode(),
            )
        except OSError:
            pass  # status is best-effort; the store itself is the truth

    # -- result ------------------------------------------------------------

    def result(self) -> CampaignResult:
        """Assemble the final result (campaign must be finished).

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
        if self._result is not None:
            return self._result
        with self._lock:
            merge_shards(self.store, shard_roots(self.store_dir))
            status = self.store.partition(self.state.cells)
            failures = dict(status.failed)
            for index in status.pending:
                failures[index] = self.state.failed.get(index) or FailedCell(
                    cell=self.state.cells[index],
                    error_type="MissingRecord",
                    error="cell resolved but its store record is gone",
                    traceback="",
                    elapsed_s=0.0,
                )
            self._result = CampaignResult(
                cells=list(status.done.values()),
                workers=max(len(self.state.workers), 1),
                elapsed_s=time.perf_counter() - self._start,
                failed=[failures[i] for i in sorted(failures)],
                store_hits=self.state.store_hits,
                dispatched=len(self.state.dispatched),
                store_dir=os.fspath(self.store_dir),
                quarantined=self.store.quarantined + self.recovery.quarantined,
            )
            self._write_state_file_locked()
        return self._result


# -- one-call local cluster ------------------------------------------------


def _worker_env() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` can import this ``repro``."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def run_distributed_campaign(
    grid: ParameterGrid | Sequence[CampaignCell],
    *,
    workers: int | None = None,
    chunk_frames: int | None = None,
    window_s: float = 1.0,
    keep_reports: bool = False,
    store_dir: str | os.PathLike | None = None,
    resume: bool = True,
    retry_failed: bool = False,
    timeout_s: float | None = None,
    lease_s: float = DEFAULT_LEASE_S,
    batch: int = DEFAULT_BATCH,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_s: float = DEFAULT_BACKOFF_S,
    respawn_budget: int | None = None,
) -> CampaignResult:
    """Run a grid on a coordinator + N local worker *subprocesses*.

    The one-call form behind ``run_campaign(dispatch="distributed")``:
    boots a :class:`Coordinator` on an ephemeral loopback port, spawns
    ``workers`` ``repro campaign-worker`` processes against it, and
    survives them dying — a killed worker's leases are reclaimed and,
    while unfinished work remains, a replacement is spawned (up to
    ``respawn_budget``, default ``workers``).  Results are identical to
    a serial ``run_campaign`` modulo per-cell wall-clock.

    ``store_dir=None`` uses a private temporary store (the robustness
    machinery needs one); pass a real directory to keep the records.
    """
    if keep_reports:
        raise ValueError(
            "distributed dispatch does not support keep_reports=True — "
            "full reports do not travel the wire; use the store's "
            "summary records or local dispatch"
        )
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError("workers must be >= 1")
    budget = respawn_budget if respawn_budget is not None else n_workers

    temp: tempfile.TemporaryDirectory | None = None
    if store_dir is None:
        temp = tempfile.TemporaryDirectory(prefix="repro-campaign-")
        store_dir = temp.name
    try:
        with Coordinator(
            grid,
            store_dir,
            lease_s=lease_s,
            batch=batch,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            resume=resume,
            retry_failed=retry_failed,
            chunk_frames=chunk_frames,
            window_s=window_s,
            timeout_s=timeout_s,
        ) as coordinator:
            if coordinator.finished:  # everything answered from the store
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
                    missing = n_workers - len(procs)
                    while missing > 0 and budget > 0:
                        procs.append(spawn(spawned))
                        spawned += 1
                        missing -= 1
                        budget -= 1
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
    finally:
        if temp is not None:
            temp.cleanup()

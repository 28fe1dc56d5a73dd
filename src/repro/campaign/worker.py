"""Campaign worker: lease cells, simulate, report — and survive.

The worker side of :mod:`repro.campaign.dispatch`.  A worker process
connects to a coordinator, introduces itself (``hello`` → ``welcome``
carrying the store salt, simulation options and a private shard
directory), then loops: lease a batch, simulate each cell (the local
runner's cell job and failure capture, ``timeout_s`` included), write
the finished record into its *own shard* first, and only then report the
completion.  That ordering is the durability story: if the coordinator
dies between the shard write and the report, the record is recovered
from the shard on restart; if the *worker* dies, the coordinator's
lease expiry hands the unfinished cells to someone else.

While a cell simulates, a background heartbeat thread keeps the lease
alive.  If a heartbeat learns the lease is gone (the coordinator
reclaimed it — e.g. the worker stalled past the deadline, or the
coordinator restarted), the worker still finishes and reports the cell
in hand — completion is idempotent and content-addressed, so the report
is absorbed or acknowledged as a duplicate — but abandons the rest of
the batch rather than racing whoever holds it now.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Mapping

from ..jobs import JobError, capture
from .dispatch import DispatchError, cell_from_wire, recv_message, send_message
from .runner import _failed_cell, _simulate_cell
from .store import CampaignStore, FailedCell

__all__ = ["WorkerChannel", "run_worker"]


class WorkerChannel:
    """One worker's request/response channel to the coordinator.

    The dispatch protocol is strictly request → reply, but two threads
    use the channel (the cell loop and the heartbeat), so each exchange
    is atomic under a lock.  A dead coordinator surfaces as
    ``ConnectionResetError`` from whichever request hits it first.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def request(self, message: Mapping) -> dict:
        with self._lock:
            send_message(self._sock, message)
            reply = recv_message(self._sock)
        if reply is None:
            raise ConnectionResetError("coordinator closed the connection")
        return reply

    def send(self, message: Mapping) -> None:
        with self._lock:
            send_message(self._sock, message)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _Heartbeat:
    """Daemon thread extending one lease while a cell simulates."""

    def __init__(self, channel: WorkerChannel, worker: str, lease: str,
                 lease_s: float) -> None:
        self._channel = channel
        self._worker = worker
        self._lease = lease
        self._interval = max(0.05, lease_s / 3.0)
        self._stop = threading.Event()
        #: Set when the coordinator says the lease no longer exists.
        self.lease_gone = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                reply = self._channel.request(
                    {"op": "heartbeat", "worker": self._worker,
                     "lease": self._lease}
                )
            except (ConnectionError, OSError):
                # Coordinator unreachable: keep simulating — the record
                # still lands in the shard, and shard merge on
                # coordinator restart recovers it.
                self.lease_gone.set()
                return
            if reply.get("op") == "gone":
                self.lease_gone.set()
                return


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    shard_dir: str | os.PathLike | None = None,
    connect_timeout_s: float = 10.0,
) -> int:
    """Serve one coordinator until its campaign is done.

    Returns the number of cells this worker completed (successes plus
    captured failures).  Raises :class:`ConnectionError` if the
    coordinator vanishes mid-campaign — the supervisor (or the
    operator) decides whether to reconnect.  ``connect_timeout_s``
    bounds only the initial connect (``OSError``/``TimeoutError`` on
    an unreachable coordinator); the session itself blocks, since a
    lease-grant can legitimately take as long as the queue is deep.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout_s)
    sock.settimeout(None)
    channel = WorkerChannel(sock)
    try:
        return _serve(channel, worker_id=worker_id, shard_dir=shard_dir)
    finally:
        channel.close()


def _serve(
    channel: WorkerChannel,
    *,
    worker_id: str | None,
    shard_dir: str | os.PathLike | None,
) -> int:
    name = worker_id or f"worker-{os.getpid()}"
    welcome = channel.request(
        {"op": "hello", "worker": name,
         "shard": os.fspath(shard_dir) if shard_dir is not None else None}
    )
    if welcome.get("op") != "welcome":
        raise DispatchError(f"coordinator refused hello: {welcome!r}")
    name = welcome["worker"]  # coordinator-disambiguated identity
    lease_s = float(welcome.get("lease_s", 30.0))
    options = dict(welcome.get("options") or {})
    options.setdefault("keep_reports", False)
    shard = CampaignStore(Path(welcome["shard"]), salt=welcome["salt"])
    completed = 0

    while True:
        reply = channel.request({"op": "lease", "worker": name})
        op = reply.get("op")
        if op == "done":
            channel.send({"op": "bye"})
            return completed
        if op == "wait":
            time.sleep(min(float(reply.get("seconds", 0.1)), 2.0))
            continue
        if op != "grant":
            raise DispatchError(f"unexpected lease reply: {reply!r}")

        lease = str(reply["lease"])
        for entry in reply["cells"]:
            cell = cell_from_wire(entry["cell"])
            key = str(entry["key"])
            own_key = shard.key_for(cell)
            if own_key != key:
                # Code-version skew: this worker would simulate
                # *different* work than the key promises.  Refuse the
                # cell rather than poison the store.
                message = {
                    "op": "fail", "worker": name, "lease": lease,
                    "index": entry["index"], "key": key,
                    "record": shard.failure_payload(
                        FailedCell(
                            cell=cell,
                            error_type="KeySkew",
                            error=(
                                f"worker computes key {own_key[:12]}… for a "
                                f"cell leased under {key[:12]}… — worker and "
                                "coordinator run different repro code"
                            ),
                            traceback="",
                            elapsed_s=0.0,
                        ),
                        key,
                    ),
                }
                channel.request(message)
                continue

            with _Heartbeat(channel, name, lease, lease_s) as beat:
                outcome = capture(_simulate_cell, (cell, options))
            if isinstance(outcome, JobError):
                failure = _failed_cell(cell, outcome)
                shard.put_failure(failure, key=key)
                message = {
                    "op": "fail", "worker": name, "lease": lease,
                    "index": entry["index"], "key": key,
                    "record": shard.failure_payload(failure, key),
                }
            else:
                shard.put(outcome, key=key)
                record = shard.result_payload(outcome, key)
                message = {
                    "op": "complete", "worker": name, "lease": lease,
                    "index": entry["index"], "key": key, "record": record,
                }
            ack = channel.request(message)
            completed += 1
            if beat.lease_gone.is_set() or not ack.get("lease_valid", True):
                # The rest of this batch belongs to someone else now.
                break

"""Campaign worker: lease cells, simulate, report — and survive.

The worker side of :mod:`repro.campaign.dispatch`.  A worker process
connects to a coordinator, introduces itself (``hello`` → ``welcome``
carrying the store salt, simulation options and a private shard
directory), then loops: lease a batch, run each cell as the local
runner's job through :func:`repro.jobs.capture` (``timeout_s``
included), write the finished record — result, or the
:class:`~repro.jobs.JobError` failure record — into its *own shard*
first, and only then report it.  That ordering is the durability
story: if the coordinator dies between the shard write and the report,
the record is recovered from the shard on restart; if the *worker*
dies, the coordinator's lease expiry hands the unfinished cells to
someone else.

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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Mapping

from ..jobs import JobError, capture
from .dispatch import DispatchError, cell_from_wire, recv_message, send_message
from .runner import _simulate_cell
from .store import CampaignStore

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


@contextmanager
def _heartbeat(
    channel: WorkerChannel, worker: str, lease: str, lease_s: float
) -> Iterator[threading.Event]:
    """Extend one lease from a daemon thread while a cell simulates;
    yields an event set once the coordinator says the lease is gone."""
    stop, gone = threading.Event(), threading.Event()

    def beat() -> None:
        while not stop.wait(max(0.05, lease_s / 3.0)):
            try:
                reply = channel.request(
                    {"op": "heartbeat", "worker": worker, "lease": lease}
                )
            except (ConnectionError, OSError):
                # Coordinator unreachable: keep simulating — the record
                # still lands in the shard, and shard merge on
                # coordinator restart recovers it.
                reply = {"op": "gone"}
            if reply.get("op") == "gone":
                gone.set()
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield gone
    finally:
        stop.set()
        thread.join(timeout=5.0)


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
    with socket.create_connection((host, port), timeout=connect_timeout_s) as sock:
        sock.settimeout(None)
        return _serve(WorkerChannel(sock), worker_id=worker_id, shard_dir=shard_dir)


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
            message = {
                "op": "fail", "worker": name, "lease": lease,
                "index": entry["index"], "key": key,
            }
            own_key = shard.key_for(cell)
            if own_key != key:
                # Code-version skew: this worker would simulate
                # *different* work than the key promises.  Refuse the
                # cell rather than poison the store.
                skew = JobError(
                    "KeySkew",
                    f"worker computes key {own_key[:12]}… for a cell leased "
                    f"under {key[:12]}… — worker and coordinator run "
                    "different repro code",
                    "",
                    0.0,
                    source=cell,
                )
                channel.request({**message, "record": shard.failure_payload(skew, key)})
                continue

            with _heartbeat(channel, name, lease, lease_s) as lease_gone:
                outcome = capture(_simulate_cell, (cell, options))
            if isinstance(outcome, JobError):
                failure = replace(outcome, source=cell)
                shard.put_failure(failure, key=key)
                message["record"] = shard.failure_payload(failure, key)
            else:
                shard.put(outcome, key=key)
                message.update(op="complete", record=shard.result_payload(outcome, key))
            ack = channel.request(message)
            completed += 1
            if lease_gone.is_set() or not ack.get("lease_valid", True):
                # The rest of this batch belongs to someone else now.
                break

"""Feed lifecycle: N independent bounded-memory streams, one executor each.

A **feed** is one live capture stream — an uploaded pcap, a socket
pushing frame batches, or an attached simulated scenario — analysed
incrementally by its own
:class:`~repro.pipeline.PipelineExecutor` (``feed``/``snapshot``/
``close``), so a rolling :class:`~repro.core.report.CongestionReport`
is available at any moment without re-reading anything.

Isolation and robustness rules (each pinned by ``tests/serve/``):

* **one worker task per feed** — a corrupt batch, unsorted timestamps
  or a truncated pcap fail *that* feed (state ``failed``, typed error
  recorded, partial report kept); every other feed and the daemon
  itself keep serving;
* **bounded ingest queues** — producers ``await put()`` into an
  :class:`asyncio.Queue` of ``queue_chunks`` segments; a slow consumer
  blocks the producer (TCP backpressure propagates to the client),
  never grows memory;
* **ordered failure** — a producer that hits damage enqueues the fault
  *behind* the clean segments it already queued, so the final report
  covers exactly the intact prefix;
* **graceful drain** — shutdown enqueues end-of-feed behind pending
  segments and waits for every worker, so nothing ingested is dropped.

A segment is whatever the source yields: an uploaded pcap is read in
:func:`~repro.pipeline.pcap_chunks` batches, an attached scenario
yields one segment per one-second drain window, and a pushed batch is
one segment as sent.  The report does not depend on the segmentation,
so no feed takes a size of its own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.report import CongestionReport
from ..frames import NodeRoster, Trace
from ..pipeline import (
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    PipelineExecutor,
    assemble_report,
    create_consumers,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.builder import BuiltScenario

__all__ = [
    "DEFAULT_QUEUE_CHUNKS",
    "Feed",
    "FeedError",
    "FeedManager",
    "UnknownFeedError",
]

#: Default ingest queue bound, in segments.  Small on purpose: the
#: queue is a shock absorber, not a buffer — sustained imbalance must
#: surface as producer backpressure, not memory growth.
DEFAULT_QUEUE_CHUNKS = 8


class UnknownFeedError(KeyError):
    """No feed with that id (never created, or already deleted)."""


@dataclass(frozen=True)
class FeedError:
    """Why a feed failed: typed, with where it happened and how far in."""

    error_type: str
    message: str
    where: str          # "ingest" (producer side) or "analyze" (worker side)
    at_frames: int      # frames successfully analysed before the failure

    def as_dict(self) -> dict[str, object]:
        return {
            "error_type": self.error_type,
            "message": self.message,
            "where": self.where,
            "at_frames": self.at_frames,
        }


class _Eof:
    """Queue sentinel: producer finished cleanly."""


class _Fault:
    """Queue sentinel: producer hit damage after the preceding segments."""

    def __init__(self, error: BaseException, where: str) -> None:
        self.error = error
        self.where = where


class Feed:
    """One live stream and its incremental analysis state.

    States: ``running`` → (``draining`` →) ``closed`` | ``failed``.
    The report is available in every state — rolling (a snapshot of
    the executor) while running, final and cached once closed/failed.
    """

    def __init__(
        self,
        feed_id: str,
        kind: str,
        *,
        roster: NodeRoster | None = None,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
    ) -> None:
        if queue_chunks < 1:
            raise ValueError("queue_chunks must be >= 1")
        self.id = feed_id
        self.kind = kind
        self.state = "running"
        self.roster = roster
        names = DEFAULT_CONSUMERS + (
            ROSTER_CONSUMERS if roster is not None else ()
        )
        self.executor = PipelineExecutor(
            create_consumers(names),
            name=feed_id,
            roster=roster,
        )
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_chunks)
        self.error: FeedError | None = None
        self.done = asyncio.Event()      # set once closed or failed
        self.frames_in = 0               # frames analysed by the worker
        self.batches_in = 0
        self.ingest_errors = 0           # rejected pushes that did NOT kill the feed
        self.put_waits = 0               # producer puts that found the queue full
        loop = asyncio.get_running_loop()
        self.created_at = loop.time()
        self.first_frame_at: float | None = None
        self.last_frame_at: float | None = None
        self._final: CongestionReport | None = None
        self._worker: asyncio.Task | None = None
        self._producer: asyncio.Task | None = None

    # -- producer side ----------------------------------------------------

    async def put(self, segment: Trace) -> None:
        """Queue one time-sorted segment; blocks when the queue is full."""
        if self.state not in ("running",):
            raise RuntimeError(f"feed {self.id} is {self.state}")
        if self.queue.full():
            self.put_waits += 1
        await self.queue.put(segment)

    async def put_eof(self) -> None:
        """Queue the clean end-of-feed marker; the feed starts draining."""
        if self.state == "running":
            self.state = "draining"
        await self.queue.put(_Eof())

    async def put_fault(self, error: BaseException, where: str) -> None:
        """Queue a producer-side failure *behind* already-queued segments."""
        if self.state == "running":
            self.state = "draining"
        await self.queue.put(_Fault(error, where))

    # -- worker side ------------------------------------------------------

    def _process(self, segment: Trace) -> None:
        """Fold one segment into the executor (overridable for tests)."""
        self.executor.feed(segment)

    async def _drive(self) -> None:
        """Per-feed worker: the only task that mutates the executor."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self.queue.get()
            if isinstance(item, _Eof):
                self._finish("closed", None)
                return
            if isinstance(item, _Fault):
                self._finish(
                    "failed",
                    FeedError(
                        error_type=type(item.error).__name__,
                        message=str(item.error),
                        where=item.where,
                        at_frames=self.frames_in,
                    ),
                )
                return
            try:
                self._process(item)
            except Exception as error:
                self._finish(
                    "failed",
                    FeedError(
                        error_type=type(error).__name__,
                        message=str(error),
                        where="analyze",
                        at_frames=self.frames_in,
                    ),
                )
                return
            self.frames_in += len(item)
            self.batches_in += 1
            now = loop.time()
            if self.first_frame_at is None:
                self.first_frame_at = now
            self.last_frame_at = now

    def _finish(self, state: str, error: FeedError | None) -> None:
        self.state = state
        self.error = error
        try:
            self._final = assemble_report(self.executor.close(), name=self.id)
        except Exception as close_error:  # partial state that cannot finalize
            if error is None:
                self.state = "failed"
                self.error = FeedError(
                    error_type=type(close_error).__name__,
                    message=str(close_error),
                    where="analyze",
                    at_frames=self.frames_in,
                )
        self.done.set()

    # -- observation ------------------------------------------------------

    def report(self) -> CongestionReport:
        """The rolling (or final) congestion report, batch-equivalent.

        While the feed is live this snapshots the executor — the result
        is numerically identical to a batch ``run_all`` over everything
        analysed so far.  Closed and failed feeds return their cached
        final report (for failed feeds: the intact prefix).
        """
        if self._final is not None:
            return self._final
        return assemble_report(self.executor.snapshot(), name=self.id)

    def frames_per_sec(self) -> float:
        if (
            self.first_frame_at is None
            or self.last_frame_at is None
            or self.last_frame_at <= self.first_frame_at
        ):
            return 0.0
        return self.frames_in / (self.last_frame_at - self.first_frame_at)

    def info(self) -> dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "frames_in": self.frames_in,
            "batches_in": self.batches_in,
            "queue_depth": self.queue.qsize(),
            "put_waits": self.put_waits,
            "ingest_errors": self.ingest_errors,
            "frames_per_sec": round(self.frames_per_sec(), 1),
            "error": self.error.as_dict() if self.error else None,
        }


class FeedManager:
    """Create, drive, observe and drain the daemon's feeds.

    ``feed_class`` is the (sub)class instantiated per feed — tests use
    it to gate the worker deterministically; production never needs to
    touch it.
    """

    feed_class: type[Feed] = Feed

    def __init__(
        self,
        *,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        max_feeds: int = 64,
    ) -> None:
        if max_feeds < 1:
            raise ValueError("max_feeds must be >= 1")
        self.queue_chunks = queue_chunks
        self.max_feeds = max_feeds
        self.feeds: dict[str, Feed] = {}
        self._next_id = 1
        self._shutting_down = False

    # -- creation ---------------------------------------------------------

    def create_feed(
        self,
        name: str | None = None,
        kind: str = "push",
        *,
        roster: NodeRoster | None = None,
    ) -> Feed:
        """Register a feed and start its worker task."""
        if self._shutting_down:
            raise RuntimeError("server is shutting down; no new feeds")
        if len(self.feeds) >= self.max_feeds:
            raise RuntimeError(
                f"feed limit reached ({self.max_feeds}); delete one first"
            )
        feed_id = name if name else f"feed-{self._next_id}"
        self._next_id += 1
        if feed_id in self.feeds:
            raise ValueError(f"feed {feed_id!r} already exists")
        feed = self.feed_class(
            feed_id,
            kind,
            roster=roster,
            queue_chunks=self.queue_chunks,
        )
        feed._worker = asyncio.get_running_loop().create_task(feed._drive())
        self.feeds[feed_id] = feed
        return feed

    def attach_scenario(
        self,
        built: "BuiltScenario",
        name: str | None = None,
    ) -> Feed:
        """Attach a simulated scenario as a live feed.

        The scenario's ``stream()`` generator runs step by step in the
        default thread-pool executor (each ``next()`` simulates one
        one-second window) so the event loop never blocks on simulation;
        segments flow through the same bounded queue as any other
        producer, so a slow analysis side backpressures the simulation
        too.
        """
        feed = self.create_feed(name, "scenario", roster=built.roster)
        chunks = built.stream()
        feed._producer = asyncio.get_running_loop().create_task(
            self._pump_generator(feed, chunks)
        )
        return feed

    async def _pump_generator(self, feed: Feed, chunks) -> None:
        """Drive a synchronous segment generator into a feed's queue."""
        loop = asyncio.get_running_loop()
        sentinel = object()
        try:
            while True:
                segment = await loop.run_in_executor(
                    None, next, chunks, sentinel
                )
                if segment is sentinel:
                    await feed.put_eof()
                    return
                await feed.put(segment)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            await feed.put_fault(error, "ingest")

    async def ingest_pcap(self, feed: Feed, path) -> int:
        """Stream a pcap file into ``feed`` in bounded batches.

        Returns the number of frames queued.  A truncated or corrupt
        tail queues every clean batch first, then the typed fault —
        the feed fails with its partial report intact.
        """
        from ..pipeline import pcap_chunks

        loop = asyncio.get_running_loop()
        chunks = pcap_chunks(path)
        sentinel = object()
        queued = 0
        while True:
            try:
                segment = await loop.run_in_executor(
                    None, next, chunks, sentinel
                )
            except Exception as error:
                await feed.put_fault(error, "ingest")
                return queued
            if segment is sentinel:
                return queued
            await feed.put(segment)
            queued += len(segment)

    # -- access -----------------------------------------------------------

    def get(self, feed_id: str) -> Feed:
        try:
            return self.feeds[feed_id]
        except KeyError:
            raise UnknownFeedError(feed_id) from None

    async def delete(self, feed_id: str) -> None:
        """Remove a feed, cancelling its tasks if still running."""
        feed = self.get(feed_id)
        del self.feeds[feed_id]
        for task in (feed._producer, feed._worker):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, object]:
        states: dict[str, int] = {}
        for feed in self.feeds.values():
            states[feed.state] = states.get(feed.state, 0) + 1
        return {
            "feeds": len(self.feeds),
            "states": states,
            "frames_total": sum(f.frames_in for f in self.feeds.values()),
            "queue_depth_total": sum(
                f.queue.qsize() for f in self.feeds.values()
            ),
            "put_waits_total": sum(f.put_waits for f in self.feeds.values()),
            "ingest_errors_total": sum(
                f.ingest_errors for f in self.feeds.values()
            ),
            "per_feed": {
                feed_id: feed.info() for feed_id, feed in self.feeds.items()
            },
        }

    # -- shutdown ---------------------------------------------------------

    async def shutdown(self) -> None:
        """Graceful drain: finish every queued segment, then finalize.

        Producers are stopped first (scenario pumps cancelled), then
        end-of-feed is queued behind whatever each feed still holds, and
        every worker is awaited — nothing already ingested is dropped.
        Idempotent.
        """
        self._shutting_down = True
        feeds = list(self.feeds.values())
        for feed in feeds:
            if feed._producer is not None and not feed._producer.done():
                feed._producer.cancel()
                try:
                    await feed._producer
                except (asyncio.CancelledError, Exception):
                    pass
        for feed in feeds:
            if feed.state == "running":
                await feed.put_eof()
        for feed in feeds:
            if feed._worker is not None:
                await feed._worker

"""Feed lifecycle: isolation, bounded queues, ordered faults, drain.

All progress is awaited on ``feed.done`` or zero-delay loop yields —
nothing here depends on wall-clock time.
"""

import asyncio

import pytest

from repro.frames import Trace
from repro.pcap import write_trace
from repro.pipeline import UnsortedStreamError, run_all
from repro.serve import FeedManager, UnknownFeedError
from repro.serve.feeds import Feed
from repro.sim import build_scenario

from ..pipeline.test_equivalence import assert_reports_equal
from .conftest import make_segments, wait_for


class GatedFeed(Feed):
    """A feed whose worker waits for an explicit green light."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = asyncio.Event()

    async def _drive(self):
        await self.gate.wait()
        await super()._drive()


def gated_manager(**kwargs) -> FeedManager:
    manager = FeedManager(**kwargs)
    manager.feed_class = GatedFeed
    return manager


def test_worker_processes_and_closes(segments):
    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        for segment in segments:
            await feed.put(segment)
        await feed.put_eof()
        await feed.done.wait()
        assert feed.state == "closed"
        assert feed.frames_in == sum(len(s) for s in segments)
        assert feed.batches_in == len(segments)
        assert feed.error is None
        assert_reports_equal(
            run_all(iter(segments), name="f"), feed.report()
        )

    asyncio.run(main())


def test_rolling_report_matches_prefix(segments):
    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        analysed = 0
        for k, segment in enumerate(segments, start=1):
            await feed.put(segment)
            analysed += len(segment)
            await wait_for(lambda: feed.frames_in == analysed)
            assert_reports_equal(
                run_all(iter(segments[:k]), name="f"), feed.report()
            )
        await feed.put_eof()
        await feed.done.wait()

    asyncio.run(main())


def test_producer_fault_keeps_prefix(segments):
    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        await feed.put(segments[0])
        await feed.put_fault(ValueError("sniffer unplugged"), "ingest")
        await feed.done.wait()
        assert feed.state == "failed"
        assert feed.error.error_type == "ValueError"
        assert feed.error.where == "ingest"
        assert feed.error.at_frames == len(segments[0])
        assert_reports_equal(
            run_all(iter(segments[:1]), name="f"), feed.report()
        )

    asyncio.run(main())


def test_fault_queued_behind_clean_segments(segments):
    """The fault must not overtake segments already in the queue."""

    async def main():
        manager = gated_manager()
        feed = manager.create_feed("f")
        for segment in segments:
            await feed.put(segment)
        await feed.put_fault(RuntimeError("late damage"), "ingest")
        feed.gate.set()
        await feed.done.wait()
        assert feed.state == "failed"
        assert feed.frames_in == sum(len(s) for s in segments)
        assert feed.error.at_frames == feed.frames_in
        assert_reports_equal(
            run_all(iter(segments), name="f"), feed.report()
        )

    asyncio.run(main())


def test_analyze_failure_is_recorded(segments):
    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        await feed.put(segments[1])       # starts later than segments[0]
        await feed.put(segments[0])       # time goes backwards: analysis fails
        await feed.put_eof()
        await feed.done.wait()
        assert feed.state == "failed"
        assert feed.error.error_type == "UnsortedStreamError"
        assert feed.error.where == "analyze"
        assert feed.error.at_frames == len(segments[1])

    asyncio.run(main())


def test_put_after_eof_rejected(segments):
    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        await feed.put_eof()
        with pytest.raises(RuntimeError, match="draining|closed"):
            await feed.put(segments[0])

    asyncio.run(main())


def test_backpressure_blocks_producer(segments):
    async def main():
        manager = gated_manager(queue_chunks=2)
        feed = manager.create_feed("f")
        extra = make_segments(4)

        async def producer():
            for segment in extra:
                await feed.put(segment)

        task = asyncio.get_running_loop().create_task(producer())
        await wait_for(lambda: feed.queue.full())
        for _ in range(50):                # give it every chance to overfill
            await asyncio.sleep(0)
        assert not task.done()             # third put is blocked
        assert feed.put_waits >= 1
        assert feed.queue.qsize() == 2     # bounded: never grew past the cap
        feed.gate.set()                    # open the drain
        await task                         # producer now completes
        await feed.put_eof()
        await feed.done.wait()
        assert feed.frames_in == sum(len(s) for s in extra)

    asyncio.run(main())


def test_auto_ids_and_duplicates():
    async def main():
        manager = FeedManager()
        assert manager.create_feed().id == "feed-1"
        assert manager.create_feed().id == "feed-2"
        manager.create_feed("named")
        with pytest.raises(ValueError, match="already exists"):
            manager.create_feed("named")
        await manager.shutdown()

    asyncio.run(main())


def test_max_feeds_limit():
    async def main():
        manager = FeedManager(max_feeds=2)
        manager.create_feed()
        manager.create_feed()
        with pytest.raises(RuntimeError, match="feed limit"):
            manager.create_feed()
        await manager.shutdown()

    asyncio.run(main())


def test_no_new_feeds_during_shutdown():
    async def main():
        manager = FeedManager()
        await manager.shutdown()
        with pytest.raises(RuntimeError, match="shutting down"):
            manager.create_feed()

    asyncio.run(main())


def test_delete_cancels_and_forgets(segments):
    async def main():
        manager = gated_manager()
        feed = manager.create_feed("f")
        await feed.put(segments[0])
        await manager.delete("f")          # worker still gated: cancelled
        with pytest.raises(UnknownFeedError):
            manager.get("f")
        assert feed._worker.done()

    asyncio.run(main())


def test_metrics_aggregate(segments):
    async def main():
        manager = FeedManager()
        a = manager.create_feed("a")
        b = manager.create_feed("b")
        await a.put(segments[0])
        await a.put_eof()
        await a.done.wait()
        metrics = manager.metrics()
        assert metrics["feeds"] == 2
        assert metrics["states"] == {"closed": 1, "running": 1}
        assert metrics["frames_total"] == len(segments[0])
        assert set(metrics["per_feed"]) == {"a", "b"}
        assert metrics["per_feed"]["a"]["state"] == "closed"
        await manager.shutdown()

    asyncio.run(main())


def test_shutdown_drains_queued_segments(segments):
    """Nothing already ingested is dropped by a graceful shutdown."""

    async def main():
        manager = gated_manager()
        feed = manager.create_feed("f")
        for segment in segments:
            await feed.put(segment)
        task = asyncio.get_running_loop().create_task(manager.shutdown())
        for _ in range(50):
            await asyncio.sleep(0)
        assert not task.done()             # waiting on the gated worker
        feed.gate.set()
        await task
        assert feed.state == "closed"
        assert feed.frames_in == sum(len(s) for s in segments)
        assert_reports_equal(
            run_all(iter(segments), name="f"), feed.report()
        )

    asyncio.run(main())


def test_shutdown_is_idempotent():
    async def main():
        manager = FeedManager()
        manager.create_feed("f")
        await manager.shutdown()
        await manager.shutdown()

    asyncio.run(main())


@pytest.fixture
def five_frame_batches(monkeypatch):
    """``ingest_pcap`` reads 5-frame batches, so a small capture arrives
    as several segments."""
    import functools

    from repro import pipeline

    monkeypatch.setattr(
        pipeline,
        "pcap_chunks",
        functools.partial(pipeline.pcap_chunks, chunk_frames=5),
    )


def test_ingest_pcap_clean(tmp_path, segments, five_frame_batches):
    path = tmp_path / "ok.pcap"
    rows = [r for s in segments for r in s.iter_rows()]
    write_trace(Trace.from_rows(rows), path)

    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        queued = await manager.ingest_pcap(feed, path)
        await feed.put_eof()
        await feed.done.wait()
        assert queued == feed.frames_in == len(rows)
        assert feed.batches_in == 3  # 5 + 5 + 2 frames
        assert_reports_equal(run_all(path, name="f"), feed.report())

    asyncio.run(main())


def test_ingest_truncated_pcap_fails_feed_with_prefix(
    tmp_path, segments, five_frame_batches
):
    path = tmp_path / "cut.pcap"
    rows = [r for s in segments for r in s.iter_rows()]
    write_trace(Trace.from_rows(rows), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])             # last record loses its tail

    async def main():
        manager = FeedManager()
        feed = manager.create_feed("f")
        await manager.ingest_pcap(feed, path)
        await feed.done.wait()
        assert feed.state == "failed"
        assert feed.error.error_type == "TruncatedPcapError"
        assert feed.error.where == "ingest"
        assert feed.frames_in == len(rows) - 1
        assert feed.batches_in == 3  # clean batches of 5 + 5 + 1 first
        assert feed.report().summary.n_frames == len(rows) - 1

    asyncio.run(main())


def test_attach_scenario_runs_to_completion():
    built = build_scenario("ramp", duration_s=2)
    reference = build_scenario("ramp", duration_s=2)
    expected = run_all(reference.stream(), reference.roster, name="f")

    async def main():
        manager = FeedManager()
        feed = manager.attach_scenario(built, "f")
        await feed.done.wait()
        assert feed.state == "closed"
        assert feed.kind == "scenario"
        assert feed.frames_in > 0
        report = feed.report()
        assert report.ap_activity is not None   # roster consumers attached
        assert_reports_equal(expected, report)

    asyncio.run(main())

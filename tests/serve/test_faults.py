"""Fault injection: every failure stays inside its feed.

The contract under test: a client disconnect, a corrupt batch, unsorted
timestamps, a truncated upload or a crashing analysis kill exactly one
feed — with a typed error record and a report covering the intact
prefix — while the daemon keeps answering on every endpoint and every
other feed keeps flowing.
"""

import asyncio

from repro.frames import Trace
from repro.pcap import write_trace
from repro.pipeline import run_all
from repro.serve import encode_batch, frame_batch, report_to_jsonable, write_batch, write_eof

from .conftest import (
    daemon_running,
    http_json,
    http_request,
    make_segments,
    with_value,
)


async def create_feed(daemon, name):
    status, feed = await http_json(
        daemon.http_port, "POST", "/feeds", {"name": name}
    )
    assert status == 200
    return feed


async def assert_daemon_healthy(daemon):
    status, health = await http_request(daemon.http_port, "GET", "/health")
    assert status == 200
    assert health["status"] == "ok"


def test_client_disconnect_mid_pcap_upload(tmp_path):
    segments = make_segments()
    rows = [r for s in segments for r in s.iter_rows()]
    path = tmp_path / "u.pcap"
    write_trace(Trace.from_rows(rows), path)
    raw = path.read_bytes()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.http_port
            )
            head = (
                f"POST /feeds/f/pcap HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(raw)}\r\n\r\n"
            ).encode()
            writer.write(head + raw[: len(raw) // 2])  # half, then vanish
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            feed = daemon.manager.get("f")
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "ConnectionResetError"
            assert "mid-upload" in feed.error.message
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_tcp_disconnect_mid_batch():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED f\n")
            await write_batch(writer, segments[0])
            framed = frame_batch(encode_batch(segments[1]))
            writer.write(framed[:-6])              # drop mid-payload
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            feed = daemon.manager.get("f")
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "ConnectionResetError"
            assert feed.error.where == "ingest"
            # Report covers exactly the intact prefix.
            _, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert served == report_to_jsonable(
                run_all(iter(segments[:1]), name="f")
            )
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_tcp_batch_with_an_unknown_channel_fails_the_feed_naming_it():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED f\n")
            await write_batch(writer, segments[0])
            await write_batch(writer, with_value(segments[1], "channel", 2, 0))
            # Bounded: a server that accepts the batch waits for more.
            reply = await asyncio.wait_for(reader.readline(), timeout=30)
            writer.close()
            assert reply == b"ERR batch column 'channel' row 2: 0 is not an 802.11b channel\n"
            feed = daemon.manager.get("f")
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "FrameBatchError"
            assert "column 'channel' row 2" in feed.error.message
            assert feed.error.at_frames == len(segments[0])
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_corrupt_tcp_batch_fails_only_that_feed():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "bad")
            await create_feed(daemon, "good")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED bad\n")
            await write_batch(writer, segments[0])
            writer.write(b"JUNKJUNKJUNK")           # bad magic mid-stream
            await writer.drain()
            reply = await reader.readline()
            assert reply.startswith(b"ERR")
            writer.close()
            bad = daemon.manager.get("bad")
            await bad.done.wait()
            assert bad.state == "failed"
            assert bad.error.error_type == "FrameBatchError"
            # The other feed is untouched and still ingests.
            status, reply = await http_request(
                daemon.http_port,
                "POST",
                "/feeds/good/frames",
                encode_batch(segments[1]),
            )
            assert status == 200
            _, info = await http_request(
                daemon.http_port, "GET", "/feeds/good"
            )
            assert info["state"] == "running"
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_out_of_order_timestamps_fail_analysis():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED f\n")
            await write_batch(writer, segments[1])  # later window first
            await write_batch(writer, segments[0])  # time runs backwards
            await write_eof(writer)
            await reader.readline()
            writer.close()
            feed = daemon.manager.get("f")
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "UnsortedStreamError"
            assert feed.error.where == "analyze"
            assert feed.error.at_frames == len(segments[1])
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_worker_crash_is_contained(monkeypatch):
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            feed = daemon.manager.get("f")

            def boom(segment):
                raise RuntimeError("consumer exploded")

            monkeypatch.setattr(feed.executor, "feed", boom)
            await http_request(
                daemon.http_port,
                "POST",
                "/feeds/f/frames",
                encode_batch(segments[0]),
            )
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "RuntimeError"
            assert feed.error.where == "analyze"
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_failures_visible_in_metrics():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "dead")
            await create_feed(daemon, "alive")
            feed = daemon.manager.get("dead")
            await feed.put(segments[0])
            await feed.put_fault(ValueError("injected"), "ingest")
            await feed.done.wait()
            status, metrics = await http_request(
                daemon.http_port, "GET", "/metrics"
            )
            assert metrics["states"] == {"failed": 1, "running": 1}
            record = metrics["per_feed"]["dead"]["error"]
            assert record["error_type"] == "ValueError"
            assert record["where"] == "ingest"
            assert record["at_frames"] == len(segments[0])

    asyncio.run(main())


def test_many_concurrent_feeds_stay_independent():
    """Interleaved pushes across N feeds: every report is exactly its own."""
    n_feeds = 5
    per_feed = {
        f"feed-{i}": make_segments(3, frames_per=2 + 2 * i)
        for i in range(n_feeds)
    }

    async def main():
        async with daemon_running() as daemon:
            for name in per_feed:
                await create_feed(daemon, name)
            # Round-robin interleave: chunk k of every feed, then k+1.
            for k in range(3):
                for name, segments in per_feed.items():
                    status, _ = await http_request(
                        daemon.http_port,
                        "POST",
                        f"/feeds/{name}/frames",
                        encode_batch(segments[k]),
                    )
                    assert status == 200
            for name in per_feed:
                status, info = await http_request(
                    daemon.http_port, "POST", f"/feeds/{name}/eof"
                )
                assert info["state"] == "closed"
            for name, segments in per_feed.items():
                _, served = await http_request(
                    daemon.http_port, "GET", f"/feeds/{name}/report"
                )
                assert served == report_to_jsonable(
                    run_all(iter(segments), name=name)
                )

    asyncio.run(main())


def test_concurrent_tcp_pushers():
    """Two sockets streaming simultaneously; both land exact reports."""
    streams = {"a": make_segments(4, 4), "b": make_segments(4, 6)}

    async def push(daemon, name, segments):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", daemon.ingest_port
        )
        writer.write(f"FEED {name}\n".encode())
        for segment in segments:
            await write_batch(writer, segment)
        await write_eof(writer)
        reply = await reader.readline()
        writer.close()
        return reply

    async def main():
        async with daemon_running() as daemon:
            for name in streams:
                await create_feed(daemon, name)
            replies = await asyncio.gather(
                *(push(daemon, n, s) for n, s in streams.items())
            )
            assert all(r.startswith(b"OK") for r in replies)
            for name, segments in streams.items():
                feed = daemon.manager.get(name)
                await feed.done.wait()
                _, served = await http_request(
                    daemon.http_port, "GET", f"/feeds/{name}/report"
                )
                assert served == report_to_jsonable(
                    run_all(iter(segments), name=name)
                )

    asyncio.run(main())


def test_truncated_pcap_upload_keeps_prefix(tmp_path):
    segments = make_segments()
    rows = [r for s in segments for r in s.iter_rows()]
    path = tmp_path / "cut.pcap"
    write_trace(Trace.from_rows(rows), path)
    raw = path.read_bytes()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            status, _ = await http_request(
                daemon.http_port, "POST", "/feeds/f/pcap", raw[:-9]
            )
            assert status == 200            # upload accepted; damage inside
            feed = daemon.manager.get("f")
            await feed.done.wait()
            assert feed.state == "failed"
            assert feed.error.error_type == "TruncatedPcapError"
            _, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert served["summary"]["frames"] == len(rows) - 1
            await assert_daemon_healthy(daemon)

    asyncio.run(main())


def test_report_of_failed_feed_is_stable():
    """Asking a failed feed twice returns the same cached final report."""
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await create_feed(daemon, "f")
            feed = daemon.manager.get("f")
            await feed.put(segments[0])
            await feed.put_fault(OSError("radio gone"), "ingest")
            await feed.done.wait()
            _, first = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            _, second = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert first == second
            assert first == report_to_jsonable(
                run_all(iter(segments[:1]), name="f")
            )

    asyncio.run(main())

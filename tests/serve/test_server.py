"""HTTP + TCP front end: routes, payloads, and served-report equivalence."""

import asyncio
import json

import pytest

from repro.frames import Trace
from repro.pcap import write_trace
from repro.pipeline import run_all
from repro.serve import (
    encode_batch,
    report_to_jsonable,
    write_batch,
    write_eof,
)

from .conftest import (
    daemon_running,
    http_json,
    http_request,
    make_segments,
    with_value,
)


def test_health_and_metrics():
    async def main():
        async with daemon_running() as daemon:
            status, health = await http_request(
                daemon.http_port, "GET", "/health"
            )
            assert status == 200
            assert health["status"] == "ok"
            assert health["feeds"] == 0
            status, metrics = await http_request(
                daemon.http_port, "GET", "/metrics"
            )
            assert status == 200
            assert metrics["feeds"] == 0
            assert metrics["requests_total"] >= 1

    asyncio.run(main())


def test_unknown_route_404():
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_request(
                daemon.http_port, "GET", "/nope"
            )
            assert status == 404
            assert "no route" in body["error"]

    asyncio.run(main())


def test_unknown_feed_404():
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_request(
                daemon.http_port, "GET", "/feeds/ghost/report"
            )
            assert status == 404
            assert "unknown feed" in body["error"]

    asyncio.run(main())


def test_malformed_request_line_400():
    async def main():
        async with daemon_running() as daemon:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.http_port
            )
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

    asyncio.run(main())


@pytest.mark.parametrize("path", ["/feeds", "/feeds/f/frames"])
def test_negative_content_length_400(path):
    """A negative length is malformed, like a non-integer one — not a
    500 from the body reader."""

    async def main():
        async with daemon_running() as daemon:
            status, _ = await http_json(
                daemon.http_port, "POST", "/feeds", {"name": "f"}
            )
            assert status == 200
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.http_port
            )
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                "Content-Length: -5\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert b" 400 " in head.split(b"\r\n", 1)[0]
            assert json.loads(payload)["error"] == "malformed Content-Length"

    asyncio.run(main())


def test_invalid_json_body_400():
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_request(
                daemon.http_port, "POST", "/feeds", b"{not json"
            )
            assert status == 400
            assert "invalid JSON" in body["error"]

    asyncio.run(main())


def test_create_push_feed_and_info():
    async def main():
        async with daemon_running() as daemon:
            status, feed = await http_json(
                daemon.http_port, "POST", "/feeds", {"name": "cam-1"}
            )
            assert status == 200
            assert feed["id"] == "cam-1"
            assert feed["state"] == "running"
            status, info = await http_request(
                daemon.http_port, "GET", "/feeds/cam-1"
            )
            assert status == 200
            assert info["kind"] == "push"
            status, listing = await http_request(
                daemon.http_port, "GET", "/feeds"
            )
            assert [f["id"] for f in listing["feeds"]] == ["cam-1"]

    asyncio.run(main())


def test_unknown_feed_kind_400():
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_json(
                daemon.http_port, "POST", "/feeds", {"kind": "quantum"}
            )
            assert status == 400

    asyncio.run(main())


def test_unknown_scenario_400():
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_json(
                daemon.http_port,
                "POST",
                "/feeds",
                {"kind": "scenario", "scenario": "not-a-scenario"},
            )
            assert status == 400
            assert "bad scenario" in body["error"]

    asyncio.run(main())


@pytest.mark.parametrize("scenario", ["ramp", "uniform"])
def test_non_finite_scenario_duration_400(scenario):
    async def main():
        async with daemon_running() as daemon:
            status, body = await http_json(
                daemon.http_port,
                "POST",
                "/feeds",
                {
                    "kind": "scenario",
                    "scenario": scenario,
                    "params": {"duration_s": float("inf")},  # JSON Infinity
                },
            )
            assert status == 400
            assert "bad scenario: duration_s must be finite" in body["error"]

    asyncio.run(main())


def test_duplicate_feed_name_409():
    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "x"})
            status, body = await http_json(
                daemon.http_port, "POST", "/feeds", {"name": "x"}
            )
            assert status == 409

    asyncio.run(main())


def test_http_frames_push_and_report_equivalence():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            for segment in segments:
                status, reply = await http_request(
                    daemon.http_port,
                    "POST",
                    "/feeds/f/frames",
                    encode_batch(segment),
                )
                assert status == 200
                assert reply["queued_frames"] == len(segment)
            status, info = await http_request(
                daemon.http_port, "POST", "/feeds/f/eof"
            )
            assert status == 200
            assert info["state"] == "closed"
            status, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert status == 200
            local = report_to_jsonable(run_all(iter(segments), name="f"))
            assert served == local

    asyncio.run(main())


def test_corrupt_http_push_rejected_feed_survives():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            status, body = await http_request(
                daemon.http_port, "POST", "/feeds/f/frames", b"\x00garbage"
            )
            assert status == 400
            status, info = await http_request(
                daemon.http_port, "GET", "/feeds/f"
            )
            assert info["state"] == "running"      # rejection, not death
            assert info["ingest_errors"] == 1
            status, reply = await http_request(    # feed still ingests fine
                daemon.http_port,
                "POST",
                "/feeds/f/frames",
                encode_batch(segments[0]),
            )
            assert status == 200

    asyncio.run(main())


def test_http_push_of_an_unknown_rate_code_is_a_400_and_the_feed_runs_on():
    segments = make_segments()
    bad = with_value(segments[1], "rate_code", 1, 200)

    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            for segment in (segments[0], bad, segments[2]):
                status, reply = await http_request(
                    daemon.http_port,
                    "POST",
                    "/feeds/f/frames",
                    encode_batch(segment),
                )
                if segment is bad:
                    assert status == 400
                    assert "column 'rate_code' row 1: 200" in reply["error"]
                else:
                    assert status == 200
            status, info = await http_request(
                daemon.http_port, "POST", "/feeds/f/eof"
            )
            assert info["state"] == "closed" and info["ingest_errors"] == 1
            _, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            good = iter([segments[0], segments[2]])
            assert served == report_to_jsonable(run_all(good, name="f"))

    asyncio.run(main())


def test_frames_to_closed_feed_409():
    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            await http_request(daemon.http_port, "POST", "/feeds/f/eof")
            status, body = await http_request(
                daemon.http_port,
                "POST",
                "/feeds/f/frames",
                encode_batch(make_segments(1)[0]),
            )
            assert status == 409

    asyncio.run(main())


def test_delete_feed():
    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            status, body = await http_request(
                daemon.http_port, "DELETE", "/feeds/f"
            )
            assert status == 200
            status, _ = await http_request(
                daemon.http_port, "GET", "/feeds/f"
            )
            assert status == 404

    asyncio.run(main())


def test_pcap_upload_report_equivalence(tmp_path):
    segments = make_segments()
    rows = [r for s in segments for r in s.iter_rows()]
    path = tmp_path / "upload.pcap"
    write_trace(Trace.from_rows(rows), path)
    raw = path.read_bytes()

    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            status, reply = await http_request(
                daemon.http_port, "POST", "/feeds/f/pcap", raw
            )
            assert status == 200
            assert reply["queued_frames"] == len(rows)
            status, info = await http_request(
                daemon.http_port, "POST", "/feeds/f/eof"
            )
            assert info["state"] == "closed"
            _, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert served == report_to_jsonable(run_all(path, name="f"))

    asyncio.run(main())


def test_tcp_ingest_clean_stream():
    segments = make_segments()

    async def main():
        async with daemon_running() as daemon:
            await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED f\n")
            for segment in segments:
                await write_batch(writer, segment)
            await write_eof(writer)
            reply = await reader.readline()
            writer.close()
            total = sum(len(s) for s in segments)
            assert reply == f"OK {total}\n".encode()
            _, info = await http_request(
                daemon.http_port, "GET", "/feeds/f"
            )
            assert info["state"] == "closed"
            assert info["frames_in"] == total
            _, served = await http_request(
                daemon.http_port, "GET", "/feeds/f/report"
            )
            assert served == report_to_jsonable(
                run_all(iter(segments), name="f")
            )

    asyncio.run(main())


def test_tcp_ingest_bad_handshake():
    async def main():
        async with daemon_running() as daemon:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"HELLO\n")
            await writer.drain()
            reply = await reader.readline()
            writer.close()
            assert reply.startswith(b"ERR expected")

    asyncio.run(main())


def test_tcp_ingest_unknown_feed():
    async def main():
        async with daemon_running() as daemon:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.ingest_port
            )
            writer.write(b"FEED ghost\n")
            await writer.drain()
            reply = await reader.readline()
            writer.close()
            assert reply.startswith(b"ERR unknown feed")

    asyncio.run(main())


def test_shutdown_endpoint_drains_and_exits():
    segments = make_segments()

    async def main():
        from repro.serve import ServeDaemon

        daemon = ServeDaemon(port=0, ingest_port=0)
        await daemon.start()
        await http_json(daemon.http_port, "POST", "/feeds", {"name": "f"})
        for segment in segments:
            await http_request(
                daemon.http_port,
                "POST",
                "/feeds/f/frames",
                encode_batch(segment),
            )
        status, body = await http_request(
            daemon.http_port, "POST", "/shutdown"
        )
        assert status == 202
        assert body == {"status": "draining"}
        await asyncio.wait_for(daemon.serve_until_shutdown(), timeout=30)
        feed = daemon.manager.get("f")
        assert feed.state == "closed"      # queued frames were drained
        assert feed.frames_in == sum(len(s) for s in segments)
        # The bound ports stay readable after the listeners close: the
        # banner may be printed after a fast POST /shutdown.
        assert daemon.http_port > 0 and daemon.ingest_port > 0

    asyncio.run(main())


def test_scenario_feed_via_http():
    async def main():
        async with daemon_running() as daemon:
            status, feed = await http_json(
                daemon.http_port,
                "POST",
                "/feeds",
                {
                    "kind": "scenario",
                    "scenario": "ramp",
                    "params": {"duration_s": 1},
                    "name": "sim",
                },
            )
            assert status == 200
            assert feed["kind"] == "scenario"
            await daemon.manager.get("sim").done.wait()
            _, info = await http_request(
                daemon.http_port, "GET", "/feeds/sim"
            )
            assert info["state"] == "closed"
            assert info["frames_in"] > 0
            status, report = await http_request(
                daemon.http_port, "GET", "/feeds/sim/report"
            )
            assert status == 200
            assert report["summary"]["frames"] == info["frames_in"]

    asyncio.run(main())

"""Serve-layer test harness: deterministic asyncio, no wall-clock sleeps.

Every test drives the daemon inside one ``asyncio.run()`` — progress is
awaited on events (``feed.done``), completions, or zero-delay yields to
the loop, never timed sleeps, so the suite is immune to machine speed.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.frames import TRACE_SCHEMA, Trace

from ..conftest import ack, data


def make_segments(n_segments: int = 3, frames_per: int = 4) -> list[Trace]:
    """Sorted, non-overlapping DATA/ACK segments (one exchange per 10 ms)."""
    segments = []
    t = 0
    for _ in range(n_segments):
        rows = []
        for _ in range(frames_per // 2):
            rows.append(data(t + 1_000, src=10, dst=1, size=1000))
            rows.append(ack(t + 2_400, src=1, dst=10))
            t += 10_000
        segments.append(Trace.from_rows(rows))
    return segments


def with_value(trace: Trace, column: str, row: int, value) -> Trace:
    """``trace`` with one cell overwritten (bypassing every check)."""
    cols = {name: trace.column(name).copy() for name, _ in TRACE_SCHEMA}
    cols[column][row] = value
    return Trace(cols)


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert len(a) == len(b)
    for name, _ in TRACE_SCHEMA:
        assert np.array_equal(a.column(name), b.column(name)), name


async def spin(cycles: int = 50) -> None:
    """Yield to the event loop ``cycles`` times (no wall-clock delay)."""
    for _ in range(cycles):
        await asyncio.sleep(0)


async def wait_for(predicate, cycles: int = 10_000) -> None:
    """Spin the loop until ``predicate()`` holds (bounded, deterministic)."""
    for _ in range(cycles):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"condition never held: {predicate}")


async def http_request(
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    host: str = "127.0.0.1",
):
    """One HTTP/1.1 exchange against the daemon; returns (status, json)."""
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    return status, json.loads(payload)


async def http_json(port: int, method: str, path: str, obj) -> tuple:
    return await http_request(port, method, path, json.dumps(obj).encode())


class daemon_running:
    """``async with daemon_running() as d:`` — started, always shut down."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("ingest_port", 0)
        self.kwargs = kwargs

    async def __aenter__(self):
        from repro.serve import ServeDaemon

        self.daemon = ServeDaemon(**self.kwargs)
        await self.daemon.start()
        return self.daemon

    async def __aexit__(self, exc_type, exc, tb):
        await self.daemon.shutdown()
        return False


@pytest.fixture
def segments():
    return make_segments()

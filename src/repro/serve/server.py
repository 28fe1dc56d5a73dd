"""The always-on analysis daemon: JSON over HTTP, frames over TCP.

One resident :class:`ServeDaemon` multiplexes any number of live feeds
through incremental pipeline executors and answers, at any moment,
"is this feed congested right now?" — without re-reading anything.

Endpoints (all JSON; stdlib ``asyncio`` streams, no frameworks)::

    GET    /health                   liveness + feed/uptime counters
    GET    /metrics                  daemon + per-feed metrics
    GET    /feeds                    list feeds
    POST   /feeds                    create: {"kind": "push"|"scenario", ...}
    GET    /feeds/<id>               one feed's state
    GET    /feeds/<id>/report        rolling CongestionReport (JSON view)
    POST   /feeds/<id>/pcap          upload a radiotap pcap (raw body)
    POST   /feeds/<id>/frames        push one protocol batch payload
    POST   /feeds/<id>/eof           end the feed cleanly (drain + finalize)
    DELETE /feeds/<id>               remove a feed
    POST   /shutdown                 graceful drain, then exit

A second listener (the *ingest* port) accepts length-prefixed frame
batches per :mod:`repro.serve.protocol` — ``FEED <id>\\n`` then framed
batches — with TCP backpressure propagating straight from the feed's
bounded queue to the pushing client.

Fault containment is the design center: every per-feed failure (corrupt
batch, unsorted timestamps, truncated pcap, client disconnect) lands in
that feed's error record and ``/metrics``; the daemon keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from urllib.parse import unquote

from .feeds import DEFAULT_QUEUE_CHUNKS, FeedManager, UnknownFeedError
from .protocol import FrameBatchError, decode_batch, read_batches
from .reportjson import report_to_jsonable
from ..store import write_atomic

__all__ = ["ServeDaemon", "serve_main"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_JSON_BODY = 1024 * 1024
_BODY_CHUNK = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeDaemon:
    """The resident multi-feed analysis process (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ingest_port: int | None = 0,
        *,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        max_feeds: int = 64,
        spool_dir: str | None = None,
    ) -> None:
        self.host = host
        self._want_port = port
        self._want_ingest = ingest_port
        self.manager = FeedManager(
            queue_chunks=queue_chunks,
            max_feeds=max_feeds,
        )
        self.spool_dir = spool_dir
        self.requests_total = 0
        self.requests_failed = 0
        self.ingest_connections = 0
        self._http_server: asyncio.AbstractServer | None = None
        self._ingest_server: asyncio.AbstractServer | None = None
        #: Bound ports, recorded once in :meth:`start`: a closed
        #: server's ``sockets`` is empty, so they cannot be read later.
        self.http_port: int | None = None
        self.ingest_port: int | None = None
        self._started_at: float | None = None
        self._shutdown_done = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the HTTP (and optional ingest) listeners."""
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, self._want_port
        )
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        if self._want_ingest is not None:
            self._ingest_server = await asyncio.start_server(
                self._handle_ingest, self.host, self._want_ingest
            )
            self.ingest_port = self._ingest_server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._shutdown_done.wait()

    async def shutdown(self) -> None:
        """Stop accepting, drain every feed, finalize reports.  Idempotent."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self._do_shutdown()
            )
        await asyncio.shield(self._shutdown_task)

    async def _do_shutdown(self) -> None:
        for server in (self._http_server, self._ingest_server):
            if server is not None:
                server.close()
        await self.manager.shutdown()
        for server in (self._http_server, self._ingest_server):
            if server is not None:
                await server.wait_closed()
        self._shutdown_done.set()

    # -- HTTP plumbing ----------------------------------------------------

    async def _handle_http(self, reader, writer) -> None:
        self.requests_total += 1
        try:
            method, path, headers = await self._read_request_head(reader)
            status, payload = await self._route(method, path, headers, reader)
        except _HttpError as error:
            self.requests_failed += 1
            status, payload = error.status, {"error": str(error)}
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            writer.close()
            return
        except Exception as error:  # never take the daemon down on a request
            self.requests_failed += 1
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _read_request_head(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return method.upper(), unquote(target.split("?", 1)[0]), headers

    async def _read_body(self, reader, headers, limit: int) -> bytes:
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > limit:
            raise _HttpError(413, f"body of {length} bytes exceeds {limit}")
        if length == 0:
            return b""
        return await reader.readexactly(length)

    def _json_body(self, raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    # -- routing ----------------------------------------------------------

    async def _route(self, method, path, headers, reader):
        parts = [p for p in path.split("/") if p]
        if path == "/health" and method == "GET":
            return 200, self._health()
        if path == "/metrics" and method == "GET":
            return 200, self._metrics()
        if path == "/shutdown" and method == "POST":
            if self._shutdown_task is None:
                self._shutdown_task = asyncio.get_running_loop().create_task(
                    self._do_shutdown()
                )
            return 202, {"status": "draining"}
        if path == "/feeds" and method == "GET":
            return 200, {
                "feeds": [f.info() for f in self.manager.feeds.values()]
            }
        if path == "/feeds" and method == "POST":
            raw = await self._read_body(reader, headers, _MAX_JSON_BODY)
            return await self._create_feed(self._json_body(raw))
        if len(parts) >= 2 and parts[0] == "feeds":
            return await self._feed_route(method, parts, headers, reader)
        raise _HttpError(404, f"no route for {method} {path}")

    async def _feed_route(self, method, parts, headers, reader):
        feed_id = parts[1]
        try:
            feed = self.manager.get(feed_id)
        except UnknownFeedError:
            raise _HttpError(404, f"unknown feed {feed_id!r}") from None
        tail = parts[2] if len(parts) == 3 else None
        if tail is None and method == "GET":
            return 200, feed.info()
        if tail is None and method == "DELETE":
            await self.manager.delete(feed_id)
            return 200, {"deleted": feed_id}
        if tail == "report" and method == "GET":
            return 200, report_to_jsonable(feed.report())
        if tail == "pcap" and method == "POST":
            return await self._upload_pcap(feed, headers, reader)
        if tail == "frames" and method == "POST":
            return await self._push_frames(feed, headers, reader)
        if tail == "eof" and method == "POST":
            if feed.state != "running":
                raise _HttpError(409, f"feed {feed.id} is {feed.state}")
            await feed.put_eof()
            await feed.done.wait()
            return 200, feed.info()
        raise _HttpError(404, f"no route for {method} /feeds/{feed_id}/{tail}")

    # -- handlers ---------------------------------------------------------

    def _health(self) -> dict:
        loop = asyncio.get_running_loop()
        uptime = loop.time() - self._started_at if self._started_at else 0.0
        states = self.manager.metrics()["states"]
        return {
            "status": "draining" if self._shutdown_task else "ok",
            "uptime_s": round(uptime, 3),
            "feeds": len(self.manager.feeds),
            "states": states,
        }

    def _metrics(self) -> dict:
        metrics = self.manager.metrics()
        metrics.update(
            requests_total=self.requests_total,
            requests_failed=self.requests_failed,
            ingest_connections=self.ingest_connections,
        )
        return metrics

    async def _create_feed(self, body: dict):
        kind = body.get("kind", "push")
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise _HttpError(400, "feed name must be a string")
        try:
            if kind == "push":
                feed = self.manager.create_feed(name, "push")
            elif kind == "scenario":
                scenario = body.get("scenario")
                if not isinstance(scenario, str):
                    raise _HttpError(
                        400, "scenario feeds need a 'scenario' name"
                    )
                params = body.get("params", {})
                if not isinstance(params, dict):
                    raise _HttpError(400, "'params' must be an object")
                loop = asyncio.get_running_loop()
                from ..sim import build_scenario

                try:
                    built = await loop.run_in_executor(
                        None, lambda: build_scenario(scenario, **params)
                    )
                except (TypeError, ValueError, KeyError) as error:
                    raise _HttpError(400, f"bad scenario: {error}") from None
                feed = self.manager.attach_scenario(built, name)
            else:
                raise _HttpError(400, f"unknown feed kind {kind!r}")
        except (RuntimeError, ValueError) as error:
            raise _HttpError(409, str(error)) from None
        return 200, feed.info()

    async def _upload_pcap(self, feed, headers, reader):
        if feed.state != "running":
            raise _HttpError(409, f"feed {feed.id} is {feed.state}")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length <= 0:
            raise _HttpError(400, "pcap upload needs a Content-Length body")
        # Spool to disk in bounded reads: the daemon's memory never holds
        # a whole capture, whatever its size.
        fd, spool = tempfile.mkstemp(
            suffix=".pcap", prefix=f"{feed.id}-", dir=self.spool_dir
        )
        try:
            remaining = length
            with os.fdopen(fd, "wb") as out:
                while remaining:
                    try:
                        block = await reader.readexactly(
                            min(remaining, _BODY_CHUNK)
                        )
                    except asyncio.IncompleteReadError as error:
                        # Client vanished mid-upload: that feed fails
                        # (visible in /metrics); the daemon lives on.
                        await feed.put_fault(
                            ConnectionResetError(
                                "client disconnected mid-upload "
                                f"({length - remaining + len(error.partial)}"
                                f"/{length} bytes)"
                            ),
                            "ingest",
                        )
                        raise
                    out.write(block)
                    remaining -= len(block)
            queued = await self.manager.ingest_pcap(feed, spool)
            return 200, {"queued_frames": queued, "state": feed.state}
        finally:
            try:
                os.unlink(spool)
            except OSError:
                pass

    async def _push_frames(self, feed, headers, reader):
        if feed.state != "running":
            raise _HttpError(409, f"feed {feed.id} is {feed.state}")
        raw = await self._read_body(
            reader, headers, limit=64 * 1024 * 1024
        )
        try:
            segment = decode_batch(raw)
        except FrameBatchError as error:
            # A corrupt HTTP push is the *pusher's* fault: reject the
            # batch, keep the feed alive, count the rejection.
            feed.ingest_errors += 1
            raise _HttpError(400, str(error)) from None
        await feed.put(segment)
        return 200, {
            "queued_frames": len(segment),
            "queue_depth": feed.queue.qsize(),
        }

    # -- TCP ingest -------------------------------------------------------

    async def _handle_ingest(self, reader, writer) -> None:
        """``FEED <id>\\n`` then length-prefixed batches (see protocol)."""
        self.ingest_connections += 1
        feed = None
        try:
            line = await reader.readline()
            words = line.decode("latin-1").split()
            if len(words) != 2 or words[0] != "FEED":
                writer.write(b"ERR expected 'FEED <id>'\n")
                return
            try:
                feed = self.manager.get(words[1])
            except UnknownFeedError:
                writer.write(f"ERR unknown feed {words[1]}\n".encode())
                return
            if feed.state != "running":
                writer.write(f"ERR feed is {feed.state}\n".encode())
                return
            frames = 0
            async for segment in read_batches(reader):
                await feed.put(segment)
                frames += len(segment)
            # Clean end-of-feed marker received: drain and finalize.
            await feed.put_eof()
            writer.write(f"OK {frames}\n".encode())
        except FrameBatchError as error:
            # Mid-stream corruption poisons the stream's framing: the
            # feed fails (prefix report kept), the daemon keeps serving.
            await feed.put_fault(error, "ingest")
            writer.write(f"ERR {error}\n".encode())
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ) as error:
            if feed is not None and feed.state == "running":
                await feed.put_fault(
                    ConnectionResetError(
                        f"ingest connection lost: {error}"
                    ),
                    "ingest",
                )
        finally:
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()


async def serve_main(
    host: str = "127.0.0.1",
    port: int = 8433,
    ingest_port: int | None = 0,
    *,
    queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
    max_feeds: int = 64,
    port_file: str | None = None,
    ready_message: bool = True,
) -> int:
    """Run a daemon until SIGINT/SIGTERM or ``POST /shutdown``; returns 0.

    ``port_file`` (for smoke tests and supervisors) gets a JSON
    ``{"http_port": ..., "ingest_port": ...}`` once the listeners are
    bound — the reliable way to use ephemeral ports.
    """
    import signal

    daemon = ServeDaemon(
        host,
        port,
        ingest_port,
        queue_chunks=queue_chunks,
        max_feeds=max_feeds,
    )
    await daemon.start()
    if port_file:
        payload = json.dumps(
            {"http_port": daemon.http_port, "ingest_port": daemon.ingest_port}
        )
        # In the default executor, so a slow filesystem never stalls the
        # freshly started loop.
        await asyncio.get_running_loop().run_in_executor(
            None, write_atomic, port_file, payload.encode()
        )
    if ready_message:
        ingest = daemon.ingest_port
        print(
            f"repro serve: http://{host}:{daemon.http_port} "
            + (f"(ingest tcp port {ingest}) " if ingest else "")
            + "— POST /shutdown or Ctrl-C to drain and exit",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                sig, lambda: loop.create_task(daemon.shutdown())
            )
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    await daemon.serve_until_shutdown()
    return 0

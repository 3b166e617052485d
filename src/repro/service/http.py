"""Minimal asyncio HTTP/1.1 frontend for the discovery service.

No web framework ships in this environment, so the wire layer is a
hand-rolled ``asyncio.start_server`` loop: request-line + header parse,
``Content-Length`` bodies, keep-alive, and a streaming path for the
``/events`` server-sent-events feed.  Everything semantic lives in
:class:`~repro.service.app.DiscoveryApp`; this module only moves bytes,
which keeps the deterministic surface (the app) separable from the
wall-clock one (sockets, polling).

``GET /events?follow=1`` upgrades to a true SSE stream: the connection
stays open and retained frames are flushed as the bridge produces them,
polling at ``poll_interval`` seconds.  Without ``follow`` the endpoint
answers one poll (the app's behaviour), which is what conformance
replays — a long-lived stream has no canonical byte length.

:class:`ServiceThread` runs the whole loop in a daemon thread for
synchronous callers (tests, the load harness): enter the context
manager, get a base URL on an OS-assigned port, make requests with any
blocking client.
"""

from __future__ import annotations

import asyncio
import threading
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import DiscoveryApp, Request, Response, _error

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: bodies larger than this are answered 413 without being read
MAX_BODY_BYTES = 1 << 20

#: header lines beyond this count are answered 431
MAX_HEADER_LINES = 100

#: longest request or header line (the ``StreamReader`` default limit);
#: a longer request line is answered 414, a longer header line 431
MAX_LINE_BYTES = 1 << 16


class ServiceServer:
    """One listening socket in front of one :class:`DiscoveryApp`."""

    def __init__(
        self,
        app: DiscoveryApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        poll_interval: float = 0.05,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_forever(self, *, for_seconds: float | None = None) -> None:
        """Serve until :meth:`stop` (or for a bounded wall-clock time)."""
        if self._server is None:
            await self.start()
        if for_seconds is not None:
            try:
                await asyncio.wait_for(
                    self._stopping.wait(), timeout=for_seconds
                )
            except asyncio.TimeoutError:
                pass
            await self.stop()
        else:
            await self._stopping.wait()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping.is_set():
                request = await self._read_request(reader)
                if request is None:
                    break
                if isinstance(request, Response):
                    # the request's framing is unknown: answer, then close
                    await self._write_response(writer, request, False)
                    break
                method, target, headers, body = request
                path, query = _split_target(target)
                if (
                    method == "GET"
                    and path == "/events"
                    and query.get("follow") == "1"
                ):
                    await self._stream_events(writer, query, headers)
                    break
                try:
                    response = self.app.handle(
                        Request(method, path, query, body)
                    )
                except Exception as exc:  # noqa: BLE001 — 500, keep serving
                    response = Response(
                        500,
                        (f'{{"error":"internal: {type(exc).__name__}"}}\n')
                        .encode("utf-8"),
                    )
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | Response | None:
        """The next request, an error :class:`Response` for a request
        that cannot be framed, or ``None`` to close the connection."""
        try:
            line = await reader.readline()
        except ValueError:  # no newline within MAX_LINE_BYTES
            return _error(414, f"request line over {MAX_LINE_BYTES} bytes")
        if not line or not line.strip():
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            version = ""
        if not version.startswith("HTTP/"):
            return _error(400, "malformed request line")
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            try:
                raw = await reader.readline()
            except ValueError:
                return _error(
                    431, f"header line over {MAX_LINE_BYTES} bytes"
                )
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return _error(431, f"more than {MAX_HEADER_LINES} header lines")
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            return _error(400, f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            return _error(413, f"body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        reason = _STATUS_TEXT.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in response.headers)
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )
        await writer.drain()

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        query: dict[str, str],
        headers: dict[str, str],
    ) -> None:
        """Long-lived SSE: flush frames as the bridge retains them.

        A reconnecting EventSource client sends ``Last-Event-ID`` — the
        id of the last frame it saw — so the resume cursor is that id
        plus one.  The header wins over ``since``: it is what the
        browser machinery actually retransmits.  Bad ``since``,
        ``max_frames`` or ``Last-Event-ID`` values are answered with a
        400 before any stream byte is written.
        """
        cursor = DiscoveryApp._int_param(query, "since", 0)
        remaining = DiscoveryApp._int_param(query, "max_frames", None)
        if remaining == 0:
            remaining = _error(400, "max_frames must be >= 1")
        last_id = headers.get("last-event-id", "")
        if last_id and not (last_id.isascii() and last_id.isdigit()):
            last_id = _error(
                400, f"Last-Event-ID must be an event id, got {last_id!r}"
            )
        for bad in (cursor, remaining, last_id):
            if isinstance(bad, Response):
                await self._write_response(writer, bad, False)
                return
        if last_id:
            cursor = int(last_id) + 1
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        sse = self.app.world.sse
        while not self._stopping.is_set():
            limit = remaining if remaining is not None else None
            frames, cursor = sse.frames_since(cursor, limit=limit)
            if frames:
                writer.write("".join(frames).encode("utf-8"))
                await writer.drain()
                if remaining is not None:
                    remaining -= len(frames)
                    if remaining <= 0:
                        return
            await asyncio.sleep(self.poll_interval)


def _split_target(target: str) -> tuple[str, dict[str, str]]:
    split = urlsplit(target)
    return split.path, dict(parse_qsl(split.query))


class ServiceThread:
    """Run a :class:`ServiceServer` on a background daemon thread.

    >>> with ServiceThread(app) as svc:          # doctest: +SKIP
    ...     urllib.request.urlopen(svc.url + "/health")
    """

    def __init__(
        self, app: DiscoveryApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.url = ""
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._server: ServiceServer | None = None

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service thread failed to start")
        return self

    def __exit__(self, *exc_info: object) -> None:
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=10.0
            )
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        async def main() -> None:
            self._server = ServiceServer(self.app, self.host, self.port)
            await self._server.start()
            self._loop = asyncio.get_running_loop()
            self.url = self._server.url
            self._started.set()
            await self._server.serve_forever()

        asyncio.run(main())

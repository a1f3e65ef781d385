"""Front ends for the analysis service: hand-rolled HTTP and stdio.

No third-party web framework — the container deliberately serves with
only the standard library, so this module speaks just enough HTTP/1.1
over raw asyncio streams:

* ``GET /v1/health`` — liveness: ``{"ok": true}``.
* ``GET /v1/stats``  — the service counter snapshot.
* ``POST /v1/analyze`` — body is one request document (see
  :mod:`repro.serve.service`); the response is the result document.
  With ``?stream=1`` the response is newline-delimited JSON
  (``application/x-ndjson``, ``Connection: close``): obs event
  documents as the job runs, then a final ``{"kind": "result", ...}``
  line.

The stdio front end speaks JSON lines: each input line is
``{"id": ..., "request": {...}, "stream": true?}``; output lines are
``{"id", "kind": "event"|"result", ...}``.  A line that is not a JSON
object gets a result line with a null id and an error, and the loop
reads on.  Requests on either front end all feed the same
:class:`~repro.serve.service.AnalysisService`, so they coalesce into
shared waves and share the store.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Optional, Tuple

from .service import AnalysisService

_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Events buffered per streaming subscriber before the oldest-first
#: pump falls behind and new events are dropped (counted, reported).
_STREAM_QUEUE_LIMIT = 256


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _error_status(result: dict) -> str:
    if result.get("error") == "deadline":
        return "504 Gateway Timeout"
    return "400 Bad Request"


class StreamBuffer:
    """A bounded per-subscriber event queue between service and socket.

    The service's event forwarder calls :meth:`offer` on the loop; a
    pump task dequeues and writes, awaiting the transport's ``drain()``
    after every line so a slow client applies backpressure to the pump
    instead of growing the write buffer without bound.  When the client
    is slower than the event stream, the bounded queue fills and the
    newest events are dropped (counted in :attr:`dropped`) — memory
    stays flat, the job never blocks.
    """

    def __init__(self, limit: int = _STREAM_QUEUE_LIMIT) -> None:
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=max(1, limit))
        self.dropped = 0

    def offer(self, doc: dict) -> None:
        """Enqueue one event document; full queue drops it (counted)."""
        try:
            self._queue.put_nowait(doc)
        except asyncio.QueueFull:
            self.dropped += 1

    async def pump(self, write) -> None:
        """Drain the queue through ``await write(doc)`` until closed."""
        while True:
            doc = await self._queue.get()
            if doc is None:
                return
            await write(doc)

    async def close(self) -> None:
        """Signal end-of-stream; waits for a slot behind queued events."""
        await self._queue.put(None)


def _response(status: str, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class HttpFrontend:
    """A minimal asyncio HTTP server over one :class:`AnalysisService`."""

    def __init__(self, service: AnalysisService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the (host, port) actually bound."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            await self._handle_request(reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            writer.write(_response("431 Request Header Fields Too Large",
                                   _json_bytes({"error": "headers too large"})))
            await writer.drain()
            return
        if len(head) > _MAX_HEADER_BYTES:
            writer.write(_response("431 Request Header Fields Too Large",
                                   _json_bytes({"error": "headers too large"})))
            await writer.drain()
            return
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            writer.write(_response("400 Bad Request",
                                   _json_bytes({"error": "bad request line"})))
            await writer.drain()
            return
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        path, _, query = target.partition("?")

        if method == "GET" and path == "/v1/health":
            writer.write(_response("200 OK", _json_bytes({"ok": True})))
            await writer.drain()
            return
        if method == "GET" and path == "/v1/stats":
            writer.write(_response("200 OK",
                                   _json_bytes(self.service.stats_doc())))
            await writer.drain()
            return
        if method != "POST" or path != "/v1/analyze":
            writer.write(_response("404 Not Found",
                                   _json_bytes({"error": f"no route {path}"})))
            await writer.drain()
            return

        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            writer.write(_response("413 Payload Too Large",
                                   _json_bytes({"error": "bad content-length"})))
            await writer.drain()
            return
        body = await reader.readexactly(length) if length else b""
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            writer.write(_response("400 Bad Request",
                                   _json_bytes({"error": "body is not JSON"})))
            await writer.drain()
            return

        stream = "stream=1" in query.split("&")
        if not stream:
            result = await self.service.submit(request)
            status = _error_status(result) if "error" in result else "200 OK"
            writer.write(_response(status, _json_bytes(result)))
            await writer.drain()
            return

        # Streaming: NDJSON, close-delimited (no Content-Length).
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

        # Events go through a bounded queue: the job is never blocked
        # by a slow client, and the pump drains the socket between
        # writes so a stalled reader cannot balloon the write buffer.
        buffer = StreamBuffer()

        async def write_event(doc: dict) -> None:
            if writer.is_closing():
                return
            writer.write(_json_bytes({"kind": "event", "event": doc}))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

        pump = asyncio.ensure_future(buffer.pump(write_event))
        try:
            result = await self.service.submit(request, on_event=buffer.offer)
        finally:
            await buffer.close()
            await pump
        if not writer.is_closing():
            doc = dict(result, kind="result")
            if buffer.dropped:
                doc["dropped_events"] = buffer.dropped
            writer.write(_json_bytes(doc))
            await writer.drain()


async def handle_stdio_lines(service: AnalysisService, reader, write_line) -> None:
    """The stdio protocol core, front-end-testable without real pipes.

    ``reader`` is an async line iterator (e.g. an
    :class:`asyncio.StreamReader`); ``write_line`` takes one ``str``
    (without the newline) and must be safe to call from the event loop.
    """
    await service.start()
    tasks = []

    async def answer(doc: dict) -> None:
        request_id = doc.get("id")
        request = doc.get("request")

        def forward(event_doc: dict) -> None:
            write_line(json.dumps(
                {"id": request_id, "kind": "event", "event": event_doc},
                sort_keys=True,
            ))

        result = await service.submit(
            request, on_event=forward if doc.get("stream") else None
        )
        write_line(json.dumps(
            {"id": request_id, "kind": "result", "result": result},
            sort_keys=True,
        ))

    while True:
        raw = await reader.readline()
        if not raw:
            break
        line = raw.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            error = f"input line is not JSON: {exc}"
        else:
            error = None if isinstance(doc, dict) else (
                f"input line must be a JSON object, not {type(doc).__name__}"
            )
        if error is not None:
            write_line(json.dumps(
                {"id": None, "kind": "result", "result": {"error": error}},
                sort_keys=True,
            ))
            continue
        # Concurrent requests coalesce into waves; answer out of order.
        tasks.append((doc.get("id"), asyncio.ensure_future(answer(doc))))
    if tasks:
        # One crashed request must not swallow its siblings' answers:
        # capture exceptions and emit an error result line per failed id.
        outcomes = await asyncio.gather(
            *(task for _request_id, task in tasks), return_exceptions=True
        )
        for (request_id, _task), outcome in zip(tasks, outcomes):
            if isinstance(outcome, BaseException):
                write_line(json.dumps(
                    {"id": request_id, "kind": "result",
                     "result": {"error": f"request failed: {outcome}"}},
                    sort_keys=True,
                ))


async def serve_stdio(service: AnalysisService) -> None:
    """Wire :func:`handle_stdio_lines` to the process's real stdio."""
    loop = asyncio.get_event_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    def write_line(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    await handle_stdio_lines(service, reader, write_line)


async def serve_forever(
    service: AnalysisService,
    http_port: Optional[int] = None,
    host: str = "127.0.0.1",
    stdio: bool = False,
    ready=print,
) -> None:
    """Run the requested front ends until stdio EOF / cancellation."""
    frontend = None
    try:
        if http_port is not None:
            frontend = HttpFrontend(service, host=host, port=http_port)
            bound_host, bound_port = await frontend.start()
            ready(f"serving http on {bound_host}:{bound_port}")
        if stdio:
            ready("serving stdio (JSON lines; EOF stops)")
            await serve_stdio(service)
        elif frontend is not None:
            await asyncio.Event().wait()  # until cancelled
    finally:
        if frontend is not None:
            await frontend.stop()
        await service.stop()

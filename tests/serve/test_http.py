"""Tests for the hand-rolled HTTP and stdio front ends."""

import asyncio
import json

import pytest

from repro.serve import AnalysisService
from repro.serve.http import HttpFrontend, StreamBuffer, handle_stdio_lines

RING = {"topology": "ring", "size": 4, "marks": []}
WITNESS = {
    "weaker": "Q", "stronger": "L", "max_processors": 2,
    "max_names": 2, "max_variables": 2, "allow_marks": False, "limit": None,
}


async def _http_roundtrip(port, method, path, body=None):
    """One HTTP/1.1 exchange; returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()  # Connection: close delimits the response
    writer.close()
    await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rest


def _with_frontend(test):
    """Run ``test(port)`` against a live front end on an ephemeral port."""

    async def go():
        service = AnalysisService()
        frontend = HttpFrontend(service, port=0)
        try:
            _, port = await frontend.start()
            return await test(port)
        finally:
            await frontend.stop()
            await service.stop()

    return asyncio.run(go())


class TestHttpRoutes:
    def test_health(self):
        async def t(port):
            return await _http_roundtrip(port, "GET", "/v1/health")

        status, headers, body = _with_frontend(t)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"ok": True}

    def test_stats(self):
        async def t(port):
            return await _http_roundtrip(port, "GET", "/v1/stats")

        status, _, body = _with_frontend(t)
        assert status == 200
        assert json.loads(body)["op"] == "stats"

    def test_analyze_similarity(self):
        async def t(port):
            return await _http_roundtrip(
                port, "POST", "/v1/analyze",
                {"op": "similarity", "scenario": RING},
            )

        status, _, body = _with_frontend(t)
        assert status == 200
        doc = json.loads(body)
        assert doc["op"] == "similarity"
        assert doc["classes"] == [["p0", "p1", "p2", "p3"]]

    def test_unknown_route_404(self):
        async def t(port):
            return await _http_roundtrip(port, "GET", "/nope")

        status, _, body = _with_frontend(t)
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_bad_body_400(self):
        async def t(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payload = b"this is not json"
            writer.write(
                b"POST /v1/analyze HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload) + payload
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = _with_frontend(lambda port: t(port))
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_body_nested_too_deep_is_400(self):
        async def t(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payload = b"[" * 100000
            writer.write(
                b"POST /v1/analyze HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload) + payload
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        head, _, body = _with_frontend(t).partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert json.loads(body) == {"error": "body is not JSON"}

    def test_bad_op_is_400_with_error_doc(self):
        async def t(port):
            return await _http_roundtrip(
                port, "POST", "/v1/analyze", {"op": "frobnicate"}
            )

        status, _, body = _with_frontend(t)
        assert status == 400
        assert "unknown op" in json.loads(body)["error"]

    def test_streaming_ndjson(self):
        async def t(port):
            return await _http_roundtrip(
                port, "POST", "/v1/analyze?stream=1",
                {"op": "witness", "spec": WITNESS},
            )

        status, headers, body = _with_frontend(t)
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        docs = [json.loads(line) for line in body.splitlines() if line]
        assert docs[-1]["kind"] == "result"
        assert docs[-1]["op"] == "witness"
        event_kinds = {d["event"]["kind"] for d in docs if d["kind"] == "event"}
        assert event_kinds & {"witness-shard", "witness"}


    def test_streamed_repeat_gets_only_its_result_line(self):
        """A repeat is answered from the memo: no job runs, so no events."""
        request = {"op": "witness", "spec": WITNESS}

        async def t(port):
            first = await _http_roundtrip(
                port, "POST", "/v1/analyze?stream=1", request
            )
            again = await _http_roundtrip(
                port, "POST", "/v1/analyze?stream=1", request
            )
            return first[2], again

        first_body, (status, headers, body) = _with_frontend(t)
        first = [json.loads(line) for line in first_body.splitlines() if line]
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert any(doc["kind"] == "event" for doc in first)
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        assert [doc["kind"] for doc in lines] == ["result"]
        assert lines[0]["cache_misses"] == 0
        assert dict(lines[0], cache_misses=0) == dict(first[-1], cache_misses=0)

    def test_deadline_error_is_504(self):
        async def t(port):
            return await _http_roundtrip(
                port, "POST", "/v1/analyze",
                {"op": "witness", "spec": WITNESS, "deadline": 0.001},
            )

        status, _, body = _with_frontend(t)
        assert status == 504
        assert json.loads(body)["error"] == "deadline"


class TestStreamBuffer:
    def test_overflow_drops_and_counts_instead_of_blocking(self):
        async def go():
            buffer = StreamBuffer(limit=3)
            for i in range(10):
                buffer.offer({"i": i})  # never blocks, never raises
            delivered = []

            async def write(doc):
                delivered.append(doc)

            pump = asyncio.ensure_future(buffer.pump(write))
            await buffer.close()
            await pump
            return delivered, buffer.dropped

        delivered, dropped = asyncio.run(go())
        assert [doc["i"] for doc in delivered] == [0, 1, 2]
        assert dropped == 7

    def test_pump_applies_backpressure_not_loss_when_keeping_up(self):
        async def go():
            buffer = StreamBuffer(limit=4)
            delivered = []

            async def write(doc):
                await asyncio.sleep(0)  # a drain-like yield per event
                delivered.append(doc)

            pump = asyncio.ensure_future(buffer.pump(write))
            for i in range(20):
                buffer.offer({"i": i})
                await asyncio.sleep(0.001)  # producer paced at pump speed
            await buffer.close()
            await pump
            return delivered, buffer.dropped

        delivered, dropped = asyncio.run(go())
        assert dropped == 0
        assert [doc["i"] for doc in delivered] == list(range(20))


class _LineFeed:
    """An async line source for handle_stdio_lines."""

    def __init__(self, lines):
        self._lines = list(lines)

    async def readline(self):
        if not self._lines:
            return b""
        line = self._lines.pop(0)
        return line + b"\n" if isinstance(line, bytes) else (line + "\n").encode()


class TestStdio:
    def _run(self, lines):
        out = []

        async def go():
            service = AnalysisService()
            try:
                await handle_stdio_lines(service, _LineFeed(lines), out.append)
            finally:
                await service.stop()

        asyncio.run(go())
        return [json.loads(line) for line in out]

    def test_request_response_with_ids(self):
        docs = self._run([
            json.dumps({"id": 1, "request": {"op": "similarity",
                                             "scenario": RING}}),
            json.dumps({"id": 2, "request": {"op": "stats"}}),
        ])
        by_id = {doc["id"]: doc for doc in docs if doc["kind"] == "result"}
        assert by_id[1]["result"]["op"] == "similarity"
        assert by_id[2]["result"]["op"] == "stats"

    def test_streamed_request_gets_event_lines(self):
        docs = self._run([
            json.dumps({"id": 9, "stream": True,
                        "request": {"op": "witness", "spec": WITNESS}}),
        ])
        kinds = [doc["kind"] for doc in docs]
        assert "event" in kinds and kinds[-1] == "result"
        assert all(doc["id"] == 9 for doc in docs)

    def test_garbage_line_reports_error_and_continues(self):
        docs = self._run([
            "{ not json",
            json.dumps({"id": 3, "request": {"op": "stats"}}),
        ])
        errors = [d for d in docs if "error" in d.get("result", {})]
        oks = [d for d in docs if d.get("id") == 3]
        assert errors and "not JSON" in errors[0]["result"]["error"]
        assert oks and oks[0]["result"]["op"] == "stats"

    @pytest.mark.parametrize(
        "line, error",
        [("[1,2]", "JSON object"), ('"x"', "JSON object"),
         ("3", "JSON object"), (b"\xff", "not JSON"),
         ("[" * 100000, "not JSON")],
        ids=["list", "string", "number", "not-utf8", "nested-too-deep"],
    )
    def test_non_object_line_reports_error_and_continues(self, line, error):
        docs = self._run([
            line,
            json.dumps({"id": 3, "request": {"op": "stats"}}),
        ])
        assert [doc["id"] for doc in docs] == [None, 3]
        assert error in docs[0]["result"]["error"]
        assert docs[1]["result"]["op"] == "stats"

    def test_crashed_request_does_not_swallow_siblings(self):
        """An exception escaping one request's task must still let the
        sibling's answer through, and the failed id gets an error line
        (the final gather captures exceptions per task)."""

        class Exploding(AnalysisService):
            async def submit(self, request, on_event=None):
                if request.get("op") == "boom":
                    raise RuntimeError("engine exploded (injected)")
                return await super().submit(request, on_event=on_event)

        out = []

        async def go():
            service = Exploding()
            lines = [
                json.dumps({"id": "bad", "request": {"op": "boom"}}),
                json.dumps({"id": "good", "request": {"op": "similarity",
                                                      "scenario": RING}}),
            ]
            try:
                await handle_stdio_lines(service, _LineFeed(lines), out.append)
            finally:
                await service.stop()

        asyncio.run(go())
        docs = [json.loads(line) for line in out]
        by_id = {doc["id"]: doc for doc in docs if doc["kind"] == "result"}
        assert by_id["good"]["result"]["op"] == "similarity"
        assert "exploded" in by_id["bad"]["result"]["error"]

import asyncio
import json

from perfbench import serveload
from perfbench.serveload import Reply, check_serve, closed_loop, transport_failure


async def _fake_server(behaviours):
    """A loopback HTTP server answering each request by the ``kind`` in
    its body; returns (server, seen bodies, peak concurrent handlers)."""
    seen = []
    concurrency = {"now": 0, "peak": 0}

    async def handle(reader, writer):
        concurrency["now"] += 1
        concurrency["peak"] = max(concurrency["peak"], concurrency["now"])
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(
                [line.split(b":")[1] for line in head.split(b"\r\n")
                 if line.lower().startswith(b"content-length")][0]
            )
            body = json.loads(await reader.readexactly(length))
            seen.append(body)
            await asyncio.sleep(0.001)
            status, doc = behaviours[body["kind"]]
            if status is not None:
                payload = json.dumps(doc).encode()
                writer.write(
                    b"HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
                    % (status, len(payload)) + payload
                )
                await writer.drain()
        finally:
            concurrency["now"] -= 1
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, seen, concurrency


def test_closed_loop_sends_exactly_n_and_counts_failures():
    behaviours = {
        "ok": (200, {"op": "similarity"}),
        "server-error": (500, {"error": "boom"}),
        "error-body": (200, {"error": "bad scenario"}),
        "dropped": (None, None),  # connection closed without a response
    }
    kinds = ["ok", "server-error", "ok", "error-body", "dropped"] * 5

    async def scenario():
        server, seen, concurrency = await _fake_server(behaviours)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            payloads = [serveload.encode({"kind": k, "i": i}) for i, k in enumerate(kinds)]
            replies = await closed_loop(host, port, payloads, clients=2, timeout=5)
        finally:
            server.close()
            await server.wait_closed()
        return replies, seen, concurrency

    replies, seen, concurrency = asyncio.run(scenario())
    assert len(seen) == len(kinds)
    assert sorted(body["i"] for body in seen) == list(range(len(kinds)))
    assert concurrency["peak"] <= 2
    assert all(isinstance(reply, Reply) for reply in replies)
    failed = [transport_failure(reply) is not None for reply in replies]
    assert failed == [kind != "ok" for kind in kinds]


def test_transport_failures():
    assert transport_failure(Reply(200, {"op": "x"}, 0.1)) is None
    assert "HTTP 504" in transport_failure(Reply(504, {"error": "deadline"}, 0.1))
    assert "error body" in transport_failure(Reply(200, {"error": "x"}, 0.1))
    assert transport_failure(Reply(200, None, 0.1, "body is not JSON"))
    assert transport_failure(Reply(0, None, 0.1, "connection failed"))


def _mix(stream):
    hot = {json.dumps(r, sort_keys=True) for r in serveload.hot_requests()}
    fresh = [r for r in stream if json.dumps(r, sort_keys=True) not in hot]
    ops = {}
    for request in stream:
        ops[request["op"]] = ops.get(request["op"], 0) + 1
    return fresh, ops


def test_stream_is_a_function_of_the_seed_with_a_fixed_mix():
    first = serveload.build_stream(3, 1500)
    assert first == serveload.build_stream(3, 1500)
    other = serveload.build_stream(4, 1500)
    assert first != other
    fresh, ops = _mix(first)
    # bench-serve's 55/25/20 op shares; half the similarity requests fresh.
    assert ops == {"similarity": 825, "witness": 375, "explore": 300}
    assert len(fresh) == 412
    assert all(r["op"] == "similarity" for r in fresh)
    assert all(16 <= r["scenario"]["size"] <= 401 for r in fresh)
    assert len({json.dumps(r, sort_keys=True) for r in fresh}) == len(fresh)
    other_fresh, other_ops = _mix(other)
    assert other_ops == ops and len(other_fresh) == 412
    assert other_fresh != fresh


def test_serve_oracle_rejects_corrupted_answers():
    requests = [r for r in serveload.hot_requests() if r["op"] != "similarity"]
    requests.append(serveload.hot_requests()[0])
    truth = [serveload.recompute(r) for r in requests]
    good = [Reply(200, dict(doc, stats={}), 0.01) for doc in truth]
    assert check_serve(requests, good).failed == 0

    corrupted = [Reply(r.status, json.loads(json.dumps(r.doc)), r.latency_s) for r in good]
    corrupted[-1].doc["classes"] = corrupted[-1].doc["classes"][:-1]  # similarity
    corrupted[0].doc["count"] += 1  # witness
    corrupted[2].doc["unique_states"] += 1  # explore
    checked = check_serve(requests, corrupted)
    assert checked.failed == 3
    assert all("differs" in problem for problem in checked.problems)

    refused = list(good)
    refused[1] = Reply(500, {"error": "boom"}, 0.01)
    assert check_serve(requests, refused).failed == 1

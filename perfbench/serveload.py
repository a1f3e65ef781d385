"""The ``serve`` workload: a closed loop of HTTP clients against the service.

One :class:`~repro.serve.service.AnalysisService` with its defaults
(10 ms batch window, serial engine) and a store in a fresh directory
sits behind :class:`~repro.serve.http.HttpFrontend` on loopback, in the
benchmark's own process.  Two clients each send one request per
connection and wait for its answer before sending the next (a closed
loop: the service's callers are scripts that wait for each answer),
until a fixed, seeded stream of requests is used up.

The op shares are those of ``python -m repro bench-serve``
(``repro.perf.serve_bench.build_workload``): 55% similarity, 25%
witness and 20% explore.  The hot set is that bench's whole candidate
pool: similarity on rings, stars, paths and alternating rings of 4-6
processors with and without a mark on ``p0``, and its two witness and
two explore specs.  Set-up answers the hot set once through an earlier
service lifetime over the same store, so in the timed phase hot
requests read the store while fresh ones write it.  Half of the
similarity requests repeat the hot set; the other half are fresh, of
16 to 400 processors on the same topologies and marks.  Those drive
``core.refinement`` on large systems, ``perf.batch`` and the store's
write path.  The half-and-half split is a chosen assumption: no record
of real callers sets it.

After the timed phase, and outside every metric, each distinct request
is answered again memory-only from the engines' public functions and
every reply is compared with that answer.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .workloads import Checked

#: Requests in the timed phase.  With a nearest-rank p90, 1500 samples
#: leave 150 beyond it.
REQUESTS = 1500
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0

#: The candidate pool and op shares of ``repro.perf.serve_bench``
#: (copied, so that a change there does not change this workload).
_TOPOLOGIES = ("ring", "star", "path", "alternating-ring")
_HOT_SIZES = (4, 5, 6)
_MARKS = ((), ("p0",))
_SIMILARITY_SHARE = 0.55
_WITNESS_SHARE = 0.25
_WITNESS_SPECS = (
    {"weaker": "Q", "stronger": "L", "max_processors": 2, "max_names": 2,
     "max_variables": 2, "allow_marks": False, "limit": None},
    {"weaker": "L", "stronger": "L2", "max_processors": 2, "max_names": 2,
     "max_variables": 2, "allow_marks": False, "limit": None},
)
_EXPLORE_SPECS = (
    {"scenario": {"topology": "ring", "size": 3, "model": "Q"},
     "max_depth": 4, "symmetry": True},
    {"scenario": {"topology": "star", "size": 3, "model": "Q"},
     "max_depth": 3, "symmetry": True},
)

#: Share of the similarity requests that are fresh (a chosen assumption),
#: and their sizes.
_FRESH_OF_SIMILARITY = 0.5
_MIN_SIZE, _MAX_SIZE = 16, 400


def _similarity(topology: str, size: int, marks: Sequence[str]) -> dict:
    if topology == "alternating-ring" and size % 2:
        size += 1
    return {"op": "similarity",
            "scenario": {"topology": topology, "size": size, "marks": list(marks)}}


def hot_requests() -> List[dict]:
    """The fixed hot set; set-up answers it before the timed phase."""
    hot: List[dict] = []
    for topology in _TOPOLOGIES:
        for size in _HOT_SIZES:
            for marks in _MARKS:
                request = _similarity(topology, size, marks)
                if request not in hot:  # odd alternating rings round up
                    hot.append(request)
    hot += [{"op": "witness", "spec": dict(spec)} for spec in _WITNESS_SPECS]
    hot += [
        {"op": "explore", "spec": dict(spec, scenario=dict(spec["scenario"]))}
        for spec in _EXPLORE_SPECS
    ]
    return hot


def build_stream(seed: int, count: int = REQUESTS) -> List[dict]:
    """The timed request stream, a pure function of ``(seed, count)``.

    The seed draws every fresh size and the order of the stream.  The
    mix is stratified, so that every seed asks for the same amount of
    work: each kind has its exact share, hot requests of each op are
    used in turn, and fresh sizes are drawn one per equal slice of
    16..400 with topologies and marks taken in turn.
    """
    rng = random.Random(seed)
    by_op: Dict[str, List[dict]] = {}
    for request in hot_requests():
        by_op.setdefault(request["op"], []).append(request)
    n_similarity = round(count * _SIMILARITY_SHARE)
    n_fresh = round(n_similarity * _FRESH_OF_SIMILARITY)
    n_witness = round(count * _WITNESS_SHARE)
    counts = {"similarity": n_similarity - n_fresh, "witness": n_witness,
              "explore": count - n_similarity - n_witness}
    stream = [by_op[op][i % len(by_op[op])]
              for op, n in counts.items() for i in range(n)]
    span = _MAX_SIZE - _MIN_SIZE + 1
    for i in range(n_fresh):
        size = _MIN_SIZE + int((i + rng.random()) * span / n_fresh)
        stream.append(_similarity(
            _TOPOLOGIES[i % len(_TOPOLOGIES)], size, _MARKS[(i // 4) % 2]
        ))
    rng.shuffle(stream)
    return stream


def encode(request: dict) -> bytes:
    return json.dumps(request, sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# the closed-loop client
# ----------------------------------------------------------------------


@dataclass
class Reply:
    """One request as the client saw it; ``status`` 0 means no HTTP
    response arrived (``error`` says why)."""

    status: int
    doc: Optional[dict]
    latency_s: float
    error: str = ""


async def http_post(host: str, port: int, body: bytes,
                    timeout: float = REQUEST_TIMEOUT_S) -> Tuple[int, Optional[dict], str]:
    """POST one request document on a fresh connection; returns
    ``(status, decoded body or None, error text)``."""

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                b"POST /v1/analyze HTTP/1.1\r\n"
                b"Host: %s:%d\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: close\r\n\r\n"
                % (host.encode("ascii"), port, len(body))
                + body
            )
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        raw = await asyncio.wait_for(exchange(), timeout)
    except asyncio.TimeoutError:
        return 0, None, f"no answer within {timeout}s"
    except (ConnectionError, OSError) as exc:
        return 0, None, f"connection failed: {exc}"
    head, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, None, f"malformed response head {head[:80]!r}"
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return status, None, "body is not JSON"
    return status, doc if isinstance(doc, dict) else None, ""


async def closed_loop(host: str, port: int, payloads: Sequence[bytes],
                      clients: int = CLIENTS,
                      timeout: float = REQUEST_TIMEOUT_S) -> List[Reply]:
    """Send every payload exactly once; each client waits for an answer
    before taking the next payload.  Replies come back in stream order."""
    replies: List[Optional[Reply]] = [None] * len(payloads)
    order = iter(range(len(payloads)))

    async def client() -> None:
        for index in order:
            t0 = time.perf_counter()
            status, doc, error = await http_post(host, port, payloads[index], timeout)
            replies[index] = Reply(status, doc, time.perf_counter() - t0, error)

    await asyncio.gather(*(client() for _ in range(clients)))
    return replies  # type: ignore[return-value]


def transport_failure(reply: Reply) -> Optional[str]:
    """Why a reply failed before its answer is even looked at, or None."""
    if reply.status != 200:
        return f"HTTP {reply.status or 'none'} {reply.error}".strip()
    if reply.doc is None:
        return reply.error or "empty body"
    if "error" in reply.doc:
        return f"error body: {reply.doc['error']}"
    return None


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


def _answer_view(op: str, doc: dict) -> dict:
    """The fields of a reply that the oracle recomputes."""
    keys = {
        "similarity": ("op", "fingerprint", "classes"),
        "witness": ("op", "witnesses", "count"),
        "explore": ("op", "verdict", "violation", "unique_states", "group_size"),
    }[op]
    return {key: doc.get(key) for key in keys}


def recompute(request: dict) -> dict:
    """The answer to one request, memory-only, from the engines' public
    functions (no service, batching, memo or store)."""
    op = request["op"]
    if op == "similarity":
        from repro.core.refinement import compute_similarity_labeling
        from repro.obs.scenarios import build_scenario
        from repro.perf.batch import system_fingerprint

        system = build_scenario(request["scenario"]).system
        labeling = compute_similarity_labeling(system).labeling
        blocks: Dict[Any, List[str]] = {}
        for proc in system.processors:
            blocks.setdefault(labeling[proc], []).append(str(proc))
        return {"op": op, "fingerprint": system_fingerprint(system),
                "classes": sorted(sorted(block) for block in blocks.values())}
    if op == "witness":
        from repro.analysis.witness_engine import SweepSpec, run_sweep

        result = run_sweep(SweepSpec.from_json(request["spec"]), workers=0)
        described = [w.describe() for w in result.witnesses]
        return {"op": op, "witnesses": described, "count": len(described)}
    from repro.analysis.explore import ExploreSpec, run_explore

    result = run_explore(ExploreSpec.from_json(request["spec"]), workers=0)
    return {"op": op, "verdict": result.verdict,
            "violation": None if result.violation is None else result.violation.to_json(),
            "unique_states": result.unique_states, "group_size": result.group_size}


def check_serve(requests: Sequence[dict], replies: Sequence[Reply],
                store_stats: Optional[dict] = None) -> Checked:
    """Every reply must be a 200 whose answer equals the recomputed one."""
    checked = Checked(attempted=len(requests))
    truth: Dict[str, dict] = {}
    for index, (request, reply) in enumerate(zip(requests, replies)):
        problem = transport_failure(reply)
        if problem is None:
            key = json.dumps(request, sort_keys=True)
            if key not in truth:
                truth[key] = recompute(request)
            if _answer_view(request["op"], reply.doc) != truth[key]:
                problem = "answer differs from the memory-only recomputation"
        if problem is not None:
            checked.fail(f"request {index} ({request['op']}): {problem}")
    ops: Dict[str, int] = {}
    for request in requests:
        ops[request["op"]] = ops.get(request["op"], 0) + 1
    checked.work = {f"serve.{op}": n for op, n in sorted(ops.items())}
    # Store gets and hits are left out: identical requests that share a
    # wave share one store read, so their count depends on timing.
    for key in ("puts", "writes"):
        checked.work[f"store.{key}"] = (store_stats or {}).get(key, 0)
    return checked


# ----------------------------------------------------------------------
# one service lifetime
# ----------------------------------------------------------------------


class WaveLog:
    """An obs sink keeping the service's ``serve-wave`` summaries."""

    def __init__(self) -> None:
        self.waves: List[dict] = []

    def on_event(self, event) -> None:
        if event.kind == "serve-wave":
            self.waves.append(event.to_json())


async def prefill(store_dir: str) -> None:
    """An earlier service lifetime that answers the hot set into the store."""
    from repro.serve.service import AnalysisService

    async with AnalysisService(store_dir=store_dir) as service:
        await asyncio.gather(*(service.submit(r) for r in hot_requests()))


@dataclass
class ServeRun:
    replies: List[Reply]
    wall_s: float
    stats: dict


async def serve_lifetime(store_dir: str, payloads: Sequence[bytes],
                         begin=None, end=None,
                         wave_log: Optional[WaveLog] = None) -> ServeRun:
    """Set up (prefill, start service and front end), then drive the
    closed loop.  ``begin()`` runs when set-up is done and ``end()``
    when the last reply is in."""
    from repro.serve.http import HttpFrontend
    from repro.serve.service import AnalysisService

    await prefill(store_dir)
    service = AnalysisService(store_dir=store_dir)
    frontend = HttpFrontend(service)
    host, port = await frontend.start()
    try:
        if wave_log is not None:
            service.hub.attach(wave_log)
        if begin is not None:
            begin()
        t0 = time.perf_counter()
        replies = await closed_loop(host, port, payloads)
        wall_s = time.perf_counter() - t0
        if end is not None:
            end()
        return ServeRun(replies, wall_s, service.stats_doc())
    finally:
        await frontend.stop()
        await service.stop()

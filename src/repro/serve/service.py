"""The analysis service: request coalescing over store-backed engines.

:class:`AnalysisService` is the front-end-agnostic core of
``python -m repro serve``.  Requests are plain JSON documents in the
registry vocabulary the CLI already speaks::

    {"op": "similarity", "scenario": {"topology": "ring", "size": 6,
                                      "marks": ["p0"]}}
    {"op": "witness",    "spec": {"weaker": "Q", "stronger": "L",
                                  "max_processors": 2, ...}}
    {"op": "explore",    "spec": {"scenario": {...}, "max_depth": 6, ...}}
    {"op": "stats"}

Four mechanisms stack:

* **Answer memo** -- an answer is a function of the request alone: the
  similarity labeling is the unique coarsest one, and a selection
  decision or a bounded-exploration verdict depends only on the system
  and the model.  So the service keeps one in-process memo from each
  request's canonical document (sorted-key JSON, ``deadline`` stripped)
  to the JSON text of its first non-error answer.  :meth:`submit`
  answers a repeat from it before anything is queued: no wave, no
  engine-thread hop, no store flush, and no events for a streaming
  subscriber.  A repeat queued behind its own first run is answered
  from the memo when its wave is taken.  Every answer, first or
  repeat, is decoded afresh from JSON text, so callers share no lists,
  and a witness hit reports ``cache_misses: 0``, as it decided
  nothing.  Past :data:`_ANSWER_MEMO_BYTES` the least recently used
  answers go.  The store below it is the cross-process layer.
* **Coalescing** -- requests queue per op kind; a wave is whatever is
  queued once the wave loop has let the event loop make a few passes
  (no timer), so requests already in flight join it and requests that
  arrive while the engine thread is busy form the next.  Similarity
  waves become one :func:`~repro.perf.batch.batch_similarity` call per
  engine over the distinct unsolved systems in the wave;
  witness/explore waves dedup identical specs so concurrent equal
  requests share one run.
* **Store backing** -- one :class:`~repro.store.ContentStore` (optional)
  persists similarity summaries (keyed by system fingerprint + engine)
  and the explorer's orbit canonical keys, so a later service process
  reuses them.  Selection decisions stay in memory: one
  :class:`~repro.analysis.witness_engine.DecisionCache` serves every
  serially swept witness request and model pair for the life of the
  service.  A request swept with ``workers`` > 1 decides in the pool
  workers' own caches, so the service's cache learns nothing from it.
* **Event streaming** -- a request may subscribe to obs events
  (``WitnessSearchProgress``, ``ExplorationProgress``, ...); the wave
  runs in a worker thread and forwards each event back onto the event
  loop as it is emitted, so front ends can stream progress while the
  job runs.  Completed waves additionally emit a
  :class:`~repro.obs.events.ServeWave` summary on the service hub.

Engine work runs on a single worker thread: the engines themselves
multi-process when asked (``engine_workers``), and one thread serializes
access to the shared caches without locking them.

Three robustness mechanisms harden the service for sustained load:

* **Deadlines** -- a request may carry ``"deadline"`` (seconds), and
  the service may impose ``default_deadline``; a request whose wave has
  not answered in time gets ``{"error": "deadline"}`` instead of a hung
  client.  The wave itself keeps running — a timed-out request never
  poisons its wave-mates, whose futures resolve normally.
* **Graceful drain** -- :meth:`stop` (the default path) stops accepting
  new requests, lets every queued wave execute to completion, flushes
  the store, and only then shuts the worker pool down; nothing enqueued
  before the stop is dropped.  ``stop(drain=False)`` is the hard path
  that cancels in-flight waves.
* **Degraded mode** -- a store that becomes unwritable at runtime
  (read-only root, disk full) is detached instead of taking the service
  down: the failed job is retried memory-only, a
  :class:`~repro.obs.events.ServeDegraded` event is emitted, and
  ``stats`` reports ``"store": "degraded"`` from then on.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from ..core.encoding import encode_value
from ..core.refinement import ENGINES
from ..exceptions import ReproError, ServeError
from ..obs.events import EventHub, ServeDegraded, ServeWave

#: Operations the service understands. ``stats`` is answered inline;
#: the rest are coalesced into waves.
OPS = ("similarity", "witness", "explore", "stats")

#: Queue sentinel: a draining stop; the wave loop answers everything
#: queued ahead of it, then exits.
_SHUTDOWN = object()

#: Event-loop passes a wave loop lets run before it takes its wave.  A
#: loopback HTTP client needs 14 to turn one answer into its next
#: request (close, reconnect, accept, read, submit).  A request that
#: makes it in that time joins the wave; one that does not runs its I/O
#: on the event loop while the engine thread computes, and the two
#: threads trade the GIL back and forth for it.  Passes wait for no
#: timer: 16 of them take under 0.2 ms on an idle loop.
_SETTLE_PASSES = 16

#: Byte cap of the answer memo's keys and answers (ASCII JSON text).
#: perfbench ``serve``'s 438 distinct answers take about 0.8 MB.
_ANSWER_MEMO_BYTES = 32 * 1024 * 1024


class _EventForwarder:
    """An obs sink bridging a worker thread back onto the event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 callbacks: List[Callable[[dict], None]]) -> None:
        self._loop = loop
        self._callbacks = callbacks

    def on_event(self, event) -> None:
        doc = event.to_json()
        for callback in self._callbacks:
            self._loop.call_soon_threadsafe(callback, doc)


class _Pending:
    """One enqueued request: its payload, memo key, future, and event
    subscriber."""

    __slots__ = ("request", "key", "future", "on_event")

    def __init__(self, request: dict, key: str, future: "asyncio.Future",
                 on_event: Optional[Callable[[dict], None]]) -> None:
        self.request = request
        self.key = key
        self.future = future
        self.on_event = on_event


class AnalysisService:
    """Coalescing, store-backed front end over the analysis engines.

    Args:
        store_dir: directory of the persistent content store; None runs
            memory-only (coalescing still works, nothing survives the
            process).
        engine_workers: process-pool size handed to the witness/explore
            engines per job (0 = serial in-process, the safe default for
            a service that is itself concurrent).
        default_deadline: seconds a request may wait for its answer
            before ``{"error": "deadline"}`` comes back instead; None
            (the default) means requests wait forever unless they carry
            their own ``"deadline"`` field.
        store_max_bytes: byte cap handed to the store; every flush
            evicts oldest entries back under it (see
            :mod:`repro.store.gc`).
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        engine_workers: int = 0,
        default_deadline: Optional[float] = None,
        store_max_bytes: Optional[int] = None,
    ) -> None:
        from ..analysis.witness_engine import DecisionCache

        self.hub = EventHub()
        self.store = None
        self.store_degraded: Optional[str] = None  # reason, once detached
        if store_dir is not None:
            from ..store import ContentStore

            self.store = ContentStore(store_dir, max_bytes=store_max_bytes)
            self.store.hub = self.hub
        self.engine_workers = int(engine_workers)
        self.default_deadline = (
            float(default_deadline) if default_deadline is not None else None
        )
        self.decisions = DecisionCache()
        # Request key -> JSON text of its answer, least recently used
        # first; touched on the event loop only.
        self._answers: "OrderedDict[str, str]" = OrderedDict()
        self._answer_bytes = 0
        self._answer_hits = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "waves": 0,
            "jobs": 0,
            "coalesced": 0,
            "errors": 0,
            "similarity_summary_hits": 0,
            "deadline_errors": 0,
            "rejected": 0,
        }
        self._queues: Dict[str, "asyncio.Queue"] = {}
        self._loops: List["asyncio.Task"] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._stopping = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the wave loops; idempotent."""
        if self._started:
            return
        self._started = True
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        for op in ("similarity", "witness", "explore"):
            self._queues[op] = asyncio.Queue()
            self._loops.append(asyncio.ensure_future(self._wave_loop(op)))

    async def stop(self, drain: bool = True) -> None:
        """Stop the service: drain queued waves, flush, shut down.

        With ``drain`` (the default) every request enqueued before the
        stop is answered — the wave loops execute what is queued, then
        exit; requests arriving *during* the drain are rejected with
        ``{"error": "service is shutting down"}``.  ``drain=False``
        cancels the wave loops immediately (queued futures are
        cancelled).  Either way the store is flushed before returning.
        """
        if not self._started:
            return
        self._started = False
        self._stopping = True
        try:
            if drain:
                for queue in self._queues.values():
                    queue.put_nowait(_SHUTDOWN)
                await asyncio.gather(*self._loops, return_exceptions=True)
            else:
                for task in self._loops:
                    task.cancel()
                for task in self._loops:
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            self._loops.clear()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self.flush()
        finally:
            self._stopping = False

    def flush(self) -> None:
        """Flush staged store writes; an unwritable store degrades the
        service (memory-only) instead of raising."""
        if self.store is None:
            return
        try:
            self.store.flush()
        except OSError as exc:
            self._degrade(f"store flush failed: {exc}")

    def _degrade(self, reason: str) -> None:
        """Detach an unwritable store at runtime; keep serving from
        memory.  Callable from the worker thread or the event loop."""
        if self.store is None:
            return
        self.store = None
        self.store_degraded = reason
        if self.hub.active:
            self.hub.emit(ServeDegraded(reason=reason))

    async def __aenter__(self) -> "AnalysisService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- the public entry point ----------------------------------------

    async def submit(
        self,
        request: dict,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Answer one request document.

        Returns the result document; service-level failures come back as
        ``{"error": ...}`` rather than raising, so one bad request never
        takes a front end down.  ``on_event`` (if given) receives obs
        event documents on the event loop while the job runs.

        A ``"deadline"`` field (positive seconds) bounds how long this
        request waits for its answer; past it, ``{"error": "deadline"}``
        comes back while the wave keeps running for its wave-mates.  The
        field is stripped before coalescing, so requests differing only
        in deadline still share one job, and a repeat answered from the
        memo never waits.
        """
        self.counters["requests"] += 1
        if self._stopping:
            self.counters["rejected"] += 1
            return {"error": "service is shutting down"}
        if not isinstance(request, dict):
            self.counters["errors"] += 1
            return {"error": "request must be a JSON object"}
        request = dict(request)
        deadline = request.pop("deadline", self.default_deadline)
        if deadline is not None:
            try:
                deadline = float(deadline)
                if not deadline > 0:
                    raise ValueError
            except (TypeError, ValueError):
                self.counters["errors"] += 1
                return {
                    "error": "deadline must be a positive number of seconds"
                }
        op = request.get("op")
        if op == "stats":
            return self.stats_doc()
        if op not in OPS:
            self.counters["errors"] += 1
            return {"error": f"unknown op {op!r}; pick from {list(OPS)}"}
        try:
            key = json.dumps(request, sort_keys=True)
        except (TypeError, ValueError) as exc:
            self.counters["errors"] += 1
            return {"error": f"request is not a JSON document: {exc}"}
        answer = self._recall(key)
        if answer is not None:
            return answer
        if not self._started:
            await self.start()
        future: "asyncio.Future" = asyncio.get_event_loop().create_future()
        await self._queues[op].put(_Pending(request, key, future, on_event))
        if deadline is None:
            return await future
        try:
            # Shielded: the timeout abandons *this* wait, never the wave
            # job — wave-mates sharing the future's batch are unharmed.
            return await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            self.counters["deadline_errors"] += 1
            return {"error": "deadline", "op": op, "deadline_s": deadline}

    # -- coalescing ----------------------------------------------------

    async def _wave_loop(self, op: str) -> None:
        """Answer whatever is queued as one wave, over and over.  Requests
        already in flight when a wave is taken join it (see
        :data:`_SETTLE_PASSES`); requests that arrive while the engine
        thread runs a wave form the next."""
        queue = self._queues[op]
        stopping = False
        while not stopping:
            first = await queue.get()
            if first is _SHUTDOWN:
                break
            batch = [first]
            try:
                for _ in range(_SETTLE_PASSES):
                    await asyncio.sleep(0)
                while not queue.empty():
                    item = queue.get_nowait()
                    if item is _SHUTDOWN:
                        stopping = True  # answer this batch, then exit
                    else:
                        batch.append(item)
                await self._run_wave(op, batch)
            except asyncio.CancelledError:
                for pending in batch:
                    if not pending.future.done():
                        pending.future.cancel()
                raise
            except BaseException as exc:  # wave must never die silently
                self.counters["errors"] += 1
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_result({"error": str(exc)})

    async def _run_wave(self, op: str, batch: List[_Pending]) -> None:
        loop = asyncio.get_event_loop()
        t0 = time.perf_counter()
        groups: Dict[str, List[_Pending]] = {}
        for pending in batch:
            # A repeat queued behind its own first run is answered by it.
            answer = self._recall(pending.key)
            if answer is None:
                groups.setdefault(pending.key, []).append(pending)
            elif not pending.future.done():
                pending.future.set_result(answer)
        if not groups:
            return
        requests = sum(len(group) for group in groups.values())
        self.counters["waves"] += 1
        self.counters["jobs"] += len(groups)
        self.counters["coalesced"] += requests - len(groups)

        if op == "similarity":
            results = await loop.run_in_executor(
                self._pool, self._similarity_wave,
                [group[0].request for group in groups.values()],
            )
            for (key, group), result in zip(groups.items(), results):
                self._resolve(key, group, result)
        else:
            for key, group in groups.items():
                callbacks = [p.on_event for p in group if p.on_event]
                hub: Optional[EventHub] = None
                if callbacks:
                    hub = EventHub()
                    hub.attach(_EventForwarder(loop, callbacks))
                result = await loop.run_in_executor(
                    self._pool, self._execute_one, op, group[0].request, hub
                )
                self._resolve(key, group, result)
        self.flush()
        if self.hub.active:
            self.hub.emit(
                ServeWave(
                    op=op,
                    requests=requests,
                    jobs=len(groups),
                    elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                )
            )

    # -- the answer memo (event loop only) -----------------------------

    def _recall(self, key: str) -> Optional[dict]:
        """A fresh copy of the memoized answer to ``key``, or None.  A
        witness repeat decides nothing, so it reports no decision-cache
        misses."""
        text = self._answers.get(key)
        if text is None:
            return None
        self._answers.move_to_end(key)
        self._answer_hits += 1
        answer = json.loads(text)
        if answer.get("op") == "witness":
            answer["cache_misses"] = 0
        return answer

    def _resolve(self, key: str, group: List[_Pending], result: dict) -> None:
        """Answer one job group and memoize the answer unless it is an
        error, evicting least recently used answers past the cap.  Every
        caller decodes its own copy of the JSON text, so no two callers,
        and no caller and the memo, share a list.  A caller that was
        cancelled while it waited is skipped, never allowed to fail its
        wave-mates."""
        text = json.dumps(result)
        if "error" not in result:
            self._answers[key] = text
            self._answer_bytes += len(key) + len(text)
            while self._answer_bytes > _ANSWER_MEMO_BYTES:
                old_key, old_text = self._answers.popitem(last=False)
                self._answer_bytes -= len(old_key) + len(old_text)
        for pending in group:
            if not pending.future.done():
                pending.future.set_result(json.loads(text))

    # -- job execution (worker thread) ---------------------------------

    def _similarity_wave(self, requests: List[dict]) -> List[dict]:
        """One wave of similarity requests: summaries for the whole list.

        Every request resolves against the store first; the remainder is
        one :func:`batch_similarity` call per engine over the unsolved
        systems, which solves each distinct fingerprint once.
        """
        prepared: List[tuple] = []
        for req in requests:
            try:
                prepared.append(self._prepare_similarity(req))
            except Exception as exc:
                # One malformed request fails itself, never its
                # wave-mates.
                prepared.append((None, None, self._request_error(exc)))
        engines: Dict[str, List[int]] = {}
        for i, (_system, engine, summary) in enumerate(prepared):
            if summary is None:
                engines.setdefault(engine, []).append(i)
        if engines:
            from ..perf.batch import batch_similarity

            for engine, todo in engines.items():
                report = batch_similarity(
                    [prepared[i][0] for i in todo],
                    engine=engine,
                    workers=self.engine_workers,
                )
                for i, result in zip(todo, report.results):
                    system = prepared[i][0]
                    summary = self._summarize_similarity(system, engine, result)
                    prepared[i] = (system, engine, summary)
        out: List[dict] = []
        for system, _engine, summary in prepared:
            doc = dict(summary)
            if system is not None:
                doc["op"] = "similarity"
            out.append(doc)
        return out

    def _prepare_similarity(self, request: dict):
        """Build the system; answer from the store if it is known there."""
        from ..obs.scenarios import build_scenario

        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise ServeError("similarity request needs a 'scenario' object")
        engine = request.get("engine", "worklist")
        if engine not in ENGINES:
            raise ServeError(
                f"unknown engine {engine!r}; pick from {sorted(ENGINES)}"
            )
        system = build_scenario(scenario).system
        summary = None
        if self.store is not None:
            from ..store import NS_SIMILARITY

            summary = self.store.get(
                NS_SIMILARITY, encode_value((system.fingerprint, engine))
            )
            if summary is not None:
                self.counters["similarity_summary_hits"] += 1
        return system, engine, summary

    def _summarize_similarity(self, system, engine: str, result) -> dict:
        """Summarize one refinement result and persist it."""
        blocks: Dict[Any, List[str]] = {}
        for proc in system.processors:
            blocks.setdefault(result.labeling[proc], []).append(str(proc))
        summary = {
            "fingerprint": system.fingerprint,
            "engine": engine,
            "classes": sorted(sorted(block) for block in blocks.values()),
            "stats": {
                "rounds": result.stats.rounds,
                "splits": result.stats.splits,
                "classes": result.stats.classes,
            },
        }
        if self.store is not None:
            from ..store import NS_SIMILARITY

            try:
                self.store.put(
                    NS_SIMILARITY,
                    encode_value((system.fingerprint, engine)),
                    summary,
                )
            except OSError as exc:  # put auto-flushes past its threshold
                self._degrade(f"store write failed: {exc}")
        return summary

    def _request_error(self, exc: Exception) -> dict:
        """The error answer of one failed request or job group."""
        self.counters["errors"] += 1
        if isinstance(exc, ReproError):
            return {"error": str(exc)}
        return {"error": f"{type(exc).__name__}: {exc}"}

    def _execute_one(self, op: str, request: dict,
                     hub: Optional[EventHub]) -> dict:
        """Run one job group; any failure stays with that group."""
        try:
            return self._run_job(op, request, hub)
        except OSError as exc:
            # The store went unwritable mid-job (read-only root, disk
            # full): detach it and answer the request memory-only.
            self._degrade(f"store write failed during {op} job: {exc}")
            try:
                return self._run_job(op, request, hub)
            except Exception as exc2:
                return self._request_error(exc2)
        except Exception as exc:
            return self._request_error(exc)

    def _run_job(self, op: str, request: dict,
                 hub: Optional[EventHub]) -> dict:
        workers = request.get("workers", self.engine_workers)
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise ServeError(f"workers must be an integer, not {workers!r}")
        if op == "witness":
            return self._witness_job(request, workers, hub)
        return self._explore_job(request, workers, hub)

    def _witness_job(self, request: dict, workers: int,
                     hub: Optional[EventHub]) -> dict:
        from ..analysis.witness_engine import SweepSpec, run_sweep

        spec_doc = request.get("spec")
        if not isinstance(spec_doc, dict):
            raise ServeError("witness request needs a 'spec' object")
        spec = SweepSpec.from_json(spec_doc)
        result = run_sweep(spec, workers=workers, cache=self.decisions, hub=hub)
        return {
            "op": "witness",
            "spec": spec.to_json(),
            "witnesses": [w.describe() for w in result.witnesses],
            "count": len(result.witnesses),
            "stats": result.stats.to_json(),
            # The sweep's own count, summed over its shards wherever they
            # ran: pool workers decide in caches of their own.
            "cache_misses": result.stats.cache_misses,
        }

    def _explore_job(self, request: dict, workers: int,
                     hub: Optional[EventHub]) -> dict:
        from ..analysis.explore import ExploreSpec, run_explore

        spec_doc = request.get("spec")
        if not isinstance(spec_doc, dict):
            raise ServeError("explore request needs a 'spec' object")
        spec = ExploreSpec.from_json(spec_doc)
        result = run_explore(
            spec,
            workers=workers,
            hub=hub,
            store=self.store,
        )
        return {
            "op": "explore",
            "verdict": "violation" if result.violation else "certified",
            "violation": (
                None if result.violation is None else result.violation.to_json()
            ),
            "unique_states": result.unique_states,
            "stats": result.stats.to_json(),
            "group_size": result.group_size,
        }

    # -- introspection -------------------------------------------------

    def stats_doc(self) -> dict:
        """The service's counter/stores snapshot (the ``stats`` op)."""
        doc: Dict[str, Any] = {
            "op": "stats",
            "counters": dict(self.counters),
            "decision_cache": {
                "entries": len(self.decisions),
                "hits": self.decisions.hits,
                "misses": self.decisions.misses,
            },
            "answer_memo": {
                "entries": len(self._answers),
                "hits": self._answer_hits,
            },
        }
        if self.store is not None:
            doc["store"] = dict(
                self.store.stats.to_json(),
                root=self.store.root,
                status="ok",
            )
        elif self.store_degraded is not None:
            doc["store"] = "degraded"
            doc["store_degraded_reason"] = self.store_degraded
        return doc

"""The ``serve`` bench: concurrent mixed load against the analysis service.

``python -m repro bench serve`` drives one :class:`~repro.serve.service
.AnalysisService` with a seeded mixed workload (similarity scenarios,
small witness sweeps, small symmetric explorations — duplicates
included, so coalescing has something to merge), twice:

* **cold** — a fresh store directory; every answer is computed.
* **warm** — a *new* service process-state over the *same* store
  directory; similarity summaries and orbit keys come back from disk,
  while selection decisions, which live in memory only, are decided
  again.

The ``determinism`` block holds per-request result digests (timing and
counter fields stripped), the final store composition, and the booleans
of three probes run afterwards against the same store:

* **deadline** — two explore requests share one wave; the one carrying
  a microscopic deadline must come back ``{"error": "deadline"}`` while
  its wave-mate still gets a real answer.
* **degraded** — a service whose store writes are sabotaged (injected
  ``ENOSPC``) must detach the store, answer the failing request anyway,
  report ``"store": "degraded"``, and keep serving memory-only.
* **gc** — the populated store is collected down to half its size; the
  pass must land under the cap with nothing quarantined, and a
  subsequent integrity check must pass.

The bench passes when cold and warm answers agree and every probe
boolean holds.  Latency, throughput and coalescing counters per phase
are the ``timings`` rows.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import tempfile
import time
from typing import List, Optional, Tuple

#: Candidate pools for the seeded workload. Small on purpose: the bench
#: must finish in CI seconds, and repeats are what exercise coalescing
#: and the store.
_SIM_TOPOLOGIES = ("ring", "star", "path", "alternating-ring")
_SIM_SIZES = (4, 5, 6)
_SIM_MARKS = ((), ("p0",))
_WITNESS_SPECS = (
    {"weaker": "Q", "stronger": "L", "max_processors": 2,
     "max_names": 2, "max_variables": 2, "allow_marks": False, "limit": None},
    {"weaker": "L", "stronger": "L2", "max_processors": 2,
     "max_names": 2, "max_variables": 2, "allow_marks": False, "limit": None},
)
_EXPLORE_SPECS = (
    {"scenario": {"topology": "ring", "size": 3, "model": "Q"},
     "max_depth": 4, "symmetry": True},
    {"scenario": {"topology": "star", "size": 3, "model": "Q"},
     "max_depth": 3, "symmetry": True},
)

#: The workload each phase replays: its length and RNG seed.
REQUESTS = 24
SEED = 7

#: Result-document fields stripped before digesting: counters that vary
#: with cache warmth or wave composition (a duplicate request answered
#: in-wave shares one run; answered cross-wave it re-runs as a cache
#: hit — same answer, different counters).
_NONDETERMINISTIC_KEYS = ("stats", "cache_misses")


def build_workload(requests: int, seed: int) -> List[dict]:
    """The seeded request mix — pure function of ``(requests, seed)``."""
    rng = random.Random(seed)
    workload: List[dict] = []
    for _ in range(requests):
        roll = rng.random()
        if roll < 0.55:
            topology = rng.choice(_SIM_TOPOLOGIES)
            size = rng.choice(_SIM_SIZES)
            if topology == "alternating-ring" and size % 2:
                size += 1
            scenario = {
                "topology": topology,
                "size": size,
                "marks": list(rng.choice(_SIM_MARKS)),
            }
            workload.append({"op": "similarity", "scenario": scenario})
        elif roll < 0.8:
            workload.append(
                {"op": "witness", "spec": dict(rng.choice(_WITNESS_SPECS))}
            )
        else:
            doc = rng.choice(_EXPLORE_SPECS)
            workload.append(
                {"op": "explore",
                 "spec": dict(doc, scenario=dict(doc["scenario"]))}
            )
    return workload


def result_digest(result: dict) -> str:
    """A short digest of the *semantic* payload of one result document."""
    stripped = {
        key: value
        for key, value in result.items()
        if key not in _NONDETERMINISTIC_KEYS
    }
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[index]


async def _run_phase(
    phase: str,
    store_dir: str,
    workload: List[dict],
    engine_workers: int,
) -> Tuple[List[dict], dict]:
    """One service lifetime over ``workload``, all requests in flight at
    once.  Returns the results in workload order and the timings row."""
    from ..serve.service import AnalysisService

    started = time.perf_counter()
    async with AnalysisService(
        store_dir=store_dir, engine_workers=engine_workers
    ) as service:

        async def timed(request: dict) -> Tuple[dict, float]:
            t0 = time.perf_counter()
            result = await service.submit(request)
            return result, (time.perf_counter() - t0) * 1000.0

        outcomes = await asyncio.gather(*(timed(req) for req in workload))
        stats = service.stats_doc()
    elapsed = time.perf_counter() - started

    latencies = sorted(latency for _, latency in outcomes)
    store = stats.get("store", {})
    counters = stats["counters"]
    row = {
        "case": phase,
        "elapsed_s": round(elapsed, 4),
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
        "rps": round(len(latencies) / elapsed, 2),
        "store_hit_rate": (
            round(store["hits"] / store["gets"], 4) if store.get("gets") else None
        ),
        "waves": counters["waves"],
        "coalesced": counters["coalesced"],
        "errors": counters["errors"],
    }
    return [result for result, _ in outcomes], row


async def _deadline_probe(store_dir: str, engine_workers: int) -> dict:
    """Two explore requests share a wave; one carries a tiny deadline.

    Submitted together, both are queued before the wave loop runs, so
    they form one wave.  The tight request must get the deadline error;
    its wave-mate must be answered normally — a timeout abandons one
    wait, never the wave.
    """
    from ..serve.service import AnalysisService

    async with AnalysisService(
        store_dir=store_dir, engine_workers=engine_workers
    ) as service:
        tight_request, mate_request = (
            dict(spec, scenario=dict(spec["scenario"])) for spec in _EXPLORE_SPECS
        )
        tight, mate = await asyncio.gather(
            service.submit(
                {"op": "explore", "spec": tight_request, "deadline": 0.002}
            ),
            service.submit({"op": "explore", "spec": mate_request}),
        )
    return {
        "deadline_error_returned": tight.get("error") == "deadline",
        "deadline_wavemate_ok": "error" not in mate,
    }


async def _degraded_probe(store_dir: str, engine_workers: int) -> dict:
    """Sabotage store writes (injected ENOSPC); the service must detach
    the store, answer the failing request, report degraded, and keep
    serving memory-only."""
    import errno

    from ..serve.service import AnalysisService

    async with AnalysisService(
        store_dir=store_dir, engine_workers=engine_workers
    ) as service:

        def refuse_write(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device (injected)")

        service.store._write = refuse_write
        # A scenario outside the workload pools, so the answer must be
        # computed (and its store write must fail).
        first = await service.submit({
            "op": "similarity",
            "scenario": {"topology": "ring", "size": 7, "marks": []},
        })
        stats_after_failure = service.stats_doc()
        second = await service.submit({
            "op": "similarity",
            "scenario": {"topology": "star", "size": 7, "marks": []},
        })
    return {
        "degraded_answered": "error" not in first,
        "degraded_status_reported": (
            stats_after_failure.get("store") == "degraded"
        ),
        "degraded_served_after_detach": "error" not in second,
    }


def _gc_probe(store_dir: str) -> dict:
    """Collect the populated store down to half its size, then verify:
    under cap, nothing quarantined, every survivor still readable."""
    from ..store import gc as store_gc

    total = sum(u.bytes for u in store_gc.usage(store_dir).values())
    report = store_gc.collect(store_dir, max_bytes=max(1, total // 2))
    health = store_gc.check(store_dir)
    return {
        "under_cap": report.under_cap,
        "quarantined_zero": (
            report.quarantined == 0 and health["quarantined_now"] == 0
        ),
        "evicted_some": report.evicted_entries > 0,
    }


def _measure(workers: int, store_dir: str) -> Tuple[dict, List[dict], bool]:
    from ..store import ContentStore, NS_ORBITS, NS_SIMILARITY

    workload = build_workload(REQUESTS, SEED)
    engine_workers = 0 if workers <= 1 else workers
    cold_results, cold_row = asyncio.run(
        _run_phase("cold", store_dir, workload, engine_workers)
    )
    warm_results, warm_row = asyncio.run(
        _run_phase("warm", store_dir, workload, engine_workers)
    )
    with ContentStore(store_dir) as store:
        composition = {ns: store.count(ns) for ns in (NS_ORBITS, NS_SIMILARITY)}

    cold_digests = [result_digest(result) for result in cold_results]
    warm_digests = [result_digest(result) for result in warm_results]
    mix = {"similarity": 0, "witness": 0, "explore": 0}
    for request in workload:
        mix[request["op"]] += 1

    # The probes run after the composition snapshot, so the store
    # composition above reflects the workload alone.
    hardening = asyncio.run(_deadline_probe(store_dir, engine_workers))
    hardening.update(asyncio.run(_degraded_probe(store_dir, engine_workers)))
    gc = _gc_probe(store_dir)

    determinism = {
        "workload": {"requests": REQUESTS, "seed": SEED, "mix": mix},
        "results": cold_digests,
        "warm_results": warm_digests,
        "cold_warm_agree": cold_digests == warm_digests,
        "store": composition,
        "hardening": hardening,
        "gc": gc,
    }
    ok = (
        determinism["cold_warm_agree"]
        and all(hardening.values())
        and all(gc.values())
    )
    return determinism, [cold_row, warm_row], ok


def measure(workers: int, store: Optional[str]) -> Tuple[dict, List[dict], bool]:
    """Run the cold and warm phases and the probes over ``store`` (start
    it absent or empty so the cold phase is really cold), or over a fresh
    temporary directory when ``store`` is None."""
    if store is not None:
        return _measure(workers, store)
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        return _measure(workers, tmp)

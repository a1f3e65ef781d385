"""Batch similarity analysis: fingerprint dedup + process-pool fan-out.

``batch_similarity`` answers a *list* of similarity queries the way a
serving layer would: deduplicate by content fingerprint and fan the
remaining distinct systems across worker processes.  Three effects
stack:

1. **Incidence reuse** -- members of a homogeneous family share one
   :class:`~repro.core.network.Network` object, so the serial path builds
   its incidence cache once for the whole batch.
2. **Result reuse** -- systems with equal fingerprints (same network,
   states, instruction set, schedule class) are solved exactly once per
   call.  Memoizing across calls is the caller's business: the serving
   layer keeps summaries per ``(fingerprint, engine)`` in its store.
3. **Parallelism** -- distinct systems are independent, so a process pool
   scales with cores (on a single-core host the serial path is used
   automatically unless a pool is forced).

Worker processes rebuild their own incidence caches; the payload crossing
the pickle boundary is the plain system description, not the cache.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.environment import EnvironmentModel
from ..core.refinement import RefinementResult, compute_similarity_labeling
from ..core.system import System


def system_fingerprint(system: System) -> str:
    """A content hash identifying a system up to exact equality.

    Stable across processes and interpreter runs (unlike ``hash()``,
    which is randomized for strings): hashes the sorted edge list, the
    initial states, the instruction set and the schedule class via their
    reprs.  Equal systems get equal fingerprints; the cache key.  Read
    it through :attr:`System.fingerprint <repro.core.system.System
    .fingerprint>`, which computes it once per system.
    """
    net = system.network
    h = sha256()
    h.update(repr(tuple(net.names)).encode())
    for p in net.processors:
        row = tuple(net.n_nbr(p, name) for name in net.names)
        h.update(repr((p, row)).encode())
    h.update(repr(tuple(net.variables)).encode())
    h.update(
        repr(
            tuple(sorted(system.initial_state.items(), key=lambda kv: repr(kv[0])))
        ).encode()
    )
    h.update(system.instruction_set.value.encode())
    h.update(system.schedule_class.value.encode())
    return h.hexdigest()


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one :func:`batch_similarity` call.

    Attributes:
        results: one :class:`RefinementResult` per input system, input
            order preserved.
        elapsed: wall-clock seconds for the whole batch.
        workers: worker processes used (0 = serial in-process).
        cache_hits: inputs served without a fresh solve (duplicates of
            another input in the same batch).
        cache_misses: inputs that required a fresh solve.
        distinct: number of distinct fingerprints actually solved
            (equals ``cache_misses``).
    """

    results: Tuple[RefinementResult, ...]
    elapsed: float
    workers: int
    cache_hits: int
    cache_misses: int
    distinct: int


def _solve_one(
    payload: Tuple[System, Optional[EnvironmentModel], bool, str]
) -> RefinementResult:
    """Worker entry point (module-level so it pickles)."""
    system, model, include_state, engine = payload
    return compute_similarity_labeling(
        system, model=model, include_state=include_state, engine=engine
    )


def batch_similarity(
    systems: Iterable[System],
    model: Optional[EnvironmentModel] = None,
    include_state: bool = True,
    engine: str = "worklist",
    workers: Optional[int] = None,
) -> BatchReport:
    """Compute similarity labelings for many systems at once.

    Args:
        systems: the batch; duplicates (by fingerprint) are solved once.
        model / include_state / engine: forwarded to
            :func:`~repro.core.refinement.compute_similarity_labeling`.
        workers: process-pool size.  ``None`` picks ``min(4, cpu_count)``
            but stays serial on a single-core host; ``0`` or ``1`` forces
            the serial in-process path (which shares incidence caches
            across members of a homogeneous family -- often the fastest
            choice for small batches).

    Returns:
        A :class:`BatchReport`; ``report.results[i]`` corresponds to the
        i-th input system.
    """
    batch: List[System] = list(systems)
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
        if workers <= 1:
            workers = 0
    if workers <= 1:
        workers = 0

    t0 = time.perf_counter()
    fingerprints = [s.fingerprint for s in batch]
    todo: Dict[str, System] = {}
    for fp, s in zip(fingerprints, batch):
        todo.setdefault(fp, s)

    payloads = [(s, model, include_state, engine) for s in todo.values()]
    if workers and payloads:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_one, payloads))
    else:
        solved = [_solve_one(p) for p in payloads]
    by_fp = dict(zip(todo, solved))
    results = tuple(by_fp[fp] for fp in fingerprints)
    elapsed = time.perf_counter() - t0
    return BatchReport(
        results=results,
        elapsed=elapsed,
        workers=workers,
        cache_hits=len(batch) - len(todo),
        cache_misses=len(todo),
        distinct=len(todo),
    )

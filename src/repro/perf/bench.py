"""One benchmark harness: ``python -m repro bench NAME``.

Six benches regenerate the committed ``BENCH_<NAME>.json`` artifacts:

* ``refinement`` -- Theorem 5's near-linear Algorithm 1: the three
  engines on ring / torus grid / seeded-random systems of 10^2..10^4
  processors, plus the batch driver on a ring-10^4 single-mark family;
* ``mp_faults`` -- the message-passing runtime's flood workload under
  four channel-fault configurations;
* ``witness`` -- the L ⊐ Q ⊐ BF-S ⊐ F-S separation witnesses, swept
  serially, on the pool, and again over the serial sweep's warm cache;
* ``explore`` -- Figure 4's DP deadlock, Figure 5's DP' certificate and
  Theorem 4's ring lockstep, unreduced vs Θ-reduced vs pooled;
* ``parametric`` -- the three headline cutoff certificates;
* ``serve`` -- the analysis service cold vs warm over one store
  (:mod:`repro.perf.serve_bench`).

Each bench measures a module-level case list (the one seam tests shrink)
and returns ``(determinism, timings, ok)``.  :func:`run_bench` wraps that
in one document:

* ``meta`` -- host, Python, and for pooled benches the requested worker
  count with the ``degraded`` flag (more workers than CPUs);
* ``determinism`` -- values that depend on the inputs alone (verdicts,
  counts, witness lists, digests, probe booleans).  Byte-identical under
  any ``PYTHONHASHSEED`` and worker count; CI compares it against the
  committed file;
* ``timings`` -- flat rows of everything that depends on the host, the
  worker count or the clock;
* ``ok`` -- the bench's gate; the CLI exits 1 if and only if it is false.

Speed claims come from ``perfbench/``; these benches only need to be
correct, deterministic and small.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from collections import defaultdict
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.explore import ExploreSpec, run_explore
from ..analysis.parametric import run_parametric
from ..analysis.reporting import format_table
from ..analysis.witness_engine import SweepSpec, run_sweep
from ..core.families import single_mark_family
from ..core.hierarchy import POWER_ORDER
from ..core.refinement import compute_similarity_labeling
from ..core.system import InstructionSet, System
from ..messaging.mp_faults import ChannelFaults, FaultPlan
from ..messaging.mp_runtime import FloodProgram, MPExecutor
from ..messaging.mp_system import unidirectional_ring
from ..topologies.builders import random_connected_network, ring, torus_grid
from . import serve_bench
from .batch import batch_similarity

#: What every bench returns: (determinism, timings rows, gate).
Measured = Tuple[Any, List[Dict[str, Any]], bool]


def _seconds(elapsed: Optional[float]) -> Optional[float]:
    return None if elapsed is None else round(elapsed, 4)


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------


def _marked_ring(n: int) -> System:
    return System(ring(n), {"p0": 1}, InstructionSet.Q)


def _marked_grid(n: int) -> System:
    rows = max(1, int(math.sqrt(n)))
    cols = max(1, n // rows)
    return System(torus_grid(rows, cols), {"p0_0": 1}, InstructionSet.Q)


def _marked_random(n: int) -> System:
    net = random_connected_network(n, max(2, n // 2), names=("a", "b"), seed=42)
    return System(net, {"p0": 1}, InstructionSet.Q)


_REFINEMENT_SYSTEMS: Dict[str, Callable[[int], System]] = {
    "ring": _marked_ring,
    "grid": _marked_grid,
    "random": _marked_random,
}

#: (topology, processor count) cells of the engine sweep.
REFINEMENT_CASES: Tuple[Tuple[str, int], ...] = tuple(
    (topology, n)
    for topology in ("ring", "grid", "random")
    for n in (100, 1000, 10000)
)
#: Largest processor count each engine runs (the literal engine is
#: worst-case cubic); bigger cells are recorded as null.
ENGINE_GATE: Dict[str, Optional[int]] = {
    "literal": 100,
    "signatures": 1000,
    "worklist": None,
}
#: (ring size, members) of the batch driver's single-mark family.
REFINEMENT_BATCH: Tuple[int, int] = (10000, 4)


def _refinement(workers: int, _store: Optional[str]) -> Measured:
    cells: List[dict] = []
    timings: List[dict] = []
    for topology, n in REFINEMENT_CASES:
        system = _REFINEMENT_SYSTEMS[topology](n)
        for engine, gate in ENGINE_GATE.items():
            classes = elapsed = None
            if gate is None or n <= gate:
                started = time.perf_counter()
                result = compute_similarity_labeling(system, engine=engine)
                elapsed = time.perf_counter() - started
                classes = result.stats.classes
            cells.append(
                {"topology": topology, "n": n, "engine": engine, "classes": classes}
            )
            timings.append(
                {"case": f"{topology}/{n}", "engine": engine,
                 "elapsed_s": _seconds(elapsed)}
            )

    n, size = REFINEMENT_BATCH
    members = single_mark_family(
        ring(n), processors=[f"p{i}" for i in range(min(size, n))]
    ).members
    report = batch_similarity(members, engine="worklist", workers=workers)
    batch = {
        "n": n,
        "family_size": len(members),
        "distinct": report.distinct,
        "classes": [result.stats.classes for result in report.results],
    }
    timings.append(
        {"case": f"batch ring/{n} x{len(members)}", "engine": "worklist",
         "elapsed_s": _seconds(report.elapsed), "workers": report.workers}
    )

    counts: Dict[Tuple[str, int], set] = defaultdict(set)
    for cell in cells:
        if cell["classes"] is not None:
            counts[cell["topology"], cell["n"]].add(cell["classes"])
    ok = all(len(seen) == 1 for seen in counts.values())
    return {"cells": cells, "batch": batch}, timings, ok


# ----------------------------------------------------------------------
# mp_faults
# ----------------------------------------------------------------------

#: Channel configurations: ``reliable`` runs without a fault plan,
#: ``faulty-passthrough`` pays the coin flips with all probabilities 0,
#: the lossy two exercise the fault path.
MP_CONFIGS: Dict[str, Optional[ChannelFaults]] = {
    "reliable": None,
    "faulty-passthrough": ChannelFaults(),
    "lossy": ChannelFaults(drop=0.1),
    "lossy-dup-delay": ChannelFaults(drop=0.1, duplicate=0.1, delay=0.1, max_delay=4),
}
#: Unidirectional ring sizes of the flood workload.
MP_SIZES: Tuple[int, ...] = (16, 64, 256)
#: Deliveries per cell; stubborn retransmission keeps a lossy ring busy.
MP_DELIVERIES = 20_000


def _mp_faults(_workers: int, _store: Optional[str]) -> Measured:
    rows: List[dict] = []
    timings: List[dict] = []
    for n in MP_SIZES:
        # Initial values with the max far from p0 so the flood keeps working.
        mp = unidirectional_ring(n, states={i: (i * 7919) % (3 * n) for i in range(n)})
        for name, faults in MP_CONFIGS.items():
            plan = None if faults is None else FaultPlan(default=faults, seed=0)
            executor = MPExecutor(mp, FloodProgram(), seed=0, faults=plan)
            started = time.perf_counter()
            idle_rounds = 0
            while executor.stats.deliveries < MP_DELIVERIES:
                if executor.deliver_one():
                    idle_rounds = 0
                    continue
                if idle_rounds >= 25:
                    break
                executor.retransmit()
                idle_rounds += 1
            elapsed = time.perf_counter() - started
            stats = executor.stats
            rows.append(
                {
                    "n": n,
                    "config": name,
                    "deliveries": stats.deliveries,
                    "drops": stats.drops,
                    "duplicates": stats.duplicates,
                    "delayed": stats.delayed,
                    "retransmissions": stats.retransmissions,
                }
            )
            timings.append(
                {"case": f"ring/{n}", "config": name,
                 "elapsed_s": _seconds(elapsed),
                 "deliveries_per_s": round(stats.deliveries / elapsed)}
            )
    ok = all(
        row["drops"] == row["duplicates"] == row["delayed"] == 0
        for row in rows
        if row["config"] in ("reliable", "faulty-passthrough")
    )
    return {"deliveries": MP_DELIVERIES, "rows": rows}, timings, ok


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------

#: Adjacent (weaker, stronger) pairs of the paper's power order.
WITNESS_PAIRS: Tuple[Tuple[str, str], ...] = tuple(zip(POWER_ORDER, POWER_ORDER[1:]))
#: Enumeration bounds of every sweep.
WITNESS_BOUNDS: Dict[str, Any] = {
    "max_processors": 3,
    "max_names": 2,
    "max_variables": 3,
    "allow_marks": False,
}


def _witness(workers: int, _store: Optional[str]) -> Measured:
    pairs: List[dict] = []
    timings: List[dict] = []
    for weaker, stronger in WITNESS_PAIRS:
        spec = SweepSpec(weaker=weaker, stronger=stronger, **WITNESS_BOUNDS)
        serial = run_sweep(spec, workers=0)
        pooled = run_sweep(spec, workers=workers)
        cached = run_sweep(spec, workers=0, cache=serial.cache)

        witnesses = [w.describe() for w in serial.witnesses]
        agree = (
            witnesses == [w.describe() for w in pooled.witnesses]
            and witnesses == [w.describe() for w in cached.witnesses]
        )
        pairs.append(
            {
                "weaker": weaker,
                "stronger": stronger,
                "witnesses": witnesses,
                "shards": serial.shards,
                "serial_cache_hits": serial.stats.cache_hits,
                "serial_cache_misses": serial.stats.cache_misses,
                "cached_cache_misses": cached.stats.cache_misses,
                "agreement": agree,
            }
        )
        timings.append(
            {"case": f"{weaker}<{stronger}",
             "serial_s": _seconds(serial.elapsed),
             "pooled_s": _seconds(pooled.elapsed),
             "pooled_workers": pooled.workers,
             "cached_s": _seconds(cached.elapsed)}
        )
    determinism = {"bounds": dict(WITNESS_BOUNDS), "pairs": pairs}
    return determinism, timings, all(pair["agreement"] for pair in pairs)


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------

#: (name, spec): Figure 4's uniform dining ring must rediscover the
#: circular-hold deadlock; Figure 5's alternating ring is certified
#: deadlock-free to the depth bound; a symmetric ring keeps Θ-classes in
#: lockstep under k-bounded schedules (the bounded Theorem 4 check).
EXPLORE_CASES: Tuple[Tuple[str, ExploreSpec], ...] = (
    (
        "dp-deadlock",
        ExploreSpec(
            scenario={"topology": "dining", "size": 5, "program": "left-first"},
            max_depth=10,
            invariants=("exclusion",),
        ),
    ),
    (
        "dp-prime-certified",
        ExploreSpec(
            scenario={"topology": "dining", "size": 6, "alternating": True,
                      "program": "left-first"},
            max_depth=12,
            invariants=("exclusion",),
        ),
    ),
    (
        "ring-lockstep",
        ExploreSpec(
            scenario={"topology": "ring", "size": 4, "model": "Q",
                      "program": "random"},
            max_depth=8,
            fairness="k-bounded",
            k=4,
            invariants=("lockstep",),
            check_deadlock=False,
        ),
    ),
)


def _violation(result) -> Optional[dict]:
    return None if result.violation is None else result.violation.to_json()


def _explore(workers: int, _store: Optional[str]) -> Measured:
    cases: List[dict] = []
    timings: List[dict] = []
    for name, spec in EXPLORE_CASES:
        unreduced = run_explore(replace(spec, symmetry=False), workers=0)
        reduced = run_explore(spec, workers=0)
        pooled = run_explore(spec, workers=workers)
        violation = _violation(unreduced)
        agree = (
            unreduced.verdict == reduced.verdict == pooled.verdict
            and violation == _violation(reduced) == _violation(pooled)
            and reduced.unique_states <= unreduced.unique_states
        )
        cases.append(
            {
                "case": name,
                "verdict": unreduced.verdict,
                "violation": violation,
                "max_depth": spec.max_depth,
                "group_size": reduced.group_size,
                "states_unreduced": unreduced.unique_states,
                "states_reduced": reduced.unique_states,
                "transitions_unreduced": unreduced.stats.transitions,
                "transitions_reduced": reduced.stats.transitions,
                "agreement": agree,
            }
        )
        timings.append(
            {"case": name,
             "unreduced_s": _seconds(unreduced.elapsed),
             "reduced_s": _seconds(reduced.elapsed),
             "pooled_s": _seconds(pooled.elapsed),
             "pooled_workers": pooled.workers,
             "shards": pooled.shards}
        )
    return {"cases": cases}, timings, all(case["agreement"] for case in cases)


# ----------------------------------------------------------------------
# parametric
# ----------------------------------------------------------------------

#: The headline "for all n" claims as (family, property) pairs.
PARAMETRIC_CASES: Tuple[Tuple[str, str], ...] = (
    ("dp", "deadlock"),
    ("dp-prime", "deadlock-free"),
    ("ring", "lockstep"),
)


def _parametric(_workers: int, _store: Optional[str]) -> Measured:
    determinism: Dict[str, dict] = {}
    timings: List[dict] = []
    for family, prop in PARAMETRIC_CASES:
        key = f"{family}/{prop}"
        started = time.perf_counter()
        determinism[key] = run_parametric(family, prop)
        timings.append(
            {"case": key, "elapsed_s": _seconds(time.perf_counter() - started)}
        )
    ok = all(
        report["verify_cutoff"]["confirmed"] for report in determinism.values()
    )
    return determinism, timings, ok


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

BENCHES: Dict[str, Callable[[int, Optional[str]], Measured]] = {
    "refinement": _refinement,
    "mp_faults": _mp_faults,
    "witness": _witness,
    "explore": _explore,
    "parametric": _parametric,
    "serve": serve_bench.measure,
}
#: Benches that never start a pool, so ``--workers`` means nothing there.
_SERIAL = frozenset({"mp_faults", "parametric"})


def bench_meta(requested_workers: Optional[int] = None) -> dict:
    """The ``meta`` block: host facts, and for pooled benches the
    requested pool size plus ``degraded`` -- True when that exceeds the
    host's CPUs, so every pooled timing measures time-slicing."""
    cpus = os.cpu_count() or 1
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpu_count": cpus,
    }
    if requested_workers is not None:
        meta["requested_workers"] = requested_workers
        meta["degraded"] = requested_workers > cpus
    return meta


def write_json(path: str, doc: Any) -> None:
    """The one writer of both output files (and of CI's comparisons)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_bench(
    name: str,
    workers: int = 2,
    output: Optional[str] = None,
    determinism_output: Optional[str] = None,
    store: Optional[str] = None,
) -> dict:
    """Run bench ``name`` and return ``{"meta", "determinism", "timings",
    "ok"}``; write the document to ``output`` and the determinism block
    alone to ``determinism_output`` when given.  ``store`` is the serve
    bench's store directory (default: a fresh temporary one)."""
    determinism, timings, ok = BENCHES[name](workers, store)
    meta = bench_meta(None if name in _SERIAL else workers)
    doc = {
        "meta": dict(meta, bench=name),
        "determinism": determinism,
        "timings": timings,
        "ok": ok,
    }
    if output:
        write_json(output, doc)
    if determinism_output:
        write_json(determinism_output, determinism)
    return doc


def format_timings(doc: dict) -> str:
    """The ``timings`` rows as a table, under a host line, over the gate."""
    meta = doc["meta"]
    title = (
        f"bench {meta['bench']} (python {meta['python']}, "
        f"{meta['cpu_count']} cpu"
    )
    if "requested_workers" in meta:
        title += f", {meta['requested_workers']} workers requested"
        if meta["degraded"]:
            title += ", DEGRADED: more workers than cpus"
    rows = doc["timings"]
    headers = list(dict.fromkeys(key for row in rows for key in row))
    table = format_table(
        headers,
        [["-" if row.get(h) is None else row[h] for h in headers] for row in rows],
        title=title + ")",
    )
    return f"{table}\nok: {'yes' if doc['ok'] else 'NO'}"

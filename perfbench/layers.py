"""The traced layers of ``repro`` and the per-layer metrics built from them.

Each :class:`~perfbench.tracing.Target` is a public function or method
that one layer exposes; a call into it is a span of that layer.  Every
target reports ``<layer>.<fn>.calls`` and ``<layer>.<fn>.self_s``.  The
extra metrics below come from hooks on a few calls, from the service's
own statistics, or from the run.  Every traced run prints every metric,
so a layer that a workload does not use reads zero there.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from .tracing import Hook, Target, Totals

TARGETS: Tuple[Target, ...] = (
    Target("analysis.parametric", "repro.analysis.parametric", "detect_cutoff"),
    Target("analysis.parametric", "repro.analysis.parametric", "verify_cutoff"),
    Target("analysis.parametric", "repro.analysis.parametric",
           "compute_labeling_schema"),
    # A run_explore inside a run_explore is the counterexample re-search.
    Target("analysis.explore", "repro.analysis.explore", "run_explore",
           nested="research"),
    Target("runtime.executor", "repro.runtime.executor", "Executor.successor"),
    Target("runtime.executor", "repro.runtime.executor",
           "Executor.exploration_state"),
    Target("core.encoding", "repro.core.encoding", "StateEncoder.identity_key"),
    Target("core.orbits", "repro.core.orbits",
           "StabilizerChainCanonicalizer.canonical_key"),
    Target("analysis.witness_engine", "repro.analysis.witness_engine",
           "run_sweep"),
    Target("core.quotient", "repro.core.quotient", "canonical_form"),
    Target("core.quotient", "repro.core.quotient", "are_isomorphic"),
    Target("core.selection", "repro.core.selection", "decide_selection"),
    Target("core.refinement", "repro.core.refinement",
           "compute_similarity_labeling"),
    Target("perf.batch", "repro.perf.batch", "batch_similarity"),
    Target("perf.batch", "repro.perf.batch", "system_fingerprint"),
    Target("obs.scenarios", "repro.obs.scenarios", "build_scenario"),
    Target("store", "repro.store.content", "ContentStore.get"),
    Target("store", "repro.store.content", "ContentStore.put"),
    Target("store", "repro.store.content", "ContentStore.flush"),
    Target("serve", "repro.serve.service", "AnalysisService.submit"),
)

#: Labels that report calls and self time: every target, plus the
#: nested re-search label.
LABELS: Tuple[str, ...] = tuple(
    label
    for target in TARGETS
    for label in (target.label, target.nested_label)
    if label
)

#: Metrics beyond calls/self_s, in output order: (name, unit).
EXTRA: Tuple[Tuple[str, str], ...] = (
    ("analysis.explore.research_s", "s"),
    ("analysis.explore.research_share", "ratio"),
    ("analysis.explore.states", "count"),
    ("analysis.explore.transitions", "count"),
    ("analysis.witness_engine.cache_hit_ratio", "ratio"),
    ("analysis.witness_engine.enumerated", "count"),
    ("analysis.witness_engine.worker_busy_s", "s"),
    ("analysis.witness_engine.pool_util", "ratio"),
    ("core.refinement.ms_per_call", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.writes", "count"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.wait_s", "s"),
    ("serve.engine_busy_s", "s"),
    ("serve.engine_util", "ratio"),
    ("serve.waves", "count"),
    ("serve.coalesced", "count"),
    ("tracing.overhead_s", "s"),
    ("tracing.coverage", "ratio"),
    ("tracing.missing", "count"),
    ("fail_ratio", "ratio"),
)


def metric_specs() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    specs: List[Tuple[str, str]] = []
    for label in LABELS:
        specs.append((f"{label}.calls", "count"))
        specs.append((f"{label}.self_s", "s"))
    specs.extend(EXTRA)
    return specs


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _explore_leave(counts, _token, result) -> None:
    counts["explore.states"] = counts.get("explore.states", 0) + result.unique_states
    counts["explore.transitions"] = (
        counts.get("explore.transitions", 0) + result.stats.transitions
    )


def _sweep_leave(counts, cpu_before, result) -> None:
    # Pool workers are reaped before run_sweep returns, so their CPU
    # time shows in RUSAGE_CHILDREN by then.
    busy = _children_cpu_s() - cpu_before
    for key, value in (
        ("sweep.enumerated", result.stats.enumerated),
        ("sweep.cache_hits", result.stats.cache_hits),
        ("sweep.cache_misses", result.stats.cache_misses),
        ("sweep.worker_busy_s", busy),
        ("sweep.capacity_s", result.workers * result.elapsed),
    ):
        counts[key] = counts.get(key, 0) + value


def _get_leave(counts, _token, result) -> None:
    if result is not None:
        counts["store.hits"] = counts.get("store.hits", 0) + 1


def _flush_leave(counts, _token, written) -> None:
    counts["store.writes"] = counts.get("store.writes", 0) + written


HOOKS: Dict[str, Hook] = {
    "analysis.explore.run_explore": (None, _explore_leave),
    "analysis.witness_engine.run_sweep": (_children_cpu_s, _sweep_leave),
    "store.get": (None, _get_leave),
    "store.flush": (None, _flush_leave),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union_s(spans: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(spans):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def derive(totals: Totals, wall_s: float, untraced_wall_s: float,
           missing: int, fail_ratio: float, serve: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values of one traced phase.

    Args:
        totals: what the tracer recorded over the traced phase.
        wall_s: the traced phase's wall time.
        untraced_wall_s: the same phase's wall time with tracing off.
        missing: traced names that could not be found.
        fail_ratio: failed over attempted operations in the traced run.
        serve: for the serve workload, ``waves``, ``coalesced``,
            ``wave_request_s`` (sum over waves of requests x wave time)
            and ``client_s`` (summed client-side latency); empty
            otherwise.
    """
    values: Dict[str, float] = {}
    for label in LABELS:
        values[f"{label}.calls"] = totals.calls(label)
        values[f"{label}.self_s"] = totals.self_s(label)

    research_s = totals.incl_s("analysis.explore.research")
    values["analysis.explore.research_s"] = research_s
    values["analysis.explore.research_share"] = _ratio(
        research_s, totals.incl_s("analysis.explore.run_explore")
    )
    values["analysis.explore.states"] = totals.count("explore.states")
    values["analysis.explore.transitions"] = totals.count("explore.transitions")

    hits = totals.count("sweep.cache_hits")
    values["analysis.witness_engine.cache_hit_ratio"] = _ratio(
        hits, hits + totals.count("sweep.cache_misses")
    )
    values["analysis.witness_engine.enumerated"] = totals.count("sweep.enumerated")
    busy = totals.count("sweep.worker_busy_s")
    values["analysis.witness_engine.worker_busy_s"] = busy
    values["analysis.witness_engine.pool_util"] = _ratio(
        busy, totals.count("sweep.capacity_s")
    )

    refine = "core.refinement.compute_similarity_labeling"
    values["core.refinement.ms_per_call"] = 1000.0 * _ratio(
        totals.incl_s(refine), totals.calls(refine)
    )

    values["store.hit_ratio"] = _ratio(
        totals.count("store.hits"), totals.calls("store.get")
    )
    values["store.writes"] = totals.count("store.writes")

    submits = totals.spans.get("serve.submit", [])
    durations = sorted(end - start for start, end in submits)
    submit_s = sum(durations)
    values["serve.submit_p50_ms"] = (
        1000.0 * statistics.median(durations) if durations else 0.0
    )
    values["serve.http_ms"] = 1000.0 * _ratio(
        serve.get("client_s", 0.0) - submit_s, len(durations)
    ) if durations else 0.0
    values["serve.wait_s"] = (
        submit_s - serve.get("wave_request_s", 0.0) if durations else 0.0
    )
    engine_busy = totals.thread_top_s("repro-serve")
    values["serve.engine_busy_s"] = engine_busy
    values["serve.engine_util"] = _ratio(engine_busy, wall_s) if durations else 0.0
    values["serve.waves"] = serve.get("waves", 0)
    values["serve.coalesced"] = serve.get("coalesced", 0)

    values["tracing.overhead_s"] = wall_s - untraced_wall_s
    if submits:
        covered = _union_s(submits)
    else:
        covered = totals.top_s.get("MainThread", 0.0)
    values["tracing.coverage"] = _ratio(covered, wall_s)
    values["tracing.missing"] = missing
    values["fail_ratio"] = fail_ratio
    return values

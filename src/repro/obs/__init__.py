"""repro.obs — structured-event observability and deterministic replay.

One instrumentation layer threads through the whole codebase:

* the shared-variable :class:`~repro.runtime.executor.Executor` (and its
  recording subclass), the message-passing
  :class:`~repro.messaging.mp_runtime.MPExecutor`, the
  :class:`~repro.runtime.faults.CrashScheduler`, and the three
  refinement engines all emit typed events (:mod:`repro.obs.events`);
* events flow to pluggable sinks (:mod:`repro.obs.sinks`): in-memory
  ring buffer, JSONL file writer, metrics counters/timers;
* a recorded run serializes to a JSONL *trace* — schedule, seeds,
  per-step actions, sampled configuration digests — which
  :func:`replay_trace` reloads and re-executes, asserting digest
  agreement at every sampled step and diffing the first divergent node
  state on mismatch (:mod:`repro.obs.replay`);
* :mod:`repro.obs.report` renders a loaded trace back into the census /
  timeline / metrics views.

Only :mod:`~repro.obs.events` and :mod:`~repro.obs.sinks` are imported
eagerly (they are dependency-free, so the runtime can import them
without cycles); the trace/replay/report machinery loads on first
attribute access.
"""

from .events import (
    ConfigSampled,
    CrashManifested,
    Event,
    EventHub,
    ExplorationProgress,
    InvariantViolated,
    MessageDelivered,
    MessageDropped,
    MessageDuplicated,
    ProcessorCrashedMP,
    RefinementCompleted,
    RefinementRound,
    ServeDegraded,
    ServeWave,
    StepExecuted,
    StoreEvicted,
    WitnessFound,
    WitnessSearchProgress,
)
from .sinks import EventSink, JsonlSink, MetricsSink, RingBufferSink

_LAZY = {
    # trace serialization
    "Trace": "trace_io",
    "TraceError": "trace_io",
    "TraceWriter": "trace_io",
    "config_digest": "trace_io",
    "digest_matches": "trace_io",
    "load_trace": "trace_io",
    "node_digests": "trace_io",
    "stable_digest": "trace_io",
    # scenarios (named, JSON-serializable run specs)
    "MPScenarioBundle": "scenarios",
    "ScenarioBundle": "scenarios",
    "ScenarioError": "scenarios",
    "build_mp_scenario": "scenarios",
    "build_scenario": "scenarios",
    "record_mp_scenario": "scenarios",
    "record_scenario": "scenarios",
    # replay
    "Divergence": "replay",
    "ReplayReport": "replay",
    "replay_explore_trace": "replay",
    "replay_mp_trace": "replay",
    "replay_trace": "replay",
    # reporting
    "mp_trace_report": "report",
    "trace_census": "report",
    "trace_report": "report",
    "trace_timeline": "report",
}

__all__ = [
    "ConfigSampled",
    "CrashManifested",
    "Event",
    "EventHub",
    "EventSink",
    "ExplorationProgress",
    "InvariantViolated",
    "JsonlSink",
    "MessageDelivered",
    "MessageDropped",
    "MessageDuplicated",
    "MetricsSink",
    "ProcessorCrashedMP",
    "RefinementCompleted",
    "RefinementRound",
    "RingBufferSink",
    "ServeDegraded",
    "ServeWave",
    "StepExecuted",
    "StoreEvicted",
    "WitnessFound",
    "WitnessSearchProgress",
] + sorted(_LAZY)


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

"""Typed structured events — the vocabulary of the observability layer.

Every interesting runtime occurrence is one immutable event object:

* :class:`StepExecuted` — the executor performed one atomic step;
* :class:`CrashManifested` — a configured crash took effect in a
  :class:`~repro.runtime.faults.CrashScheduler`;
* :class:`MessageDelivered` — the message-passing simulator delivered
  one message;
* :class:`MessageDropped` / :class:`MessageDuplicated` — a per-channel
  fault policy lost or duplicated a send in the message-passing
  simulator;
* :class:`ProcessorCrashedMP` — a crash-stop fault took effect in the
  message-passing simulator (pending deliveries to the processor were
  discarded);
* :class:`RefinementRound` / :class:`RefinementCompleted` — progress of
  a partition-refinement engine;
* :class:`ConfigSampled` — a digest of the whole-system configuration,
  taken at a sampled step boundary (the anchor of deterministic replay);
* :class:`WitnessSearchProgress` / :class:`WitnessFound` — shard
  completions and final (deterministically ordered) witnesses of the
  separation-witness sweep engine.

Events carry *live* payloads (the actual :class:`StepRecord`, the actual
payload object); :meth:`Event.to_json` flattens them to JSON scalars for
the JSONL sink, using ``repr`` for arbitrary hashables — reprs of the
tuples/dataclasses used as local states are deterministic across
interpreter runs, which is what makes the serialized stream comparable
under different ``PYTHONHASHSEED`` values.

This module deliberately imports nothing from the rest of the package,
so any layer (runtime, messaging, core.refinement) can emit events
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class Event:
    """Base class of all structured events."""

    kind: ClassVar[str] = "event"

    def to_json(self) -> Dict[str, Any]:
        """A JSON-scalar dict for line-oriented serialization."""
        return {"kind": self.kind}


@dataclass(frozen=True)
class StepExecuted(Event):
    """One executed step of the shared-variable executor.

    ``record`` is the live :class:`~repro.runtime.executor.StepRecord`
    (action and result are real objects, not reprs).  A record with
    ``noop=True`` is a scheduled slot wasted on an already-halted
    processor: no instruction ran and no state changed.
    """

    kind: ClassVar[str] = "step"

    record: Any

    def to_json(self) -> Dict[str, Any]:
        r = self.record
        return {
            "kind": self.kind,
            "i": r.index,
            "p": str(r.processor),
            "a": type(r.action).__name__,
            "action": repr(r.action),
            "r": repr(r.result),
            "noop": bool(r.noop),
        }


@dataclass(frozen=True)
class CrashManifested(Event):
    """A configured crash took effect.

    Attributes:
        processor: who crashed.
        crash_step: the configured crash step.
        observed_step: the step index at which the scheduler first had to
            route around the crashed processor.
    """

    kind: ClassVar[str] = "crash"

    processor: Any
    crash_step: int
    observed_step: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "p": str(self.processor),
            "crash_step": self.crash_step,
            "observed_step": self.observed_step,
        }


@dataclass(frozen=True)
class MessageDelivered(Event):
    """One delivery step of the message-passing simulator."""

    kind: ClassVar[str] = "delivery"

    index: int
    sender: Any
    receiver: Any
    port: str
    payload: Any

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "i": self.index,
            "from": str(self.sender),
            "to": str(self.receiver),
            "port": str(self.port),
            "payload": repr(self.payload),
        }


@dataclass(frozen=True)
class MessageDropped(Event):
    """A channel fault policy lost one send.

    ``index`` is the delivery-step clock at the moment of the send (the
    number of deliveries performed so far), not a delivery index of its
    own: drops never consume a delivery step.
    """

    kind: ClassVar[str] = "drop"

    index: int
    sender: Any
    receiver: Any
    port: str
    payload: Any

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "i": self.index,
            "from": str(self.sender),
            "to": str(self.receiver),
            "port": str(self.port),
            "payload": repr(self.payload),
        }


@dataclass(frozen=True)
class MessageDuplicated(Event):
    """A channel fault policy duplicated one send (two copies enqueued)."""

    kind: ClassVar[str] = "dup"

    index: int
    sender: Any
    receiver: Any
    port: str
    payload: Any

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "i": self.index,
            "from": str(self.sender),
            "to": str(self.receiver),
            "port": str(self.port),
            "payload": repr(self.payload),
        }


@dataclass(frozen=True)
class ProcessorCrashedMP(Event):
    """A crash-stop fault took effect in the message-passing simulator.

    Attributes:
        processor: who crashed.
        crash_index: the configured crash point on the delivery clock.
        observed_index: the delivery-step count when the executor first
            routed around the crash (>= ``crash_index``).
        discarded: pending deliveries to the processor that were thrown
            away when the crash manifested.
    """

    kind: ClassVar[str] = "mp-crash"

    processor: Any
    crash_index: int
    observed_index: int
    discarded: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "p": str(self.processor),
            "crash_index": self.crash_index,
            "observed_index": self.observed_index,
            "discarded": self.discarded,
        }


@dataclass(frozen=True)
class RefinementRound(Event):
    """One global round of a refinement engine (literal/signature style)."""

    kind: ClassVar[str] = "refinement-round"

    engine: str
    round_index: int
    classes: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "round": self.round_index,
            "classes": self.classes,
        }


@dataclass(frozen=True)
class RefinementCompleted(Event):
    """A refinement engine reached its fixpoint."""

    kind: ClassVar[str] = "refinement"

    engine: str
    rounds: int
    splits: int
    classes: int
    elapsed: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "rounds": self.rounds,
            "splits": self.splits,
            "classes": self.classes,
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class ConfigSampled(Event):
    """A configuration digest at a sampled step boundary.

    Attributes:
        step: how many steps had executed when the sample was taken.
        digest: stable digest of the whole configuration.
        node_digests: per-node state digests (``str(node) -> digest``),
            the evidence replay uses to point at the first divergent node.
    """

    kind: ClassVar[str] = "config"

    step: int
    digest: str
    node_digests: Mapping[str, str]

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "digest": self.digest,
            "nodes": dict(self.node_digests),
        }


@dataclass(frozen=True)
class WitnessSearchProgress(Event):
    """One shard of a separation-witness sweep completed.

    Attributes:
        shard: compact shard key, ``"<procs>x<names>:<prefix>"``.
        enumerated: candidates enumerated in the shard.
        novel: candidates that survived the shard's isomorphism dedup.
        witnesses: separation witnesses the shard collected.
        cache_hits / cache_misses: decision-cache traffic of the shard.
        resumed: True when the shard was loaded from a checkpoint rather
            than executed.
    """

    kind: ClassVar[str] = "witness-shard"

    shard: str
    enumerated: int
    novel: int
    witnesses: int
    cache_hits: int
    cache_misses: int
    resumed: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "enumerated": self.enumerated,
            "novel": self.novel,
            "witnesses": self.witnesses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class WitnessFound(Event):
    """One separation witness of the merged (deterministic) sweep output.

    Emitted after the sorted merge, so ``index`` is the witness's
    position in the final list -- identical across worker counts and
    ``PYTHONHASHSEED`` values.
    """

    kind: ClassVar[str] = "witness"

    index: int
    weaker: str
    stronger: str
    description: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "i": self.index,
            "weaker": self.weaker,
            "stronger": self.stronger,
            "description": self.description,
        }


@dataclass(frozen=True)
class ExplorationProgress(Event):
    """One unit of a bounded schedule-space exploration completed: a BFS
    level, or the whole tree of a DFS walk.

    Attributes:
        shard: ``"depth-<d>"`` for BFS level ``d``, ``"root"`` for a DFS
            walk.
        visited: states the unit checked (discovered and verified).
        expanded: states whose successor set was enumerated.
        transitions: successor executions performed.
        violation: True when the unit found an invariant violation,
            deadlock or livelock.
        resumed: True when the unit was loaded from a checkpoint rather
            than executed.
    """

    kind: ClassVar[str] = "explore-shard"

    shard: str
    visited: int
    expanded: int
    transitions: int
    violation: bool = False
    resumed: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "visited": self.visited,
            "expanded": self.expanded,
            "transitions": self.transitions,
            "violation": self.violation,
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class InvariantViolated(Event):
    """The merged (deterministic) verdict of an exploration that failed.

    Emitted after the plan-order merge, so the reported counterexample is
    identical across worker counts and ``PYTHONHASHSEED`` values.

    Attributes:
        violation_kind: ``"deadlock"``, ``"livelock"`` or ``"invariant"``.
        invariant: the violated invariant's registry name (empty for the
            built-in deadlock/livelock checks).
        depth: length of the counterexample schedule prefix.
        schedule: the counterexample prefix, joined with ``,``.
        detail: human-readable description of the violated condition.
    """

    kind: ClassVar[str] = "invariant-violated"

    violation_kind: str
    invariant: str
    depth: int
    schedule: str
    detail: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "violation": self.violation_kind,
            "invariant": self.invariant,
            "depth": self.depth,
            "schedule": self.schedule,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ServeWave(Event):
    """One coalesced wave of the analysis service completed.

    Attributes:
        op: the operation kind (``"similarity"``, ``"witness"``,
            ``"explore"``).
        requests: requests coalesced into the wave.
        jobs: distinct jobs actually executed (identical requests share).
        elapsed_ms: wall-clock time of the wave, in milliseconds.
    """

    kind: ClassVar[str] = "serve-wave"

    op: str
    requests: int
    jobs: int
    elapsed_ms: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "op": self.op,
            "requests": self.requests,
            "jobs": self.jobs,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass(frozen=True)
class StoreEvicted(Event):
    """The store garbage collector evicted entries from one namespace.

    Attributes:
        namespace: the namespace that lost entries.
        evicted: entries removed from it by this GC pass.
        freed_bytes: bytes the namespace shrank by.
        remaining_entries / remaining_bytes: what survives on disk.
    """

    kind: ClassVar[str] = "store-evicted"

    namespace: str
    evicted: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "namespace": self.namespace,
            "evicted": self.evicted,
            "freed_bytes": self.freed_bytes,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
        }


@dataclass(frozen=True)
class ServeDegraded(Event):
    """The analysis service detached an unwritable store at runtime.

    From this point the service answers from memory only; reads and
    writes to the store stop, and ``/v1/stats`` reports
    ``"store": "degraded"``.
    """

    kind: ClassVar[str] = "serve-degraded"

    reason: str

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "reason": self.reason}


class EventHub:
    """A tiny synchronous dispatcher: attach sinks, emit events.

    The executor (and friends) hold one hub each; emission is guarded by
    :attr:`active` so an un-observed run pays a single attribute check
    per step.
    """

    __slots__ = ("_sinks",)

    def __init__(self) -> None:
        self._sinks: List[Any] = []

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def attach(self, sink) -> Any:
        """Attach ``sink`` (anything with ``on_event``); returns it."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink) -> None:
        self._sinks.remove(sink)

    def emit(self, event: Event) -> None:
        for sink in self._sinks:
            sink.on_event(event)

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def emit_if_active(
    hub: Optional[EventHub], event: Callable[..., Event], **fields: Any
) -> None:
    """Emit ``event(**fields)`` on ``hub`` if a sink is attached.

    The engines' one guard for progress and verdict events: with no hub,
    or a hub nothing listens to, no event is built."""
    if hub is not None and hub.active:
        hub.emit(event(**fields))

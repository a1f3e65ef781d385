"""Trace files: recorded runs as JSONL, with stable configuration digests.

A *trace* is a line-oriented JSON file:

* line 1 — a ``header`` document: format version, the scenario spec that
  rebuilds the run (see :mod:`repro.obs.scenarios`), the serialized
  system (:func:`repro.io.system_to_dict`, for human inspection), the
  step budget, and the sampling stride;
* then, in step order — ``step`` events (one per executed step, carrying
  the scheduled processor, the action, its result repr, and the no-op
  flag), interleaved with ``crash`` events and ``config`` samples (a
  whole-configuration digest plus per-node state digests every
  ``sample_every`` steps, starting with the initial configuration);
* last line — an ``end`` document with the final step count and digest.

Digests are SHA-256 over the canonical byte encoding
(:func:`repro.core.encoding.encode_value`), truncated to 16 hex chars —
injective and independent of repr formatting, dict/set iteration order,
and ``PYTHONHASHSEED`` *by construction*, not by the accident that the
values recorded so far happened to have order-stable reprs.  A trace
whose digests were taken any other way (such as over ``repr(value)``)
does not match, and replay reports the divergence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.encoding import encode_value
from ..exceptions import ReproError
from .sinks import JsonlSink

TRACE_VERSION = 1


class TraceError(ReproError):
    """The trace file is malformed or incompatible."""


def stable_digest(value: Any) -> str:
    """A short hex digest of ``value``'s canonical byte encoding.

    Routed through :func:`~repro.core.encoding.encode_value`, so the
    digest is injective on the encodable value space and independent of
    repr formatting and hash-randomized iteration order — the same
    retirement of repr-keying that PR 6 applied to the analysis caches.
    """
    return hashlib.sha256(encode_value(value)).hexdigest()[:16]


def digest_matches(recorded: Optional[str], value: Any) -> bool:
    """Does a digest recorded in a trace match ``value``?"""
    return recorded is not None and recorded == stable_digest(value)


def config_digest(executor) -> str:
    """Digest of the executor's whole-system configuration."""
    return stable_digest(executor.configuration())


def node_digests(executor) -> Dict[str, str]:
    """Per-node state digests, keyed by ``str(node)``."""
    return {
        str(node): stable_digest(executor.node_state(node))
        for node in executor.system.nodes
    }


class TraceWriter(JsonlSink):
    """A :class:`JsonlSink` that also knows the trace framing.

    Attach it to an executor (``sink=writer``) and a
    :class:`~repro.runtime.faults.CrashScheduler`; call
    :meth:`write_header` first, :meth:`sample` at boundaries, and
    :meth:`write_end` when done.
    """

    def write_header(
        self,
        scenario: Dict[str, Any],
        system_doc: Dict[str, Any],
        steps: int,
        sample_every: int,
    ) -> None:
        self.write_doc(
            {
                "kind": "header",
                "version": TRACE_VERSION,
                "scenario": scenario,
                "system": system_doc,
                "steps": steps,
                "sample_every": sample_every,
            }
        )

    def sample(self, executor) -> str:
        """Write a ``config`` sample for the executor's current state."""
        digest = config_digest(executor)
        self.write_doc(
            {
                "kind": "config",
                "step": executor.step_count,
                "digest": digest,
                "nodes": node_digests(executor),
            }
        )
        return digest

    def write_end(self, executor) -> str:
        digest = config_digest(executor)
        self.write_doc(
            {"kind": "end", "steps": executor.step_count, "digest": digest}
        )
        return digest


@dataclass
class Trace:
    """A parsed trace file.

    Attributes:
        header: the header document.
        steps: the ``step`` documents, in order.
        samples: the ``config`` documents, in order (first is the initial
            configuration).
        crashes: the ``crash`` documents.
        end: the ``end`` document (None for a truncated trace).
        extras: any other event documents (deliveries, refinement stats).
    """

    header: Dict[str, Any]
    steps: List[Dict[str, Any]] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    end: Optional[Dict[str, Any]] = None
    extras: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def scenario(self) -> Dict[str, Any]:
        return self.header.get("scenario", {})

    @property
    def sample_every(self) -> int:
        return int(self.header.get("sample_every", 0))

    def schedule(self) -> List[str]:
        """The recorded schedule as ``str(processor)`` ids."""
        return [doc["p"] for doc in self.steps]

    #: event kinds emitted by the message-passing executor, in-stream
    _MP_KINDS = ("delivery", "drop", "dup", "mp-crash")

    @property
    def mp_events(self) -> List[Dict[str, Any]]:
        """Message-passing events (deliveries and faults), in order.

        The interleaved order is significant: fault events caused by the
        sends of delivery *i* appear before the ``delivery`` document
        for *i*, and replay compares the whole stream positionally.
        """
        return [d for d in self.extras if d.get("kind") in self._MP_KINDS]

    @property
    def deliveries(self) -> List[Dict[str, Any]]:
        """Just the ``delivery`` documents, in delivery order."""
        return [d for d in self.extras if d.get("kind") == "delivery"]

    def samples_by_step(self) -> Dict[int, Dict[str, Any]]:
        return {int(doc["step"]): doc for doc in self.samples}


def parse_trace(lines) -> Trace:
    """Parse an iterable of JSONL lines into a :class:`Trace`."""
    trace: Optional[Trace] = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: invalid JSON: {exc}") from exc
        kind = doc.get("kind")
        if trace is None:
            if kind != "header":
                raise TraceError(
                    f"line {lineno}: expected a header document, got {kind!r}"
                )
            version = doc.get("version")
            if version != TRACE_VERSION:
                raise TraceError(
                    f"unsupported trace version {version!r} "
                    f"(this reader understands {TRACE_VERSION})"
                )
            trace = Trace(header=doc)
        elif kind == "step":
            trace.steps.append(doc)
        elif kind == "config":
            trace.samples.append(doc)
        elif kind == "crash":
            trace.crashes.append(doc)
        elif kind == "end":
            trace.end = doc
        else:
            trace.extras.append(doc)
    if trace is None:
        raise TraceError("empty trace file")
    return trace


def load_trace(path: str) -> Trace:
    """Load and parse a trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle)

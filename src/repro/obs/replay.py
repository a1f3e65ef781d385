"""Deterministic replay: re-run a recorded trace and verify agreement.

:func:`replay_trace` rebuilds the run from the trace header's scenario
spec and re-executes it, checking, at every step, that the replay
scheduled the same processor, issued the same action, and observed the
same result as the recording — and, at every sampled boundary, that the
whole-configuration digest matches.  On a digest mismatch it diffs the
per-node digests and names the first divergent node, which is the
debugging handle: *which* state went wrong, not just *that* something
did.

Two modes:

* ``"schedule"`` (default) — drive the replay with a
  :class:`~repro.runtime.scheduler.ReplayScheduler` over the recorded
  schedule.  This replays faithfully even if the original scheduler was
  randomized or crash-wrapped: crashes in this codebase are purely
  schedule-level (a crashed processor simply stops appearing), so the
  recorded schedule already embeds their effect.
* ``"scheduler"`` — rebuild the original seeded scheduler stack
  (including the :class:`~repro.runtime.faults.CrashScheduler` wrapper)
  and let *it* choose.  This additionally verifies that the scheduler
  itself is deterministic: any drift shows up as a schedule divergence.

Either way, agreement at every sampled digest plus agreement on every
step document means the replayed execution is the recorded execution.

Counterexample traces written by the schedule-space explorer
(``"kind": "explore"``, see :mod:`repro.analysis.explore`) replay
through :func:`replay_explore_trace`: the recorded schedule is an
explicit choice sequence, so only ``"schedule"`` mode applies, and the
replay additionally re-establishes — via
:func:`repro.analysis.explore.verify_counterexample` — that the final
configuration really violates what the explorer claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..messaging.mp_scheduler import DeliveryReplayError, ReplayDeliveryScheduler
from ..runtime.executor import Executor
from ..runtime.scheduler import ReplayScheduler
from .events import StepExecuted
from .scenarios import build_mp_scenario, build_scenario
from .trace_io import (
    Trace,
    TraceError,
    config_digest,
    digest_matches,
    load_trace,
    node_digests,
)

_REPLAY_MODES = ("schedule", "scheduler")


@dataclass(frozen=True)
class Divergence:
    """The first point where the replay disagreed with the recording.

    Attributes:
        step: the step index (for config divergences, the sampled step).
        reason: one of ``"schedule"``, ``"action"``, ``"result"``,
            ``"noop"``, ``"config"``, ``"end"``.
        expected: what the trace recorded.
        actual: what the replay produced.
        node: for config divergences, the first node (in system order)
            whose state digest differs; None otherwise.
        node_expected: recorded digest of that node's state.
        node_actual: replayed digest of that node's state.
    """

    step: int
    reason: str
    expected: Any
    actual: Any
    node: Optional[str] = None
    node_expected: Optional[str] = None
    node_actual: Optional[str] = None

    def describe(self) -> str:
        msg = (
            f"step {self.step}: {self.reason} divergence — "
            f"recorded {self.expected!r}, replayed {self.actual!r}"
        )
        if self.node is not None:
            msg += (
                f"; first divergent node {self.node} "
                f"({self.node_expected} -> {self.node_actual})"
            )
        return msg


@dataclass
class ReplayReport:
    """Outcome of a replay run."""

    ok: bool
    mode: str
    steps_replayed: int
    samples_checked: int
    divergence: Optional[Divergence] = None
    final_digest: Optional[str] = None
    scenario: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            return (
                f"replay ok ({self.mode} mode): {self.steps_replayed} steps, "
                f"{self.samples_checked} samples agree, "
                f"final digest {self.final_digest}"
            )
        assert self.divergence is not None
        return f"replay FAILED ({self.mode} mode): {self.divergence.describe()}"


class _LastStep:
    """A one-slot sink capturing the most recent step event."""

    def __init__(self) -> None:
        self.doc: Optional[Dict[str, Any]] = None

    def on_event(self, event) -> None:
        if isinstance(event, StepExecuted):
            self.doc = event.to_json()


def _first_node_diff(executor, recorded_nodes: Dict[str, str]):
    """The first node (in system order) whose replayed state no longer
    matches its recorded digest."""
    actual = node_digests(executor)
    for node in executor.system.nodes:
        key = str(node)
        if not digest_matches(recorded_nodes.get(key), executor.node_state(node)):
            return key, recorded_nodes.get(key), actual.get(key)
    return None, None, None


def _step_divergence(i: int, rec: Dict[str, Any], got: Dict[str, Any]):
    for reason, key in (
        ("schedule", "p"),
        ("action", "action"),
        ("result", "r"),
        ("noop", "noop"),
    ):
        if rec.get(key) != got.get(key):
            return Divergence(i, reason, rec.get(key), got.get(key))
    return None


def replay_trace(
    trace: Union[Trace, str],
    mode: str = "schedule",
) -> ReplayReport:
    """Replay ``trace`` (a :class:`Trace` or a file path) and verify it.

    Dispatches on the scenario's ``kind``: shared-variable traces replay
    step-by-step here; message-passing traces (``"kind": "mp"``) go
    through :func:`replay_mp_trace`.
    """
    if isinstance(trace, str):
        trace = load_trace(trace)
    if mode not in _REPLAY_MODES:
        raise TraceError(f"unknown replay mode {mode!r}; pick from {_REPLAY_MODES}")
    if not trace.scenario:
        raise TraceError("trace header carries no scenario spec; cannot rebuild")
    if trace.scenario.get("kind") == "mp":
        return replay_mp_trace(trace, mode=mode)
    if trace.scenario.get("kind") == "explore":
        return replay_explore_trace(trace, mode=mode)

    bundle = build_scenario(trace.scenario)
    by_str = {str(p): p for p in bundle.system.processors}
    if mode == "schedule":
        try:
            prefix = [by_str[p] for p in trace.schedule()]
        except KeyError as exc:
            raise TraceError(f"recorded schedule names unknown processor {exc}") from None
        scheduler = ReplayScheduler(prefix)
    else:
        scheduler = bundle.scheduler
    return _replay_sv_steps(trace, bundle, scheduler, mode)


def _replay_sv_steps(trace: Trace, bundle, scheduler, mode: str) -> ReplayReport:
    """Shared-variable step replay core: re-execute and verify."""
    last = _LastStep()
    executor = Executor(bundle.system, bundle.program, scheduler, sink=last)
    samples = trace.samples_by_step()
    report = ReplayReport(
        ok=True,
        mode=mode,
        steps_replayed=0,
        samples_checked=0,
        scenario=dict(trace.scenario),
    )

    def check_sample(step: int) -> Optional[Divergence]:
        doc = samples.get(step)
        if doc is None:
            return None
        report.samples_checked += 1
        if digest_matches(doc.get("digest"), executor.configuration()):
            return None
        node, exp, act = _first_node_diff(executor, doc.get("nodes", {}))
        return Divergence(
            step, "config", doc.get("digest"), config_digest(executor),
            node=node, node_expected=exp, node_actual=act,
        )

    divergence = check_sample(0)
    if divergence is None:
        for i, rec in enumerate(trace.steps):
            executor.step()
            report.steps_replayed += 1
            divergence = _step_divergence(i, rec, last.doc or {})
            if divergence is None:
                divergence = check_sample(executor.step_count)
            if divergence is not None:
                break

    if divergence is None and trace.end is not None:
        if not digest_matches(trace.end.get("digest"), executor.configuration()):
            divergence = Divergence(
                executor.step_count,
                "end",
                trace.end.get("digest"),
                config_digest(executor),
            )

    report.final_digest = config_digest(executor)
    if divergence is not None:
        report.ok = False
        report.divergence = divergence
    return report


# ----------------------------------------------------------------------
# explorer-counterexample replay
# ----------------------------------------------------------------------


def replay_explore_trace(
    trace: Union[Trace, str],
    mode: str = "schedule",
) -> ReplayReport:
    """Replay an explorer counterexample trace and re-verify its claim.

    The trace's scenario document (``"kind": "explore"``) wraps the
    underlying run spec (``"run"``), the exploration spec, and the
    violation.  The recorded schedule is an explicit choice sequence —
    there is no original scheduler to rebuild — so only ``"schedule"``
    mode is meaningful and ``"scheduler"`` mode is rejected.

    Beyond the usual byte-level step/digest agreement, the replay calls
    :func:`repro.analysis.explore.verify_counterexample` to re-establish
    independently that the schedule really produces the recorded
    deadlock / livelock / invariant violation; a mismatch is reported as
    a ``"violation"`` divergence at the violation's depth.
    """
    if isinstance(trace, str):
        trace = load_trace(trace)
    if mode != "schedule":
        raise TraceError(
            "explore counterexamples embed an explicit schedule; only "
            "'schedule' replay mode applies"
        )
    header = trace.scenario
    run_spec = header.get("run")
    if not isinstance(run_spec, dict):
        raise TraceError("explore trace header carries no 'run' scenario spec")

    bundle = build_scenario(run_spec)
    by_str = {str(p): p for p in bundle.system.processors}
    try:
        prefix = [by_str[p] for p in trace.schedule()]
    except KeyError as exc:
        raise TraceError(f"recorded schedule names unknown processor {exc}") from None
    report = _replay_sv_steps(trace, bundle, ReplayScheduler(prefix), mode)
    report.scenario = dict(header)
    if report.ok:
        from ..analysis.explore import verify_counterexample

        mismatch = verify_counterexample(header)
        if mismatch is not None:
            violation = header.get("violation") or {}
            report.ok = False
            report.divergence = Divergence(
                step=int(violation.get("depth", len(prefix))),
                reason="violation",
                expected=violation,
                actual=mismatch,
            )
    return report


# ----------------------------------------------------------------------
# message-passing replay
# ----------------------------------------------------------------------


class _DocCapture:
    """A sink collecting MP event documents (delivery / drop / dup / crash)."""

    _KINDS = ("delivery", "drop", "dup", "mp-crash")

    def __init__(self) -> None:
        self.docs: List[Dict[str, Any]] = []

    def on_event(self, event) -> None:
        doc = event.to_json()
        if doc.get("kind") in self._KINDS:
            self.docs.append(doc)


def _mp_doc_divergence(i: int, rec: Optional[Dict[str, Any]], got: Optional[Dict[str, Any]]):
    """Name the first divergent MP event.

    ``step`` is the delivery-clock index the event carries (falling back
    to the stream position), so the message points at *which delivery*
    went wrong, not just where in the file.
    """
    source = got if got is not None else rec
    step = int(source.get("i", source.get("crash_index", i))) if source else i
    reason = "delivery" if (source or {}).get("kind") == "delivery" else "fault"
    return Divergence(step, reason, rec, got)


def replay_mp_trace(
    trace: Union[Trace, str],
    mode: str = "schedule",
) -> ReplayReport:
    """Replay a message-passing trace and verify byte-level agreement.

    The replayed run must reproduce the recording's *entire* interleaved
    event stream — every delivery in order, and every drop, duplication,
    and crash manifestation in between — plus every sampled
    configuration digest.  The first disagreement is reported as a
    :class:`Divergence` naming the delivery (or fault) where the runs
    parted ways.

    Modes mirror :func:`replay_trace`: ``"schedule"`` forces the
    recorded delivery sequence through a
    :class:`~repro.messaging.mp_scheduler.ReplayDeliveryScheduler`
    (faults still come from the seeded plan, whose coins are a function
    of the delivery schedule); ``"scheduler"`` rebuilds the seeded
    delivery scheduler and additionally verifies it is deterministic.
    """
    if isinstance(trace, str):
        trace = load_trace(trace)
    if mode not in _REPLAY_MODES:
        raise TraceError(f"unknown replay mode {mode!r}; pick from {_REPLAY_MODES}")
    scenario = trace.scenario
    if scenario.get("kind") != "mp":
        raise TraceError("not a message-passing trace (scenario kind != 'mp')")

    bundle = build_mp_scenario(scenario)
    recorded = trace.mp_events
    recorded_deliveries = [d for d in recorded if d["kind"] == "delivery"]
    if mode == "schedule":
        scheduler = ReplayDeliveryScheduler(
            [(d["to"], d["port"]) for d in recorded_deliveries]
        )
    else:
        scheduler = bundle.make_scheduler()

    capture = _DocCapture()
    executor = bundle.make_executor(sink=capture, scheduler=scheduler)
    samples = trace.samples_by_step()
    report = ReplayReport(
        ok=True,
        mode=mode,
        steps_replayed=0,
        samples_checked=0,
        scenario=dict(scenario),
    )

    cursor = 0

    def check_docs() -> Optional[Divergence]:
        """Compare newly captured events against the recorded stream."""
        nonlocal cursor
        while cursor < len(capture.docs):
            rec = recorded[cursor] if cursor < len(recorded) else None
            got = capture.docs[cursor]
            if rec != got:
                return _mp_doc_divergence(cursor, rec, got)
            cursor += 1
        return None

    def check_sample(step: int) -> Optional[Divergence]:
        doc = samples.get(step)
        if doc is None:
            return None
        report.samples_checked += 1
        if digest_matches(doc.get("digest"), executor.configuration()):
            return None
        node, exp, act = _first_node_diff(executor, doc.get("nodes", {}))
        return Divergence(
            step, "config", doc.get("digest"), config_digest(executor),
            node=node, node_expected=exp, node_actual=act,
        )

    # On-start sends already routed (and possibly dropped) during
    # construction; their events must open the stream identically.
    divergence = check_docs()
    if divergence is None:
        divergence = check_sample(0)

    stubborn = bool(scenario.get("stubborn"))
    idle_rounds = 0
    while divergence is None and report.steps_replayed < len(recorded_deliveries):
        try:
            delivered = executor.deliver_one()
        except DeliveryReplayError as exc:
            rec = recorded_deliveries[report.steps_replayed]
            divergence = Divergence(
                exc.index, "delivery", rec,
                {"pending": sorted(exc.pending)},
            )
            break
        if delivered:
            report.steps_replayed += 1
            idle_rounds = 0
            divergence = check_docs()
            if divergence is None:
                divergence = check_sample(executor.step_count)
            continue
        if stubborn and idle_rounds < 25:
            executor.retransmit()
            idle_rounds += 1
            divergence = check_docs()
            continue
        rec = recorded_deliveries[report.steps_replayed]
        divergence = Divergence(
            int(rec.get("i", report.steps_replayed)), "delivery", rec, None
        )

    if divergence is None and cursor < len(recorded):
        # the recording has events the replay never produced
        divergence = _mp_doc_divergence(cursor, recorded[cursor], None)

    if divergence is None and trace.end is not None:
        if not digest_matches(trace.end.get("digest"), executor.configuration()):
            divergence = Divergence(
                executor.step_count,
                "end",
                trace.end.get("digest"),
                config_digest(executor),
            )

    report.final_digest = config_digest(executor)
    if divergence is not None:
        report.ok = False
        report.divergence = divergence
    return report

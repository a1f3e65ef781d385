"""Sharded, cache-backed separation-witness sweep engine.

:func:`repro.analysis.witness_search.find_witnesses` regenerates the
paper's hierarchy separations by exhausting small systems.  The search
space grows as ``variables ** (processors * names)`` and every candidate
pays a selection decision under two models, so the serial loop tops out
around three processors.  This module turns the sweep into a production
job with the same observable behavior:

* **Sharding** -- the enumeration space is partitioned by
  *slot-assignment prefix*: each shard fixes the variable choices of the
  first one or two ``(processor, name)`` slots and exhausts the rest.
  Shards are independent, so they all fan out across a
  ``ProcessPoolExecutor`` at once (plain-data payloads across the pickle
  boundary — a task is just the shard key — with results merged in the
  parent).
* **Decision caching** -- ``decide_selection`` is an isomorphism
  invariant, so one decision settles an entire iso class.  The
  :class:`DecisionCache` buckets candidates by canonical form —
  byte-encoded via :func:`repro.core.encoding.encode_value`, so keys are
  compact, hash-seed independent and never depend on ``repr``
  formatting — and confirms membership with the exact
  :func:`are_isomorphic` matcher before reusing a decision; hits and
  misses are counted per lookup.  Pool workers build their cache *once*
  (the pool initializer seeds it from a snapshot of the parent's cache,
  passed as a plain initializer argument) and keep it across every
  shard they pick up; each finished shard returns only its journal of
  *new* decisions, which the parent folds in and checkpoints — no
  per-wave snapshot/merge barriers.
* **Sharded dedup** -- each shard dedups its candidates in its own
  :class:`DedupIndex` (form-keyed buckets confirmed by the exact
  matcher), dropped with the shard, and a final cross-shard pass runs
  one more over the (few) surviving witnesses.
* **One form per system** -- every candidate's canonical form is
  computed once (:attr:`repro.core.system.System.iso_form`) and shared
  by the dedup index, the decision cache and every
  :func:`are_isomorphic` check that confirms a bucket hit.
* **Checkpointed streaming** -- each finished shard appends one JSONL
  line (records + decisions + counters) to an optional checkpoint file;
  an interrupted sweep resumes without re-deciding finished shards.
* **Deterministic output** -- shard results are merged in shard-plan
  order (a sorted merge on the shard index), which reproduces the serial
  enumeration order exactly: a sharded sweep returns the *identical*
  witness list as the serial one, on any worker count and under any
  ``PYTHONHASHSEED``.

Progress is observable: pass an :class:`~repro.obs.events.EventHub` and
the engine emits :class:`~repro.obs.events.WitnessSearchProgress` per
completed shard and :class:`~repro.obs.events.WitnessFound` per witness
in the final (deterministic) order.

CLI: ``python -m repro witness Q L --workers 4 --checkpoint sweep.jsonl``
and ``python -m repro bench witness`` (``BENCH_witness.json``).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.encoding import encode_value, form_from_wire, form_to_wire
from ..core.hierarchy import MODEL_AXIS
from ..core.network import Network
from ..core.quotient import are_isomorphic
from ..core.selection import decide_selection
from ..core.system import InstructionSet, ScheduleClass, System
from ..exceptions import WitnessSearchError
from .checkpoint import CheckpointWriter, load_checkpoint

_MODEL_BY_NAME = {label: (iset, sched) for label, iset, sched in MODEL_AXIS}

#: A shard key: ``(n_processors, n_names, assignment_prefix)``.
ShardKey = Tuple[int, int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# plain-data candidate descriptions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessRecord:
    """A plain-data description of one enumerated candidate.

    Everything the sweep needs to rebuild the candidate deterministically
    (in any process, under any hash seed): the block dimensions, the
    slot-assignment tuple (variable index per ``(processor, name)`` slot
    in processor-major order) and the optionally marked node.  Records
    cross the pickle boundary and the JSONL checkpoint; systems are
    rebuilt from them on demand.
    """

    n_processors: int
    n_names: int
    assignment: Tuple[int, ...]
    mark: Optional[str] = None

    def network(self) -> Network:
        procs = [f"p{i}" for i in range(self.n_processors)]
        names = [f"n{i}" for i in range(self.n_names)]
        slots = [(p, n) for p in procs for n in names]
        edges: Dict[str, Dict[str, str]] = {p: {} for p in procs}
        for (p, n), v in zip(slots, self.assignment):
            edges[p][n] = f"v{v}"
        return Network(names, edges)

    def system(self, iset: InstructionSet, sched: ScheduleClass) -> System:
        state = {self.mark: 1} if self.mark is not None else {}
        return System(self.network(), state, iset, sched)

    def to_json(self) -> dict:
        return {
            "p": self.n_processors,
            "n": self.n_names,
            "a": list(self.assignment),
            "mark": self.mark,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WitnessRecord":
        p, n, mark = int(doc["p"]), int(doc["n"]), doc["mark"]
        assignment = tuple(map(int, doc["a"]))
        if len(assignment) != p * n or not (mark is None or isinstance(mark, str)):
            raise ValueError(f"malformed witness record {doc!r}")
        return cls(p, n, assignment, mark)


@dataclass(frozen=True)
class SweepSpec:
    """The full specification of one witness sweep.

    ``limit=None`` exhausts the bounded space; an integer stops the
    (merged, deduplicated) witness list at that many entries, matching
    the serial searcher's ``limit`` semantics exactly.

    The three bounds and a non-None ``limit`` must be ints >= 1 and
    ``allow_marks`` a bool; anything else is a
    :class:`~repro.exceptions.WitnessSearchError` naming the field, so a
    spec from the wire fails here rather than deep inside the sweep.
    """

    weaker: str
    stronger: str
    max_processors: int = 3
    max_names: int = 2
    max_variables: int = 3
    allow_marks: bool = False
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        for label in (self.weaker, self.stronger):
            if label not in _MODEL_BY_NAME:
                raise WitnessSearchError(
                    f"unknown model label {label!r}; pick from "
                    f"{sorted(_MODEL_BY_NAME)}"
                )
        counts = {
            "max_processors": self.max_processors,
            "max_names": self.max_names,
            "max_variables": self.max_variables,
        }
        if self.limit is not None:
            counts["limit"] = self.limit
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise WitnessSearchError(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(self.allow_marks, bool):
            raise WitnessSearchError(
                f"allow_marks must be a bool, got {self.allow_marks!r}"
            )

    @property
    def weak_model(self) -> Tuple[InstructionSet, ScheduleClass]:
        return _MODEL_BY_NAME[self.weaker]

    @property
    def strong_model(self) -> Tuple[InstructionSet, ScheduleClass]:
        return _MODEL_BY_NAME[self.stronger]

    def to_json(self) -> dict:
        return {
            "weaker": self.weaker,
            "stronger": self.stronger,
            "max_processors": self.max_processors,
            "max_names": self.max_names,
            "max_variables": self.max_variables,
            "allow_marks": self.allow_marks,
            "limit": self.limit,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise WitnessSearchError("a sweep spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise WitnessSearchError(
                    f"unknown sweep spec key {key!r}; pick from {sorted(known)}"
                )
        for key in ("weaker", "stronger"):
            if key not in doc:
                raise WitnessSearchError(f"sweep spec needs {key!r}")
        return cls(**doc)


# ----------------------------------------------------------------------
# decision cache and dedup index
# ----------------------------------------------------------------------


def _candidate_form(probe: System) -> bytes:
    """The byte-encoded canonical form of a candidate: the cache/dedup
    key.  Encoded bytes are hash-seed independent and compare by content,
    not by how ``repr`` spells the nested form tuple.  The form comes
    from :attr:`System.iso_form`, so the :func:`are_isomorphic` checks
    that confirm a bucket hit reuse it instead of recomputing it."""
    return encode_value(probe.iso_form)


class _CacheEntry:
    """One isomorphism class: a representative record plus its decisions."""

    __slots__ = ("form", "record", "decisions", "_system")

    def __init__(
        self,
        form: bytes,
        record: WitnessRecord,
        decisions: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.form = form
        self.record = record
        self.decisions: Dict[str, bool] = dict(decisions or {})
        self._system: Optional[System] = None

    def probe(self, iset: InstructionSet, sched: ScheduleClass) -> System:
        # Rebuild when the requested model differs from the cached one:
        # a cache shared across model pairs would otherwise hand a
        # stale-model system to the isomorphism matcher.
        if (
            self._system is None
            or self._system.instruction_set is not iset
            or self._system.schedule_class is not sched
        ):
            self._system = self.record.system(iset, sched)
        return self._system


class DecisionCache:
    """Memoized ``decide_selection`` outcomes per (canonical form, model).

    The selection decision is invariant under system isomorphism, so one
    entry settles a whole iso class.  Canonical forms (byte-encoded; see
    :func:`_candidate_form`) are invariant but not *complete*
    (quotient-identical non-isomorphic systems exist), so a form keys a
    bucket of iso classes and the exact :func:`are_isomorphic` matcher
    confirms membership before a decision is reused.  ``hits``/
    ``misses`` count decision lookups (one per candidate per model), the
    cache-effectiveness numbers recorded in ``BENCH_witness.json``.

    Entries are plain data (record + ``{model label: possible}``), so
    the cache snapshots losslessly across the pickle boundary and into
    JSONL checkpoints.  Every *newly computed* decision is also appended
    to a journal; :meth:`drain_journal` hands the delta since the last
    drain to whoever needs to replicate it (the parent merging worker
    results, the checkpoint writer) without re-serializing the whole
    cache.  The cache lives in memory: share one across sweeps to reuse
    its decisions, as the service does for its whole life.
    """

    def __init__(self) -> None:
        self._buckets: Dict[bytes, List[_CacheEntry]] = {}
        self._journal: List[Tuple[bytes, WitnessRecord, str, bool]] = []
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    # -- lookups -------------------------------------------------------

    def entry_for(
        self,
        form: bytes,
        record: WitnessRecord,
        probe: System,
        iset: InstructionSet,
        sched: ScheduleClass,
    ) -> _CacheEntry:
        """The iso-class entry of ``probe``, created if novel."""
        bucket = self._buckets.setdefault(form, [])
        for entry in bucket:
            if entry.record == record or are_isomorphic(
                probe, entry.probe(iset, sched)
            ):
                return entry
        entry = _CacheEntry(form, record)
        entry._system = probe
        bucket.append(entry)
        return entry

    def decide(self, entry: _CacheEntry, label: str) -> bool:
        """The selection decision for ``entry`` under model ``label``."""
        cached = entry.decisions.get(label)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        iset, sched = _MODEL_BY_NAME[label]
        possible = decide_selection(entry.record.system(iset, sched)).possible
        entry.decisions[label] = possible
        self._journal.append((entry.form, entry.record, label, possible))
        return possible

    # -- snapshots and journals (cross-process / checkpoint form) ------

    def snapshot(self) -> List[Tuple[str, dict, Dict[str, bool]]]:
        """Every decided entry, in wire form, sorted for determinism."""
        return sorted(
            (
                (form_to_wire(form), entry.record.to_json(), dict(entry.decisions))
                for form, bucket in self._buckets.items()
                for entry in bucket
                if entry.decisions
            ),
            key=lambda item: (item[0], json.dumps(item[1], sort_keys=True)),
        )

    def drain_journal(self) -> List[Tuple[str, dict, Dict[str, bool]]]:
        """Decisions computed since the last drain, in wire form (one
        entry per (form, record), labels folded together)."""
        delta: Dict[Tuple[str, WitnessRecord], Dict[str, bool]] = {}
        for form, record, label, possible in self._journal:
            delta.setdefault((form_to_wire(form), record), {})[label] = possible
        self._journal.clear()
        return [
            (wire, record.to_json(), decisions)
            for (wire, record), decisions in delta.items()
        ]

    def merge(self, snapshot: Sequence[Tuple[str, dict, Dict[str, bool]]]) -> None:
        """Fold a snapshot or journal delta in (no journal entries are
        produced: replicated decisions are not news to replicate again).
        Entries are matched by exact record equality (cheap); a
        same-class different-representative entry just coexists in the
        bucket and still iso-matches on lookup.  A form key in any shape
        but ``"b:" + hex`` is a :class:`WitnessSearchError`; a decision
        that is not a bool is a ``ValueError``."""
        for wire, record_doc, decisions in snapshot:
            try:
                form = form_from_wire(wire)
            except ValueError as exc:
                raise WitnessSearchError(f"malformed cache entry: {exc}") from None
            record = WitnessRecord.from_json(record_doc)
            if not all(type(possible) is bool for possible in decisions.values()):
                raise ValueError(f"decisions {decisions!r} are not all booleans")
            bucket = self._buckets.setdefault(form, [])
            for entry in bucket:
                if entry.record == record:
                    for label, possible in decisions.items():
                        entry.decisions.setdefault(label, possible)
                    break
            else:
                bucket.append(_CacheEntry(form, record, decisions))


class DedupIndex:
    """Isomorphism dedup: one dict from byte-encoded canonical form to the
    candidates indexed under it.

    A form collision is settled with the exact matcher.  Each shard owns
    one index and drops it when the shard completes, bounding resident
    dedup state by the shard -- not the sweep -- size; the engine's merge
    pass runs one more over the surviving witnesses across shards.
    """

    def __init__(self) -> None:
        self._buckets: Dict[bytes, List[System]] = {}

    def seen_before(self, form: bytes, probe: System) -> bool:
        """True if an isomorphic candidate was indexed earlier; indexes
        ``probe`` otherwise."""
        bucket = self._buckets.setdefault(form, [])
        if any(are_isomorphic(probe, prior) for prior in bucket):
            return True
        bucket.append(probe)
        return False

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


# ----------------------------------------------------------------------
# shard plan and per-shard sweep
# ----------------------------------------------------------------------


def _prefix_len(slots: int) -> int:
    """Assignment-prefix length fixed per shard: enough slots to split a
    big block across workers, zero for blocks too small to shard."""
    if slots <= 1:
        return 0
    if slots <= 3:
        return 1
    return 2


def shard_plan(spec: SweepSpec) -> List[ShardKey]:
    """The deterministic shard list, in serial enumeration order.

    Shards are ordered exactly like the serial loops (processors
    ascending, names ascending, prefixes lexicographic), so concatenating
    shard outputs in plan order reproduces the serial candidate order.
    The plan depends only on the spec -- never on the worker count -- so
    checkpoints written by any run resume under any other.
    """
    plan: List[ShardKey] = []
    for n_procs in range(1, spec.max_processors + 1):
        for n_names in range(1, spec.max_names + 1):
            k = _prefix_len(n_procs * n_names)
            for prefix in product(range(spec.max_variables), repeat=k):
                plan.append((n_procs, n_names, prefix))
    return plan


def _iter_shard_records(spec: SweepSpec, shard: ShardKey) -> Iterator[WitnessRecord]:
    """All candidate records of one shard, in serial enumeration order."""
    n_procs, n_names, prefix = shard
    slots = n_procs * n_names
    for rest in product(range(spec.max_variables), repeat=slots - len(prefix)):
        assignment = tuple(prefix) + rest
        used = sorted(set(assignment))
        if used != list(range(len(used))):
            continue  # not a dense variable prefix; isomorphic duplicate
        marks: List[Optional[str]] = [None]
        if spec.allow_marks:
            marks += [f"p{i}" for i in range(n_procs)]
            marks += [f"v{j}" for j in range(len(used))]
        for mark in marks:
            yield WitnessRecord(n_procs, n_names, assignment, mark)


@dataclass
class ShardStats:
    """Counters of one shard run (summed into :class:`SweepResult`)."""

    enumerated: int = 0
    novel: int = 0
    dedup_skips: int = 0
    witnesses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, doc: dict) -> "ShardStats":
        return cls(**{key: int(value) for key, value in doc.items()})


def _sweep_shard(
    spec: SweepSpec, shard: ShardKey, cache: DecisionCache
) -> Tuple[List[WitnessRecord], ShardStats]:
    """Exhaust one shard: dedup, decide (through the cache), collect hits."""
    w_iset, w_sched = spec.weak_model
    stats = ShardStats()
    hits_before, misses_before = cache.hits, cache.misses
    dedup = DedupIndex()
    found: List[WitnessRecord] = []
    for record in _iter_shard_records(spec, shard):
        stats.enumerated += 1
        probe = record.system(w_iset, w_sched)
        form = _candidate_form(probe)
        if dedup.seen_before(form, probe):
            stats.dedup_skips += 1
            continue
        stats.novel += 1
        entry = cache.entry_for(form, record, probe, w_iset, w_sched)
        if cache.decide(entry, spec.weaker):
            continue  # the weaker model already solves it
        if cache.decide(entry, spec.stronger):
            found.append(record)
    stats.witnesses = len(found)
    stats.cache_hits = cache.hits - hits_before
    stats.cache_misses = cache.misses - misses_before
    return found, stats


#: Per-worker context: the spec plus one persistent :class:`DecisionCache`
#: built by :func:`_pool_init` and kept warm across every shard this
#: worker picks up — later shards reuse earlier shards' decisions without
#: any per-task snapshot/merge traffic.
_WORKER: Dict[str, object] = {}


def _pool_init(spec_doc: dict, seed: list) -> None:
    """Pool-worker initializer: build the spec once and seed the
    persistent cache from the parent's snapshot (sent once per worker,
    not per task)."""
    spec = SweepSpec.from_json(spec_doc)
    cache = DecisionCache()
    cache.merge(seed)
    _WORKER.update(spec=spec, cache=cache)


def _run_shard_task(shard_doc) -> tuple:
    """Worker entry point (module-level so it pickles); the payload is
    just the shard key, and the result carries only the journal of
    decisions this shard newly computed."""
    spec: SweepSpec = _WORKER["spec"]
    cache: DecisionCache = _WORKER["cache"]
    cache.drain_journal()  # discard leftovers of an aborted earlier task
    found, stats = _sweep_shard(spec, _shard_from_doc(shard_doc), cache)
    return (
        shard_doc,
        [r.to_json() for r in found],
        stats.to_json(),
        cache.drain_journal(),
    )


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


def _shard_doc(shard: ShardKey) -> list:
    return [shard[0], shard[1], list(shard[2])]


def _shard_from_doc(doc) -> ShardKey:
    return (int(doc[0]), int(doc[1]), tuple(map(int, doc[2])))


def _load_checkpoint(
    path: str, spec: SweepSpec, cache: DecisionCache
) -> Dict[ShardKey, Tuple[List[WitnessRecord], ShardStats]]:
    """Completed shards recorded in ``path`` (empty if the file is new);
    their decisions are merged into ``cache``."""

    def parse(doc: dict):
        if doc.get("kind") != "shard":
            return None
        cache.merge(doc["cache"])
        return _shard_from_doc(doc["shard"]), (
            [WitnessRecord.from_json(r) for r in doc["records"]],
            ShardStats.from_json(doc["counters"]),
        )

    return dict(load_checkpoint(
        path, "witness-sweep", spec.to_json(), WitnessSearchError, "sweep", parse
    ))


def _shard_line(
    shard: ShardKey, records: List[WitnessRecord], stats: ShardStats, cache_delta: list
) -> dict:
    """The checkpoint line of one finished shard."""
    return {
        "kind": "shard",
        "shard": _shard_doc(shard),
        "records": [r.to_json() for r in records],
        "counters": stats.to_json(),
        "cache": [list(e) for e in cache_delta],
    }


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    ``witnesses`` is the deterministic merged list (serial order);
    ``records`` are their plain-data descriptions, and the counters
    aggregate every executed shard (resumed shards contribute their
    checkpointed counters).
    """

    witnesses: List["Witness"]
    records: List[WitnessRecord]
    stats: ShardStats
    shards: int
    resumed_shards: int
    workers: int
    elapsed: float
    cache: DecisionCache = field(repr=False, default_factory=DecisionCache)


def _merge_results(
    spec: SweepSpec,
    per_shard: List[List[WitnessRecord]],
) -> List[WitnessRecord]:
    """Sorted merge of shard outputs: concatenate in shard-plan order and
    drop cross-shard isomorphic duplicates, keeping first occurrences --
    exactly the serial searcher's global-dedup semantics."""
    w_iset, w_sched = spec.weak_model
    kept: List[WitnessRecord] = []
    dedup = DedupIndex()
    for records in per_shard:
        for record in records:
            if spec.limit is not None and len(kept) >= spec.limit:
                return kept
            probe = record.system(w_iset, w_sched)
            if not dedup.seen_before(_candidate_form(probe), probe):
                kept.append(record)
    return kept


def _emit_progress(hub, shard: ShardKey, stats: ShardStats, resumed: bool) -> None:
    if hub is None or not hub.active:
        return
    from ..obs.events import WitnessSearchProgress

    hub.emit(
        WitnessSearchProgress(
            shard=f"{shard[0]}x{shard[1]}:{','.join(map(str, shard[2])) or '-'}",
            enumerated=stats.enumerated,
            novel=stats.novel,
            witnesses=stats.witnesses,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            resumed=resumed,
        )
    )


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Optional[DecisionCache] = None,
    checkpoint: Optional[str] = None,
    hub=None,
) -> SweepResult:
    """Run a witness sweep, sharded and cached.

    Args:
        spec: the sweep specification (models, bounds, marks, limit).
        workers: process-pool size.  ``None`` picks ``min(4, cpu_count)``
            but stays serial on a single-core host; ``0`` or ``1`` forces
            the serial in-process path.  The witness list is identical on
            every worker count.
        cache: an optional :class:`DecisionCache` to consult and fill;
            keep one alive across calls (e.g. sweeping several model
            pairs over the same bounds) to reuse decisions.
        checkpoint: optional JSONL path.  Completed shards are appended
            as they finish; if the file already exists (for the same
            spec) those shards are not re-run.
        hub: optional :class:`~repro.obs.events.EventHub` for
            ``WitnessSearchProgress`` / ``WitnessFound`` events.

    Returns:
        A :class:`SweepResult` whose ``witnesses`` match the serial
        searcher's output exactly (same systems, same order).
    """
    from .witness_search import Witness

    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers <= 1:
        workers = 0
    cache = cache if cache is not None else DecisionCache()

    t0 = time.perf_counter()
    plan = shard_plan(spec)
    completed: Dict[ShardKey, Tuple[List[WitnessRecord], ShardStats]] = {}
    writer: Optional[CheckpointWriter] = None
    if checkpoint:
        completed = _load_checkpoint(checkpoint, spec, cache)
        writer = CheckpointWriter(
            checkpoint, "witness-sweep", spec.to_json(), fresh=not completed
        )

    total = ShardStats()
    per_shard: Dict[ShardKey, List[WitnessRecord]] = {}
    resumed = 0

    def account(shard: ShardKey, records: List[WitnessRecord], stats: ShardStats) -> None:
        per_shard[shard] = records
        for key, value in stats.to_json().items():
            setattr(total, key, getattr(total, key) + value)

    plan_set = set(plan)
    for shard, (records, stats) in completed.items():
        if shard in plan_set:
            resumed += 1
            account(shard, records, stats)
            _emit_progress(hub, shard, stats, resumed=True)

    todo = [shard for shard in plan if shard not in per_shard]
    try:
        if workers == 0 or len(todo) <= 1:
            workers = 0
            cache.drain_journal()  # only journal what *this* sweep decides
            for shard in todo:
                found, stats = _sweep_shard(spec, shard, cache)
                account(shard, found, stats)
                if writer:
                    writer.write(_shard_line(shard, found, stats, cache.drain_journal()))
                _emit_progress(hub, shard, stats, resumed=False)
                if spec.limit is not None:
                    merged_so_far = _merge_results(
                        spec, [per_shard[s] for s in plan if s in per_shard]
                    )
                    if len(merged_so_far) >= spec.limit:
                        break
        else:
            # Submit every shard at once: workers keep one persistent
            # cache each (seeded once from the parent's snapshot), so
            # there is no wave barrier to re-synchronize snapshots at —
            # the parent just folds each shard's decision journal in as
            # it completes.
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=(spec.to_json(), cache.snapshot()),
            ) as pool:
                futures = {
                    pool.submit(_run_shard_task, _shard_doc(shard)): shard
                    for shard in todo
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        shard = futures[future]
                        _doc, record_docs, stats_doc, delta = future.result()
                        records = [WitnessRecord.from_json(r) for r in record_docs]
                        stats = ShardStats.from_json(stats_doc)
                        cache.merge(delta)
                        account(shard, records, stats)
                        if writer:
                            writer.write(_shard_line(shard, records, stats, delta))
                        _emit_progress(hub, shard, stats, resumed=False)
    finally:
        if writer:
            writer.close()

    merged = _merge_results(spec, [per_shard[s] for s in plan if s in per_shard])
    s_iset, s_sched = spec.strong_model
    witnesses = [
        Witness(record.system(s_iset, s_sched), spec.weaker, spec.stronger)
        for record in merged
    ]
    if hub is not None and hub.active:
        from ..obs.events import WitnessFound

        for index, witness in enumerate(witnesses):
            hub.emit(
                WitnessFound(
                    index=index,
                    weaker=spec.weaker,
                    stronger=spec.stronger,
                    description=witness.describe(),
                )
            )
    return SweepResult(
        witnesses=witnesses,
        records=merged,
        stats=total,
        shards=len(plan),
        resumed_shards=resumed,
        workers=workers,
        elapsed=time.perf_counter() - t0,
        cache=cache,
    )

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
  :func:`are_isomorphic` matcher, so each iso class has one entry; hits
  and misses are counted per decision lookup.  A cache stays in the
  process that fills it: each pool worker starts with an empty one and
  keeps it across every shard it picks up, and a finished shard returns
  only its records and counters, because any process can recompute a
  decision from the system alone.
* **Dedup through the cache** -- two candidates are isomorphic exactly
  when they reach the same cache entry, so a shard skips a candidate
  whose entry it already met, and the final merge pass does the same
  over a private cache for the (few) surviving witnesses across shards.
* **One form per system** -- every candidate's canonical form is
  computed once (:attr:`repro.core.system.System.iso_form`) and shared
  by the cache lookup and every :func:`are_isomorphic` check that
  confirms a bucket hit.
* **Checkpointed streaming** -- each finished shard appends one JSONL
  line (records + counters) to an optional checkpoint file; an
  interrupted sweep resumes without re-running finished shards.  Shard
  lines of older releases also carry their decisions (``cache``), which
  resume does not read.
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

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.encoding import encode_value
from ..core.hierarchy import MODEL_AXIS
from ..core.network import Network
from ..core.quotient import are_isomorphic
from ..core.selection import decide_selection
from ..core.system import InstructionSet, ScheduleClass, System
from ..exceptions import WitnessSearchError
from ..obs.events import WitnessFound, WitnessSearchProgress, emit_if_active
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
# decision cache
# ----------------------------------------------------------------------


def _candidate_form(probe: System) -> bytes:
    """The byte-encoded canonical form of a candidate: its cache bucket
    key.  Encoded bytes are hash-seed independent and compare by content,
    not by how ``repr`` spells the nested form tuple.  The form comes
    from :attr:`System.iso_form`, so the :func:`are_isomorphic` checks
    that confirm a bucket hit reuse it instead of recomputing it."""
    return encode_value(probe.iso_form)


class _CacheEntry:
    """One isomorphism class: a representative record plus its decisions."""

    __slots__ = ("record", "decisions", "_system")

    def __init__(self, record: WitnessRecord, system: System) -> None:
        self.record = record
        self.decisions: Dict[str, bool] = {}
        self._system = system

    def probe(self, iset: InstructionSet, sched: ScheduleClass) -> System:
        # Rebuild when the requested model differs from the cached one:
        # a cache shared across model pairs would otherwise hand a
        # stale-model system to the isomorphism matcher.
        if (
            self._system.instruction_set is not iset
            or self._system.schedule_class is not sched
        ):
            self._system = self.record.system(iset, sched)
        return self._system


class DecisionCache:
    """Memoized ``decide_selection`` outcomes per isomorphism class.

    The selection decision is invariant under system isomorphism, so one
    entry settles a whole iso class.  Canonical forms (byte-encoded; see
    :func:`_candidate_form`) are invariant but not *complete*
    (quotient-identical non-isomorphic systems exist), so a form keys a
    bucket of iso classes and the exact :func:`are_isomorphic` matcher
    confirms membership; a candidate that matches no entry of its bucket
    starts a new one, so each class has exactly one entry, and two
    candidates are isomorphic exactly when :meth:`entry_for` hands back
    the same entry.  ``hits``/``misses`` count decision lookups (one per
    candidate per model), the cache-effectiveness numbers recorded in
    ``BENCH_witness.json``.

    The cache lives in the memory of the process that fills it; no
    decision is copied to another process or to a file.  Share one
    across sweeps to reuse its decisions, as the service does for its
    whole life.
    """

    def __init__(self) -> None:
        self._buckets: Dict[bytes, List[_CacheEntry]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def entry_for(
        self, record: WitnessRecord, iset: InstructionSet, sched: ScheduleClass
    ) -> _CacheEntry:
        """The iso-class entry of ``record``'s system under the model
        ``(iset, sched)``, created if novel."""
        probe = record.system(iset, sched)
        bucket = self._buckets.setdefault(_candidate_form(probe), [])
        for entry in bucket:
            if entry.record == record or are_isomorphic(
                probe, entry.probe(iset, sched)
            ):
                return entry
        entry = _CacheEntry(record, probe)
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
        return possible


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


def dense_assignments(
    slots: int, n_variables: int, prefix: Tuple[int, ...] = ()
) -> Iterator[Tuple[int, ...]]:
    """Slot assignments extending ``prefix``, in lexicographic order,
    whose used variables are a prefix ``v0..`` of the variables.  Any
    other assignment renames the variables of one of these, so it is an
    isomorphic duplicate."""
    for rest in product(range(n_variables), repeat=slots - len(prefix)):
        assignment = prefix + rest
        used = sorted(set(assignment))
        if used == list(range(len(used))):
            yield assignment


def _iter_shard_records(spec: SweepSpec, shard: ShardKey) -> Iterator[WitnessRecord]:
    """All candidate records of one shard, in serial enumeration order."""
    n_procs, n_names, prefix = shard
    for assignment in dense_assignments(n_procs * n_names, spec.max_variables, prefix):
        marks: List[Optional[str]] = [None]
        if spec.allow_marks:
            marks += [f"p{i}" for i in range(n_procs)]
            marks += [f"v{j}" for j in range(max(assignment) + 1)]
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
    """Exhaust one shard: dedup and decide through the cache, collect
    hits.  A candidate whose cache entry the shard already met is
    isomorphic to an earlier candidate of the shard and is skipped."""
    w_iset, w_sched = spec.weak_model
    stats = ShardStats()
    hits_before, misses_before = cache.hits, cache.misses
    met: Set[_CacheEntry] = set()
    found: List[WitnessRecord] = []
    for record in _iter_shard_records(spec, shard):
        stats.enumerated += 1
        entry = cache.entry_for(record, w_iset, w_sched)
        if entry in met:
            stats.dedup_skips += 1
            continue
        met.add(entry)
        stats.novel += 1
        if cache.decide(entry, spec.weaker):
            continue  # the weaker model already solves it
        if cache.decide(entry, spec.stronger):
            found.append(record)
    stats.witnesses = len(found)
    stats.cache_hits = cache.hits - hits_before
    stats.cache_misses = cache.misses - misses_before
    return found, stats


#: Per-worker context: the spec plus one :class:`DecisionCache`, built
#: empty by :func:`_pool_init` and kept warm across every shard this
#: worker picks up.
_WORKER: Dict[str, object] = {}


def _pool_init(spec_doc: dict) -> None:
    """Pool-worker initializer: build the spec and an empty cache once."""
    _WORKER.update(spec=SweepSpec.from_json(spec_doc), cache=DecisionCache())


def _run_shard_task(shard_doc) -> tuple:
    """Worker entry point (module-level so it pickles): the payload is
    just the shard key, the result the shard's records and counters."""
    found, stats = _sweep_shard(
        _WORKER["spec"], _shard_from_doc(shard_doc), _WORKER["cache"]
    )
    return [r.to_json() for r in found], stats.to_json()


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


def _shard_doc(shard: ShardKey) -> list:
    return [shard[0], shard[1], list(shard[2])]


def _shard_from_doc(doc) -> ShardKey:
    return (int(doc[0]), int(doc[1]), tuple(map(int, doc[2])))


def _load_checkpoint(
    path: str, spec: SweepSpec
) -> Dict[ShardKey, Tuple[List[WitnessRecord], ShardStats]]:
    """Completed shards recorded in ``path`` (empty if the file is new).
    Only records and counters are read: the decisions older releases
    wrote beside them are recomputed, never trusted."""

    def parse(doc: dict):
        if doc.get("kind") != "shard":
            return None
        return _shard_from_doc(doc["shard"]), (
            [WitnessRecord.from_json(r) for r in doc["records"]],
            ShardStats.from_json(doc["counters"]),
        )

    return dict(load_checkpoint(
        path, "witness-sweep", spec.to_json(), WitnessSearchError, "sweep", parse
    ))


def _shard_line(
    shard: ShardKey, records: List[WitnessRecord], stats: ShardStats
) -> dict:
    """The checkpoint line of one finished shard."""
    return {
        "kind": "shard",
        "shard": _shard_doc(shard),
        "records": [r.to_json() for r in records],
        "counters": stats.to_json(),
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
    checkpointed counters).  ``cache`` is the cache the sweep consulted
    (the caller's, or a fresh one); the shards of a pooled sweep decide
    in the workers' own caches, so it holds none of their decisions.
    """

    witnesses: List["Witness"]
    records: List[WitnessRecord]
    stats: ShardStats
    shards: int
    resumed_shards: int
    workers: int
    elapsed: float
    cache: DecisionCache = field(repr=False, default_factory=DecisionCache)


def _record_classifier(
    spec: SweepSpec,
) -> Callable[[WitnessRecord], _CacheEntry]:
    """Record -> its iso-class entry in one private cache under the weak
    model, each record classified once however often it is asked."""
    w_iset, w_sched = spec.weak_model
    classes = DecisionCache()
    entries: Dict[WitnessRecord, _CacheEntry] = {}

    def classify(record: WitnessRecord) -> _CacheEntry:
        entry = entries.get(record)
        if entry is None:
            entry = entries[record] = classes.entry_for(record, w_iset, w_sched)
        return entry

    return classify


def _merge_results(
    spec: SweepSpec,
    per_shard: List[List[WitnessRecord]],
    classify: Callable[[WitnessRecord], _CacheEntry],
) -> List[WitnessRecord]:
    """Sorted merge of shard outputs: concatenate in shard-plan order and
    drop cross-shard isomorphic duplicates, keeping first occurrences --
    exactly the serial searcher's global-dedup semantics.  ``classify``
    gives each record its class, so each class is kept once."""
    met: Set[_CacheEntry] = set()
    kept: List[WitnessRecord] = []
    for records in per_shard:
        for record in records:
            if spec.limit is not None and len(kept) >= spec.limit:
                return kept
            entry = classify(record)
            if entry not in met:
                met.add(entry)
                kept.append(record)
    return kept


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
            keep one alive across serial calls (e.g. sweeping several
            model pairs over the same bounds) to reuse decisions.  Pool
            workers start with empty caches of their own.
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
        completed = _load_checkpoint(checkpoint, spec)
        writer = CheckpointWriter(
            checkpoint, "witness-sweep", spec.to_json(), fresh=not completed
        )

    total = ShardStats()
    per_shard: Dict[ShardKey, List[WitnessRecord]] = {}

    def account(
        shard: ShardKey, records: List[WitnessRecord], stats: ShardStats,
        resumed: bool = False,
    ) -> None:
        if writer and not resumed:
            writer.write(_shard_line(shard, records, stats))
        per_shard[shard] = records
        for key, value in stats.to_json().items():
            setattr(total, key, getattr(total, key) + value)
        emit_if_active(
            hub,
            WitnessSearchProgress,
            shard=f"{shard[0]}x{shard[1]}:{','.join(map(str, shard[2])) or '-'}",
            enumerated=stats.enumerated,
            novel=stats.novel,
            witnesses=stats.witnesses,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            resumed=resumed,
        )

    plan_set = set(plan)
    for shard, (records, stats) in completed.items():
        if shard in plan_set:
            account(shard, records, stats, resumed=True)
    resumed = len(per_shard)

    todo = [shard for shard in plan if shard not in per_shard]
    classify = _record_classifier(spec)
    try:
        if workers == 0 or len(todo) <= 1:
            workers = 0
            # The merge keeps min(limit, classes found), so the serial
            # loop stops once the shards run so far hold `limit` classes.
            found: Set[_CacheEntry] = set()
            if spec.limit is not None:
                for records in per_shard.values():
                    found.update(map(classify, records))
            for shard in todo:
                account(shard, *_sweep_shard(spec, shard, cache))
                if spec.limit is not None:
                    found.update(map(classify, per_shard[shard]))
                    if len(found) >= spec.limit:
                        break
        else:
            # Submit every shard at once: each worker keeps its own
            # cache across the shards it picks up, so there is no wave
            # barrier, and the parent takes each shard's records and
            # counters as it completes.
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=(spec.to_json(),),
            ) as pool:
                futures = {
                    pool.submit(_run_shard_task, _shard_doc(shard)): shard
                    for shard in todo
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        record_docs, stats_doc = future.result()
                        account(
                            futures[future],
                            [WitnessRecord.from_json(r) for r in record_docs],
                            ShardStats.from_json(stats_doc),
                        )
    finally:
        if writer:
            writer.close()

    merged = _merge_results(
        spec, [per_shard[s] for s in plan if s in per_shard], classify
    )
    s_iset, s_sched = spec.strong_model
    witnesses = [
        Witness(record.system(s_iset, s_sched), spec.weaker, spec.stronger)
        for record in merged
    ]
    for index, witness in enumerate(witnesses):
        emit_if_active(
            hub,
            WitnessFound,
            index=index,
            weaker=spec.weaker,
            stronger=spec.stronger,
            description=witness.describe(),
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

"""Symmetry-reduced bounded exhaustive exploration of schedule space.

The runtime's schedulers pick *one* schedule per run; Theorem-style
claims quantify over *all* of them.  This module closes that gap with a
bounded model checker over the tree of scheduler choices: starting from
the initial configuration it enumerates, at every step, every eligible
processor (optionally restricted to prefixes of k-bounded schedules),
deduplicates visited configurations, checks invariants, and reports
either a *certificate* ("no violation is reachable within ``max_depth``
steps") or a *counterexample schedule* that replays byte-for-byte
through :class:`~repro.runtime.scheduler.ReplayScheduler` and the
:mod:`repro.obs` trace/replay loop.

**Symmetry reduction.**  The paper's programs are anonymous and
deterministic, so every automorphism ``σ`` of the system graph commutes
with the step relation: if ``c`` steps to ``c'`` under processor ``p``,
then ``σ·c`` steps to ``σ·c'`` under ``σ(p)``.  Configurations in one
orbit therefore have isomorphic futures, and the explorer deduplicates
by an exact Θ-orbit canonical *byte key*
(:class:`~repro.core.orbits.StabilizerChainCanonicalizer` over the
:mod:`repro.core.encoding` layer — a Schreier–Sims minimal-image search,
no enumeration cap), typically visiting a small fraction of the
unreduced space on symmetric families (rings, dining philosophers) while
returning the *identical verdict* — the built-in invariants (deadlock,
livelock, mutual exclusion, Θ-class lockstep) are all preserved by
automorphisms.  ``symmetry=False`` falls back to exact configurations
(the encoder's identity key).

**Determinism and levels.**  BFS enqueues children in system processor
order, so discovery order is globally sorted by ``(depth, prefix)`` and
the first violation found is the lexicographically least counterexample
(an unreduced BFS needs no re-search to normalize it).  BFS is one loop
that finishes each depth — a *level* — before starting the next.  A
level runs in-process over live nodes: children are deduplicated as
they are found and each node's executor is dropped once visited.  When
``workers > 1`` and a level holds more than one :data:`_CHUNK` of
states, it runs on a ``ProcessPoolExecutor`` instead, in fixed-size
chunks passed as plain ``[schedule, digest]`` task arguments.  Workers
build their scenario/canonicalizer context once (pool initializer) and
rebuild each state by replaying its schedule, sharing the replay of
common prefixes; the in-process loop replays the same way only when
resuming or after a pooled level.  The parent merges chunks in frontier
order and owns the visited set, so every state is expanded exactly
once wherever its level ran: verdict, states, stats, probe hits and
counterexample are identical on every worker count and under any
``PYTHONHASHSEED``.  Finished levels stream to a JSONL checkpoint and
are not re-run on resume.  DFS and livelock walks run the whole tree
in-process.

CLI: ``python -m repro explore --topology dining --size 5 ...`` and
``python -m repro bench explore`` (``BENCH_explore.json``).
"""

from __future__ import annotations

import json
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from hashlib import blake2b
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.encoding import StateEncoder
from ..core.names import NodeId
from ..core.orbits import StabilizerChainCanonicalizer
from ..core.similarity import processor_similarity_classes
from ..exceptions import ExploreError
from ..io import system_to_dict
from ..obs.events import ExplorationProgress, InvariantViolated, emit_if_active
from ..obs.scenarios import ScenarioBundle, build_scenario, normalize_spec
from ..obs.trace_io import TraceWriter
from ..runtime.executor import Executor
from ..runtime.scheduler import ReplayScheduler
from .checkpoint import CheckpointWriter, load_checkpoint

_STRATEGIES = ("bfs", "dfs")
_FAIRNESS = ("none", "fair", "k-bounded")

#: Window-phase suffix for k-bounded keys (see :meth:`_Walker._key`).
_PHASE = struct.Struct(">I")

_DIGEST_SIZE = 16


def _digest(key: bytes) -> bytes:
    """A 128-bit stable digest of a state key: what visited sets,
    frontiers and reports store instead of the full key."""
    return blake2b(key, digest_size=_DIGEST_SIZE).digest()


# ----------------------------------------------------------------------
# invariant / probe / progress registries
# ----------------------------------------------------------------------
#
# Registries are keyed by name so specifications stay plain data (JSON
# checkpoints, pickle payloads).  Each entry is a factory
# ``(spec, bundle) -> check`` where ``check(executor, counts)`` returns a
# human-readable detail string on a hit and None otherwise.  Every
# registered check must be preserved by system automorphisms, or
# symmetry reduction would be unsound for it; live callables that cannot
# promise this can still be passed to :func:`run_explore` as
# ``extra_invariants`` / ``extra_probes`` (serial runs only).


def _eating_predicate(bundle: ScenarioBundle) -> Callable[[Any], bool]:
    is_eating = getattr(bundle.program, "is_eating", None)
    if is_eating is None:
        raise ExploreError(
            f"program {type(bundle.program).__name__} has no is_eating "
            "predicate; 'exclusion'/'eating' need a dining program"
        )
    return is_eating


def _exclusion_invariant(spec: "ExploreSpec", bundle: ScenarioBundle):
    """No two processors sharing a variable may eat simultaneously."""
    from ..topologies.dining import adjacent_pairs

    is_eating = _eating_predicate(bundle)
    pairs = adjacent_pairs(bundle.system)

    def check(executor: Executor, counts) -> Optional[str]:
        for a, b in pairs:
            if is_eating(executor.local[a]) and is_eating(executor.local[b]):
                return f"{a} and {b} eat simultaneously while sharing a fork"
        return None

    return check


def _lockstep_invariant(spec: "ExploreSpec", bundle: ScenarioBundle):
    """Θ-classes must be state-uniform whenever all step counts agree.

    Theorem 4 promises lockstep for *class* round robins -- the members
    of each Θ-class run back to back.  Under ``fairness="k-bounded"``
    with ``k`` equal to the processor count every window of ``k`` steps
    is a permutation round, so every balanced point (all step counts
    equal) is a round boundary; when the whole system is ONE Θ-class,
    every permutation round is a class round robin in some member order
    and the invariant can never legitimately fire.  With several
    classes, a permutation round that wedges a dissimilar processor
    *between* two class members can split their observations of shared
    variables, so a violation there marks the boundary of the theorem,
    not a bug (see ``test_permutation_rounds_can_split_interleaved_
    classes``).  Under looser fairness even round boundaries are lost
    (``p0 p0 p1 p1`` is balanced but its first "round" runs ``p0``
    twice) -- pair this invariant with the k-bounded restriction.
    """
    classes = [
        tuple(sorted(cls, key=repr))
        for cls in processor_similarity_classes(bundle.system)
    ]
    classes = [cls for cls in classes if len(cls) > 1]

    def check(executor: Executor, counts) -> Optional[str]:
        if counts is None or len(set(counts)) != 1:
            return None
        for cls in classes:
            states = {executor.local[p] for p in cls}
            if len(states) > 1:
                members = ", ".join(str(p) for p in cls)
                return (
                    f"Θ-class {{{members}}} holds {len(states)} distinct "
                    f"states after {counts[0]} balanced steps each"
                )
        return None

    check.needs_counts = True
    return check


def _uniform_probe(spec: "ExploreSpec", bundle: ScenarioBundle):
    """Hit when every processor holds one shared local state."""
    procs = bundle.system.processors

    def probe(executor: Executor, counts) -> Optional[str]:
        states = {executor.local[p] for p in procs}
        if len(states) == 1:
            return f"all processors share state {next(iter(states))!r}"
        return None

    return probe


def _selected_probe(spec: "ExploreSpec", bundle: ScenarioBundle):
    """Hit when some processor's state satisfies ``is_selected``."""

    def probe(executor: Executor, counts) -> Optional[str]:
        chosen = executor.selected_processors()
        if chosen:
            return "selected: " + ", ".join(str(p) for p in chosen)
        return None

    return probe


def _eating_progress(spec: "ExploreSpec", bundle: ScenarioBundle):
    is_eating = _eating_predicate(bundle)
    procs = bundle.system.processors

    def progress(executor: Executor) -> bool:
        return any(is_eating(executor.local[p]) for p in procs)

    return progress


def _selected_progress(spec: "ExploreSpec", bundle: ScenarioBundle):
    def progress(executor: Executor) -> bool:
        return bool(executor.selected_processors())

    return progress


INVARIANTS: Dict[str, Callable] = {
    "exclusion": _exclusion_invariant,
    "lockstep": _lockstep_invariant,
}

PROBES: Dict[str, Callable] = {
    "uniform": _uniform_probe,
    "selected": _selected_probe,
}

PROGRESS: Dict[str, Callable] = {
    "eating": _eating_progress,
    "selected": _selected_progress,
}


# ----------------------------------------------------------------------
# specification and result types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A counterexample: what failed, and the schedule prefix reaching it.

    ``schedule`` is the sequence of ``str(processor)`` choices from the
    initial configuration; replaying it through
    :class:`~repro.runtime.scheduler.ReplayScheduler` reproduces the
    violating configuration exactly.
    """

    kind: str  # "deadlock" | "livelock" | "invariant"
    invariant: str
    depth: int
    schedule: Tuple[str, ...]
    detail: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "invariant": self.invariant,
            "depth": self.depth,
            "schedule": list(self.schedule),
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Violation":
        if doc["kind"] not in ("deadlock", "livelock", "invariant"):
            raise ValueError(f"unknown violation kind {doc['kind']!r}")
        return cls(
            kind=doc["kind"],
            invariant=doc["invariant"],
            depth=int(doc["depth"]),
            schedule=tuple(doc["schedule"]),
            detail=doc["detail"],
        )


@dataclass(frozen=True)
class ExploreSpec:
    """The full specification of one bounded exploration.

    Attributes:
        scenario: a shared-variable scenario spec
            (:func:`repro.obs.scenarios.normalize_spec` vocabulary); the
            scheduler entry only matters for the fallback of replayed
            counterexamples — exploration enumerates choices itself.
        max_depth: schedule prefixes up to this length are explored.
        strategy: ``"bfs"`` (canonical counterexamples, pooled levels)
            or ``"dfs"`` (needed for livelock detection).
        fairness: ``"none"``, ``"fair"`` or ``"k-bounded"``.  Every
            finite prefix extends to a fair schedule, so ``"fair"``
            prunes nothing over a bounded horizon (it is accepted for
            explicitness); ``"k-bounded"`` restricts enumeration to
            prefixes of k-bounded schedules, where *every* processor —
            halted ones take no-op slots — must appear in every window
            of ``k`` consecutive choices.
        k: the window for ``"k-bounded"`` fairness.
        symmetry: deduplicate by Θ-orbit canonical form instead of exact
            configuration.
        invariants: names from :data:`INVARIANTS` checked at every
            visited configuration.
        probes: names from :data:`PROBES`; hits are recorded (up to
            ``probe_limit``) without stopping the search.
        check_deadlock: report a configuration as deadlocked when no
            processor can run, or when every eligible step leaves the
            configuration unchanged (circular wait).  Note that a system
            whose processors all *halt* normally is reported as a
            deadlock too — the detail string distinguishes the cases.
        check_livelock: detect cycles without progress (DFS only; needs
            ``progress``).  Sound but not complete: visited-state
            pruning can hide cycles, so absence of a report is not a
            livelock-freedom certificate.
        progress: name from :data:`PROGRESS` defining what "progress"
            means for livelock detection.
        restrict: explore exactly one schedule (a tuple of
            ``str(processor)`` choices) instead of branching — the
            degenerate mode used to cross-check single-run analyses and
            to verify counterexamples.  Deduplication is disabled, since
            a position in a fixed schedule determines its future.
        probe_limit: cap on recorded probe hits (under BFS, the first
            ones in discovery order, however the levels are chunked).
    """

    scenario: Dict[str, Any]
    max_depth: int
    strategy: str = "bfs"
    fairness: str = "none"
    k: Optional[int] = None
    symmetry: bool = True
    invariants: Tuple[str, ...] = ()
    probes: Tuple[str, ...] = ()
    check_deadlock: bool = True
    check_livelock: bool = False
    progress: Optional[str] = None
    restrict: Optional[Tuple[str, ...]] = None
    probe_limit: int = 32

    def __post_init__(self) -> None:
        doc = normalize_spec(dict(self.scenario))
        if doc["crash_at"]:
            raise ExploreError(
                "exploration does not model crashes; drop crash_at from "
                "the scenario (a crashed processor is just one the "
                "explored schedules stop choosing)"
            )
        object.__setattr__(self, "scenario", doc)
        if self.strategy not in _STRATEGIES:
            raise ExploreError(
                f"unknown strategy {self.strategy!r}; pick from {_STRATEGIES}"
            )
        if self.fairness not in _FAIRNESS:
            raise ExploreError(
                f"unknown fairness {self.fairness!r}; pick from {_FAIRNESS}"
            )
        if self.fairness == "k-bounded":
            if self.k is None or int(self.k) < 1:
                raise ExploreError("k-bounded fairness needs k >= 1")
            object.__setattr__(self, "k", int(self.k))
        elif self.k is not None:
            raise ExploreError("k is only meaningful with fairness='k-bounded'")
        for name in ("max_depth", "probe_limit"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ExploreError(f"{name} must be an integer >= 0, not {value!r}")
        object.__setattr__(self, "invariants", tuple(self.invariants))
        object.__setattr__(self, "probes", tuple(self.probes))
        for name in self.invariants:
            if name not in INVARIANTS:
                raise ExploreError(
                    f"unknown invariant {name!r}; pick from {sorted(INVARIANTS)}"
                )
        for name in self.probes:
            if name not in PROBES:
                raise ExploreError(
                    f"unknown probe {name!r}; pick from {sorted(PROBES)}"
                )
        if self.progress is not None and self.progress not in PROGRESS:
            raise ExploreError(
                f"unknown progress predicate {self.progress!r}; "
                f"pick from {sorted(PROGRESS)}"
            )
        if self.check_livelock:
            if self.strategy != "dfs":
                raise ExploreError("check_livelock needs strategy='dfs'")
            if self.progress is None:
                raise ExploreError(
                    "check_livelock needs a progress predicate "
                    f"(pick from {sorted(PROGRESS)})"
                )
            if self.restrict is not None:
                raise ExploreError("check_livelock cannot combine with restrict")
        if self.restrict is not None:
            object.__setattr__(
                self, "restrict", tuple(str(p) for p in self.restrict)
            )

    def to_json(self) -> dict:
        return {
            "scenario": dict(self.scenario),
            "max_depth": self.max_depth,
            "strategy": self.strategy,
            "fairness": self.fairness,
            "k": self.k,
            "symmetry": self.symmetry,
            "invariants": list(self.invariants),
            "probes": list(self.probes),
            "check_deadlock": self.check_deadlock,
            "check_livelock": self.check_livelock,
            "progress": self.progress,
            "restrict": None if self.restrict is None else list(self.restrict),
            "probe_limit": self.probe_limit,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExploreSpec":
        if not isinstance(doc, dict):
            raise ExploreError("an explore spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ExploreError(
                    f"unknown explore spec key {key!r}; pick from {sorted(known)}"
                )
        for key in ("scenario", "max_depth"):
            if key not in doc:
                raise ExploreError(f"explore spec needs {key!r}")
        doc = dict(doc)
        for key in ("invariants", "probes"):
            doc[key] = tuple(doc.get(key, ()))
        restrict = doc.get("restrict")
        doc["restrict"] = None if restrict is None else tuple(restrict)
        return cls(**doc)


@dataclass
class ExploreStats:
    """Counters of one exploration (summed across levels)."""

    visited: int = 0
    expanded: int = 0
    transitions: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)

    def merge(self, doc: dict) -> None:
        for key, value in doc.items():
            setattr(self, key, getattr(self, key) + value)


@dataclass
class ExploreResult:
    """Outcome of one :func:`run_explore` call.

    ``violation is None`` means the bounded space is *certified*: no
    deadlock / livelock / invariant violation is reachable within
    ``spec.max_depth`` schedule steps (under the spec's fairness
    restriction).  ``unique_states`` counts distinct visited state
    digests — orbit representatives when symmetry reduction is on;
    ``state_digests`` is the sorted list itself (canonical encoded-state
    digests, identical across worker counts and hash seeds — the CI
    determinism artifact behind ``explore --states-output``).
    """

    spec: ExploreSpec
    violation: Optional[Violation]
    unique_states: int
    stats: ExploreStats
    probe_hits: List[dict]
    shards: int
    resumed_shards: int
    workers: int
    elapsed: float
    group_size: int
    state_digests: Tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "certified" if self.violation is None else "violation"

    @property
    def certified_depth(self) -> Optional[int]:
        return self.spec.max_depth if self.violation is None else None

    def report_doc(self) -> dict:
        """A deterministic JSON document: identical across worker counts
        and ``PYTHONHASHSEED`` values (no timings, no pool geometry)."""
        return {
            "kind": "explore-report",
            "spec": self.spec.to_json(),
            "verdict": self.verdict,
            "violation": None if self.violation is None else self.violation.to_json(),
            "unique_states": self.unique_states,
            "stats": self.stats.to_json(),
            "probe_hits": self.probe_hits,
            "shards": self.shards,
            "group_size": self.group_size,
        }

    def describe(self) -> str:
        if self.violation is not None:
            v = self.violation
            what = {
                "deadlock": "deadlock",
                "livelock": "livelock",
                "invariant": f"invariant {v.invariant!r} violated",
            }[v.kind]
            return (
                f"{what} at depth {v.depth} via "
                f"[{', '.join(v.schedule)}]: {v.detail}"
            )
        return (
            f"certified: no violation within {self.spec.max_depth} steps "
            f"({self.unique_states} distinct states, "
            f"automorphism group size {self.group_size})"
        )


# ----------------------------------------------------------------------
# the walker
# ----------------------------------------------------------------------


class _Checks:
    """Instantiated checks of one exploration, bound to one bundle."""

    def __init__(
        self,
        spec: ExploreSpec,
        bundle: ScenarioBundle,
        extra_invariants: Sequence[Callable] = (),
        extra_probes: Sequence[Callable] = (),
    ) -> None:
        self.invariants: List[Tuple[str, Callable]] = [
            (name, INVARIANTS[name](spec, bundle)) for name in spec.invariants
        ]
        for fn in extra_invariants:
            self.invariants.append((getattr(fn, "__name__", "extra"), fn))
        self.probes: List[Tuple[str, Callable]] = [
            (name, PROBES[name](spec, bundle)) for name in spec.probes
        ]
        for fn in extra_probes:
            self.probes.append((getattr(fn, "__name__", "extra"), fn))
        self.progress: Optional[Callable] = (
            PROGRESS[spec.progress](spec, bundle)
            if spec.progress is not None
            else None
        )
        self.needs_counts = any(
            getattr(fn, "needs_counts", False) for _name, fn in self.invariants
        )


class _KeyMaker:
    """State → byte key for one system: canonical under symmetry
    reduction, identity encoding otherwise.  Built once per process and
    shared by every walker in it.

    Under symmetry reduction the canonical key of a state is memoized by
    its *identity* key: the identity encoding determines the state
    exactly, so it determines the canonical image, and a memo hit skips
    the whole minimal-image search.  The memo is sound by construction,
    so it can be loaded from a persistent store (``orbits`` namespace,
    keyed by the system fingerprint) and saved back whole; ``computed``
    counts the keys this maker had to search for.
    """

    def __init__(self, system, symmetry: bool) -> None:
        self.encoder = StateEncoder(system)
        self.canon: Optional[StabilizerChainCanonicalizer] = (
            StabilizerChainCanonicalizer(system, encoder=self.encoder)
            if symmetry
            else None
        )
        self.group_size = self.canon.group_size if self.canon is not None else 1
        self.memo: Dict[bytes, bytes] = {}
        self.computed = 0

    def key(self, state, slots: List[bytes], vectors: Tuple) -> bytes:
        """The (canonical or identity) byte key of one state, given its
        exploration state and that state's encoder slots."""
        ident = self.encoder.join_key(slots, vectors)
        if self.canon is None:
            return ident
        key = self.memo.get(ident)
        if key is None:
            key = self.memo[ident] = self.canon.canonical_key(
                state[0], state[1], vectors
            )
            self.computed += 1
        return key


class _Node:
    """One node of the choice tree.

    ``state`` is the executor's exploration state and ``slots`` its
    :meth:`~repro.core.encoding.StateEncoder.state_slots`.  A child
    builds both from its parent's, replacing only the entries its step
    changed; the walker drops them with the executor once the node's
    children exist.
    """

    __slots__ = ("executor", "depth", "schedule", "ages", "counts",
                 "state", "slots", "digest", "children", "progress")

    def __init__(
        self, executor, depth, schedule, ages, counts, state, slots
    ) -> None:
        self.executor = executor
        self.depth = depth
        self.schedule = schedule  # tuple of str(processor) choices from the root
        self.ages = ages          # per-processor steps since last scheduled
        self.counts = counts      # per-processor executed (non-noop) steps
        self.state = state
        self.slots = slots
        self.digest = None        # 16-byte digest of the state's byte key
        self.children: Optional[List["_Node"]] = None
        self.progress = False


class _Walker:
    """Visits nodes of the choice tree: one BFS level (or one chunk of
    it), or the whole tree depth-first."""

    def __init__(
        self,
        spec: ExploreSpec,
        bundle: ScenarioBundle,
        keys: _KeyMaker,
        checks: _Checks,
    ) -> None:
        self.spec = spec
        self.bundle = bundle
        self.keys = keys
        self.checks = checks
        self.procs: Tuple[NodeId, ...] = tuple(bundle.system.processors)
        self.names: Tuple[str, ...] = tuple(str(p) for p in self.procs)
        self.by_str = dict(zip(self.names, self.procs))
        self.index = {p: i for i, p in enumerate(self.procs)}
        self.var_index = {v: j for j, v in enumerate(bundle.system.variables)}
        self.track_ages = spec.fairness == "k-bounded"
        self.track_counts = checks.needs_counts
        self.stats = ExploreStats()
        self.digests: Set[bytes] = set()
        self.probe_hits: List[dict] = []
        self.violation: Optional[Violation] = None

    # -- node construction ---------------------------------------------

    def _root_light(self) -> _Node:
        executor = Executor(
            self.bundle.system, self.bundle.program, self.bundle.base_scheduler
        )
        n = len(self.procs)
        state = executor.exploration_state()
        return _Node(
            executor,
            0,
            (),
            (1,) * n if self.track_ages else None,
            (0,) * n if self.track_counts else None,
            state,
            self.keys.encoder.state_slots(*state),
        )

    def _root_node(self) -> _Node:
        node = self._root_light()
        node.digest = _digest(self._key(node))
        return node

    def _state_after(self, node: _Node, proc: NodeId, twin: Executor):
        """``twin.exploration_state()``, built from the parent's state:
        only ``proc``'s entry and the variables the step copied change."""
        proc_part, var_part = node.state
        i = self.index[proc]
        proc_part = (
            proc_part[:i] + ((twin.local[proc], twin.halted[proc]),)
            + proc_part[i + 1:]
        )
        if twin.owned:
            entries = list(var_part)
            for v in twin.owned:
                entries[self.var_index[v]] = twin.exploration_entry(v)
            var_part = tuple(entries)
        return proc_part, var_part

    def _step_light(
        self, node: _Node, proc: NodeId, twin: Executor, state=None
    ) -> _Node:
        """The successor node *without* its digest — replay takes the
        digest from the frontier entry instead of recomputing the key.
        ``state`` is the successor's state when the caller built it."""
        if state is None:
            state = self._state_after(node, proc, twin)
        i = self.index[proc]
        encoder = self.keys.encoder
        slots = list(node.slots)
        slots[i] = encoder.proc_slot(state[0][i])
        n = len(self.procs)
        for v in twin.owned:
            j = self.var_index[v]
            slots[n + j] = encoder.var_slot(state[1][j])
        ages = node.ages
        if ages is not None:
            ages = tuple(1 if j == i else a + 1 for j, a in enumerate(ages))
        counts = node.counts
        if counts is not None and not node.executor.halted[proc]:
            counts = tuple(c + 1 if j == i else c for j, c in enumerate(counts))
        return _Node(
            twin, node.depth + 1, node.schedule + (self.names[i],), ages, counts,
            state, slots,
        )

    def _child(
        self, node: _Node, proc: NodeId, twin: Executor, state=None
    ) -> _Node:
        child = self._step_light(node, proc, twin, state)
        child.digest = _digest(self._key(child))
        return child

    def _key(self, node: _Node) -> bytes:
        vectors: List[Tuple] = []
        if node.ages is not None:
            vectors.append(node.ages)
        if node.counts is not None:
            vectors.append(node.counts)
        key = self.keys.key(node.state, node.slots, tuple(vectors))
        if self.spec.k is not None:
            # States inside an incomplete first window are not mergeable
            # with window-active ones: the schedule-position phase is
            # part of a state's future under the k-bounded restriction.
            return key + _PHASE.pack(min(node.depth, self.spec.k - 1))
        return key

    # -- choice enumeration --------------------------------------------

    def _choices(self, node: _Node) -> Tuple[NodeId, ...]:
        spec = self.spec
        if spec.restrict is not None:
            if node.depth < len(spec.restrict):
                return (self.by_str[spec.restrict[node.depth]],)
            return ()
        if self.track_ages:
            # An age of k means the processor must be scheduled *now* or
            # some window of k choices misses it.  Valid prefixes keep
            # every age <= k, so at most one processor can be overdue
            # per parent (ages are pairwise distinct among the overdue
            # candidates' increments); two overdue means a dead branch.
            k = spec.k
            overdue = [p for p, a in zip(self.procs, node.ages) if a >= k]
            if not overdue:
                return self.procs
            if len(overdue) == 1:
                return (overdue[0],)
            return ()
        return node.executor.eligible_processors()

    # -- visiting ------------------------------------------------------

    def _visit(self, node: _Node) -> Optional[Violation]:
        """Check a newly discovered node and materialize its children.

        All checks happen at *discovery* time, so BFS reports the
        ``(depth, prefix)``-least violation and deadlock is detected at
        ``max_depth`` leaves too (successors are computed, not enqueued).
        """
        spec = self.spec
        checks = self.checks
        executor = node.executor
        self.stats.visited += 1
        self.digests.add(node.digest)
        schedule = node.schedule
        if checks.progress is not None:
            node.progress = checks.progress(executor)
        for name, fn in checks.probes:
            if len(self.probe_hits) >= spec.probe_limit:
                break
            detail = fn(executor, node.counts)
            if detail:
                self.probe_hits.append(
                    {
                        "probe": name,
                        "depth": node.depth,
                        "schedule": list(schedule),
                        "detail": detail,
                    }
                )
        for name, fn in checks.invariants:
            detail = fn(executor, node.counts)
            if detail:
                node.children = []
                return Violation("invariant", name, node.depth, schedule, detail)

        runnable = executor.eligible_processors()
        if spec.check_deadlock and not runnable:
            node.children = []
            return Violation(
                "deadlock", "", node.depth, schedule,
                "every processor has halted; no step is possible",
            )
        choices = self._choices(node) if node.depth < spec.max_depth else ()
        to_expand = set(choices)
        if spec.check_deadlock:
            to_expand.update(runnable)
        successors: Dict[NodeId, Tuple[Executor, Any]] = {}
        if to_expand:
            self.stats.expanded += 1
            for proc in self.procs:
                if proc in to_expand:
                    twin = executor.successor(proc)
                    successors[proc] = (twin, self._state_after(node, proc, twin))
                    self.stats.transitions += 1
        if spec.check_deadlock and runnable:
            if all(successors[p][1] == node.state for p in runnable):
                node.children = []
                return Violation(
                    "deadlock", "", node.depth, schedule,
                    "no eligible step changes the configuration "
                    f"(circular wait among {len(runnable)} processors)",
                )
        node.children = [
            self._child(node, proc, *successors[proc]) for proc in choices
        ]
        return None

    # -- traversals ----------------------------------------------------

    def replay(self, entries: Iterable[Sequence]) -> Iterator[_Node]:
        """Rebuild level states from ``[schedule, digest-hex]`` entries.

        Entries come in BFS discovery order and share long common
        prefixes, so a path cache (``path[d]`` = the replayed node after
        ``d`` steps) turns replay into "pop the divergent suffix, step
        the new one".  The digest was computed when the state was
        discovered, so no key is recomputed for the state itself.
        """
        path = [self._root_light()]
        for sched, dhex in entries:
            prev = path[-1].schedule
            common = 0
            limit = min(len(sched), len(prev))
            while common < limit and prev[common] == sched[common]:
                common += 1
            del path[common + 1:]
            node = path[common]
            for p_str in sched[common:]:
                proc = self.by_str.get(p_str)
                if proc is None:
                    raise ExploreError(
                        f"frontier schedule names unknown processor {p_str!r}"
                    )
                node = self._step_light(node, proc, node.executor.successor(proc))
                path.append(node)
            node.digest = bytes.fromhex(dhex)
            yield node

    def run_level(
        self, nodes: Iterable[_Node], visited: Optional[Set[bytes]]
    ) -> List[_Node]:
        """Visit one BFS level in order and return the next one.

        Children are deduplicated against ``visited`` as they are found
        (``None`` keeps them all: restricted walks), and each node's
        executor is dropped once visited.  Stops at the first violation.
        """
        nxt: List[_Node] = []
        for node in nodes:
            violation = self._visit(node)
            children = node.children
            node.children = node.executor = node.state = node.slots = None
            if violation is not None:
                self.violation = violation
                return []
            for child in children:
                if visited is not None:
                    if child.digest in visited:
                        continue
                    visited.add(child.digest)
                nxt.append(child)
        return nxt

    def level_doc(self) -> dict:
        """This walker's level (or chunk) as a plain document."""
        return {
            "stats": self.stats.to_json(),
            "probes": self.probe_hits,
            "violation": None if self.violation is None else self.violation.to_json(),
            "expanded": sorted(d.hex() for d in self.digests),
        }

    def run_dfs(self) -> None:
        """DFS from the root; detects no-progress cycles when asked.

        A state is re-expanded when reached at a strictly smaller depth
        than before (more remaining budget), so bounded-depth coverage
        matches BFS.  A child closing a cycle back onto the current path
        with no progress flag anywhere in the looped segment is a
        livelock lasso.
        """
        spec = self.spec
        dedup = spec.restrict is None
        livelock = spec.check_livelock
        root = self._root_node()
        visited: Dict[bytes, int] = {root.digest: root.depth} if dedup else None
        violation = self._visit(root)
        if violation is not None:
            self.violation = violation
            return
        path: List[_Node] = [root]
        on_path: Dict[bytes, int] = {root.digest: 0}
        stack: List[Tuple[_Node, Iterator[_Node]]] = [
            (root, iter(root.children or []))
        ]
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                if livelock:
                    popped = path.pop()
                    on_path.pop(popped.digest, None)
                continue
            if livelock and child.digest in on_path:
                start = on_path[child.digest]
                segment = path[start:]
                if not any(n.progress for n in segment):
                    self.violation = Violation(
                        "livelock", "",
                        child.depth,
                        child.schedule,
                        f"schedule loops back to the state at depth "
                        f"{segment[0].depth} (cycle length "
                        f"{child.depth - segment[0].depth}) with no progress",
                    )
                    return
                continue
            if dedup:
                prev = visited.get(child.digest)
                if prev is not None and prev <= child.depth:
                    continue
                visited[child.digest] = child.depth
            violation = self._visit(child)
            if violation is not None:
                self.violation = violation
                return
            if child.children:
                if livelock:
                    on_path[child.digest] = len(path)
                    path.append(child)
                stack.append((child, iter(child.children)))


# ----------------------------------------------------------------------
# levels, the pool, checkpoints
# ----------------------------------------------------------------------

#: States per pool task.  Fixed — independent of the worker count — and
#: also the fan-out point: a level runs on the pool only when it holds
#: more than one chunk.
_CHUNK = 32


#: Per-worker context: built once by :func:`_pool_init`, reused by every
#: level chunk the worker picks up (the scenario bundle and the
#: stabilizer chain are the expensive parts — rebuilding them per task
#: would dominate the task itself).
_WORKER: Dict[str, Any] = {}


def _pool_init(spec_doc: dict) -> None:
    """Pool-worker initializer: build the shared per-process context."""
    spec = ExploreSpec.from_json(spec_doc)
    bundle = build_scenario(spec.scenario)
    keys = _KeyMaker(bundle.system, spec.symmetry)
    checks = _Checks(spec, bundle)
    _WORKER.update(spec=spec, bundle=bundle, keys=keys, checks=checks)


def _run_level_chunk(entries: list) -> dict:
    """Worker entry point: visit one chunk of ``[schedule, digest-hex]``
    entries; the document lists every child, in order, as an entry
    (the parent deduplicates)."""
    w = _WORKER
    walker = _Walker(w["spec"], w["bundle"], w["keys"], w["checks"])
    children = walker.run_level(walker.replay(entries), None)
    doc = walker.level_doc()
    doc["frontier"] = [_entry(node) for node in children]
    return doc


def _entry(node: _Node) -> list:
    """A live node as a ``[schedule, digest-hex]`` frontier entry."""
    return [list(node.schedule), node.digest.hex()]


def _popping(nodes: list) -> Iterator:
    """Iterate ``nodes`` in order, dropping each from the list as it goes."""
    nodes.reverse()
    while nodes:
        yield nodes.pop()


def _pool_level(
    pool: ProcessPoolExecutor,
    entries: list,
    visited: Optional[Set[bytes]],
    probe_limit: int,
) -> dict:
    """Run one level on the pool; the document carries the next level's
    entries under ``"frontier"``.

    Chunks merge in frontier order, so the first violation is the
    level's ``(depth, prefix)``-least one and later chunks are discarded
    exactly as the in-process loop would never have visited them.  Each
    chunk caps its probe hits at ``probe_limit``; concatenating those
    capped lists in order and capping again keeps the level's first
    hits, however the level was chunked.
    """
    futures = [
        pool.submit(_run_level_chunk, entries[i:i + _CHUNK])
        for i in range(0, len(entries), _CHUNK)
    ]
    stats = ExploreStats()
    probes: List[dict] = []
    violation: Optional[dict] = None
    expanded: List[str] = []
    nxt: List[list] = []
    for future in futures:
        cdoc = future.result()
        stats.merge(cdoc["stats"])
        probes.extend(cdoc["probes"])
        expanded.extend(cdoc["expanded"])
        violation = cdoc["violation"]
        if violation is not None:
            for rest in futures:
                rest.cancel()
            nxt = []
            break
        for entry in cdoc["frontier"]:
            if visited is not None:
                digest = bytes.fromhex(entry[1])
                if digest in visited:
                    continue
                visited.add(digest)
            nxt.append(entry)
    return {
        "stats": stats.to_json(),
        "probes": probes[:probe_limit],
        "violation": violation,
        "expanded": expanded,
        "frontier": nxt,
    }


def _parse_line(doc: dict):
    """A level line as ``(depth, level document)``, the DFS tree line as
    ``(None, tree document)``; None for a line of another kind.  Each
    field goes through the conversion the resume gives it, so a line the
    resume could not read fails here, before any work is done."""
    if doc.get("kind") not in ("level", "tree"):
        return None
    result = doc["result"]
    ExploreStats().merge(result["stats"])
    set(result["expanded"])
    sorted(result["probes"], key=lambda h: (h["depth"], h["schedule"], h["probe"]))
    if result["violation"] is not None:
        Violation.from_json(result["violation"])
    if doc["kind"] == "tree":
        return None, result
    for schedule, digest in result["frontier"]:
        set(schedule), bytes.fromhex(digest)
    return int(doc["depth"]), result


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def _orbit_store_key(system) -> bytes:
    """The ``orbits``-namespace store key of one system: its content
    fingerprint (hash-seed independent, equal for equal systems)."""
    return bytes.fromhex(system.fingerprint)


def _load_orbit_memo(store, system, keys: _KeyMaker) -> None:
    """Seed ``keys`` from the system's ``orbits`` entry, if it has one."""
    from ..store import NS_ORBITS

    doc = store.get(NS_ORBITS, _orbit_store_key(system))
    if doc is not None:
        keys.memo.update(
            (bytes.fromhex(ident), bytes.fromhex(canon))
            for ident, canon in doc.get("map", {}).items()
        )


def _save_orbit_memo(store, system, keys: _KeyMaker) -> None:
    """Save the whole memo as the system's ``orbits`` entry, if this run
    computed a key; a run served wholly from the entry writes nothing."""
    from ..store import NS_ORBITS

    if not keys.computed:
        return
    store.put(
        NS_ORBITS,
        _orbit_store_key(system),
        {"map": {ident.hex(): canon.hex() for ident, canon in keys.memo.items()}},
    )
    store.flush()


def _canonical_violation(
    spec: ExploreSpec,
    violation: Violation,
    extra_invariants: Sequence[Callable],
) -> Violation:
    """Normalize a found violation to the global ``(depth, prefix)``-least
    one via a bounded unreduced BFS re-search.

    Symmetry reduction and DFS order can each make the *first found*
    violation depend on traversal mode; the bounded re-search (depth
    capped at the found violation's depth, so it always terminates and
    always finds something at least as shallow) makes the reported
    counterexample mode-independent.  An unreduced BFS finds that
    violation itself and is never re-searched.
    """
    base = replace(
        spec,
        symmetry=False,
        strategy="bfs",
        max_depth=violation.depth,
        check_livelock=False,
        progress=None,
        probes=(),
    )
    result = run_explore(base, workers=0, extra_invariants=extra_invariants)
    return result.violation if result.violation is not None else violation


def _run_levels(
    spec: ExploreSpec,
    new_walker: Callable[[], _Walker],
    workers: int,
    completed: Dict[int, dict],
    writer: Optional[CheckpointWriter],
    account: Callable[[dict, str, bool], None],
) -> Tuple[int, int, bool]:
    """The BFS loop: finish each level before starting the next.

    A level runs on the pool when ``workers > 1`` and it holds more than
    one chunk, and in-process otherwise: over live nodes when the
    previous level ran in-process too, else over replayed entries.
    Levels recorded in ``completed`` are not re-run.  Each level's
    document goes to the checkpoint and to ``account`` (with its shard
    name and whether it was resumed) as it finishes.  Returns
    ``(levels, resumed levels, pool used)``.
    """
    dedup = spec.restrict is None
    root = new_walker()._root_node()
    visited: Optional[Set[bytes]] = {root.digest} if dedup else None
    frontier: list = [root]  # live nodes, or [schedule, digest-hex] entries
    live = True
    pool: Optional[ProcessPoolExecutor] = None
    levels = resumed = 0
    try:
        while frontier:
            depth = levels
            levels += 1
            if depth in completed:
                resumed += 1
                doc = completed[depth]
                frontier, live = doc["frontier"], False
                if dedup:
                    visited.update(bytes.fromhex(d) for _s, d in frontier)
            elif workers > 1 and len(frontier) > _CHUNK:
                if live:
                    frontier = [_entry(node) for node in _popping(frontier)]
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_pool_init,
                        initargs=(spec.to_json(),),
                    )
                doc = _pool_level(pool, frontier, visited, spec.probe_limit)
                frontier, live = doc["frontier"], False
            else:
                walker = new_walker()
                nodes = _popping(frontier) if live else walker.replay(frontier)
                frontier, live = walker.run_level(nodes, visited), True
                doc = walker.level_doc()
                if writer:
                    doc["frontier"] = [_entry(node) for node in frontier]
            if writer and depth not in completed:
                writer.write({"kind": "level", "depth": depth, "result": doc})
            account(doc, f"depth-{depth}", depth in completed)
            if doc["violation"] is not None:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return levels, resumed, pool is not None


def run_explore(
    spec: ExploreSpec,
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
    hub=None,
    extra_invariants: Sequence[Callable] = (),
    extra_probes: Sequence[Callable] = (),
    store=None,
) -> ExploreResult:
    """Explore the bounded schedule space of a scenario.

    Args:
        spec: the exploration specification.
        workers: process-pool size.  ``None`` picks ``min(4, cpu_count)``;
            ``0``/``1`` runs every level in-process.  BFS levels of more
            than one chunk go to the pool; verdict and counterexample
            are identical on every worker count.
        checkpoint: optional JSONL path; finished BFS levels (or the
            whole DFS tree) are appended as they finish and are not
            re-run on resume (same spec only).
        hub: optional :class:`~repro.obs.events.EventHub` receiving
            ``ExplorationProgress`` per level and ``InvariantViolated``
            for the verdict.
        extra_invariants / extra_probes: live ``(executor, counts) ->
            Optional[str]`` callables checked alongside the registered
            names.  They cannot cross the process-pool pickle boundary,
            so they need ``workers<=1``; an invariant may opt into
            per-processor step counts with a truthy ``needs_counts``
            attribute.
        store: optional :class:`~repro.store.ContentStore`.  Under
            symmetry reduction the parent's canonicalization memo is
            loaded from the system's ``orbits`` entry (keyed by its
            fingerprint) and, if the run computed a key, saved back
            whole, so repeated explorations of the same system skip the
            minimal-image searches.  The last save of an entry wins: a
            pair another process saved after this run loaded is
            recomputed by a later run, never wrong.  Pool workers keep
            their own in-process memos and do not consult the store; the
            verdict never depends on the store.

    Returns:
        An :class:`ExploreResult`; its :meth:`~ExploreResult.report_doc`
        is byte-stable across worker counts and hash seeds.
    """
    t0 = time.perf_counter()
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers <= 1:
        workers = 0
    if (extra_invariants or extra_probes) and workers:
        raise ExploreError(
            "extra invariants/probes are live callables and cannot cross "
            "the process-pool boundary; run with workers<=1"
        )

    bundle = build_scenario(spec.scenario)
    n = len(bundle.system.processors)
    if spec.k is not None and spec.k < n:
        raise ExploreError(
            f"k={spec.k} is smaller than the {n} processors: every window "
            "of k choices must contain all of them, so no k-bounded "
            "schedule exists"
        )
    keys = _KeyMaker(bundle.system, spec.symmetry)
    checks = _Checks(spec, bundle, extra_invariants, extra_probes)
    if store is not None and spec.symmetry:
        _load_orbit_memo(store, bundle.system, keys)

    lines: List[tuple] = []
    writer: Optional[CheckpointWriter] = None
    if checkpoint:
        lines = load_checkpoint(
            checkpoint, "explore-checkpoint", spec.to_json(), ExploreError,
            "exploration", _parse_line,
        )
        writer = CheckpointWriter(
            checkpoint, "explore-checkpoint", spec.to_json(), fresh=not lines
        )

    stats = ExploreStats()
    digests: Set[str] = set()
    hits: List[dict] = []
    violation: Optional[Violation] = None

    def account(doc: dict, shard: str, resumed: bool) -> None:
        nonlocal violation
        emit_if_active(
            hub,
            ExplorationProgress,
            shard=shard,
            visited=doc["stats"]["visited"],
            expanded=doc["stats"]["expanded"],
            transitions=doc["stats"]["transitions"],
            violation=doc["violation"] is not None,
            resumed=resumed,
        )
        stats.merge(doc["stats"])
        digests.update(doc["expanded"])
        hits.extend(doc["probes"])
        if doc["violation"] is not None:
            violation = Violation.from_json(doc["violation"])

    def new_walker() -> _Walker:
        return _Walker(spec, bundle, keys, checks)

    try:
        if spec.strategy == "dfs":
            # DFS order and livelock cycles are whole-tree properties:
            # one in-process walk, checkpointed as one unit.
            workers, shards = 0, 1
            tree = next(
                (result for depth, result in lines if depth is None), None
            )
            resumed = int(tree is not None)
            if tree is None:
                walker = new_walker()
                walker.run_dfs()
                tree = walker.level_doc()
                if writer:
                    writer.write({"kind": "tree", "result": tree})
            account(tree, "root", bool(resumed))
        else:
            completed = {
                depth: result for depth, result in lines if depth is not None
            }
            shards, resumed, pooled = _run_levels(
                spec, new_walker, workers, completed, writer, account
            )
            workers = workers if pooled else 0
    finally:
        if writer:
            writer.close()
        if store is not None and spec.symmetry:
            _save_orbit_memo(store, bundle.system, keys)

    seen_hits: Set[str] = set()
    unique_hits: List[dict] = []
    for hit in sorted(
        hits, key=lambda h: (h["depth"], h["schedule"], h["probe"])
    ):
        fingerprint = json.dumps(hit, sort_keys=True)
        if fingerprint in seen_hits:
            continue
        seen_hits.add(fingerprint)
        unique_hits.append(hit)
    unique_hits = unique_hits[: spec.probe_limit]

    if (
        violation is not None
        and spec.restrict is None
        and violation.kind != "livelock"
        and (spec.symmetry or spec.strategy == "dfs")
    ):
        violation = _canonical_violation(spec, violation, extra_invariants)

    if violation is not None:
        emit_if_active(
            hub,
            InvariantViolated,
            violation_kind=violation.kind,
            invariant=violation.invariant,
            depth=violation.depth,
            schedule=",".join(violation.schedule),
            detail=violation.detail,
        )

    return ExploreResult(
        spec=spec,
        violation=violation,
        unique_states=len(digests),
        stats=stats,
        probe_hits=unique_hits,
        shards=shards,
        resumed_shards=resumed,
        workers=workers,
        elapsed=time.perf_counter() - t0,
        group_size=keys.group_size,
        state_digests=tuple(sorted(digests)),
    )


def explore_with_profiles(
    spec: ExploreSpec,
    profiler: Callable[[Executor], Any],
) -> Tuple[ExploreResult, List[Any]]:
    """Serial exploration that applies ``profiler`` to every visited
    orbit representative, returning ``(result, profiles)``.

    This is the parametric layer's channel into the walker: the
    profiler rides as an extra probe that records and never *hits*, so
    it sees every discovered state (violation states included) without
    touching ``probe_hits`` or the verdict.  ``spec.probes`` must be
    empty -- a registered probe could fill ``probe_limit`` and silence
    the collector mid-walk -- and the profile list preserves discovery
    order (one entry per unique state under the spec's dedup).
    """
    if spec.probes:
        raise ExploreError(
            "explore_with_profiles needs spec.probes=(): a registered "
            "probe hitting probe_limit would silence the profile collector"
        )
    if spec.probe_limit <= 0:
        raise ExploreError(
            "explore_with_profiles needs probe_limit > 0 so the collector "
            "probe is consulted at all"
        )
    profiles: List[Any] = []

    def _profile_collector(executor: Executor, counts) -> Optional[str]:
        profiles.append(profiler(executor))
        return None

    result = run_explore(spec, workers=0, extra_probes=(_profile_collector,))
    return result, profiles


# ----------------------------------------------------------------------
# counterexample traces
# ----------------------------------------------------------------------


def write_counterexample(
    result: ExploreResult, path: str, sample_every: Optional[int] = None
) -> Dict[str, Any]:
    """Replay the counterexample schedule into a ``"kind": "explore"``
    trace file that the obs replay loop can verify byte-for-byte.

    The header carries the scenario (under ``"run"``), the exploration
    spec, and the violation document, so
    :func:`repro.obs.replay.replay_trace` can both re-execute the
    schedule *and* re-establish that the final configuration violates
    what the explorer said it violates.
    """
    if result.violation is None:
        raise ExploreError(
            "no violation to write: the exploration certified the bounded space"
        )
    violation = result.violation
    spec = result.spec
    with open(path, "w", encoding="utf-8") as handle:
        writer = TraceWriter(handle)
        bundle = build_scenario(spec.scenario)
        by_str = {str(p): p for p in bundle.system.processors}
        try:
            prefix = [by_str[p] for p in violation.schedule]
        except KeyError as exc:
            raise ExploreError(
                f"counterexample schedule names unknown processor {exc}"
            ) from None
        executor = Executor(
            bundle.system, bundle.program, ReplayScheduler(prefix), sink=writer
        )
        if sample_every is None:
            sample_every = max(1, len(bundle.system.processors))
        header = {
            "kind": "explore",
            "run": dict(spec.scenario),
            "explore": spec.to_json(),
            "violation": violation.to_json(),
        }
        writer.write_header(
            header, system_to_dict(bundle.system), len(prefix), sample_every
        )
        writer.sample(executor)
        samples = 1
        for i in range(len(prefix)):
            executor.step()
            if (i + 1) % sample_every == 0:
                writer.sample(executor)
                samples += 1
        digest = writer.write_end(executor)
    return {
        "path": path,
        "steps": len(prefix),
        "samples": samples,
        "sample_every": sample_every,
        "final_digest": digest,
        "lines": writer.lines_written,
    }


def _verify_livelock(spec: ExploreSpec, violation: Violation) -> Optional[str]:
    """Re-walk a livelock lasso and confirm the loop and its stagnation."""
    bundle = build_scenario(spec.scenario)
    keys = _KeyMaker(bundle.system, spec.symmetry)
    checks = _Checks(spec, bundle)
    walker = _Walker(spec, bundle, keys, checks)
    node = walker._root_node()
    digests = [node.digest]
    flags = [checks.progress(node.executor) if checks.progress else False]
    for p_str in violation.schedule:
        proc = walker.by_str.get(p_str)
        if proc is None:
            return f"schedule names unknown processor {p_str!r}"
        node = walker._child(node, proc, node.executor.successor(proc))
        digests.append(node.digest)
        flags.append(checks.progress(node.executor) if checks.progress else False)
    start = digests.index(digests[-1])
    if start == len(digests) - 1:
        return "the schedule closes no cycle: its final state is new"
    if any(flags[start:-1]):
        return "the looped segment makes progress; not a livelock"
    return None


def verify_counterexample(header: Dict[str, Any]) -> Optional[str]:
    """Independently re-establish a recorded counterexample.

    ``header`` is the scenario document of a ``"kind": "explore"`` trace
    (carrying ``explore`` and ``violation`` entries).  Deadlocks and
    invariant violations are re-checked by a restricted exploration that
    walks exactly the recorded schedule; livelocks by re-walking the
    lasso.  Returns None on success, or a human-readable mismatch.
    """
    try:
        spec = ExploreSpec.from_json(header["explore"])
        violation = Violation.from_json(header["violation"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed explore header: {exc}"
    if violation.kind == "livelock":
        return _verify_livelock(spec, violation)
    check = replace(
        spec,
        restrict=violation.schedule,
        max_depth=violation.depth,
        symmetry=False,
        strategy="bfs",
        check_livelock=False,
        progress=None,
        probes=(),
    )
    result = run_explore(check, workers=0)
    got = result.violation
    if got is None:
        return (
            f"replaying the schedule found no violation within depth "
            f"{violation.depth}"
        )
    if (got.kind, got.invariant, got.depth, got.schedule) != (
        violation.kind,
        violation.invariant,
        violation.depth,
        violation.schedule,
    ):
        return (
            f"replayed violation disagrees with the recorded one: "
            f"{got.to_json()!r} != {violation.to_json()!r}"
        )
    return None

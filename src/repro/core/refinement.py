"""Algorithm 1: computing the similarity labeling by partition refinement.

The similarity labeling ``Theta`` of a system is the *coarsest* labeling
that respects environments: equal labels imply equal environments (the
condition of Theorem 4).  Coarsest-stable-partition problems are solved by
refinement, and this module offers three interchangeable engines:

* :func:`algorithm1_literal` -- the paper's Algorithm 1, verbatim: start
  from the trivial subsimilarity labeling and repeatedly split a class
  containing two nodes with different environments.  Worst-case cubic;
  kept as executable specification and cross-check.
* :func:`algorithm1_signatures` -- iterated signature hashing (the
  1-dimensional Weisfeiler-Leman strategy): each round relabels every node
  by the pair (old label, environment signature).  O(rounds * (P+V+E)).
* :func:`algorithm1_worklist` -- a Hopcroft/Paige-Tarjan-style worklist
  refiner that only re-examines nodes adjacent to freshly split blocks and
  enqueues all but the largest fragment, the strategy behind Theorem 5's
  O(n log n) bound ([H71]).

All three return the same partition (tests enforce this); the public entry
point :func:`compute_similarity_labeling` picks the worklist engine.

Fast path
---------

All engines read adjacency from the network's shared
:class:`~repro.core.network.IncidenceCache`.  The signature and worklist
engines run on interned small integers: node ids become array indices,
labels become consecutive ints, and block membership tests are int-set
lookups.  Splitting only ever touches nodes *incident to the popped
block*, never the untouched remainder of a neighboring block, which is
what turns the worklist engine from quadratic-in-practice into the
near-linear behavior Theorem 5 promises.  The straightforward
node-id implementations these replaced live on in the test suite as an
independent oracle: every engine's labels must match them bit-for-bit.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from ..obs.events import RefinementCompleted, RefinementRound
from .environment import EnvironmentModel, environment_signature
from .labeling import Labeling
from .names import NodeId
from .system import System


@dataclass(frozen=True)
class RefinementStats:
    """Instrumentation for a refinement run.

    Attributes:
        rounds: number of global passes (signature engine) or worklist
            pops (worklist engine).
        splits: how many times an existing class was split.
        classes: number of classes in the final labeling.
    """

    rounds: int
    splits: int
    classes: int


@dataclass(frozen=True)
class RefinementResult:
    """A similarity labeling plus instrumentation."""

    labeling: Labeling
    stats: RefinementStats


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _emit_completion(sink, engine: str, result: "RefinementResult", start: float) -> None:
    """Publish a :class:`RefinementCompleted` event when observed."""
    if sink is None:
        return
    sink.on_event(
        RefinementCompleted(
            engine=engine,
            rounds=result.stats.rounds,
            splits=result.stats.splits,
            classes=result.stats.classes,
            elapsed=time.perf_counter() - start,
        )
    )


def _initial_labeling(system: System, include_state: bool) -> Labeling:
    """The coarsest admissible starting point.

    Nodes are split by kind (processor vs variable) and -- when
    ``include_state`` -- by initial state; this is forced by environment
    condition (1), and starting from it merely skips Algorithm 1's first
    round of splits.
    """
    assignment: Dict[NodeId, Hashable] = {}
    for node in system.nodes:
        kind = "P" if system.network.is_processor(node) else "V"
        state = system.state0(node) if include_state else None
        assignment[node] = (kind, state)
    return Labeling(assignment)


def _finalize(system: System, labeling: Labeling) -> Labeling:
    """Deterministically rename labels to CanonicalLabel values."""
    return labeling.canonical(
        lambda node: "P" if system.network.is_processor(node) else "V"
    )


def _interned_initial_labels(system: System, include_state: bool) -> List[int]:
    """Initial labels as consecutive ints over the incidence node order.

    Processors come first (indices ``0..|P|-1``) then variables, matching
    :class:`~repro.core.network.IncidenceCache` numbering.  Label codes are
    assigned by sorted repr of the ``(kind, state)`` keys so the initial
    partition is identical to :func:`_initial_labeling`'s.
    """
    inc = system.network.incidence
    keys: List[Hashable] = []
    for node in inc.processors:
        keys.append(("P", system.state0(node) if include_state else None))
    for node in inc.variables:
        keys.append(("V", system.state0(node) if include_state else None))
    code: Dict[Hashable, int] = {}
    for key in sorted(set(keys), key=repr):
        code[key] = len(code)
    return [code[k] for k in keys]


# ----------------------------------------------------------------------
# engine 1: the paper's Algorithm 1, literally
# ----------------------------------------------------------------------


def algorithm1_literal(
    system: System,
    model: EnvironmentModel = EnvironmentModel.MULTISET,
    include_state: bool = True,
    sink=None,
) -> RefinementResult:
    """The paper's Algorithm 1 as written.

    ``Phi := trivial subsimilarity labeling;``
    ``do`` some x, y share a label but have different environments ``->``
    pick a new label; give it to every y in x's class whose environment
    differs from x's ``od``

    The loop invariant is that ``Phi`` stays a subsimilarity labeling
    (similar nodes are never separated, because nodes with different
    environments under a subsimilarity labeling are provably dissimilar);
    at termination no class contains two environments, so ``Phi`` is also
    a supersimilarity labeling (Theorem 4) -- hence the similarity
    labeling.
    """
    start = time.perf_counter()
    incidence = system.network.incidence
    assignment: Dict[NodeId, Hashable] = {
        n: l for n, l in _initial_labeling(system, include_state).items()
    }
    rounds = 0
    splits = 0
    fresh = 0
    while True:
        rounds += 1
        if sink is not None:
            sink.on_event(
                RefinementRound("literal", rounds, len(set(assignment.values())))
            )
        labeling = Labeling(assignment)
        sig = {
            node: environment_signature(
                system, node, labeling, model, include_state, incidence
            )
            for node in system.nodes
        }
        split_performed = False
        for block in labeling.blocks:
            members = sorted(block, key=repr)
            x = members[0]
            different = [y for y in members[1:] if sig[y] != sig[x]]
            if different:
                fresh += 1
                new_label = ("fresh", fresh)
                for y in different:
                    assignment[y] = new_label
                splits += 1
                split_performed = True
                break  # re-evaluate environments under the new labeling
        if not split_performed:
            break
    final = _finalize(system, Labeling(assignment))
    result = RefinementResult(final, RefinementStats(rounds, splits, len(final.labels)))
    _emit_completion(sink, "literal", result, start)
    return result


# ----------------------------------------------------------------------
# engine 2: iterated signature hashing
# ----------------------------------------------------------------------


def algorithm1_signatures(
    system: System,
    model: EnvironmentModel = EnvironmentModel.MULTISET,
    include_state: bool = True,
    sink=None,
) -> RefinementResult:
    """Global-round refinement: relabel all nodes by (label, signature).

    Because each node's new label embeds its old one, the partition is
    monotonically refined, so the number of classes is strictly increasing
    until the fixpoint; at most ``|P| + |V|`` rounds.
    """
    start = time.perf_counter()
    result = _signatures_interned(system, model, include_state, sink)
    _emit_completion(sink, "signatures", result, start)
    return result


def _signatures_interned(
    system: System, model: EnvironmentModel, include_state: bool, sink=None
) -> RefinementResult:
    """Cached fast path: interned int labels over incidence arrays.

    Per round, a processor's key is its label plus the label row of its
    named neighbors; a variable's key is its label plus per-name label
    counts (MULTISET) or label sets (SET).  Keys are interned to
    consecutive ints so the next round compares small ints only.
    """
    inc = system.network.incidence
    n_procs = inc.n_processors
    n_nodes = inc.n_nodes
    proc_rows = inc.proc_rows
    var_rows = inc.var_rows
    multiset = model is EnvironmentModel.MULTISET

    labels = _interned_initial_labels(system, include_state)
    n_classes = len(set(labels))
    rounds = 0
    splits = 0
    while True:
        rounds += 1
        code: Dict[Hashable, int] = {}
        new_labels: List[int] = [0] * n_nodes
        for i in range(n_procs):
            # Processor and variable keys cannot collide: the embedded old
            # label already separates the two kinds.
            key = (labels[i], tuple(labels[j] for j in proc_rows[i]))
            c = code.get(key)
            if c is None:
                c = code[key] = len(code)
            new_labels[i] = c
        for i in range(n_procs, n_nodes):
            per_name: List[Hashable] = []
            for procs in var_rows[i - n_procs]:
                got = sorted(labels[p] for p in procs)
                if multiset:
                    per_name.append(tuple(got))
                else:
                    per_name.append(tuple(sorted(set(got))))
            key = (labels[i], tuple(per_name))
            c = code.get(key)
            if c is None:
                c = code[key] = len(code)
            new_labels[i] = c
        new_classes = len(code)
        if sink is not None:
            sink.on_event(RefinementRound("signatures", rounds, new_classes))
        if new_classes == n_classes:
            break
        splits += new_classes - n_classes
        n_classes = new_classes
        labels = new_labels
    assignment = {inc.node_of(i): labels[i] for i in range(n_nodes)}
    final = _finalize(system, Labeling(assignment))
    return RefinementResult(final, RefinementStats(rounds, splits, len(final.labels)))


# ----------------------------------------------------------------------
# engine 3: worklist (Hopcroft / Paige-Tarjan style)
# ----------------------------------------------------------------------


def algorithm1_worklist(
    system: System,
    model: EnvironmentModel = EnvironmentModel.MULTISET,
    include_state: bool = True,
    sink=None,
) -> RefinementResult:
    """Worklist refinement in the style of [H71] / Paige-Tarjan.

    A worklist holds block indices whose creation may invalidate the
    stability of neighboring blocks.  Popping a *variable* block ``W``
    re-splits only the processor blocks with an edge into ``W`` (by which
    of their names point into ``W``); popping a *processor* block ``W``
    re-splits only the variable blocks adjacent to ``W`` (by per-name
    counts of neighbors in ``W`` for the MULTISET model, by per-name
    presence for the SET model).  All but the largest fragment of every
    split are enqueued, which yields the O(n log n) behavior of Theorem 5.

    A pop never scans block members that have no edge into ``W``:
    untouched members stay in place as the split remainder, so it costs
    O(edges incident to W), not O(size of the touched blocks).  Re-grouping
    whole blocks instead is quadratic on e.g. a fully-refining marked
    ring.

    A final stabilization check (one signature round) guards against the
    subtle incompleteness of pure smaller-half counting splits; in
    practice it never fires, and tests assert agreement with the other
    engines.

    The worklist engines report only a completion event (a worklist pop
    is too fine-grained to be a useful "round").
    """
    start = time.perf_counter()
    result = _worklist_interned(system, model, include_state)
    _emit_completion(sink, "worklist", result, start)
    return result


def _worklist_interned(
    system: System, model: EnvironmentModel, include_state: bool
) -> RefinementResult:
    """Cached fast path: int-indexed blocks over incidence arrays."""
    inc = system.network.incidence
    n_procs = inc.n_processors
    n_nodes = inc.n_nodes
    proc_rows = inc.proc_rows
    var_rows = inc.var_rows
    n_names = len(inc.names)
    multiset = model is EnvironmentModel.MULTISET

    init = _interned_initial_labels(system, include_state)
    by_label: Dict[int, Set[int]] = defaultdict(set)
    for i, label in enumerate(init):
        by_label[label].add(i)
    blocks: List[Set[int]] = [by_label[label] for label in sorted(by_label)]
    block_of: List[int] = [0] * n_nodes
    for idx, members in enumerate(blocks):
        for i in members:
            block_of[i] = idx

    worklist = deque(range(len(blocks)))
    queued = set(worklist)
    rounds = 0
    splits = 0

    def enqueue(idx: int) -> None:
        if idx not in queued:
            worklist.append(idx)
            queued.add(idx)

    def split_by(touched: Dict[int, Hashable], can_skip_largest: bool) -> None:
        """Re-split the blocks of the touched nodes by their keys.

        Nodes of a block that are *not* in ``touched`` implicitly share
        the "no edges into W" key and stay in place as the remainder, so
        the cost is O(len(touched)), independent of block sizes.

        When ``can_skip_largest`` holds, the largest resulting fragment is
        *not* enqueued unless the split block was already pending: a
        future splitter's effect on neighbors is determined by the old
        block plus all-but-one of its fragments (counts are additive, and
        a name maps into exactly one fragment), which is the smaller-half
        discipline behind Theorem 5's O(n log n) bound.  Presence-based
        (SET-model) keys of processor fragments are not recoverable that
        way, so those splits enqueue every fragment.
        """
        nonlocal splits
        by_block: Dict[int, Dict[Hashable, List[int]]] = {}
        for node, key in touched.items():
            by_block.setdefault(block_of[node], {}).setdefault(key, []).append(node)
        for b_idx, groups in by_block.items():
            block = blocks[b_idx]
            touched_count = sum(len(g) for g in groups.values())
            if len(groups) == 1 and touched_count == len(block):
                continue  # every member touched identically: stable
            was_queued = b_idx in queued
            fragments = sorted(
                groups.items(), key=lambda kv: (-len(kv[1]), repr(kv[0]))
            )
            if touched_count == len(block):
                # No untouched remainder: the largest fragment keeps the
                # old index.
                blocks[b_idx] = set(fragments[0][1])
                rest = fragments[1:]
            else:
                # The untouched remainder keeps the old index; every
                # touched group moves out.
                for group in groups.values():
                    block.difference_update(group)
                rest = fragments
            new_indices: List[int] = []
            for _key, members in rest:
                new_idx = len(blocks)
                blocks.append(set(members))
                for node in members:
                    block_of[node] = new_idx
                new_indices.append(new_idx)
                splits += 1
            parts = [(b_idx, len(blocks[b_idx]))] + [
                (idx, len(blocks[idx])) for idx in new_indices
            ]
            if can_skip_largest and not was_queued:
                parts.sort(key=lambda iv: -iv[1])
                parts = parts[1:]
            for idx, _size in parts:
                enqueue(idx)

    while worklist:
        w_idx = worklist.popleft()
        queued.discard(w_idx)
        rounds += 1
        w_members = blocks[w_idx]
        if not w_members:
            continue
        w_is_variable = next(iter(w_members)) >= n_procs

        if w_is_variable:
            # Key processors by the bitmask of their names mapping into W.
            # A name maps into exactly one fragment of a split variable
            # block, so the largest fragment may be skipped under MULTISET
            # -- but the resulting *processor* fragments act as SET-model
            # splitters of variables, where presence w.r.t. the skipped
            # fragment is not recoverable; be conservative there.
            proc_mask: Dict[int, int] = {}
            for v in w_members:
                rows = var_rows[v - n_procs]
                for pos in range(n_names):
                    bit = 1 << pos
                    for p in rows[pos]:
                        proc_mask[p] = proc_mask.get(p, 0) | bit
            split_by(proc_mask, can_skip_largest=multiset)
        else:
            # Key variables by per-name counts (MULTISET) or presence
            # (SET) of neighbors inside W.  Variable fragments split
            # processors by exclusive name membership, which is always
            # recoverable from all-but-one fragment.
            var_counts: Dict[int, List[int]] = {}
            for p in w_members:
                row = proc_rows[p]
                for pos in range(n_names):
                    v = row[pos]
                    counts = var_counts.get(v)
                    if counts is None:
                        counts = var_counts[v] = [0] * n_names
                    counts[pos] += 1
            if multiset:
                keys = {v: tuple(c) for v, c in var_counts.items()}
            else:
                keys = {v: tuple(x > 0 for x in c) for v, c in var_counts.items()}
            split_by(keys, can_skip_largest=True)

    # Safety net: confirm stability with one interned signature pass;
    # finish with the signature engine from scratch if anything still
    # splits (never observed; agreement tests would catch it).
    seen_keys: set = set()
    for i in range(n_procs):
        seen_keys.add((block_of[i], tuple(block_of[j] for j in proc_rows[i])))
    for i in range(n_procs, n_nodes):
        per_name = []
        for procs in var_rows[i - n_procs]:
            got = sorted(block_of[p] for p in procs)
            per_name.append(tuple(got) if multiset else tuple(sorted(set(got))))
        seen_keys.add((block_of[i], tuple(per_name)))
    if len(seen_keys) != len(blocks):  # pragma: no cover
        refined = _signatures_interned(system, model, include_state)
        return RefinementResult(
            refined.labeling,
            RefinementStats(rounds + refined.stats.rounds,
                            splits + refined.stats.splits,
                            refined.stats.classes),
        )

    assignment = {inc.node_of(i): block_of[i] for i in range(n_nodes)}
    final = _finalize(system, Labeling(assignment))
    return RefinementResult(final, RefinementStats(rounds, splits, len(final.labels)))


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------

ENGINES = {
    "literal": algorithm1_literal,
    "signatures": algorithm1_signatures,
    "worklist": algorithm1_worklist,
}


def compute_similarity_labeling(
    system: System,
    model: Optional[EnvironmentModel] = None,
    include_state: bool = True,
    engine: str = "worklist",
    sink=None,
) -> RefinementResult:
    """Compute the similarity labeling ``Theta`` of ``system``.

    Args:
        system: the system to label.  Its instruction set selects the
            environment model unless ``model`` overrides it.  Note that
            for instruction set L this computes the *Q-similarity*
            labeling of the given initial state; full L analysis goes
            through the relabel family (see :mod:`repro.core.selection`).
        model: override the environment model.
        include_state: drop environment condition (1) when False
            (Algorithm 3's structural first phase).
        engine: ``"worklist"`` (default), ``"signatures"`` or
            ``"literal"``.
        sink: optional event sink (:mod:`repro.obs`) receiving
            refinement-round and completion events.
    """
    if model is None:
        model = EnvironmentModel.for_instruction_set(system.instruction_set)
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}; pick from {sorted(ENGINES)}")
    return fn(system, model, include_state, sink=sink)

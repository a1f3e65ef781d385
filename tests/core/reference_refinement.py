"""Reference refinement engines: the oracle for the fast engines.

These are the straightforward node-id implementations of Algorithm 1's
signature and worklist strategies that :mod:`repro.core.refinement`
started from.  They re-derive every neighbor list through the
:class:`~repro.core.network.Network` accessors over a fresh incidence
index (``network.build_incidence()``), share only the initial partition
and the final renaming with the interned engines, and re-group whole
blocks per worklist pop (quadratic on a fully refining marked ring).  ``test_engine_agreement_random``
requires every engine's canonical labels to equal theirs bit-for-bit.
"""

from collections import defaultdict, deque
from typing import Dict, Hashable, List

from repro.core.environment import EnvironmentModel, environment_signature
from repro.core.labeling import Labeling
from repro.core.names import NodeId
from repro.core.refinement import (
    RefinementResult,
    RefinementStats,
    _finalize,
    _initial_labeling,
)
from repro.core.system import System


def signatures_reference(
    system: System, model: EnvironmentModel, include_state: bool
) -> RefinementResult:
    """Reference path: nested-tuple signatures via the Network accessors."""
    incidence = system.network.build_incidence()
    labeling = _initial_labeling(system, include_state)
    rounds = 0
    splits = 0
    while True:
        rounds += 1
        combined: Dict[NodeId, Hashable] = {}
        for node in system.nodes:
            combined[node] = (
                labeling[node],
                environment_signature(
                    system, node, labeling, model, include_state, incidence
                ),
            )
        # Intern the combined signatures as small integers for speed.
        intern: Dict[Hashable, int] = {}
        new_assignment: Dict[NodeId, int] = {}
        for node in system.nodes:
            key = combined[node]
            if key not in intern:
                intern[key] = len(intern)
            new_assignment[node] = intern[key]
        new_labeling = Labeling(new_assignment)
        new_classes = len(new_labeling.labels)
        old_classes = len(labeling.labels)
        if new_classes == old_classes:
            break
        splits += new_classes - old_classes
        labeling = new_labeling
    final = _finalize(system, labeling)
    return RefinementResult(final, RefinementStats(rounds, splits, len(final.labels)))


class _Partition:
    """Mutable block partition with split support (reference path)."""

    def __init__(self, nodes: List[NodeId], initial: Dict[NodeId, Hashable]) -> None:
        by_key: Dict[Hashable, List[NodeId]] = defaultdict(list)
        for node in nodes:
            by_key[initial[node]].append(node)
        self.blocks: List[List[NodeId]] = []
        self.block_of: Dict[NodeId, int] = {}
        for key in sorted(by_key, key=repr):
            idx = len(self.blocks)
            members = by_key[key]
            self.blocks.append(members)
            for node in members:
                self.block_of[node] = idx

    def split_block(self, idx: int, groups: Dict[Hashable, List[NodeId]]) -> List[int]:
        """Replace block ``idx`` by the given groups (a partition of it).

        The largest group keeps the old index; the rest get fresh indices.
        Returns the list of fresh indices (the "smaller halves").
        """
        ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), repr(kv[0])))
        keep_key, keep_members = ordered[0]
        self.blocks[idx] = keep_members
        fresh: List[int] = []
        for _key, members in ordered[1:]:
            new_idx = len(self.blocks)
            self.blocks.append(members)
            for node in members:
                self.block_of[node] = new_idx
            fresh.append(new_idx)
        return fresh


def worklist_reference(
    system: System, model: EnvironmentModel, include_state: bool
) -> RefinementResult:
    """Reference path: node-id blocks, whole-block regrouping per pop."""
    net = system.network
    nodes = list(system.nodes)
    init = {n: l for n, l in _initial_labeling(system, include_state).items()}
    part = _Partition(nodes, init)

    rounds = 0
    splits = 0

    worklist = deque(range(len(part.blocks)))
    queued = set(worklist)

    def enqueue(idx: int) -> None:
        if idx not in queued:
            worklist.append(idx)
            queued.add(idx)

    while worklist:
        w_idx = worklist.popleft()
        queued.discard(w_idx)
        rounds += 1
        w_members = list(part.blocks[w_idx])
        if not w_members:
            continue
        w_is_variable = net.is_variable(w_members[0])

        if w_is_variable:
            # Re-split processor blocks by which names map into W.
            w_set = set(w_members)
            touched: Dict[int, List[NodeId]] = defaultdict(list)
            for v in w_members:
                for p, _name in net.neighbors_of_variable(v):
                    touched[part.block_of[p]].append(p)
            for b_idx, _procs in list(touched.items()):
                members = part.blocks[b_idx]
                groups: Dict[Hashable, List[NodeId]] = defaultdict(list)
                for p in members:
                    key = tuple(
                        name for name in net.names if net.n_nbr(p, name) in w_set
                    )
                    groups[key].append(p)
                if len(groups) > 1:
                    splits += len(groups) - 1
                    for fresh_idx in part.split_block(b_idx, groups):
                        enqueue(fresh_idx)
                    # The kept fragment changed membership; it may need to
                    # split others again.
                    enqueue(b_idx)
        else:
            # Re-split variable blocks by per-name counts of neighbors in W.
            w_set = set(w_members)
            touched_vars: Dict[int, set] = defaultdict(set)
            for p in w_members:
                for name in net.names:
                    v = net.n_nbr(p, name)
                    touched_vars[part.block_of[v]].add(v)
            for b_idx in list(touched_vars):
                members = part.blocks[b_idx]
                groups = defaultdict(list)
                for v in members:
                    per_name = []
                    for name in net.names:
                        in_w = [
                            p
                            for p in net.n_neighbors_of_variable(v, name)
                            if p in w_set
                        ]
                        if model is EnvironmentModel.MULTISET:
                            per_name.append(len(in_w))
                        else:
                            per_name.append(bool(in_w))
                    groups[tuple(per_name)].append(v)
                if len(groups) > 1:
                    splits += len(groups) - 1
                    for fresh_idx in part.split_block(b_idx, groups):
                        enqueue(fresh_idx)
                    enqueue(b_idx)

    labeling = Labeling({n: part.block_of[n] for n in nodes})

    # Safety net: confirm stability with one signature pass; finish with the
    # signature engine from this partition if anything still splits.
    incidence = net.build_incidence()
    sig_round = {
        node: (
            labeling[node],
            environment_signature(
                system, node, labeling, model, include_state, incidence
            ),
        )
        for node in nodes
    }
    if len(set(sig_round.values())) != len(labeling.labels):  # pragma: no cover
        refined = signatures_reference(system, model, include_state)
        return RefinementResult(
            refined.labeling,
            RefinementStats(rounds + refined.stats.rounds,
                            splits + refined.stats.splits,
                            refined.stats.classes),
        )

    final = _finalize(system, labeling)
    return RefinementResult(final, RefinementStats(rounds, splits, len(final.labels)))


# ----------------------------------------------------------------------

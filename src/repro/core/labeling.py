"""Labelings of system nodes (paper, Section 3).

A *labeling* assigns a label to every node of a system.  The paper works
with three kinds:

* a **supersimilarity labeling**: nodes with the same label are similar;
* a **subsimilarity labeling**: similar nodes have the same label;
* a **similarity labeling**: both at once -- unique up to isomorphism.

:class:`Labeling` is a thin immutable wrapper around a ``node -> label``
mapping with the partition algebra needed by the refinement algorithms
(refines / coarsens / blocks / restriction / canonical renaming).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Tuple

from ..exceptions import LabelingError
from .names import CanonicalLabel, NodeId

Label = Hashable


class Labeling:
    """An immutable assignment of labels to nodes."""

    def __init__(self, assignment: Mapping[NodeId, Label]) -> None:
        if not assignment:
            raise LabelingError("a labeling must cover at least one node")
        self._assignment: Dict[NodeId, Label] = dict(assignment)

    # ------------------------------------------------------------------

    def __getitem__(self, node: NodeId) -> Label:
        try:
            return self._assignment[node]
        except KeyError:
            raise LabelingError(f"node {node!r} is not labeled") from None

    def __contains__(self, node: NodeId) -> bool:
        return node in self._assignment

    def __iter__(self):
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self):
        return self._assignment.items()

    @cached_property
    def nodes(self) -> Tuple[NodeId, ...]:
        return tuple(sorted(self._assignment, key=repr))

    @cached_property
    def labels(self) -> FrozenSet[Label]:
        """All labels in use."""
        return frozenset(self._assignment.values())

    # ------------------------------------------------------------------
    # partition view
    # ------------------------------------------------------------------

    @cached_property
    def blocks(self) -> Tuple[FrozenSet[NodeId], ...]:
        """The partition induced by the labeling, deterministically ordered."""
        by_label: Dict[Label, set] = {}
        for node, label in self._assignment.items():
            by_label.setdefault(label, set()).add(node)
        return tuple(
            frozenset(block)
            for block in sorted(
                by_label.values(), key=lambda b: min(repr(n) for n in b)
            )
        )

    def block_of(self, node: NodeId) -> FrozenSet[NodeId]:
        """All nodes sharing ``node``'s label."""
        label = self[node]
        return frozenset(n for n, l in self._assignment.items() if l == label)

    def class_size(self, label: Label) -> int:
        return sum(1 for l in self._assignment.values() if l == label)

    @cached_property
    def uniquely_labeled_nodes(self) -> Tuple[NodeId, ...]:
        """Nodes whose label is shared with no other node."""
        counts: Dict[Label, int] = {}
        for label in self._assignment.values():
            counts[label] = counts.get(label, 0) + 1
        return tuple(
            node for node in self.nodes if counts[self._assignment[node]] == 1
        )

    def every_node_is_paired(self, nodes: Optional[Iterable[NodeId]] = None) -> bool:
        """True if every node (of ``nodes``, default all) shares its label.

        With ``nodes`` = the processors of a system, this is exactly the
        hypothesis of Theorem 3: a supersimilarity labeling in which every
        processor has the same label as some other processor rules out a
        selection algorithm.
        """
        pool = list(nodes) if nodes is not None else list(self.nodes)
        counts: Dict[Label, int] = {}
        for node in pool:
            label = self[node]
            counts[label] = counts.get(label, 0) + 1
        return all(counts[self[node]] >= 2 for node in pool)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def refines(self, other: "Labeling") -> bool:
        """True if every block of ``self`` lies inside a block of ``other``.

        ``theta.refines(psi)`` means ``psi`` is a coarsening: whenever
        ``self`` distinguishes two nodes, so might ``other``, but never
        the reverse.  A labeling is a *subsimilarity* labeling iff the
        similarity labeling refines it, and a *supersimilarity* labeling
        iff it refines the similarity labeling.
        """
        if set(self._assignment) != set(other._assignment):
            raise LabelingError("labelings cover different node sets")
        rep: Dict[Label, Label] = {}
        for node, label in self._assignment.items():
            other_label = other[node]
            if label in rep:
                if rep[label] != other_label:
                    return False
            else:
                rep[label] = other_label
        return True

    def same_partition(self, other: "Labeling") -> bool:
        """True if both labelings induce the same partition of nodes."""
        return self.refines(other) and other.refines(self)

    def partition_shape(self, order: Tuple[NodeId, ...]) -> Tuple[int, ...]:
        """The partition as a hashable key: each node's block number, in
        ``order``, with blocks numbered by first occurrence.

        ``order`` must list exactly this labeling's nodes.  For one fixed
        ``order``, two labelings have equal shapes iff
        :meth:`same_partition` holds, so a set of shapes replaces a
        pairwise scan.
        """
        if len(order) != len(self._assignment) or not all(
            node in self._assignment for node in order
        ):
            raise LabelingError("labelings cover different node sets")
        first: Dict[Label, int] = {}
        return tuple(
            first.setdefault(self._assignment[node], len(first)) for node in order
        )

    def meet(self, other: "Labeling") -> "Labeling":
        """The coarsest common refinement (pairwise label product)."""
        if set(self._assignment) != set(other._assignment):
            raise LabelingError("labelings cover different node sets")
        return Labeling(
            {n: (self._assignment[n], other[n]) for n in self._assignment}
        )

    def restrict(self, nodes: Iterable[NodeId]) -> "Labeling":
        """The labeling restricted to a subset of nodes.

        Used to read a family member's labeling off the union system's
        labeling (Section 5).
        """
        nodes = list(nodes)
        missing = [n for n in nodes if n not in self._assignment]
        if missing:
            raise LabelingError(f"nodes not labeled: {missing!r}")
        return Labeling({n: self._assignment[n] for n in nodes})

    def relabel_nodes(self, rename) -> "Labeling":
        """A copy with node ids passed through callable ``rename``."""
        return Labeling({rename(n): l for n, l in self._assignment.items()})

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def trivial_subsimilarity(nodes: Iterable[NodeId], label: Label = 0) -> "Labeling":
        """All nodes share one label -- the paper's trivial subsimilarity
        labeling, the starting point of Algorithm 1."""
        return Labeling({n: label for n in nodes})

    @staticmethod
    def trivial_supersimilarity(nodes: Iterable[NodeId]) -> "Labeling":
        """Every node uniquely labeled -- trivially supersimilar."""
        return Labeling({n: ("unique", n) for n in nodes})

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[NodeId]]) -> "Labeling":
        assignment: Dict[NodeId, Label] = {}
        for i, block in enumerate(blocks):
            for node in block:
                if node in assignment:
                    raise LabelingError(f"node {node!r} appears in two blocks")
                assignment[node] = i
        return Labeling(assignment)

    def canonical(self, kind_of) -> "Labeling":
        """Rename labels to :class:`CanonicalLabel` values.

        ``kind_of(node)`` must return ``"P"`` or ``"V"``.  Classes are
        numbered in order of their smallest member's ``repr`` so that the
        renaming is deterministic.  Note: canonical *identity across
        systems* is provided by the refinement algorithms themselves (they
        derive labels from refinement history); this method only provides
        deterministic names within one labeling.
        """
        order: Dict[Label, NodeId] = {}
        for node in self.nodes:
            label = self._assignment[node]
            if label not in order or repr(node) < repr(order[label]):
                order[label] = node
        numbering: Dict[str, int] = {"P": 0, "V": 0}
        renamed: Dict[Label, CanonicalLabel] = {}
        for label, _witness in sorted(order.items(), key=lambda kv: repr(kv[1])):
            witness_kind = kind_of(_witness)
            renamed[label] = CanonicalLabel(witness_kind, numbering[witness_kind])
            numbering[witness_kind] += 1
        return Labeling({n: renamed[l] for n, l in self._assignment.items()})

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._assignment.items(), key=lambda kv: repr(kv))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Labeling({len(self)} nodes, {len(self.labels)} labels)"


def join(a: "Labeling", b: "Labeling") -> "Labeling":
    """The finest common coarsening of two labelings.

    Blocks are merged transitively whenever they share a node's label in
    either labeling (union-find over the disjoint label spaces).  Dual to
    :meth:`Labeling.meet`.  Theory hook: labelings satisfying Theorem 4's
    environment condition are closed under join, which is exactly why a
    *coarsest* one (the similarity labeling) exists; the property tests
    check that closure on random systems.
    """
    if set(a.nodes) != set(b.nodes):
        raise LabelingError("labelings cover different node sets")
    parent: Dict[Hashable, Hashable] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for node in a.nodes:
        ka, kb = ("A", a[node]), ("B", b[node])
        parent.setdefault(ka, ka)
        parent.setdefault(kb, kb)
        union(ka, kb)
    return Labeling({node: find(("A", a[node])) for node in a.nodes})

"""Quotient systems and canonical forms.

Section 3 states that the similarity labeling "is unique up to
isomorphism".  This module makes that claim operational:

* :func:`quotient_system` collapses a system along its similarity
  labeling: one node per class, with multiplicity annotations.  The
  quotient is the finite syntactic object the labeling *is*; two systems
  have isomorphic similarity structure iff their quotients are equal
  after canonical renaming.
* :func:`canonical_form` produces a hashable canonical description of a
  system up to isomorphism (class-graph plus a canonicalized concrete
  graph), so :func:`are_isomorphic` can decide system isomorphism using
  the automorphism matcher.

The quotient is also a compression device: analyses that only depend on
Theta (selection decisions, table generation for Algorithm 2) can run on
the quotient of a large symmetric system instead of the system itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from .automorphism import _find_in_context, _MatcherContext
from .labeling import Labeling
from .names import Name, State
from .refinement import compute_similarity_labeling
from .system import System


@dataclass(frozen=True)
class QuotientEdge:
    """One class-level edge of the quotient.

    ``count`` is the number of ``name``-edges from processors of class
    ``plabel`` into each single variable of class ``vlabel`` -- i.e.
    ``neighborhood_size(name, plabel, vlabel)``.
    """

    plabel: Hashable
    name: Name
    vlabel: Hashable
    count: int


@dataclass(frozen=True)
class QuotientSystem:
    """A system collapsed along a similarity labeling.

    Attributes:
        pclasses: processor class labels with their sizes and state.
        vclasses: variable class labels with their sizes and state.
        edges: the class-level named edges with multiplicities.
    """

    pclasses: Tuple[Tuple[Hashable, int, State], ...]
    vclasses: Tuple[Tuple[Hashable, int, State], ...]
    edges: Tuple[QuotientEdge, ...]

    @property
    def processor_class_count(self) -> int:
        return len(self.pclasses)

    @property
    def variable_class_count(self) -> int:
        return len(self.vclasses)

    def class_size(self, label: Hashable) -> int:
        for lbl, size, _state in self.pclasses + self.vclasses:
            if lbl == label:
                return size
        raise KeyError(label)

    def selection_possible(self) -> bool:
        """Theorem 3 read off the quotient: some processor class of size 1."""
        return any(size == 1 for _l, size, _s in self.pclasses)


def quotient_system(
    system: System, theta: Optional[Labeling] = None
) -> QuotientSystem:
    """Collapse ``system`` along ``theta`` (default: its Theta)."""
    if theta is None:
        theta = compute_similarity_labeling(system).labeling
    net = system.network

    def classes_of(nodes):
        acc: Dict[Hashable, Tuple[int, State]] = {}
        for node in nodes:
            label = theta[node]
            size, state = acc.get(label, (0, system.state0(node)))
            acc[label] = (size + 1, state)
        return tuple(
            (label, size, state)
            for label, (size, state) in sorted(acc.items(), key=lambda kv: repr(kv[0]))
        )

    pclasses = classes_of(net.processors)
    vclasses = classes_of(net.variables)

    # Read class-level edges off the shared incidence cache: per variable
    # representative, the per-name neighbor lists are already grouped.
    incidence = net.incidence
    edge_counts: Dict[Tuple[Hashable, Name, Hashable], int] = {}
    counted_vars: set = set()
    for v in net.variables:
        beta = theta[v]
        if beta in counted_vars:
            continue  # environment-respecting: any representative works
        counted_vars.add(beta)
        for name, procs in zip(incidence.names, incidence.var_name_neighbors[v]):
            for proc in procs:
                key = (theta[proc], name, beta)
                edge_counts[key] = edge_counts.get(key, 0) + 1
    edges = tuple(
        QuotientEdge(plabel, name, vlabel, count)
        for (plabel, name, vlabel), count in sorted(
            edge_counts.items(), key=lambda kv: repr(kv[0])
        )
    )
    return QuotientSystem(pclasses, vclasses, edges)


def similarity_structures_equal(a: System, b: System) -> bool:
    """Do two systems have identical similarity structure?

    True iff their quotients coincide (classes with equal sizes, states
    and class-level edges).  Canonical labels make quotients directly
    comparable only when class numbering agrees, so we compare via the
    union system: compute Theta of the disjoint union and check it pairs
    the two quotients class-for-class.
    """
    qa = quotient_system(a)
    qb = quotient_system(b)
    if (qa.processor_class_count, qa.variable_class_count) != (
        qb.processor_class_count,
        qb.variable_class_count,
    ):
        return False
    union = a.disjoint_union(b, tags=("A", "B"))
    theta = compute_similarity_labeling(union).labeling
    # Class-for-class pairing: every union class must contain nodes of
    # both systems in proportional counts (sizes may differ; structure
    # classes must coincide).  Proportionality means every class holds
    # the two systems in the same ratio as their total node counts --
    # e.g. an anonymous 4-ring and an anonymous 8-ring share one
    # processor class (4 vs 8 members) and one variable class (4 vs 8),
    # both in the global 1:2 ratio.  A one-sided class (b_count == 0 or
    # a_count == 0) always fails, since both totals are positive.
    a_total = len(a.nodes)
    b_total = len(b.nodes)
    for block in theta.blocks:
        a_count = sum(1 for tag, _node in block if tag == "A")
        b_count = len(block) - a_count
        if a_count * b_total != b_count * a_total:
            return False
    return True


def canonical_form(system: System) -> Hashable:
    """A hashable isomorphism invariant of the system.

    CanonicalLabel codes depend on node identifiers, so the raw quotient
    is *not* invariant under renaming.  This form renumbers the quotient
    classes by refinement over invariant data only: start each class from
    ``(kind, initial state, size)`` and iterate with the multiset of its
    quotient edges expressed in current class colors.  The result is the
    multiset of stable class colors plus the edge multiset in those
    colors -- equal for isomorphic systems, and complete enough to
    distinguish everything the similarity structure distinguishes.

    Used as the fast filter inside :func:`are_isomorphic`; the exact
    decision is made by the automorphism matcher.  Callers that test one
    system many times read it through :attr:`System.iso_form
    <repro.core.system.System.iso_form>`, which computes it once.
    """
    theta = compute_similarity_labeling(system).labeling
    q = quotient_system(system, theta)

    color: Dict[Hashable, Hashable] = {}
    for label, size, state in q.pclasses:
        color[label] = ("P", state, size)
    for label, size, state in q.vclasses:
        color[label] = ("V", state, size)

    while True:
        new_color: Dict[Hashable, Hashable] = {}
        for label in color:
            incident = tuple(
                sorted(
                    (
                        ("out", e.name, repr(color[e.vlabel]), e.count)
                        for e in q.edges
                        if e.plabel == label
                    )
                )
                + sorted(
                    (
                        ("in", e.name, repr(color[e.plabel]), e.count)
                        for e in q.edges
                        if e.vlabel == label
                    )
                )
            )
            new_color[label] = (color[label], incident)
        if len(set(map(repr, new_color.values()))) == len(
            set(map(repr, color.values()))
        ):
            break
        # Intern: canonical small colors, keyed only by invariant content
        # (sorted by the repr of the combined signature, which contains no
        # node identifiers).
        intern: Dict[str, int] = {}
        for signature in sorted(repr(v) for v in new_color.values()):
            if signature not in intern:
                intern[signature] = len(intern)
        color = {label: ("c", intern[repr(new_color[label])]) for label in color}

    class_multiset = tuple(sorted(repr(c) for c in color.values()))
    edge_multiset = tuple(
        sorted(
            repr((e.name, color[e.plabel], color[e.vlabel], e.count))
            for e in q.edges
        )
    )
    return (class_multiset, edge_multiset)


def are_isomorphic(a: System, b: System) -> bool:
    """Exact isomorphism of systems (structure, names, initial states).

    Decided with the automorphism matcher on the disjoint union: ``a`` and
    ``b`` are isomorphic iff the union has an automorphism swapping the
    two sides, which we find by pinning one processor of ``a`` to each
    candidate processor of ``b``; all candidates share one matcher
    context, so the union is refined once.  The side-swap check covers
    both node kinds: every processor *and* every edge-connected variable
    of ``a`` must land on the ``b`` side.  Isolated variables (declared
    without edges) are matched separately by their initial-state
    multisets, since any state-preserving bijection between them extends
    an automorphism.

    Disconnected systems are matched component-by-component: pinning one
    processor only forces its own component across the union, so a
    non-swapping automorphism (other components mapped to themselves)
    would defeat the side-swap check and report a false negative.
    Components decompose the question soundly because any isomorphism
    restricts to a bijection between components.
    """
    if set(a.names) != set(b.names):
        return False
    if len(a.processors) != len(b.processors) or len(a.variables) != len(b.variables):
        return False
    if not a.processors:
        # Processor-free systems have no edges at all, so any
        # state-preserving bijection on variables is an isomorphism.
        return Counter(a.state0(v) for v in a.variables) == Counter(
            b.state0(v) for v in b.variables
        )
    if a.iso_form != b.iso_form:
        return False
    # Isolated variables never appear in the edge-forced part of an
    # automorphism; they pair up iff their state multisets agree.
    isolated_a = [v for v in a.variables if not a.network.neighbors_of_variable(v)]
    isolated_b = [v for v in b.variables if not b.network.neighbors_of_variable(v)]
    if Counter(a.state0(v) for v in isolated_a) != Counter(
        b.state0(v) for v in isolated_b
    ):
        return False
    components_a = a.components
    if len(components_a) > 1:
        # Greedy multiset matching is exact here: isomorphism is an
        # equivalence, so any component pairing that works locally
        # extends to a global one.  ``remaining`` is a fresh list: the
        # matched components are deleted from it, and ``b.components``
        # is shared by every later test of ``b``.
        remaining = list(b.components)
        if len(components_a) != len(remaining):
            return False
        for comp_a in components_a:
            for i, comp_b in enumerate(remaining):
                if are_isomorphic(comp_a, comp_b):
                    del remaining[i]
                    break
            else:
                return False
        return True
    connected_a = [v for v in a.variables if a.network.neighbors_of_variable(v)]
    union = a.disjoint_union(b, tags=("A", "B"))
    ctx = _MatcherContext(union, ignore_state=False)
    anchor = ("A", a.processors[0])
    for candidate in b.processors:
        auto = _find_in_context(ctx, {anchor: ("B", candidate)})
        if auto is None:
            continue
        # The automorphism must swap the sides wholesale -- processors
        # and connected variables alike.
        if all(auto[("A", p)][0] == "B" for p in a.processors) and all(
            auto[("A", v)][0] == "B" for v in connected_a
        ):
            return True
    return False

"""Families of systems and the ELITE construction (paper, Section 5).

A *family* is a set of systems sharing the instruction set, schedule
types, and NAMES; members differ in topology and initial states.  A
*homogeneous* family fixes the topology too, so members differ only in
initial states.  One program runs on every member (processors cannot tell
which member they inhabit), so a *selection algorithm for a family* must
select exactly one processor in whichever member it finds itself.

The similarity labeling of a family is the similarity labeling of the
disjoint **union** of its members; restricting it to a member gives that
member's *version* labeling, with labels canonically comparable across
members.  Theorem 7: a family in Q has a selection algorithm iff there is
a label set ELITE such that each member has exactly one processor labeled
in ELITE.

This module also enumerates the **relabel family** ``H`` of an L system:
the homogeneous family of all initial states reachable by executing the
``relabel`` locking protocol (each variable hands out lock-order counts
0..deg-1 to its edges), which is how Theorem 9 reduces selection in L to
family selection in Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..exceptions import FamilyError, SelectionError
from .labeling import Labeling
from .names import NodeId
from .refinement import compute_similarity_labeling
from .system import InstructionSet, System, union_of_systems


class Family:
    """An immutable family of systems over common NAMES and model."""

    def __init__(self, systems: Sequence[System]) -> None:
        systems = tuple(systems)
        if not systems:
            raise FamilyError("a family needs at least one member")
        first = systems[0]
        for s in systems[1:]:
            if set(s.names) != set(first.names):
                raise FamilyError("family members must share NAMES")
            # Compare by equality, not identity: parametric generators
            # build each member independently, so equal-but-distinct
            # instruction-set/schedule objects must be accepted.
            if s.instruction_set != first.instruction_set:
                raise FamilyError("family members must share the instruction set")
            if s.schedule_class != first.schedule_class:
                raise FamilyError("family members must share the schedule class")
        self._systems = systems

    @property
    def members(self) -> Tuple[System, ...]:
        return self._systems

    def __len__(self) -> int:
        return len(self._systems)

    @property
    def is_homogeneous(self) -> bool:
        """Same topology everywhere (members differ only in state_0)."""
        first_net = self._systems[0].network
        return all(s.network == first_net for s in self._systems[1:])

    # ------------------------------------------------------------------

    def union_system(self) -> System:
        """The (unconnected) union system whose labeling defines the
        family's similarity labeling."""
        return union_of_systems(self._systems)

    def similarity_labeling(self, include_state: bool = True) -> Labeling:
        """Similarity labeling of the union system.

        Nodes of member ``i`` appear as ``(i, node)``.
        """
        union = self.union_system()
        return compute_similarity_labeling(union, include_state=include_state).labeling

    def member_labelings(self, include_state: bool = True) -> Tuple[Labeling, ...]:
        """Each member's *version*: the union labeling restricted to the
        member and renamed back to the member's own node ids.

        Labels are shared across versions (they come from one union
        labeling), so ``version[p] in elite`` is meaningful family-wide.
        """
        union_labeling = self.similarity_labeling(include_state)
        versions = []
        for idx, member in enumerate(self._systems):
            restricted = union_labeling.restrict(
                [(idx, node) for node in member.nodes]
            )
            versions.append(restricted.relabel_nodes(lambda tagged: tagged[1]))
        return tuple(versions)

    # ------------------------------------------------------------------
    # Theorem 7
    # ------------------------------------------------------------------

    def elite(self) -> Optional[FrozenSet[Hashable]]:
        """A set ELITE of processor labels with exactly one occurrence per
        member, or None if none exists (Theorem 7's criterion).

        Solved exactly (exact cover) rather than greedily, so that the
        decision is complete for arbitrary families -- the greedy loop of
        Theorem 9 is additionally available as
        :func:`elite_by_theorem9_greedy` and is guaranteed to work under
        that theorem's hypothesis.
        """
        # Imported lazily: repro.algorithms packages the runnable programs,
        # which themselves import this module.
        from ..algorithms.exact_cover import exact_one_per_group

        versions = self.member_labelings()
        groups: Dict[int, Dict[Hashable, int]] = {}
        for idx, (member, version) in enumerate(zip(self._systems, versions)):
            counts: Dict[Hashable, int] = {}
            for p in member.processors:
                counts[version[p]] = counts.get(version[p], 0) + 1
            groups[idx] = counts
        return exact_one_per_group(groups)

    def has_selection_algorithm(self) -> bool:
        """Theorem 7: decide family selection for instruction set Q."""
        return self.elite() is not None


def unique_versions(
    versions: Sequence[Labeling],
    processors: Sequence[NodeId],
) -> List[Labeling]:
    """``versions`` without duplicates, first occurrences in order.

    Two versions are duplicates when they induce the same partition and
    give every processor the same label.  Each version is keyed by its
    :meth:`~repro.core.labeling.Labeling.partition_shape` over the first
    version's node order plus its processor labels, so one set lookup
    replaces a scan over every earlier version.

    Raises:
        LabelingError: if the versions cover different node sets.
    """
    order = tuple(versions[0]) if versions else ()
    kept: List[Labeling] = []
    seen: set = set()
    for v in versions:
        key = (v.partition_shape(order), tuple(v[p] for p in processors))
        if key not in seen:
            seen.add(key)
            kept.append(v)
    return kept


def elite_by_theorem9_greedy(
    versions: Sequence[Labeling],
    processors: Sequence[NodeId],
) -> FrozenSet[Hashable]:
    """The greedy ELITE construction from the proof of Theorem 9.

    ``versions`` are similarity labelings of the members of a homogeneous
    family, over the common processor set ``processors``; duplicates are
    dropped first (:func:`unique_versions`).  Repeatedly pick a version
    none of whose processor labels is in ELITE, pick one of its uniquely
    labeled processors, and add that label.

    Raises:
        SelectionError: if some pending version has no uniquely labeled
            processor -- then (Theorem 3 via Theorem 2) the family has no
            selection algorithm.
    """
    elite: set = set()
    # A version is pending while none of its processor labels is in
    # ELITE.  ELITE only grows, so each added label just filters the
    # pending list instead of rescanning every version.
    pending = [
        (v, {v[p] for p in processors})
        for v in unique_versions(versions, processors)
    ]
    while pending:
        psi = pending[0][0]
        uniquely = [
            p
            for p in processors
            if sum(1 for q in processors if psi[q] == psi[p]) == 1
        ]
        if not uniquely:
            raise SelectionError(
                "a version labels every processor non-uniquely; "
                "no selection algorithm exists for this family"
            )
        label = psi[sorted(uniquely, key=repr)[0]]
        elite.add(label)
        pending = [(v, labels) for v, labels in pending if label not in labels]
    return frozenset(elite)


def single_mark_family(
    network,
    processors: Optional[Sequence[NodeId]] = None,
    mark_state: Hashable = 1,
    instruction_set: InstructionSet = InstructionSet.Q,
    schedule_class=None,
) -> Family:
    """The homogeneous family of single-processor markings of a network.

    One member per processor in ``processors`` (default: all of them),
    with that processor's initial state set to ``mark_state`` and every
    other node blank.  All members share the *same* ``network`` object, so
    batch analyses (:func:`repro.perf.batch_similarity`) reuse one
    incidence cache across the whole family; this is also the standard
    workload of the ``refinement`` bench's batch run ("the n-ring family").
    """
    from .system import ScheduleClass

    if schedule_class is None:
        schedule_class = ScheduleClass.FAIR
    chosen = tuple(processors) if processors is not None else network.processors
    if not chosen:
        raise FamilyError("a single-mark family needs at least one processor")
    if len(set(chosen)) != len(chosen):
        dupes = sorted(
            {repr(p) for p in chosen if sum(1 for q in chosen if q == p) > 1}
        )
        raise FamilyError(
            f"single-mark processors must be distinct; duplicated: {dupes}"
        )
    unknown = [p for p in chosen if p not in set(network.processors)]
    if unknown:
        raise FamilyError(f"not processors of this network: {unknown!r}")
    members = [
        System(network, {p: mark_state}, instruction_set, schedule_class)
        for p in chosen
    ]
    return Family(members)


# ----------------------------------------------------------------------
# The relabel family H of an L system
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelabeledState:
    """Processor state after executing ``relabel`` (Section 5).

    The processor keeps its original initial state plus, for each name, the
    count it read when it locked that name's variable (its position in the
    variable's lock order).
    """

    original: Hashable
    counts: Tuple[Tuple[Hashable, int], ...]  # sorted (name, count) pairs

    def count_for(self, name: Hashable) -> int:
        for n, c in self.counts:
            if n == name:
                return c
        raise KeyError(name)


def relabel_family(system: System) -> Family:
    """Enumerate ``H``: every system that could be produced by executing
    ``relabel`` on ``system``.

    ``relabel`` makes each processor lock each of its named variables,
    read the lock count, increment it, and unlock.  Per variable, the
    edges incident to it receive the distinct counts ``0..deg-1`` in lock
    order; because a processor unlocks each variable before touching the
    next, *every* combination of per-variable edge orders is reachable
    under some fair schedule.  ``H`` is therefore the product of the
    per-variable edge permutations, deduplicated by resulting state.

    Variables end in a common state (their final count ``deg``), so
    members of ``H`` differ only in processor states: a homogeneous
    family, as required by Theorem 9.
    """
    if not system.instruction_set.has_locks:
        raise FamilyError("relabel requires a locking instruction set (L or L2)")
    net = system.network
    if not net.processors:
        raise FamilyError(
            "the relabel family of a processor-free network is empty; "
            "relabel needs at least one processor"
        )
    per_variable_orders: List[List[Tuple[Tuple[NodeId, Hashable], ...]]] = []
    variables = list(net.variables)
    for v in variables:
        edges = net.neighbors_of_variable(v)
        per_variable_orders.append([tuple(p) for p in permutations(edges)])

    members: List[System] = []
    seen_states: set = set()
    for combo in product(*per_variable_orders):
        # combo[i] is the lock order of edges at variables[i]
        counts: Dict[Tuple[NodeId, Hashable], int] = {}
        for v_idx, order in enumerate(combo):
            for position, (proc, name) in enumerate(order):
                counts[(proc, name)] = position
        member = _member_from_counts(system, counts)
        key = tuple(sorted(member.initial_state.items(), key=lambda kv: repr(kv[0])))
        if key in seen_states:
            continue
        seen_states.add(key)
        members.append(member)
    return Family(members)


# ----------------------------------------------------------------------
# Symbolic topology families (parametric verification substrate)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyFamily:
    """A symbolic topology family: one object, any size on demand.

    Where :class:`Family` is a *finite tuple* of concrete systems, a
    ``TopologyFamily`` is the *function* ``n -> system`` behind
    statements like "every unmarked ring" or "DP-n for all n": the
    parametric layer (:mod:`repro.analysis.parametric`) instantiates it
    at increasing sizes until the orbit/class structure stabilizes and
    then reasons about all larger members at once.

    The description is purely declarative (a frozen record of topology
    kind, model, marking, and admissible sizes) so family identity can
    be fingerprinted via :func:`repro.core.encoding.encode_value` and
    carried verbatim in JSON reports.

    Attributes:
        name: registry key (``"ring"``, ``"dp"``, ``"marked-ring"``...).
        description: one-line human description.
        topology: scenario topology kind: ``"ring"``, ``"star"`` or
            ``"dining"``.
        model: instruction set the members run.
        min_size: smallest admissible ``n``.
        step: admissible sizes are ``min_size, min_size+step, ...``
            (DP' needs even tables, so its step is 2).
        period: number of consecutive admissible sizes that may differ
            structurally before the pattern repeats -- a marked ring
            alternates with the parity of ``n`` (even rings have a
            singleton antipode class), so its period is 2; fully
            symmetric families have period 1.  Cutoff detection
            compares size ``n`` with ``n + period * step``.
        alternating: dining only -- alternate fork orientation (DP').
        marked: mark the first processor (initial state 1, rest blank).
        program: scenario program the members run under exploration.
    """

    name: str
    description: str
    topology: str
    model: InstructionSet = InstructionSet.Q
    min_size: int = 2
    step: int = 1
    period: int = 1
    alternating: bool = False
    marked: bool = False
    program: str = "random"

    def admissible(self, n: int) -> bool:
        """Whether ``n`` is a size this family defines a member for."""
        return n >= self.min_size and (n - self.min_size) % self.step == 0

    def sizes(self, count: int, start: Optional[int] = None) -> Tuple[int, ...]:
        """The first ``count`` admissible sizes from ``start`` upward."""
        base = self.min_size if start is None else start
        if not self.admissible(base):
            raise FamilyError(
                f"family {self.name!r} has no member of size {base}; "
                f"sizes are {self.min_size}, {self.min_size + self.step}, ..."
            )
        return tuple(base + i * self.step for i in range(count))

    def next_size(self, n: int) -> int:
        """The admissible size after ``n``."""
        return n + self.step

    def network(self, n: int):
        """The size-``n`` network (raises ``FamilyError`` off-family)."""
        from ..exceptions import NetworkError
        from ..topologies import dining_network, ring, star

        if not self.admissible(n):
            raise FamilyError(
                f"family {self.name!r} has no member of size {n}; "
                f"sizes are {self.min_size}, {self.min_size + self.step}, ..."
            )
        try:
            if self.topology == "ring":
                return ring(n)
            if self.topology == "star":
                return star(n)
            if self.topology == "dining":
                return dining_network(n, alternating=self.alternating)
        except NetworkError as exc:
            raise FamilyError(
                f"family {self.name!r} cannot build size {n}: {exc}"
            ) from exc
        raise FamilyError(f"unknown family topology {self.topology!r}")

    def instantiate(self, n: int) -> System:
        """The size-``n`` member system."""
        from .system import ScheduleClass

        net = self.network(n)
        state = {net.processors[0]: 1} if self.marked else None
        return System(net, state, self.model, ScheduleClass.FAIR)

    def family(self, count: int, start: Optional[int] = None) -> Family:
        """A concrete :class:`Family` of the first ``count`` members."""
        return Family([self.instantiate(n) for n in self.sizes(count, start)])

    def scenario(self, n: int) -> Dict[str, object]:
        """The :mod:`repro.obs.scenarios` spec of the size-``n`` member."""
        net = self.network(n)  # validates n
        spec: Dict[str, object] = {
            "topology": self.topology,
            "size": n,
            "program": self.program,
        }
        if self.topology == "dining":
            if self.alternating:
                spec["alternating"] = True
        else:
            spec["model"] = self.model.value
        if self.marked:
            spec["marks"] = [str(net.processors[0])]
        return spec


#: The registry of symbolic families the parametric layer verifies.
PARAMETRIC_FAMILIES: Dict[str, TopologyFamily] = {
    f.name: f
    for f in (
        TopologyFamily(
            name="ring",
            description="unmarked n-ring, model Q (Theorem 4 substrate)",
            topology="ring",
        ),
        TopologyFamily(
            name="marked-ring",
            description="n-ring with one marked processor (period 2: even "
            "rings have a singleton antipode class)",
            topology="ring",
            period=2,
            marked=True,
            min_size=3,
        ),
        TopologyFamily(
            name="star",
            description="star with n leaves, model Q (all leaves similar)",
            topology="star",
        ),
        TopologyFamily(
            name="marked-star",
            description="star with n leaves, one leaf marked",
            topology="star",
            marked=True,
        ),
        TopologyFamily(
            name="dp",
            description="uniform dining ring DP-n, left-first philosophers",
            topology="dining",
            model=InstructionSet.L,
            program="left-first",
        ),
        TopologyFamily(
            name="dp-prime",
            description="alternating dining ring DP'-n (even n), "
            "left-first philosophers",
            topology="dining",
            model=InstructionSet.L,
            program="left-first",
            alternating=True,
            step=2,
        ),
    )
}


def parametric_family(name: str) -> TopologyFamily:
    """Look up a symbolic family by registry name."""
    try:
        return PARAMETRIC_FAMILIES[name]
    except KeyError:
        raise FamilyError(
            f"unknown parametric family {name!r}; pick from "
            f"{sorted(PARAMETRIC_FAMILIES)}"
        ) from None


def _member_from_counts(
    system: System, counts: Dict[Tuple[NodeId, Hashable], int]
) -> System:
    """Build the post-relabel system for one assignment of edge counts."""
    net = system.network
    new_state: Dict[NodeId, Hashable] = {}
    for p in net.processors:
        pairs = tuple(
            sorted(((name, counts[(p, name)]) for name in net.names), key=repr)
        )
        new_state[p] = RelabeledState(system.state0(p), pairs)
    for v in net.variables:
        new_state[v] = ("relabeled", system.state0(v), net.degree(v))
    return System(net, new_state, InstructionSet.Q, system.schedule_class)


def relabel_family_extended(system: System) -> Family:
    """The relabel family for *extended locking* (L2, Section 6).

    With an indivisible multi-variable lock, ``relabel`` locks all of a
    processor's named variables at once, so the per-variable lock orders
    are all restrictions of one total order of processors.  (A processor
    giving one variable several names reads consecutive counts, in NAMES
    order.)  The family is therefore indexed by total orders of the
    processor set -- much smaller than the free product of L's version.
    """
    if system.instruction_set != InstructionSet.L2:
        raise FamilyError("extended relabel applies to instruction set L2")
    net = system.network
    if not net.processors:
        raise FamilyError(
            "the extended relabel family of a processor-free network is "
            "empty; relabel needs at least one processor"
        )
    members: List[System] = []
    seen_states: set = set()
    for order in permutations(net.processors):
        next_count: Dict[NodeId, int] = {v: 0 for v in net.variables}
        counts: Dict[Tuple[NodeId, Hashable], int] = {}
        for proc in order:
            for name in net.names:  # NAMES order within the atomic lock
                v = net.n_nbr(proc, name)
                counts[(proc, name)] = next_count[v]
                next_count[v] += 1
        member = _member_from_counts(system, counts)
        key = tuple(sorted(member.initial_state.items(), key=lambda kv: repr(kv[0])))
        if key in seen_states:
            continue
        seen_states.add(key)
        members.append(member)
    return Family(members)

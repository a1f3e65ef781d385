"""Systems ``Sigma = (N, state_0, I, SP)`` (paper, Section 2).

A system bundles a :class:`~repro.core.network.Network` with an initial
state for every node, an instruction set, and a schedule class.  Systems
are immutable value objects; analyses (similarity labelings, selection
decisions) take systems as inputs and never mutate them.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from ..exceptions import SystemError_
from .names import Name, NodeId, State
from .network import Network


class InstructionSet(enum.Enum):
    """The instruction sets studied by the paper.

    * ``S`` -- simple: ``read``/``write`` on shared variables plus
      arbitrary local instructions.
    * ``L`` -- locking: ``S`` plus ``lock``/``unlock`` using a lock bit
      per shared variable.
    * ``Q`` -- quasi-locking: ``peek``/``post`` on variables that hold a
      multiset of per-processor subvalues.
    * ``L2`` -- extended locking (Section 6): ``L`` plus an indivisible
      multi-variable lock.
    """

    S = "S"
    L = "L"
    Q = "Q"
    L2 = "L2"

    @property
    def has_locks(self) -> bool:
        return self in (InstructionSet.L, InstructionSet.L2)

    @property
    def is_multiset(self) -> bool:
        """True if shared variables hold per-processor subvalue multisets."""
        return self is InstructionSet.Q


class ScheduleClass(enum.Enum):
    """The schedule classes of Section 2.

    * ``GENERAL`` -- no restriction (processors may be starved forever).
    * ``FAIR`` -- every processor occurs infinitely often.
    * ``BOUNDED_FAIR`` -- there is a ``k`` such that every processor
      occurs in every window of ``k`` steps.
    """

    GENERAL = "G"
    FAIR = "F"
    BOUNDED_FAIR = "BF"

    @property
    def is_fair(self) -> bool:
        return self in (ScheduleClass.FAIR, ScheduleClass.BOUNDED_FAIR)


class System:
    """An immutable system ``(N, state_0, I, SP)``.

    Args:
        network: the bipartite processor/variable network.
        initial_state: state for each node.  Nodes omitted from the
            mapping default to ``0`` (a convenient "blank" state, so that
            fully anonymous systems can be written tersely).
        instruction_set: one of :class:`InstructionSet`.
        schedule_class: one of :class:`ScheduleClass`.
    """

    def __init__(
        self,
        network: Network,
        initial_state: Optional[Mapping[NodeId, State]] = None,
        instruction_set: InstructionSet = InstructionSet.Q,
        schedule_class: ScheduleClass = ScheduleClass.FAIR,
    ) -> None:
        initial_state = dict(initial_state or {})
        unknown = set(initial_state) - set(network.nodes)
        if unknown:
            raise SystemError_(
                f"initial_state mentions unknown nodes: {sorted(map(repr, unknown))}"
            )
        self._network = network
        self._state0: Dict[NodeId, State] = {
            node: initial_state.get(node, 0) for node in network.nodes
        }
        self._instruction_set = instruction_set
        self._schedule_class = schedule_class

    # ------------------------------------------------------------------

    @property
    def network(self) -> Network:
        return self._network

    @property
    def instruction_set(self) -> InstructionSet:
        return self._instruction_set

    @property
    def schedule_class(self) -> ScheduleClass:
        return self._schedule_class

    @property
    def processors(self) -> Tuple[NodeId, ...]:
        return self._network.processors

    @property
    def variables(self) -> Tuple[NodeId, ...]:
        return self._network.variables

    @property
    def names(self) -> Tuple[Name, ...]:
        return self._network.names

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        return self._network.nodes

    def state0(self, node: NodeId) -> State:
        """The initial state of ``node``."""
        try:
            return self._state0[node]
        except KeyError:
            raise SystemError_(f"unknown node {node!r}") from None

    @cached_property
    def initial_state(self) -> Mapping[NodeId, State]:
        """The full initial-state mapping (read-only view)."""
        return dict(self._state0)

    def n_nbr(self, processor: NodeId, name: Name) -> NodeId:
        return self._network.n_nbr(processor, name)

    # ------------------------------------------------------------------
    # derived systems
    # ------------------------------------------------------------------

    def with_state(self, new_state: Mapping[NodeId, State]) -> "System":
        """A copy with some initial states replaced."""
        merged = dict(self._state0)
        merged.update(new_state)
        return System(self._network, merged, self._instruction_set, self._schedule_class)

    def with_uniform_state(self, state: State = 0) -> "System":
        """A copy whose nodes all start in ``state``.

        Used by Algorithm 3's first phase, which deliberately ignores the
        initial state so that every member of a homogeneous family behaves
        identically.
        """
        return System(
            self._network,
            {node: state for node in self.nodes},
            self._instruction_set,
            self._schedule_class,
        )

    def with_instruction_set(self, instruction_set: InstructionSet) -> "System":
        """The same network and state under a different instruction set."""
        return System(self._network, self._state0, instruction_set, self._schedule_class)

    def with_schedule_class(self, schedule_class: ScheduleClass) -> "System":
        return System(self._network, self._state0, self._instruction_set, schedule_class)

    def induced_subsystem(self, processors: Iterable[NodeId]) -> "System":
        """Subsystem induced by a processor subset (used by mimicry)."""
        sub = self._network.induced_subnetwork(processors)
        state = {node: self._state0[node] for node in sub.nodes}
        return System(sub, state, self._instruction_set, self._schedule_class)

    @cached_property
    def components(self) -> Tuple["System", ...]:
        """The connected components that hold processors, as standalone
        systems, computed once.  A component that is a single isolated
        variable is left out."""
        net = self._network
        out = []
        for component in net.connected_components:
            procs = [node for node in component if net.is_processor(node)]
            if procs:
                out.append(self.induced_subsystem(procs))
        return tuple(out)

    @cached_property
    def iso_form(self) -> Hashable:
        """:func:`repro.core.quotient.canonical_form` of this system,
        computed once: the system is immutable, so every isomorphism test
        and form-keyed index can share one form."""
        from . import quotient

        return quotient.canonical_form(self)

    @cached_property
    def fingerprint(self) -> str:
        """:func:`repro.perf.batch.system_fingerprint` of this system,
        computed once, like :attr:`iso_form`."""
        from ..perf import batch

        return batch.system_fingerprint(self)

    def disjoint_union(self, other: "System", tags: Tuple[str, str] = ("A", "B")) -> "System":
        """The union system of Section 5 (generally unconnected).

        Both systems must share NAMES, instruction set and schedule class.
        """
        if self._instruction_set is not other._instruction_set:
            raise SystemError_("union requires identical instruction sets")
        if self._schedule_class is not other._schedule_class:
            raise SystemError_("union requires identical schedule classes")
        net = self._network.disjoint_union(other._network, tags)
        state: Dict[NodeId, State] = {}
        for node in self.nodes:
            state[(tags[0], node)] = self._state0[node]
        for node in other.nodes:
            state[(tags[1], node)] = other._state0[node]
        return System(net, state, self._instruction_set, self._schedule_class)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return (
            self._network == other._network
            and self._state0 == other._state0
            and self._instruction_set is other._instruction_set
            and self._schedule_class is other._schedule_class
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._network,
                tuple(sorted(self._state0.items(), key=lambda kv: repr(kv[0]))),
                self._instruction_set,
                self._schedule_class,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"System({self._network!r}, I={self._instruction_set.value}, "
            f"SP={self._schedule_class.value})"
        )


def union_of_systems(systems: Iterable[System]) -> System:
    """Disjoint union of any number of systems over the same NAMES.

    Members are tagged with their index.  The similarity labeling of a
    family is, per Section 5, the similarity labeling of this union.
    """
    systems = list(systems)
    if not systems:
        raise SystemError_("cannot union zero systems")
    first = systems[0]
    for s in systems[1:]:
        if set(s.names) != set(first.names):
            raise SystemError_("all systems in a union must share NAMES")
        if s.instruction_set is not first.instruction_set:
            raise SystemError_("all systems in a union must share the instruction set")
    from .network import Network  # local import to avoid cycle confusion

    edges: Dict[NodeId, Dict[Name, NodeId]] = {}
    variables = []
    state: Dict[NodeId, State] = {}
    for idx, s in enumerate(systems):
        for p in s.processors:
            edges[(idx, p)] = {
                n: (idx, v) for n, v in s.network.neighbors_of_processor(p).items()
            }
        variables.extend((idx, v) for v in s.variables)
        for node in s.nodes:
            state[(idx, node)] = s.state0(node)
    net = Network(first.names, edges, variables=variables)
    return System(net, state, first.instruction_set, first.schedule_class)

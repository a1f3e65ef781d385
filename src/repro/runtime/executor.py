"""The step-level simulator.

An :class:`Executor` runs one anonymous program on every processor of a
system, following a scheduler.  Each step atomically executes one
instruction of one processor, exactly as in the paper's execution model.

The executor enforces the system's instruction set: a program that emits a
``Peek`` in a system declared with instruction set S is broken, and the
executor raises :class:`~repro.exceptions.ExecutionError` rather than
silently executing an illegal instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Set, Tuple

from ..core.names import NodeId
from ..core.system import InstructionSet, System
from ..exceptions import ExecutionError
from ..obs.events import EventHub, StepExecuted
from .actions import (
    Action,
    Halt,
    Internal,
    Lock,
    MultiLock,
    Peek,
    Post,
    Read,
    Unlock,
    Write,
)
from .program import LocalState, Program
from .scheduler import Scheduler
from .variables import PlainVariable, SubvalueVariable

_ALLOWED = {
    InstructionSet.S: (Read, Write, Internal, Halt),
    InstructionSet.L: (Read, Write, Lock, Unlock, Internal, Halt),
    InstructionSet.L2: (Read, Write, Lock, Unlock, MultiLock, Internal, Halt),
    InstructionSet.Q: (Peek, Post, Internal, Halt),
}


@dataclass(frozen=True)
class StepRecord:
    """One executed step: who did what and what came back.

    ``noop`` marks a scheduled slot wasted on an already-halted
    processor: no instruction executed and no state changed.  The
    fairness bookkeeping still counts the slot (halted processors waste
    their steps, exactly as in the paper's model), but aggregations —
    census, timelines — must not mistake it for a real ``Halt`` action.
    """

    index: int
    processor: NodeId
    action: Action
    result: Hashable
    noop: bool = False


Configuration = Tuple[Tuple[Hashable, ...], Tuple[Hashable, ...]]


class Executor:
    """Runs ``program`` on every processor of ``system`` under ``scheduler``."""

    def __init__(
        self,
        system: System,
        program: Program,
        scheduler: Scheduler,
        strict: bool = True,
        sink=None,
    ) -> None:
        self.system = system
        self.program = program
        self.scheduler = scheduler
        self.strict = strict
        self.step_count = 0
        #: structured-event hub (:mod:`repro.obs`); emission is skipped
        #: entirely while no sink is attached.
        self.events = EventHub()
        if sink is not None:
            self.events.attach(sink)
        self.local: Dict[NodeId, LocalState] = {
            p: program.initial_state(system.state0(p)) for p in system.processors
        }
        self.halted: Dict[NodeId, bool] = {p: False for p in system.processors}
        #: processor -> position in ``system.processors``: how exploration
        #: states name lock owners and subvalue posters.
        self._index: Dict[NodeId, int] = {
            p: i for i, p in enumerate(system.processors)
        }
        if system.instruction_set.is_multiset:
            self.vars: Dict[NodeId, SubvalueVariable] = {
                v: SubvalueVariable(v, system.state0(v)) for v in system.variables
            }
        else:
            self.vars = {
                v: PlainVariable(v, system.state0(v)) for v in system.variables
            }
        #: Variables this executor may write in place.  A :meth:`successor`
        #: shares every variable object with its parent, and neither owns
        #: one afterwards: each copies a variable before its first write.
        #: After ``successor(p)`` it names exactly the variables that
        #: ``p``'s step copied.
        self.owned: Set[NodeId] = set(self.vars)

    # ------------------------------------------------------------------

    def _variable_for(self, processor: NodeId, name) -> object:
        return self.vars[self.system.n_nbr(processor, name)]

    def _writable(self, node: NodeId) -> object:
        """Variable ``node``, copied first if this executor shares it."""
        variable = self.vars[node]
        if node not in self.owned:
            variable = self.vars[node] = variable.copy()
            self.owned.add(node)
        return variable

    def _execute(self, processor: NodeId, action: Action) -> Hashable:
        allowed = _ALLOWED[self.system.instruction_set]
        if not isinstance(action, allowed):
            raise ExecutionError(
                f"action {action!r} illegal under instruction set "
                f"{self.system.instruction_set.value}"
            )
        if isinstance(action, Read):
            return self._variable_for(processor, action.name).read()
        if isinstance(action, Write):
            node = self.system.n_nbr(processor, action.name)
            self._writable(node).write(action.value)
            return None
        if isinstance(action, Lock):
            node = self.system.n_nbr(processor, action.name)
            if self.vars[node].locked:
                return False  # the paper's failed lock writes nothing
            return self._writable(node).try_lock(processor)
        if isinstance(action, Unlock):
            node = self.system.n_nbr(processor, action.name)
            self._writable(node).unlock(processor, self.strict)
            return None
        if isinstance(action, MultiLock):
            # Distinct target variables in a deterministic order: several
            # names may resolve to one variable, and acquisition must not
            # depend on set-iteration (hash) order or traces would vary
            # across interpreter runs.
            distinct = {self.system.n_nbr(processor, n) for n in action.names}
            nodes = sorted(distinct, key=repr)
            targets = [self.vars[node] for node in nodes]
            self_held = [
                v for v in targets if v.locked and v.lock_owner == processor
            ]
            if self_held and self.strict:
                held_names = [v.node for v in self_held]
                raise ExecutionError(
                    f"processor {processor!r} multi-locking variables it "
                    f"already holds: {held_names!r}"
                )
            if any(v.locked and v.lock_owner != processor for v in targets):
                return False  # someone else holds one: acquire nothing
            for node, v in zip(nodes, targets):
                if v.locked:
                    continue  # self-held (non-strict): re-entrant success
                acquired = self._writable(node).try_lock(processor)
                if not acquired:  # pragma: no cover - invariant
                    raise ExecutionError(
                        f"multi-lock acquisition of {v.node!r} failed "
                        f"despite the lock appearing free"
                    )
            return True
        if isinstance(action, Peek):
            return self._variable_for(processor, action.name).peek()
        if isinstance(action, Post):
            node = self.system.n_nbr(processor, action.name)
            self._writable(node).post(processor, action.value)
            return None
        if isinstance(action, (Internal, Halt)):
            return None
        raise ExecutionError(f"unknown action {action!r}")  # pragma: no cover

    def step(self) -> StepRecord:
        """Execute the next scheduled step and return its record."""
        processor = self.scheduler.next_processor(self.step_count, self)
        return self.step_as(processor)

    def step_as(self, processor: NodeId) -> StepRecord:
        """Execute one step of a *chosen* processor, bypassing the
        scheduler.

        The explicit-choice entry point for state-space searches (the
        Theorem-1 adversary explores all successors of a configuration);
        everything else about the step is identical to :meth:`step`.
        """
        if processor not in self.local:
            raise ExecutionError(f"scheduler picked unknown processor {processor!r}")
        if self.halted[processor]:
            record = StepRecord(self.step_count, processor, Halt(), None, noop=True)
            self.step_count += 1
            self._after_step(record)
            return record
        state = self.local[processor]
        action = self.program.next_action(state)
        if isinstance(action, Halt):
            self.halted[processor] = True
            result = None
        else:
            result = self._execute(processor, action)
            self.local[processor] = self.program.transition(state, action, result)
        record = StepRecord(self.step_count, processor, action, result)
        self.step_count += 1
        self._after_step(record)
        return record

    def _after_step(self, record: StepRecord) -> None:
        """Post-step hook: publish the record to the event hub."""
        if self.events.active:
            self.events.emit(StepExecuted(record))

    def run(self, steps: int) -> None:
        """Execute ``steps`` scheduled steps."""
        for _ in range(steps):
            self.step()

    def clone(self) -> "Executor":
        """An independent deep copy of the execution state.

        Local states are immutable (shared); every variable runtime
        object is copied, so the clone's variables may be written
        directly without touching the original's.  The program is shared
        (pure); the scheduler is shared too -- use :meth:`step_as` on
        clones, since stateful schedulers are not forked.  The clone gets
        a fresh, empty event hub (observation sinks are not forked);
        subclasses fork their own bookkeeping via :meth:`_clone_extras`.
        """
        twin = self._twin()
        twin.vars = {node: variable.copy() for node, variable in self.vars.items()}
        twin.owned = set(twin.vars)
        self._clone_extras(twin)
        return twin

    def _twin(self) -> "Executor":
        """A new executor of this type with this one's scalar fields,
        local states and halted flags, and no variables yet."""
        twin = object.__new__(type(self))
        twin.system = self.system
        twin.program = self.program
        twin.scheduler = self.scheduler
        twin.strict = self.strict
        twin.step_count = self.step_count
        twin.local = dict(self.local)
        twin.halted = dict(self.halted)
        twin._index = self._index
        twin.events = EventHub()
        return twin

    def _clone_extras(self, twin: "Executor") -> None:
        """Subclass hook: copy extra bookkeeping onto a fresh twin.

        Called by :meth:`clone` and :meth:`successor` (before its step)
        with the base state already copied.  Subclasses that keep per-run
        state (recorders, PRNGs) override this instead of relying on
        ``clone`` knowing their attributes.
        """

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def configuration(self) -> Configuration:
        """A hashable snapshot of the entire system state.

        Processor local states in processor order, then variable snapshots
        in variable order.  Equal configurations imply identical future
        behavior under the same (oblivious) scheduler state.
        """
        proc_part = tuple(self.local[p] for p in self.system.processors)
        var_part = tuple(self.vars[v].snapshot() for v in self.system.variables)
        return (proc_part, var_part)

    def eligible_processors(self) -> Tuple[NodeId, ...]:
        """Processors that can still execute a real instruction.

        The paper's scheduler may select any processor at any step, but a
        halted processor only wastes the slot; for state-space exploration
        the *eligible* set is what matters (no eligible processor means
        the run is over).  System order, so enumeration is deterministic.
        """
        return tuple(p for p in self.system.processors if not self.halted[p])

    def exploration_state(self) -> Configuration:
        """An exact state snapshot for state-space search.

        :meth:`configuration` abstracts on purpose -- lock *ownership* and
        Q subvalue *attribution* are invisible to paper-level observers --
        but both determine future behavior (strict unlock and multi-lock
        checks consult the owner; a poster overwrites its own subvalue).
        This snapshot keeps them, encoding processors by their position in
        ``system.processors`` so that permuting similar processors acts on
        the snapshot by index permutation.  Halted flags ride along with
        the local states for the same reason.
        """
        proc_part = tuple(
            (self.local[p], self.halted[p]) for p in self.system.processors
        )
        var_part = tuple(self.exploration_entry(v) for v in self.system.variables)
        return (proc_part, var_part)

    def exploration_entry(self, node: NodeId) -> Hashable:
        """Variable ``node``'s entry of :meth:`exploration_state`."""
        variable = self.vars[node]
        index = self._index
        if isinstance(variable, SubvalueVariable):
            entries = tuple(
                sorted((index[p], val) for p, val in variable.subvalues.items())
            )
            return ("subvalue", variable.base, entries)
        owner = variable.lock_owner
        return (
            "plain",
            variable.value,
            variable.locked,
            index[owner] if owner in index else -1,
        )

    def successor(self, processor: NodeId) -> "Executor":
        """The executor one ``step_as(processor)`` later.

        The receiver's state is untouched; successive calls enumerate the
        successor configurations of the current state.  Unlike
        :meth:`clone`, the successor shares every variable object with
        the receiver until one of them writes it (see :attr:`owned`), so
        a step copies only the variables it writes.
        """
        twin = self._twin()
        twin.vars = dict(self.vars)
        twin.owned = set()
        self.owned.clear()
        self._clone_extras(twin)
        twin.step_as(processor)
        return twin

    def node_state(self, node: NodeId) -> Hashable:
        """The paper-level ``state(x)``: local state for processors, value
        snapshot for variables."""
        if node in self.local:
            return self.local[node]
        return self.vars[node].snapshot()

    def selected_processors(self) -> Tuple[NodeId, ...]:
        """Processors whose local state has ``selected = true``."""
        return tuple(
            p
            for p in self.system.processors
            if self.program.is_selected(self.local[p])
        )

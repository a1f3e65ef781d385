"""Runtime state of shared variables, per instruction set.

Two kinds of variables exist at runtime:

* :class:`PlainVariable` -- instruction sets S, L and L2: a single value
  plus (for L/L2) a lock bit.
* :class:`SubvalueVariable` -- instruction set Q: a *base* state (the
  variable's initial state, observable through ``peek``) plus one
  subvalue per processor that has ever ``post``-ed.  ``peek`` returns the
  unordered multiset of subvalues; the poster identities are never
  revealed, preserving anonymity, and the number of subvalues is only a
  lower bound on the variable's degree (the paper's stipulation).

Both expose ``snapshot()``: a hashable digest of the *observable* state,
used for configuration hashing (cycle detection) and for the paper's
"same state at the same time" checks.  Two Q variables holding equal
subvalue multisets have equal snapshots even if the posters differ --
states, not identities, is what similarity compares.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..core.names import NodeId, State
from ..exceptions import ExecutionError


def multiset_key(values) -> Tuple[Hashable, ...]:
    """Canonical hashable form of a multiset of hashable values."""
    return tuple(sorted(values, key=repr))


class PlainVariable:
    """A read/write variable with an optional lock bit (S, L, L2)."""

    __slots__ = ("node", "value", "locked", "lock_owner")

    def __init__(self, node: NodeId, initial: State) -> None:
        self.node = node
        self.value: Hashable = initial
        self.locked: bool = False
        self.lock_owner: Optional[NodeId] = None

    def read(self) -> Hashable:
        return self.value

    def write(self, value: Hashable) -> None:
        self.value = value

    def try_lock(self, owner: NodeId) -> bool:
        """Set the lock bit; False if it was already set (paper's lock)."""
        if self.locked:
            return False
        self.locked = True
        self.lock_owner = owner
        return True

    def unlock(self, owner: NodeId, strict: bool = True) -> None:
        """Reset the lock bit.

        The paper's ``unlock`` is unconditional; with ``strict`` we flag
        the programming error of unlocking a variable locked by someone
        else, which no well-formed program should do.
        """
        if strict and self.locked and self.lock_owner != owner:
            raise ExecutionError(
                f"processor {owner!r} unlocking {self.node!r} held by "
                f"{self.lock_owner!r}"
            )
        self.locked = False
        self.lock_owner = None

    def snapshot(self) -> Hashable:
        return ("plain", self.value, self.locked)

    def copy(self) -> "PlainVariable":
        twin = PlainVariable(self.node, self.value)
        twin.locked = self.locked
        twin.lock_owner = self.lock_owner
        return twin


class SubvalueVariable:
    """A Q variable: base state plus per-processor subvalues."""

    __slots__ = ("node", "base", "subvalues")

    def __init__(self, node: NodeId, initial: State) -> None:
        self.node = node
        self.base: State = initial
        self.subvalues: Dict[NodeId, Hashable] = {}

    def post(self, processor: NodeId, value: Hashable) -> None:
        """Create/overwrite this processor's subvalue (paper's post)."""
        self.subvalues[processor] = value

    def peek(self) -> Tuple[State, Tuple[Hashable, ...]]:
        """The base state and the unordered multiset of subvalues."""
        return (self.base, multiset_key(self.subvalues.values()))

    def snapshot(self) -> Hashable:
        return ("subvalue", self.base, multiset_key(self.subvalues.values()))

    def copy(self) -> "SubvalueVariable":
        twin = SubvalueVariable(self.node, self.base)
        twin.subvalues = dict(self.subvalues)
        return twin

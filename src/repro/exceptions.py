"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NetworkError(ReproError):
    """The bipartite network specification is malformed.

    Raised when a processor lacks an n-neighbor for some name, when an edge
    connects two nodes of the same kind, or when node identifiers collide.
    """


class SystemError_(ReproError):
    """A system specification is inconsistent (bad initial state, etc.).

    Named with a trailing underscore to avoid shadowing the built-in
    ``SystemError``.
    """


class ScheduleError(ReproError):
    """A schedule violates its declared class (e.g. not k-bounded fair)."""


class ExecutionError(ReproError):
    """The simulator was asked to perform an illegal step.

    Examples: unlocking a variable that the processor has not locked, or
    executing a Q instruction in a system declared with instruction set S.
    """


class ProgramError(ReproError):
    """A program violated the deterministic anonymous-program contract."""


class LabelingError(ReproError):
    """A labeling is malformed or fails a required labeling property."""


class SelectionError(ReproError):
    """Raised when a selection algorithm is requested for a system that
    provably has none (Theorems 1-3, 7, 9)."""


class FamilyError(ReproError):
    """A family of systems is malformed (mismatched NAMES, instruction
    sets, or topologies where homogeneity is required)."""


class WitnessSearchError(ReproError):
    """The witness-sweep engine was misconfigured (unknown model labels),
    or its checkpoint is damaged or records a different sweep spec."""


class WitnessRecordError(ReproError):
    """A recorded separation witness fails re-verification: its stored
    decisions or canonical-form key no longer match the system it
    claims to describe."""


class ParametricError(ReproError):
    """The parametric verification layer was misconfigured (unknown
    family or property names, bad size ranges) or failed to certify
    (no stabilization within the size budget)."""


class ExploreError(ReproError):
    """The schedule-space explorer was misconfigured (bad specification,
    unknown invariant or probe names), or its checkpoint is damaged or
    records a different exploration."""


class ServeError(ReproError):
    """The analysis service received a malformed request or was
    misconfigured (unknown op, bad spec payload, bad front-end state)."""

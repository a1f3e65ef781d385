"""Automatic search for model-separation witnesses.

The hierarchy benchmarks use hand-built witnesses; this tool *finds*
witnesses by exhausting small systems, which both double-checks the
hand-built ones (they are not flukes) and answers new questions ("is
there a 2-processor system separating X from Y at all?").

Enumeration: all networks with ``n_processors`` processors, ``n_names``
names and at most ``n_variables`` variables (every function
processors x names -> variables), optionally with one marked initial
state on any single node -- processor *or* variable -- deduplicated up
to isomorphism via canonical forms.  For each system the selection
decision is computed under both models; systems where the weaker model
fails and the stronger succeeds are yielded.

The sweep itself is executed by :mod:`repro.analysis.witness_engine`
(sharded enumeration, cross-shard decision caching, JSONL checkpoints);
:func:`find_witnesses` is the thin serial-facing wrapper and returns
exactly what the engine returns on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..core.network import Network
from ..core.system import System
from .witness_engine import WitnessRecord, dense_assignments


def enumerate_networks(
    n_processors: int, n_names: int, n_variables: int
) -> Iterator[Network]:
    """All networks on the given node budget (up to variable renaming).

    Variables are used densely (:func:`~repro.analysis.witness_engine.
    dense_assignments`): a network whose edge targets skip ``v1`` while
    using ``v2`` is isomorphic to a denser one.  Full isomorphism dedup
    happens in the caller via canonical forms.  These are the networks
    of the sweep's unmarked candidates, in the same order.
    """
    for assignment in dense_assignments(n_processors * n_names, n_variables):
        yield WitnessRecord(n_processors, n_names, assignment).network()


@dataclass(frozen=True)
class Witness:
    """A found separation witness."""

    system: System
    weaker: str
    stronger: str

    def describe(self) -> str:
        net = self.system.network
        parts = []
        for p in net.processors:
            nbrs = net.neighbors_of_processor(p)
            parts.append(
                f"{p}:{{{', '.join(f'{n}->{v}' for n, v in sorted(nbrs.items()))}}}"
            )
        marks = [n for n in self.system.nodes if self.system.state0(n) != 0]
        mark_part = f" marks={marks}" if marks else ""
        return "; ".join(parts) + mark_part


def find_witnesses(
    weaker: str,
    stronger: str,
    max_processors: int = 3,
    max_names: int = 2,
    max_variables: int = 3,
    allow_marks: bool = False,
    limit: int = 1,
) -> List[Witness]:
    """Search small systems where ``weaker`` fails and ``stronger`` works.

    A thin wrapper over :func:`repro.analysis.witness_engine.run_sweep`
    in serial mode; the sharded engine returns the identical list.

    Args:
        weaker/stronger: model labels from
            :data:`repro.core.hierarchy.MODEL_AXIS` (e.g. ``"Q"``, ``"L"``).
        max_*: enumeration bounds (cost grows as
            ``variables ** (processors * names)``).
        allow_marks: also try marking one node's initial state (each
            processor and each variable in turn).
        limit: stop after this many witnesses.
    """
    from .witness_engine import SweepSpec, run_sweep

    spec = SweepSpec(
        weaker=weaker,
        stronger=stronger,
        max_processors=max_processors,
        max_names=max_names,
        max_variables=max_variables,
        allow_marks=allow_marks,
        limit=limit,
    )
    return run_sweep(spec, workers=0).witnesses


def smallest_witness(
    weaker: str, stronger: str, allow_marks: bool = False
) -> Optional[Witness]:
    """The first witness in size order, or None within default bounds."""
    found = find_witnesses(weaker, stronger, allow_marks=allow_marks, limit=1)
    return found[0] if found else None

"""Randomized programs: coin flips as an explicit instruction.

Section 8: "Randomized algorithms have been used to break symmetry in
distributed systems...  These algorithms can solve synchronization
problems that deterministic algorithms cannot."  In the paper's terms, a
coin flip is precisely a step whose outcome is *not* a function of the
processor's state -- which is why randomized programs escape the
similarity arguments: the round-robin schedule can no longer keep
same-labeled processors in lockstep, because their coins may differ.

We model this minimally: a :class:`FlipCoin` action whose result is a
fair random bit (or a uniform draw from a range), supplied by a
:class:`CoinExecutor` with a seeded generator.  Everything else about the
execution model is unchanged, so randomized and deterministic programs
run under the same schedulers and checkers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

from ..runtime.actions import Action
from ..runtime.executor import Executor
from ..runtime.program import Program
from ..runtime.scheduler import Scheduler
from ..core.system import System


@dataclass(frozen=True)
class FlipCoin(Action):
    """Draw a uniform integer in ``range(sides)`` (default: a fair bit)."""

    sides: int = 2


class CoinExecutor(Executor):
    """An executor that also serves :class:`FlipCoin` actions.

    Coin outcomes come from a single seeded PRNG, so runs are reproducible
    while processors remain anonymous (no per-processor seeds -- identical
    states still flip *independent* coins, which is the whole point).
    """

    def __init__(
        self,
        system: System,
        program: Program,
        scheduler: Scheduler,
        seed: int = 0,
        strict: bool = True,
    ) -> None:
        super().__init__(system, program, scheduler, strict)
        self._rng = random.Random(seed)

    def _clone_extras(self, twin: Executor) -> None:
        # A forked PRNG: the twin draws exactly the coins this executor
        # would have drawn next, and its draws do not advance this one's.
        twin._rng = random.Random()
        twin._rng.setstate(self._rng.getstate())

    def _execute(self, processor, action: Action) -> Hashable:
        if isinstance(action, FlipCoin):
            return self._rng.randrange(action.sides)
        return super()._execute(processor, action)

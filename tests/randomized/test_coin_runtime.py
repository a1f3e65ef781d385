"""Tests for the coin-flip runtime extension."""

from repro.core import InstructionSet, System
from repro.runtime import FunctionalProgram, RoundRobinScheduler
from repro.randomized import CoinExecutor, FlipCoin
from repro.topologies import figure1_network


def flipper():
    return FunctionalProgram(
        initial=lambda s0: ("flip",),
        action=lambda st: FlipCoin(2),
        step=lambda st, a, r: ("flipped", r),
    )


def test_coin_results_are_bits():
    system = System(figure1_network(), None, InstructionSet.Q)
    ex = CoinExecutor(system, flipper(), RoundRobinScheduler(system.processors), seed=0)
    ex.run(2)
    for p in system.processors:
        assert ex.local[p][1] in (0, 1)


def test_seeded_reproducibility():
    system = System(figure1_network(), None, InstructionSet.Q)
    runs = []
    for _ in range(2):
        ex = CoinExecutor(system, flipper(), RoundRobinScheduler(system.processors), seed=5)
        ex.run(2)
        runs.append(dict(ex.local))
    assert runs[0] == runs[1]


def test_identical_states_flip_independent_coins():
    """The whole point of randomization: same state, possibly different
    outcome -- lockstep is broken."""
    system = System(figure1_network(), None, InstructionSet.Q)
    diverged = False
    for seed in range(20):
        ex = CoinExecutor(system, flipper(), RoundRobinScheduler(system.processors), seed=seed)
        ex.run(2)
        if ex.local["p"] != ex.local["q"]:
            diverged = True
            break
    assert diverged


def test_sides_parameter():
    system = System(figure1_network(), None, InstructionSet.Q)
    prog = FunctionalProgram(
        initial=lambda s0: ("flip",),
        action=lambda st: FlipCoin(10),
        step=lambda st, a, r: ("flipped", r),
    )
    ex = CoinExecutor(system, prog, RoundRobinScheduler(system.processors), seed=1)
    ex.run(2)
    assert all(0 <= ex.local[p][1] < 10 for p in system.processors)


def counting_flipper():
    """Flips forever, remembering every coin it drew."""
    return FunctionalProgram(
        initial=lambda s0: (),
        action=lambda st: FlipCoin(1000),
        step=lambda st, a, r: st + (r,),
    )


def _coin_executor(seed=3):
    system = System(figure1_network(), None, InstructionSet.Q)
    return CoinExecutor(
        system, counting_flipper(), RoundRobinScheduler(system.processors), seed=seed
    )


class TestTwinsForkTheCoins:
    """A clone or successor draws the coins its original would have drawn,
    and drawing them leaves the original's generator where it was."""

    def _reference(self, steps):
        """The local states after ``steps`` scheduled steps of one run."""
        ex = _coin_executor()
        ex.run(steps)
        return ex.local

    def test_clone_then_step(self):
        ex = _coin_executor()
        ex.step()
        twin = ex.clone()
        twin.step()
        assert twin.local == self._reference(2)
        ex.step()
        assert ex.local == self._reference(2)

    def test_successor(self):
        ex = _coin_executor()
        ex.step()
        twin = ex.successor("q")
        assert twin.local == self._reference(2)
        assert ex.successor("q").local == twin.local
        ex.step()
        assert ex.local == self._reference(2)

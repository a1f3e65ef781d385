"""Unit tests for the step-level executor."""

import pytest

from repro.core import InstructionSet, Network, System
from repro.exceptions import ExecutionError
from repro.runtime import (
    Executor,
    FunctionalProgram,
    Halt,
    IdleProgram,
    Internal,
    Lock,
    MultiLock,
    Peek,
    Post,
    Read,
    RoundRobinScheduler,
    Unlock,
    Write,
)
from repro.topologies import figure1_network


def constant_program(action):
    return FunctionalProgram(
        initial=lambda s0: ("s", s0),
        action=lambda st: action,
        step=lambda st, a, r: ("done", r),
    )


def sys_with(iset):
    return System(figure1_network(), {"v": 42}, iset)


class TestInstructionEnforcement:
    def test_peek_illegal_in_s(self):
        ex = Executor(sys_with(InstructionSet.S), constant_program(Peek("n")),
                      RoundRobinScheduler(("p", "q")))
        with pytest.raises(ExecutionError, match="illegal"):
            ex.step()

    def test_read_illegal_in_q(self):
        ex = Executor(sys_with(InstructionSet.Q), constant_program(Read("n")),
                      RoundRobinScheduler(("p", "q")))
        with pytest.raises(ExecutionError, match="illegal"):
            ex.step()

    def test_lock_illegal_in_s(self):
        ex = Executor(sys_with(InstructionSet.S), constant_program(Lock("n")),
                      RoundRobinScheduler(("p", "q")))
        with pytest.raises(ExecutionError):
            ex.step()

    def test_multilock_illegal_in_l(self):
        ex = Executor(sys_with(InstructionSet.L), constant_program(MultiLock(("n",))),
                      RoundRobinScheduler(("p", "q")))
        with pytest.raises(ExecutionError):
            ex.step()


class TestSemantics:
    def test_read_returns_initial_state(self):
        ex = Executor(sys_with(InstructionSet.S), constant_program(Read("n")),
                      RoundRobinScheduler(("p",)))
        record = ex.step()
        assert record.result == 42

    def test_write_then_read(self):
        prog = FunctionalProgram(
            initial=lambda s0: "w",
            action=lambda st: Write("n", "X") if st == "w" else Read("n"),
            step=lambda st, a, r: ("got", r) if isinstance(a, Read) else "r",
        )
        ex = Executor(sys_with(InstructionSet.S), prog, RoundRobinScheduler(("p",)))
        ex.run(2)
        assert ex.local["p"] == ("got", "X")

    def test_lock_race_has_one_winner(self):
        prog = FunctionalProgram(
            initial=lambda s0: "try",
            action=lambda st: Lock("n") if st == "try" else Internal("idle"),
            step=lambda st, a, r: ("won" if r else "lost") if isinstance(a, Lock) else st,
        )
        ex = Executor(sys_with(InstructionSet.L), prog, RoundRobinScheduler(("p", "q")))
        ex.run(2)
        outcomes = sorted(ex.local.values())
        assert outcomes == ["lost", "won"]

    def test_multilock_all_or_nothing(self):
        import repro.core as core

        net = core.Network(("a", "b"), {"p1": {"a": "v", "b": "w"}, "p2": {"a": "w", "b": "v"}})
        system = core.System(net, None, core.InstructionSet.L2)
        prog = FunctionalProgram(
            initial=lambda s0: "try",
            action=lambda st: MultiLock(("a", "b")) if st == "try" else Internal("i"),
            step=lambda st, a, r: ("ml", r) if isinstance(a, MultiLock) else st,
        )
        ex = Executor(system, prog, RoundRobinScheduler(("p1", "p2")))
        ex.run(2)
        assert ex.local["p1"] == ("ml", True)
        assert ex.local["p2"] == ("ml", False)  # both variables taken

    def test_post_and_peek(self):
        prog = FunctionalProgram(
            initial=lambda s0: "post",
            action=lambda st: Post("n", "sub") if st == "post" else Peek("n"),
            step=lambda st, a, r: ("peeked", r) if isinstance(a, Peek) else "peek",
        )
        ex = Executor(sys_with(InstructionSet.Q), prog, RoundRobinScheduler(("p", "q")))
        ex.run(4)
        base, values = ex.local["p"][1]
        assert base == 42
        assert values == ("sub", "sub")



def _counting(action_for):
    """Each step runs ``action_for(counter)`` and bumps the counter, so
    every write carries a value the variable has not held before."""
    return FunctionalProgram(
        initial=lambda s0: 0,
        action=action_for,
        step=lambda st, a, r: st + 1,
    )


def _lock_cycle(lock):
    """Alternates ``lock`` and ``Unlock("n")``; a failed lock retries."""
    return FunctionalProgram(
        initial=lambda s0: "free",
        action=lambda st: lock if st == "free" else Unlock("n"),
        step=lambda st, a, r: ("held" if r else "free") if st == "free" else "free",
    )


#: One program per write path of the executor, each on a system where
#: both processors write one shared variable ``v``.
_WRITE_KINDS = {
    "write": (InstructionSet.S, figure1_network,
              _counting(lambda st: Write("n", st))),
    "post": (InstructionSet.Q, figure1_network,
             _counting(lambda st: Post("n", st))),
    "lock-unlock": (InstructionSet.L, figure1_network, _lock_cycle(Lock("n"))),
    # MultiLock's two names resolve to the one variable v.
    "multilock": (
        InstructionSet.L2,
        lambda: Network(
            ("n", "m"), {"p": {"n": "v", "m": "v"}, "q": {"n": "v", "m": "v"}}
        ),
        _lock_cycle(MultiLock(("n", "m"))),
    ),
}


class TestSuccessorCopyOnWrite:
    """A successor shares its parent's variables until either writes."""

    @pytest.mark.parametrize("kind", sorted(_WRITE_KINDS))
    def test_parent_and_successor_never_see_each_others_writes(self, kind):
        iset, network, program = _WRITE_KINDS[kind]
        system = System(network(), {"v": 42}, iset)
        schedule = ("p", "q", "p", "p", "q", "q")
        for warmup in range(len(schedule) + 1):
            for proc in system.processors:
                ex = Executor(system, program, RoundRobinScheduler(("p", "q")))
                for q in schedule[:warmup]:
                    ex.step_as(q)
                before = ex.exploration_state()
                succ = ex.successor(proc)
                assert ex.exploration_state() == before
                reached = succ.exploration_state()
                for q in schedule:
                    ex.step_as(q)
                    assert succ.exploration_state() == reached
                moved = ex.exploration_state()
                for q in schedule:
                    succ.step_as(q)
                    assert ex.exploration_state() == moved

    def test_owned_names_what_the_step_copied(self):
        iset, network, program = _WRITE_KINDS["write"]
        ex = Executor(System(network(), {"v": 42}, iset), program,
                      RoundRobinScheduler(("p", "q")))
        succ = ex.successor("p")
        assert succ.owned == {"v"}
        assert succ.vars["v"] is not ex.vars["v"]
        idle = Executor(sys_with(InstructionSet.S), IdleProgram(),
                        RoundRobinScheduler(("p", "q")))
        succ = idle.successor("p")
        assert succ.owned == set()
        assert succ.vars["v"] is idle.vars["v"]


class TestHalting:
    def test_halted_steps_are_noops(self):
        prog = FunctionalProgram(
            initial=lambda s0: "h",
            action=lambda st: Halt(),
            step=lambda st, a, r: st,
        )
        ex = Executor(sys_with(InstructionSet.S), prog, RoundRobinScheduler(("p", "q")))
        ex.run(6)
        assert all(ex.halted.values())
        assert ex.step_count == 6  # scheduling continues


class TestObservation:
    def test_configuration_roundtrip(self):
        ex = Executor(sys_with(InstructionSet.S), IdleProgram(), RoundRobinScheduler(("p", "q")))
        c0 = ex.configuration()
        ex.run(4)
        assert ex.configuration() == c0  # idle program never changes anything

    def test_node_state_for_both_kinds(self):
        ex = Executor(sys_with(InstructionSet.S), IdleProgram(), RoundRobinScheduler(("p", "q")))
        assert ex.node_state("p") == ("idle", 0)
        assert ex.node_state("v")[1] == 42

    def test_unknown_scheduler_choice(self):
        class Bad:
            def next_processor(self, i, view):
                return "ghost"

        ex = Executor(sys_with(InstructionSet.S), IdleProgram(), Bad())
        with pytest.raises(ExecutionError, match="unknown processor"):
            ex.step()


class TestCloneAndStepAs:
    def test_clone_is_independent(self):
        prog = FunctionalProgram(
            initial=lambda s0: 0,
            action=lambda st: Write("n", st),
            step=lambda st, a, r: st + 1,
        )
        ex = Executor(sys_with(InstructionSet.S), prog, RoundRobinScheduler(("p", "q")))
        ex.run(4)
        twin = ex.clone()
        ex.run(4)
        assert twin.local != ex.local  # the original moved on alone
        assert twin.configuration() != ex.configuration()

    def test_clone_preserves_variable_state(self):
        prog = constant_program(Write("n", "X"))
        ex = Executor(sys_with(InstructionSet.S), prog, RoundRobinScheduler(("p",)))
        ex.step()
        twin = ex.clone()
        assert twin.vars["v"].read() == "X"
        twin.vars["v"].write("Y")
        assert ex.vars["v"].read() == "X"  # no sharing

    def test_clone_q_variables(self):
        prog = constant_program(Post("n", "sub"))
        ex = Executor(sys_with(InstructionSet.Q), prog, RoundRobinScheduler(("p",)))
        ex.step()
        twin = ex.clone()
        twin.vars["v"].post("q", "other")
        assert len(ex.vars["v"].subvalues) == 1
        assert len(twin.vars["v"].subvalues) == 2

    def test_step_as_bypasses_scheduler(self):
        prog = constant_program(Read("n"))
        ex = Executor(sys_with(InstructionSet.S), prog, RoundRobinScheduler(("p", "q")))
        record = ex.step_as("q")
        assert record.processor == "q"

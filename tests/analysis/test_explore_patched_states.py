"""The explorer's patched states and keys against from-scratch ones.

A child node builds its exploration state and its key slots from its
parent's, replacing only the stepped processor's entry and the
variables the step copied.  The oracle here recomputes both from the
node's executor at every node a search visits, and every successor
state the deadlock check compares, and requires equality: the state
with :meth:`Executor.exploration_state`, the key with
:meth:`StateEncoder.identity_key`.
"""

from dataclasses import replace

import pytest

from repro.analysis import explore
from repro.analysis.explore import ExploreSpec, run_explore
from repro.runtime import FunctionalProgram, Halt, Read, Write


def _halting(system):
    """Write, read, then halt: every processor halts after two steps."""
    left, right = system.names
    actions = {0: Write(left, "w"), 1: Read(right)}
    return FunctionalProgram(
        initial=lambda s0: (0, None),
        action=lambda st: actions.get(st[0], Halt()),
        step=lambda st, a, r: (st[0] + 1, r),
    )


SPECS = {
    "s-ring": dict(
        scenario={"topology": "ring", "size": 4, "model": "S"}, max_depth=10
    ),
    "l-star-unreduced": dict(
        scenario={"topology": "star", "size": 4, "model": "L"},
        max_depth=7,
        symmetry=False,
    ),
    "l2-dp5-both-forks": dict(
        scenario={"topology": "dining", "size": 5, "program": "both-forks"},
        max_depth=8,
        invariants=("exclusion",),
    ),
    "q-ring-k-bounded": dict(
        scenario={"topology": "ring", "size": 4, "model": "Q"},
        max_depth=12,
        fairness="k-bounded",
        k=4,
    ),
    "q-ring-lockstep-counts": dict(
        scenario={"topology": "ring", "size": 4, "model": "Q"},
        max_depth=12,
        fairness="k-bounded",
        k=4,
        invariants=("lockstep",),
        check_deadlock=False,
    ),
    "s-ring-halting": dict(
        scenario={"topology": "ring", "size": 4, "model": "S"},
        max_depth=12,
        fairness="k-bounded",
        k=4,
        symmetry=False,
        check_deadlock=False,
    ),
}


@pytest.fixture
def oracle(monkeypatch):
    """Check every visited node and every successor state; return the
    list of visited nodes' ``(halted flags, riders)`` for coverage."""
    seen = []
    real_visit = explore._Walker._visit
    real_state_after = explore._Walker._state_after

    def checked_visit(walker, node):
        scratch = node.executor.exploration_state()
        assert node.state == scratch
        vectors = tuple(v for v in (node.ages, node.counts) if v is not None)
        encoder = walker.keys.encoder
        assert encoder.join_key(node.slots, vectors) == encoder.identity_key(
            *scratch, vectors
        )
        seen.append((tuple(h for _local, h in scratch[0]), len(vectors)))
        return real_visit(walker, node)

    def checked_state_after(walker, node, proc, twin):
        state = real_state_after(walker, node, proc, twin)
        assert state == twin.exploration_state()
        return state

    monkeypatch.setattr(explore._Walker, "_visit", checked_visit)
    monkeypatch.setattr(explore._Walker, "_state_after", checked_state_after)
    return seen


def _halting_scenarios(monkeypatch):
    real_build = explore.build_scenario

    def build(spec):
        bundle = real_build(spec)
        return replace(bundle, program=_halting(bundle.system))

    monkeypatch.setattr(explore, "build_scenario", build)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_patched_state_and_key_equal_from_scratch(oracle, monkeypatch, name, strategy):
    if name == "s-ring-halting":
        _halting_scenarios(monkeypatch)
    result = run_explore(ExploreSpec(**SPECS[name], strategy=strategy), workers=0)
    assert result.stats.visited == len(oracle) > 50
    riders = {count for _halted, count in oracle}
    if name == "s-ring-halting":
        assert any(all(halted) for halted, _count in oracle)
    if name == "q-ring-lockstep-counts":
        assert riders == {2}  # ages and counts
    elif SPECS[name].get("fairness") == "k-bounded":
        assert riders == {1}  # ages


def test_replayed_levels_are_patched_alike(oracle, tmp_path):
    """A resumed run rebuilds its first open level by replaying
    schedules, through the same patching."""
    spec = ExploreSpec(**SPECS["l2-dp5-both-forks"])
    path = tmp_path / "ck.jsonl"
    full = run_explore(spec, workers=0, checkpoint=str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    oracle.clear()
    resumed = run_explore(spec, workers=0, checkpoint=str(path))
    assert resumed.resumed_shards == 4
    assert resumed.report_doc() == full.report_doc()
    assert len(oracle) > 50


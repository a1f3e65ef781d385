"""The symmetry-reduced bounded schedule explorer.

Headline assertions: the explorer *rediscovers* Figure 4's dining
deadlock exhaustively (and pins the lexicographically-least schedule
reaching it), certifies the alternating table DP' deadlock-free to the
same depth, and produces identical verdicts whether deduplication is by
exact configuration or by Θ-orbit canonical form — with the orbit
quotient visiting strictly fewer states.  Sharded runs must be
byte-identical to serial ones, checkpoints must resume, and violation
traces must replay through the standard obs loop.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis.explore import (
    ExploreSpec,
    Violation,
    run_explore,
    verify_counterexample,
    write_counterexample,
)
from repro.exceptions import ExploreError
from repro.obs import (
    EventHub,
    ExplorationProgress,
    InvariantViolated,
    RingBufferSink,
    replay_trace,
)

DP4 = {"topology": "dining", "size": 4, "program": "left-first"}
DP5 = {"topology": "dining", "size": 5, "program": "left-first"}
DPP6 = {
    "topology": "dining",
    "size": 6,
    "alternating": True,
    "program": "left-first",
}

#: Figure 4's circular hold: each philosopher grabs its left fork in
#: system order.  Two steps per philosopher (observe, then lock).
DP4_DEADLOCK = ("phil0", "phil0", "phil1", "phil1", "phil2", "phil2",
                "phil3", "phil3")
DP5_DEADLOCK = ("phil0", "phil0", "phil1", "phil1", "phil2", "phil2",
                "phil3", "phil3", "phil4", "phil4")


def dp4_spec(**overrides):
    base = dict(scenario=DP4, max_depth=8, invariants=("exclusion",))
    base.update(overrides)
    return ExploreSpec(**base)


class TestDiningHeadlines:
    def test_figure4_deadlock_rediscovered(self):
        result = run_explore(
            ExploreSpec(scenario=DP5, max_depth=10, invariants=("exclusion",)),
            workers=0,
        )
        assert result.verdict == "violation"
        assert result.violation.kind == "deadlock"
        assert result.violation.depth == 10
        # BFS + discovery-order checks => the (depth, schedule)-least
        # counterexample, i.e. the canonical circular-hold run.
        assert result.violation.schedule == DP5_DEADLOCK

    def test_dp_prime_certified_deadlock_free(self):
        result = run_explore(
            ExploreSpec(scenario=DPP6, max_depth=8, invariants=("exclusion",)),
            workers=0,
        )
        assert result.verdict == "certified"
        assert result.violation is None
        assert result.certified_depth == 8
        # the alternating 6-table's automorphism group is the rotations
        # preserving orientation parity
        assert result.group_size == 6

    def test_deadlock_found_under_k_bounded_fairness(self):
        # Under 5-bounded schedules the two-steps-per-philosopher prefix
        # is illegal; the fair interleaving still deadlocks at depth 10.
        result = run_explore(
            ExploreSpec(
                scenario=DP5,
                max_depth=10,
                fairness="k-bounded",
                k=5,
                invariants=("exclusion",),
            ),
            workers=0,
        )
        assert result.violation is not None
        assert result.violation.kind == "deadlock"
        assert result.violation.depth == 10
        assert result.violation.schedule == (
            "phil0", "phil1", "phil2", "phil3", "phil4",
            "phil0", "phil1", "phil2", "phil3", "phil4",
        )

    def test_livelock_detected_with_dfs_progress(self):
        result = run_explore(
            ExploreSpec(
                scenario=DP5,
                max_depth=11,
                strategy="dfs",
                check_deadlock=False,
                check_livelock=True,
                progress="eating",
            ),
            workers=0,
        )
        assert result.violation is not None
        assert result.violation.kind == "livelock"
        # the reported prefix must independently re-verify
        assert verify_counterexample(
            {
                "kind": "explore",
                "run": result.spec.scenario,
                "explore": result.spec.to_json(),
                "violation": result.violation.to_json(),
            }
        ) is None


class TestTheorem4Figures:
    @pytest.mark.parametrize(
        "topology, marks, model",
        [("figure1", [], "Q"), ("figure2", [], "Q"), ("figure3", ["z"], "S")],
    )
    def test_lockstep_certified_over_all_bounded_schedules(
        self, topology, marks, model
    ):
        """Theorem 4 swept: over *every* n-bounded schedule prefix of the
        paper's example systems (not just one class round robin),
        Θ-classes stay state-uniform at every balanced point."""
        from repro.obs import build_scenario

        scenario = {
            "topology": topology,
            "size": 0,
            "model": model,
            "program": "random",
            "marks": marks,
        }
        n = len(build_scenario(scenario).system.processors)
        result = run_explore(
            ExploreSpec(
                scenario=scenario,
                max_depth=2 * n,
                fairness="k-bounded",
                k=n,
                invariants=("lockstep",),
                check_deadlock=False,
            ),
            workers=0,
        )
        assert result.verdict == "certified"


class TestSymmetryReduction:
    def test_reduced_visits_strictly_fewer_states_same_verdict(self):
        reduced = run_explore(dp4_spec(), workers=0)
        unreduced = run_explore(dp4_spec(symmetry=False), workers=0)
        assert reduced.violation == unreduced.violation
        assert reduced.violation.schedule == DP4_DEADLOCK
        assert reduced.unique_states < unreduced.unique_states
        assert reduced.group_size == 4  # the 4-ring's rotations
        assert unreduced.group_size == 1

    def test_certified_case_agrees_too(self):
        spec = dp4_spec(max_depth=6)
        reduced = run_explore(spec, workers=0)
        unreduced = run_explore(replace(spec, symmetry=False), workers=0)
        assert reduced.verdict == unreduced.verdict == "certified"
        assert reduced.unique_states < unreduced.unique_states


def dpp6_spec(**overrides):
    """DP'-6 to depth 12: its deeper BFS levels exceed one pool chunk,
    so ``workers=2`` really fans out (no DP-4 level does)."""
    base = dict(scenario=DPP6, max_depth=12, invariants=("exclusion",))
    base.update(overrides)
    return ExploreSpec(**base)


class TestShardingDeterminism:
    def test_sharded_report_byte_identical_to_serial(self):
        spec = dpp6_spec()
        serial = run_explore(spec, workers=0)
        sharded = run_explore(spec, workers=2)
        assert serial.workers == 0
        assert sharded.workers == 2
        assert sharded.shards > 1
        assert json.dumps(serial.report_doc(), sort_keys=True) == json.dumps(
            sharded.report_doc(), sort_keys=True
        )
        assert serial.state_digests == sharded.state_digests

    def test_probe_hits_do_not_depend_on_chunking(self):
        ring = {"topology": "ring", "size": 6, "model": "Q", "program": "random"}
        for limit in (3, 32):
            spec = ExploreSpec(scenario=ring, max_depth=8,
                               probes=("uniform", "selected"), probe_limit=limit)
            serial = run_explore(spec, workers=0)
            sharded = run_explore(spec, workers=2)
            assert sharded.workers == 2
            assert serial.probe_hits
            assert serial.probe_hits == sharded.probe_hits

    def test_checkpoint_resumes_to_identical_report(self, tmp_path):
        spec = dp4_spec(max_depth=6)
        path = str(tmp_path / "explore.ckpt.jsonl")
        first = run_explore(spec, workers=0, checkpoint=path)
        resumed = run_explore(spec, workers=0, checkpoint=path)
        assert resumed.resumed_shards > 0
        assert json.dumps(first.report_doc(), sort_keys=True) == json.dumps(
            resumed.report_doc(), sort_keys=True
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_resume_after_a_partial_run(self, tmp_path, workers):
        """Drop the last finished levels from a real checkpoint: the
        resumed run replays the rest, pooled or in-process, and reports
        exactly what an uninterrupted run does."""
        spec = dpp6_spec()
        path = tmp_path / "explore.ckpt.jsonl"
        whole = run_explore(spec, workers=workers, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-4]))
        resumed = run_explore(spec, workers=workers, checkpoint=str(path))
        assert resumed.resumed_shards == len(lines) - 5
        assert resumed.report_doc() == whole.report_doc()
        assert resumed.state_digests == whole.state_digests

    def test_torn_last_line_is_redone(self, tmp_path):
        """A process killed mid-write leaves half a line with no newline:
        resume ignores it, cuts it off, and appends whole lines after."""
        spec = dp4_spec(max_depth=6)
        path = tmp_path / "explore.ckpt.jsonl"
        whole = run_explore(spec, workers=0, checkpoint=str(path))
        data = path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[: last + (len(data) - last) // 2])
        resumed = run_explore(spec, workers=0, checkpoint=str(path))
        assert resumed.resumed_shards == whole.shards - 1
        assert resumed.report_doc() == whole.report_doc()
        assert path.read_bytes() == data
        again = run_explore(spec, workers=0, checkpoint=str(path))
        assert again.resumed_shards == whole.shards

    def test_malformed_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "explore.ckpt.jsonl"
        run_explore(dp4_spec(max_depth=6), workers=0, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ExploreError, match="not valid JSON"):
            run_explore(dp4_spec(max_depth=6), workers=0, checkpoint=str(path))

    def test_checkpoint_spec_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "explore.ckpt.jsonl")
        run_explore(dp4_spec(max_depth=6), workers=0, checkpoint=path)
        with pytest.raises(ExploreError):
            run_explore(dp4_spec(max_depth=8), workers=0, checkpoint=path)


class TestOneSearch:
    def _count_searches(self, monkeypatch, spec):
        import repro.analysis.explore as explore

        calls = []
        real = explore.run_explore

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(explore, "run_explore", counting)
        result = explore.run_explore(spec, workers=0)
        assert result.violation is not None
        return len(calls)

    def test_unreduced_bfs_violation_is_not_re_searched(self, monkeypatch):
        assert self._count_searches(monkeypatch, dp4_spec(symmetry=False)) == 1

    def test_reduced_violation_is_re_searched(self, monkeypatch):
        assert self._count_searches(monkeypatch, dp4_spec()) == 2

    def test_serial_bfs_never_replays(self, monkeypatch):
        import repro.analysis.explore as explore

        def no_replay(self, entries):
            raise AssertionError("an in-process run replayed a schedule")

        monkeypatch.setattr(explore._Walker, "replay", no_replay)
        assert run_explore(dpp6_spec(), workers=0).verdict == "certified"


#: Program seeds whose marked 3-star breaks lockstep within depth 6.
LOCKSTEP_SEEDS = (1, 7, 10, 11, 13, 17, 23, 29, 42)


def _marked_star_lockstep(seed):
    return ExploreSpec(
        scenario={"topology": "star", "size": 3, "marks": ["p0"],
                  "program": "random", "program_seed": seed},
        max_depth=6, fairness="k-bounded", k=3, invariants=("lockstep",),
    )


class TestReducedCounterexamplesWithoutResearch:
    """Pins what lifting counterexamples through the orbit quotient must
    reproduce: with the unreduced re-search bypassed, a reduced BFS
    already reports the violation unreduced BFS reports, serial and
    pooled, on these specs."""

    @pytest.mark.parametrize(
        "spec",
        [pytest.param(_marked_star_lockstep(seed),
                      id=f"star3-lockstep-seed{seed}")
         for seed in LOCKSTEP_SEEDS]
        + [pytest.param(ExploreSpec(scenario=dict(DP4, size=n),
                                    max_depth=2 * n),
                        id=f"dp{n}-left-first")
           for n in (3, 4, 5)],
    )
    def test_reduced_bfs_finds_the_unreduced_violation(self, monkeypatch,
                                                       spec):
        import repro.analysis.explore as explore

        bypassed = []

        def as_found(spec, violation, extra_invariants):
            bypassed.append(violation)
            return violation

        monkeypatch.setattr(explore, "_canonical_violation", as_found)
        unreduced = run_explore(replace(spec, symmetry=False), workers=0)
        assert unreduced.violation is not None
        assert bypassed == []  # unreduced BFS is never re-searched
        for workers in (0, 2):
            reduced = run_explore(spec, workers=workers)
            assert reduced.violation == unreduced.violation
        assert len(bypassed) == 2


def _run_snippet(snippet, seed=None):
    env = dict(os.environ)
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return proc.stdout


class TestHashSeedDeterminism:
    # Serial and sharded reports — including the sorted canonical state
    # digests — must be byte-identical across PYTHONHASHSEED values:
    # canonical keys are encoded bytes, never repr/hash-order artifacts.
    SNIPPET = (
        "import json\n"
        "from repro.analysis.explore import ExploreSpec, run_explore\n"
        "spec = ExploreSpec(scenario={'topology': 'dining', 'size': 6,"
        " 'alternating': True, 'program': 'left-first'}, max_depth=12,"
        " invariants=('exclusion',))\n"
        "serial = run_explore(spec, workers=0)\n"
        "sharded = run_explore(spec, workers=2)\n"
        "assert sharded.workers == 2\n"
        "assert serial.report_doc() == sharded.report_doc()\n"
        "print(json.dumps(sharded.report_doc(), sort_keys=True))\n"
        "print(json.dumps(list(sharded.state_digests)))\n"
    )

    def test_sharded_equals_serial_across_hash_seeds(self):
        out0 = _run_snippet(self.SNIPPET, 0)
        out42 = _run_snippet(self.SNIPPET, 42)
        assert out0 == out42
        assert '"verdict"' in out0


class TestPoolsStartNoResourceTracker:
    # Both pools pass plain task arguments and initargs; neither creates
    # shared memory, so the multiprocessing resource tracker (a process
    # that outlives the pool) is never started.
    SNIPPET = (
        "from multiprocessing import resource_tracker\n"
        "from repro.analysis.explore import ExploreSpec, run_explore\n"
        "from repro.analysis.witness_engine import SweepSpec, run_sweep\n"
        "spec = ExploreSpec(scenario={'topology': 'dining', 'size': 6,"
        " 'alternating': True, 'program': 'left-first'}, max_depth=12,"
        " invariants=('exclusion',))\n"
        "assert run_explore(spec, workers=2).workers == 2\n"
        "assert run_sweep(SweepSpec('Q', 'L', max_processors=2),"
        " workers=2).workers == 2\n"
        "print(resource_tracker._resource_tracker._pid)\n"
    )

    def test_no_resource_tracker(self):
        assert _run_snippet(self.SNIPPET).strip() == "None"


class TestCounterexampleTraces:
    def test_write_replay_verify_roundtrip(self, tmp_path):
        result = run_explore(dp4_spec(), workers=0)
        path = str(tmp_path / "ce.jsonl")
        summary = write_counterexample(result, path)
        assert summary["steps"] == result.violation.depth
        report = replay_trace(path)
        assert report.ok
        assert report.scenario["kind"] == "explore"

    def test_tampered_violation_caught_on_replay(self, tmp_path):
        result = run_explore(dp4_spec(), workers=0)
        path = str(tmp_path / "ce.jsonl")
        write_counterexample(result, path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        # claim the deadlock happens a step early: replay must notice the
        # trace no longer establishes its own violation
        header["scenario"]["violation"]["depth"] -= 1
        header["scenario"]["violation"]["schedule"] = list(
            result.violation.schedule[:-1]
        )
        lines[0] = json.dumps(header)
        tampered = str(tmp_path / "tampered.jsonl")
        open(tampered, "w").write("\n".join(lines) + "\n")
        report = replay_trace(tampered)
        assert not report.ok
        assert report.divergence.reason == "violation"

    def test_restricted_walk_verifies_the_violation(self):
        result = run_explore(dp4_spec(), workers=0)
        header = {
            "kind": "explore",
            "run": result.spec.scenario,
            "explore": result.spec.to_json(),
            "violation": result.violation.to_json(),
        }
        assert verify_counterexample(header) is None
        wrong = dict(header)
        wrong["violation"] = Violation(
            kind="deadlock",
            invariant="",
            depth=7,
            schedule=result.violation.schedule[:-1],
            detail="",
        ).to_json()
        assert verify_counterexample(wrong) is not None


class TestEvents:
    def test_progress_and_violation_events_emitted(self):
        hub = EventHub()
        ring = RingBufferSink(capacity=256)
        hub.attach(ring)
        run_explore(dp4_spec(), workers=0, hub=hub)
        progress = [e for e in ring.events() if isinstance(e, ExplorationProgress)]
        violated = [e for e in ring.events() if isinstance(e, InvariantViolated)]
        assert progress, "per-level ExplorationProgress events expected"
        assert len(violated) == 1
        assert violated[0].violation_kind == "deadlock"
        assert violated[0].depth == 8


class TestSpecValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ExploreError):
            dp4_spec(strategy="idfs")

    def test_unknown_fairness(self):
        with pytest.raises(ExploreError):
            dp4_spec(fairness="weakly")

    def test_k_requires_k_bounded(self):
        with pytest.raises(ExploreError):
            dp4_spec(k=3)

    def test_k_bounded_requires_k(self):
        with pytest.raises(ExploreError):
            dp4_spec(fairness="k-bounded")

    def test_unknown_invariant(self):
        with pytest.raises(ExploreError):
            dp4_spec(invariants=("mutual",))

    def test_livelock_needs_dfs_and_progress(self):
        with pytest.raises(ExploreError):
            dp4_spec(check_livelock=True)
        with pytest.raises(ExploreError):
            dp4_spec(strategy="dfs", check_livelock=True)

    def test_crash_scenarios_rejected(self):
        with pytest.raises(ExploreError):
            ExploreSpec(
                scenario={**DP4, "crash_at": {"phil0": 3}}, max_depth=4
            )

    def test_k_smaller_than_ring_rejected_at_run(self):
        spec = dp4_spec(fairness="k-bounded", k=4, scenario=DP5, max_depth=6)
        with pytest.raises(ExploreError):
            run_explore(spec, workers=0)

    def test_spec_json_roundtrip(self):
        spec = dp4_spec(fairness="k-bounded", k=4, probes=("uniform",))
        assert ExploreSpec.from_json(spec.to_json()) == spec

"""Checkpoint resume regressions: spec normalization and damaged lines.

A checkpoint stores ``spec.to_json()`` serialized to disk, where JSON
turns tuples into lists.  The resume path used to compare the reloaded
document against the in-memory ``spec.to_json()`` with raw ``!=`` — so
any tuple-valued field in the live spec document falsely failed the
"same spec" check and rejected a perfectly valid resume.  Both engines
now normalize each side through a JSON round-trip before comparing.

A whole line that its engine cannot read (a missing key, a value of the
wrong shape, a counter this version does not keep) is damage: resume
rejects it with the engine's own error, naming the file, never with a
raw ``KeyError`` or ``TypeError`` from deep inside the resume.
"""

import json
import os
import re
import shutil

import pytest

from repro.analysis.explore import ExploreSpec, run_explore
from repro.analysis.witness_engine import SweepSpec, run_sweep
from repro.cli import main
from repro.exceptions import ExploreError, WitnessSearchError

RING3 = {"topology": "ring", "size": 3, "model": "Q", "marks": ["p0"]}


def _tupleized_spec(**overrides):
    """An ExploreSpec whose scenario carries a tuple-valued field.

    The public constructor normalizes ``marks`` to a list, so recreate
    the latent in-memory state (e.g. a spec built from an older pickle
    or a caller passing its own normalized dict) directly: semantically
    identical, but ``to_json()`` round-trips tuple -> list.
    """
    fields = dict(scenario=RING3, max_depth=4)
    fields.update(overrides)
    spec = ExploreSpec(**fields)
    object.__setattr__(spec, "scenario",
                       {**spec.scenario, "marks": ("p0",)})
    return spec


class TestExploreCheckpointNormalization:
    def test_tuple_valued_spec_field_resumes(self, tmp_path):
        """Regression: raw ``!=`` spec compare rejected this resume."""
        path = str(tmp_path / "explore.ckpt.jsonl")
        first = run_explore(_tupleized_spec(), workers=0, checkpoint=path)

        # The checkpoint's stored spec is the JSON-normalized document...
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["spec"]["scenario"]["marks"] == ["p0"]

        # ...and resuming with the tuple-carrying live spec must work.
        resumed = run_explore(_tupleized_spec(), workers=0, checkpoint=path)
        assert resumed.resumed_shards > 0
        assert json.dumps(first.report_doc(), sort_keys=True) == json.dumps(
            resumed.report_doc(), sort_keys=True
        )

    def test_genuinely_different_spec_still_rejected(self, tmp_path):
        """Normalization must not weaken real mismatch detection."""
        path = str(tmp_path / "explore.ckpt.jsonl")
        run_explore(_tupleized_spec(), workers=0, checkpoint=path)
        with pytest.raises(ExploreError):
            run_explore(_tupleized_spec(max_depth=5), workers=0,
                        checkpoint=path)


class TestWitnessCheckpointNormalization:
    def test_resume_across_restart(self, tmp_path):
        """The same audit applies to the witness engine's checkpoint."""
        spec = SweepSpec(weaker="Q", stronger="L", max_processors=2,
                         max_names=2, max_variables=2)
        ck = str(tmp_path / "sweep.ckpt.jsonl")
        first = run_sweep(spec, workers=1, checkpoint=ck)
        # A fresh SweepSpec object (a "restarted process") resumes.
        again = SweepSpec(**json.loads(json.dumps(spec.to_json())))
        second = run_sweep(again, workers=1, checkpoint=ck)
        assert second.resumed_shards == second.shards
        assert [w.describe() for w in first.witnesses] == [
            w.describe() for w in second.witnesses
        ]

    def test_torn_last_line_is_redone(self, tmp_path):
        """A sweep killed mid-write leaves half a shard line with no
        newline: resume ignores it, cuts it off, re-runs that shard, and
        returns what an uninterrupted sweep does."""
        spec = SweepSpec(weaker="Q", stronger="L", max_processors=2,
                         max_names=2, max_variables=2)
        ck = tmp_path / "sweep.ckpt.jsonl"
        whole = run_sweep(spec, workers=1, checkpoint=str(ck))
        data = ck.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        ck.write_bytes(data[: last + (len(data) - last) // 2])
        resumed = run_sweep(spec, workers=1, checkpoint=str(ck))
        assert resumed.resumed_shards == whole.shards - 1
        assert resumed.records == whole.records
        assert [w.describe() for w in resumed.witnesses] == [
            w.describe() for w in whole.witnesses
        ]
        again = run_sweep(spec, workers=1, checkpoint=str(ck))
        assert again.resumed_shards == whole.shards


SWEEP = SweepSpec(weaker="Q", stronger="L", max_processors=2,
                  max_names=2, max_variables=2)
RING3_Q = ExploreSpec(
    scenario={"topology": "ring", "size": 3, "model": "Q"}, max_depth=4
)


def _any_line(doc):
    return True


def _damage(path, kind, edit, first_with=_any_line):
    """Apply ``edit`` to the first ``kind`` line of the checkpoint at
    ``path`` that ``first_with`` accepts, rewriting it as a whole line."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc.get("kind") == kind and first_with(doc):
            edit(doc)
            lines[i] = json.dumps(doc, sort_keys=True)
            break
    else:
        raise AssertionError(f"no {kind} line to damage in {path}")
    path.write_text("\n".join(lines) + "\n")


def _forget(key):
    return lambda doc: doc.pop(key)


def _set(key, value):
    return lambda doc: doc.update({key: value})


class TestDamagedWitnessCheckpoint:
    CASES = {
        "extra-counter": (
            lambda doc: doc["counters"].update(bogus=1), _any_line
        ),
        "no-shard": (_forget("shard"), _any_line),
        "records-a-number": (_set("records", 7), _any_line),
        "record-without-n": (
            lambda doc: doc["records"][0].pop("n"), lambda doc: doc["records"]
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_shard_line_is_a_witness_search_error(self, tmp_path, case):
        ck = tmp_path / "sweep.ckpt.jsonl"
        run_sweep(SWEEP, workers=1, checkpoint=str(ck))
        edit, first_with = self.CASES[case]
        _damage(ck, "shard", edit, first_with)
        with pytest.raises(WitnessSearchError, match=re.escape(str(ck))):
            run_sweep(SWEEP, workers=1, checkpoint=str(ck))

    def test_pre_change_counters_are_rejected(self, tmp_path):
        """A checkpoint written when the sweep kept store counters: its
        shards carry ``store_hits``/``store_misses``, which this version
        does not read, so resume names the file instead of trusting it."""
        ck = tmp_path / "sweep.ckpt.jsonl"
        run_sweep(SWEEP, workers=1, checkpoint=str(ck))
        lines = [json.loads(line) for line in ck.read_text().splitlines()]
        for doc in lines:
            if doc["kind"] == "shard":
                doc["counters"].update(store_hits=0, store_misses=1)
        ck.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        with pytest.raises(WitnessSearchError, match=re.escape(str(ck))):
            run_sweep(SWEEP, workers=1, checkpoint=str(ck))


#: A serial ``witness Q L --max-processors 3 --max-names 2
#: --max-variables 2`` checkpoint from a release whose shard lines also
#: carried the decisions their shard made (``cache``), cut to its first
#: 7 of 15 shard lines, with every one of the 17 decisions in them
#: flipped.  A resume that trusted them would report 8 witnesses.
FLIPPED = os.path.join(
    os.path.dirname(__file__), "data", "sweep_q_l_flipped_decisions.jsonl"
)
Q_L_322 = SweepSpec(weaker="Q", stronger="L", max_processors=3,
                    max_names=2, max_variables=2)


class TestCheckpointDecisionsAreNotRead:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_flipped_decisions_resume_to_the_uninterrupted_list(
        self, tmp_path, workers
    ):
        whole = run_sweep(Q_L_322, workers=0)
        assert len(whole.witnesses) == 6
        ck = tmp_path / "sweep.ckpt.jsonl"
        shutil.copy(FLIPPED, ck)
        before = [json.loads(line) for line in ck.read_text().splitlines()]
        shards = [doc for doc in before if doc["kind"] == "shard"]
        assert len(shards) == 7
        assert sum(len(entry[2]) for doc in shards for entry in doc["cache"]) == 17
        resumed = run_sweep(Q_L_322, workers=workers, checkpoint=str(ck))
        assert resumed.resumed_shards == 7
        assert resumed.records == whole.records
        assert [w.describe() for w in resumed.witnesses] == [
            w.describe() for w in whole.witnesses
        ]
        after = [json.loads(line) for line in ck.read_text().splitlines()]
        appended = after[len(before):]
        assert len(appended) == 8
        assert not any("cache" in doc for doc in appended)


class TestDamagedExploreCheckpoint:
    CASES = {
        "no-depth": _forget("depth"),
        "result-a-number": _set("result", 3),
        "result-without-stats": lambda doc: doc["result"].pop("stats"),
        "violation-without-kind": lambda doc: doc["result"].update(
            violation={"invariant": "", "depth": 1, "schedule": ["p0"],
                       "detail": "edited in"}
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_level_line_is_an_explore_error(self, tmp_path, case):
        ck = tmp_path / "explore.ckpt.jsonl"
        run_explore(RING3_Q, workers=1, checkpoint=str(ck))
        _damage(ck, "level", self.CASES[case])
        with pytest.raises(ExploreError, match=re.escape(str(ck))):
            run_explore(RING3_Q, workers=1, checkpoint=str(ck))


class TestDamagedCheckpointOnTheCommandLine:
    @pytest.mark.parametrize("argv,kind,key", [
        (["witness", "Q", "L", "--max-processors", "2",
          "--max-variables", "2", "--workers", "1"], "shard", "shard"),
        (["explore", "ring", "3", "--model", "Q", "--max-depth", "4",
          "--workers", "1"], "level", "depth"),
    ])
    def test_exits_with_one_line_naming_the_file(
        self, tmp_path, capsys, argv, kind, key
    ):
        ck = tmp_path / "ck.jsonl"
        argv = argv + ["--checkpoint", str(ck)]
        main(argv)
        _damage(ck, kind, _forget(key))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(ck) in str(exit_info.value.code)

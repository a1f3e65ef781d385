"""Checkpoint spec-compare regressions: JSON round-trip normalization.

A checkpoint stores ``spec.to_json()`` serialized to disk, where JSON
turns tuples into lists.  The resume path used to compare the reloaded
document against the in-memory ``spec.to_json()`` with raw ``!=`` — so
any tuple-valued field in the live spec document falsely failed the
"same spec" check and rejected a perfectly valid resume.  Both engines
now normalize each side through a JSON round-trip before comparing.
"""

import json

import pytest

from repro.analysis.explore import ExploreSpec, run_explore
from repro.analysis.witness_engine import SweepSpec, run_sweep
from repro.exceptions import ExploreError

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

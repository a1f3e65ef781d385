"""Tests for the sharded witness-sweep engine.

The load-bearing property is *agreement*: on any worker count, with or
without checkpoints, warm or cold cache, the engine must return the
exact witness list of the serial reference loop -- same systems, same
order -- and that list must be byte-identical across ``PYTHONHASHSEED``
values.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import find_witnesses
from repro.analysis.witness_engine import (
    DecisionCache,
    SweepSpec,
    WitnessRecord,
    _iter_shard_records,
    _sweep_shard,
    run_sweep,
    shard_plan,
)
from repro.core.quotient import are_isomorphic
from repro.core.system import InstructionSet, ScheduleClass
from repro.exceptions import WitnessSearchError
from repro.obs import EventHub, RingBufferSink

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Small bounds that keep a full sweep under a second.
SMALL = dict(max_processors=2, max_names=2, max_variables=3)


def descriptions(result):
    return [w.describe() for w in result.witnesses]


def _classes(records, iset, sched):
    """One representative system per isomorphism class of ``records``."""
    classes = []
    for record in records:
        system = record.system(iset, sched)
        if not any(are_isomorphic(system, other) for other in classes):
            classes.append(system)
    return classes


class TestSweepSpec:
    def test_unknown_label_rejected(self):
        with pytest.raises(WitnessSearchError, match="unknown model label"):
            SweepSpec("Q", "nope")

    def test_json_roundtrip(self):
        spec = SweepSpec("Q", "L", allow_marks=True, limit=3)
        assert SweepSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_processors", "3"),
            ("max_variables", 2.5),
            ("limit", "x"),
            ("max_names", 0),
            ("allow_marks", "yes"),
            ("limit", 0),
            ("max_processors", True),
        ],
        ids=["processors-str", "variables-float", "limit-str", "names-zero",
             "marks-str", "limit-zero", "processors-bool"],
    )
    def test_malformed_field_rejected(self, field, value):
        """A bad bound fails at construction, naming its field, instead of
        as a TypeError inside the sweep (or, for ``limit=0``, as a serial
        run returning no witness where a pooled one returned one)."""
        with pytest.raises(WitnessSearchError, match=field):
            SweepSpec("Q", "L", **{field: value})
        doc = dict(SweepSpec("Q", "L").to_json(), **{field: value})
        with pytest.raises(WitnessSearchError, match=field):
            SweepSpec.from_json(doc)


class TestWitnessRecord:
    def test_json_roundtrip(self):
        record = WitnessRecord(2, 1, (0, 1), mark="v0")
        assert WitnessRecord.from_json(record.to_json()) == record

    def test_rebuilds_marked_variable_system(self):
        record = WitnessRecord(2, 1, (0, 0), mark="v0")
        system = record.system(InstructionSet.Q, ScheduleClass.FAIR)
        assert system.state0("v0") == 1
        assert all(system.state0(p) == 0 for p in system.processors)


class TestShardPlan:
    def test_partitions_enumeration_exactly(self):
        """Every candidate record appears in exactly one shard."""
        spec = SweepSpec("Q", "L", **SMALL)
        counts = {}
        for shard in shard_plan(spec):
            for record in _iter_shard_records(spec, shard):
                counts[record] = counts.get(record, 0) + 1
        assert counts
        assert all(count == 1 for count in counts.values())

    def test_plan_is_spec_deterministic(self):
        spec = SweepSpec("Q", "L", **SMALL)
        assert shard_plan(spec) == shard_plan(SweepSpec("Q", "L", **SMALL))


class TestAgreement:
    def test_sharded_matches_serial(self):
        spec = SweepSpec("Q", "L", **SMALL)
        serial = run_sweep(spec, workers=0)
        sharded = run_sweep(spec, workers=2)
        assert serial.records == sharded.records
        assert descriptions(serial) == descriptions(sharded)
        assert sharded.workers == 2

    def test_wrapper_identical_to_engine(self):
        wrapper = find_witnesses("Q", "L", max_processors=2, limit=10**9)
        engine = run_sweep(SweepSpec("Q", "L", max_processors=2), workers=2)
        assert [w.describe() for w in wrapper] == descriptions(engine)

    def test_limit_prefixes_the_unlimited_list(self):
        spec_all = SweepSpec("Q", "L", **SMALL)
        spec_one = SweepSpec("Q", "L", limit=1, **SMALL)
        full = run_sweep(spec_all, workers=0)
        first = run_sweep(spec_one, workers=0)
        assert first.records == full.records[:1]

    def test_unreached_limit_classifies_each_record_once(self, monkeypatch):
        """A serial sweep whose limit is never reached computes the
        canonical forms an unlimited one does, for the same witnesses,
        and a reached limit stops early with the first ``limit`` ones."""
        import repro.core.quotient as quotient

        calls = []
        real = quotient.canonical_form

        def counting(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(quotient, "canonical_form", counting)
        counts, results = [], []
        for limit in (None, 10**6, 4):
            calls.clear()
            spec = SweepSpec("Q", "L", allow_marks=True, limit=limit, **SMALL)
            results.append(run_sweep(spec, workers=0))
            counts.append(len(calls))
        full, unreached, reached = results
        assert counts[0] == counts[1] > 0
        assert len(full.records) == 11
        assert unreached.records == full.records
        assert reached.records == full.records[:4]
        assert reached.stats.enumerated < full.stats.enumerated

    @settings(max_examples=5, deadline=None)
    @given(
        n_procs=st.integers(min_value=1, max_value=2),
        n_names=st.integers(min_value=1, max_value=2),
        n_vars=st.integers(min_value=1, max_value=3),
        allow_marks=st.booleans(),
        pair=st.sampled_from([("Q", "L"), ("bounded-fair-S", "Q")]),
        limit=st.sampled_from([None, 1, 3]),
    )
    def test_randomized_bounds_agree(
        self, n_procs, n_names, n_vars, allow_marks, pair, limit
    ):
        spec = SweepSpec(
            pair[0],
            pair[1],
            max_processors=n_procs,
            max_names=n_names,
            max_variables=n_vars,
            allow_marks=allow_marks,
            limit=limit,
        )
        serial = run_sweep(spec, workers=0)
        sharded = run_sweep(spec, workers=2)
        assert serial.records == sharded.records
        assert descriptions(serial) == descriptions(sharded)
        if limit is not None:
            assert len(serial.records) <= limit


class TestFormMemo:
    def test_sweep_computes_each_form_once_per_system(self, monkeypatch):
        """Every canonical form the sweep needs -- dedup buckets, cache
        buckets, the merge pass and each ``are_isomorphic`` confirmation
        -- comes from one computation per ``System`` object."""
        import repro.core.quotient as quotient

        computed = []  # the systems themselves, so no id is reused
        original = quotient.canonical_form

        def counting(system):
            computed.append(system)
            return original(system)

        monkeypatch.setattr(quotient, "canonical_form", counting)
        for weaker, stronger in (("bounded-fair-S", "Q"), ("L", "L2")):
            run_sweep(SweepSpec(weaker, stronger, **SMALL), workers=0)
        ids = [id(system) for system in computed]
        assert ids
        assert len(ids) == len(set(ids))


class TestDecisionCache:
    def test_warm_cache_decides_without_misses(self):
        spec = SweepSpec("Q", "L", max_processors=2, max_names=1)
        cache = DecisionCache()
        cold = run_sweep(spec, workers=0, cache=cache)
        assert cold.stats.cache_misses > 0
        warm = run_sweep(spec, workers=0, cache=cache)
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits > 0
        assert warm.records == cold.records

    def test_pool_workers_start_empty(self):
        """A pooled sweep neither seeds its workers from the caller's
        cache nor folds their decisions back into it."""
        spec = SweepSpec("Q", "L", **SMALL)
        cache = DecisionCache()
        serial = run_sweep(spec, workers=0, cache=cache)
        entries, misses = len(cache), cache.misses
        pooled = run_sweep(spec, workers=2, cache=cache)
        assert pooled.stats.cache_misses > 0
        assert (len(cache), cache.misses) == (entries, misses)
        assert pooled.cache is cache
        assert pooled.records == serial.records

    def test_one_entry_per_isomorphism_class(self):
        """The cache is the sweep's dedup table: each shard's ``novel``
        count is the number of isomorphism classes among its candidates,
        and the cache ends with one entry per class of the whole sweep
        (both checked against a pairwise ``are_isomorphic`` scan)."""
        spec = SweepSpec("Q", "L", **SMALL)
        iset, sched = spec.weak_model
        cache = DecisionCache()
        everything = []
        for shard in shard_plan(spec):
            records = list(_iter_shard_records(spec, shard))
            _found, stats = _sweep_shard(spec, shard, cache)
            assert stats.novel == len(_classes(records, iset, sched))
            assert stats.novel + stats.dedup_skips == len(records)
            everything += records
        assert len(cache) == len(_classes(everything, iset, sched))

    def test_cache_shared_across_model_pairs(self):
        """The weaker-model decisions of a Q<L sweep are reusable as the
        stronger-model decisions of a BFS<Q sweep over the same bounds."""
        cache = DecisionCache()
        run_sweep(SweepSpec("Q", "L", max_processors=2, max_names=1), workers=0, cache=cache)
        second = run_sweep(
            SweepSpec("bounded-fair-S", "Q", max_processors=2, max_names=1),
            workers=0,
            cache=cache,
        )
        assert second.stats.cache_hits > 0


class TestCheckpoint:
    def test_full_resume_skips_every_shard(self, tmp_path):
        spec = SweepSpec("Q", "L", **SMALL)
        ck = str(tmp_path / "sweep.jsonl")
        first = run_sweep(spec, workers=0, checkpoint=ck)
        assert first.resumed_shards == 0
        second = run_sweep(spec, workers=0, checkpoint=ck)
        assert second.resumed_shards == first.shards
        assert second.records == first.records
        assert second.stats.to_json() == first.stats.to_json()
        assert second.elapsed < first.elapsed

    def test_partial_resume_completes_the_sweep(self, tmp_path):
        spec = SweepSpec("Q", "L", **SMALL)
        full_ck = str(tmp_path / "full.jsonl")
        full = run_sweep(spec, workers=0, checkpoint=full_ck)
        with open(full_ck) as fh:
            lines = fh.readlines()
        partial_ck = str(tmp_path / "partial.jsonl")
        with open(partial_ck, "w") as fh:
            fh.writelines(lines[:4])  # meta + first three shards
        resumed = run_sweep(spec, workers=0, checkpoint=partial_ck)
        assert resumed.resumed_shards == 3
        assert resumed.records == full.records
        # The resumed run appended the remaining shards: a further resume
        # re-runs nothing.
        third = run_sweep(spec, workers=0, checkpoint=partial_ck)
        assert third.resumed_shards == third.shards

    def test_sharded_run_resumes_serial_checkpoint(self, tmp_path):
        spec = SweepSpec("Q", "L", **SMALL)
        ck = str(tmp_path / "sweep.jsonl")
        serial = run_sweep(spec, workers=0, checkpoint=ck)
        sharded = run_sweep(spec, workers=2, checkpoint=ck)
        assert sharded.resumed_shards == serial.shards
        assert sharded.records == serial.records

    def test_spec_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "sweep.jsonl")
        run_sweep(SweepSpec("Q", "L", max_processors=1), workers=0, checkpoint=ck)
        with pytest.raises(WitnessSearchError, match="different sweep spec"):
            run_sweep(SweepSpec("Q", "L", max_processors=2), workers=0, checkpoint=ck)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        ck.write_text("not json\n")
        with pytest.raises(WitnessSearchError, match="not valid JSON"):
            run_sweep(SweepSpec("Q", "L", max_processors=1), workers=0, checkpoint=str(ck))


class TestEvents:
    def test_progress_and_witness_events(self):
        hub = EventHub()
        sink = hub.attach(RingBufferSink())
        spec = SweepSpec("Q", "L", max_processors=2, max_names=1)
        result = run_sweep(spec, workers=0, hub=hub)
        progress = sink.events(kind="witness-shard")
        found = sink.events(kind="witness")
        assert len(progress) == result.shards
        assert not any(e.resumed for e in progress)
        assert sum(e.enumerated for e in progress) == result.stats.enumerated
        assert len(found) == len(result.witnesses)
        assert [e.index for e in found] == list(range(len(found)))
        assert all(e.weaker == "Q" and e.stronger == "L" for e in found)

    def test_resumed_shards_emit_resumed_events(self, tmp_path):
        spec = SweepSpec("Q", "L", max_processors=2, max_names=1)
        ck = str(tmp_path / "sweep.jsonl")
        run_sweep(spec, workers=0, checkpoint=ck)
        hub = EventHub()
        sink = hub.attach(RingBufferSink())
        result = run_sweep(spec, workers=0, checkpoint=ck, hub=hub)
        progress = sink.events(kind="witness-shard")
        assert len(progress) == result.shards
        assert all(e.resumed for e in progress)


class TestHashSeedDeterminism:
    SNIPPET = (
        "from repro.analysis import find_witnesses\n"
        "ws = find_witnesses('Q', 'L', max_processors=2, allow_marks=True,"
        " limit=100)\n"
        "print('\\n'.join(w.describe() for w in ws))\n"
    )

    def _run(self, seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        return proc.stdout

    def test_witness_list_identical_across_hash_seeds(self):
        out0 = self._run(0)
        out42 = self._run(42)
        assert out0 == out42
        assert out0.strip()  # the sweep actually found witnesses

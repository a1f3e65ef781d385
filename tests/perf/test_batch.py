"""Unit tests for `repro.perf.batch`: fingerprints and batch similarity."""

import pytest

from repro.core import InstructionSet, System, compute_similarity_labeling, single_mark_family
from repro.perf import BatchReport, batch_similarity, system_fingerprint
from repro.topologies import ring


def family(n=12, members=None):
    return single_mark_family(ring(n), processors=members)


class TestFingerprint:
    def test_equal_systems_equal_fingerprints(self):
        a = System(ring(5), {"p0": 1}, InstructionSet.Q)
        b = System(ring(5), {"p0": 1}, InstructionSet.Q)
        assert system_fingerprint(a) == system_fingerprint(b)

    def test_state_changes_fingerprint(self):
        a = System(ring(5), {"p0": 1}, InstructionSet.Q)
        b = System(ring(5), {"p1": 1}, InstructionSet.Q)
        c = System(ring(5), None, InstructionSet.Q)
        assert len({system_fingerprint(s) for s in (a, b, c)}) == 3

    def test_instruction_set_changes_fingerprint(self):
        a = System(ring(5), None, InstructionSet.Q)
        b = System(ring(5), None, InstructionSet.L)
        assert system_fingerprint(a) != system_fingerprint(b)


class TestBatchSimilarity:
    def test_results_in_input_order(self):
        fam = family()
        report = batch_similarity(fam.members, workers=0)
        assert isinstance(report, BatchReport)
        assert len(report.results) == len(fam.members)
        direct = [
            compute_similarity_labeling(m).labeling for m in fam.members
        ]
        for got, want, member in zip(report.results, direct, fam.members):
            assert {n: got.labeling[n] for n in member.nodes} == {
                n: want[n] for n in member.nodes
            }

    def test_duplicates_solved_once(self):
        members = family(8, members=["p0", "p1"]).members
        batch = list(members) * 3
        report = batch_similarity(batch, workers=0)
        assert report.distinct == 2
        assert report.cache_misses == 2
        assert report.cache_hits == 4
        assert len(report.results) == 6
        assert report.results[0] is report.results[2] is report.results[4]

    def test_process_pool_matches_serial(self):
        fam = family(10)
        serial = batch_similarity(fam.members, workers=0)
        pooled = batch_similarity(fam.members, workers=2)
        assert pooled.workers == 2
        for a, b, member in zip(serial.results, pooled.results, fam.members):
            assert {n: a.labeling[n] for n in member.nodes} == {
                n: b.labeling[n] for n in member.nodes
            }

    def test_empty_batch(self):
        report = batch_similarity([], workers=0)
        assert report.results == ()
        assert report.distinct == 0

    @pytest.mark.parametrize("engine", ["literal", "signatures", "worklist"])
    def test_engine_forwarded(self, engine):
        members = family(6, members=["p0"]).members
        report = batch_similarity(members, engine=engine, workers=0)
        direct = compute_similarity_labeling(members[0], engine=engine)
        assert {n: report.results[0].labeling[n] for n in members[0].nodes} == {
            n: direct.labeling[n] for n in members[0].nodes
        }

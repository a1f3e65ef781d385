"""Tests for the automatic separation-witness search."""

import pytest

from repro.analysis import enumerate_networks, find_witnesses, smallest_witness
from repro.analysis.witness_engine import SweepSpec, _iter_shard_records, shard_plan
from repro.core import decide_selection


class TestEnumeration:
    def test_dense_prefix_only(self):
        nets = list(enumerate_networks(1, 1, 3))
        # One processor, one name: only v0 can be used densely.
        assert len(nets) == 1

    def test_two_procs_one_name(self):
        nets = list(enumerate_networks(2, 1, 2))
        # (v0,v0) and (v0,v1); (v1,v0) is a non-dense duplicate... it is
        # dense? assignment (1,0) uses {0,1} densely -> allowed, but
        # isomorphic to (0,1).  Enumeration keeps both; dedup happens in
        # the searcher.
        assert len(nets) >= 2


    @pytest.mark.parametrize("bounds", [(1, 1, 3), (2, 1, 2), (2, 2, 3)])
    def test_networks_of_the_engines_unmarked_records(self, bounds):
        """The same dense-assignment rule and edge layout as the sweep:
        the networks of its unmarked records, in enumeration order."""
        n_procs, n_names, n_vars = bounds
        spec = SweepSpec("Q", "L", max_processors=n_procs,
                         max_names=n_names, max_variables=n_vars,
                         allow_marks=True)
        records = [
            record
            for shard in shard_plan(spec)
            if shard[:2] == (n_procs, n_names)
            for record in _iter_shard_records(spec, shard)
            if record.mark is None
        ]
        assert records
        assert list(enumerate_networks(n_procs, n_names, n_vars)) == [
            record.network() for record in records
        ]


class TestSearch:
    def test_rediscovers_figure1_for_q_vs_l(self):
        w = smallest_witness("Q", "L")
        assert w is not None
        net = w.system.network
        assert len(net.processors) == 2
        assert len(net.variables) == 1  # exactly the Figure 1 shape

    def test_finds_three_processor_bfs_q_witness(self):
        """Smaller than Figure 2: two writers on one variable, one on
        another, a single name."""
        w = smallest_witness("bounded-fair-S", "Q")
        assert w is not None
        assert len(w.system.network.processors) == 3
        assert len(w.system.names) == 1

    def test_rediscovers_swapped_pair_for_l_vs_l2(self):
        w = smallest_witness("L", "L2")
        assert w is not None
        net = w.system.network
        assert len(net.processors) == 2
        assert len(net.variables) == 2

    def test_witness_actually_separates(self):
        for weaker, stronger in (("Q", "L"), ("bounded-fair-S", "Q")):
            w = smallest_witness(weaker, stronger)
            from repro.core.hierarchy import MODEL_AXIS

            models = {label: (i, s) for label, i, s in MODEL_AXIS}
            wi, ws = models[weaker]
            si, ss = models[stronger]
            weak_sys = w.system.with_instruction_set(wi).with_schedule_class(ws)
            strong_sys = w.system.with_instruction_set(si).with_schedule_class(ss)
            assert not decide_selection(weak_sys).possible
            assert decide_selection(strong_sys).possible

    def test_limit_respected(self):
        found = find_witnesses("Q", "L", limit=3)
        assert 1 <= len(found) <= 3

    def test_describe_is_readable(self):
        w = smallest_witness("Q", "L")
        text = w.describe()
        assert "p0" in text and "->" in text


class TestVariableMarks:
    def test_variable_marked_witness_reachable(self):
        """Regression: ``allow_marks`` used to mark only processors, so a
        witness that needs a marked *variable* was unreachable.  Within
        2 processors / 1 name / 1 variable the marked-variable two-ring
        is a Q<L witness that only exists with variable marks."""
        found = find_witnesses(
            "Q",
            "L",
            max_processors=2,
            max_names=1,
            max_variables=1,
            allow_marks=True,
            limit=10,
        )
        marked_vars = [
            w
            for w in found
            if any(
                w.system.state0(v) != 0 for v in w.system.network.variables
            )
        ]
        assert marked_vars
        assert "marks=['v0']" in marked_vars[0].describe()

    def test_both_node_kinds_enumerated_as_marks(self):
        from repro.analysis.witness_engine import (
            SweepSpec,
            _iter_shard_records,
            shard_plan,
        )

        spec = SweepSpec(
            "Q",
            "L",
            max_processors=2,
            max_names=1,
            max_variables=2,
            allow_marks=True,
        )
        marks = {
            record.mark
            for shard in shard_plan(spec)
            for record in _iter_shard_records(spec, shard)
        }
        assert {None, "p0", "p1", "v0"} <= marks

"""Tests for quotient systems and canonical forms."""

import pytest

from repro.core import (
    InstructionSet,
    Network,
    System,
    are_isomorphic,
    canonical_form,
    quotient_system,
    similarity_structures_equal,
)
from repro.topologies import dining_system, figure1_system, figure2_system, path, ring, star


class TestQuotient:
    def test_figure2_quotient_shape(self, fig2_q):
        q = quotient_system(fig2_q)
        assert q.processor_class_count == 2
        assert q.variable_class_count == 3
        sizes = sorted(size for _l, size, _s in q.pclasses)
        assert sizes == [1, 2]

    def test_anonymous_ring_quotient_is_tiny(self):
        system = System(ring(7), None, InstructionSet.Q)
        q = quotient_system(system)
        assert q.processor_class_count == 1
        assert q.variable_class_count == 1
        assert q.class_size(q.pclasses[0][0]) == 7

    def test_quotient_edge_counts(self, fig1_q):
        q = quotient_system(fig1_q)
        assert len(q.edges) == 1
        assert q.edges[0].count == 2  # two n-writers per (the) variable

    def test_selection_off_the_quotient(self, fig2_q, fig1_q):
        assert quotient_system(fig2_q).selection_possible()
        assert not quotient_system(fig1_q).selection_possible()

    def test_unknown_class_size(self, fig1_q):
        with pytest.raises(KeyError):
            quotient_system(fig1_q).class_size("nope")


class TestSimilarityStructure:
    def test_same_system_equal(self, fig2_q):
        assert similarity_structures_equal(fig2_q, fig2_q)

    def test_different_sizes_not_equal(self):
        a = System(star(3), None, InstructionSet.Q)
        b = System(star(4), None, InstructionSet.Q)
        assert not similarity_structures_equal(a, b)

    def test_relabeled_copy_equal(self):
        a = System(ring(4), None, InstructionSet.Q)
        net_b = ring(4, prefix="other")
        b = System(net_b, None, InstructionSet.Q)
        assert similarity_structures_equal(a, b)

    def test_rings_of_different_sizes_share_structure(self):
        """Same similarity structure at different scale: an anonymous
        4-ring and 8-ring both quotient to one processor class and one
        variable class.  Regression: the old check demanded *equal*
        per-class member counts (4 vs 8) instead of proportional ones,
        so any same-structure different-size pair came back unequal."""
        a = System(ring(4), None, InstructionSet.Q)
        b = System(ring(8), None, InstructionSet.Q)
        assert similarity_structures_equal(a, b)
        assert similarity_structures_equal(b, a)

    def test_marked_rings_of_different_sizes_differ(self):
        """Marking breaks the scaling: distance-from-mark classes differ
        in number between a 4-ring and an 8-ring."""
        a = System(ring(4), {"p0": 1}, InstructionSet.Q)
        b = System(ring(8), {"p0": 1}, InstructionSet.Q)
        assert not similarity_structures_equal(a, b)

    def test_figures_still_distinguished(self):
        assert not similarity_structures_equal(figure1_system(), figure2_system())


class TestIsomorphism:
    def test_renamed_ring_isomorphic(self):
        a = System(ring(5), None, InstructionSet.Q)
        b = System(ring(5, prefix="q"), None, InstructionSet.Q)
        assert are_isomorphic(a, b)

    def test_rotated_mark_isomorphic(self):
        a = System(ring(4), {"p0": 1}, InstructionSet.Q)
        b = System(ring(4), {"p2": 1}, InstructionSet.Q)
        assert are_isomorphic(a, b)

    def test_different_marks_not_isomorphic(self):
        a = System(ring(4), {"p0": 1}, InstructionSet.Q)
        b = System(ring(4), {"p0": 1, "p1": 1}, InstructionSet.Q)
        assert not are_isomorphic(a, b)

    def test_ring_vs_path_not_isomorphic(self):
        a = System(ring(3), None, InstructionSet.Q)
        b = System(path(3), None, InstructionSet.Q)
        assert not are_isomorphic(a, b)

    def test_canonical_form_invariance(self):
        a = System(ring(4), {"p1": 1}, InstructionSet.Q)
        b = System(ring(4), {"p3": 1}, InstructionSet.Q)
        assert canonical_form(a) == canonical_form(b)

    def test_dining_orientations_differ(self):
        a = dining_system(6).with_instruction_set(InstructionSet.Q)
        b = dining_system(6, alternating=True).with_instruction_set(InstructionSet.Q)
        assert not are_isomorphic(a, b)

    def test_one_matcher_context_per_union(self, monkeypatch):
        """Every candidate image of the anchor is tried in one matcher
        context, so the union is refined once, not once per candidate."""
        from repro.core import automorphism

        built = []
        real_init = automorphism._MatcherContext.__init__

        def counting_init(ctx, system, ignore_state):
            built.append(system)
            real_init(ctx, system, ignore_state)

        monkeypatch.setattr(
            automorphism._MatcherContext, "__init__", counting_init
        )
        a = System(ring(5), {"p0": 1}, InstructionSet.Q)
        b = System(ring(5), {"p3": 1}, InstructionSet.Q)
        assert are_isomorphic(a, b)  # the anchor's image is b's 4th processor
        assert len(built) == 1


class TestDisconnectedIsomorphism:
    """Regression: the union-automorphism matcher pins one processor,
    which only forces that processor's *component* to swap sides; on a
    disconnected system the other components could map to themselves and
    the side-swap check reported a false negative."""

    def _sys(self, edges, state=None):
        return System(Network(["n"], edges), state, InstructionSet.Q)

    def test_two_component_systems_isomorphic(self):
        a = self._sys({"p0": {"n": "v0"}, "p1": {"n": "v1"}})
        b = self._sys({"q0": {"n": "w0"}, "q1": {"n": "w1"}})
        assert are_isomorphic(a, b)

    def test_mark_on_either_component_matches(self):
        a = self._sys({"p0": {"n": "v0"}, "p1": {"n": "v1"}}, {"p0": 1})
        b = self._sys({"q0": {"n": "w0"}, "q1": {"n": "w1"}}, {"q1": 1})
        assert are_isomorphic(a, b)

    def test_component_structure_distinguished(self):
        split = self._sys({"p0": {"n": "v0"}, "p1": {"n": "v1"}})
        shared = self._sys({"p0": {"n": "v0"}, "p1": {"n": "v0"}})
        assert not are_isomorphic(split, shared)

    def test_component_multiset_distinguished(self):
        # two 2-processor components vs a 3+1 split: same processor and
        # variable counts, different component multisets
        a = self._sys(
            {"p0": {"n": "v0"}, "p1": {"n": "v0"},
             "p2": {"n": "v1"}, "p3": {"n": "v1"}}
        )
        b = self._sys(
            {"p0": {"n": "v0"}, "p1": {"n": "v0"},
             "p2": {"n": "v0"}, "p3": {"n": "v1"}}
        )
        assert not are_isomorphic(a, b)

    def test_repeated_tests_reuse_components_intact(self):
        # Regression for the component memo: the matcher deletes matched
        # components from its working list, which must be a copy of the
        # tuple every later test of ``b`` reads.
        a = self._sys(
            {"p0": {"n": "v0"}, "p1": {"n": "v0"}, "p2": {"n": "v1"}}
        )
        b = self._sys(
            {"q0": {"n": "w1"}, "q1": {"n": "w0"}, "q2": {"n": "w1"}}
        )
        assert len(b.components) == 2
        for _ in range(3):
            assert are_isomorphic(a, b)
            assert are_isomorphic(b, a)
        assert len(b.components) == 2
        assert a.iso_form == canonical_form(a)

    def test_permuted_components_match(self):
        # same component multiset listed in a different order
        a = self._sys(
            {"p0": {"n": "v0"}, "p1": {"n": "v0"}, "p2": {"n": "v1"}}
        )
        b = self._sys(
            {"p0": {"n": "v1"}, "p1": {"n": "v0"}, "p2": {"n": "v1"}}
        )
        assert are_isomorphic(a, b)


class TestProcessorFreeIsomorphism:
    """Regression: ``are_isomorphic`` indexed ``a.processors[0]`` and so
    crashed with IndexError on processor-free systems (declared
    variables, no edges)."""

    def _system(self, variables, state=None):
        net = Network(["n"], {}, variables=variables)
        return System(net, state, InstructionSet.Q)

    def test_renamed_processor_free_systems_isomorphic(self):
        a = self._system(["x", "y"])
        b = self._system(["u", "w"])
        assert are_isomorphic(a, b)

    def test_state_multisets_decide(self):
        unmarked = self._system(["x", "y"])
        marked = self._system(["x", "y"], {"x": 1})
        other_marked = self._system(["u", "w"], {"w": 1})
        assert not are_isomorphic(unmarked, marked)
        assert are_isomorphic(marked, other_marked)

    def test_variable_count_mismatch(self):
        assert not are_isomorphic(self._system(["x", "y"]), self._system(["x"]))


class TestIsolatedVariableIsomorphism:
    """Variables declared without edges are invisible to the edge-driven
    automorphism matcher; their initial states must still be compared."""

    def _system(self, isolated, state=None):
        net = Network(["n"], {"p0": {"n": "v0"}}, variables=["v0", isolated])
        return System(net, state, InstructionSet.Q)

    def test_renamed_isolated_variable_isomorphic(self):
        assert are_isomorphic(self._system("z"), self._system("t"))

    def test_marked_isolated_variable_matches_marked(self):
        a = self._system("z", {"z": 1})
        b = self._system("t", {"t": 1})
        assert are_isomorphic(a, b)

    def test_marked_isolated_variable_differs_from_unmarked(self):
        assert not are_isomorphic(self._system("z", {"z": 1}), self._system("t"))

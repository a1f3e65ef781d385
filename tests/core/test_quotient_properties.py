"""Property tests for quotients and canonical forms."""

from hypothesis import given, settings

from repro.core import (
    are_isomorphic,
    canonical_form,
    compute_similarity_labeling,
    decide_selection,
    quotient_system,
    similarity_structures_equal,
)

from ..strategies import systems

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(systems())
def test_quotient_class_counts_match_theta(system):
    theta = compute_similarity_labeling(system).labeling
    q = quotient_system(system, theta)
    assert q.processor_class_count + q.variable_class_count == len(theta.labels)


@SETTINGS
@given(systems())
def test_quotient_sizes_sum_to_node_counts(system):
    q = quotient_system(system)
    assert sum(s for _l, s, _st in q.pclasses) == len(system.processors)
    assert sum(s for _l, s, _st in q.vclasses) == len(system.variables)


@SETTINGS
@given(systems())
def test_quotient_selection_matches_full_decision(system):
    """For Q systems the quotient answers the selection question."""
    q = quotient_system(system)
    assert q.selection_possible() == decide_selection(system).possible


def _renamed(system, tag):
    """A new system object, isomorphic to ``system``, nodes tagged."""
    return type(system)(
        system.network.relabeled(lambda n: (tag, n)),
        {(tag, n): system.state0(n) for n in system.nodes},
        system.instruction_set,
        system.schedule_class,
    )


def _rebuilt(system):
    """An equal system object with nothing memoized yet."""
    return type(system)(
        system.network.relabeled(lambda n: n),
        system.initial_state,
        system.instruction_set,
        system.schedule_class,
    )


@SETTINGS
@given(systems())
def test_canonical_form_invariant_under_renaming(system):
    renamed = _renamed(system, "renamed")
    assert canonical_form(system) == canonical_form(renamed)
    assert similarity_structures_equal(system, renamed)


@SETTINGS
@given(systems(max_processors=4), systems(max_processors=4))
def test_memoized_forms_give_stable_answers(a, b):
    """``are_isomorphic`` reads each system's form and components from a
    memo on the system.  Asking twice on the same objects and once on
    rebuilt copies must give one answer, and a renamed copy must stay
    isomorphic however often it is tested -- including on
    multi-component systems, whose shared component tuple the matcher
    must not consume."""
    twin = _renamed(a, "twin")
    for x, y in ((a, b), (b, a), (a, twin), (twin, a)):
        first = are_isomorphic(x, y)
        assert are_isomorphic(x, y) == first
        assert are_isomorphic(_rebuilt(x), _rebuilt(y)) == first
    assert are_isomorphic(a, twin)
    assert len(twin.components) == len(_rebuilt(twin).components)


@SETTINGS
@given(systems())
def test_self_similarity_structure(system):
    assert similarity_structures_equal(system, system)

"""Theorem 9's greedy ELITE loop against its pairwise reference.

:func:`repro.core.families.unique_versions` drops duplicate relabel
versions through a set of hashed keys (partition shape plus processor
labels).  The reference below is the pairwise ``same_partition`` scan
the greedy loop used before; over the relabel families of random small
L and L2 systems, both must keep the same versions in the same order and
build the same ELITE.
"""

import pytest
from hypothesis import assume, given, settings

from repro.core import InstructionSet, Labeling, relabel_family
from repro.core.families import (
    elite_by_theorem9_greedy,
    relabel_family_extended,
    unique_versions,
)
from repro.exceptions import LabelingError, SelectionError

from ..strategies import systems

SETTINGS = settings(max_examples=30, deadline=None)


def unique_versions_reference(versions, processors):
    """The pairwise scan: keep a version unless an earlier kept one has
    the same partition and the same processor labels."""
    kept = []
    for v in versions:
        if not any(
            v.same_partition(w) and all(v[p] == w[p] for p in processors)
            for w in kept
        ):
            kept.append(v)
    return kept


def elite_reference(versions, processors):
    """The greedy loop over the pairwise-deduplicated versions, rescanning
    every version for pending ones on each step."""
    elite = set()
    distinct = unique_versions_reference(versions, processors)
    while True:
        pending = [
            v for v in distinct if all(v[p] not in elite for p in processors)
        ]
        if not pending:
            break
        psi = pending[0]
        uniquely = [
            p
            for p in processors
            if sum(1 for q in processors if psi[q] == psi[p]) == 1
        ]
        if not uniquely:
            raise SelectionError("no uniquely labeled processor")
        elite.add(psi[sorted(uniquely, key=repr)[0]])
    return frozenset(elite)


def _renamed_variable_labels(version, variables):
    """The same partition and processor labels under new variable labels:
    a duplicate by the dedup relation, though not an equal labeling."""
    return Labeling(
        {n: (("renamed", l) if n in variables else l) for n, l in version.items()}
    )


def _merged_variable_labels(version, variables):
    """The same processor labels with every variable in one block: a new
    version whenever ``version`` had two variable blocks."""
    return Labeling(
        {n: ("merged",) if n in variables else l for n, l in version.items()}
    )


def _renamed_processor_labels(version, variables):
    """The same partition under new processor labels: never a duplicate."""
    return Labeling(
        {n: l if n in variables else ("renamed", l) for n, l in version.items()}
    )


def _outcome(fn, versions, processors):
    try:
        return fn(versions, processors)
    except SelectionError:
        return SelectionError


def _check_against_reference(system, family):
    processors = system.processors
    variables = set(system.variables)
    versions = list(family.member_labelings())
    # Add a few versions again in reverse order, and three variants of
    # each: one the relation calls a duplicate, and two it must keep
    # apart from the original (same processor labels but another
    # partition, or the same partition but other processor labels).
    head = versions[:4]
    versions += head[::-1] + [
        variant(v, variables)
        for v in head
        for variant in (
            _renamed_variable_labels,
            _merged_variable_labels,
            _renamed_processor_labels,
        )
    ]
    fast = unique_versions(versions, processors)
    slow = unique_versions_reference(versions, processors)
    assert len(fast) == len(slow)
    assert all(a is b for a, b in zip(fast, slow))
    assert _outcome(elite_by_theorem9_greedy, versions, processors) == _outcome(
        elite_reference, versions, processors
    )


@SETTINGS
@given(systems(instruction_set=InstructionSet.L, max_processors=3, max_variables=3))
def test_l_relabel_families_match_reference(system):
    # At most 5 edges keeps the product family, and the reference's
    # quadratic scan over it, small.
    assume(system.network.edge_count <= 5)
    _check_against_reference(system, relabel_family(system))


@SETTINGS
@given(systems(instruction_set=InstructionSet.L2, max_processors=3, max_variables=3))
def test_l2_relabel_families_match_reference(system):
    _check_against_reference(system, relabel_family_extended(system))


@pytest.mark.parametrize(
    "other",
    [
        {"p0": 0, "v1": 1},  # same size, different nodes
        {"p0": 0, "v0": 1, "v1": 2},  # a node more
        {"p0": 0},  # a node fewer
    ],
    ids=["swapped-node", "extra-node", "missing-node"],
)
def test_mismatched_node_sets_raise(other):
    versions = [Labeling({"p0": 0, "v0": 1}), Labeling(other)]
    with pytest.raises(LabelingError):
        unique_versions_reference(versions, ["p0"])
    with pytest.raises(LabelingError):
        unique_versions(versions, ["p0"])
    with pytest.raises(LabelingError):
        elite_by_theorem9_greedy(versions, ["p0"])

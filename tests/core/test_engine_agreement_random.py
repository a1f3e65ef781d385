"""Randomized cross-engine agreement on random bipartite systems.

Algorithm 1 has one specification and three implementations; this file
checks, over a spread of seeded-random networks, marks, environment
models and name alphabets, that

* literal, signatures and worklist produce the same partition, and
* every engine matches the node-id reference engines of
  :mod:`tests.core.reference_refinement` bit-for-bit (identical canonical
  labels, not just the same partition).
"""

import random

import pytest

from repro.core import (
    EnvironmentModel,
    InstructionSet,
    System,
    algorithm1_literal,
    algorithm1_signatures,
    algorithm1_worklist,
    compute_similarity_labeling,
)
from repro.topologies import random_network

from .reference_refinement import signatures_reference, worklist_reference


def _random_system(seed: int) -> System:
    """A small seeded-random marked system; literal-engine friendly.

    Connectivity is deliberately not required -- disconnected networks
    must refine correctly too (a 1-name network is almost never
    connected).
    """
    rng = random.Random(seed)
    n_procs = rng.randint(3, 9)
    n_vars = rng.randint(2, n_procs + 2)
    names = ("a", "b", "c")[: rng.randint(1, 3)]
    net = random_network(n_procs, n_vars, names=names, seed=seed)
    procs = list(net.processors)
    marked = rng.sample(procs, rng.randint(0, min(2, len(procs))))
    state = {p: 1 for p in marked}
    return System(net, state, InstructionSet.Q)


CASES = [
    (seed, model)
    for seed in range(25)
    for model in (EnvironmentModel.MULTISET, EnvironmentModel.SET)
]


@pytest.mark.parametrize("seed, model", CASES)
def test_engines_agree_and_cache_is_exact(seed, model):
    system = _random_system(seed)

    lit = algorithm1_literal(system, model=model).labeling
    sig = algorithm1_signatures(system, model=model).labeling
    wl = algorithm1_worklist(system, model=model).labeling
    assert lit.same_partition(sig), (seed, model)
    assert sig.same_partition(wl), (seed, model)

    # The fast engines must be indistinguishable from the reference
    # engines: same canonical label on every node.
    references = [
        reference(system, model, True).labeling
        for reference in (signatures_reference, worklist_reference)
    ]
    for engine in ("literal", "signatures", "worklist"):
        cached = compute_similarity_labeling(
            system, model=model, engine=engine
        ).labeling
        for reference in references:
            assert {n: cached[n] for n in system.nodes} == {
                n: reference[n] for n in system.nodes
            }, (seed, model, engine)


@pytest.mark.parametrize("seed", range(6))
def test_structural_agreement_without_state(seed):
    system = _random_system(seed + 1000)
    results = [
        engine(system, include_state=False).labeling
        for engine in (algorithm1_literal, algorithm1_signatures, algorithm1_worklist)
    ]
    assert results[0].same_partition(results[1])
    assert results[1].same_partition(results[2])

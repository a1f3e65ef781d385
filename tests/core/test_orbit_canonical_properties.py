"""Property tests: the stabilizer-chain canonical key is exactly the
orbit-equivalence the enumerating canonicalizer induces.

The chain canonicalizer never lists the group, so its correctness is an
algebraic claim: ``canonical_key(x) == canonical_key(y)`` iff ``x`` and
``y`` are in the same orbit.  Here the enumerating
:class:`OrbitCanonicalizer` (uncapped, on small systems) is the oracle,
and states are random processor/variable fillings including embedded
processor references (lock owners), which the permutation action must
rename, not just shuffle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InstructionSet, System, encode_value
from repro.core.automorphism import iter_automorphisms
from repro.core.orbits import StabilizerChainCanonicalizer
from repro.topologies import dining_system, ring, star

from .reference_orbits import OrbitCanonicalizer

SETTINGS = settings(max_examples=60, deadline=None)

SYSTEMS = {
    "ring4": System(ring(4), None, InstructionSet.Q),
    "star4": System(star(4), None, InstructionSet.Q),
    "dining5": dining_system(5),
}


def _random_state(draw, system):
    n = len(system.processors)
    proc = tuple(
        draw(st.integers(min_value=0, max_value=2)) for _ in range(n)
    )
    var = tuple(
        (
            "plain",
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.booleans()),
            draw(st.integers(min_value=-1, max_value=n - 1)),
        )
        for _ in system.variables
    )
    return proc, var


@st.composite
def state_pairs(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    return name, _random_state(draw, system), _random_state(draw, system)


def _apply(system, sigma, state):
    """The image of ``state`` under automorphism ``sigma`` (same action
    convention as the canonicalizers: slot of p reads old slot of
    sigma(p), embedded owners rename through sigma^-1)."""
    procs = tuple(system.processors)
    variables = tuple(system.variables)
    pindex = {p: i for i, p in enumerate(procs)}
    vindex = {v: i for i, v in enumerate(variables)}
    inverse = {sigma[p]: p for p in procs}
    proc, var = state
    new_proc = tuple(proc[pindex[sigma[p]]] for p in procs)
    new_var = []
    for v in variables:
        kind, value, locked, owner = var[vindex[sigma[v]]]
        renamed = pindex[inverse[procs[owner]]] if owner >= 0 else -1
        new_var.append((kind, value, locked, renamed))
    return new_proc, tuple(new_var)


class TestChainMatchesEnumeration:
    @SETTINGS
    @given(state_pairs())
    def test_key_equality_iff_same_orbit(self, case):
        name, a, b = case
        system = SYSTEMS[name]
        keys = StabilizerChainCanonicalizer(system)
        oracle = OrbitCanonicalizer(system, limit=None)
        chain_same = keys.canonical_key(*a) == keys.canonical_key(*b)
        oracle_same = encode_value(oracle.canonical(*a)) == encode_value(
            oracle.canonical(*b)
        )
        assert chain_same == oracle_same

    @SETTINGS
    @given(state_pairs())
    def test_key_is_invariant_under_every_automorphism(self, case):
        name, a, _b = case
        system = SYSTEMS[name]
        keys = StabilizerChainCanonicalizer(system)
        key = keys.canonical_key(*a)
        for sigma in iter_automorphisms(system, limit=30):
            image = _apply(system, sigma, a)
            assert keys.canonical_key(*image) == key

    @SETTINGS
    @given(state_pairs())
    def test_key_is_the_least_identity_key_of_the_orbit(self, case):
        # The key is not just an invariant: it is the minimum of
        # identity_key over the orbit, so it is reproducible from the
        # enumerated orbit members directly.
        name, a, _b = case
        system = SYSTEMS[name]
        keys = StabilizerChainCanonicalizer(system)
        members = [
            keys.encoder.identity_key(*_apply(system, sigma, a))
            for sigma in iter_automorphisms(system, limit=200)
        ]
        assert keys.canonical_key(*a) == min(members)

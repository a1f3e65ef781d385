"""Θ-orbit canonicalization of exploration states."""

import pytest

from repro.core import InstructionSet, System, encode_value
from repro.core.orbits import StabilizerChainCanonicalizer
from repro.runtime import Executor, RandomProgramQ, RoundRobinScheduler
from repro.topologies import dining_system, ring, star

from .reference_orbits import OrbitCanonicalizer


def ring4():
    return System(ring(4), None, InstructionSet.Q)


def state_after(system, proc):
    ex = Executor(
        system,
        RandomProgramQ(system.names, seed=0),
        RoundRobinScheduler(system.processors),
    )
    return ex.successor(proc).exploration_state()


class TestGroupEnumeration:
    def test_unmarked_ring_rotations(self):
        canon = OrbitCanonicalizer(ring4())
        assert canon.group_size == 4
        assert not canon.truncated

    def test_marked_ring_is_rigid(self):
        system = System(ring(4), {"p0": 1}, InstructionSet.Q)
        assert OrbitCanonicalizer(system).group_size == 1

    def test_dining_tables(self):
        assert OrbitCanonicalizer(dining_system(5)).group_size == 5
        assert (
            OrbitCanonicalizer(dining_system(6, alternating=True)).group_size
            == 6
        )

    def test_truncation_is_flagged(self):
        canon = OrbitCanonicalizer(ring4(), limit=2)
        assert canon.group_size == 2
        assert canon.truncated

    def test_limit_equal_to_group_order_is_complete(self):
        # Regression: a cap of exactly |Aut| used to be reported as
        # truncated because the enumeration stopped *at* the cap without
        # checking whether a further element existed.
        canon = OrbitCanonicalizer(ring4(), limit=4)
        assert canon.group_size == 4
        assert not canon.truncated


class TestCanonicalForm:
    def test_symmetric_steps_share_a_canonical_form(self):
        # p0 and p1 are automorphic on the unmarked ring, so stepping
        # either one must land in the same orbit.
        system = ring4()
        canon = OrbitCanonicalizer(system)
        a = state_after(system, "p0")
        b = state_after(system, "p1")
        assert a != b
        assert canon.canonical(*a) == canon.canonical(*b)

    def test_canonical_is_orbit_invariant_choice(self):
        # Canonicalizing twice (or canonicalizing a canonical form)
        # changes nothing: the least orbit member is a fixed point.
        system = ring4()
        canon = OrbitCanonicalizer(system)
        a = state_after(system, "p0")
        proc, var, vec = canon.canonical(*a)
        assert canon.canonical(proc, var, vec) == (proc, var, vec)

    def test_identity_truncation_degrades_to_exact_dedup(self):
        # Soundness under truncation: with only the identity enumerated,
        # equal canonical forms are exactly equal raw states — distinct
        # orbit members stop merging but never merge wrongly.
        system = ring4()
        canon = OrbitCanonicalizer(system, limit=1)
        a = state_after(system, "p0")
        b = state_after(system, "p1")
        assert canon.canonical(*a) != canon.canonical(*b)
        assert canon.canonical(*a) == (a[0], a[1], ())

    def test_vectors_permute_with_the_processor_axis(self):
        # A processor-indexed vector (e.g. fairness ages) riding along
        # must be permuted consistently: symmetric states with the
        # symmetric vector still merge, asymmetric vectors keep them
        # apart.
        system = ring4()
        canon = OrbitCanonicalizer(system)
        a = state_after(system, "p0")
        b = state_after(system, "p1")
        ages_a = (1, 2, 2, 2)  # p0 just ran
        ages_b = (2, 1, 2, 2)  # p1 just ran — the rotated image
        assert canon.canonical(a[0], a[1], (ages_a,)) == canon.canonical(
            b[0], b[1], (ages_b,)
        )
        assert canon.canonical(a[0], a[1], (ages_a,)) != canon.canonical(
            b[0], b[1], (ages_a,)
        )

    def test_least_orbit_member_is_numeric_not_textual(self):
        # Regression: repr-string comparison ordered "10" before "2", so
        # the canonical representative of a rotation orbit depended on
        # how values happened to print.  Encoded comparison is numeric.
        system = ring4()
        canon = OrbitCanonicalizer(system)
        var = tuple(("plain", 0, False, -1) for _ in system.variables)
        rotated = canon.canonical((10, 2, 10, 10), var)
        assert rotated[0][0] == 2  # the least slot leads, numerically


class TestStabilizerChainCanonicalizer:
    def test_exact_group_order_without_enumeration(self):
        assert StabilizerChainCanonicalizer(ring4()).group_size == 4
        assert StabilizerChainCanonicalizer(dining_system(5)).group_size == 5
        # The star's leaves permute freely: 5! elements, which the old
        # enumerating canonicalizer could only reach via its cap.
        big = System(star(5), None, InstructionSet.Q)
        chain = StabilizerChainCanonicalizer(big)
        assert chain.group_size == 120

    def test_key_equality_is_orbit_equivalence(self):
        system = ring4()
        keys = StabilizerChainCanonicalizer(system)
        a = state_after(system, "p0")
        b = state_after(system, "p1")
        assert keys.canonical_key(*a) == keys.canonical_key(*b)
        assert keys.encoder.identity_key(*a) != keys.encoder.identity_key(*b)

    def test_key_matches_enumerated_minimum(self):
        # The chain's minimal-image search must select exactly the least
        # encoded orbit member the enumerating canonicalizer picks.
        system = ring4()
        keys = StabilizerChainCanonicalizer(system)
        full = OrbitCanonicalizer(system, limit=None)
        a = state_after(system, "p0")
        least = full.canonical(*a)
        assert keys.canonical_key(*a) == keys.encoder.identity_key(
            least[0], least[1], least[2]
        )

    def test_factorial_star_group_stays_cheap(self):
        # Uniform states on a star: every leaf permutation renders the
        # same image, so the frontier dedup collapses the search to a
        # handful of candidates instead of 6! cosets.
        system = System(star(6), None, InstructionSet.Q)
        keys = StabilizerChainCanonicalizer(system)
        assert keys.group_size == 720
        proc = tuple("s" for _ in system.processors)
        var = tuple(("plain", 0, False, -1) for _ in system.variables)
        key = keys.canonical_key(proc, var)
        assert key == keys.canonical_key(proc, var)

    def test_vectors_permute_with_the_processor_axis(self):
        system = ring4()
        keys = StabilizerChainCanonicalizer(system)
        a = state_after(system, "p0")
        b = state_after(system, "p1")
        ages_a = (1, 2, 2, 2)
        ages_b = (2, 1, 2, 2)
        assert keys.canonical_key(a[0], a[1], (ages_a,)) == keys.canonical_key(
            b[0], b[1], (ages_b,)
        )
        assert keys.canonical_key(a[0], a[1], (ages_a,)) != keys.canonical_key(
            b[0], b[1], (ages_a,)
        )

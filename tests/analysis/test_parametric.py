"""Unit tests for parameterized verification with cutoff detection."""

import dataclasses
from dataclasses import replace

import pytest

from repro.analysis.parametric import (
    OMEGA_DEFAULT,
    STRUCTURE_DEPTH_DEFAULT,
    StateAbstraction,
    abstract_value,
    class_structure,
    compute_labeling_schema,
    detect_cutoff,
    eval_depth,
    member_explore_spec,
    property_spec,
    run_parametric,
    verify_cutoff,
)
from repro.analysis.explore import ExploreSpec, explore_with_profiles
from repro.core import parametric_family
from repro.exceptions import ExploreError, ParametricError


class TestEvalDepth:
    @pytest.mark.parametrize(
        "rule,n,expected",
        [("2n", 5, 10), ("2n+2", 4, 10), ("n", 7, 7), ("8", 3, 8),
         ("n-1", 4, 3), ("3n + 1", 2, 7)],
    )
    def test_linear_rules(self, rule, n, expected):
        assert eval_depth(rule, n) == expected

    @pytest.mark.parametrize("rule", ["", "n^2", "2x", "+", "nn", "2n+"])
    def test_bad_rules_rejected(self, rule):
        with pytest.raises(ParametricError):
            eval_depth(rule, 4)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ParametricError):
            eval_depth("n-5", 3)


class TestAbstractValue:
    def test_small_ints_pass_through(self):
        assert abstract_value(1, 2) == 1
        assert abstract_value(0, 2) == 0
        assert abstract_value(-1, 2) == -1

    def test_large_ints_collapse_keeping_sign(self):
        assert abstract_value(7, 2) == ("ω", True)
        assert abstract_value(2, 2) == ("ω", True)
        assert abstract_value(-9, 2) == ("ω", False)

    def test_bools_are_not_ints_here(self):
        assert abstract_value(True, 1) is True

    def test_containers_recurse(self):
        assert abstract_value((0, (5,)), 2) == (0, (("ω", True),))
        assert abstract_value(frozenset([9]), 2) == frozenset([("ω", True)])

    def test_dataclasses_recurse(self):
        @dataclasses.dataclass(frozen=True)
        class Local:
            stage: str
            meals: int

        assert abstract_value(Local("eat", 40), 3) == Local("eat", ("ω", True))

    def test_strings_untouched(self):
        assert abstract_value("wait-left", 2) == "wait-left"


class TestClassStructure:
    def test_unmarked_ring_has_two_colors(self):
        fam = parametric_family("ring")
        _, colors = class_structure(fam.instantiate(5))
        # one processor class + one variable class
        assert len(colors) == 2

    def test_colors_stabilize_across_sizes(self):
        fam = parametric_family("marked-ring")
        _, colors_a = class_structure(fam.instantiate(7))
        _, colors_b = class_structure(fam.instantiate(9))
        # the similarity labelings differ (more distance classes at 9)
        # but the ω-bounded color alphabet does not
        assert colors_a == colors_b

    def test_every_node_indexed(self):
        fam = parametric_family("star")
        system = fam.instantiate(4)
        node_index, colors = class_structure(system)
        assert set(node_index) == set(system.nodes)
        assert set(node_index.values()) <= set(range(len(colors)))


class TestStateAbstraction:
    def test_profiles_stable_across_sizes_at_fixed_depth(self):
        # The stabilization inequality: profile sets at structure depth
        # d are n-invariant once n >= d + ω.
        fam = parametric_family("dp")
        prop = property_spec("deadlock")
        sets = {}
        for n in (4, 5):
            ab = StateAbstraction(fam.instantiate(n), OMEGA_DEFAULT)
            spec = replace(
                member_explore_spec(fam, prop, n),
                max_depth=STRUCTURE_DEPTH_DEFAULT,
            )
            _, profiles = explore_with_profiles(spec, ab.profile)
            sets[n] = frozenset(profiles)
        assert sets[4] == sets[5]

    def test_profiles_differ_below_stabilization(self):
        fam = parametric_family("dp")
        prop = property_spec("deadlock")
        sets = {}
        for n in (2, 4):
            ab = StateAbstraction(fam.instantiate(n), OMEGA_DEFAULT)
            spec = replace(
                member_explore_spec(fam, prop, n),
                max_depth=STRUCTURE_DEPTH_DEFAULT,
            )
            _, profiles = explore_with_profiles(spec, ab.profile)
            sets[n] = frozenset(profiles)
        assert sets[2] != sets[4]


class TestExploreWithProfiles:
    def test_one_profile_per_unique_state(self):
        spec = ExploreSpec(
            scenario={"topology": "ring", "size": 3}, max_depth=3
        )
        seen = []
        result, profiles = explore_with_profiles(spec, lambda ex: seen.append(1))
        assert len(profiles) == result.unique_states

    def test_registered_probes_rejected(self):
        spec = ExploreSpec(
            scenario={"topology": "ring", "size": 3},
            max_depth=3,
            probes=("uniform",),
        )
        with pytest.raises(ExploreError):
            explore_with_profiles(spec, lambda ex: None)

    def test_zero_probe_limit_rejected(self):
        spec = ExploreSpec(
            scenario={"topology": "ring", "size": 3},
            max_depth=3,
            probe_limit=0,
        )
        with pytest.raises(ExploreError):
            explore_with_profiles(spec, lambda ex: None)


class TestPropertySpecs:
    def test_unknown_property(self):
        with pytest.raises(ParametricError, match="unknown property"):
            property_spec("liveness")

    def test_member_spec_shapes(self):
        fam = parametric_family("ring")
        spec = member_explore_spec(fam, property_spec("lockstep"), 4)
        assert spec.fairness == "k-bounded"
        assert spec.k == 4
        assert spec.max_depth == 8
        assert not spec.check_deadlock
        spec = member_explore_spec(fam, property_spec("deadlock"), 4)
        assert spec.fairness == "none"
        assert spec.k is None


class TestDetectCutoff:
    def test_ring_lockstep_certifies(self):
        cert = detect_cutoff("ring", "lockstep")
        assert cert.cutoff == STRUCTURE_DEPTH_DEFAULT + OMEGA_DEFAULT
        assert cert.verdict == "certified"
        assert cert.period == 1 and cert.step == 1
        assert len(cert.stable_fingerprints) == 1
        assert "for all n >= 4" in cert.claim
        assert verify_cutoff(cert) is None

    def test_tampered_fingerprint_fails_verification(self):
        cert = detect_cutoff("ring", "lockstep")
        bad = replace(cert, stable_fingerprints=("0" * 32,))
        message = verify_cutoff(bad, extra_sizes=1)
        assert message is not None and "fingerprint" in message

    def test_tampered_verdict_fails_verification(self):
        cert = detect_cutoff("ring", "lockstep")
        bad = replace(cert, verdict="violation", violation_kind="deadlock")
        message = verify_cutoff(bad, extra_sizes=1)
        assert message is not None and "verdict" in message

    def test_verify_asks_each_question_once(self, monkeypatch):
        """Per extra size, one unreduced verdict search and one reduced
        structure search: the unreduced run also supplies the verdict
        that the size's fingerprint records."""
        from repro.analysis import explore, parametric

        cert = detect_cutoff("ring", "lockstep")
        searches = []
        real = explore.run_explore

        def counting(spec, *args, **kwargs):
            searches.append((spec.max_depth, spec.symmetry))
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(explore, "run_explore", counting)
        monkeypatch.setattr(parametric, "run_explore", counting)
        assert verify_cutoff(cert, extra_sizes=2) is None
        verdict_depths = [
            member_explore_spec(
                parametric_family("ring"), property_spec("lockstep"), n
            ).max_depth
            for n in (cert.cutoff + 1, cert.cutoff + 2)
        ]
        assert searches == [
            (verdict_depths[0], False), (cert.structure_depth, True),
            (verdict_depths[1], False), (cert.structure_depth, True),
        ]

    def test_non_uniform_verdict_rejected(self):
        # rings under the random program never deadlock, so expecting
        # the "every member deadlocks" shape must fail fast.
        with pytest.raises(ParametricError, match="does not satisfy"):
            detect_cutoff("ring", "deadlock")

    def test_max_sizes_must_cover_two_periods(self):
        with pytest.raises(ParametricError, match="two periods"):
            detect_cutoff("marked-ring", "deadlock", max_sizes=3)

    def test_records_are_serializable(self):
        import json

        cert = detect_cutoff("ring", "lockstep")
        doc = cert.to_json()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        assert doc["structure_depth"] == STRUCTURE_DEPTH_DEFAULT
        assert [r["size"] for r in doc["records"]] == [2, 3, 4, 5]


class TestDpFamilies:
    def test_dp_deadlocks_for_all_n(self):
        doc = run_parametric("dp", "deadlock")
        cert = doc["certificate"]
        assert cert["verdict"] == "violation"
        assert cert["violation_kind"] == "deadlock"
        assert cert["cutoff"] == 4
        assert doc["verify_cutoff"]["confirmed"], doc["verify_cutoff"]["error"]

    def test_dp_prime_deadlock_free_for_all_even_n(self):
        doc = run_parametric("dp-prime", "deadlock-free", schema=False)
        cert = doc["certificate"]
        assert cert["verdict"] == "certified"
        assert cert["step"] == 2
        assert "mod 2" in cert["claim"]
        assert doc["verify_cutoff"]["confirmed"], doc["verify_cutoff"]["error"]


class TestLabelingSchemas:
    def test_star_schema_constant(self):
        schema = compute_labeling_schema("star")
        assert schema.slope == 0
        assert schema.base_counts == (2,)
        assert schema.predicted_classes(11) == 2

    def test_marked_ring_schema_grows(self):
        schema = compute_labeling_schema("marked-ring")
        assert schema.slope > 0
        # the affine prediction must match the real refinement engine
        n = schema.checked_to + 2 * schema.period
        assert schema.predicted_classes(n) == schema.class_count(n)

    def test_prediction_below_stabilization_rejected(self):
        schema = compute_labeling_schema("marked-ring")
        with pytest.raises(ParametricError):
            schema.predicted_classes(schema.stabilized_at - 1)

    def test_instantiate_matches_engine(self):
        from repro.core.refinement import compute_similarity_labeling

        schema = compute_labeling_schema("ring")
        fam = parametric_family("ring")
        n = schema.stabilized_at + 1
        direct = compute_similarity_labeling(fam.instantiate(n)).labeling
        assert schema.instantiate(n).blocks == direct.blocks

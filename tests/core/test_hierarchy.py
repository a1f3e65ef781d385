"""Unit tests for the model-power hierarchy (Sections 6/9)."""

import pytest

from repro.core import (
    MODEL_AXIS,
    POWER_ORDER,
    selection_across_models,
    verify_separation,
)
from repro.topologies import (
    ALL_WITNESSES,
    path,
    ring,
    witness_bounded_s_vs_fair_s,
    witness_l2_vs_l,
    witness_l_vs_q,
    witness_q_vs_bounded_s,
)


class TestReports:
    def test_axis_covers_power_order(self):
        assert set(POWER_ORDER) == {label for label, _, _ in MODEL_AXIS}

    def test_path_solvable_everywhere(self):
        report = selection_across_models(path(3))
        assert set(report.solvable_models()) == set(POWER_ORDER)
        assert report.respects_power_order()

    def test_anonymous_ring_solvable_nowhere(self):
        report = selection_across_models(ring(4))
        assert report.solvable_models() == ()
        assert report.respects_power_order()


class TestSeparations:
    @pytest.mark.parametrize("pair", sorted(ALL_WITNESSES, key=repr))
    def test_witness_separates(self, pair):
        weaker, stronger = pair
        net, state, desc = ALL_WITNESSES[pair]()
        witness = verify_separation(weaker, stronger, net, state, desc)
        assert witness.valid, (
            f"{desc}: expected {weaker} impossible / {stronger} possible, got "
            f"{[(m, witness.report.decisions[m].possible) for m in POWER_ORDER]}"
        )

    @pytest.mark.parametrize(
        "builder",
        [witness_l_vs_q, witness_q_vs_bounded_s, witness_bounded_s_vs_fair_s, witness_l2_vs_l],
    )
    def test_witnesses_respect_monotonicity(self, builder):
        net, state, desc = builder()
        report = selection_across_models(net, state, desc)
        assert report.respects_power_order(), desc


class TestWitnessSchemas:
    def test_star_schema_holds_at_small_sizes(self):
        from repro.core import witness_schema

        schema = witness_schema("Q", "L")
        for n in (2, 3, 5):
            assert schema.holds_at(n), f"star schema failed at n={n}"

    def test_instantiated_witness_is_verified(self):
        from repro.core import witness_schema

        witness = witness_schema("Q", "L").instantiate(3)
        assert witness.valid
        assert not witness.report.decisions["Q"].possible
        assert witness.report.decisions["L"].possible
        assert "n=3" in witness.report.description

    def test_unknown_pair_rejected(self):
        from repro.core import witness_schema
        from repro.exceptions import WitnessRecordError

        with pytest.raises(WitnessRecordError, match="known pairs"):
            witness_schema("fair-S", "L2")

    def test_first_size_inherits_family_minimum(self):
        from repro.core import witness_schema

        assert witness_schema("Q", "L").first_size() >= 2


class TestWitnessRecords:
    def _witness(self, n=3):
        from repro.core import parametric_family, verify_separation

        system = parametric_family("star").instantiate(n)
        witness = verify_separation(
            "Q", "L", system.network, system.initial_state, f"star({n})"
        )
        return witness, system

    def test_round_trip_without_system_is_trusted(self):
        from repro.core import (
            separation_witness_from_json,
            separation_witness_to_json,
        )

        witness, _ = self._witness()
        doc = separation_witness_to_json(witness)
        back = separation_witness_from_json(doc)
        assert back.valid
        assert back.report.decisions["Q"].reason == "recorded"

    def test_round_trip_with_system_reverifies(self):
        from repro.core import (
            separation_witness_from_json,
            separation_witness_to_json,
        )

        witness, system = self._witness()
        doc = separation_witness_to_json(
            witness, system.network, system.initial_state
        )
        assert doc["form"].startswith("b:")
        back = separation_witness_from_json(
            doc, system.network, system.initial_state
        )
        assert back.valid
        assert back.report.decisions["Q"].reason != "recorded"

    def test_wrong_system_rejected_by_form_key(self):
        from repro.core import (
            parametric_family,
            separation_witness_from_json,
            separation_witness_to_json,
        )
        from repro.exceptions import WitnessRecordError

        witness, system = self._witness(3)
        doc = separation_witness_to_json(
            witness, system.network, system.initial_state
        )
        other = parametric_family("star").instantiate(4)
        with pytest.raises(WitnessRecordError, match="canonical-form"):
            separation_witness_from_json(doc, other.network, other.initial_state)

    @pytest.mark.parametrize("shape", ["repr", "bare-hex", "not-a-string"])
    def test_legacy_form_key_rejected(self, shape):
        """Only ``"b:" + hex`` keys are read; the older ``repr`` and
        untagged-hex shapes end in the structured record error."""
        from repro.core import separation_witness_from_json, separation_witness_to_json
        from repro.core.hierarchy import _encoded_form
        from repro.core.quotient import canonical_form
        from repro.core.system import InstructionSet, ScheduleClass, System
        from repro.exceptions import WitnessRecordError

        witness, system = self._witness()
        doc = separation_witness_to_json(witness)
        if shape == "repr":
            q = System(system.network, system.initial_state,
                       InstructionSet.Q, ScheduleClass.FAIR)
            doc["form"] = repr(canonical_form(q))
        elif shape == "bare-hex":
            doc["form"] = _encoded_form(system.network, system.initial_state).hex()
        else:
            doc["form"] = 12
        with pytest.raises(WitnessRecordError, match="canonical-form"):
            separation_witness_from_json(doc, system.network, system.initial_state)

    def test_tampered_decisions_rejected(self):
        from repro.core import separation_witness_from_json, separation_witness_to_json
        from repro.exceptions import WitnessRecordError

        witness, system = self._witness()
        doc = separation_witness_to_json(
            witness, system.network, system.initial_state
        )
        doc["decisions"] = dict(doc["decisions"], Q=True)
        with pytest.raises(WitnessRecordError, match="Q"):
            separation_witness_from_json(doc, system.network, system.initial_state)

    def test_malformed_record_rejected(self):
        from repro.core import separation_witness_from_json
        from repro.exceptions import WitnessRecordError

        with pytest.raises(WitnessRecordError, match="malformed"):
            separation_witness_from_json({"weaker": "Q"})

    def test_store_round_trip(self, tmp_path):
        from repro.core import (
            separation_witness_from_json,
            separation_witness_to_json,
        )
        from repro.core.encoding import encode_value
        from repro.store import ContentStore

        witness, system = self._witness()
        doc = separation_witness_to_json(
            witness, system.network, system.initial_state
        )
        store = ContentStore(tmp_path)
        key = encode_value(("witness-record", "Q", "L", 3))
        store.put("witnesses", key, doc)
        loaded = store.get("witnesses", key)
        assert loaded is not None
        back = separation_witness_from_json(
            loaded, system.network, system.initial_state
        )
        assert back.valid

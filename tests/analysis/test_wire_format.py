"""Form-key wire format: the ``"b:"`` tag, and nothing else.

Cache snapshots, checkpoints and witness records serialize byte
form-keys as ``"b:" + hex`` strings through one function pair in
:mod:`repro.core.encoding`.  Earlier releases wrote untagged hex and,
before that, ``repr`` strings; those shapes are no longer read and end
in a structured :class:`WitnessSearchError`, not a guessed bucket.
"""

import json

import pytest

from repro.analysis.witness_engine import DecisionCache, SweepSpec, run_sweep
from repro.core.encoding import form_from_wire, form_to_wire
from repro.exceptions import WitnessSearchError

RECORD = {"p": 1, "n": 1, "a": [0], "mark": None}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "form", [b"", b"\x00", b"any bytes at all", bytes(range(256))]
    )
    def test_bytes_round_trip_through_the_tag(self, form):
        wire = form_to_wire(form)
        assert wire.startswith("b:")
        assert form_from_wire(wire) == form

    def test_malformed_tagged_key_is_an_error(self):
        with pytest.raises(WitnessSearchError, match="not hex"):
            DecisionCache().merge([("b:zz-not-hex", RECORD, {"Q": True})])
        with pytest.raises(WitnessSearchError):
            DecisionCache().merge([("b:abc", RECORD, {"Q": True})])  # odd length


class TestLegacyShapes:
    @pytest.mark.parametrize(
        "wire",
        [
            b"\x01\x02".hex(),        # untagged hex: the first byte-encoded release
            "(('p', 2), ('n', 1))",   # a pre-encoding repr key
            "abcd",                   # a repr key that also looks like hex
        ],
    )
    def test_untagged_key_is_rejected(self, wire):
        with pytest.raises(WitnessSearchError, match="malformed cache entry"):
            DecisionCache().merge([(wire, RECORD, {"Q": True})])

    def test_old_shape_checkpoint_is_rejected(self, tmp_path):
        spec = SweepSpec(weaker="Q", stronger="L", max_processors=2,
                         max_names=1, max_variables=2)
        ck = tmp_path / "sweep.jsonl"
        run_sweep(spec, workers=0, checkpoint=str(ck))
        lines = [json.loads(line) for line in ck.read_text().splitlines()]
        shard = next(doc for doc in lines if doc.get("cache"))
        for entry in shard["cache"]:
            entry[0] = entry[0][2:]  # strip the tag: the untagged shape
        ck.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        with pytest.raises(WitnessSearchError, match="malformed cache entry"):
            run_sweep(spec, workers=0, checkpoint=str(ck))


class TestSnapshotUsesTaggedKeys:
    def test_cache_snapshot_round_trips_byte_forms(self):
        spec = SweepSpec(weaker="Q", stronger="L", max_processors=2,
                         max_names=1, max_variables=2)
        result = run_sweep(spec, workers=1)
        snapshot = result.cache.snapshot()
        assert snapshot
        for wire, _record, _decisions in snapshot:
            assert wire.startswith("b:")
        clone = DecisionCache()
        clone.merge(snapshot)
        assert len(clone) == len(result.cache)
        assert clone.snapshot() == snapshot

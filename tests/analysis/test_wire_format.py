"""Form-key wire format: the ``"b:"`` tag, and nothing else.

Hierarchy separation-witness records serialize byte form-keys as
``"b:" + hex`` strings through one function pair in
:mod:`repro.core.encoding`.  Earlier releases wrote untagged hex and,
before that, ``repr`` strings; :func:`form_from_wire` reads none of
those shapes and raises ``ValueError`` instead of guessing a key.
"""

import pytest

from repro.core.encoding import form_from_wire, form_to_wire


class TestRoundTrip:
    @pytest.mark.parametrize(
        "form", [b"", b"\x00", b"any bytes at all", bytes(range(256))]
    )
    def test_bytes_round_trip_through_the_tag(self, form):
        wire = form_to_wire(form)
        assert wire.startswith("b:")
        assert form_from_wire(wire) == form

    def test_malformed_tagged_key_is_an_error(self):
        with pytest.raises(ValueError, match="not hex"):
            form_from_wire("b:zz-not-hex")
        with pytest.raises(ValueError, match="not hex"):
            form_from_wire("b:abc")  # odd length


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
        with pytest.raises(ValueError, match=r"is not 'b:' \+ hex"):
            form_from_wire(wire)

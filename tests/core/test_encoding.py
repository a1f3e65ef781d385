"""Canonical byte encoding of state values (injective, ordered, stable)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InstructionSet, System, encode_value
from repro.core.encoding import StateEncoder, ValueInterner
from repro.topologies import ring

SETTINGS = settings(max_examples=200, deadline=None)

#: Closure of the scalar types under tuples/frozensets — the value
#: universe exploration states actually draw from.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)


class TestEncodeValue:
    @SETTINGS
    @given(values, values)
    def test_injective(self, a, b):
        # Distinct values must get distinct encodings, and byte equality
        # must imply Python equality.  The converse is deliberately
        # false: Python calls frozenset([0]) == frozenset([False])
        # equal, while the type-aware encoding keeps them apart.
        enc_same = encode_value(a) == encode_value(b)
        if enc_same:
            assert type(a) is type(b) and a == b
        if a != b:
            assert not enc_same

    @SETTINGS
    @given(
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_int_order_preserved(self, a, b):
        # The regression that motivated the encoding layer: repr-string
        # comparison put "10" before "2".  Byte comparison of encodings
        # must agree with numeric order, including across the 64-bit
        # boundary.
        assert (encode_value(a) < encode_value(b)) == (a < b)

    @SETTINGS
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @example(-0.0, 0.0)
    def test_float_order_preserved(self, a, b):
        assert (encode_value(a) < encode_value(b)) == (a < b)

    def test_numeric_lookalikes_stay_distinct(self):
        # Python hashes 1, 1.0 and True to the same dict slot; their
        # encodings must still differ (type tags lead the bytes).
        forms = {encode_value(v) for v in (1, 1.0, True)}
        assert len(forms) == 3

    def test_total_order_across_types(self):
        # Any two encodable values compare without a TypeError, and the
        # order groups values by type tag.
        sample = [None, False, 3, 2.5, "x", b"y", (1, 2), frozenset({1})]
        keys = sorted(encode_value(v) for v in sample)
        assert len(set(keys)) == len(sample)

    def test_container_encoding_is_delimited(self):
        # Length prefixes make nesting unambiguous: regrouping the same
        # leaves must change the encoding.
        assert encode_value((("a", "b"), "c")) != encode_value(("a", ("b", "c")))
        assert encode_value(("ab",)) != encode_value(("a", "b"))

    def test_set_encoding_is_iteration_order_independent(self):
        # frozensets encode via sorted element encodings, so the key is
        # the same whatever insertion (and hash-seed driven iteration)
        # order produced the set.
        a = frozenset(["p0", "p1", "p2"])
        b = frozenset(reversed(sorted(a)))
        assert encode_value(a) == encode_value(b)


class TestValueInterner:
    def test_interning_returns_the_same_object(self):
        interner = ValueInterner()
        first = interner.encode((1, "a"))
        assert interner.encode((1, "a")) is first
        assert len(interner) == 1

    def test_type_rides_in_the_key(self):
        interner = ValueInterner()
        assert interner.encode(1) != interner.encode(1.0)
        assert interner.encode(1) != interner.encode(True)


class TestStateEncoder:
    def _encoder(self):
        return StateEncoder(System(ring(3), None, InstructionSet.Q))

    def test_identity_key_is_state_equality(self):
        enc = self._encoder()
        proc = ("idle", "idle", "busy")
        var = tuple(("plain", 0, False, -1) for _ in range(3))
        assert enc.identity_key(proc, var) == enc.identity_key(proc, var)
        other = ("idle", "busy", "idle")
        assert enc.identity_key(proc, var) != enc.identity_key(other, var)

    def test_vectors_fold_into_processor_slots(self):
        enc = self._encoder()
        proc = ("s", "s", "s")
        var = tuple(("plain", 0, False, -1) for _ in range(3))
        ages_a = ((0, 1, 2),)
        ages_b = ((2, 1, 0),)
        assert enc.identity_key(proc, var, ages_a) != enc.identity_key(
            proc, var, ages_b
        )

    def test_render_var_renames_owner_through_position(self):
        enc = self._encoder()
        entries = enc.var_entries((("plain", 7, True, 0),))
        direct = enc.render_var(entries[0], lambda i: i)
        swapped = enc.render_var(entries[0], lambda i: 2 - i)
        assert direct != swapped

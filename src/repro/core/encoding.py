"""Canonical byte encoding of execution states (the flat-state substrate).

The exploration and canonicalization machinery used to carry states
around as nested tuples of heterogeneous Python objects and compare
orbit members by ``repr`` strings.  That taxed every hot path three
ways: ``repr`` of a whole configuration is built per candidate
permutation, string ordering of numeric values is formatting-dependent
(``"10" < "2"``), and pickled object trees are what cross the
process-pool boundary.

This module replaces all of that with one primitive:
:func:`encode_value` maps any (hashable) state value to a compact
``bytes`` string that is

* **injective** -- distinct values get distinct encodings (type-tagged,
  length-prefixed, recursively delimited), so byte equality is value
  equality;
* **deterministic** -- independent of ``PYTHONHASHSEED``, interning,
  or repr formatting: safe to digest, checkpoint, and compare across
  processes and CI hash-seed matrices;
* **totally ordered, type-stably** -- byte comparison orders values
  first by type tag, then within a type by a stable rule (numeric for
  machine-size ints, shortlex for strings/tuples), so canonical-form
  selection no longer depends on how ``repr`` happens to spell a value;
* **cheap** -- hashing and equality on interned ``bytes`` beats
  deep-tuple hashing, and the encodings are what digests and
  checkpoints consume directly.

:class:`StateEncoder` specializes the primitive to the executor's
*exploration states* (:meth:`repro.runtime.executor.Executor
.exploration_state`): per-processor slots fold the local state, halted
flag and any rider vectors into one interned blob; variable entries
keep their embedded processor references (lock owners, subvalue
posters) *structured* so a canonicalizer can rename them through a
permutation before rendering.  ``identity_key`` renders the state
as-is (exact-configuration dedup); the stabilizer-chain canonicalizer
(:class:`repro.core.orbits.StabilizerChainCanonicalizer`) renders one
key per candidate permutation and keeps the least.
"""

from __future__ import annotations

import dataclasses
import struct
from hashlib import blake2b
from typing import Dict, Hashable, List, Sequence, Tuple

from .system import System

_U32 = struct.Struct(">I")
_I64_BIAS = 1 << 63

# Type tags, in comparison order.  Byte comparison of two encodings
# first compares tags, so all values of one type sort together; the
# order of types themselves is arbitrary but fixed.
_T_NONE = b"\x00"
_T_FALSE = b"\x01"
_T_TRUE = b"\x02"
_T_INT_NEG = b"\x0e"  # ints below -2**63 (magnitude-encoded)
_T_INT = b"\x10"      # machine-size ints, order-preserving
_T_INT_POS = b"\x12"  # ints at or above 2**63
_T_FLOAT = b"\x18"
_T_STR = b"\x20"
_T_BYTES = b"\x28"
_T_TUPLE = b"\x30"
_T_LIST = b"\x31"
_T_FROZENSET = b"\x38"
_T_DICT = b"\x40"
_T_DATACLASS = b"\x48"
_T_OTHER = b"\x7e"


def _join(parts: Sequence[bytes]) -> bytes:
    """Length-prefix and concatenate: injective for any part list."""
    out = bytearray()
    for part in parts:
        out += _U32.pack(len(part))
        out += part
    return bytes(out)


def encode_value(value: Hashable) -> bytes:
    """The canonical byte encoding of one state value.

    Total, injective, and hash-seed independent over the closure of
    ``None | bool | int | float | str | bytes`` under tuples, lists,
    frozensets/sets, dicts and (frozen) dataclasses.  Anything else
    falls back to ``(type qualname, repr)`` -- deterministic as long as
    the type's ``repr`` is, which every state type in this repository
    guarantees.

    Ordering notes: machine-size integers (``|v| < 2**63``) compare
    *numerically* (the old repr comparison ordered ``10`` before ``2``);
    strings and containers compare shortlex (length first, then
    contents), which is total and formatting-independent.
    """
    if value is None:
        return _T_NONE
    tpe = type(value)
    if tpe is bool:
        return _T_TRUE if value else _T_FALSE
    if tpe is int:
        if -_I64_BIAS <= value < _I64_BIAS:
            return _T_INT + struct.pack(">Q", value + _I64_BIAS)
        magnitude = abs(value)
        blob = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        if value >= 0:
            return _T_INT_POS + _U32.pack(len(blob)) + blob
        # Complement so more-negative sorts earlier among big negatives.
        return (
            _T_INT_NEG
            + _U32.pack(0xFFFFFFFF - len(blob))
            + bytes(255 - b for b in blob)
        )
    if tpe is float:
        # Standard order-preserving trick: flip the sign bit of
        # non-negatives, complement negatives.  NaN is canonicalized so
        # equal-by-identity NaN keys encode identically, and -0.0 so
        # that it encodes like the 0.0 it equals (and hashes as).
        if value != value:  # NaN
            return _T_FLOAT + b"\xff" * 8
        if value == 0.0:
            value = 0.0
        bits = struct.unpack(">Q", struct.pack(">d", value))[0]
        if bits & (1 << 63):
            bits = ~bits & 0xFFFFFFFFFFFFFFFF
        else:
            bits |= 1 << 63
        return _T_FLOAT + struct.pack(">Q", bits)
    if tpe is str:
        return _T_STR + value.encode("utf-8", "surrogatepass")
    if tpe is bytes:
        return _T_BYTES + value
    if tpe is tuple or tpe is list:
        tag = _T_TUPLE if tpe is tuple else _T_LIST
        return tag + _join([encode_value(item) for item in value])
    if tpe is frozenset or tpe is set:
        return _T_FROZENSET + _join(sorted(encode_value(item) for item in value))
    if tpe is dict:
        items = sorted(
            (encode_value(k), encode_value(v)) for k, v in value.items()
        )
        return _T_DICT + _join([k + v for k, v in items])
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ]
        name = f"{tpe.__module__}.{tpe.__qualname__}".encode()
        return _T_DATACLASS + _join([name] + fields)
    name = f"{tpe.__module__}.{tpe.__qualname__}".encode()
    return _T_OTHER + _join([name, repr(value).encode()])


def fingerprint(value: Hashable, digest_size: int = 16) -> str:
    """Hex digest of :func:`encode_value` -- a hash-seed-independent
    content fingerprint.

    The parametric layer compares orbit/class structures across sizes by
    these strings; anything :func:`encode_value` accepts can be
    fingerprinted, and equal values always produce equal hex digests
    regardless of ``PYTHONHASHSEED`` or process boundaries.
    """
    return blake2b(encode_value(value), digest_size=digest_size).hexdigest()


def form_to_wire(form: bytes) -> str:
    """The JSON spelling of a byte-encoded canonical form: ``"b:" + hex``
    (the hierarchy's separation-witness records)."""
    return "b:" + form.hex()


def form_from_wire(wire: object) -> bytes:
    """Inverse of :func:`form_to_wire`; ``ValueError`` for any other
    shape (untagged hex, ``repr`` strings, odd-length or non-hex data)."""
    if not isinstance(wire, str) or not wire.startswith("b:"):
        raise ValueError(f"form key {wire!r} is not 'b:' + hex")
    try:
        return bytes.fromhex(wire[2:])
    except ValueError:
        raise ValueError(f"form key {wire!r} is not hex after 'b:'") from None


class ValueInterner:
    """Memoized :func:`encode_value`, keyed by ``(type, value)``.

    The type rides in the key because Python considers ``1``, ``1.0``
    and ``True`` equal (one dict slot), while their encodings must stay
    distinct and deterministic regardless of which was seen first.
    Interning also means repeated values across millions of states are
    encoded once and shared as one ``bytes`` object.
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple[type, Hashable], bytes] = {}

    def encode(self, value: Hashable) -> bytes:
        key = (type(value), value)
        blob = self._memo.get(key)
        if blob is None:
            blob = encode_value(value)
            self._memo[key] = blob
        return blob

    def __len__(self) -> int:
        return len(self._memo)


#: A structured (renamable) variable entry: ``("P", payload, owner)`` for
#: plain variables (owner is a processor index or -1) or
#: ``("Q", base, ((poster, payload), ...))`` for subvalue variables.
VarEntry = Tuple


class StateEncoder:
    """Encode one system's exploration states into flat byte keys.

    One encoder per system (and per process): it pins the processor and
    variable axes and owns the intern table.  The two products are

    * :meth:`proc_slots` / :meth:`var_entries` -- the intermediate form
      a canonicalizer permutes (interned bytes per processor slot,
      structured entries per variable so embedded processor indices can
      be renamed); and
    * :meth:`identity_key` -- the final flat ``bytes`` key of the state
      as-is, used directly when symmetry reduction is off.  It is the
      join (:meth:`join_key`) of one length-prefixed slot per processor
      and per variable (:meth:`state_slots`), so a search that knows
      which entries a step changed re-encodes only those slots
      (:meth:`proc_slot`, :meth:`var_slot`) and joins the rest as they
      were.

    Keys are self-delimiting (fixed slot count per system, every slot
    length-prefixed), so key equality is exact state equality.
    """

    def __init__(self, system: System) -> None:
        self.system = system
        self.n_procs = len(system.processors)
        self.n_vars = len(system.variables)
        self._intern = ValueInterner()

    # -- intermediate (permutable) form --------------------------------

    def proc_slots(
        self,
        proc_part: Tuple[Hashable, ...],
        vectors: Sequence[Tuple[Hashable, ...]] = (),
    ) -> Tuple[bytes, ...]:
        """One interned blob per processor index: local-state entry plus
        the processor's column of every rider vector."""
        encode = self._intern.encode
        if not vectors:
            return tuple(encode(entry) for entry in proc_part)
        return tuple(
            encode((proc_part[i],) + tuple(vec[i] for vec in vectors))
            for i in range(self.n_procs)
        )

    def var_entries(self, var_part: Tuple[VarEntry, ...]) -> Tuple[VarEntry, ...]:
        """Structured entries with value payloads interned but processor
        references (owners, posters) kept as raw indices for renaming."""
        return tuple(self._var_entry(entry) for entry in var_part)

    def _var_entry(self, entry: Tuple) -> VarEntry:
        encode = self._intern.encode
        if entry[0] == "plain":
            _kind, value, locked, owner = entry
            return ("P", encode((value, locked)), owner)
        # ("subvalue", base, ((proc_index, value), ...))
        _kind, base, items = entry
        return ("Q", encode(base), tuple((i, encode(v)) for i, v in items))

    # -- rendering -----------------------------------------------------

    @staticmethod
    def render_var(entry: VarEntry, owner_position) -> bytes:
        """Flatten one structured entry, mapping each embedded processor
        index through ``owner_position`` (its slot in the rendered
        processor axis)."""
        if entry[0] == "P":
            _tag, payload, owner = entry
            pos = owner_position(owner) + 1 if owner >= 0 else 0
            return b"P" + _U32.pack(pos) + payload
        _tag, base, items = entry
        renamed = sorted((owner_position(i), blob) for i, blob in items)
        return (
            b"Q"
            + _U32.pack(len(base))
            + base
            + _join([_U32.pack(pos) + blob for pos, blob in renamed])
        )

    @staticmethod
    def join_slots(slots: Sequence[bytes]) -> bytes:
        """The final flat key: length-prefixed concatenation."""
        return _join(slots)

    # -- identity keys, slot by slot ------------------------------------

    def proc_slot(self, entry: Hashable) -> bytes:
        """One processor's length-prefixed slot, rider values not yet
        composed (:meth:`join_key` adds them)."""
        blob = self._intern.encode(entry)
        return _U32.pack(len(blob)) + blob

    def var_slot(self, entry: Tuple) -> bytes:
        """One variable's length-prefixed slot under the identity."""
        blob = self.render_var(self._var_entry(entry), _identity)
        return _U32.pack(len(blob)) + blob

    def state_slots(
        self, proc_part: Tuple[Hashable, ...], var_part: Tuple[Tuple, ...]
    ) -> List[bytes]:
        """Every slot of a state: processors, then variables."""
        slots = [self.proc_slot(entry) for entry in proc_part]
        slots.extend(self.var_slot(entry) for entry in var_part)
        return slots

    def join_key(
        self,
        slots: Sequence[bytes],
        vectors: Sequence[Tuple[Hashable, ...]] = (),
    ) -> bytes:
        """The identity key of a state from its :meth:`state_slots`.

        A rider column turns processor ``i``'s slot into the encoding of
        the tuple ``(entry, vec[i], ...)``, which is the tuple tag, the
        entry's slot as it stands, and the riders' own length-prefixed
        encodings.
        """
        if not vectors:
            return b"".join(slots)
        encode = self._intern.encode
        out: List[bytes] = []
        for i in range(self.n_procs):
            body = _T_TUPLE + slots[i] + b"".join(
                _U32.pack(len(blob)) + blob
                for blob in [encode(vec[i]) for vec in vectors]
            )
            out.append(_U32.pack(len(body)) + body)
        out.extend(slots[self.n_procs:])
        return b"".join(out)

    def identity_key(
        self,
        proc_part: Tuple[Hashable, ...],
        var_part: Tuple[VarEntry, ...],
        vectors: Sequence[Tuple[Hashable, ...]] = (),
    ) -> bytes:
        """The flat key of the state under the identity permutation."""
        return self.join_key(self.state_slots(proc_part, var_part), vectors)


def _identity(i: int) -> int:
    return i

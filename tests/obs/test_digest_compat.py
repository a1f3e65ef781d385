"""Trace-digest regressions: encoding-based digests only.

``stable_digest`` used to hash ``repr(value)``, which leaks dict/set
iteration order and repr formatting into recorded traces.  It now hashes
the canonical byte encoding, and replay accepts that scheme alone: a
trace carrying repr digests ends in a divergence report.
"""

import hashlib

import pytest

from repro.core.encoding import encode_value
from repro.obs import (
    digest_matches,
    load_trace,
    record_scenario,
    replay_trace,
    stable_digest,
)
from repro.obs import trace_io

def repr_digest(value):
    """The retired scheme: SHA-256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


RING = {
    "topology": "ring", "size": 4, "model": "Q",
    "program": "random", "program_seed": 3,
    "scheduler": "random", "sched_seed": 11,
}


class TestStableDigest:
    def test_hashes_canonical_encoding_not_repr(self):
        value = {"b": 2, "a": (1, 2)}
        assert stable_digest(value) == hashlib.sha256(
            encode_value(value)
        ).hexdigest()[:16]
        assert stable_digest(value) != repr_digest(value)

    def test_dict_insertion_order_invariant(self):
        # repr() distinguishes insertion orders; the encoding must not.
        ab = dict([("a", 1), ("b", 2)])
        ba = dict([("b", 2), ("a", 1)])
        assert repr(ab) != repr(ba)
        assert stable_digest(ab) == stable_digest(ba)
        assert repr_digest(ab) != repr_digest(ba)


class TestDigestMatches:
    @pytest.mark.parametrize("value", [0, "x", (1, "y"), {"a": [1]}, None])
    def test_accepts_stable_rejects_repr_digest(self, value):
        assert digest_matches(stable_digest(value), value)
        assert not digest_matches(repr_digest(value), value)

    def test_rejects_wrong_value_and_missing_digest(self):
        assert not digest_matches(stable_digest("x"), "y")
        assert not digest_matches(repr_digest("x"), "y")
        assert not digest_matches(None, "x")


class TestLegacyTraceReplay:
    def test_legacy_trace_reports_divergence(self, tmp_path, monkeypatch):
        """A trace recorded under the repr-digest scheme no longer
        verifies: replay ends in a divergence report, not a traceback."""
        path = str(tmp_path / "legacy.jsonl")
        with monkeypatch.context() as patch:
            # Recording resolves digests through the trace_io module
            # globals, so this produces a genuine pre-change trace file.
            patch.setattr(trace_io, "stable_digest", repr_digest)
            record_scenario(RING, steps=40, path=path)

        # Prove the file really carries legacy digests: the same run
        # recorded unpatched ends on a different digest (the schemes
        # agree only by a 2^-64 collision).
        fresh = str(tmp_path / "fresh.jsonl")
        record_scenario(RING, steps=40, path=fresh)
        assert load_trace(path).end["digest"] != load_trace(fresh).end["digest"]

        report = replay_trace(path)
        assert not report.ok
        assert report.divergence is not None

    def test_new_trace_replays_and_tampering_still_detected(self, tmp_path):
        path = str(tmp_path / "fresh.jsonl")
        record_scenario(RING, steps=40, path=path)
        assert replay_trace(path).ok

        # Corrupt the end digest: neither scheme may accept it.
        lines = open(path).read().splitlines()
        lines[-1] = lines[-1].replace(
            load_trace(path).end["digest"], "0" * 16
        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = replay_trace(path)
        assert not report.ok

"""Smoke tests for the ``refinement`` bench (Algorithm 1's engines)."""

import json

import pytest

from repro.perf import bench
from repro.perf.bench import format_timings, run_bench


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "REFINEMENT_CASES", (("ring", 12),))
    monkeypatch.setattr(bench, "REFINEMENT_BATCH", (12, 2))


class TestRunMicrobench:
    def test_smoke_document_shape(self, tiny, tmp_path):
        out = tmp_path / "BENCH_refinement.json"
        doc = run_bench("refinement", workers=1, output=str(out))
        assert json.loads(out.read_text()) == doc
        assert set(doc) == {"meta", "determinism", "timings", "ok"}
        assert doc["ok"] is True
        cells = doc["determinism"]["cells"]
        assert {c["engine"] for c in cells} == {"literal", "signatures", "worklist"}
        for cell in cells:
            assert cell["classes"] == 24  # marked ring: every node unique
        batch = doc["determinism"]["batch"]
        assert batch["family_size"] == 2
        assert batch["distinct"] == 2
        assert batch["classes"] == [24, 24]
        for row in doc["timings"]:
            assert row["elapsed_s"] >= 0

    def test_gates_record_null_not_crash(self, monkeypatch):
        # 150 > the literal gate (100): the literal cell must be null.
        monkeypatch.setattr(bench, "REFINEMENT_CASES", (("ring", 150),))
        monkeypatch.setattr(bench, "REFINEMENT_BATCH", (12, 1))
        doc = run_bench("refinement", workers=1)
        by_engine = {c["engine"]: c for c in doc["determinism"]["cells"]}
        assert by_engine["literal"]["classes"] is None
        assert by_engine["worklist"]["classes"] == 300
        timings = {r["engine"]: r for r in doc["timings"] if r["case"] == "ring/150"}
        assert timings["literal"]["elapsed_s"] is None
        assert timings["worklist"]["elapsed_s"] >= 0
        # a gated cell does not count against the gate
        assert doc["ok"] is True

    def test_format_renders(self, tiny):
        text = format_timings(run_bench("refinement", workers=1))
        assert "bench refinement" in text
        assert "worklist" in text
        assert "batch ring/12 x2" in text
        assert text.endswith("ok: yes")

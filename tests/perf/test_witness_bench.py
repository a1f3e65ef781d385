"""Smoke tests for the ``witness`` bench (separation-witness sweeps)."""

import json

import pytest

from repro.core.hierarchy import POWER_ORDER
from repro.perf import bench
from repro.perf.bench import WITNESS_PAIRS, format_timings, run_bench


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "WITNESS_PAIRS", (("Q", "L"),))
    monkeypatch.setattr(
        bench,
        "WITNESS_BOUNDS",
        {"max_processors": 2, "max_names": 1, "max_variables": 2,
         "allow_marks": False},
    )


class TestRunWitnessBench:
    def test_smoke_document_shape(self, tiny, tmp_path):
        out = tmp_path / "BENCH_witness.json"
        doc = run_bench("witness", workers=1, output=str(out))
        assert json.loads(out.read_text()) == doc
        assert doc["ok"] is True
        (pair,) = doc["determinism"]["pairs"]
        assert pair["weaker"] == "Q" and pair["stronger"] == "L"
        assert len(pair["witnesses"]) >= 1
        assert all(isinstance(w, str) for w in pair["witnesses"])
        assert pair["agreement"] is True
        assert pair["serial_cache_misses"] > 0
        # The warm re-run must answer every decision from the cache.
        assert pair["cached_cache_misses"] == 0
        (row,) = doc["timings"]
        assert row["case"] == "Q<L"
        assert row["serial_s"] > 0
        assert row["pooled_s"] > 0
        assert row["cached_s"] > 0

    def test_adjacent_pairs_cover_power_order(self):
        assert len(WITNESS_PAIRS) == len(POWER_ORDER) - 1
        assert all(
            (weaker, stronger) == (POWER_ORDER[i], POWER_ORDER[i + 1])
            for i, (weaker, stronger) in enumerate(WITNESS_PAIRS)
        )

    def test_format_renders(self, tiny):
        text = format_timings(run_bench("witness", workers=1))
        assert "Q<L" in text
        assert text.endswith("ok: yes")

"""Smoke tests for the ``mp_faults`` bench (faulty-channel delivery)."""

import json

import pytest

from repro.perf import bench
from repro.perf.bench import MP_CONFIGS, format_timings, run_bench


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(bench, "MP_SIZES", (8,))
    monkeypatch.setattr(bench, "MP_DELIVERIES", 400)


def _by_config(doc):
    return {row["config"]: row for row in doc["determinism"]["rows"]}


class TestRunMPBench:
    def test_smoke_document_shape(self, small, tmp_path):
        out = tmp_path / "BENCH_mp_faults.json"
        doc = run_bench("mp_faults", output=str(out))
        assert json.loads(out.read_text()) == doc
        # a serial bench: no worker fields in its meta
        assert set(doc["meta"]) == {"timestamp", "python", "cpu_count", "bench"}
        assert doc["determinism"]["deliveries"] == 400
        assert set(_by_config(doc)) == set(MP_CONFIGS)
        for row in doc["determinism"]["rows"]:
            assert row["n"] == 8
            assert row["deliveries"] > 0
        assert len(doc["timings"]) == len(MP_CONFIGS)
        for row in doc["timings"]:
            assert row["elapsed_s"] >= 0
            assert row["deliveries_per_s"] > 0

    def test_fault_free_configs_lose_nothing(self, small):
        doc = run_bench("mp_faults")
        assert doc["ok"] is True
        for name in ("reliable", "faulty-passthrough"):
            row = _by_config(doc)[name]
            assert row["drops"] == 0
            assert row["duplicates"] == 0
            assert row["delayed"] == 0

    def test_lossy_configs_exercise_the_fault_path(self, small):
        by_config = _by_config(run_bench("mp_faults"))
        assert by_config["lossy"]["drops"] > 0
        assert by_config["lossy-dup-delay"]["duplicates"] > 0
        assert by_config["lossy-dup-delay"]["delayed"] > 0

    def test_no_output_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "MP_SIZES", (4,))
        monkeypatch.setattr(bench, "MP_DELIVERIES", 50)
        monkeypatch.chdir(tmp_path)
        run_bench("mp_faults", output=None, determinism_output=None)
        assert list(tmp_path.iterdir()) == []

    def test_format_renders(self, monkeypatch):
        monkeypatch.setattr(bench, "MP_SIZES", (4,))
        monkeypatch.setattr(bench, "MP_DELIVERIES", 50)
        text = format_timings(run_bench("mp_faults"))
        assert "bench mp_faults" in text
        assert "lossy-dup-delay" in text

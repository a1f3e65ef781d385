"""Smoke and determinism tests for the ``serve`` bench."""

import json

from repro.perf import serve_bench
from repro.perf.bench import format_timings, run_bench
from repro.perf.serve_bench import build_workload, result_digest


class TestWorkload:
    def test_seeded_and_reproducible(self):
        assert build_workload(16, 7) == build_workload(16, 7)
        assert build_workload(16, 7) != build_workload(16, 8)

    def test_every_request_is_well_formed(self):
        for request in build_workload(40, 3):
            assert request["op"] in ("similarity", "witness", "explore")
            if request["op"] == "similarity":
                scenario = request["scenario"]
                if scenario["topology"] == "alternating-ring":
                    assert scenario["size"] % 2 == 0


class TestResultDigest:
    def test_strips_interleaving_dependent_counters(self):
        a = {"op": "witness", "count": 2, "stats": {"cache_hits": 5},
             "cache_misses": 9}
        b = {"op": "witness", "count": 2, "stats": {"cache_hits": 0},
             "cache_misses": 0}
        assert result_digest(a) == result_digest(b)
        assert result_digest(a) != result_digest(dict(a, count=3))


class TestRunServeBench:
    def test_smoke_and_acceptance(self, monkeypatch, tmp_path):
        monkeypatch.setattr(serve_bench, "REQUESTS", 8)
        out = tmp_path / "BENCH_serve.json"
        det_out = tmp_path / "det.json"
        doc = run_bench(
            "serve",
            workers=1,
            output=str(out),
            determinism_output=str(det_out),
            store=str(tmp_path / "store"),
        )
        assert json.loads(out.read_text()) == doc
        assert doc["ok"] is True

        det = doc["determinism"]
        assert det["cold_warm_agree"] is True
        assert len(det["results"]) == 8
        assert sum(det["workload"]["mix"].values()) == 8
        assert det["workload"]["seed"] == 7
        assert all(det["hardening"].values()) and len(det["hardening"]) == 5
        assert all(det["gc"].values()) and len(det["gc"]) == 3
        # Timings present but segregated from the comparable section.
        cold, warm = doc["timings"]
        assert (cold["case"], warm["case"]) == ("cold", "warm")
        for row in (cold, warm):
            assert row["p50_ms"] >= 0 and row["p99_ms"] >= row["p50_ms"]
        assert json.loads(det_out.read_text()) == det

        text = format_timings(doc)
        assert "cold" in text and "warm" in text and "p99_ms" in text

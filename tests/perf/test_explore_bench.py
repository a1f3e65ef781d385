"""Smoke tests for the ``explore`` bench (schedule explorer)."""

import json

import pytest

from repro.analysis.explore import ExploreSpec
from repro.perf import bench
from repro.perf.bench import EXPLORE_CASES, format_timings, run_bench

#: A CI-sized case set: one violation, one certification.
TINY_CASES = (
    (
        "dp4-deadlock",
        ExploreSpec(
            scenario={"topology": "dining", "size": 4, "program": "left-first"},
            max_depth=8,
            invariants=("exclusion",),
        ),
    ),
    (
        "ring3-lockstep",
        ExploreSpec(
            scenario={"topology": "ring", "size": 3, "model": "Q",
                      "program": "random"},
            max_depth=6,
            fairness="k-bounded",
            k=3,
            invariants=("lockstep",),
            check_deadlock=False,
        ),
    ),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "EXPLORE_CASES", TINY_CASES)


class TestRunExploreBench:
    def test_smoke_document_shape(self, tiny, tmp_path):
        out = tmp_path / "BENCH_explore.json"
        doc = run_bench("explore", workers=1, output=str(out))
        assert json.loads(out.read_text()) == doc
        assert doc["ok"] is True
        deadlock, lockstep = doc["determinism"]["cases"]
        assert deadlock["case"] == "dp4-deadlock"
        assert deadlock["verdict"] == "violation"
        assert deadlock["violation"]["kind"] == "deadlock"
        assert deadlock["violation"]["depth"] == 8
        # symmetry reduction must actually reduce on the uniform table
        assert deadlock["states_reduced"] < deadlock["states_unreduced"]
        assert deadlock["group_size"] == 4
        assert lockstep["verdict"] == "certified"
        assert lockstep["violation"] is None
        for case in doc["determinism"]["cases"]:
            assert case["agreement"] is True
        for row in doc["timings"]:
            assert row["unreduced_s"] >= 0
            assert row["reduced_s"] >= 0
            assert row["pooled_s"] >= 0
        # one worker never oversubscribes, so the run is not degraded
        assert doc["meta"]["requested_workers"] == 1
        assert doc["meta"]["degraded"] is False

    def test_default_cases_are_the_headline_experiments(self):
        names = [name for name, _spec in EXPLORE_CASES]
        assert names == ["dp-deadlock", "dp-prime-certified", "ring-lockstep"]
        specs = dict(EXPLORE_CASES)
        assert specs["dp-deadlock"].scenario["topology"] == "dining"
        assert specs["dp-prime-certified"].scenario["alternating"] is True
        assert specs["ring-lockstep"].fairness == "k-bounded"

    def test_format_renders(self, monkeypatch):
        monkeypatch.setattr(bench, "EXPLORE_CASES", TINY_CASES[:1])
        text = format_timings(run_bench("explore", workers=1))
        assert "dp4-deadlock" in text
        assert text.endswith("ok: yes")

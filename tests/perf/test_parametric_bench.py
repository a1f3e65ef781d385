"""Smoke tests for the ``parametric`` bench (cutoff certificates)."""

import json

import pytest

from repro.perf import bench
from repro.perf.bench import PARAMETRIC_CASES, format_timings, run_bench


@pytest.fixture(scope="module")
def ring_lockstep(tmp_path_factory):
    """One ring/lockstep run, written to both output files."""
    out = tmp_path_factory.mktemp("parametric")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "PARAMETRIC_CASES", (("ring", "lockstep"),))
        doc = run_bench(
            "parametric",
            output=str(out / "BENCH_parametric.json"),
            determinism_output=str(out / "param_det.json"),
        )
    return doc, out


class TestRunParametricBench:
    def test_smoke_document_shape(self, ring_lockstep):
        doc, out = ring_lockstep
        assert json.loads((out / "BENCH_parametric.json").read_text()) == doc
        assert doc["ok"] is True
        assert set(doc) == {"meta", "determinism", "timings", "ok"}
        (timing,) = doc["timings"]
        assert timing["case"] == "ring/lockstep"
        assert timing["elapsed_s"] >= 0
        report = doc["determinism"]["ring/lockstep"]
        assert report["certificate"]["cutoff"] == 4
        assert report["certificate"]["verdict"] == "certified"

    def test_determinism_section_is_seed_comparable(self, ring_lockstep):
        doc, out = ring_lockstep
        text = (out / "param_det.json").read_text()
        recorded = json.loads(text)
        assert recorded == doc["determinism"]
        report = recorded["ring/lockstep"]
        assert report["certificate"]["cutoff"] == 4
        assert report["verify_cutoff"]["confirmed"] is True
        # the one writer: sorted keys, two-space indent, trailing newline
        assert text == json.dumps(recorded, indent=2, sort_keys=True) + "\n"
        # no timings may leak into the seed-compared section
        assert "elapsed" not in text

    def test_default_cases_are_the_headline_claims(self):
        assert ("dp", "deadlock") in PARAMETRIC_CASES
        assert ("dp-prime", "deadlock-free") in PARAMETRIC_CASES
        assert ("ring", "lockstep") in PARAMETRIC_CASES

    def test_format_renders_table_and_claims(self, ring_lockstep):
        text = format_timings(ring_lockstep[0])
        assert "ring/lockstep" in text
        assert text.endswith("ok: yes")

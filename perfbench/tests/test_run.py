import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import metric_specs
from perfbench.run import END_TO_END_UNITS, ROOT, WORKLOADS, nearest_rank


def test_nearest_rank_index():
    values = list(range(1, 11))
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(list(reversed(values)), 90) == 9
    assert nearest_rank([7.0], 90) == 7.0
    assert nearest_rank([3.0, 1.0], 50) == 1.0
    # The serve run: 150 of 1500 samples lie beyond p90.
    samples = list(range(1500))
    p90 = nearest_rank(samples, 90)
    assert p90 == 1349
    assert sum(1 for s in samples if s > p90) == 150
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_benchmark_json_matches_what_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metric_specs()
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

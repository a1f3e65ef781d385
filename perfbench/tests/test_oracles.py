import copy
from types import SimpleNamespace

import pytest

from perfbench import workloads
from perfbench.workloads import (
    CERTIFY_CASES,
    SWEEP_PAIRS,
    check_certify,
    check_explore,
    check_sweep,
    load_expected,
)


def test_certify_oracle_needs_the_exact_document():
    expected = load_expected("certify")
    docs = [copy.deepcopy(expected[f"{f}/{p}"]) for f, p in CERTIFY_CASES]
    checked = check_certify(docs, expected)
    assert (checked.attempted, checked.failed) == (3, 0)
    assert checked.work["certify.sizes"] > 0

    docs[1]["certificate"]["records"][0]["unique_states"] += 1
    docs[2] = RuntimeError("engine crashed")
    checked = check_certify(docs, expected)
    assert checked.failed == 2


def _fake_sweep(descriptions, enumerated=674):
    witnesses = [SimpleNamespace(describe=lambda d=d: d) for d in descriptions]
    return SimpleNamespace(
        witnesses=witnesses,
        stats=SimpleNamespace(enumerated=enumerated, novel=1),
    )


def test_sweep_oracle_pins_the_cli_witness_lists():
    expected = load_expected("sweep")
    assert [len(expected[f"{w}/{s}"]) for w, s in SWEEP_PAIRS] == [0, 14, 8, 3]
    results = [_fake_sweep(expected[f"{w}/{s}"]) for w, s in SWEEP_PAIRS]
    assert check_sweep(results, expected).failed == 0

    results[1] = _fake_sweep(expected["bounded-fair-S/Q"][:-1])
    results[3] = _fake_sweep(list(reversed(expected["L/L2"])))
    assert check_sweep(results, expected).failed == 2


@pytest.fixture(scope="module")
def dp5():
    import repro.analysis.explore as explore

    name, kwargs = workloads.explore_cases()[0]
    return name, explore.run_explore(explore.ExploreSpec(**kwargs), workers=0)


def test_explore_oracle_pins_counts(dp5):
    name, result = dp5
    expected = load_expected("explore")
    assert check_explore([name], [result], expected).failed == 0

    wrong = copy.copy(result)
    wrong.unique_states += 1
    assert check_explore([name], [wrong], expected).failed == 1


def test_explore_oracle_replays_the_counterexample(dp5):
    from repro.analysis.explore import Violation

    name, result = dp5
    # A schedule that does not deadlock, pinned as if it were the answer:
    # only the replay through verify_counterexample can reject it.
    doc = result.violation.to_json()
    doc["schedule"] = ["phil0"] * len(doc["schedule"])
    wrong = copy.copy(result)
    wrong.violation = Violation.from_json(doc)
    expected = copy.deepcopy(load_expected("explore"))
    expected[name]["violation"] = doc
    checked = check_explore([name], [wrong], expected)
    assert checked.failed == 1
    assert "does not replay" in checked.problems[0]

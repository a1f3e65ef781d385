import importlib
import pkgutil
import sys
import threading
import time
import types

import pytest

from perfbench.layers import HOOKS, LABELS, TARGETS, derive, metric_specs
from perfbench.tracing import Target, Tracer


@pytest.fixture
def tracer(tmp_path):
    tracer = Tracer(str(tmp_path))
    yield tracer
    tracer.uninstall()


@pytest.fixture
def fake_clock(monkeypatch):
    """A perf_counter that only moves when the traced code says so."""
    now = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    return advance


@pytest.fixture
def fake_module(monkeypatch, fake_clock):
    """``search`` calls itself once (the re-search) and a leaf."""
    module = types.ModuleType("perfbench_fake_layer")

    def leaf():
        fake_clock(0.25)

    def search(depth=0):
        fake_clock(1.0)
        if depth == 0:
            module.search(depth=1)
        else:
            module.leaf()
        fake_clock(0.5)

    module.leaf = leaf
    module.search = search
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_self_time_splits_a_nested_call_into_its_own_label(tracer, fake_module):
    tracer.install([
        Target("fake", fake_module.__name__, "search", nested="research"),
        Target("fake", fake_module.__name__, "leaf"),
    ])
    fake_module.search()
    totals = tracer.totals()
    assert totals.calls("fake.search") == 1
    assert totals.calls("fake.research") == 1
    assert totals.calls("fake.leaf") == 1
    # outer: 1.0 + 0.5 of its own; the nested call: 1.5 minus its leaf.
    assert totals.self_s("fake.search") == pytest.approx(1.5)
    assert totals.self_s("fake.research") == pytest.approx(1.5)
    assert totals.self_s("fake.leaf") == pytest.approx(0.25)
    assert totals.incl_s("fake.search") == pytest.approx(3.25)
    assert totals.incl_s("fake.research") == pytest.approx(1.75)
    assert totals.top_s["MainThread"] == pytest.approx(3.25)


def test_research_inside_run_explore(tracer):
    import repro.analysis.explore as explore

    spec = explore.ExploreSpec(
        scenario={"topology": "dining", "size": 5, "program": "left-first"},
        max_depth=10, invariants=("exclusion",),
    )
    tracer.install(TARGETS, HOOKS)
    result = explore.run_explore(spec, workers=0)
    tracer.uninstall()
    assert result.violation is not None
    totals = tracer.totals()
    assert totals.calls("analysis.explore.run_explore") == 1
    assert totals.calls("analysis.explore.research") == 1
    outer = totals.incl_s("analysis.explore.run_explore")
    research = totals.incl_s("analysis.explore.research")
    assert 0 < research < outer
    # Self times of every label add up to the outermost span: nothing
    # is counted twice and nothing is lost.
    assert sum(totals.self_s(label) for label in LABELS) == pytest.approx(outer)
    values = derive(totals, outer, outer, 0, 0.0, {})
    assert values["analysis.explore.research_share"] == pytest.approx(research / outer)
    # The re-search is an unreduced BFS to the violation's depth: the
    # 1722 states BENCH_explore.json reports for DP-5 unreduced.
    assert values["analysis.explore.states"] == result.unique_states + 1722


def _import_all_repro():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # that one runs the CLI
            importlib.import_module(info.name)


def _holders(value):
    return [
        (module.__name__, name)
        for module in list(sys.modules.values())
        for name, held in list(getattr(module, "__dict__", {}).items())
        if held is value
    ]


def test_every_module_alias_is_rebound_and_restored(tracer):
    _import_all_repro()
    originals = {}
    for target in TARGETS:
        if "." in target.attr:
            continue
        module = importlib.import_module(target.module)
        originals[target.label] = getattr(module, target.attr)
    before = {label: _holders(fn) for label, fn in originals.items()}
    refine = "core.refinement.compute_similarity_labeling"
    assert len(before[refine]) >= 10

    tracer.install(TARGETS, HOOKS)
    assert tracer.missing == []
    for label, fn in originals.items():
        assert _holders(fn) == [], f"{label} still reachable unwrapped"
    import repro.core.encoding as encoding

    assert encoding.StateEncoder.identity_key.__wrapped__ is not None

    tracer.uninstall()
    for label, fn in originals.items():
        assert sorted(_holders(fn)) == sorted(before[label])
    assert not hasattr(encoding.StateEncoder.identity_key, "__wrapped__")


def test_missing_names_are_reported_not_raised(tracer):
    tracer.install([
        Target("core.refinement", "repro.core.refinement", "no_such_function"),
        Target("gone", "repro.no_such_module", "f"),
        Target("core.encoding", "repro.core.encoding", "StateEncoder.no_such"),
    ])
    assert tracer.missing == [
        "repro.core.refinement:no_such_function",
        "repro.no_such_module:f",
        "repro.core.encoding:StateEncoder.no_such",
    ]
    values = derive(tracer.totals(), 1.0, 1.0, len(tracer.missing), 0.0, {})
    assert set(values) == {name for name, _unit in metric_specs()}
    assert values["tracing.missing"] == 3
    assert values["core.refinement.compute_similarity_labeling.calls"] == 0


def test_spans_stack_per_thread(tracer, monkeypatch):
    module = types.ModuleType("perfbench_fake_threads")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    started = threading.Event()
    finished = threading.Event()

    def waiting_outer():
        started.set()
        finished.wait(timeout=10)

    def leaf():
        time.sleep(0.05)

    module.waiting_outer = waiting_outer
    module.leaf = leaf
    tracer.install([
        Target("fake", module.__name__, "waiting_outer"),
        Target("fake", module.__name__, "leaf"),
    ])

    def other_thread():
        started.wait(timeout=10)
        module.leaf()
        finished.set()

    worker = threading.Thread(target=other_thread, name="other")
    worker.start()
    module.waiting_outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    totals = tracer.totals()
    # The leaf ran on another thread, so it is not a child of the
    # main thread's open span.
    assert totals.self_s("fake.waiting_outer") == pytest.approx(
        totals.incl_s("fake.waiting_outer")
    )
    assert totals.top_s["other"] == pytest.approx(totals.incl_s("fake.leaf"))


def test_forked_pool_workers_report_their_calls(tracer):
    import repro.analysis.witness_engine as witness_engine

    spec = witness_engine.SweepSpec(
        weaker="Q", stronger="L", max_processors=2, max_names=2, max_variables=2
    )
    tracer.install(TARGETS, HOOKS)
    result = witness_engine.run_sweep(spec, workers=2)
    tracer.uninstall()
    assert result.workers == 2
    totals = tracer.totals()
    worker_threads = [name for name in totals.top_s if name.startswith("worker:")]
    assert worker_threads
    assert totals.calls("core.selection.decide_selection") > 0
    assert totals.count("sweep.enumerated") == result.stats.enumerated

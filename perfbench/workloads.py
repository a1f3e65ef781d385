"""The three batch workloads and the oracles that check their answers.

Each workload is a fixed job list; its inputs do not depend on the
seed.  A pass runs the whole list once through the public ``repro``
entry points with their defaults (no ``workers=``: the library picks
``min(4, nproc)``), then the oracle checks every answer outside the
timed region.

* ``certify``: the three headline cutoff certificates.  Most of the time
  goes to ``verify_cutoff``'s unreduced searches and the counterexample
  re-search, so ``runtime.executor``, ``core.encoding`` and
  ``analysis.explore`` carry it.
* ``explore``: symmetry-reduced searches over the paper's scenarios, the
  one workload where ``core.orbits`` canonicalization does a large share
  of the work.
* ``sweep``: the four adjacent hierarchy witness sweeps, heavy on
  ``core.quotient``, ``core.selection`` and ``core.refinement`` over
  thousands of small systems, on the witness pool.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def load_expected(name: str) -> Any:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json")) as fh:
        return json.load(fh)


@dataclass
class Checked:
    """The oracle's verdict on one pass."""

    attempted: int
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    work: Dict[str, int] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def canonical_json(doc: Any) -> str:
    """The byte form the committed ``BENCH_parametric.json`` uses."""
    return json.dumps(doc, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

CERTIFY_CASES: Tuple[Tuple[str, str], ...] = (
    ("dp", "deadlock"),
    ("dp-prime", "deadlock-free"),
    ("ring", "lockstep"),
)


def check_certify(results: List[Any], expected: Dict[str, dict]) -> Checked:
    """Each report must equal its committed document byte for byte."""
    checked = Checked(attempted=len(CERTIFY_CASES))
    states = sizes = 0
    for (family, prop), doc in zip(CERTIFY_CASES, results):
        key = f"{family}/{prop}"
        if isinstance(doc, BaseException):
            checked.fail(f"{key}: raised {doc!r}")
            continue
        if canonical_json(doc) != canonical_json(expected[key]):
            checked.fail(f"{key}: report differs from the expected document")
            continue
        for record in doc["certificate"]["records"]:
            states += record["unique_states"]
            sizes += 1
    checked.work = {"certify.sizes": sizes, "certify.states": states}
    return checked


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------


def explore_cases() -> List[Tuple[str, dict]]:
    """(name, ExploreSpec keyword arguments) of the explore job list."""
    dining = {"topology": "dining", "program": "left-first"}
    return [
        ("dp5-deadlock", dict(
            scenario=dict(dining, size=5), max_depth=10,
            invariants=("exclusion",))),
        ("dp-prime6", dict(
            scenario=dict(dining, size=6, alternating=True), max_depth=14,
            invariants=("exclusion",))),
        ("dp-prime8", dict(
            scenario=dict(dining, size=8, alternating=True), max_depth=10,
            invariants=("exclusion",))),
        ("ring8-q", dict(
            scenario={"topology": "ring", "size": 8, "model": "Q",
                      "program": "random"}, max_depth=10)),
        ("star5-q", dict(
            scenario={"topology": "star", "size": 5, "model": "Q",
                      "program": "random"}, max_depth=12)),
    ]


def check_explore(names: List[str], results: List[Any],
                  expected: Dict[str, dict]) -> Checked:
    """Verdict, state and transition counts are pinned; every
    counterexample must replay through ``verify_counterexample``."""
    from repro.analysis.explore import verify_counterexample

    checked = Checked(attempted=len(names))
    states = transitions = 0
    for name, result in zip(names, results):
        if isinstance(result, BaseException):
            checked.fail(f"{name}: raised {result!r}")
            continue
        pin = expected[name]
        got = {
            "verdict": result.verdict,
            "unique_states": result.unique_states,
            "transitions": result.stats.transitions,
            "violation": (
                None if result.violation is None else result.violation.to_json()
            ),
        }
        if got != pin:
            checked.fail(f"{name}: got {got}, expected {pin}")
            continue
        if result.violation is not None:
            problem = verify_counterexample({
                "explore": result.spec.to_json(),
                "violation": result.violation.to_json(),
            })
            if problem is not None:
                checked.fail(f"{name}: counterexample does not replay: {problem}")
                continue
        states += result.unique_states
        transitions += result.stats.transitions
    checked.work = {"explore.states": states, "explore.transitions": transitions}
    return checked


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("fair-S", "bounded-fair-S"),
    ("bounded-fair-S", "Q"),
    ("Q", "L"),
    ("L", "L2"),
)


def check_sweep(results: List[Any], expected: Dict[str, List[str]]) -> Checked:
    """Witness lists must match what ``python -m repro witness`` prints
    (counts 0/14/8/3)."""
    checked = Checked(attempted=len(SWEEP_PAIRS))
    enumerated = novel = 0
    for (weaker, stronger), result in zip(SWEEP_PAIRS, results):
        key = f"{weaker}/{stronger}"
        if isinstance(result, BaseException):
            checked.fail(f"{key}: raised {result!r}")
            continue
        described = [w.describe() for w in result.witnesses]
        if described != expected[key]:
            checked.fail(
                f"{key}: {len(described)} witnesses differ from the expected "
                f"{len(expected[key])}"
            )
            continue
        enumerated += result.stats.enumerated
        novel += result.stats.novel
    checked.work = {"sweep.enumerated": enumerated, "sweep.novel": novel}
    return checked


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


@dataclass
class BatchWorkload:
    """A fixed job list: ``jobs`` are zero-argument calls into ``repro``;
    ``check`` judges their results (an exception stands in for the
    result of a job that raised)."""

    jobs: List[Callable[[], Any]]
    check: Callable[[List[Any]], Checked]


# Jobs look their entry point up on the module at call time, so a traced
# run reaches the tracer's wrapper rather than a reference taken here.


def build_certify() -> BatchWorkload:
    import repro.analysis.parametric as parametric

    expected = load_expected("certify")
    jobs = [
        (lambda f=family, p=prop: parametric.run_parametric(f, p))
        for family, prop in CERTIFY_CASES
    ]
    return BatchWorkload(jobs, lambda results: check_certify(results, expected))


def build_explore() -> BatchWorkload:
    import repro.analysis.explore as explore

    expected = load_expected("explore")
    cases = explore_cases()
    names = [name for name, _ in cases]
    specs = [explore.ExploreSpec(**kwargs) for _, kwargs in cases]
    jobs = [(lambda s=spec: explore.run_explore(s)) for spec in specs]
    return BatchWorkload(
        jobs, lambda results: check_explore(names, results, expected)
    )


def build_sweep() -> BatchWorkload:
    import repro.analysis.witness_engine as witness_engine

    expected = load_expected("sweep")
    specs = [witness_engine.SweepSpec(weaker=w, stronger=s) for w, s in SWEEP_PAIRS]
    # No cache argument: run_sweep makes a fresh DecisionCache per pair,
    # as the witness CLI does.
    jobs = [(lambda s=spec: witness_engine.run_sweep(s)) for spec in specs]
    return BatchWorkload(jobs, lambda results: check_sweep(results, expected))


BATCH: Dict[str, Callable[[], BatchWorkload]] = {
    "certify": build_certify,
    "explore": build_explore,
    "sweep": build_sweep,
}

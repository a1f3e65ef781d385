"""Property-based agreement between the explorer and the trace analyses.

The bounded explorer, the Theorem-4 ``lockstep_holds`` checker, and the
cycle-based ``states_equal_infinitely_often`` analysis look at the same
executions through different machinery.  On randomized small systems
their verdicts must agree:

* a restricted single-schedule exploration of the class round-robin
  schedule fires its lockstep invariant exactly when ``lockstep_holds``
  fails over the same rounds (Q programs never halt, so the explorer's
  balanced points are precisely the round boundaries);
* the ``uniform`` probe along a round-robin walk hits at a cycle sample
  if and only if ``states_equal_infinitely_often`` answers True;
* exact-configuration dedup, Θ-orbit dedup, and prefix-sharded runs all
  return the same verdict and the same counterexample.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explore import ExploreSpec, run_explore
from repro.exceptions import ExecutionError
from repro.obs import build_scenario
from repro.runtime import (
    ClassRoundRobinScheduler,
    Executor,
    RoundRobinScheduler,
    lockstep_holds,
    run_until_cycle,
    states_equal_infinitely_often,
)

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def scenarios(draw, topologies=("ring", "path", "star"), max_size=4, marks=True):
    return {
        "topology": draw(st.sampled_from(topologies)),
        "size": draw(st.integers(min_value=2, max_value=max_size)),
        "model": "Q",
        "program": "random",
        "program_seed": draw(st.integers(min_value=0, max_value=50)),
        "marks": draw(st.sampled_from([[], ["p0"]])) if marks else [],
    }


def round_of(scheduler, n):
    scheduler.reset()
    return tuple(scheduler.next_processor(i, None) for i in range(n))


@SETTINGS
@given(scenarios(max_size=3), st.integers(min_value=0, max_value=50))
def test_dedup_variants_agree(scenario, seed):
    """Θ-reduced, unreduced, and DFS runs: one verdict, one witness."""
    spec = ExploreSpec(
        scenario={**scenario, "program_seed": seed},
        max_depth=4,
    )
    reduced = run_explore(spec, workers=0)
    unreduced = run_explore(replace(spec, symmetry=False), workers=0)
    depth_first = run_explore(replace(spec, strategy="dfs"), workers=0)
    assert reduced.verdict == unreduced.verdict == depth_first.verdict
    assert reduced.violation == unreduced.violation == depth_first.violation
    assert reduced.unique_states <= unreduced.unique_states


@SETTINGS
@given(scenarios(topologies=("ring",), marks=False))
def test_theorem4_certified_by_explorer(scenario):
    """The lockstep invariant never fires on single-class families.

    Under ``k``-bounded schedules with ``k`` equal to the processor
    count, every window of ``k`` steps is a permutation round.  When all
    processors form ONE Θ-class (the unmarked ring), every such round is
    a class round robin in some member order, so Theorem 4 applies to
    every balanced point and the sweep over *all* those schedules must
    certify — a strictly stronger empirical check than one
    class-round-robin run.  (This genuinely fails on multi-class
    systems, where a permutation round may wedge a *dissimilar*
    processor between two class members and split their observations;
    see ``test_permutation_rounds_can_split_interleaved_classes``.)
    """
    from repro.core import processor_similarity_classes, similarity_labeling

    bundle = build_scenario(scenario)
    n = len(bundle.system.processors)
    result = run_explore(
        ExploreSpec(
            scenario=scenario,
            max_depth=min(2 * n, 6),
            fairness="k-bounded",
            k=n,
            invariants=("lockstep",),
            check_deadlock=False,
        ),
        workers=0,
    )
    assert result.verdict == "certified"

    theta = similarity_labeling(bundle.system)
    classes = [sorted(b, key=repr) for b in processor_similarity_classes(bundle.system)]
    ex = Executor(
        bundle.system,
        bundle.program,
        ClassRoundRobinScheduler(bundle.system.processors, theta),
    )
    assert lockstep_holds(ex, classes, rounds=6)


def test_permutation_rounds_can_split_interleaved_classes():
    """The boundary of the sweep's lockstep claim, pinned down.

    Theorem 4 promises lockstep under *class* round robin — similar
    processors running back to back.  It does NOT extend to arbitrary
    permutation rounds: on a star with the hub-neighbor ``p0`` marked,
    the round ``p1 p0 p2`` runs the dissimilar ``p0`` *between* the
    class members ``{p1, p2}``, so ``p1`` observes the shared variable
    before ``p0``'s post and ``p2`` after it, and the class splits at a
    balanced point.  The explorer finds exactly such an interleaving —
    while the class-round-robin run of the same system stays lockstep.
    """
    from repro.core import processor_similarity_classes, similarity_labeling

    scenario = {
        "topology": "star",
        "size": 3,
        "model": "Q",
        "program": "random",
        "program_seed": 1,
        "marks": ["p0"],
    }
    result = run_explore(
        ExploreSpec(
            scenario=scenario,
            max_depth=6,
            fairness="k-bounded",
            k=3,
            invariants=("lockstep",),
            check_deadlock=False,
        ),
        workers=0,
    )
    assert result.violation is not None
    assert result.violation.invariant == "lockstep"
    # ... yet Theorem 4's own schedule keeps the classes in lockstep:
    bundle = build_scenario(scenario)
    theta = similarity_labeling(bundle.system)
    classes = [
        sorted(b, key=repr)
        for b in processor_similarity_classes(bundle.system)
    ]
    ex = Executor(
        bundle.system,
        bundle.program,
        ClassRoundRobinScheduler(bundle.system.processors, theta),
    )
    assert lockstep_holds(ex, classes, rounds=6)


@SETTINGS
@given(scenarios(), st.integers(min_value=1, max_value=3))
def test_restricted_walk_agrees_with_lockstep_holds(scenario, rounds):
    """Bidirectional agreement on an *arbitrary* (possibly wrong) partition.

    Theorem 4 makes the true-Θ case all-positive, so to exercise both
    verdicts we hand the same deliberately coarse partition (all
    processors in one class) to ``lockstep_holds`` and to an extra
    explorer invariant, and walk the same class-round-robin schedule with
    ``restrict``.  Q programs never halt, so the explorer's balanced
    points are exactly the round boundaries the trace checker samples —
    the two verdicts must coincide.
    """
    from repro.core import similarity_labeling

    bundle = build_scenario(scenario)
    system = bundle.system
    procs = list(system.processors)
    theta = similarity_labeling(system)
    schedule = round_of(
        ClassRoundRobinScheduler(procs, theta), len(procs)
    )
    bogus = [sorted(procs, key=repr)]

    def coarse_lockstep(executor, counts):
        if counts is None or len(set(counts)) != 1:
            return None
        states = {executor.local[p] for p in bogus[0]}
        if len(states) > 1:
            return "coarse class split"
        return None

    coarse_lockstep.needs_counts = True

    result = run_explore(
        ExploreSpec(
            scenario=scenario,
            max_depth=len(schedule) * rounds,
            restrict=schedule * rounds,
            check_deadlock=False,
        ),
        workers=0,
        extra_invariants=[coarse_lockstep],
    )

    ex = Executor(
        system, bundle.program, ClassRoundRobinScheduler(procs, theta)
    )
    expected = lockstep_holds(ex, bogus, rounds=rounds)
    assert (result.violation is None) == expected


#: Longest round-robin lasso (prefix plus one cycle, in steps) the
#: uniform-probe test explores.
_LASSO_BOUND = 36


def _round_robin(scenario):
    bundle = build_scenario(scenario)
    procs = list(bundle.system.processors)

    def factory():
        return Executor(bundle.system, bundle.program, RoundRobinScheduler(procs))

    return procs, factory


def _fits(scenario):
    """Whether the round-robin lasso of ``scenario`` has at most
    ``_LASSO_BOUND`` steps.  A lasso of k stride samples repeats at
    sample k, so sampling stops one past the longest lasso that fits."""
    procs, factory = _round_robin(scenario)
    n = len(procs)
    try:
        run_until_cycle(factory(), stride=n, max_samples=_LASSO_BOUND // n + 1)
    except ExecutionError:
        return False
    return True


def _scenario(topology, size, marked, seed):
    return {
        "topology": topology,
        "size": size,
        "model": "Q",
        "program": "random",
        "program_seed": seed,
        "marks": ["p0"] if marked else [],
    }


@lru_cache(maxsize=None)
def _short_lasso_scenarios():
    """The (topology, size, marked, seed) of every ring/path scenario of
    2-3 processors whose lasso fits the bound.  Drawing from these alone
    leaves the test nothing to reject, so Hypothesis never filters; both
    verdicts occur among them."""
    return [
        params
        for params in product(("ring", "path"), (2, 3), (False, True), range(51))
        if _fits(_scenario(*params))
    ]


@SETTINGS
@given(st.deferred(
    lambda: st.sampled_from(_short_lasso_scenarios()).map(lambda p: _scenario(*p))
))
def test_uniform_probe_agrees_with_states_equal_infinitely_often(scenario):
    procs, factory = _round_robin(scenario)
    n = len(procs)
    info = run_until_cycle(factory(), stride=n, max_samples=64)
    depth = (info.prefix_length + info.cycle_length) * n
    expected = states_equal_infinitely_often(factory, procs, stride=n)

    schedule = tuple(procs[i % n] for i in range(depth))
    result = run_explore(
        ExploreSpec(
            scenario=scenario,
            max_depth=depth,
            restrict=schedule,
            probes=("uniform",),
            check_deadlock=False,
            probe_limit=4096,
        ),
        workers=0,
    )
    # Cycle samples live at stride boundaries from the prefix on; the
    # walk covers exactly one full lasso, so a hit at such a depth is a
    # configuration the infinite execution revisits forever.
    cycle_hits = [
        hit
        for hit in result.probe_hits
        if hit["depth"] % n == 0 and hit["depth"] >= info.prefix_length * n
    ]
    assert bool(cycle_hits) == expected

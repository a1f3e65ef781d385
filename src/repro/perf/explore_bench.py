"""Schedule-explorer microbenchmark: unreduced vs Θ-reduced vs sharded.

Times :func:`repro.analysis.explore.run_explore` over three headline
cases, three ways each:

* **unreduced** — exact-configuration dedup (``symmetry=False``), serial;
* **reduced** — Θ-orbit canonical dedup, serial: the symmetry-reduction
  payoff is the ``unreduced/reduced`` state ratio, roughly the
  automorphism-group size on fully symmetric families;
* **sharded** — Θ-reduced at the requested worker count: BFS levels of
  more than one chunk run on the process pool (the row records the
  effective worker count, 0 when no level was large enough).

The cases are the paper's headline experiments:

* **DP deadlock** — Figure 4's uniform dining ring: the explorer must
  *rediscover* the circular-hold deadlock exhaustively (left-first
  philosophers, depth ``2n``);
* **DP' certified** — Figure 5's alternating ring, where the orientation
  flip provably removes the deadlock: the explorer certifies
  deadlock-freedom to the bounded depth;
* **ring lockstep** — a symmetric ring under k-bounded schedules with
  the Θ-class ``lockstep`` invariant, the bounded Theorem-4 check.

Each row asserts *agreement*: all three runs must return the same
verdict and (for violations) the identical counterexample schedule;
reduced must visit at most as many states as unreduced.  Everything is
written to ``BENCH_explore.json`` so future PRs can compare.

CLI: ``python -m repro bench-explore --workers 4 --output BENCH_explore.json``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.explore import ExploreSpec, run_explore
from .meta import bench_meta

#: The benchmark cases: (name, spec).  Depths are sized so the serial
#: unreduced run stays in CI-friendly territory (a few seconds).
def default_cases() -> Tuple[Tuple[str, ExploreSpec], ...]:
    dp = {"topology": "dining", "size": 5, "program": "left-first"}
    dpp = {"topology": "dining", "size": 6, "alternating": True, "program": "left-first"}
    ring = {"topology": "ring", "size": 4, "model": "Q", "program": "random"}
    return (
        (
            "dp-deadlock",
            ExploreSpec(scenario=dp, max_depth=10, invariants=("exclusion",)),
        ),
        (
            "dp-prime-certified",
            ExploreSpec(scenario=dpp, max_depth=12, invariants=("exclusion",)),
        ),
        (
            "ring-lockstep",
            ExploreSpec(
                scenario=ring,
                max_depth=8,
                fairness="k-bounded",
                k=4,
                invariants=("lockstep",),
                check_deadlock=False,
            ),
        ),
    )


def _violation_doc(result) -> Optional[dict]:
    return None if result.violation is None else result.violation.to_json()


def run_explore_bench(
    cases: Optional[Sequence[Tuple[str, ExploreSpec]]] = None,
    workers: int = 4,
    output: Optional[str] = "BENCH_explore.json",
) -> dict:
    """Run the explorer benchmark and (optionally) write JSON.

    Args:
        cases: ``(name, spec)`` pairs; defaults to :func:`default_cases`.
        workers: requested pool size for the sharded run (the row records
            the *effective* count, which is 0 when no level ran pooled).
        output: path for the JSON artifact, or None to skip writing.

    Returns:
        The results document (also written to ``output``).
    """
    if cases is None:
        cases = default_cases()
    doc: Dict[str, Any] = {
        "meta": bench_meta(requested_workers=workers),
        "cases": [],
        "all_agree": True,
    }

    for name, spec in cases:
        unreduced = run_explore(replace(spec, symmetry=False), workers=0)
        reduced = run_explore(spec, workers=0)
        sharded = run_explore(spec, workers=workers)

        agree = (
            unreduced.verdict == reduced.verdict == sharded.verdict
            and _violation_doc(unreduced) == _violation_doc(reduced)
            and _violation_doc(unreduced) == _violation_doc(sharded)
            and reduced.unique_states <= unreduced.unique_states
        )
        doc["all_agree"] = doc["all_agree"] and agree
        doc["cases"].append(
            {
                "case": name,
                "verdict": unreduced.verdict,
                "violation": _violation_doc(unreduced),
                "max_depth": spec.max_depth,
                "group_size": reduced.group_size,
                "states_unreduced": unreduced.unique_states,
                "states_reduced": reduced.unique_states,
                "reduction": (
                    round(unreduced.unique_states / reduced.unique_states, 2)
                    if reduced.unique_states
                    else None
                ),
                "transitions_unreduced": unreduced.stats.transitions,
                "transitions_reduced": reduced.stats.transitions,
                "unreduced_s": round(unreduced.elapsed, 4),
                "reduced_s": round(reduced.elapsed, 4),
                "sharded_s": round(sharded.elapsed, 4),
                "speedup_sharded": (
                    round(reduced.elapsed / sharded.elapsed, 2)
                    if sharded.elapsed
                    else None
                ),
                "sharded_workers": sharded.workers,
                "shards": sharded.shards,
                "agreement": agree,
            }
        )

    if output:
        with open(output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return doc


def format_explore_bench(doc: dict) -> str:
    """A terse human-readable rendering of :func:`run_explore_bench` output."""
    meta = doc["meta"]
    lines: List[str] = []
    lines.append(
        f"schedule-explorer bench (python {meta['python']}, "
        f"{meta['cpu_count']} cpu)"
    )
    lines.append(
        f"{'case':<20}{'verdict':>10}{'unred':>8}{'red':>8}{'x':>6}"
        f"{'unred_s':>9}{'red_s':>8}{'shard_s':>9}  agree"
    )
    for row in doc["cases"]:
        ratio = f"{row['reduction']:.1f}" if row["reduction"] else "-"
        lines.append(
            f"{row['case']:<20}{row['verdict']:>10}"
            f"{row['states_unreduced']:>8}{row['states_reduced']:>8}{ratio:>6}"
            f"{row['unreduced_s']:>8.2f}s{row['reduced_s']:>7.2f}s"
            f"{row['sharded_s']:>8.2f}s  {'yes' if row['agreement'] else 'NO'}"
        )
    lines.append(
        "sharded runs used "
        f"{doc['cases'][0]['sharded_workers'] if doc['cases'] else 0} workers "
        f"(requested {meta['requested_workers']}"
        f"{', DEGRADED: more workers than cpus' if meta.get('degraded') else ''}); "
        f"all verdicts agree: {'yes' if doc['all_agree'] else 'NO'}"
    )
    return "\n".join(lines)

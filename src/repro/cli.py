"""Command-line interface: ``python -m repro <command> ...``.

Gives the library's main analyses a shell-friendly surface:

* ``analyze`` -- similarity labeling + selection decision for a built-in
  topology under a chosen model;
* ``figures`` -- the Figure 1-5 summary table;
* ``hierarchy`` -- the model-power decision table with witnesses;
* ``dining N`` -- run the dining-philosopher programs on an N-table;
* ``elect`` -- leader election demos (SELECT / Itai-Rodeh);
* ``batch`` -- bulk similarity analysis of a single-mark family through
  the fingerprint cache / process pool driver;
* ``witness`` -- the sharded separation-witness sweep (checkpointable,
  resumable, deterministic output on any worker count);
* ``explore`` -- bounded exhaustive schedule exploration with Θ-orbit
  symmetry reduction: deadlock/livelock/invariant checking with
  replayable counterexample traces;
* ``parametric`` -- parameterized verification over a symbolic topology
  family: explore sizes until the abstract reachable structure
  stabilizes, certify "for all n >= cutoff", independently re-verify;
* ``serve`` -- the long-lived analysis service: HTTP and/or stdio front
  ends over the coalescing, store-backed engine core;
* ``bench NAME`` -- regenerate one committed ``BENCH_<NAME>.json``
  (``refinement``, ``mp_faults``, ``witness``, ``explore``,
  ``parametric`` or ``serve``); exits 1 if the bench's gate fails;
* ``store-gc`` -- garbage collector of ``serve``'s content store: usage
  report, LRU eviction under a byte cap, compaction, health check;
* ``trace`` -- record a run as a replayable JSONL trace;
* ``trace-mp`` -- record a message-passing run (with optional channel
  faults, crash-stops, and stubborn retransmission) as a trace;
* ``replay`` -- re-run a recorded trace (either flavor) and verify
  bit-for-bit agreement;
* ``report trace --file RUN.jsonl`` -- census/timeline report of a trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from .analysis.reporting import format_table, yesno
from .core import (
    InstructionSet,
    ScheduleClass,
    System,
    decide_selection,
    processor_similarity_classes,
    similarity_labeling,
)
from .topologies import (
    ALL_WITNESSES,
    alternating_ring,
    complete_bipartite,
    dining_system,
    figure1_system,
    figure2_system,
    figure3_system,
    path,
    ring,
    star,
    torus_grid,
)

_TOPOLOGIES = {
    "ring": lambda n: ring(n),
    "alternating-ring": lambda n: alternating_ring(n),
    "path": lambda n: path(n),
    "star": lambda n: star(n),
    "complete": lambda n: complete_bipartite(n, 2),
    "grid": lambda n: torus_grid(n, n),
}

_MODELS = {
    "S": (InstructionSet.S, ScheduleClass.FAIR),
    "BFS": (InstructionSet.S, ScheduleClass.BOUNDED_FAIR),
    "Q": (InstructionSet.Q, ScheduleClass.FAIR),
    "L": (InstructionSet.L, ScheduleClass.FAIR),
    "L2": (InstructionSet.L2, ScheduleClass.FAIR),
}


def _positive_workers(text: str) -> int:
    """argparse type for every ``--workers`` flag: an integer >= 1.

    The engines speak "0 = serial" internally, but on the command line a
    worker count of zero (or less) is always a typo'd request for no
    work at all — reject it up front instead of silently running serial.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1 (1 = serial), got {value}"
        )
    return value


def _build_system(args) -> System:
    if getattr(args, "file", None):
        from .io import load

        return load(args.file)
    try:
        net = _TOPOLOGIES[args.topology](args.size)
    except KeyError:
        raise SystemExit(
            f"unknown topology {args.topology!r}; pick from {sorted(_TOPOLOGIES)}"
        )
    iset, sched = _MODELS[args.model]
    state: Dict = {}
    for mark in args.mark or []:
        state[mark] = 1
    return System(net, state, iset, sched)


def cmd_analyze(args) -> int:
    if args.topology == "file" and not args.file:
        raise SystemExit("analyze file requires --file PATH")
    system = _build_system(args)
    theta = similarity_labeling(system)
    classes = processor_similarity_classes(system)
    decision = decide_selection(system)
    if args.file:
        print(f"system: {args.file}, model {system.instruction_set.value}")
    else:
        print(f"system: {args.topology}({args.size}), model {args.model}, "
              f"marks {args.mark or '-'}")
    print(f"similarity classes (processors): {len(classes)}")
    for block in classes:
        members = ",".join(sorted(map(str, block)))
        print(f"  {{{members}}}")
    print(f"selection possible: {yesno(decision.possible)}  [{decision.theorem}]")
    print(f"  {decision.reason}")
    return 0


def cmd_figures(_args) -> int:
    rows = []
    for name, system in (
        ("Figure 1 (Q)", figure1_system()),
        ("Figure 1 (L)", figure1_system(InstructionSet.L)),
        ("Figure 2 (Q)", figure2_system()),
        ("Figure 2 (BF-S)", figure2_system(InstructionSet.S, ScheduleClass.BOUNDED_FAIR)),
        ("Figure 3 (fair S)", figure3_system()),
        ("Figure 4 / DP-5 (L)", dining_system(5, instruction_set=InstructionSet.L)),
        ("Figure 5 / DP-6 (L)", dining_system(6, alternating=True, instruction_set=InstructionSet.L)),
    ):
        decision = decide_selection(system)
        rows.append((name, yesno(decision.possible), decision.theorem))
    print(format_table(["figure", "selection possible", "decided by"], rows))
    return 0


def cmd_hierarchy(_args) -> int:
    from .core import POWER_ORDER, selection_across_models

    rows = []
    for (weaker, stronger), builder in sorted(ALL_WITNESSES.items(), key=repr):
        net, state, desc = builder()
        report = selection_across_models(net, state, desc)
        rows.append(
            (f"{desc} [{weaker}<{stronger}]",)
            + tuple(yesno(report.decisions[m].possible) for m in POWER_ORDER)
        )
    print(format_table(["witness"] + list(POWER_ORDER), rows))
    return 0


def cmd_dining(args) -> int:
    from .baselines import LeftFirstDiningProgram, run_dining
    from .runtime import RoundRobinScheduler
    from .topologies import adjacent_pairs

    system = dining_system(
        args.size,
        alternating=args.alternating,
        instruction_set=InstructionSet.L,
    )
    report = run_dining(
        system,
        LeftFirstDiningProgram(),
        RoundRobinScheduler(system.processors),
        steps=args.steps,
        adjacent=adjacent_pairs(system),
    )
    shape = "alternating" if args.alternating else "uniform"
    print(f"dining({args.size}, {shape}), left-first program, {args.steps} steps:")
    print(f"  exclusion respected: {yesno(report.safety_ok)}")
    print(f"  deadlocked:          {yesno(report.deadlocked)}")
    print(f"  everyone ate:        {yesno(report.everyone_ate)}")
    print(f"  meals: {dict(sorted(report.meals.items()))}")
    return 0


def cmd_report(args) -> int:
    if args.topology == "trace":
        from .obs import load_trace, trace_report

        if not args.file:
            raise SystemExit("repro report trace requires --file RUN.jsonl")
        print(trace_report(load_trace(args.file)))
        return 0
    from .analysis import full_report

    system = _build_system(args)
    state = {n: system.state0(n) for n in system.nodes}
    report = full_report(system.network, state,
                         description=args.file or f"{args.topology}({args.size})")
    print(report.text)
    return 0


def cmd_explain(args) -> int:
    from .core import explain_dissimilarity

    system = _build_system(args)
    explanation = explain_dissimilarity(system, args.x, args.y)
    print(explanation.reason)
    for line in explanation.chain[1:]:
        print(f"  because: {line}")
    return 0


def cmd_elect(args) -> int:
    if args.randomized:
        from .randomized import elect

        result = elect(args.size, id_space=args.id_space, seed=args.seed)
        print(
            f"Itai-Rodeh on anonymous ring({args.size}): leader p{result.leader} "
            f"after {result.phases} phase(s), {result.messages} messages"
        )
        return 0
    from .algorithms import select_program
    from .runtime import verify_selection_program

    system = System(ring(args.size), {"p0": 1}, InstructionSet.Q)
    program = select_program(system)
    verdict = verify_selection_program(system, program, max_steps=200_000)
    print(
        f"SELECT on marked ring({args.size}): "
        f"{'OK' if verdict.all_ok else 'FAILED'}, winners {verdict.winners}"
    )
    return 0


def cmd_batch(args) -> int:
    from .core import single_mark_family
    from .perf import batch_similarity

    try:
        net = _TOPOLOGIES[args.topology](args.size)
    except KeyError:
        raise SystemExit(
            f"unknown topology {args.topology!r}; pick from {sorted(_TOPOLOGIES)}"
        )
    iset, sched = _MODELS[args.model]
    procs = list(net.processors)[: args.members] if args.members else None
    family = single_mark_family(
        net, processors=procs, instruction_set=iset, schedule_class=sched
    )
    report = batch_similarity(
        family.members, engine=args.engine, workers=args.workers
    )
    counts = sorted({r.stats.classes for r in report.results})
    print(
        f"batch: {args.topology}({args.size}) single-mark family, "
        f"{len(family)} member(s), model {args.model}, engine {args.engine}"
    )
    print(
        f"  workers {report.workers}, distinct systems {report.distinct}, "
        f"cache hits/misses {report.cache_hits}/{report.cache_misses}"
    )
    print(f"  similarity class counts across members: {counts}")
    print(f"  elapsed: {report.elapsed:.3f}s")
    return 0


def _parse_crashes(specs) -> Dict[str, int]:
    crash_at: Dict[str, int] = {}
    for item in specs or []:
        try:
            proc, _, step = item.partition("=")
            crash_at[proc] = int(step)
        except ValueError:
            raise SystemExit(f"--crash wants PROC=STEP (e.g. phil2=40), got {item!r}")
    return crash_at


def cmd_trace(args) -> int:
    from .obs import ScenarioError, record_scenario

    spec = {
        "topology": args.topology,
        "size": args.size,
        "alternating": args.alternating,
        "model": args.model,
        "marks": args.mark or [],
        "program": args.program,
        "program_seed": args.program_seed,
        "scheduler": args.scheduler,
        "sched_seed": args.sched_seed,
        "crash_at": _parse_crashes(args.crash),
    }
    if args.k is not None:
        spec["k"] = args.k
    try:
        summary = record_scenario(
            spec, args.steps, args.output, sample_every=args.sample_every
        )
    except ScenarioError as exc:
        raise SystemExit(str(exc))
    print(
        f"recorded {summary['steps']} steps ({summary['samples']} samples, "
        f"every {summary['sample_every']}) to {summary['path']}"
    )
    print(f"final digest: {summary['final_digest']}")
    return 0


def cmd_trace_mp(args) -> int:
    from .obs import ScenarioError, record_mp_scenario

    faults = None
    if args.drop or args.duplicate or args.delay or args.crash or args.fault_seed:
        faults = {
            "default": {
                "drop": args.drop,
                "duplicate": args.duplicate,
                "delay": args.delay,
                "max_delay": args.max_delay,
            },
            "crash_at": _parse_crashes(args.crash),
            "seed": args.fault_seed,
        }
    spec = {
        "kind": "mp",
        "topology": args.topology,
        "size": args.size,
        "program": args.program,
        "scheduler": args.scheduler,
        "sched_seed": args.sched_seed,
        "stubborn": args.stubborn,
        "faults": faults,
    }
    if args.ids:
        try:
            spec["ids"] = [int(i) for i in args.ids.split(",")]
        except ValueError:
            raise SystemExit(f"--ids must be comma-separated integers, got {args.ids!r}")
    try:
        summary = record_mp_scenario(
            spec, args.deliveries, args.output, sample_every=args.sample_every
        )
    except ScenarioError as exc:
        raise SystemExit(str(exc))
    print(
        f"recorded {summary['deliveries']} deliveries "
        f"({summary['drops']} dropped, {summary['duplicates']} duplicated, "
        f"{summary['samples']} samples) to {summary['path']}"
    )
    if summary["crashed"]:
        print(f"crashed: {', '.join(summary['crashed'])}")
    if summary["selected"]:
        print(f"selected: {', '.join(summary['selected'])}")
    print(f"final digest: {summary['final_digest']}")
    return 0


#: CLI model shorthands accepted on top of the MODEL_AXIS labels.
_WITNESS_ALIASES = {"S": "fair-S", "BFS": "bounded-fair-S"}


def _witness_label(label: str) -> str:
    return _WITNESS_ALIASES.get(label, label)


def cmd_witness(args) -> int:
    from .analysis.witness_engine import SweepSpec, run_sweep
    from .exceptions import WitnessSearchError

    try:
        spec = SweepSpec(
            weaker=_witness_label(args.weaker),
            stronger=_witness_label(args.stronger),
            max_processors=args.max_processors,
            max_names=args.max_names,
            max_variables=args.max_variables,
            allow_marks=args.allow_marks,
            limit=args.limit,
        )
    except WitnessSearchError as exc:
        raise SystemExit(str(exc))

    hub = None
    if args.events:
        from .obs import EventHub, JsonlSink

        hub = EventHub()
        hub.attach(JsonlSink(open(args.events, "w"), owns=True))
    try:
        result = run_sweep(
            spec, workers=args.workers, checkpoint=args.checkpoint, hub=hub
        )
    except WitnessSearchError as exc:
        raise SystemExit(str(exc))
    finally:
        if hub is not None:
            hub.close()

    print(
        f"witness sweep {spec.weaker} < {spec.stronger}: "
        f"{len(result.witnesses)} witness(es) in {result.elapsed:.2f}s "
        f"({result.shards} shards, {result.resumed_shards} resumed, "
        f"workers {result.workers or 'serial'})"
    )
    print(
        f"  enumerated {result.stats.enumerated}, novel {result.stats.novel}, "
        f"cache hits/misses {result.stats.cache_hits}/{result.stats.cache_misses}"
    )
    for i, witness in enumerate(result.witnesses):
        print(f"  [{i}] {witness.describe()}")
    if args.output:
        import json

        doc = {
            "spec": spec.to_json(),
            "witnesses": [
                {"record": record.to_json(), "description": witness.describe()}
                for record, witness in zip(result.records, result.witnesses)
            ],
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"written: {args.output}")
    return 0


def cmd_explore(args) -> int:
    from .analysis.explore import ExploreSpec, run_explore, write_counterexample
    from .exceptions import ExploreError
    from .obs import ScenarioError

    scenario = {
        "topology": args.topology,
        "size": args.size,
        "alternating": args.alternating,
        "model": args.model,
        "marks": args.mark or [],
        "program": args.program,
        "program_seed": args.program_seed,
        "scheduler": args.scheduler,
        "sched_seed": args.sched_seed,
    }
    if args.sched_k is not None:
        scenario["k"] = args.sched_k
    try:
        spec = ExploreSpec(
            scenario=scenario,
            max_depth=args.max_depth,
            strategy=args.strategy,
            fairness=args.fairness,
            k=args.k,
            symmetry=not args.no_symmetry,
            invariants=tuple(args.invariant or []),
            probes=tuple(args.probe or []),
            check_deadlock=not args.no_deadlock,
            check_livelock=args.livelock,
            progress=args.progress,
        )
    except (ExploreError, ScenarioError) as exc:
        raise SystemExit(str(exc))

    hub = None
    if args.events:
        from .obs import EventHub, JsonlSink

        hub = EventHub()
        hub.attach(JsonlSink(open(args.events, "w"), owns=True))
    try:
        result = run_explore(
            spec, workers=args.workers, checkpoint=args.checkpoint, hub=hub
        )
    except (ExploreError, ScenarioError) as exc:
        raise SystemExit(str(exc))
    finally:
        if hub is not None:
            hub.close()

    print(result.describe())
    if args.output:
        import json

        with open(args.output, "w") as fh:
            json.dump(result.report_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"written: {args.output}")
    if args.states_output:
        with open(args.states_output, "w") as fh:
            for digest in result.state_digests:
                fh.write(digest + "\n")
        print(
            f"states: {len(result.state_digests)} digest(s) "
            f"to {args.states_output}"
        )
    if args.counterexample:
        if result.violation is None:
            print("no violation; counterexample trace not written")
        else:
            summary = write_counterexample(result, args.counterexample)
            print(
                f"counterexample: {summary['steps']} step(s) to {summary['path']} "
                f"(replay with: python -m repro replay {summary['path']})"
            )
    return 1 if result.violation is not None else 0


def cmd_parametric(args) -> int:
    from .analysis.parametric import run_parametric
    from .exceptions import ExploreError, FamilyError, ParametricError

    try:
        doc = run_parametric(
            args.family,
            args.property,
            start=args.start,
            max_sizes=args.max_sizes,
            omega=args.omega,
            structure_depth=args.structure_depth,
            verify_extra=args.verify_extra,
            schema=not args.no_schema,
        )
    except (ParametricError, ExploreError, FamilyError) as exc:
        raise SystemExit(str(exc))

    cert = doc["certificate"]
    verify = doc["verify_cutoff"]
    print(cert["claim"])
    print(
        f"  cutoff {cert['cutoff']} (period {cert['period']}, "
        f"step {cert['step']}), structure depth {cert['structure_depth']}, "
        f"{len(cert['records'])} size(s) explored"
    )
    for record in cert["records"]:
        print(
            f"    n={record['size']}: {record['verdict']} "
            f"(depth {record['depth']}, {record['unique_states']} states, "
            f"{record['profile_count']} abstract profiles) "
            f"fp {record['fingerprint'][:12]}"
        )
    if verify["confirmed"]:
        print(
            f"  verify_cutoff: confirmed unreduced at "
            f"{verify['extra_sizes']} size(s) above the cutoff"
        )
    else:
        print(f"  verify_cutoff: FAILED -- {verify['error']}")
    schema = doc.get("labeling_schema")
    if schema is not None:
        print(
            f"  labeling schema: stabilized at n={schema['stabilized_at']} "
            f"(checked to n={schema['checked_to']}), "
            f"{schema['base_counts']} class(es) + {schema['slope']} per period"
        )
    if args.output:
        import json

        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"written: {args.output}")
    return 0 if verify["confirmed"] else 1


def cmd_serve(args) -> int:
    import asyncio

    from .serve.http import serve_forever
    from .serve.service import AnalysisService

    if args.http is None and not args.stdio:
        raise SystemExit("serve needs a front end: --http PORT and/or --stdio")
    workers = args.workers if args.workers is not None else 1
    service = AnalysisService(
        store_dir=args.store,
        engine_workers=0 if workers <= 1 else workers,
        default_deadline=args.deadline,
        store_max_bytes=args.store_max_bytes,
    )

    def ready(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        asyncio.run(
            serve_forever(
                service,
                http_port=args.http,
                host=args.host,
                stdio=args.stdio,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def cmd_bench(args) -> int:
    from .perf.bench import format_timings, run_bench

    output = f"BENCH_{args.name}.json" if args.output is None else args.output
    doc = run_bench(
        args.name,
        workers=args.workers,
        output=output,
        determinism_output=args.determinism_output,
        store=args.store,
    )
    print(format_timings(doc))
    if output:
        print(f"written: {output}")
    if args.determinism_output:
        print(f"determinism: {args.determinism_output}")
    return 0 if doc["ok"] else 1


def cmd_store_gc(args) -> int:
    import json as json_module

    from .store import StoreError
    from .store.gc import GCReport, check, collect

    try:
        if args.check:
            doc = check(args.dir)
            print(json_module.dumps(doc, indent=2, sort_keys=True))
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    json_module.dump(doc, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                print(f"written: {args.output}")
            if not doc["ok"]:
                print("store-gc: check failed: store has fresh quarantined "
                      "entries", file=sys.stderr)
            return 0 if doc["ok"] else 1
        report = collect(args.dir, max_bytes=args.max_bytes,
                         dry_run=args.dry_run)
    except StoreError as exc:
        raise SystemExit(str(exc))
    assert isinstance(report, GCReport)
    print(report.describe())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_json(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"written: {args.output}")
    return 0 if report.under_cap else 1


def cmd_replay(args) -> int:
    from .obs import TraceError, replay_trace

    try:
        report = replay_trace(args.trace, mode=args.mode)
    except (TraceError, OSError) as exc:
        raise SystemExit(str(exc))
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    from .perf.bench import BENCHES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symmetry and similarity in distributed systems (PODC 1985), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="similarity + selection for a topology")
    analyze.add_argument("topology", choices=sorted(_TOPOLOGIES) + ["file"],
                         help='a built-in topology, or "file" with --file')
    analyze.add_argument("size", type=int, nargs="?", default=0)
    analyze.add_argument("--file", help="load the system from a JSON file (see repro.io)")
    analyze.add_argument("--model", choices=sorted(_MODELS), default="Q")
    analyze.add_argument(
        "--mark", action="append", metavar="NODE",
        help="set this node's initial state to 1 (repeatable)",
    )
    analyze.set_defaults(func=cmd_analyze)

    figures = sub.add_parser("figures", help="the paper's Figures 1-5 decisions")
    figures.set_defaults(func=cmd_figures)

    hierarchy = sub.add_parser("hierarchy", help="model power table with witnesses")
    hierarchy.set_defaults(func=cmd_hierarchy)

    report = sub.add_parser("report", help="full dossier: every analysis at once")
    report.add_argument("topology", choices=sorted(_TOPOLOGIES) + ["file", "trace"],
                        help='a topology, "file" (system JSON), or "trace" (run JSONL)')
    report.add_argument("size", type=int, nargs="?", default=0)
    report.add_argument("--file", help="load the system (or trace) from a file")
    report.add_argument("--model", choices=sorted(_MODELS), default="Q")
    report.add_argument("--mark", action="append", metavar="NODE")
    report.set_defaults(func=cmd_report)

    dining = sub.add_parser("dining", help="run dining philosophers")
    dining.add_argument("size", type=int)
    dining.add_argument("--alternating", action="store_true")
    dining.add_argument("--steps", type=int, default=4000)
    dining.set_defaults(func=cmd_dining)

    explain = sub.add_parser("explain", help="why are two nodes dissimilar?")
    explain.add_argument("topology", choices=sorted(_TOPOLOGIES) + ["file"])
    explain.add_argument("size", type=int, nargs="?", default=0)
    explain.add_argument("x")
    explain.add_argument("y")
    explain.add_argument("--file")
    explain.add_argument("--model", choices=sorted(_MODELS), default="Q")
    explain.add_argument("--mark", action="append", metavar="NODE")
    explain.set_defaults(func=cmd_explain)

    elect = sub.add_parser("elect", help="leader election demos")
    elect.add_argument("size", type=int)
    elect.add_argument("--randomized", action="store_true", help="Itai-Rodeh on an anonymous ring")
    elect.add_argument("--id-space", type=int, default=2)
    elect.add_argument("--seed", type=int, default=0)
    elect.set_defaults(func=cmd_elect)

    batch = sub.add_parser(
        "batch", help="bulk similarity analysis of a single-mark family"
    )
    batch.add_argument("topology", choices=sorted(_TOPOLOGIES))
    batch.add_argument("size", type=int)
    batch.add_argument("--model", choices=sorted(_MODELS), default="Q")
    batch.add_argument(
        "--engine", choices=["literal", "signatures", "worklist"], default="worklist"
    )
    batch.add_argument(
        "--members", type=int, default=None,
        help="only mark the first N processors (default: all)",
    )
    batch.add_argument(
        "--workers", type=_positive_workers, default=None,
        help="process-pool size (1 = serial; default: min(4, cores))",
    )
    batch.set_defaults(func=cmd_batch)

    trace = sub.add_parser(
        "trace", help="record a run as a replayable JSONL trace"
    )
    trace.add_argument("topology", choices=sorted(_TOPOLOGIES) + ["dining"])
    trace.add_argument("size", type=int)
    trace.add_argument("--steps", type=int, default=200)
    trace.add_argument("--output", "-o", default="run.jsonl")
    trace.add_argument("--model", choices=["S", "Q", "L", "L2"], default="Q")
    trace.add_argument(
        "--program", choices=["random", "idle", "left-first", "both-forks"],
        default="random",
    )
    trace.add_argument("--program-seed", type=int, default=0)
    trace.add_argument(
        "--scheduler", choices=["round-robin", "random", "k-bounded"],
        default="round-robin",
    )
    trace.add_argument("--sched-seed", type=int, default=0)
    trace.add_argument("--k", type=int, default=None,
                       help="fairness bound for the k-bounded scheduler")
    trace.add_argument("--mark", action="append", metavar="NODE")
    trace.add_argument("--alternating", action="store_true",
                       help="alternating fork naming (dining only)")
    trace.add_argument(
        "--crash", action="append", metavar="PROC=STEP",
        help="crash PROC at STEP (repeatable)",
    )
    trace.add_argument("--sample-every", type=int, default=None,
                       help="config-digest sampling stride (default: #processors)")
    trace.set_defaults(func=cmd_trace)

    trace_mp = sub.add_parser(
        "trace-mp", help="record a message-passing run (optionally faulty) as a trace"
    )
    trace_mp.add_argument("topology", choices=["ring", "bi-ring", "chain"])
    trace_mp.add_argument("size", type=int)
    trace_mp.add_argument("--deliveries", type=int, default=500,
                          help="delivery budget for the run")
    trace_mp.add_argument("--output", "-o", default="run_mp.jsonl")
    trace_mp.add_argument(
        "--program", choices=["flood", "chang-roberts"], default="flood"
    )
    trace_mp.add_argument("--ids", default=None,
                          help="comma-separated initial values / identifiers")
    trace_mp.add_argument("--scheduler", choices=["random", "fifo"], default="random")
    trace_mp.add_argument("--sched-seed", type=int, default=0)
    trace_mp.add_argument("--stubborn", action="store_true",
                          help="retransmit last payloads when the network idles")
    trace_mp.add_argument("--drop", type=float, default=0.0,
                          help="per-send loss probability on every channel")
    trace_mp.add_argument("--duplicate", type=float, default=0.0,
                          help="per-send duplication probability")
    trace_mp.add_argument("--delay", type=float, default=0.0,
                          help="per-copy delay (reordering) probability")
    trace_mp.add_argument("--max-delay", type=int, default=4,
                          help="max delay in delivery steps")
    trace_mp.add_argument(
        "--crash", action="append", metavar="PROC=INDEX",
        help="crash-stop PROC at delivery INDEX (repeatable)",
    )
    trace_mp.add_argument("--fault-seed", type=int, default=0)
    trace_mp.add_argument("--sample-every", type=int, default=None,
                          help="config-digest sampling stride (default: #processors)")
    trace_mp.set_defaults(func=cmd_trace_mp)

    witness = sub.add_parser(
        "witness", help="sharded separation-witness sweep between two models"
    )
    witness.add_argument(
        "weaker", metavar="WEAKER",
        help="weaker model label (fair-S, bounded-fair-S, Q, L, L2; "
             "S and BFS are accepted shorthands)",
    )
    witness.add_argument("stronger", metavar="STRONGER", help="stronger model label")
    witness.add_argument("--max-processors", type=int, default=3)
    witness.add_argument("--max-names", type=int, default=2)
    witness.add_argument("--max-variables", type=int, default=3)
    witness.add_argument("--allow-marks", action="store_true",
                         help="also mark one node (processor or variable) at a time")
    witness.add_argument("--limit", type=int, default=None,
                         help="stop after this many witnesses (default: exhaust)")
    witness.add_argument(
        "--workers", type=_positive_workers, default=None,
        help="process-pool size (1 = serial; default: min(4, cores))",
    )
    witness.add_argument("--checkpoint", metavar="PATH",
                         help="JSONL checkpoint; an existing file resumes the sweep")
    witness.add_argument("--events", metavar="PATH",
                         help="write per-shard progress / witness events as JSONL")
    witness.add_argument("--output", "-o", metavar="PATH",
                         help="write the witness list as JSON")
    witness.set_defaults(func=cmd_witness)

    explore = sub.add_parser(
        "explore",
        help="bounded exhaustive schedule exploration (symmetry-reduced)",
    )
    explore.add_argument(
        "topology",
        choices=sorted(_TOPOLOGIES) + ["dining", "figure1", "figure2", "figure3"],
    )
    explore.add_argument("size", type=int)
    explore.add_argument("--max-depth", type=int, default=10,
                         help="explore all schedules of at most this length")
    explore.add_argument("--strategy", choices=["bfs", "dfs"], default="bfs")
    explore.add_argument(
        "--fairness", choices=["none", "fair", "k-bounded"], default="none",
        help="restrict enumeration to prefixes of this schedule class",
    )
    explore.add_argument("--k", type=int, default=None,
                         help="bound for --fairness k-bounded")
    explore.add_argument("--no-symmetry", action="store_true",
                         help="deduplicate exact configurations (no Θ-orbit quotient)")
    explore.add_argument(
        "--invariant", action="append", metavar="NAME",
        help="check this named invariant at every state (repeatable; "
             "exclusion, lockstep)",
    )
    explore.add_argument(
        "--probe", action="append", metavar="NAME",
        help="record states matching this named probe (repeatable; "
             "uniform, selected)",
    )
    explore.add_argument("--no-deadlock", action="store_true",
                         help="skip the built-in deadlock check")
    explore.add_argument("--livelock", action="store_true",
                         help="detect livelock cycles (DFS only, needs --progress)")
    explore.add_argument(
        "--progress", choices=["eating", "selected"], default=None,
        help="progress criterion for the livelock check",
    )
    explore.add_argument("--model", choices=["S", "Q", "L", "L2"], default="Q")
    explore.add_argument(
        "--program", choices=["random", "idle", "left-first", "both-forks"],
        default="random",
    )
    explore.add_argument("--program-seed", type=int, default=0)
    explore.add_argument("--mark", action="append", metavar="NODE")
    explore.add_argument("--alternating", action="store_true",
                         help="alternating fork naming (dining only)")
    explore.add_argument(
        "--scheduler", choices=["round-robin", "random", "k-bounded"],
        default="round-robin",
        help="base scheduler recorded in counterexample traces",
    )
    explore.add_argument("--sched-seed", type=int, default=0)
    explore.add_argument("--sched-k", type=int, default=None,
                         help="fairness bound for the k-bounded base scheduler")
    explore.add_argument(
        "--workers", type=_positive_workers, default=None,
        help="process-pool size (1 = serial; default: min(4, cores))",
    )
    explore.add_argument("--checkpoint", metavar="PATH",
                         help="JSONL checkpoint; an existing file resumes the run")
    explore.add_argument("--events", metavar="PATH",
                         help="write per-level progress / violation events as JSONL")
    explore.add_argument("--output", "-o", metavar="PATH",
                         help="write the deterministic exploration report as JSON")
    explore.add_argument(
        "--states-output", metavar="PATH",
        help="write sorted canonical state digests, one hex digest per "
             "line (identical across worker counts and hash seeds)",
    )
    explore.add_argument(
        "--counterexample", metavar="PATH",
        help="write the violating schedule as a replayable JSONL trace",
    )
    explore.set_defaults(func=cmd_explore)

    parametric = sub.add_parser(
        "parametric",
        help="parameterized verification: detect a cutoff, verify once, "
             "conclude for all n",
    )
    parametric.add_argument(
        "--family", required=True,
        help="symbolic topology family (ring, marked-ring, star, "
             "marked-star, dp, dp-prime)",
    )
    parametric.add_argument(
        "--property", required=True,
        help="parameterized property (deadlock, deadlock-free, lockstep)",
    )
    parametric.add_argument("--start", type=int, default=None,
                            help="first size to probe (default: family minimum)")
    parametric.add_argument("--max-sizes", type=int, default=8,
                            help="give up if no cutoff within this many sizes")
    parametric.add_argument("--omega", type=int, default=2,
                            help="counter-abstraction threshold "
                                 "(counts >= ω collapse to 'many')")
    parametric.add_argument("--structure-depth", type=int, default=2,
                            help="fixed depth of the profile runs that "
                                 "detect stabilization (must not grow with n)")
    parametric.add_argument("--verify-extra", type=int, default=2,
                            help="independently re-check this many sizes "
                                 "above the cutoff, unreduced")
    parametric.add_argument("--no-schema", action="store_true",
                            help="skip the labeling-schema computation")
    parametric.add_argument("--output", "-o", metavar="PATH",
                            help="write the full cutoff report as JSON")
    parametric.set_defaults(func=cmd_parametric)

    serve = sub.add_parser(
        "serve", help="long-lived analysis service (HTTP and/or stdio)"
    )
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve HTTP on this port (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default: 127.0.0.1)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve JSON lines on stdin/stdout (EOF stops)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="content store directory: similarity "
                            "summaries, orbit maps (omit: memory-only)")
    serve.add_argument(
        "--workers", type=_positive_workers, default=None,
        help="engine process-pool size per job (1 = serial, the default)",
    )
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline; exceeding it "
                            "returns {'error': 'deadline'} (default: none)")
    serve.add_argument("--store-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="store size cap; flush evicts least-recently-"
                            "used entries past it (default: unbounded)")
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser(
        "bench", help="regenerate a committed BENCH_<NAME>.json artifact"
    )
    bench.add_argument("name", metavar="NAME", choices=list(BENCHES),
                       help=f"one of: {', '.join(BENCHES)}")
    bench.add_argument("--workers", type=_positive_workers, default=2,
                       help="pool size of the pooled runs (1 = serial; default: 2)")
    bench.add_argument("--output", default=None,
                       help='JSON artifact path (default: BENCH_<NAME>.json; '
                            '"" to skip writing)')
    bench.add_argument(
        "--determinism-output", metavar="PATH", default=None,
        help="also write the determinism block alone "
             "(what CI compares byte-for-byte)",
    )
    bench.add_argument("--store", metavar="DIR", default=None,
                       help="the serve bench's store directory "
                            "(default: fresh temp dir)")
    bench.set_defaults(func=cmd_bench)

    store_gc = sub.add_parser(
        "store-gc",
        help="content-store garbage collector: usage, eviction, compaction",
    )
    store_gc.add_argument("dir", help="content-addressed store directory")
    store_gc.add_argument("--max-bytes", type=int, default=None,
                          metavar="BYTES",
                          help="evict least-recently-used entries until the "
                               "store fits (default: compact only)")
    store_gc.add_argument("--check", action="store_true",
                          help="report per-namespace usage and health; exit 1 "
                               "if compaction quarantined anything")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without "
                               "touching the store")
    store_gc.add_argument("--output", default=None, metavar="FILE",
                          help="also write the JSON report to FILE")
    store_gc.set_defaults(func=cmd_store_gc)

    replay = sub.add_parser(
        "replay", help="re-run a recorded trace, verifying determinism"
    )
    replay.add_argument("trace", help="path to a JSONL trace file")
    replay.add_argument(
        "--mode", choices=["schedule", "scheduler"], default="schedule",
        help="drive by recorded schedule, or rebuild the seeded scheduler",
    )
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

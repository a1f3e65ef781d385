"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once with every
public function of :data:`perfbench.layers.TARGETS` wrapped, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it holds the host conditions, both RSS peaks,
every set-up sample, the exact work counts of each pass and the number
of problems (listed on standard error).  See ``perfbench/README.md``
for why each workload and metric exists.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: everything after interpreter start-up.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import faulthandler  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("certify", "explore", "sweep", "serve")

#: Fresh processes that repeat the workload's set-up after the run, so
#: ``setup_s`` is a median of several set-ups.
SETUP_PROBES = 4

#: Pass time of each batch workload on the reference host (2-CPU VM,
#: Python 3.11).  A run makes ``round(--seconds / pass time)`` passes,
#: at least one, so the number of passes does not change with the speed
#: of the commit under test.
NOMINAL_PASS_S = {"certify": 20.0, "explore": 6.5, "sweep": 6.5}

#: Stop a run that hangs this long: its processes are stopped, and it
#: exits with code 1 and no result line...
WATCHDOG_S = 160

#: ...or at once, without stopping them, if that hangs too.
BACKSTOP_S = 176

END_TO_END_UNITS = {
    "wall_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def nearest_rank(values: Sequence[float], pct: int) -> float:
    """The nearest-rank ``pct``-th percentile: the smallest sample with
    at least ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = (pct * len(ordered) + 99) // 100  # ceil(pct * n / 100), exact
    return ordered[max(rank, 1) - 1]


# ----------------------------------------------------------------------
# host conditions
# ----------------------------------------------------------------------


def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8])
    return None


class Host:
    """Host conditions over one run: a slow host is not a slow change."""

    def __init__(self) -> None:
        self.load_start = os.getloadavg()
        self.steal_start = _steal_ticks()

    def to_json(self, samples: int) -> dict:
        steal_end = _steal_ticks()
        steal_s = None
        if self.steal_start is not None and steal_end is not None:
            steal_s = (steal_end - self.steal_start) / os.sysconf("SC_CLK_TCK")
        return {
            "nproc": os.cpu_count(),
            "loadavg_start": [round(x, 2) for x in self.load_start],
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
            "steal_s": steal_s,
            "python": platform.python_version(),
            "samples": samples,
        }


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS in MB of this process and of the largest child reaped so
    far (a pool worker; 0 if none).  They are not summed: a forked
    worker's RSS already counts the pages it shares with this process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": own / 1024.0, "worker": worker / 1024.0}


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------


def probe_setups(workload: str, seed: int) -> List[float]:
    """Set-up times of :data:`SETUP_PROBES` fresh processes, one after
    another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {done.returncode}: {done.stderr[-2000:]}"
            )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------


def timed_pass(jobs) -> Tuple[float, list]:
    """Run the job list once; a job that raises yields its exception."""
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        try:
            results.append(job())
        except Exception as exc:  # the oracle reports it as a failed job
            results.append(exc)
    return time.perf_counter() - t0, results


class Report:
    """What one run prints: metrics, counts, work, problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.work: List[Dict[str, int]] = []
        self.metrics: Dict[str, float] = {}
        self.samples = 0
        self.rss_mb: Dict[str, float] = {}
        self.setup_samples: List[float] = []

    def finish(self, timings: Dict[str, float], rss_mb: Dict[str, float],
               setups: List[float]) -> None:
        """Record the end-to-end metrics; ``setups`` are set-up times,
        this run's first."""
        self.rss_mb = rss_mb
        self.setup_samples = setups
        self.metrics = dict(timings, setup_s=statistics.median(setups),
                            peak_rss_mb=max(rss_mb.values()))

    def add(self, checked) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems.extend(checked.problems)
        self.work.append(checked.work)

    def work_repeats(self) -> bool:
        """Work must repeat exactly from pass to pass, so that a change
        in time cannot hide a change in work."""
        return all(w == self.work[0] for w in self.work)

    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_batch(name: str, seconds: int, trace: bool, spool: str) -> Report:
    from perfbench.workloads import BATCH

    workload = BATCH[name]()
    setup_s = time.perf_counter() - _T0
    report = Report()
    if trace:
        return traced_batch(workload, report, spool)
    walls: List[float] = []
    rss: Dict[str, float] = {}
    for _ in range(max(1, round(seconds / NOMINAL_PASS_S[name]))):
        wall, results = timed_pass(workload.jobs)
        walls.append(wall)
        rss = peak_rss_mb()
        report.add(workload.check(results))
        del results
    report.samples = len(walls)
    wall_s = statistics.median(walls)
    report.finish({
        "wall_s": wall_s,
        "p50_ms": 1000.0 * nearest_rank(walls, 50),
        "p90_ms": 1000.0 * nearest_rank(walls, 90),
        "rps": len(workload.jobs) / wall_s,
    }, rss, [setup_s] + probe_setups(name, 0))
    return report


def traced_batch(workload, report: Report, spool: str) -> Report:
    from perfbench.layers import HOOKS, TARGETS, derive
    from perfbench.tracing import Tracer

    untraced_wall, results = timed_pass(workload.jobs)
    report.add(workload.check(results))
    del results
    tracer = Tracer(spool)
    tracer.install(TARGETS, HOOKS)
    try:
        traced_wall, results = timed_pass(workload.jobs)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    report.add(workload.check(results))
    report.samples = 2
    report.metrics = derive(
        totals, traced_wall, untraced_wall, len(tracer.missing),
        report.fail_ratio(), {},
    )
    report.problems.extend(f"traced name missing: {m}" for m in tracer.missing)
    return report


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def run_serve(seed: int, trace: bool, workdir: str, spool: str,
              probe: bool = False) -> Report:
    """The serve workload; with ``probe``, set up only (no requests are
    sent) and report ``setup_s``."""
    from perfbench import serveload

    stream = serveload.build_stream(seed)
    payloads = [serveload.encode(request) for request in stream]
    marks: Dict[str, float] = {}

    def begin() -> None:
        marks["setup_s"] = time.perf_counter() - _T0

    report = Report()
    if probe:
        asyncio.run(serveload.serve_lifetime(
            tempfile.mkdtemp(dir=workdir), [], begin=begin))
        report.metrics = {"setup_s": marks["setup_s"]}
        return report
    if trace:
        return traced_serve(stream, payloads, report, workdir, spool)

    run = asyncio.run(serveload.serve_lifetime(
        tempfile.mkdtemp(dir=workdir), payloads, begin=begin))
    rss = peak_rss_mb()
    report.add(serveload.check_serve(stream, run.replies, run.stats.get("store")))
    latencies = [reply.latency_s for reply in run.replies]
    report.samples = len(latencies)
    report.finish({
        "wall_s": run.wall_s,
        "p50_ms": 1000.0 * nearest_rank(latencies, 50),
        "p90_ms": 1000.0 * nearest_rank(latencies, 90),
        "rps": len(latencies) / run.wall_s,
    }, rss, [marks["setup_s"]] + probe_setups("serve", seed))
    return report


def traced_serve(stream, payloads, report: Report, workdir: str,
                 spool: str) -> Report:
    from perfbench import serveload
    from perfbench.layers import HOOKS, TARGETS, derive
    from perfbench.tracing import Tracer

    untraced = asyncio.run(serveload.serve_lifetime(
        tempfile.mkdtemp(dir=workdir), payloads))
    report.add(serveload.check_serve(stream, untraced.replies,
                                     untraced.stats.get("store")))
    tracer = Tracer(spool)
    waves = serveload.WaveLog()
    traced = asyncio.run(serveload.serve_lifetime(
        tempfile.mkdtemp(dir=workdir), payloads,
        begin=lambda: tracer.install(TARGETS, HOOKS), end=tracer.uninstall,
        wave_log=waves))
    totals = tracer.totals()
    report.add(serveload.check_serve(stream, traced.replies,
                                     traced.stats.get("store")))
    report.samples = 2 * len(payloads)
    counters = traced.stats["counters"]
    serve = {
        "waves": counters["waves"],
        "coalesced": counters["coalesced"],
        "wave_request_s": sum(
            w["requests"] * w["elapsed_ms"] / 1000.0 for w in waves.waves
        ),
        "client_s": sum(reply.latency_s for reply in traced.replies),
    }
    report.metrics = derive(
        totals, traced.wall_s, untraced.wall_s, len(tracer.missing),
        report.fail_ratio(), serve,
    )
    report.problems.extend(f"traced name missing: {m}" for m in tracer.missing)
    return report


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _on_signal(main_pid: int, signum: int, frame) -> None:
    """SIGALRM (the watchdog) and SIGTERM end the run through its
    ``finally``, which stops its processes.  A forked pool worker
    inherits this handler and takes the default action instead."""
    if os.getpid() != main_pid:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise SystemExit(f"perfbench: stopped by {signal.Signals(signum).name}")


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the serve request stream; the batch "
                             "workloads are fixed job lists")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring time on the reference host; batch "
                             "workloads repeat their job list to fill it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.children import adopt_descendants, stop_children

    adopt_descendants()
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, functools.partial(_on_signal, os.getpid()))
    signal.alarm(WATCHDOG_S)
    faulthandler.dump_traceback_later(BACKSTOP_S, exit=True)
    host = Host()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    spool = tempfile.mkdtemp(prefix="spool-", dir=workdir)
    try:
        if args.setup_probe:
            if args.workload == "serve":
                setup_s = run_serve(args.seed, False, workdir, spool,
                                    probe=True).metrics["setup_s"]
            else:
                from perfbench.workloads import BATCH

                BATCH[args.workload]()
                setup_s = time.perf_counter() - _T0
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.workload == "serve":
            report = run_serve(args.seed, bool(args.trace), workdir, spool)
        else:
            report = run_batch(args.workload, args.seconds, bool(args.trace), spool)
    finally:
        signal.alarm(0)
        killed = stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    if killed:
        report.problems.append(
            f"killed {len(killed)} processes still running after the run")
    if not report.work_repeats():
        report.problems.append(f"work differs between passes: {report.work}")
    correct = report.failed == 0 and report.work_repeats() and report.attempted > 0
    for problem in report.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        from perfbench.layers import metric_specs

        units = dict(metric_specs())
    else:
        units = END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "host": host.to_json(report.samples),
        "rss_mb": report.rss_mb,
        "setup_samples": report.setup_samples,
        "work": report.work,
        "problems": len(report.problems),
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

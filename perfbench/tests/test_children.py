import json
import os
import signal
import subprocess
import sys
import time
import uuid

from perfbench.run import ROOT

ORPHANS = """
import json, os, sys, time
sys.path.insert(0, {root!r})
from multiprocessing import resource_tracker
from perfbench.children import adopt_descendants, running_children, stop_children

assert adopt_descendants()
if os.fork() == 0:  # leaves an orphan behind
    if os.fork() == 0:
        time.sleep(0.3)
        os._exit(0)
    os._exit(0)
hang = os.fork()
if hang == 0:  # never ends; lets go of the caller's pipes
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    time.sleep(30)
    os._exit(0)
resource_tracker.ensure_running()  # as creating a SharedMemory block does
tracker = resource_tracker._resource_tracker._pid
killed = stop_children(grace_s=1.0)
print(json.dumps({{"killed": sorted(killed), "hang": hang,
                  "left": running_children(),
                  "tracker_alive": os.path.exists(f"/proc/{{tracker}}")}}))
"""


def test_stop_children_waits_for_orphans_and_the_tracker():
    done = subprocess.run(
        [sys.executable, "-c", ORPHANS.format(root=ROOT)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["killed"] == [got["hang"]]
    assert got["left"] == []
    assert not got["tracker_alive"]


def _marked(mark: str):
    """Pids of live processes whose environment holds ``mark``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if mark.encode() in fh.read():
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


def test_terminated_run_stops_its_processes():
    mark = f"PERFBENCH_TEST_MARK={uuid.uuid4().hex}"
    name, value = mark.split("=")
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, **{name: value}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(3.0)  # the witness pool is running by now
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert "stopped by SIGTERM" in err
    assert _marked(mark) == []

"""Every process a run starts has ended before the run does.

The engines under test start processes of their own: pool workers, the
``SharedMemoryManager`` server and the ``multiprocessing`` resource
tracker.  The engines join their workers and servers, but nobody waits
for a resource tracker: it exits only when the last process that holds
its pipe has closed it, so it outlives the process that started it.  A
left-over process would share the host with the next run.

:func:`adopt_descendants` makes this process the reaper of every
orphaned descendant (Linux ``PR_SET_CHILD_SUBREAPER``), such as the
tracker a ``SharedMemoryManager`` server starts for itself.
:func:`stop_children` closes this process's end of its own tracker's
pipe and waits for every child to end, killing what is still running
after a grace period.  The tracker is not started early, because a
Python process starting beside the imports slows set-up by about 0.1 s.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker
from typing import List, Set

PR_SET_CHILD_SUBREAPER = 36


def adopt_descendants() -> bool:
    """Make this process the reaper of its orphaned descendants.

    Returns whether the kernel accepted; if not, only direct children
    are waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def running_children() -> List[int]:
    """Children of this process that have not exited, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # it ended while we looked
        # The command name may hold spaces and ')': split after the last.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state not in ("Z", "X"):
            pids.append(int(entry))
    return pids


def _release_tracker() -> None:
    """Close this process's end of the resource tracker's pipe.

    The tracker exits once no process holds the pipe; the reaping loop
    of :func:`stop_children` waits for it.  ``ResourceTracker._stop``
    would wait without a time limit, so the pipe is closed here."""
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
            tracker._pid = None


def stop_children(grace_s: float = 10.0) -> Set[int]:
    """Wait until every child of this process has ended.

    Children still running after ``grace_s`` seconds are killed.  With
    :func:`adopt_descendants`, descendants orphaned on the way become
    children and are waited for too.  Returns the killed pids."""
    _release_tracker()
    deadline = time.monotonic() + grace_s
    killed: Set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no children left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in running_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.add(pid)
        time.sleep(0.005)

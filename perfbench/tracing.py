"""Outside-in tracing: timed wrappers around a program's public functions.

A :class:`Tracer` replaces each traced function with a wrapper that
records, per thread, how often it ran and how long it took.  It knows
nothing about the program it traces; :mod:`perfbench.layers` names the
functions.

* **Every alias.**  ``from x import f`` copies the binding, so rebinding
  ``x.f`` alone would miss callers that imported ``f`` earlier.
  :meth:`Tracer.install` rebinds every module-level name in
  ``sys.modules`` that holds the original function; methods are
  replaced on their class.  Modules imported later copy the wrapper.
* **Self time.**  Each thread keeps a stack of open spans.  A span's
  self time is its duration minus the durations of the spans it
  directly encloses; inclusive time is counted only at the outermost
  call of a name, so recursion is not counted twice.  A call made while
  an outer call of the same function is open can carry its own label
  (``nested``), which is how a re-search inside ``run_explore`` is told
  apart from the search that caused it.
* **Aggregates, not span lists.**  Leaf functions run hundreds of
  thousands of times per run, so a call adds to per-thread counters
  instead of storing a record.  Coroutine functions are the exception:
  their calls interleave on one thread and are few, so each keeps its
  ``(start, end)`` pair.
* **Forked workers.**  Pool workers forked while the tracer is installed
  inherit the wrappers.  Each one drops the parent's numbers at fork and
  writes its own to ``spool_dir`` when it exits, through
  ``multiprocessing.util.Finalize``; :meth:`Tracer.collect` folds the
  files in after the pool has shut down.
* **Missing names.**  A name that no longer exists is listed in
  :attr:`Tracer.missing`; its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A hook measures something about one call beyond its time:
#: ``enter()`` runs before the call and returns a token;
#: ``leave(counts, token, result)`` adds to the calling thread's counters.
Hook = Tuple[Optional[Callable[[], Any]], Callable[[Dict[str, float], Any, Any], None]]


@dataclass(frozen=True)
class Target:
    """One traced function: ``attr`` is ``"name"`` or ``"Class.method"``
    inside ``module``; its spans are labelled ``<layer>.<method>``."""

    layer: str
    module: str
    attr: str
    nested: str = ""

    @property
    def label(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1]}"

    @property
    def nested_label(self) -> str:
        return f"{self.layer}.{self.nested}" if self.nested else ""


class _ThreadState:
    """Open spans and totals of one thread."""

    __slots__ = ("thread", "stack", "active", "agg", "counts", "top_s")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[List[float]] = []  # per open span: [child seconds]
        self.active: Dict[str, int] = {}  # label -> open calls
        self.agg: Dict[str, List[float]] = {}  # label -> [calls, self_s, incl_s]
        self.counts: Dict[str, float] = {}
        self.top_s = 0.0  # time in outermost spans

    def to_json(self) -> dict:
        return {
            "thread": self.thread,
            "agg": self.agg,
            "counts": self.counts,
            "top_s": self.top_s,
        }


class Totals:
    """Everything one traced phase recorded, merged across threads and
    worker processes."""

    def __init__(self, states: Sequence[dict], spans: Dict[str, list]) -> None:
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.top_s: Dict[str, float] = {}  # thread name -> outermost span time
        for state in states:
            for label, (calls, self_s, incl_s) in state["agg"].items():
                rec = self.agg.setdefault(label, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += incl_s
            for key, value in state["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
            name = state["thread"]
            self.top_s[name] = self.top_s.get(name, 0.0) + state["top_s"]
        self.spans = spans  # coroutine label -> [(start, end), ...]

    def calls(self, label: str) -> int:
        if label in self.spans:
            return len(self.spans[label])
        return int(self.agg.get(label, (0, 0.0, 0.0))[0])

    def self_s(self, label: str) -> float:
        if label in self.spans:
            return sum(end - start for start, end in self.spans[label])
        return self.agg.get(label, (0, 0.0, 0.0))[1]

    def incl_s(self, label: str) -> float:
        return self.agg.get(label, (0, 0.0, 0.0))[2]

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def thread_top_s(self, prefix: str) -> float:
        """Outermost span time of threads whose name starts with ``prefix``."""
        return sum(v for name, v in self.top_s.items() if name.startswith(prefix))


class Tracer:
    """Installs timing wrappers and collects what they record.

    Args:
        spool_dir: directory where forked workers leave their totals.
    """

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.missing: List[str] = []
        self.installed = False
        self._restore: List[Tuple[Any, str, Any]] = []
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._spans: Dict[str, List[Tuple[float, float]]] = {}
        self._workers: List[dict] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable, label: str, nested: str,
              hook: Optional[Hook]) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(fn, label)
        perf = time.perf_counter
        enter, leave = hook if hook is not None else (None, None)
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state_of()
            name = nested if nested and st.active.get(label) else label
            token = enter() if enter is not None else None
            frame = [0.0]
            st.stack.append(frame)
            st.active[name] = st.active.get(name, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                st.stack.pop()
                depth = st.active[name] - 1
                st.active[name] = depth
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                if not depth:
                    rec[2] += dur
                if st.stack:
                    st.stack[-1][0] += dur
                else:
                    st.top_s += dur
            if leave is not None:
                leave(st.counts, token, result)
            return result

        return traced

    def _wrap_coroutine(self, fn: Callable, label: str) -> Callable:
        # Coroutines interleave on the event-loop thread, so they stay
        # off the thread's span stack; a span is just (start, end).
        perf = time.perf_counter
        spans = self._spans

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.setdefault(label, []).append((t0, perf()))

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self, targets: Sequence[Target],
                hooks: Optional[Dict[str, Hook]] = None) -> None:
        """Wrap every target; names that cannot be found go to
        :attr:`missing`."""
        hooks = hooks or {}
        functions: Dict[int, Tuple[Any, Callable]] = {}  # id(original) -> (original, wrapper)
        for target in targets:
            parts = target.attr.split(".")
            try:
                owner: Any = importlib.import_module(target.module)
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = vars(owner)[parts[-1]]
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            if not callable(original):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            wrapper = self._wrap(
                original, target.label, target.nested_label,
                hooks.get(target.label),
            )
            if inspect.isclass(owner):
                setattr(owner, parts[-1], wrapper)
                self._restore.append((owner, parts[-1], original))
            else:
                functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, value))
        self.installed = True

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.installed = False

    # -- forked workers --------------------------------------------------

    @staticmethod
    def _after_fork(tracer: "Tracer") -> None:
        if not tracer.installed:
            return
        # The child reports only its own calls; the parent's counters
        # were copied by fork and are already the parent's to report.
        tracer._reset()
        mp_util.Finalize(None, tracer._spool, exitpriority=100)

    def _spool(self) -> None:
        states = [s.to_json() for s in self._states if s.agg or s.counts]
        if not states:
            return
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "states": states}, fh)
        os.replace(tmp, path)

    def collect(self) -> None:
        """Fold in the totals of workers that have exited."""
        for name in sorted(os.listdir(self.spool_dir)):
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                self._workers.append(json.load(fh))
            os.remove(path)

    def totals(self) -> Totals:
        """Merged totals of every thread here and every collected worker."""
        self.collect()
        with self._lock:
            states = [s.to_json() for s in self._states]
        for worker in self._workers:
            for state in worker["states"]:
                states.append(dict(state, thread=f"worker:{state['thread']}"))
        spans = {k: list(v) for k, v in self._spans.items()}
        return Totals(states, spans)

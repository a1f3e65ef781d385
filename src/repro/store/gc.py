"""Garbage collection for the content-addressed store.

A long-lived store grows without bound: every similarity summary and
orbit map ever computed, and any namespace no longer read, stays on
disk forever.  This module is the lifecycle half of :mod:`repro.store`:

* :func:`usage` — per-namespace entry counts and byte sizes, the
  accounting every policy decision starts from;
* :func:`collect` — LRU-ish eviction by file mtime down to a
  configurable byte cap, followed by compaction: stale temp files are
  swept, surviving entries are atomically rewritten in canonical form
  (temp-file + ``os.replace``, mtime preserved so the LRU clock keeps
  ticking), corrupt survivors are quarantined, and emptied shard /
  namespace directories are removed.  Concurrent readers only ever see
  complete files — an evicted entry becomes a miss, never a crash or
  partial JSON;
* :func:`check` — integrity walk: reads every durable entry through the
  store's validating iterator and reports anything quarantined;
* :func:`enforce_cap` — the hook :meth:`ContentStore.flush` calls when
  the store was built with ``max_bytes``, so a capped store polices
  itself on every flush.

``python -m repro store-gc`` exposes all of this on the command line.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .content import ContentStore, parse_entry

#: Directory names under the store root that are not entry namespaces.
_RESERVED = ("quarantine",)


@dataclass
class NamespaceUsage:
    """Entry count and byte size of one namespace."""

    entries: int = 0
    bytes: int = 0

    def to_json(self) -> dict:
        return {"entries": self.entries, "bytes": self.bytes}


@dataclass
class GCReport:
    """What one :func:`collect` run did (or, dry-run, would have done)."""

    root: str
    cap_bytes: Optional[int]
    dry_run: bool
    before: Dict[str, NamespaceUsage] = field(default_factory=dict)
    after: Dict[str, NamespaceUsage] = field(default_factory=dict)
    evicted_entries: int = 0
    evicted_bytes: int = 0
    evicted_by_namespace: Dict[str, int] = field(default_factory=dict)
    rewritten: int = 0
    quarantined: int = 0
    removed_tmp: int = 0
    removed_dirs: int = 0
    elapsed_s: float = 0.0

    @property
    def total_bytes_before(self) -> int:
        return sum(u.bytes for u in self.before.values())

    @property
    def total_bytes_after(self) -> int:
        return sum(u.bytes for u in self.after.values())

    @property
    def under_cap(self) -> bool:
        return self.cap_bytes is None or self.total_bytes_after <= self.cap_bytes

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "cap_bytes": self.cap_bytes,
            "dry_run": self.dry_run,
            "before": {ns: u.to_json() for ns, u in sorted(self.before.items())},
            "after": {ns: u.to_json() for ns, u in sorted(self.after.items())},
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "evicted_by_namespace": dict(sorted(self.evicted_by_namespace.items())),
            "rewritten": self.rewritten,
            "quarantined": self.quarantined,
            "removed_tmp": self.removed_tmp,
            "removed_dirs": self.removed_dirs,
            "under_cap": self.under_cap,
            "elapsed_s": round(self.elapsed_s, 4),
        }

    def describe(self) -> str:
        cap = f"{self.cap_bytes}B cap" if self.cap_bytes is not None else "no cap"
        verb = "would evict" if self.dry_run else "evicted"
        lines = [
            f"store-gc {self.root} ({cap}): "
            f"{self.total_bytes_before}B -> {self.total_bytes_after}B, "
            f"{verb} {self.evicted_entries} entr"
            f"{'y' if self.evicted_entries == 1 else 'ies'} "
            f"({self.evicted_bytes}B), rewrote {self.rewritten}, "
            f"quarantined {self.quarantined}, swept {self.removed_tmp} tmp / "
            f"{self.removed_dirs} empty dir(s)"
        ]
        for ns in sorted(set(self.before) | set(self.after)):
            b = self.before.get(ns, NamespaceUsage())
            a = self.after.get(ns, NamespaceUsage())
            lines.append(
                f"  {ns}: {b.entries} entries / {b.bytes}B -> "
                f"{a.entries} entries / {a.bytes}B"
            )
        return "\n".join(lines)


def _as_store(store_or_root) -> ContentStore:
    if isinstance(store_or_root, ContentStore):
        return store_or_root
    return ContentStore(str(store_or_root))


def _namespaces(root: str) -> List[str]:
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [
        name
        for name in names
        if name not in _RESERVED and os.path.isdir(os.path.join(root, name))
    ]


def _entry_files(root: str) -> Iterator[Tuple[str, str, int, float]]:
    """Every durable entry file: ``(namespace, path, size, mtime)``.

    Files that vanish mid-scan (a concurrent GC or writer) are skipped,
    never raised on.
    """
    for namespace in _namespaces(root):
        base = os.path.join(root, namespace)
        for shard in sorted(os.listdir(base)):
            folder = os.path.join(base, shard)
            if not os.path.isdir(folder):
                continue
            for name in sorted(os.listdir(folder)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(folder, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                yield namespace, path, stat.st_size, stat.st_mtime


def usage(store_or_root) -> Dict[str, NamespaceUsage]:
    """Per-namespace entry counts and byte sizes of a store root."""
    store = _as_store(store_or_root)
    counts: Dict[str, NamespaceUsage] = {}
    for namespace, _path, size, _mtime in _entry_files(store.root):
        bucket = counts.setdefault(namespace, NamespaceUsage())
        bucket.entries += 1
        bucket.bytes += size
    return counts


def _sweep_tmp(folder: str) -> int:
    """Remove leftover ``*.tmp`` files (a crashed writer's litter)."""
    removed = 0
    try:
        names = os.listdir(folder)
    except OSError:
        return 0
    for name in names:
        if name.endswith(".tmp"):
            try:
                os.remove(os.path.join(folder, name))
                removed += 1
            except OSError:
                pass
    return removed


def _rewrite_entry(store: ContentStore, namespace: str, path: str) -> Optional[bool]:
    """Validate one entry; atomically rewrite it in canonical form.

    Returns True when the file was rewritten, False when it was already
    canonical, and None when it was corrupt (quarantined).  Readers
    racing the rewrite see either the old or the new complete file —
    ``os.replace`` is the only mutation — and the mtime is preserved so
    a rewrite never refreshes an entry's LRU age.
    """
    digest = os.path.basename(path)[: -len(".json")]
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return False  # vanished or unreadable mid-walk: not ours to judge
    parsed = parse_entry(raw, digest)
    if parsed is None:
        store._quarantine(namespace, digest, path)
        return None
    _key, doc = parsed
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if canonical == raw:
        return False
    folder = os.path.dirname(path)
    try:
        stat = os.stat(path)
        fd, tmp = tempfile.mkstemp(prefix=digest + ".", suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(canonical)
            os.utime(tmp, (stat.st_atime, stat.st_mtime))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


def collect(
    store_or_root,
    max_bytes: Optional[int] = None,
    hub=None,
    dry_run: bool = False,
) -> GCReport:
    """One garbage-collection pass: evict down to the cap, then compact.

    Args:
        store_or_root: a :class:`ContentStore` handle or a root path.
        max_bytes: byte cap for the whole store; ``None`` skips eviction
            (the pass still compacts).  Eviction removes whole entries,
            oldest file mtime first (ties broken by path), until the
            durable total fits the cap.
        hub: optional :class:`~repro.obs.events.EventHub`; one
            ``StoreEvicted`` event is emitted per namespace that lost
            entries.  Defaults to the store handle's own :attr:`hub`.
        dry_run: report what eviction would do without touching disk
            (compaction is skipped too).

    Returns:
        A :class:`GCReport`; the store handle's ``stats.evicted`` and
        ``stats.quarantined`` counters are bumped accordingly.
    """
    store = _as_store(store_or_root)
    if hub is None:
        hub = store.hub
    t0 = time.perf_counter()
    report = GCReport(root=store.root, cap_bytes=max_bytes, dry_run=dry_run)
    files = list(_entry_files(store.root))
    for namespace, _path, size, _mtime in files:
        bucket = report.before.setdefault(namespace, NamespaceUsage())
        bucket.entries += 1
        bucket.bytes += size

    survivors = files
    total = sum(size for _ns, _path, size, _mtime in files)
    if max_bytes is not None and total > max_bytes:
        by_age = sorted(files, key=lambda item: (item[3], item[1]))
        evicted: List[Tuple[str, str, int, float]] = []
        while total > max_bytes and by_age:
            namespace, path, size, mtime = by_age.pop(0)
            if not dry_run:
                try:
                    os.remove(path)
                except FileNotFoundError:
                    continue  # a racing GC got there first; no credit
                except OSError:
                    continue
            evicted.append((namespace, path, size, mtime))
            total -= size
            report.evicted_entries += 1
            report.evicted_bytes += size
            report.evicted_by_namespace[namespace] = (
                report.evicted_by_namespace.get(namespace, 0) + 1
            )
        survivors = by_age
        if not dry_run:
            store.stats.evicted += report.evicted_entries

    if not dry_run:
        quarantined_before = store.stats.quarantined
        folders = sorted(
            {os.path.dirname(path) for _ns, path, _size, _mtime in files}
        )
        for folder in folders:
            report.removed_tmp += _sweep_tmp(folder)
        for namespace, path, _size, _mtime in survivors:
            outcome = _rewrite_entry(store, namespace, path)
            if outcome:
                report.rewritten += 1
        report.quarantined = store.stats.quarantined - quarantined_before
        for folder in folders:
            try:
                os.rmdir(folder)
                report.removed_dirs += 1
            except OSError:
                pass  # not empty, or already gone
        for namespace in _namespaces(store.root):
            try:
                os.rmdir(os.path.join(store.root, namespace))
                report.removed_dirs += 1
            except OSError:
                pass

    for namespace, _path, size, _mtime in _entry_files(store.root):
        bucket = report.after.setdefault(namespace, NamespaceUsage())
        bucket.entries += 1
        bucket.bytes += size
    if dry_run:
        # Disk untouched: project the post-eviction shape instead.
        report.after = {}
        for namespace, _path, size, _mtime in survivors:
            bucket = report.after.setdefault(namespace, NamespaceUsage())
            bucket.entries += 1
            bucket.bytes += size

    report.elapsed_s = time.perf_counter() - t0
    if hub is not None and getattr(hub, "active", False):
        from ..obs.events import StoreEvicted

        for namespace in sorted(report.evicted_by_namespace):
            after = report.after.get(namespace, NamespaceUsage())
            hub.emit(
                StoreEvicted(
                    namespace=namespace,
                    evicted=report.evicted_by_namespace[namespace],
                    freed_bytes=sum(
                        size
                        for ns, _path, size, _mtime in files
                        if ns == namespace
                    )
                    - after.bytes,
                    remaining_entries=after.entries,
                    remaining_bytes=after.bytes,
                )
            )
    return report


def enforce_cap(store: ContentStore) -> Optional[GCReport]:
    """Evict the store back under its own ``max_bytes``, if it has one
    and is over it.  Called by :meth:`ContentStore.flush`; cheap when
    the store fits (one directory walk, no writes)."""
    if store.max_bytes is None:
        return None
    total = sum(size for _ns, _path, size, _mtime in _entry_files(store.root))
    if total <= store.max_bytes:
        return None
    return collect(store, max_bytes=store.max_bytes, hub=store.hub)


def check(store_or_root) -> dict:
    """Integrity walk: read every durable entry, quarantining corruption.

    Returns a report document; ``ok`` is True when nothing new was
    quarantined by the walk.  ``quarantine_backlog`` counts files
    already sitting in ``root/quarantine`` from earlier incidents.
    """
    store = _as_store(store_or_root)
    quarantined_before = store.stats.quarantined
    namespaces: Dict[str, dict] = {}
    for namespace in _namespaces(store.root):
        entries = sum(1 for _key, _value in store.entries(namespace))
        size = sum(
            size
            for ns, _path, size, _mtime in _entry_files(store.root)
            if ns == namespace
        )
        namespaces[namespace] = {"entries": entries, "bytes": size}
    quarantined = store.stats.quarantined - quarantined_before
    pen = os.path.join(store.root, "quarantine")
    backlog = len(os.listdir(pen)) if os.path.isdir(pen) else 0
    return {
        "root": store.root,
        "ok": quarantined == 0,
        "namespaces": namespaces,
        "total_bytes": sum(doc["bytes"] for doc in namespaces.values()),
        "quarantined_now": quarantined,
        "quarantine_backlog": backlog,
    }

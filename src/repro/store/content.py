"""Content-addressed on-disk store: the persistent layer behind every cache.

The serving layer memoizes similarity summaries per system fingerprint
and engine, and the explorer memoizes orbit canonical keys per
exploration state, but every process starts cold.  The
:class:`ContentStore` makes those memos durable and *shared*: one
directory holds every ``(namespace, key bytes) -> JSON document``
mapping ever computed, addressable from any process (a later service,
another service on the same directory, the ``serve`` bench) at the cost
of one small file read.

Design points:

* **Content addressing** -- an entry's path is derived from the SHA-256
  of its key bytes (``root/<namespace>/<aa>/<digest>.json``), so two
  processes that compute the same key — under any ``PYTHONHASHSEED``,
  on any host — address the same file.  Keys are expected to be
  canonical byte encodings (:func:`repro.core.encoding.encode_value`),
  which makes the addressing scheme independent of repr formatting and
  dict iteration order by construction.
* **Write-behind** -- :meth:`put` stages entries in memory;
  :meth:`flush` (called automatically every ``flush_every`` puts, by
  :meth:`close`, and by the context manager) performs the disk writes.
  Engines call ``put`` on their hot path without paying per-entry I/O.
* **Last save wins** -- a flush writes each staged entry whole and
  never reads the file it replaces, so of two processes saving one
  entry the later one's value stays.  Values are recomputable from
  their keys (the ``orbits`` entry is a memo any run can rebuild), so a
  lost race between processes costs a recompute later, never
  correctness; within one handle a lock serializes staging, reads and
  flushes, so threads sharing it (the service's event loop and engine
  thread) lose nothing.
* **Atomicity** -- every write lands via temp-file + :func:`os.replace`
  in the same directory, so readers only ever observe complete files.
* **Quarantine, not crashes** -- a corrupt or truncated entry (invalid
  JSON, wrong shape, key echo mismatch) is moved aside into
  ``root/quarantine/`` and reported as a miss; one bad file never takes
  down a sweep, a server, or CI.  Every reader — :meth:`ContentStore.get`,
  :meth:`ContentStore.entries` (and so the integrity check) and the
  garbage collector's compaction — judges an entry by one rule,
  :func:`parse_entry`, so they all quarantine exactly the same files.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, Iterator, Optional, Tuple

from ..exceptions import ReproError


class StoreError(ReproError):
    """The store root is unusable (not a directory, not writable)."""


def parse_entry(raw: bytes, digest: str) -> Optional[Tuple[bytes, dict]]:
    """Parse one entry file's bytes; ``(key, document)`` or None if corrupt.

    An entry is valid when it is a UTF-8 JSON object whose ``"key"``
    echo is the lower-case hex of a key addressed by ``digest`` (the
    echo :meth:`ContentStore._write` writes) and whose ``"value"`` is an
    object.  The echo catches truncated rewrites and foreign files that
    happen to parse.
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
        echo = doc["key"]
        key = bytes.fromhex(echo)
    except (KeyError, TypeError, ValueError):  # decode and JSON errors too
        return None
    if (
        not isinstance(doc, dict)
        or echo != key.hex()
        or sha256(key).hexdigest() != digest
        or not isinstance(doc.get("value"), dict)
    ):
        return None
    return key, doc


@dataclass
class StoreStats:
    """Counters of one :class:`ContentStore` handle (not cross-process)."""

    gets: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    writes: int = 0
    quarantined: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> Optional[float]:
        return self.hits / self.gets if self.gets else None

    def to_json(self) -> dict:
        doc = dict(self.__dict__)
        rate = self.hit_rate
        doc["hit_rate"] = round(rate, 4) if rate is not None else None
        return doc


class ContentStore:
    """A content-addressed ``(namespace, key bytes) -> dict`` disk store.

    Values are JSON documents (dicts of JSON scalars/containers); keys
    are arbitrary ``bytes`` — canonically-encoded forms, fingerprints,
    state keys.  One store directory is safely shared by any number of
    concurrent readers and writers; see the module docstring for the
    guarantees.
    """

    def __init__(
        self,
        root: str,
        flush_every: int = 128,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.flush_every = max(1, int(flush_every))
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        if self.max_bytes is not None and self.max_bytes < 1:
            raise StoreError(f"max_bytes must be >= 1, got {max_bytes}")
        #: Optional :class:`~repro.obs.events.EventHub`; when set, the
        #: garbage collector reports evictions as ``StoreEvicted`` events.
        self.hub = None
        self.stats = StoreStats()
        self._pending: Dict[Tuple[str, str], Tuple[bytes, dict]] = {}
        # Held across a flush: two overlapping flushes of one entry could
        # otherwise write the older value last, and a get between a
        # flush's unstaging and its write would miss.
        self._lock = threading.RLock()
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store root {self.root}: {exc}") from None
        if not os.path.isdir(self.root):
            raise StoreError(f"store root {self.root} is not a directory")

    # -- addressing ----------------------------------------------------

    @staticmethod
    def address(key: bytes) -> str:
        """The content address (hex digest) of a key."""
        return sha256(key).hexdigest()

    def _path(self, namespace: str, digest: str) -> str:
        return os.path.join(self.root, namespace, digest[:2], digest + ".json")

    # -- read path -----------------------------------------------------

    def get(self, namespace: str, key: bytes) -> Optional[dict]:
        """The stored value for ``key``, or None (miss or quarantined)."""
        digest = self.address(key)
        with self._lock:
            self.stats.gets += 1
            staged = self._pending.get((namespace, digest))
            if staged is not None:
                self.stats.hits += 1
                # A copy, never the staged dict itself: handing out the
                # pending entry by reference would let caller mutation
                # silently rewrite what later flushes to disk.
                return copy.deepcopy(staged[1])
            value = self._read(namespace, digest, key)
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return value

    def _read(self, namespace: str, digest: str, key: bytes) -> Optional[dict]:
        path = self._path(namespace, digest)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(namespace, digest, path)
            return None
        parsed = parse_entry(raw, digest)
        if parsed is None or parsed[0] != key:
            self._quarantine(namespace, digest, path)
            return None
        return parsed[1]["value"]

    def _quarantine(self, namespace: str, digest: str, path: str) -> None:
        """Move a corrupt entry aside; never raise from the read path."""
        pen = os.path.join(self.root, "quarantine")
        try:
            os.makedirs(pen, exist_ok=True)
            os.replace(path, os.path.join(pen, f"{namespace}-{digest}.corrupt"))
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        self.stats.quarantined += 1

    # -- write path ----------------------------------------------------

    def put(self, namespace: str, key: bytes, value: dict) -> None:
        """Stage ``value`` for ``key`` (write-behind; see :meth:`flush`)."""
        with self._lock:
            self.stats.puts += 1
            self._pending[(namespace, self.address(key))] = (key, dict(value))
            if len(self._pending) >= self.flush_every:
                self.flush()

    def flush(self) -> int:
        """Write every staged entry to disk; returns entries written.

        A mid-loop write failure (disk full, root gone read-only)
        re-stages the unwritten remainder — including the entry whose
        write failed — before propagating, so no staged entry is ever
        silently dropped; a later flush (or another root) can retry.
        With :attr:`max_bytes` set, a successful flush ends by evicting
        oldest entries until the store fits the cap again.
        """
        with self._lock:
            written = 0
            pending, self._pending = self._pending, {}
            items = sorted(pending.items())
            try:
                for (namespace, digest), (key, value) in items:
                    self._write(namespace, digest, key, value)
                    written += 1
            except BaseException:
                remainder = dict(items[written:])
                remainder.update(self._pending)  # puts staged mid-flush win
                self._pending = remainder
                raise
            if self.max_bytes is not None and written:
                from .gc import enforce_cap

                enforce_cap(self)
            return written

    def _write(self, namespace: str, digest: str, key: bytes, value: dict) -> None:
        path = self._path(namespace, digest)
        folder = os.path.dirname(path)
        os.makedirs(folder, exist_ok=True)
        doc = {"key": key.hex(), "namespace": namespace, "value": value}
        fd, tmp = tempfile.mkstemp(prefix=digest + ".", suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    # -- inspection ----------------------------------------------------

    def entries(self, namespace: str) -> Iterator[Tuple[bytes, dict]]:
        """Every durable ``(key, value)`` of a namespace, address order.

        Walks the disk (staged-but-unflushed entries are not included);
        corrupt files are quarantined and skipped, like on :meth:`get`;
        files that vanish mid-walk (a concurrent GC) are skipped.
        """
        base = os.path.join(self.root, namespace)
        if not os.path.isdir(base):
            return
        for shard in sorted(os.listdir(base)):
            folder = os.path.join(base, shard)
            if not os.path.isdir(folder):
                continue
            for name in sorted(os.listdir(folder)):
                if not name.endswith(".json"):
                    continue
                digest = name[: -len(".json")]
                path = os.path.join(folder, name)
                try:
                    with open(path, "rb") as fh:
                        raw = fh.read()
                except FileNotFoundError:
                    continue
                except OSError:
                    self._quarantine(namespace, digest, path)
                    continue
                parsed = parse_entry(raw, digest)
                if parsed is None:
                    self._quarantine(namespace, digest, path)
                    continue
                key, doc = parsed
                yield key, doc["value"]

    def count(self, namespace: str) -> int:
        """Number of durable entries in a namespace."""
        return sum(1 for _ in self.entries(namespace))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ContentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

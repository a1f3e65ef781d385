"""Unit and cross-process tests for the content-addressed store."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.store import ContentStore
from repro.store.gc import check, collect


class TestRoundTrip:
    def test_put_get_before_and_after_flush(self, tmp_path):
        with ContentStore(str(tmp_path / "s")) as store:
            key = b"some canonical form"
            assert store.get("ns", key) is None
            store.put("ns", key, {"answer": 42})
            # Staged writes are visible to the writer immediately.
            assert store.get("ns", key) == {"answer": 42}
            store.flush()
            assert store.get("ns", key) == {"answer": 42}
        # And to a completely fresh handle after close.
        with ContentStore(str(tmp_path / "s")) as store:
            assert store.get("ns", key) == {"answer": 42}
            assert store.stats.hits == 1

    def test_address_is_content_only(self, tmp_path):
        with ContentStore(str(tmp_path / "s")) as store:
            a = store.address(b"form-1")
            assert a == store.address(b"form-1")
            assert a != store.address(b"form-2")
            assert len(a) == 64 and bytes.fromhex(a)

    def test_entries_and_count(self, tmp_path):
        with ContentStore(str(tmp_path / "s")) as store:
            for i in range(5):
                store.put("ns", b"key-%d" % i, {"i": i})
        with ContentStore(str(tmp_path / "s")) as store:
            assert store.count("ns") == 5
            assert store.count("other") == 0
            seen = {key: value["i"] for key, value in store.entries("ns")}
            assert seen == {b"key-%d" % i: i for i in range(5)}

    def test_auto_flush_threshold(self, tmp_path):
        with ContentStore(str(tmp_path / "s"), flush_every=2) as store:
            store.put("ns", b"a", {"v": 1})
            store.put("ns", b"b", {"v": 2})  # trips the auto-flush
            assert store.stats.writes == 2


class TestStagedAliasing:
    def test_mutating_a_staged_get_does_not_corrupt_the_store(self, tmp_path):
        """A staged hit must be a copy: callers scribbling on the result
        must not rewrite what flush() later persists."""
        root = str(tmp_path / "s")
        with ContentStore(root) as store:
            store.put("ns", b"k", {"v": 1, "nested": {"tags": ["a"]}})
            seen = store.get("ns", b"k")  # staged hit
            seen["v"] = 999
            seen["nested"]["tags"].append("EVIL")
            store.flush()
        with ContentStore(root) as fresh:
            assert fresh.get("ns", b"k") == {"v": 1, "nested": {"tags": ["a"]}}

    def test_staged_copies_are_independent_per_get(self, tmp_path):
        with ContentStore(str(tmp_path / "s")) as store:
            store.put("ns", b"k", {"v": []})
            store.get("ns", b"k")["v"].append(1)
            assert store.get("ns", b"k") == {"v": []}


class TestFlushFailure:
    def test_failed_flush_restages_unwritten_entries(self, tmp_path):
        """A write failure mid-flush must not drop the unwritten tail:
        the failing entry and everything after it stay staged, and a
        retry (here: after healing the writer) persists all of them."""
        root = str(tmp_path / "s")
        store = ContentStore(root)
        for i in range(6):
            store.put("ns", b"key-%d" % i, {"i": i})

        real_write = store._write
        calls = {"n": 0}

        def fail_after_two(namespace, digest, key, value):
            if calls["n"] == 2:
                raise OSError(28, "No space left on device (injected)")
            calls["n"] += 1
            real_write(namespace, digest, key, value)

        store._write = fail_after_two
        with pytest.raises(OSError):
            store.flush()
        # Two made it to disk; the other four (including the one whose
        # write failed) are staged again — still readable, nothing lost.
        assert len(store._pending) == 4
        for i in range(6):
            assert store.get("ns", b"key-%d" % i) == {"i": i}

        store._write = real_write
        assert store.flush() == 4
        store.close()
        with ContentStore(root) as fresh:
            assert {k: v["i"] for k, v in fresh.entries("ns")} == {
                b"key-%d" % i: i for i in range(6)
            }

    def test_puts_during_failed_flush_survive_the_restage(self, tmp_path):
        """An entry staged between flush start and the failure (e.g. by
        a re-entrant caller) must not be clobbered by the restage."""
        store = ContentStore(str(tmp_path / "s"))
        store.put("ns", b"a", {"v": 1})

        def fail_and_stage(namespace, digest, key, value):
            store._pending[("ns", store.address(b"b"))] = (b"b", {"v": 2})
            raise OSError(30, "Read-only file system (injected)")

        store._write = fail_and_stage
        with pytest.raises(OSError):
            store.flush()
        assert store.get("ns", b"a") == {"v": 1}
        assert store.get("ns", b"b") == {"v": 2}


class TestThreads:
    """One handle shared by two threads, as the service's event loop
    (flush after every wave) and engine thread (puts, auto-flushes)
    share it."""

    def test_overlapping_flushes_keep_the_newer_value(self, tmp_path):
        """A flush that unstaged an entry before another thread staged
        and flushed a newer value must not write its older value over
        that one."""
        root = str(tmp_path / "s")
        store = ContentStore(root)
        store.put("ns", b"k", {"items": [1]})
        real_write = store._write
        racer = threading.Thread(
            target=lambda: (store.put("ns", b"k", {"items": [1, 2]}), store.flush())
        )

        def race_then_write(namespace, digest, key, value):
            if racer.ident is None:  # first write only
                racer.start()
                racer.join(timeout=0.5)  # blocks for the timeout if locked out
            real_write(namespace, digest, key, value)

        store._write = race_then_write
        store.flush()
        racer.join(timeout=10)
        assert not racer.is_alive()
        store._write = real_write
        with ContentStore(root) as fresh:
            assert fresh.get("ns", b"k") == {"items": [1, 2]}

    def test_put_and_flush_threads_lose_nothing(self, tmp_path):
        """Stress: one thread stages ever-growing values (auto-flushing),
        two more flush in a loop; every staged item must reach disk."""
        root = str(tmp_path / "s")
        store = ContentStore(root)
        store.flush_every = 4
        keys = [b"k%d" % i for i in range(4)]
        puts = 400
        done = threading.Event()

        def writer():
            grown = {key: [] for key in keys}
            for i in range(puts):
                key = keys[i % len(keys)]
                grown[key].append(i)
                store.put("ns", key, {"items": list(grown[key])})
            done.set()

        def flusher():
            while not done.is_set():
                store.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn)
                       for fn in (writer, flusher, flusher)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        store.flush()
        with ContentStore(root) as fresh:
            for n, key in enumerate(keys):
                assert fresh.get("ns", key) == {
                    "items": list(range(n, puts, len(keys)))
                }


class TestQuarantine:
    def _entry_path(self, store, ns, key):
        digest = store.address(key)
        return os.path.join(store.root, ns, digest[:2], digest + ".json")

    def _quarantine_files(self, store):
        qdir = os.path.join(store.root, "quarantine")
        return os.listdir(qdir) if os.path.isdir(qdir) else []

    @pytest.mark.parametrize(
        "damage",
        [b"{ this is not json", b"", b'{"key": "00", "namespace": "ns", "value"'],
        ids=["corrupt-json", "empty", "truncated"],
    )
    def test_damaged_entry_is_quarantined_not_fatal(self, tmp_path, damage):
        root = str(tmp_path / "s")
        with ContentStore(root) as store:
            store.put("ns", b"k", {"v": 1})
        with ContentStore(root) as store:
            path = self._entry_path(store, "ns", b"k")
            with open(path, "wb") as fh:
                fh.write(damage)
            assert store.get("ns", b"k") is None  # a miss, not an exception
            assert store.stats.quarantined == 1
            assert not os.path.exists(path)
            assert self._quarantine_files(store)

    def test_key_echo_mismatch_is_quarantined(self, tmp_path):
        root = str(tmp_path / "s")
        with ContentStore(root) as store:
            store.put("ns", b"k", {"v": 1})
        with ContentStore(root) as store:
            path = self._entry_path(store, "ns", b"k")
            doc = json.load(open(path))
            doc["key"] = b"other".hex()  # content no longer matches address
            with open(path, "w") as fh:
                json.dump(doc, fh)
            assert store.get("ns", b"k") is None
            assert store.stats.quarantined == 1

    def test_recompute_after_quarantine_repairs_the_entry(self, tmp_path):
        root = str(tmp_path / "s")
        with ContentStore(root) as store:
            store.put("ns", b"k", {"v": 1})
        with ContentStore(root) as store:
            with open(self._entry_path(store, "ns", b"k"), "w") as fh:
                fh.write("garbage")
            assert store.get("ns", b"k") is None
            store.put("ns", b"k", {"v": 2})
        with ContentStore(root) as store:
            assert store.get("ns", b"k") == {"v": 2}


def _entry_bytes(**doc):
    """An entry document serialized the way the store writes one."""
    doc = dict(doc, namespace="ns")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


#: Damage done to the entry of ``b"key-1"``, by name.
_CORRUPTIONS = {
    "not-json": lambda key: b"{ not json",
    "not-an-object": lambda key: b'["key", "value"]',
    "key-not-hex": lambda key: _entry_bytes(key="not hex", value={"i": 1}),
    "upper-case-echo": lambda key: _entry_bytes(
        key=key.hex().upper(), value={"i": 1}
    ),
    "echo-of-another-key": lambda key: _entry_bytes(
        key=b"key-2".hex(), value={"i": 2}
    ),
    "missing-value": lambda key: _entry_bytes(key=key.hex()),
    "non-object-value": lambda key: _entry_bytes(key=key.hex(), value=[1]),
}


def _read_all_by_get(root):
    with ContentStore(root) as store:
        for i in range(3):
            store.get("ns", b"key-%d" % i)


def _read_all_by_entries(root):
    with ContentStore(root) as store:
        list(store.entries("ns"))


#: Every reader of durable entries, each walking the whole store.
_READERS = {
    "get": _read_all_by_get,
    "entries": _read_all_by_entries,
    "check": check,
    "collect": collect,
}


class TestOneValidityRule:
    """``get``, ``entries``, the integrity check and GC's compaction
    judge an entry by one rule, so they quarantine the same files."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_every_reader_quarantines_the_same_file(
        self, tmp_path, corruption, reader
    ):
        root = str(tmp_path / "s")
        with ContentStore(root) as store:
            for i in range(3):
                store.put("ns", b"key-%d" % i, {"i": i})
        digest = ContentStore.address(b"key-1")
        path = os.path.join(root, "ns", digest[:2], digest + ".json")
        with open(path, "wb") as fh:
            fh.write(_CORRUPTIONS[corruption](b"key-1"))

        _READERS[reader](root)

        assert os.listdir(os.path.join(root, "quarantine")) == [
            f"ns-{digest}.corrupt"
        ]
        with ContentStore(root) as store:
            assert [key for key, _value in store.entries("ns")] == sorted(
                (b"key-0", b"key-2"), key=ContentStore.address
            )


_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _serve_stdio(root, requests):
    """One ``python -m repro serve --stdio --store root`` process: each
    request goes in only after the previous answer came out, so a
    ``stats`` request sees every answer before it.  Returns the
    answers."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--store", root],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        answers = []
        for i, request in enumerate(requests):
            proc.stdin.write(json.dumps({"id": i, "request": request}) + "\n")
            proc.stdin.flush()
            answers.append(json.loads(proc.stdout.readline())["result"])
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    finally:
        guard.cancel()
        if proc.poll() is None:
            proc.kill()
    return answers


class TestCrossProcess:
    def test_two_processes_share_one_store(self, tmp_path):
        """A service in process B answers a similarity request from the
        summary process A stored, without refining again."""
        root = str(tmp_path / "shared")
        requests = [
            {"op": "similarity",
             "scenario": {"topology": "ring", "size": 6, "marks": ["p0"]}},
            {"op": "stats"},
        ]

        first, first_stats = _serve_stdio(root, requests)
        assert first_stats["counters"]["similarity_summary_hits"] == 0

        second, second_stats = _serve_stdio(root, requests)
        assert second_stats["counters"]["similarity_summary_hits"] == 1
        assert second == first

    def test_basic_value_crosses_processes(self, tmp_path):
        root = str(tmp_path / "shared")
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        script = (
            "import sys; sys.path.insert(0, {src!r});"
            "from repro.store import ContentStore;"
            "s = ContentStore({root!r}); s.put('ns', b'k', dict(v=7)); s.close()"
        ).format(src=src, root=root)
        subprocess.run([sys.executable, "-c", script], check=True)
        with ContentStore(root) as store:
            assert store.get("ns", b"k") == {"v": 7}

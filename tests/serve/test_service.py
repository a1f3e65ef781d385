"""Tests for the coalescing, store-backed analysis service."""

import asyncio
import copy
import threading

import pytest

from repro.core.refinement import compute_similarity_labeling
from repro.obs.scenarios import build_scenario
from repro.perf import batch
from repro.serve import AnalysisService

RING = {"topology": "ring", "size": 5, "marks": []}
MARKED_RING = {"topology": "ring", "size": 5, "marks": ["p0"]}
WITNESS = {
    "weaker": "Q", "stronger": "L", "max_processors": 2,
    "max_names": 2, "max_variables": 2, "allow_marks": False, "limit": None,
}
EXPLORE = {
    "scenario": {"topology": "ring", "size": 3, "model": "Q"},
    "max_depth": 3, "symmetry": True,
}


def run(coro):
    return asyncio.run(coro)


class TestOps:
    def test_similarity_request(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(
                    {"op": "similarity", "scenario": RING}
                )

        result = run(go())
        assert result["op"] == "similarity"
        assert result["classes"] == [["p0", "p1", "p2", "p3", "p4"]]
        assert result["stats"]["classes"] >= 1

    def test_marked_ring_splits_classes(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(
                    {"op": "similarity", "scenario": MARKED_RING}
                )

        result = run(go())
        assert len(result["classes"]) > 1

    def test_witness_request(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit({"op": "witness", "spec": WITNESS})

        result = run(go())
        assert result["op"] == "witness"
        assert result["count"] == len(result["witnesses"]) >= 1
        assert result["cache_misses"] > 0  # cold service really computed

    def test_pooled_witness_request_counts_its_workers_misses(self):
        request = {"op": "witness", "spec": WITNESS, "workers": 2}

        async def go():
            async with AnalysisService() as service:
                return [await service.submit(dict(request)) for _ in range(2)]

        first, repeat = run(go())
        assert first["cache_misses"] == first["stats"]["cache_misses"] > 0
        assert repeat["cache_misses"] == 0  # a memo hit decided nothing

    def test_explore_request(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit({"op": "explore", "spec": EXPLORE})

        result = run(go())
        assert result["op"] == "explore"
        assert result["verdict"] in ("certified", "violation")
        assert result["unique_states"] > 0

    def test_stats_op(self):
        async def go():
            async with AnalysisService() as service:
                await service.submit({"op": "similarity", "scenario": RING})
                return await service.submit({"op": "stats"})

        doc = run(go())
        assert doc["op"] == "stats"
        assert doc["counters"]["requests"] == 2
        assert doc["counters"]["waves"] >= 1
        assert doc["answer_memo"] == {"entries": 1, "hits": 0}
        assert "store" not in doc  # memory-only service


class TestErrors:
    def test_unknown_op(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit({"op": "frobnicate"})

        assert "unknown op" in run(go())["error"]

    def test_non_dict_request(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(["not", "a", "dict"])

        assert "JSON object" in run(go())["error"]

    def test_bad_scenario_fails_only_its_own_request(self):
        """A malformed wave-mate must not poison concurrent requests."""

        async def go():
            async with AnalysisService() as service:
                return await asyncio.gather(
                    service.submit({"op": "similarity", "scenario": RING}),
                    service.submit(
                        {"op": "similarity",
                         "scenario": {"topology": "alternating-ring",
                                      "size": 5}}
                    ),
                )

        good, bad = run(go())
        assert good["classes"] == [["p0", "p1", "p2", "p3", "p4"]]
        assert "error" in bad

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"op": "similarity",
              "scenario": {"topology": "ring", "size": "abc"}}, None),
            ({"op": "similarity",
              "scenario": {"topology": "ring", "size": 5, "marks": 5}}, None),
            ({"op": "similarity", "scenario": RING, "engine": "nope"}, "nope"),
            ({"op": "explore", "spec": dict(EXPLORE, max_depth="3")},
             "max_depth"),
            ({"op": "explore", "spec": EXPLORE, "workers": "x"}, "workers"),
            ({"op": "explore", "spec": dict(EXPLORE, split_depth=2)},
             "split_depth"),
            ({"op": "witness", "spec": dict(WITNESS, shards=3)}, "shards"),
            ({"op": "witness", "spec": dict(WITNESS, max_processors="3")},
             "max_processors"),
            ({"op": "witness", "spec": dict(WITNESS, limit=0)}, "limit"),
        ],
        ids=["size-not-int", "marks-not-list", "unknown-engine",
             "max-depth-str", "workers-str", "explore-unknown-key",
             "witness-unknown-key", "witness-processors-str",
             "witness-limit-zero"],
    )
    def test_malformed_request_fails_only_itself(self, bad, named):
        """A request that fails with any exception — not only a
        ReproError — answers with its own error; a valid request of the
        same op in the same wave still gets its real answer."""
        good = {
            "similarity": {"op": "similarity", "scenario": RING},
            "explore": {"op": "explore", "spec": EXPLORE},
            "witness": {"op": "witness", "spec": WITNESS},
        }[bad["op"]]

        async def go():
            async with AnalysisService() as service:
                return await asyncio.gather(
                    service.submit(bad), service.submit(good)
                )

        bad_result, good_result = run(go())
        assert "error" in bad_result
        if named is not None:
            assert named in bad_result["error"]
        assert "error" not in good_result
        assert good_result["op"] == bad["op"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "similarity", "scenario": dict(RING, marks={"p0"})},
            {"op": "similarity", "scenario": RING, 1: "one"},
        ],
        ids=["set-value", "int-key-beside-str-keys"],
    )
    def test_request_json_cannot_encode_is_an_error(self, bad):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(bad), service.stats_doc()

        result, stats = run(go())
        assert "not a JSON document" in result["error"]
        assert stats["counters"]["errors"] == 1
        assert stats["counters"]["waves"] == 0

    def test_cancelled_caller_never_fails_its_wave_mates(self):
        async def go():
            async with AnalysisService() as service:
                gone = asyncio.ensure_future(
                    service.submit({"op": "explore", "spec": EXPLORE})
                )
                mate = asyncio.ensure_future(service.submit(
                    {"op": "explore", "spec": dict(EXPLORE, max_depth=2)}
                ))
                await asyncio.sleep(0)  # both queued; the wave settles
                gone.cancel()
                return await mate, service.stats_doc()

        mate, stats = run(go())
        assert mate["verdict"] in ("certified", "violation")
        assert stats["counters"]["errors"] == 0

    def test_witness_without_spec(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit({"op": "witness"})

        assert "spec" in run(go())["error"]


class TestCoalescing:
    def test_identical_requests_share_one_job(self):
        async def go():
            async with AnalysisService() as service:
                results = await asyncio.gather(
                    *(service.submit({"op": "similarity", "scenario": RING})
                      for _ in range(4))
                )
                return results, service.stats_doc()

        results, stats = run(go())
        assert all(r == results[0] for r in results)
        assert stats["counters"]["coalesced"] >= 1
        assert stats["counters"]["jobs"] < stats["counters"]["requests"]

    def test_requests_queued_behind_a_busy_engine_share_a_wave(self):
        """With no coalescing sleep, requests submitted one at a time
        while the engine thread is busy queue up and form one wave."""
        entered, release = threading.Event(), threading.Event()
        waves = []

        class WaveLog:
            def on_event(self, event):
                if event.kind == "serve-wave":
                    waves.append((event.op, event.requests, event.jobs))

        async def go():
            async with AnalysisService() as service:
                service.hub.attach(WaveLog())
                real = service._similarity_wave
                calls = []

                def held_first(requests):
                    calls.append(len(requests))
                    if len(calls) == 1:
                        entered.set()
                        release.wait(timeout=30)
                    return real(requests)

                service._similarity_wave = held_first
                blocker = asyncio.ensure_future(
                    service.submit({"op": "similarity", "scenario": RING})
                )
                later = []
                try:
                    # The engine thread now holds wave 1.
                    assert await asyncio.get_event_loop().run_in_executor(
                        None, entered.wait, 30
                    )
                    for size in (3, 4, 6):
                        later.append(asyncio.ensure_future(service.submit(
                            {"op": "similarity",
                             "scenario": {"topology": "ring", "size": size}}
                        )))
                        await asyncio.sleep(0.02)
                finally:
                    release.set()
                answers = await asyncio.gather(blocker, *later)
                return answers, calls, service.stats_doc()

        answers, calls, stats = run(go())
        assert all(doc["op"] == "similarity" for doc in answers)
        assert calls == [1, 3]
        assert waves == [("similarity", 1, 1), ("similarity", 3, 3)]
        assert stats["counters"]["waves"] == 2

    def test_a_request_in_flight_joins_the_wave(self):
        """A request that reaches the queue a few event-loop passes after
        the first one (a client turning its last answer into its next
        request) joins that wave instead of starting its own."""
        waves = []

        class WaveLog:
            def on_event(self, event):
                if event.kind == "serve-wave":
                    waves.append((event.op, event.requests))

        async def in_flight(service):
            for _ in range(8):
                await asyncio.sleep(0)
            return await service.submit(
                {"op": "similarity", "scenario": {"topology": "ring", "size": 4}}
            )

        async def go():
            async with AnalysisService() as service:
                service.hub.attach(WaveLog())
                return await asyncio.gather(
                    service.submit({"op": "similarity", "scenario": RING}),
                    in_flight(service),
                )

        answers = run(go())
        assert all(doc["op"] == "similarity" for doc in answers)
        assert waves == [("similarity", 2)]

    def test_mixed_ops_all_answered(self):
        async def go():
            async with AnalysisService() as service:
                return await asyncio.gather(
                    service.submit({"op": "similarity", "scenario": RING}),
                    service.submit({"op": "witness", "spec": WITNESS}),
                    service.submit({"op": "explore", "spec": EXPLORE}),
                )

        sim, wit, exp = run(go())
        assert sim["op"] == "similarity"
        assert wit["op"] == "witness"
        assert exp["op"] == "explore"


class TestSimilarityMemo:
    def test_each_engine_reports_its_own_stats(self):
        """Answers are keyed by the whole request and summaries by
        fingerprint *and* engine: a signatures request after a worklist
        one for the same system is solved by the signatures engine, not
        answered with the worklist result."""
        scenario = {"topology": "ring", "size": 6, "marks": ["p0"]}

        async def go():
            async with AnalysisService() as service:
                worklist = await service.submit(
                    {"op": "similarity", "scenario": scenario}
                )
                signatures = await service.submit(
                    {"op": "similarity", "scenario": scenario,
                     "engine": "signatures"}
                )
                return worklist, signatures

        worklist, signatures = run(go())
        system = build_scenario(scenario).system
        for doc, engine in ((worklist, "worklist"),
                            (signatures, "signatures")):
            stats = compute_similarity_labeling(system, engine=engine).stats
            assert doc["engine"] == engine
            assert doc["stats"] == {
                "rounds": stats.rounds,
                "splits": stats.splits,
                "classes": stats.classes,
            }
        assert signatures["stats"]["rounds"] == 6
        assert signatures["classes"] == worklist["classes"]


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns its call list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestAnswerMemo:
    def test_repeats_run_each_engine_once(self, monkeypatch):
        from repro.analysis import explore, witness_engine

        sweeps = _counting(monkeypatch, witness_engine, "run_sweep")
        explorations = _counting(monkeypatch, explore, "run_explore")
        solves = _counting(monkeypatch, batch, "batch_similarity")
        requests = [
            {"op": "witness", "spec": WITNESS},
            {"op": "explore", "spec": EXPLORE},
            {"op": "similarity", "scenario": MARKED_RING},
        ]

        async def go():
            async with AnalysisService() as service:
                rounds = []
                for _ in range(3):
                    rounds.append([await service.submit(r) for r in requests])
                return rounds, service.stats_doc()

        rounds, stats = run(go())
        assert (len(sweeps), len(explorations), len(solves)) == (1, 1, 1)
        first = rounds[0]
        assert first[0]["cache_misses"] > 0
        for repeat in rounds[1:]:
            assert repeat[0]["cache_misses"] == 0
            assert dict(repeat[0], cache_misses=0) == dict(
                first[0], cache_misses=0
            )
            assert repeat[1:] == first[1:]
        assert stats["answer_memo"] == {"entries": 3, "hits": 6}
        assert stats["counters"]["waves"] == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "similarity", "scenario": RING, "engine": "nope"},
            {"op": "explore", "spec": dict(EXPLORE, max_depth="3")},
        ],
        ids=["similarity", "explore"],
    )
    def test_errors_are_never_memoized(self, bad):
        async def go():
            async with AnalysisService() as service:
                first = await service.submit(bad)
                second = await service.submit(bad)
                return first, second, service.stats_doc()

        first, second, stats = run(go())
        assert "error" in first and "error" in second
        assert stats["counters"]["errors"] == 2
        assert stats["counters"]["waves"] == 2
        assert stats["answer_memo"] == {"entries": 0, "hits": 0}

    def test_repeat_with_a_deadline_is_answered_from_the_memo(self):
        async def go():
            async with AnalysisService() as service:
                first = await service.submit({"op": "explore", "spec": EXPLORE})
                # Too short for a run (see TestDeadlines); a hit never
                # waits.
                again = await service.submit(
                    {"op": "explore", "spec": EXPLORE, "deadline": 0.001}
                )
                return first, again, service.stats_doc()

        first, again, stats = run(go())
        assert again == first
        assert stats["counters"]["deadline_errors"] == 0
        assert stats["answer_memo"]["hits"] == 1

    def test_mutating_an_answer_leaves_the_memo_alone(self):
        request = {"op": "similarity", "scenario": MARKED_RING}

        async def go():
            async with AnalysisService() as service:
                first = await service.submit(request)
                expected = copy.deepcopy(first)
                first["classes"][0].append("zz")
                first["stats"]["rounds"] = -1
                hit = await service.submit(request)
                hit_before = copy.deepcopy(hit)
                hit["classes"].clear()
                return expected, hit_before, await service.submit(request)

        expected, hit, next_hit = run(go())
        assert hit == expected
        assert next_hit == expected

    def test_wave_mates_share_no_lists(self):
        async def go():
            async with AnalysisService() as service:
                return await asyncio.gather(*(
                    service.submit({"op": "similarity", "scenario": MARKED_RING})
                    for _ in range(2)
                ))

        first, mate = run(go())
        expected = copy.deepcopy(mate)
        first["classes"][0].append("zz")
        assert mate == expected

    def test_repeat_queued_behind_its_first_run_is_answered_by_it(self):
        entered, release = threading.Event(), threading.Event()
        request = {"op": "similarity", "scenario": RING}

        async def go():
            async with AnalysisService() as service:
                real = service._similarity_wave
                calls = []

                def held(requests):
                    calls.append(len(requests))
                    entered.set()
                    release.wait(timeout=30)
                    return real(requests)

                service._similarity_wave = held
                first = asyncio.ensure_future(service.submit(request))
                try:
                    # The engine thread now holds the first run.
                    assert await asyncio.get_event_loop().run_in_executor(
                        None, entered.wait, 30
                    )
                    repeat = asyncio.ensure_future(service.submit(request))
                    await asyncio.sleep(0.02)  # queued behind it
                finally:
                    release.set()
                answers = await asyncio.gather(first, repeat)
                return answers, calls, service.stats_doc()

        (first, repeat), calls, stats = run(go())
        assert calls == [1]
        assert repeat == first
        assert stats["counters"]["waves"] == 1
        assert stats["answer_memo"] == {"entries": 1, "hits": 1}

    def test_fresh_similarity_request_fingerprints_its_system_once(
        self, tmp_path, monkeypatch
    ):
        """The store key, the batch dedup and the summary all read one
        memoized fingerprint."""
        fingerprints = _counting(monkeypatch, batch, "system_fingerprint")

        async def go():
            async with AnalysisService(store_dir=str(tmp_path)) as service:
                return await service.submit(
                    {"op": "similarity", "scenario": MARKED_RING}
                )

        result = run(go())
        assert len(fingerprints) == 1
        assert result["fingerprint"] == batch.system_fingerprint(
            build_scenario(MARKED_RING).system
        )


def _ring_request(size):
    return {"op": "similarity",
            "scenario": {"topology": "ring", "size": size, "marks": []}}


def _memo_bytes(service):
    return sum(len(key) + len(text) for key, text in service._answers.items())


class TestAnswerMemoBound:
    """The memo keeps at most ``_ANSWER_MEMO_BYTES`` of key and answer
    text, and the least recently used answer goes first."""

    def test_oldest_answer_is_recomputed_a_recent_hit_is_not(
        self, monkeypatch
    ):
        from repro.serve import service as service_module

        solves = _counting(monkeypatch, batch, "batch_similarity")

        async def go():
            async with AnalysisService() as service:
                for size in (4, 5, 6):
                    await service.submit(_ring_request(size))
                # Room for exactly these three answers.
                monkeypatch.setattr(
                    service_module, "_ANSWER_MEMO_BYTES", _memo_bytes(service)
                )
                await service.submit(_ring_request(4))  # a hit: most recent
                await service.submit(_ring_request(7))  # a larger answer
                del solves[:]
                await service.submit(_ring_request(4))
                kept = len(solves)
                await service.submit(_ring_request(5))
                return kept, len(solves)

        kept, after_oldest = run(go())
        assert kept == 0
        assert after_oldest == 1

    def test_memo_bytes_never_exceed_the_cap(self, monkeypatch):
        from repro.serve import service as service_module

        cap = 1000
        monkeypatch.setattr(service_module, "_ANSWER_MEMO_BYTES", cap)
        solves = _counting(monkeypatch, batch, "batch_similarity")

        async def go():
            async with AnalysisService() as service:
                seen = []
                # Twelve small answers, then one larger than the cap,
                # which is answered but not kept.
                for size in [*range(4, 16), 200]:
                    answer = await service.submit(_ring_request(size))
                    assert len(answer["classes"][0]) == size
                    seen.append((_memo_bytes(service), service._answer_bytes))
                del solves[:]
                await service.submit(_ring_request(4))
                return seen, len(solves)

        seen, recomputed = run(go())
        assert all(held <= cap and held == counted for held, counted in seen)
        assert max(held for held, _ in seen) > cap // 2  # the memo was used
        assert seen[-1][0] == 0
        assert recomputed == 1


class TestStoreBacking:
    def test_second_lifetime_returns_the_same_witnesses(self, tmp_path):
        """A second service over the same store answers a
        previously-served sweep with the same witnesses."""
        root = str(tmp_path / "store")

        async def serve_once():
            async with AnalysisService(store_dir=root) as svc:
                return await svc.submit({"op": "witness", "spec": WITNESS})

        cold = run(serve_once())
        assert cold["cache_misses"] > 0
        warm = run(serve_once())
        assert warm["witnesses"] == cold["witnesses"]

    def test_similarity_summary_served_from_store(self, tmp_path, monkeypatch):
        root = str(tmp_path / "store")

        async def serve_once():
            async with AnalysisService(store_dir=root) as svc:
                result = await svc.submit(
                    {"op": "similarity", "scenario": MARKED_RING}
                )
                return result, svc.stats_doc()

        cold, cold_stats = run(serve_once())
        assert cold_stats["counters"]["similarity_summary_hits"] == 0

        def never_computed(*_args, **_kwargs):
            raise AssertionError("a warm store must answer without solving")

        monkeypatch.setattr(batch, "batch_similarity", never_computed)
        warm, warm_stats = run(serve_once())
        assert warm_stats["counters"]["similarity_summary_hits"] == 1
        assert warm_stats["answer_memo"] == {"entries": 1, "hits": 0}
        assert warm["classes"] == cold["classes"]

    def test_explore_orbit_memo_round_trips(self, tmp_path):
        root = str(tmp_path / "store")

        async def serve_once():
            async with AnalysisService(store_dir=root) as svc:
                return await svc.submit({"op": "explore", "spec": EXPLORE})

        cold = run(serve_once())
        warm = run(serve_once())
        assert warm["verdict"] == cold["verdict"]
        assert warm["unique_states"] == cold["unique_states"]
        from repro.store import ContentStore, NS_ORBITS

        with ContentStore(root) as store:
            assert store.count(NS_ORBITS) == 1

    def test_orbit_entry_is_saved_whole(self, tmp_path, monkeypatch):
        """Lifetimes exploring one system at depth 3, then 4, leave one
        ``orbits`` entry holding every pair both computed; the second
        save writes its whole memo without reading the entry back, and a
        lifetime whose every key came from the entry puts nothing."""
        from repro.analysis import explore
        from repro.store import ContentStore, NS_ORBITS

        makers = []

        class RecordingKeyMaker(explore._KeyMaker):
            def __init__(self, *args):
                super().__init__(*args)
                makers.append(self)

        monkeypatch.setattr(explore, "_KeyMaker", RecordingKeyMaker)
        specs = {depth: dict(EXPLORE, max_depth=depth) for depth in (3, 4)}
        expected = {}
        for doc in specs.values():  # no store: what each depth computes
            explore.run_explore(explore.ExploreSpec.from_json(doc), workers=0)
        for maker in makers:
            expected.update(maker.memo)
        assert expected

        reads = []
        real_read = ContentStore._read

        def counting_read(self, namespace, digest, key):
            reads.append(namespace)
            return real_read(self, namespace, digest, key)

        save_reads = []
        real_save = explore._save_orbit_memo

        def watched_save(store, system, keys):
            before = len(reads)
            real_save(store, system, keys)
            save_reads.append(len(reads) - before)

        monkeypatch.setattr(ContentStore, "_read", counting_read)
        monkeypatch.setattr(explore, "_save_orbit_memo", watched_save)
        root = str(tmp_path / "store")

        async def serve_once(depth):
            async with AnalysisService(store_dir=root) as svc:
                await svc.submit({"op": "explore", "spec": specs[depth]})
                return svc.store.stats.puts

        assert run(serve_once(3)) == 1
        assert run(serve_once(4)) == 1
        assert save_reads == [0, 0]
        del makers[:]
        assert run(serve_once(4)) == 0
        assert [maker.computed for maker in makers] == [0]
        system = build_scenario(EXPLORE["scenario"]).system
        with ContentStore(root) as store:
            assert store.count(NS_ORBITS) == 1
            entry = store.get(NS_ORBITS, bytes.fromhex(system.fingerprint))
        assert entry == {
            "map": {ident.hex(): key.hex() for ident, key in expected.items()}
        }


class TestDeadlines:
    def test_deadline_exceeded_returns_error(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(
                    {"op": "explore", "spec": EXPLORE, "deadline": 0.001}
                )

        result = run(go())
        assert result == {
            "error": "deadline", "op": "explore", "deadline_s": 0.001,
        }

    def test_timed_out_request_never_poisons_wave_mates(self):
        async def go():
            async with AnalysisService() as service:
                tight, mate = await asyncio.gather(
                    service.submit(
                        {"op": "explore", "spec": EXPLORE, "deadline": 0.001}
                    ),
                    service.submit(
                        {"op": "explore", "spec": dict(EXPLORE, max_depth=2)}
                    ),
                )
                return tight, mate, service.stats_doc()

        tight, mate, stats = run(go())
        assert tight["error"] == "deadline"
        assert mate["verdict"] in ("certified", "violation")
        assert stats["counters"]["deadline_errors"] == 1

    def test_generous_deadline_answers_normally(self):
        async def go():
            async with AnalysisService() as service:
                return await service.submit(
                    {"op": "similarity", "scenario": RING, "deadline": 60}
                )

        result = run(go())
        assert result["classes"] == [["p0", "p1", "p2", "p3", "p4"]]

    def test_default_deadline_applies_without_request_field(self):
        async def go():
            async with AnalysisService(
                default_deadline=0.001
            ) as service:
                return await service.submit({"op": "explore", "spec": EXPLORE})

        assert run(go())["error"] == "deadline"

    def test_bad_deadline_rejected(self):
        async def go():
            async with AnalysisService() as service:
                return await asyncio.gather(
                    service.submit({"op": "similarity", "scenario": RING,
                                    "deadline": -1}),
                    service.submit({"op": "similarity", "scenario": RING,
                                    "deadline": "soon"}),
                )

        for result in run(go()):
            assert "deadline must be a positive number" in result["error"]

    def test_deadline_differing_requests_still_coalesce(self):
        """The deadline field is stripped before keying, so requests
        differing only in deadline share one job."""

        async def go():
            async with AnalysisService() as service:
                results = await asyncio.gather(
                    service.submit({"op": "similarity", "scenario": RING,
                                    "deadline": 30}),
                    service.submit({"op": "similarity", "scenario": RING,
                                    "deadline": 60}),
                    service.submit({"op": "similarity", "scenario": RING}),
                )
                return results, service.stats_doc()

        results, stats = run(go())
        assert all(r == results[0] for r in results)
        assert stats["counters"]["coalesced"] == 2


class TestGracefulShutdown:
    def test_drain_answers_queued_requests_and_flushes(self, tmp_path):
        root = str(tmp_path / "store")

        async def go():
            service = AnalysisService(store_dir=root)
            await service.start()
            pending = [
                asyncio.ensure_future(
                    service.submit({"op": "similarity", "scenario": RING})
                ),
                asyncio.ensure_future(
                    service.submit({"op": "witness", "spec": WITNESS})
                ),
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await service.stop()  # drain: both must be answered
            return await asyncio.gather(*pending)

        sim, wit = run(go())
        assert sim["op"] == "similarity"
        assert wit["op"] == "witness"
        # The drain flushed the store before returning.
        from repro.store import ContentStore, NS_SIMILARITY

        with ContentStore(root) as store:
            assert store.count(NS_SIMILARITY) == 1

    def test_submissions_during_drain_are_rejected(self):
        async def go():
            service = AnalysisService()
            await service.start()
            queued = asyncio.ensure_future(
                service.submit({"op": "similarity", "scenario": RING})
            )
            await asyncio.sleep(0)
            stopper = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0)  # stop() is now draining
            late = await service.submit(
                {"op": "similarity", "scenario": MARKED_RING}
            )
            await stopper
            return await queued, late, service.stats_doc()

        answered, late, stats = run(go())
        assert answered["op"] == "similarity"
        assert late == {"error": "service is shutting down"}
        assert stats["counters"]["rejected"] == 1

    def test_service_restarts_after_drain(self):
        async def go():
            service = AnalysisService()
            await service.start()
            await service.submit({"op": "similarity", "scenario": RING})
            await service.stop()
            # A fresh submit restarts the loops transparently.
            result = await service.submit(
                {"op": "similarity", "scenario": RING}
            )
            await service.stop()
            return result

        assert run(go())["op"] == "similarity"

    def test_hard_stop_cancels_a_request_waiting_for_its_wave(self):
        """``stop(drain=False)`` while a wave loop lets the event loop
        settle before taking its wave cancels that request; it never
        leaves the caller waiting forever."""

        async def go():
            service = AnalysisService()
            await service.start()
            pending = asyncio.ensure_future(
                service.submit({"op": "similarity", "scenario": RING})
            )
            for _ in range(3):  # queued; its wave loop is settling
                await asyncio.sleep(0)
            await service.stop(drain=False)
            with pytest.raises(asyncio.CancelledError):
                await asyncio.wait_for(pending, 5)

        run(go())


class TestDegradedMode:
    @staticmethod
    def _sabotage(service):
        def refuse(namespace, digest, key, value):
            raise OSError(28, "No space left on device (injected)")

        service.store._write = refuse

    def test_unwritable_store_degrades_but_keeps_serving(self, tmp_path):
        from repro.obs import ServeDegraded

        degraded_events = []

        class Sink:
            def on_event(self, event):
                if isinstance(event, ServeDegraded):
                    degraded_events.append(event)

        async def go():
            async with AnalysisService(
                store_dir=str(tmp_path / "store")
            ) as service:
                service.hub.attach(Sink())
                self._sabotage(service)
                first = await service.submit(
                    {"op": "similarity", "scenario": RING}
                )
                stats = service.stats_doc()
                second = await service.submit(
                    {"op": "similarity", "scenario": MARKED_RING}
                )
                return first, stats, second

        first, stats, second = run(go())
        assert first["classes"] == [["p0", "p1", "p2", "p3", "p4"]]
        assert stats["store"] == "degraded"
        assert "injected" in stats["store_degraded_reason"]
        assert len(second["classes"]) > 1  # still answering, memory-only
        assert len(degraded_events) == 1

    def test_degraded_explore_job_retries_memory_only(self, tmp_path):
        async def go():
            async with AnalysisService(
                store_dir=str(tmp_path / "store")
            ) as service:
                # The orbit-memo flush at the end of the exploration
                # fails inside the job.
                self._sabotage(service)
                result = await service.submit(
                    {"op": "explore", "spec": EXPLORE}
                )
                return result, service.stats_doc()

        result, stats = run(go())
        assert result["op"] == "explore"
        assert result["unique_states"] > 0
        assert stats["store"] == "degraded"
        assert "during explore job" in stats["store_degraded_reason"]

    def test_degraded_service_survives_its_own_stop(self, tmp_path):
        async def go():
            service = AnalysisService(
                store_dir=str(tmp_path / "store")
            )
            await service.start()
            self._sabotage(service)
            await service.submit({"op": "similarity", "scenario": RING})
            await service.stop()  # the final flush must not raise
            return service.stats_doc()

        assert run(go())["store"] == "degraded"


class TestEventStreaming:
    def test_witness_events_stream_while_job_runs(self):
        events = []

        async def go():
            async with AnalysisService() as service:
                return await service.submit(
                    {"op": "witness", "spec": WITNESS},
                    on_event=events.append,
                )

        result = run(go())
        assert result["op"] == "witness"
        kinds = {doc.get("kind") for doc in events}
        assert kinds & {"witness-shard", "witness"}

    def test_unsubscribed_peer_sees_no_events(self):
        """Only the subscriber's callback fires, even in a shared wave."""
        mine, theirs = [], []

        async def go():
            async with AnalysisService() as service:
                await asyncio.gather(
                    service.submit({"op": "explore", "spec": EXPLORE},
                                   on_event=mine.append),
                    service.submit({"op": "explore",
                                    "spec": dict(EXPLORE, max_depth=2)}),
                )

        run(go())
        assert theirs == []

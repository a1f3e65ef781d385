"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestAnalyze:
    def test_marked_ring(self, capsys):
        assert main(["analyze", "ring", "4", "--mark", "p0"]) == 0
        out = capsys.readouterr().out
        assert "selection possible: yes" in out

    def test_anonymous_ring(self, capsys):
        assert main(["analyze", "ring", "4"]) == 0
        out = capsys.readouterr().out
        assert "selection possible: no" in out

    def test_star_in_l(self, capsys):
        assert main(["analyze", "star", "3", "--model", "L"]) == 0
        out = capsys.readouterr().out
        assert "selection possible: yes" in out

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "moebius", "4"])


class TestOtherCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 5" in out

    def test_hierarchy(self, capsys):
        assert main(["hierarchy"]) == 0
        out = capsys.readouterr().out
        assert "fair-S" in out and "L2" in out

    def test_dining_deadlock(self, capsys):
        assert main(["dining", "5", "--steps", "1500"]) == 0
        out = capsys.readouterr().out
        assert "deadlocked:          yes" in out

    def test_dining_alternating(self, capsys):
        assert main(["dining", "6", "--alternating", "--steps", "1500"]) == 0
        out = capsys.readouterr().out
        assert "everyone ate:        yes" in out

    def test_elect_randomized(self, capsys):
        assert main(["elect", "5", "--randomized", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Itai-Rodeh" in out and "leader" in out

    def test_elect_deterministic(self, capsys):
        assert main(["elect", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAnalyzeFromFile:
    def test_json_file(self, tmp_path, capsys):
        from repro.io import dump
        from repro.topologies import figure2_system

        target = tmp_path / "sys.json"
        dump(figure2_system(), str(target))
        assert main(["analyze", "file", "--file", str(target)]) == 0
        out = capsys.readouterr().out
        assert "selection possible: yes" in out

    def test_file_without_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "file"])


class TestReport:
    def test_report_command(self, capsys):
        assert main(["report", "ring", "5", "--mark", "p0"]) == 0
        out = capsys.readouterr().out
        assert "system dossier" in out
        assert "renaming possible" in out


class TestBatch:
    def test_batch_ring(self, capsys):
        assert main(["batch", "ring", "10", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "10 member(s)" in out
        assert "distinct systems 10" in out
        # Marked ring: every node unique, same count for every member.
        assert "[20]" in out

    def test_batch_member_limit(self, capsys):
        assert main(["batch", "ring", "10", "--members", "3", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 member(s)" in out


class TestBench:
    @pytest.fixture
    def tiny_refinement(self, monkeypatch):
        from repro.perf import bench

        monkeypatch.setattr(bench, "REFINEMENT_CASES", (("ring", 10),))
        monkeypatch.setattr(bench, "REFINEMENT_BATCH", (10, 1))

    def test_bench_smoke(self, tiny_refinement, tmp_path, capsys):
        out_file = tmp_path / "BENCH_refinement.json"
        assert main([
            "bench", "refinement",
            "--workers", "1",
            "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "worklist" in out
        assert out_file.exists()

    def test_bench_no_output(self, tiny_refinement, capsys):
        assert main(["bench", "refinement", "--workers", "1", "--output", ""]) == 0
        out = capsys.readouterr().out
        assert "written:" not in out

    def test_default_output_is_named_after_the_bench(self, monkeypatch, tmp_path):
        from repro.perf import bench

        monkeypatch.setattr(bench, "MP_SIZES", (4,))
        monkeypatch.setattr(bench, "MP_DELIVERIES", 50)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "mp_faults"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_mp_faults.json"]

    def test_unknown_bench_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "microbench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "refinement", "mp_faults", "witness", "explore", "parametric", "serve",
    ])
    def test_failed_gate_exits_one(self, name, monkeypatch, tmp_path, capsys):
        """Each bench shrunk to a tiny case, its engine result forced
        wrong: the bench must report ``ok: NO`` and exit 1."""
        _tiny_failing_bench(name, monkeypatch)
        det = tmp_path / "det.json"
        assert main([
            "bench", name, "--workers", "1", "--output", "",
            "--determinism-output", str(det),
            "--store", str(tmp_path / "store"),
        ]) == 1
        assert capsys.readouterr().out.splitlines()[-2] == "ok: NO"
        assert det.exists()


def _tiny_failing_bench(name, monkeypatch):
    """Shrink bench ``name`` to one tiny case and corrupt one engine
    result so that its gate fails."""
    from dataclasses import replace

    from repro.analysis.explore import ExploreSpec
    from repro.messaging.mp_faults import ChannelFaults
    from repro.perf import bench, serve_bench

    if name == "refinement":
        monkeypatch.setattr(bench, "REFINEMENT_CASES", (("ring", 6),))
        monkeypatch.setattr(bench, "REFINEMENT_BATCH", (6, 1))
        real = bench.compute_similarity_labeling

        def off_by_one(system, engine="worklist", **kwargs):
            result = real(system, engine=engine, **kwargs)
            if engine != "literal":
                return result
            return replace(
                result, stats=replace(result.stats, classes=result.stats.classes + 1)
            )

        monkeypatch.setattr(bench, "compute_similarity_labeling", off_by_one)
    elif name == "mp_faults":
        monkeypatch.setattr(bench, "MP_SIZES", (4,))
        monkeypatch.setattr(bench, "MP_DELIVERIES", 200)
        monkeypatch.setitem(bench.MP_CONFIGS, "reliable", ChannelFaults(drop=0.5))
    elif name == "witness":
        monkeypatch.setattr(bench, "WITNESS_PAIRS", (("Q", "L"),))
        monkeypatch.setattr(bench, "WITNESS_BOUNDS", {
            "max_processors": 2, "max_names": 1, "max_variables": 2,
            "allow_marks": False,
        })
        real = bench.run_sweep

        def pooled_loses_one(spec, workers=None, cache=None):
            result = real(spec, workers=0, cache=cache)
            if workers:
                return replace(result, witnesses=result.witnesses[1:])
            return result

        monkeypatch.setattr(bench, "run_sweep", pooled_loses_one)
    elif name == "explore":
        monkeypatch.setattr(bench, "EXPLORE_CASES", ((
            "dp4-deadlock",
            ExploreSpec(
                scenario={"topology": "dining", "size": 4,
                          "program": "left-first"},
                max_depth=8,
                invariants=("exclusion",),
            ),
        ),))
        real = bench.run_explore

        def pooled_misses_it(spec, workers=None):
            result = real(spec, workers=0)
            return replace(result, violation=None) if workers else result

        monkeypatch.setattr(bench, "run_explore", pooled_misses_it)
    elif name == "parametric":
        monkeypatch.setattr(bench, "PARAMETRIC_CASES", (("ring", "lockstep"),))
        monkeypatch.setattr(bench, "run_parametric", lambda family, prop: {
            "verify_cutoff": {"confirmed": False},
        })
    else:
        monkeypatch.setattr(serve_bench, "REQUESTS", 4)
        calls = iter(range(10**6))
        # every digest distinct: the warm answers cannot match the cold
        monkeypatch.setattr(serve_bench, "result_digest",
                            lambda _result: str(next(calls)))


class TestWitness:
    def test_sweep_with_checkpoint_events_output(self, tmp_path, capsys):
        out = tmp_path / "witnesses.json"
        ck = tmp_path / "sweep.jsonl"
        ev = tmp_path / "events.jsonl"
        assert main([
            "witness", "Q", "L",
            "--max-processors", "2",
            "--workers", "1",
            "--checkpoint", str(ck),
            "--events", str(ev),
            "--output", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "witness sweep Q < L" in text
        assert "0 resumed" in text
        assert out.exists() and ck.exists() and ev.exists()
        doc = __import__("json").loads(out.read_text())
        assert doc["spec"]["weaker"] == "Q"
        assert doc["witnesses"]
        # A second run over the same checkpoint resumes every shard.
        assert main([
            "witness", "Q", "L",
            "--max-processors", "2",
            "--workers", "1",
            "--checkpoint", str(ck),
        ]) == 0
        text = capsys.readouterr().out
        assert "16 shards, 16 resumed" in text

    def test_alias_labels_accepted(self, capsys):
        assert main([
            "witness", "BFS", "Q",
            "--max-processors", "2", "--max-names", "1",
            "--workers", "1", "--limit", "1",
        ]) == 0
        assert "bounded-fair-S < Q" in capsys.readouterr().out

    def test_unknown_label_rejected(self):
        with pytest.raises(SystemExit, match="unknown model label"):
            main(["witness", "Q", "nope", "--workers", "1"])


class TestBenchWitness:
    def test_bench_witness_smoke(self, monkeypatch, tmp_path, capsys):
        from repro.perf import bench

        monkeypatch.setattr(bench, "WITNESS_PAIRS", (("Q", "L"),))
        monkeypatch.setattr(bench, "WITNESS_BOUNDS", {
            "max_processors": 2, "max_names": 1, "max_variables": 2,
            "allow_marks": False,
        })
        out_file = tmp_path / "BENCH_witness.json"
        assert main([
            "bench", "witness",
            "--workers", "1",
            "--output", str(out_file),
        ]) == 0
        text = capsys.readouterr().out
        assert "bench witness" in text
        assert "Q<L" in text
        assert "ok: yes" in text
        assert out_file.exists()


class TestExplore:
    def test_dining_deadlock_end_to_end(self, tmp_path, capsys):
        report = tmp_path / "explore.json"
        trace = tmp_path / "ce.jsonl"
        # a violation exits 1, like replay on divergence
        assert main([
            "explore", "dining", "4",
            "--program", "left-first",
            "--max-depth", "8",
            "--invariant", "exclusion",
            "--workers", "1",
            "--output", str(report),
            "--counterexample", str(trace),
        ]) == 1
        out = capsys.readouterr().out
        assert "deadlock at depth 8" in out
        assert report.exists() and trace.exists()
        import json

        doc = json.loads(report.read_text())
        assert doc["verdict"] == "violation"
        assert doc["violation"]["kind"] == "deadlock"
        # and the counterexample replays through the standard loop
        assert main(["replay", str(trace)]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_certified_exits_zero(self, capsys):
        assert main([
            "explore", "dining", "4",
            "--alternating",
            "--program", "left-first",
            "--max-depth", "6",
            "--workers", "1",
        ]) == 0
        assert "certified" in capsys.readouterr().out

    def test_states_output_writes_sorted_digests(self, tmp_path, capsys):
        states = tmp_path / "states.txt"
        assert main([
            "explore", "dining", "4",
            "--alternating",
            "--program", "left-first",
            "--max-depth", "6",
            "--workers", "1",
            "--states-output", str(states),
        ]) == 0
        assert "states:" in capsys.readouterr().out
        lines = states.read_text().splitlines()
        assert lines and lines == sorted(lines)
        assert all(bytes.fromhex(line) for line in lines)

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit, match="k-bounded"):
            main(["explore", "ring", "3", "--k", "3", "--workers", "1"])


class TestBenchExplore:
    def test_parser_wiring(self):
        args = build_parser().parse_args(
            ["bench", "explore", "--workers", "1", "--output", ""]
        )
        assert args.func.__name__ == "cmd_bench"
        assert args.name == "explore"
        assert args.workers == 1


class TestExplain:
    def test_explain_command(self, capsys):
        assert main(["explain", "path", "4", "p0", "p3"]) == 0
        out = capsys.readouterr().out
        assert "split at round" in out

    def test_explain_similar_pair(self, capsys):
        assert main(["explain", "ring", "4", "p0", "p2"]) == 0
        out = capsys.readouterr().out
        assert "similar" in out


class TestWorkersValidation:
    """Every --workers flag rejects 0 and negatives with a clean
    argparse error (exit code 2), everywhere."""

    SUBCOMMANDS = {
        "batch": ["batch", "ring", "6"],
        "bench": ["bench", "refinement"],
        "witness": ["witness", "Q", "L"],
        "bench-witness": ["bench", "witness"],
        "explore": ["explore", "ring", "3"],
        "bench-explore": ["bench", "explore"],
        "serve": ["serve"],
        "bench-serve": ["bench", "serve"],
    }

    @pytest.mark.parametrize("argv", list(SUBCOMMANDS.values()),
                             ids=list(SUBCOMMANDS))
    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_zero_and_negative_rejected(self, argv, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--workers", bad])
        assert exc.value.code == 2
        assert ">= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(SUBCOMMANDS.values()),
                             ids=list(SUBCOMMANDS))
    def test_non_integer_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--workers", "many"])
        assert exc.value.code == 2

    def test_one_means_serial_and_is_accepted(self):
        args = build_parser().parse_args(["witness", "Q", "L",
                                          "--workers", "1"])
        assert args.workers == 1


class TestServeParsers:
    def test_serve_requires_a_front_end(self):
        with pytest.raises(SystemExit, match="front end"):
            main(["serve"])

    def test_serve_wiring(self):
        args = build_parser().parse_args(
            ["serve", "--http", "0", "--store", "/tmp/s", "--workers", "2"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.http == 0 and args.store == "/tmp/s" and args.workers == 2

    def test_bench_serve_wiring(self):
        args = build_parser().parse_args(
            ["bench", "serve", "--store", "/tmp/s", "--output", ""]
        )
        assert args.func.__name__ == "cmd_bench"
        assert args.name == "serve" and args.store == "/tmp/s"
        assert args.output == "" and args.determinism_output is None

    def test_serve_hardening_flags_wiring(self):
        args = build_parser().parse_args(
            ["serve", "--http", "0", "--deadline", "2.5",
             "--store-max-bytes", "65536"]
        )
        assert args.deadline == 2.5
        assert args.store_max_bytes == 65536
        defaults = build_parser().parse_args(["serve", "--http", "0"])
        assert defaults.deadline is None
        assert defaults.store_max_bytes is None


class TestStoreGC:
    def _populate(self, tmp_path, count=12):
        from repro.store import ContentStore

        root = str(tmp_path / "store")
        with ContentStore(root) as store:
            for i in range(count):
                store.put("ns", b"key-%d" % i, {"i": i, "pad": "x" * 40})
        return root

    def test_parser_wiring(self):
        args = build_parser().parse_args(
            ["store-gc", "/tmp/s", "--max-bytes", "1024", "--dry-run"]
        )
        assert args.func.__name__ == "cmd_store_gc"
        assert args.dir == "/tmp/s"
        assert args.max_bytes == 1024
        assert args.dry_run and not args.check

    def test_collect_end_to_end(self, tmp_path, capsys):
        from repro.store.gc import usage

        root = self._populate(tmp_path)
        total = sum(u.bytes for u in usage(root).values())
        cap = total // 2
        assert main(["store-gc", root, "--max-bytes", str(cap)]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert sum(u.bytes for u in usage(root).values()) <= cap

    def test_check_ok_then_corruption_fails(self, tmp_path, capsys):
        import json
        import os

        root = self._populate(tmp_path, count=4)
        assert main(["store-gc", root, "--check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["namespaces"]["ns"]["entries"] == 4

        shard = os.path.join(root, "ns", sorted(os.listdir(
            os.path.join(root, "ns")))[0])
        victim = os.path.join(shard, sorted(os.listdir(shard))[0])
        with open(victim, "w") as fh:
            fh.write("garbage")
        assert main(["store-gc", root, "--check"]) == 1

    def test_dry_run_and_output(self, tmp_path, capsys):
        import json

        from repro.store.gc import usage

        root = self._populate(tmp_path)
        before = {ns: u.entries for ns, u in usage(root).items()}
        report_path = str(tmp_path / "report.json")
        assert main(["store-gc", root, "--max-bytes", "1",
                     "--dry-run", "--output", report_path]) == 0
        assert {ns: u.entries for ns, u in usage(root).items()} == before
        doc = json.load(open(report_path))
        assert doc["dry_run"] and doc["evicted_entries"] == 12


class TestParametric:
    def test_ring_lockstep_certifies(self, capsys, tmp_path):
        out_path = tmp_path / "param.json"
        assert main([
            "parametric", "--family", "ring", "--property", "lockstep",
            "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "for all n >= 4" in out
        assert "verify_cutoff: confirmed" in out
        assert out_path.exists()

    def test_no_schema_skips_schema_block(self, capsys):
        assert main([
            "parametric", "--family", "ring", "--property", "lockstep",
            "--no-schema",
        ]) == 0
        out = capsys.readouterr().out
        assert "labeling schema" not in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["parametric", "--family", "torus", "--property", "deadlock"])

    def test_unknown_property_rejected(self):
        with pytest.raises(SystemExit):
            main(["parametric", "--family", "ring", "--property", "liveness"])

    def test_non_uniform_property_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["parametric", "--family", "ring", "--property", "deadlock"])


class TestBenchParametric:
    def test_single_case(self, monkeypatch, capsys, tmp_path):
        from repro.perf import bench

        monkeypatch.setattr(bench, "PARAMETRIC_CASES", (("ring", "lockstep"),))
        out_path = tmp_path / "BENCH_parametric.json"
        assert main(["bench", "parametric", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "ring/lockstep" in out
        assert out_path.exists()

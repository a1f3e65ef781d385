"""The bench harness's meta block (and its honesty flag)."""

import os

from repro.perf.bench import bench_meta


class TestBenchMeta:
    def test_serial_meta_has_no_worker_fields(self):
        meta = bench_meta()
        assert set(meta) == {"timestamp", "python", "cpu_count"}
        assert meta["cpu_count"] >= 1

    def test_degraded_iff_oversubscribed(self):
        cpus = os.cpu_count() or 1
        honest = bench_meta(requested_workers=cpus)
        assert honest["requested_workers"] == cpus
        assert honest["degraded"] is False
        oversub = bench_meta(requested_workers=cpus + 1)
        assert oversub["degraded"] is True

    def test_zero_workers_is_never_degraded(self):
        assert bench_meta(requested_workers=0)["degraded"] is False

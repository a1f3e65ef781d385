"""Performance layer: batch similarity analysis and the bench harness.

The core engines (:mod:`repro.core.refinement`) answer one similarity
query at a time.  Production workloads ask many related queries -- every
member of a family, every size of a topology sweep, every candidate
configuration of an experiment -- and this package drives those in bulk:

* :mod:`repro.perf.batch` -- :func:`batch_similarity` fans a family of
  systems across a ``concurrent.futures`` process pool, deduplicated by
  system fingerprint, so duplicate members are solved once and
  independent members in parallel.
* :mod:`repro.perf.bench` -- the one harness behind ``python -m repro
  bench NAME``: six benches (``refinement``, ``mp_faults``, ``witness``,
  ``explore``, ``parametric``, ``serve``) that regenerate the committed
  ``BENCH_<NAME>.json`` files in one shape (``meta``, ``determinism``,
  ``timings``, ``ok``);
* :mod:`repro.perf.serve_bench` -- the ``serve`` bench's cold vs
  warm-store workload and hardening probes.

The batch driver is on the CLI as ``python -m repro batch ...``.
"""

from .batch import (
    BatchReport,
    batch_similarity,
    system_fingerprint,
)

__all__ = [
    "BatchReport",
    "batch_similarity",
    "system_fingerprint",
]

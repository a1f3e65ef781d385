"""Long-lived analysis serving (:mod:`repro.serve`).

An asyncio front end over the analysis engines: scenario specs in the
existing JSON-able registry vocabulary arrive over HTTP or stdio,
concurrent requests are coalesced into :func:`~repro.perf.batch
.batch_similarity` / witness-sweep / exploration waves, and obs events
stream back while jobs run.  A repeated request is answered from an
in-process memo; similarity summaries and orbit canonical keys also go
to the persistent content-addressed store (:mod:`repro.store`), so a
later process over the same directory reuses them.

Entry points: ``python -m repro serve`` (HTTP and/or stdio front ends)
and ``python -m repro bench serve`` (seeded concurrent load generator;
``BENCH_serve.json``).
"""

from .service import AnalysisService, ServeError

__all__ = ["AnalysisService", "ServeError"]

"""Persistent content-addressed store (:mod:`repro.store`).

One shared disk directory behind two in-memory memos: the similarity
summaries :mod:`repro.serve` computes and the explorer's orbit
canonical keys, keyed by canonical byte encodings so addresses are
hash-seed and interpreter independent.  Only ``serve`` and ``bench``
take a ``--store`` directory.
"""

from .content import ContentStore, StoreError, StoreStats
from .gc import GCReport, NamespaceUsage, check, collect, enforce_cap, usage

#: Store namespaces used across the codebase (one place, no typos).
NS_SIMILARITY = "similarity"
NS_ORBITS = "orbits"

__all__ = [
    "ContentStore",
    "GCReport",
    "NamespaceUsage",
    "StoreError",
    "StoreStats",
    "check",
    "collect",
    "enforce_cap",
    "usage",
    "NS_SIMILARITY",
    "NS_ORBITS",
]

"""Persistent columnar result store.

Experiments and sweeps produce tabular records; this package persists them
durably so reports and analyses can be regenerated without re-running any
simulation:

* :class:`ResultStore` — an append-only, schema-versioned store of row
  segments. Each append is one atomically-written NDJSON part file, so
  concurrent writers and killed processes never leave a half-written
  segment, and re-appending an existing segment is a no-op (idempotent
  resume).
* a small query API — :meth:`ResultStore.iter_select` streams matching rows
  segment by segment, line by line, so queries run out-of-core,
  :meth:`ResultStore.select` is its materialised form, and
  :meth:`ResultStore.export` streams CSV/NDJSON to disk — plus
  run-provenance metadata (package version, seed root, git SHA) recorded in
  the store's schema document.
* :func:`merge_stores` — union the segments of several stores (the shards
  of a distributed sweep) into one, idempotently and byte-identically to
  the equivalent unsharded run.

The sweep orchestrator (:mod:`repro.sweeps`) writes one segment per
completed sweep cell; ``repro store query`` and
:func:`repro.experiments.report.results_from_store` read them back.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "STORE_SCHEMA_VERSION": ".store", "ResultStore": ".store", "StoreError": ".store",
    "merge_stores": ".store",
})

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "StoreError",
    "merge_stores",
]

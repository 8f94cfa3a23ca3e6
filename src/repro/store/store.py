"""The append-only, schema-versioned columnar result store.

On-disk layout::

    <root>/
      _schema.json             # schema version, format, provenance, columns
      segments/
        <segment>.ndjson       # one part file per append
        <segment>.meta.json    # optional sidecar metadata for the segment

Design constraints, in order:

1. **Durability / atomicity** — every file is written to a temp name and
   published with ``os.replace``, so a killed writer never leaves a torn
   segment and concurrent writers never observe partial data.
2. **Idempotent appends** — a segment name identifies its content (sweep
   cells use ``<sweep>-cell-<index>-<cellkey12>``); appending a segment that
   already exists is a no-op. Resuming an interrupted producer therefore
   reconstructs a byte-identical store.
3. **Determinism** — rows are serialised with sorted keys and fixed
   separators, column unions are kept sorted, and no wall-clock timestamps
   enter any file, so two runs of the same workload produce bit-identical
   stores regardless of worker count or completion order.
4. **Zero dependencies** — segments are NDJSON, written and read with the
   standard library. The schema document records the format, and every
   open checks it.
"""

from __future__ import annotations

import filecmp
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import __version__
from repro.obs.telemetry import get_telemetry
from repro.utils.atomic import atomic_copy_file as _atomic_copy_file
from repro.utils.atomic import atomic_text_writer as _atomic_text_writer
from repro.utils.atomic import atomic_write_text as _atomic_write_text
from repro.utils.provenance import git_sha as _git_sha
from repro.utils.serialization import csv_line, to_jsonable

#: Bump when the on-disk layout or row conventions change incompatibly.
STORE_SCHEMA_VERSION = 1

_SEGMENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class StoreError(RuntimeError):
    """A store is unreadable, incompatible, or was asked to do the impossible."""


def _encode_row_ndjson(row: Mapping[str, Any]) -> str:
    """One row in the store's canonical NDJSON form (no trailing newline)."""
    return json.dumps(to_jsonable(row), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _encode_rows_ndjson(rows: Sequence[Mapping[str, Any]]) -> str:
    lines = [_encode_row_ndjson(row) for row in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def _matches(row: Mapping[str, Any], where: Mapping[str, Any]) -> bool:
    for key, expected in where.items():
        if key not in row:
            return False
        actual = row[key]
        if actual == expected:
            continue
        # CLI filters arrive as strings; compare loosely against the stored
        # value's canonical text so `--where rounds=100` matches the int 100.
        if str(actual) == str(expected):
            continue
        try:
            if float(actual) == float(expected):
                continue
        except (TypeError, ValueError):
            pass
        return False
    return True


class ResultStore:
    """An append-only store of row segments with a small query API.

    Parameters
    ----------
    directory:
        Store root; created (with its schema document) on first append.
        Opening an existing store validates its schema document.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: In-memory copy of the schema document. Safe to cache: the format
        #: and provenance are pinned at creation, and this process is the
        #: only writer of its own document updates. Spares one open+parse of
        #: _schema.json per segment operation.
        self._schema_cache: dict[str, Any] | None = None
        self._read_schema()

    # ------------------------------------------------------------------
    # Schema / provenance
    # ------------------------------------------------------------------
    @property
    def schema_path(self) -> Path:
        return self.directory / "_schema.json"

    @property
    def segments_dir(self) -> Path:
        return self.directory / "segments"

    def _read_schema(self) -> dict[str, Any] | None:
        if self._schema_cache is not None:
            return self._schema_cache
        try:
            with open(self.schema_path, "r", encoding="utf-8") as handle:
                schema = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            raise StoreError(f"unreadable store schema at {self.schema_path}: {error}") from error
        version = schema.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store at {self.directory} has schema version {version!r}; "
                f"this build reads version {STORE_SCHEMA_VERSION}"
            )
        if schema.get("format") != "ndjson":
            raise StoreError(
                f"store at {self.directory} is in format {schema.get('format')!r}; "
                "this build reads only 'ndjson'"
            )
        self._schema_cache = schema
        return schema

    def _write_schema(self, schema: Mapping[str, Any]) -> None:
        _atomic_write_text(self.schema_path, json.dumps(schema, indent=2, sort_keys=True) + "\n")
        self._schema_cache = dict(schema)

    def _ensure_schema(self, provenance: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Load the schema document, creating it (with provenance) on first use.

        Provenance is captured once, at creation: the first writer pins the
        package version, python version, git SHA, and any extra keys it
        passes (the sweep runner records the sweep name and seed root).
        Later appends leave it untouched, so an interrupted-then-resumed
        producer yields the same schema document as an uninterrupted one.
        """
        schema = self._read_schema()
        if schema is not None:
            return schema
        base_provenance: dict[str, Any] = {
            "package_version": __version__,
            "python": ".".join(str(part) for part in sys.version_info[:2]),
            "git_sha": _git_sha(),
        }
        if provenance:
            base_provenance.update(to_jsonable(provenance))
        schema = {
            "schema_version": STORE_SCHEMA_VERSION,
            "format": "ndjson",
            "provenance": base_provenance,
        }
        self._write_schema(schema)
        return schema

    def schema(self) -> dict[str, Any]:
        """The store's schema document (raises :class:`StoreError` if absent)."""
        schema = self._read_schema()
        if schema is None:
            raise StoreError(f"no store exists at {self.directory} (no _schema.json)")
        return schema

    def exists(self) -> bool:
        return self.schema_path.is_file()

    def provenance(self) -> dict[str, Any]:
        """Run-provenance metadata recorded when the store was created."""
        return dict(self.schema().get("provenance", {}))

    def columns(self) -> list[str]:
        """Sorted union of the column names across every stored row.

        Derived from the data on every call rather than accumulated in the
        schema document: an incremental read-modify-write there could lose
        columns under concurrent writers and leave a killed append
        half-recorded, whereas the data files themselves are the single
        source of truth.
        """
        seen: set[str] = set()
        for row in self.rows():
            seen.update(row)
        return sorted(seen)

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def _segment_path(self, segment: str) -> Path:
        if not segment or set(segment) - _SEGMENT_CHARS or segment.startswith("."):
            raise StoreError(
                f"segment names use [A-Za-z0-9._-] and must not start with '.', got {segment!r}"
            )
        return self.segments_dir / f"{segment}.ndjson"

    def has_segment(self, segment: str) -> bool:
        return self.exists() and self._segment_path(segment).exists()

    def append(
        self,
        segment: str,
        rows: Sequence[Mapping[str, Any]],
        *,
        meta: Mapping[str, Any] | None = None,
        provenance: Mapping[str, Any] | None = None,
    ) -> bool:
        """Append ``rows`` as one atomically-written segment.

        Returns ``True`` if the segment was written, ``False`` if a segment
        of that name already exists (the append is skipped — idempotence is
        what makes interrupted sweeps resumable without duplicating rows).
        ``meta`` is stored as a JSON sidecar next to the part file;
        ``provenance`` only matters for the very first append, which creates
        the store.

        The part file is the **commit point**: the meta sidecar is published
        first, so once the part file exists the segment is complete in every
        respect. A writer killed before the part file lands leaves at most a
        meta sidecar that the retried (idempotent, deterministic) append
        simply rewrites with identical bytes.
        """
        self._ensure_schema(provenance)
        path = self._segment_path(segment)
        if path.exists():
            return False
        if meta is not None:
            meta_path = self.segments_dir / f"{segment}.meta.json"
            _atomic_write_text(
                meta_path, json.dumps(to_jsonable(meta), indent=2, sort_keys=True) + "\n"
            )
        _atomic_write_text(path, _encode_rows_ndjson([dict(to_jsonable(row)) for row in rows]))
        return True

    def read_meta(self, segment: str) -> dict[str, Any] | None:
        """The sidecar metadata of ``segment``, or ``None`` if it has none."""
        meta_path = self.segments_dir / f"{segment}.meta.json"
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            raise StoreError(f"unreadable segment metadata {meta_path}: {error}") from error

    # ------------------------------------------------------------------
    # Read / query
    # ------------------------------------------------------------------
    def segments(self) -> list[str]:
        """Sorted names of all segments in the store."""
        if not self.segments_dir.is_dir():
            return []
        return sorted(
            entry.name[: -len(".ndjson")]
            for entry in self.segments_dir.iterdir()
            if entry.name.endswith(".ndjson")
        )

    def read_segment(self, segment: str) -> list[dict[str, Any]]:
        """All rows of one segment, in append order."""
        return list(self._iter_segment_ndjson(segment))

    def _iter_segment_ndjson(self, segment: str) -> Iterator[dict[str, Any]]:
        """Decode one NDJSON segment lazily, line by line."""
        path = self._segment_path(segment)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except ValueError as error:
                        raise StoreError(
                            f"corrupt row in segment {segment!r} line {line_number}: {error}"
                        ) from error
        except FileNotFoundError as error:
            raise StoreError(f"segment {segment!r} does not exist") from error
        except OSError as error:
            raise StoreError(f"unreadable segment {segment!r}: {error}") from error

    def rows(self) -> Iterator[dict[str, Any]]:
        """All rows of the store, in (segment name, row) order."""
        for segment in self.segments():
            yield from self._iter_segment_ndjson(segment)

    def _segment_row_count(self, segment: str) -> int:
        """Row count of one segment without decoding any row.

        Counts non-blank lines. Unreadable part files still surface as
        :class:`StoreError` — only *decoding* is skipped, not validation of
        the file's existence and readability.
        """
        path = self._segment_path(segment)
        total = 0
        try:
            with open(path, "rb") as handle:
                for line in handle:
                    if line.strip():
                        total += 1
        except FileNotFoundError as error:
            raise StoreError(f"segment {segment!r} does not exist") from error
        except OSError as error:
            raise StoreError(f"unreadable segment {segment!r}: {error}") from error
        return total

    def count(self) -> int:
        """Total row count, from line counts — no row decoding."""
        return sum(self._segment_row_count(segment) for segment in self.segments())

    def iter_select(
        self,
        *,
        where: Mapping[str, Any] | None = None,
        predicate: Callable[[Mapping[str, Any]], bool] | None = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream rows matching the given filters, one segment at a time.

        The out-of-core form of :meth:`select`: segment part files are
        opened lazily and decoded line by line, never materialised whole, so
        peak memory is one row — independent of store size.
        ``limit`` short-circuits *before* later segments are opened. Rows
        come back in the same deterministic (segment, row) order as
        :meth:`select`.

        When telemetry is enabled the read path's counters are flushed on
        completion (including early exits): ``store.segments_opened``,
        ``store.segments_skipped``, ``store.rows_scanned`` and
        ``store.rows_returned``.
        """
        tel = get_telemetry()
        stats = {"opened": 0, "skipped": 0, "scanned": 0, "returned": 0}
        column_list = list(columns) if columns is not None else None
        try:
            if limit is not None and limit <= 0:
                return
            for segment in self.segments():
                stats["opened"] += 1
                for row in self._iter_segment_ndjson(segment):
                    stats["scanned"] += 1
                    if where and not _matches(row, where):
                        continue
                    if predicate is not None and not predicate(row):
                        continue
                    if column_list is not None:
                        row = {column: row.get(column) for column in column_list}
                    stats["returned"] += 1
                    yield row
                    if limit is not None and stats["returned"] >= limit:
                        return
        finally:
            if tel.enabled:
                tel.counter("store.segments_opened", stats["opened"])
                tel.counter("store.segments_skipped", stats["skipped"])
                tel.counter("store.rows_scanned", stats["scanned"])
                tel.counter("store.rows_returned", stats["returned"])

    def select(
        self,
        *,
        where: Mapping[str, Any] | None = None,
        predicate: Callable[[Mapping[str, Any]], bool] | None = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Rows matching the given filters, optionally projected to ``columns``.

        ``where`` applies per-column equality filters (numeric strings match
        their numeric values, so CLI-sourced filters work); ``predicate`` is
        an arbitrary row test applied after ``where``. Rows come back in
        deterministic (segment, row) order. This is the materialised form of
        :meth:`iter_select` — prefer the iterator when the result set may be
        large.
        """
        return list(
            self.iter_select(where=where, predicate=predicate, columns=columns, limit=limit)
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, output: str | Path, *, fmt: str = "csv", columns: Sequence[str] | None = None) -> int:
        """Write every row to ``output`` as CSV or NDJSON; returns the row count.

        Rows stream straight from :meth:`iter_select` into a temp file that
        is atomically renamed into place, so exporting a store larger than
        memory works and a killed export never leaves a torn output file.
        The CSV header is written lazily on the first row, so an empty store
        exports an empty file (matching :func:`rows_to_csv` of no records).
        """
        if fmt not in ("csv", "ndjson"):
            raise StoreError(f"unknown export format {fmt!r}; expected 'csv' or 'ndjson'")
        column_list = list(columns) if columns is not None else None
        written = 0
        with _atomic_text_writer(Path(output)) as handle:
            if fmt == "csv":
                # Explicit columns avoid any pre-scan; otherwise one cheap
                # metadata pass derives the sorted column union up front.
                header = column_list if column_list is not None else self.columns()
                header_written = False
                for row in self.iter_select(columns=column_list):
                    if not header_written:
                        handle.write(",".join(header) + "\n")
                        header_written = True
                    handle.write(csv_line(row, header) + "\n")
                    written += 1
            else:
                for row in self.iter_select(columns=column_list):
                    handle.write(_encode_row_ndjson(row) + "\n")
                    written += 1
        return written

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(directory={str(self.directory)!r})"


def merge_stores(sources: Sequence[str | Path], into: str | Path) -> dict[str, Any]:
    """Union the segments of ``sources`` into the store at ``into``.

    The distributed-sweep join: each shard of a sharded sweep writes its own
    store, and merging them reproduces the unsharded store **byte for
    byte** — segment part files and meta sidecars are copied verbatim, and a
    fresh destination takes the first source's ``_schema.json`` bytes as-is
    (shards of one sweep pin identical provenance, since no timestamps or
    host state enter the document).

    The merge is idempotent: a segment already present with identical bytes
    is skipped, so re-running a merge (or merging overlapping shards, e.g.
    an interrupted shard resumed on another machine) is safe. A segment
    name carrying *different* bytes raises :class:`StoreError` — that is
    never a legal state for shards of one deterministic sweep.

    Returns a summary dict: source count, segments copied/skipped, and the
    merged store's total row count.
    """
    if not sources:
        raise StoreError("merge needs at least one source store")
    stores = []
    for source in sources:
        store = ResultStore(source)
        if not store.exists():
            raise StoreError(f"no store exists at {store.directory} (no _schema.json)")
        stores.append(store)
    dest = ResultStore(into)
    if not dest.exists():
        _atomic_copy_file(stores[0].schema_path, dest.schema_path)
    copied = 0
    skipped = 0
    for store in stores:
        for segment in store.segments():
            source_part = store._segment_path(segment)
            dest_part = dest._segment_path(segment)
            source_meta = store.segments_dir / f"{segment}.meta.json"
            dest_meta = dest.segments_dir / f"{segment}.meta.json"
            # Sidecar before part file, mirroring append's commit ordering:
            # once the part file exists the segment is complete.
            if source_meta.is_file():
                if dest_meta.is_file():
                    if not filecmp.cmp(source_meta, dest_meta, shallow=False):
                        raise StoreError(
                            f"segment {segment!r} metadata differs between "
                            f"{store.directory} and {dest.directory}"
                        )
                else:
                    _atomic_copy_file(source_meta, dest_meta)
            if dest_part.exists():
                if not filecmp.cmp(source_part, dest_part, shallow=False):
                    raise StoreError(
                        f"segment {segment!r} conflicts: {source_part} and "
                        f"{dest_part} hold different bytes"
                    )
                skipped += 1
                continue
            _atomic_copy_file(source_part, dest_part)
            copied += 1
    return {
        "into": str(dest.directory),
        "format": "ndjson",
        "sources": len(stores),
        "segments_copied": copied,
        "segments_skipped": skipped,
        "rows": dest.count(),
    }


__all__ = [
    "ResultStore",
    "StoreError",
    "STORE_SCHEMA_VERSION",
    "merge_stores",
]

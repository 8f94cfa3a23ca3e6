"""Content-addressed store for completed runs.

Sweeps over the experiment suite re-run many settings that have not changed
since the last invocation. The cache keys each completed run by a SHA-256
digest of its *content identity* — topology, configuration, and seed (plus
anything else the caller folds in, e.g. the package version) — so a
``repro run all --cache-dir …`` invocation skips every setting whose
payload is already on disk, and any change to the identity automatically
misses.

Payloads are JSON documents written atomically (temp file + ``os.replace``),
so a cache directory shared between concurrent runs never exposes a
half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.obs.telemetry import get_telemetry
from repro.utils.atomic import atomic_write_text
from repro.utils.serialization import to_jsonable

#: Entries whose successful parse :meth:`RunCache.peek` remembers; past this
#: many keys the oldest is forgotten first.
_PEEK_STAMPS = 256


def cache_key(**components: Any) -> str:
    """SHA-256 digest of the canonical JSON form of ``components``.

    Components are converted with
    :func:`repro.utils.serialization.to_jsonable` (so dataclasses, NumPy
    values, and nested containers are all fine) and serialised with sorted
    keys and fixed separators, making the digest independent of dict
    ordering and formatting.
    """
    canonical = json.dumps(
        to_jsonable(components), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Flight:
    """State of one in-flight :meth:`RunCache.get_or_compute` computation."""

    __slots__ = ("done", "payload", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.payload: dict[str, Any] | None = None
        self.error: BaseException | None = None


class RunCache:
    """A directory of completed-run payloads addressed by content key.

    Parameters
    ----------
    directory:
        Cache root; created on first use. One ``<key>.json`` file per entry.
    """

    def __init__(self, directory: str | Path):
        self.__setstate__({"directory": Path(directory)})

    def __getstate__(self) -> dict[str, Any]:
        # Locks, in-flight state and peek stamps are process-local; a pickled
        # copy (e.g. shipped to a worker) starts with fresh, empty tables.
        return {"directory": self.directory}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.directory = state["directory"]
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        # key -> (st_ino, st_size, st_mtime_ns) of the entry peek last parsed.
        self._stamps: dict[str, tuple[int, int, int]] = {}
        self._stamps_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    def key(self, **components: Any) -> str:
        """Compute the content key for ``components`` (see :func:`cache_key`)."""
        return cache_key(**components)

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry with the given key."""
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(f"cache keys are lowercase hex digests, got {key!r}")
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def read_bytes(self, key: str) -> bytes | None:
        """The stored bytes of ``key``'s entry, or ``None`` if there are none.

        These are exactly the bytes :meth:`store` wrote — ``dumps`` of the
        payload — so a caller can hand them out without re-encoding. A
        transient read error (permissions, fd exhaustion, I/O) returns
        ``None`` and leaves the entry in place: the data may be perfectly
        valid. Reading bytes is not a lookup, so no hit/miss counter moves;
        :meth:`load` counts those.
        """
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            get_telemetry().counter("cache.read_errors")
            return None

    def load(self, key: str) -> dict[str, Any] | None:
        """Return the stored payload for ``key``, or ``None`` on a miss.

        Parses the bytes of :meth:`read_bytes`. A corrupt entry (e.g. from a
        crashed writer on a filesystem without atomic replace) is treated as
        a miss and removed.
        """
        tel = get_telemetry()
        data = self.read_bytes(key)
        if data is not None:
            try:
                payload = json.loads(data.decode("utf-8"))
            except ValueError:
                # Undecodable bytes or malformed JSON: the entry is corrupt.
                # (UnicodeDecodeError and json.JSONDecodeError are both ValueError.)
                try:
                    self.path_for(key).unlink()
                except OSError:
                    pass
                tel.counter("cache.corrupt_recovered")
                data = None
        if data is None:
            tel.counter("cache.misses")
            return None
        tel.counter("cache.hits")
        return payload

    def peek(self, key: str) -> int | None:
        """The size in bytes of ``key``'s entry if it parses (a hit), else ``None``.

        Unlike :meth:`load`, a missing or corrupt entry counts nothing and
        stays where it is, so the caller's later :meth:`load` (or
        :meth:`get_or_compute`) records the one miss and recovers it.

        An entry is parsed once per change (``cache.peek_parses`` counts the
        parses). A successful parse records the entry's inode, size and
        mtime, taken from the descriptor it was read through; while
        ``os.stat`` reports the same three, the entry is a hit without being
        read again. A replace, truncation or rewrite changes them, and the
        entry is read and parsed afresh. (Only a rewrite in place that keeps
        the size and lands within one tick of the filesystem's clock would
        go unseen; the cache itself only ever replaces entries whole.)
        """
        path = self.path_for(key)
        tel = get_telemetry()
        with self._stamps_lock:
            stamp = self._stamps.get(key)
        if stamp is not None:
            try:
                stat = os.stat(path)
            except OSError:
                stat = None
            if stat is not None and (stat.st_ino, stat.st_size, stat.st_mtime_ns) == stamp:
                tel.counter("cache.hits")
                return stat.st_size
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            tel.counter("cache.read_errors")
            return None
        tel.counter("cache.peek_parses")
        try:
            json.loads(data.decode("utf-8"))
        except ValueError:
            return None
        with self._stamps_lock:
            self._stamps.pop(key, None)
            self._stamps[key] = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            if len(self._stamps) > _PEEK_STAMPS:
                del self._stamps[next(iter(self._stamps))]
        tel.counter("cache.hits")
        return len(data)

    def store(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Atomically write ``payload`` under ``key``; returns the entry path."""
        return self._write(key, to_jsonable(payload))

    def _write(self, key: str, plain: dict[str, Any]) -> Path:
        """:meth:`store` of a payload that is already plain JSON (no conversion)."""
        path = self.path_for(key)
        tel = get_telemetry()
        start = time.perf_counter() if tel.enabled else 0.0
        document = json.dumps(plain, indent=2, sort_keys=False)
        atomic_write_text(path, document)
        if tel.enabled:
            tel.counter("cache.stores")
            tel.timer("cache.store_seconds", time.perf_counter() - start)
        return path

    # ------------------------------------------------------------------
    # Single-flight computation
    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: str, compute: Callable[[], Mapping[str, Any]]
    ) -> tuple[dict[str, Any], str]:
        """Load ``key`` or run ``compute`` exactly once across concurrent callers.

        Returns ``(payload, status)`` with status one of:

        * ``"hit"`` — the entry was already on disk;
        * ``"computed"`` — this caller ran ``compute`` and stored the result;
        * ``"dedupe"`` — another thread was already computing the same key;
          this caller blocked until it finished and shares its payload
          (``cache.dedupe_hits`` telemetry counter).

        The *first* caller for a key becomes the leader: it checks the disk
        entry, runs ``compute`` on a miss, and stores the result atomically.
        Every concurrent caller for the same key waits on the leader and
        receives the identical (JSON-plain) payload — which is what lets a
        job daemon collapse N identical submissions into one engine
        execution. A leader failure propagates the same exception to every
        waiter, and the key is retried by the next fresh caller.
        """
        self.path_for(key)  # validate eagerly, before any lock is taken
        while True:
            with self._flights_lock:
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.done.wait()
                if flight.error is not None:
                    raise flight.error
                if flight.payload is None:  # pragma: no cover - defensive
                    continue  # leader vanished without publishing; retry
                get_telemetry().counter("cache.dedupe_hits")
                return flight.payload, "dedupe"
            try:
                payload = self.load(key)
                if payload is not None:
                    status = "hit"
                else:
                    # Converted once, here, so leader and waiters share one
                    # plain-JSON payload — the exact document any later
                    # load() would return — and it is written as it is.
                    payload = to_jsonable(dict(compute()))
                    self._write(key, payload)
                    status = "computed"
                flight.payload = payload
                return payload, status
            except BaseException as error:
                flight.error = error
                raise
            finally:
                with self._flights_lock:
                    self._flights.pop(key, None)
                flight.done.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of all entries currently in the cache.

        Only files whose stem is a SHA-256 hex digest count as entries, so a
        cache directory that also holds foreign files (``notes.json``, …)
        enumerates — and :meth:`clear`\\ s — cleanly.
        """
        if not self.directory.is_dir():
            return
        digits = set("0123456789abcdef")
        for entry in sorted(self.directory.glob("*.json")):
            if len(entry.stem) == 64 and set(entry.stem) <= digits:
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            get_telemetry().counter("cache.evicted", removed)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunCache(directory={str(self.directory)!r})"


__all__ = ["RunCache", "cache_key"]

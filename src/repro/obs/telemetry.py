"""The zero-overhead telemetry spine: counters, gauges, timers, spans.

Every hot subsystem — the kernel round loop, the scheduler, the run cache,
the sweep runner — carries *probes*: tiny calls into the process-wide
current :class:`Telemetry` object. The default object is the no-op base
class, whose methods do nothing, so an uninstrumented run pays one
attribute lookup plus a predicted branch per probe site (benchmarked ≤ a
few percent on macro-workloads by ``benchmarks/bench_fastpath.py``).
Installing a :class:`TelemetryRecorder` turns the same probes into a
structured event stream without touching a single simulation code path.

Two hard contracts:

* **Observation only.** Probes never draw randomness, never mutate
  simulation state, and never change control flow; results are
  bit-identical with telemetry off, on, and at every verbosity level
  (pinned against the golden kernel fixtures in
  ``tests/test_obs_telemetry.py``).
* **Structured output.** A recorder aggregates counters / gauges / timers
  in memory and (at level ``"events"``) appends every event to a JSONL
  stream. :meth:`TelemetryRecorder.write` publishes ``summary.json`` — the
  aggregated metrics plus a provenance block (package version, git SHA,
  seed root) matching the :class:`~repro.store.ResultStore` sidecar
  convention — and flushes ``events.jsonl`` next to it.

Span hierarchy (see README "Observability"); ``experiment`` and ``sweep``
are siblings under ``run``, and a level is skipped when its subsystem takes
no part, e.g. ``run E17 --shard-workers 2`` nests ``shardpath`` directly
under ``experiment``::

    run                  # one CLI invocation (installed by repro.cli)
     └─ experiment       # one experiment of ``repro run`` (repro.cli)
     └─ sweep            # one sweep spec (sweeps.runner)
         └─ plan         # one ExecutionPlan (engine.scheduler)
             └─ shardpath    # one sharded run_kernel call (core.shardpath)

Chunk refills and loop armings are events (``fastpath.chunk_refill``,
``fastpath.armed``) inside the enclosing span, not spans.

The result store's streaming read path
(:meth:`~repro.store.ResultStore.iter_select`) flushes one counter batch
per completed query: ``store.segments_opened`` / ``store.segments_skipped``
(part files actually read vs. rejected unopened), and
``store.rows_scanned`` vs. ``store.rows_returned`` (filter selectivity —
how much I/O the query paid per row it kept). A ``limit`` short-circuit
shows up as ``segments_opened`` below the store's segment count.

Worker *processes* spawned by the scheduler inherit the default no-op
recorder: cross-process telemetry is deliberately parent-side (the parent
records per-cell latency from worker-measured durations), which is what
makes counters identical for every worker count.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

#: Recorder verbosity levels, in increasing order of detail. ``"off"`` is
#: the no-op base class; ``"summary"`` aggregates counters/gauges/timers
#: only; ``"events"`` additionally streams every event to JSONL.
TELEMETRY_LEVELS = ("off", "summary", "events")


class _NullSpan:
    """The reusable no-op span: a context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **fields: Any) -> None:
        """Add fields to the span's closing event (a no-op here)."""


_NULL_SPAN = _NullSpan()


class Telemetry:
    """The no-op telemetry object — and the probe interface.

    Probe sites call these methods unconditionally; this base class makes
    every one of them a constant-time no-op. Hot loops may additionally
    consult :attr:`enabled` to skip building probe arguments at all.
    """

    #: Fast gate for hot paths: ``False`` here, ``True`` on recorders.
    enabled = False
    #: The verbosity level this object implements.
    level = "off"

    def counter(self, name: str, value: int | float = 1, **labels: Any) -> None:
        """Add ``value`` to the counter ``name`` (labels refine the key)."""

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` to its latest observed ``value``."""

    def timer(self, name: str, seconds: float, **labels: Any) -> None:
        """Fold one wall-time observation into the timer ``name``."""

    def event(self, name: str, **fields: Any) -> None:
        """Append one structured event to the stream (``"events"`` level only)."""

    def span(self, name: str, **fields: Any):
        """Context manager timing a nested phase (run → experiment or sweep → plan → shardpath)."""
        return _NULL_SPAN

    def summary(self) -> dict[str, Any]:
        """The aggregated metrics document (empty for the no-op)."""
        return {}

    def write(self) -> Optional[Path]:
        """Publish the summary (and flush events); no-op returns ``None``."""
        return None


#: The process-wide default: shared, stateless, does nothing.
NULL_TELEMETRY = Telemetry()

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-wide current telemetry object (no-op unless installed)."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` process-wide (``None`` restores the no-op).

    Returns the previously installed object so callers can restore it.
    """
    global _current
    previous = _current
    _current = NULL_TELEMETRY if telemetry is None else telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None) -> Iterator[Telemetry]:
    """Install ``telemetry`` for the duration of a ``with`` block."""
    previous = set_telemetry(telemetry)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


def _metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Flatten a (name, labels) pair into one deterministic aggregation key."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}[{rendered}]"


class _Span:
    """A live span: times its block, emits one event on exit."""

    __slots__ = ("_recorder", "name", "fields", "_start")

    def __init__(self, recorder: "TelemetryRecorder", name: str, fields: dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.fields = fields
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._recorder._push_span(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._recorder._pop_span(self.name, elapsed, self.fields)

    def annotate(self, **fields: Any) -> None:
        """Add fields to the span's closing event, e.g. an outcome known only at the end."""
        self.fields.update(fields)


class TelemetryRecorder(Telemetry):
    """An in-memory aggregating recorder with optional JSONL event streaming.

    Parameters
    ----------
    directory:
        Where :meth:`write` publishes ``summary.json`` (and, at level
        ``"events"``, where ``events.jsonl`` is appended). ``None`` keeps
        everything in memory — useful for tests and programmatic use.
    level:
        ``"summary"`` (aggregates only) or ``"events"`` (aggregates plus
        the JSONL event stream).
    provenance:
        Extra provenance fields folded into the summary's provenance block
        (the CLI records the seed root and the command here).

    The recorder is thread-safe (one lock around the aggregate maps);
    span nesting state is kept per-thread so concurrent spans in different
    threads cannot corrupt each other's paths.
    """

    enabled = True

    def __init__(
        self,
        directory: str | Path | None = None,
        level: str = "events",
        provenance: Mapping[str, Any] | None = None,
    ):
        if level not in ("summary", "events"):
            raise ValueError(
                f"telemetry level must be 'summary' or 'events', got {level!r}"
            )
        self.level = level
        self.directory = None if directory is None else Path(directory)
        self._extra_provenance = dict(provenance or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, dict[str, float]] = {}
        self._events: list[dict[str, Any]] = []
        self._events_flushed = 0
        self._event_seq = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Probe interface
    # ------------------------------------------------------------------
    def counter(self, name: str, value: int | float = 1, **labels: Any) -> None:
        key = _metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def timer(self, name: str, seconds: float, **labels: Any) -> None:
        key = _metric_key(name, labels)
        seconds = float(seconds)
        with self._lock:
            stats = self._timers.get(key)
            if stats is None:
                self._timers[key] = {
                    "count": 1,
                    "total_seconds": seconds,
                    "min_seconds": seconds,
                    "max_seconds": seconds,
                }
            else:
                stats["count"] += 1
                stats["total_seconds"] += seconds
                stats["min_seconds"] = min(stats["min_seconds"], seconds)
                stats["max_seconds"] = max(stats["max_seconds"], seconds)

    def event(self, name: str, **fields: Any) -> None:
        if self.level != "events":
            return
        with self._lock:
            self._event_seq += 1
            self._events.append(
                {
                    "seq": self._event_seq,
                    "t": round(time.perf_counter() - self._epoch, 6),
                    "event": name,
                    "span": "/".join(self._span_stack()) or None,
                    **fields,
                }
            )

    def span(self, name: str, **fields: Any) -> _Span:
        return _Span(self, name, fields)

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _span_stack(self) -> list[str]:
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = self._local.spans = []
        return stack

    def _push_span(self, name: str) -> None:
        self._span_stack().append(name)

    def _pop_span(self, name: str, elapsed: float, fields: dict[str, Any]) -> None:
        self.event(f"span.{name}", seconds=round(elapsed, 6), **fields)
        stack = self._span_stack()
        if stack and stack[-1] == name:
            stack.pop()
        self.timer(f"span.{name}.seconds", elapsed)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def events(self) -> list[dict[str, Any]]:
        """All events recorded so far (including already-flushed ones)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def summary(self) -> dict[str, Any]:
        from repro.utils.provenance import provenance_stamp

        with self._lock:
            timers = {
                key: {
                    **stats,
                    "mean_seconds": stats["total_seconds"] / max(stats["count"], 1),
                }
                for key, stats in sorted(self._timers.items())
            }
            return {
                "telemetry_level": self.level,
                "provenance": provenance_stamp(**self._extra_provenance),
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": timers,
                "events_recorded": self._event_seq,
            }

    def write(self) -> Optional[Path]:
        """Publish ``summary.json`` (and flush ``events.jsonl``); returns the path.

        The summary is written atomically; the event stream is append-only
        (each flush appends only events not yet on disk), so repeated
        flushes of a long-running process never rewrite history.
        """
        if self.directory is None:
            return None
        from repro.utils.atomic import atomic_write_text

        self.directory.mkdir(parents=True, exist_ok=True)
        if self.level == "events":
            with self._lock:
                pending = self._events[self._events_flushed :]
                self._events_flushed = len(self._events)
            if pending:
                with open(self.directory / "events.jsonl", "a", encoding="utf-8") as handle:
                    for event in pending:
                        handle.write(json.dumps(event, sort_keys=False) + "\n")
        summary_path = self.directory / "summary.json"
        atomic_write_text(summary_path, json.dumps(self.summary(), indent=2) + "\n")
        return summary_path


__all__ = [
    "NULL_TELEMETRY",
    "TELEMETRY_LEVELS",
    "Telemetry",
    "TelemetryRecorder",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

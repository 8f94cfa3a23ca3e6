"""repro.obs — the observability layer: telemetry spine + bench observatory.

Two halves:

* :mod:`repro.obs.telemetry` — the process-wide probe interface (no-op by
  default) and the :class:`TelemetryRecorder` that turns the kernel,
  scheduler, cache, and sweep probes into JSONL event streams plus an
  aggregated ``summary.json``.
* :mod:`repro.obs.history` — the ``repro bench history`` observatory:
  ``BENCH_*.json`` artifacts ingested into a ResultStore and scanned for
  statistically significant perf shifts with the two-window Welch-z
  detector from :mod:`repro.dynamics.online`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "NULL_TELEMETRY": ".telemetry", "TELEMETRY_LEVELS": ".telemetry", "Telemetry": ".telemetry",
    "TelemetryRecorder": ".telemetry", "get_telemetry": ".telemetry", "set_telemetry": ".telemetry",
    "use_telemetry": ".telemetry",
    "analyze_history": ".history", "extract_series": ".history", "ingest_artifact": ".history",
    "lower_is_better": ".history", "scan_series": ".history",
})

__all__ = [
    "NULL_TELEMETRY",
    "TELEMETRY_LEVELS",
    "Telemetry",
    "TelemetryRecorder",
    "analyze_history",
    "extract_series",
    "get_telemetry",
    "ingest_artifact",
    "lower_is_better",
    "scan_series",
    "set_telemetry",
    "use_telemetry",
]

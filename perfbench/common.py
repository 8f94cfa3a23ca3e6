"""Shared pieces of the end-to-end benchmark: statistics, spans, probes.

Everything here is standard library only, so the harness process never
imports ``repro`` and its own start-up cannot leak into a measurement.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Load limits for a 2-core machine: one benchmark process, at most two
#: connections, scheduler workers and shard workers at a time, and one client
#: thread: beside the daemon and its workers, a second closed-loop client only
#: queues behind the first (same throughput, twice the latency and its spread).
LOAD_LIMITS = {"clients": 1, "connections": 2, "scheduler_workers": 2, "shard_workers": 2}

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

WORK_DIR = ".perfbench_work"


def repo_root() -> Path:
    """The checkout root: the benchmark lives one directory below it."""
    return Path(__file__).resolve().parent.parent


def source_env() -> dict:
    """Environment for child processes: the package is imported from ``src/``."""
    env = dict(os.environ)
    src = str(repo_root() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def work_dir(tag: str) -> Path:
    """A fresh scratch directory inside the checkout for one worker process."""
    path = repo_root() / WORK_DIR / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(fraction * len(ordered)) - 1)])


def latency_summary(seconds) -> dict:
    """Median latency, plus p90 only when enough samples lie beyond it."""
    out = {"samples": len(seconds), "p50_ms": median(seconds) * 1e3}
    if len(seconds) - math.ceil(0.9 * len(seconds)) >= MIN_TAIL_SAMPLES:
        out["p90_ms"] = nearest_rank(seconds, 0.9) * 1e3
    return out


class Checks:
    """Output checks. A failed check on an operation marks that operation failed;
    a check on no single operation (a set-up or store identity check) counts as
    an attempted operation of its own."""

    def __init__(self) -> None:
        self.messages: list = []
        self.made = 0
        self.failed = 0

    def expect(self, ok: bool, message: str, op: list | None = None) -> bool:
        if op is None:
            self.made += 1
        if not ok:
            self.messages.append(message)
            if op is None:
                self.failed += 1
            else:
                op[2] = False
        return ok


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, layer, start, end, parent) recorded around layer calls.

    Spans nest per thread; a span opened on a thread with no open span takes
    ``root`` as its parent, so client threads hang under the workload span.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root = None

    @contextmanager
    def span(self, name: str, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        record = {"name": name, "layer": layer, "parent": parent, "start": time.perf_counter()}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        if self.root is None:
            self.root = record["id"]
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict:
        """Seconds of each span not covered by its children (overlapping children merged)."""
        children: dict = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        out = {}
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out[span["id"]] = span["end"] - span["start"] - covered
        return out

    def layer_self_seconds(self) -> dict:
        totals: dict = {}
        for span_id, seconds in self.self_times().items():
            layer = self.spans[span_id]["layer"]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return dict(sorted(totals.items()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    @contextmanager
    def span(self, name: str, layer: str):
        yield {}


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Process probes
# ----------------------------------------------------------------------


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest waited-for child process (RUSAGE_CHILDREN)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_python(code: str, repeats: int = 3) -> float:
    """Median wall seconds of a fresh ``python -c code`` process."""
    env = source_env()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return median(walls)


def parse_importtime(text: str) -> list:
    """``(depth, module, cumulative_us)`` rows of ``python -X importtime`` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    return rows


def cumulative_import_ms(rows: list, package: str) -> float:
    """Cumulative import milliseconds of ``package``: its top-most occurrences only.

    ``-X importtime`` prints children before parents, so walking the rows
    backwards visits every parent before its children.
    """
    total, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        matches = name == package or name.startswith(package + ".")
        if matches and not any(ancestor_matches for _, ancestor_matches in stack):
            total += cumulative
        stack.append((depth, matches))
    return total / 1e3


def import_profile() -> tuple:
    """The ``imports.*`` metrics (cold process walls plus ``-X importtime``
    attribution), and the wall seconds of a cold ``python -c "import repro"``."""
    interpreter = timed_python("pass")
    numpy_wall = timed_python("import numpy")
    repro_wall = timed_python("import repro")
    probe = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=source_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    rows = parse_importtime(probe.stderr)
    out = {
        "imports.interpreter_ms": interpreter * 1e3,
        "imports.numpy_ms": (numpy_wall - interpreter) * 1e3,
        "imports.repro_ms": (repro_wall - interpreter) * 1e3,
    }
    for package in ("networkx", "scipy", "repro.topology", "repro.core", "repro.dynamics"):
        out[f"imports.{package}_ms"] = cumulative_import_ms(rows, package)
    return out, repro_wall


"""Benchmark: a cold ``repro run E01 --quick`` process against a cold ``import numpy``.

Every ``python -m repro …`` call pays its imports before any work, so the
cold process is where a CLI user waits. The paper's core result, Algorithm 1
on the torus, needs only NumPy, and the gate holds the CLI to that: a fresh
``python -m repro run E01 --quick`` may take at most 2.5x a fresh
``python -c "import numpy"``, timed as interleaved pairs in the same script
so that host load slows both sides together. Both medians and their ratio
are written to ``BENCH_cold_start.json``.

"Cold" means a new interpreter, not a cold disk cache: one untimed warm-up
of each command runs first. The deterministic side of the same contract
(which modules such a process loads) is ``tests/test_imports.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cold_start.py

or through pytest (the assertion is the gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cold_start.py -s
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

from _timing import interleaved_pairs, write_bench_report

ROOT = Path(__file__).resolve().parent.parent
MAX_RATIO = 2.5
PAIRS = 11
BASELINE = ("python -c 'import numpy'", [sys.executable, "-c", "import numpy"])
CANDIDATE = ("python -m repro run E01 --quick", [sys.executable, "-m", "repro", "run", "E01", "--quick"])
OUTPUT_PATH = ROOT / "BENCH_cold_start.json"


def _launcher(argv: list[str]):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}

    def launch() -> None:
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)

    return launch


def measure(pairs: int = PAIRS) -> dict:
    baseline, candidate = _launcher(BASELINE[1]), _launcher(CANDIDATE[1])
    baseline(), candidate()
    timings = interleaved_pairs(baseline, candidate, pairs)
    baseline_s = statistics.median(pair[0] for pair in timings)
    candidate_s = statistics.median(pair[1] for pair in timings)
    return {"pairs": pairs, "baseline_s": baseline_s, "candidate_s": candidate_s, "ratio": candidate_s / baseline_s}


def write_report(stats: dict, path: Path | None = None) -> Path:
    records = [
        {"workload": "cold process", "backend": BASELINE[0], "median_seconds": stats["baseline_s"]},
        {
            "workload": "cold process",
            "backend": CANDIDATE[0],
            "median_seconds": stats["candidate_s"],
            "ratio_to_numpy": stats["ratio"],
        },
    ]
    gates = {"max_ratio_to_numpy": MAX_RATIO, "pairs": stats["pairs"]}
    return write_bench_report(OUTPUT_PATH if path is None else path, "bench_cold_start", gates, records)


def test_cold_cli_within_ratio_of_numpy_import():
    """Gate: a cold ``run E01 --quick`` takes at most 2.5x a cold ``import numpy``."""
    stats = measure()
    print(
        f"cold import numpy {stats['baseline_s']:.3f} s, cold run E01 --quick "
        f"{stats['candidate_s']:.3f} s: {stats['ratio']:.2f}x (medians of {stats['pairs']} pairs)"
    )
    print(f"wrote {write_report(stats)}")
    assert stats["ratio"] <= MAX_RATIO, (
        f"cold run E01 --quick is {stats['ratio']:.2f}x a cold import numpy, over the {MAX_RATIO}x gate"
    )


if __name__ == "__main__":
    test_cold_cli_within_ratio_of_numpy_import()

"""The benchmark's own tests: ``python perfbench/selftest.py`` from the checkout root.

Kept out of the package's test suite on purpose (the file name does not
match ``test_*.py``): the negative control and the smoke run time real work.
"""

from __future__ import annotations

import contextlib
import json
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import (  # noqa: E402
    Tracer,
    cumulative_import_ms,
    latency_summary,
    median,
    parse_importtime,
    repo_root,
    source_env,
)

DECLARED = json.loads((repo_root() / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class DeclaredMetrics(unittest.TestCase):
    def test_names_and_units(self):
        names = []
        for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            self.assertRegex(metric["name"], METRIC_NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        bounds = {metric["name"]: metric["bound"] for metric in DECLARED["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertNotIn("p90_ms", latency_summary([0.001 * i for i in range(1, 100)]))
        self.assertIn("p90_ms", latency_summary([0.001 * i for i in range(1, 101)]))
        summary = latency_summary([0.001 * i for i in range(1, 201)])
        self.assertAlmostEqual(summary["p90_ms"], 180.0)
        self.assertEqual(summary["samples"], 200)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("root", "bench"):
            time.sleep(0.01)
            with tracer.span("child", "store"):
                time.sleep(0.02)
        layers = tracer.layer_self_seconds()
        total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
        self.assertAlmostEqual(layers["bench"] + layers["store"], total, places=6)
        self.assertGreater(layers["store"], layers["bench"])
        self.assertEqual(tracer.spans[1]["parent"], tracer.spans[0]["id"])


class ImportAttribution(unittest.TestCase):
    SAMPLE = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy",
            "import time:       400 |        400 |     scipy.sparse",
            "import time:        50 |        750 |   repro.topology",
            "import time:        10 |        760 | repro",
        ]
    )

    def test_counts_top_most_occurrences_only(self):
        rows = parse_importtime(self.SAMPLE)
        self.assertEqual(cumulative_import_ms(rows, "scipy"), 0.7)
        self.assertEqual(cumulative_import_ms(rows, "repro"), 0.76)
        self.assertEqual(cumulative_import_ms(rows, "repro.topology"), 0.75)


def regressions(parent: dict, change: dict, metrics: list) -> list:
    """Names of metrics whose ``change`` median is worse than ``parent``'s by more than the bound."""
    flagged = []
    for metric in metrics:
        before, after = median(parent[metric["name"]]), median(change[metric["name"]])
        worse = (after - before) if metric["better"] == "lower" else (before - after)
        if worse / before > metric["bound"]:
            flagged.append(metric["name"])
    return flagged


def slowed(function, share: float = 0.3):
    """``function``, made ``share`` slower by sleeping after each call."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        time.sleep(share * (time.perf_counter() - start))
        return result

    return wrapper


class NegativeControl(unittest.TestCase):
    """A 30% slowdown, injected by wrappers in this file (not in the package), must be flagged."""

    SMALL_CALLS = (
        ("torus32", 32, 64, 100, 100, {}),
        ("torus32_k1", 32, 64, 100, 100, {"shard_workers": 1}),
        ("torus32_k2", 32, 64, 100, 100, {"shard_workers": 2}),
    )

    def test_slowdown_is_flagged(self):
        import kernel_batch
        import run
        from worker import measure

        slow_adaptive = type(
            "SlowAdaptive",
            (kernel_batch.AdaptiveDensityEstimator,),
            {"run": slowed(kernel_batch.AdaptiveDensityEstimator.run)},
        )
        slow = {"run_kernel": slowed(kernel_batch.run_kernel), "AdaptiveDensityEstimator": slow_adaptive}
        sides: dict = {"parent": {}, "change": {}}
        with mock.patch.object(kernel_batch, "CALLS", self.SMALL_CALLS):
            for seed in range(6):
                # Alternate which side runs first, so drift in machine speed hits both.
                for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                    wrap = mock.patch.multiple(kernel_batch, **slow) if side == "change" else contextlib.nullcontext()
                    with wrap:
                        bench = kernel_batch.Workload(seed)
                        bench.setup()
                        result = measure("kernel-batch", bench, 1.0)
                        bench.check()
                    self.assertEqual(bench.checks.messages, [])
                    metrics = run.end_to_end([1.0], {**result, "checks_made": 0, "checks_failed": 0})[0]
                    for name, value in metrics.items():
                        sides[side].setdefault(name, []).append(value)
        flagged = regressions(sides["parent"], sides["change"], DECLARED["end_to_end"])
        # 1.3x the time is 1/1.3 the throughput: ops_per_s drops only ~23%.
        self.assertLessEqual({"wall_s", "op_p50_ms"}, set(flagged))
        self.assertNotIn("peak_rss_mb", flagged)


class SmokeRun(unittest.TestCase):
    def test_one_short_run_prints_every_declared_metric(self):
        process = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "kernel-batch", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=repo_root(),
            env=source_env(),
            capture_output=True,
            text=True,
            timeout=170,
        )
        self.assertEqual(process.returncode, 0, process.stderr)
        lines = process.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {metric["name"] for metric in DECLARED["end_to_end"]})
        for name, entry in result["metrics"].items():
            self.assertRegex(name, METRIC_NAME)
            self.assertRegex(entry["unit"], UNIT)
            self.assertGreater(entry["value"], 0)
        for text in lines[1:-1]:
            self.assertRegex(text.split()[0], r"^[A-Za-z0-9_.\[\]-]+$")


if __name__ == "__main__":
    unittest.main()

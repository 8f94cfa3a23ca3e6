"""``cold-cli``: fresh ``python -m repro`` processes over a fixed command cycle.

A closed loop with one client; an operation is one process. The worker
never imports ``repro`` outside the traced run, so every import a command
pays shows in its own latency.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time

from common import (
    Checks,
    children_peak_rss_mb,
    import_profile,
    median,
    source_env,
    work_dir,
)

#: The group-by column of the set-up store and its values (one group each).
QUERY_SIDES = (12, 16, 20, 24)


def query_spec(seed: int) -> dict:
    """The small sweep behind ``store query``: E02 quick cells over four sides."""
    return {
        "schema": 1,
        "name": "perfbench-cli",
        "seed": seed,
        "axes": [{"kind": "grid", "name": "side", "values": list(QUERY_SIDES)}],
        "targets": [
            {
                "kind": "experiment",
                "name": "E02",
                "base": {"quick": True, "trials": 1},
                "axes": [{"kind": "grid", "name": "rounds", "values": [40, 80]}],
            }
        ],
    }


class Workload:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"cold-cli:{seed}")
        self.seed = seed
        self.env = source_env()
        self.dir = work_dir("cold-cli")
        self.store = self.dir / "store"
        self.checks = Checks()
        self.listed_ids: list | None = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        spec_path = self.dir / "spec.json"
        spec_path.write_text(json.dumps(query_spec(self.seed)), encoding="utf-8")
        code, out, err = self._repro("sweep", "run", "--spec", str(spec_path), "--store", str(self.store), "--json")
        if code != 0 or json.loads(out)["computed"] != 2 * len(QUERY_SIDES):
            raise RuntimeError(f"set-up sweep failed (exit {code}): {err[-500:]}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return children_peak_rss_mb()

    def commands(self, seed: int) -> list:
        """The fixed cycle, as (label, argv) pairs."""
        quick = ["--quick", "--json", "--seed", str(seed)]
        return [
            ("list", ["list", "--json"]),
            ("run_e01", ["run", "E01", *quick]),
            ("run_all", ["run", "all", *quick]),
            ("run_all_w2", ["run", "all", *quick, "--workers", "2"]),
            ("store_query", ["store", "query", "--store", str(self.store), "--aggregate",
                             "mean:empirical_epsilon", "--by", "side", "--json"]),
        ]

    def _repro(self, *argv: str):
        process = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return process.returncode, process.stdout, process.stderr

    # ------------------------------------------------------------------
    def cycle(self, tracer, ops: list) -> dict:
        """One pass over the command cycle; returns each command's seconds."""
        seed = self.rng.randrange(10**6)
        outputs, phases = {}, {}
        for label, argv in self.commands(seed):
            with tracer.span(f"cli.{label}", "cli"):
                t0 = time.perf_counter()
                code, out, err = self._repro(*argv)
                elapsed = time.perf_counter() - t0
            ops.append([label, elapsed, True])
            phases[label] = elapsed
            problem = f"{label}: exit {code}: {err[-300:]}" if code else self._check(label, out)
            self.checks.expect(problem is None, problem, ops[-1])
            outputs[label] = out
        self.checks.expect(
            outputs["run_all"] == outputs["run_all_w2"],
            "run all --json differs between --workers 1 and --workers 2",
            ops[-2],
        )
        return phases

    def _check(self, label: str, out: str):
        try:
            payload = json.loads(out)
        except ValueError as error:
            return f"{label}: stdout is not JSON ({error})"
        if label == "list":
            ids = [entry["id"] for entry in payload]
            if not ids or ids != sorted(set(ids)):
                return f"list: ids not sorted and unique: {ids}"
            self.listed_ids = ids
        elif label == "run_e01":
            if payload.get("experiment") != "E01" or not payload.get("records"):
                return "run E01: missing experiment id or records"
        elif label.startswith("run_all"):
            ids = [entry.get("experiment") for entry in payload]
            if ids != self.listed_ids or any("error" in entry for entry in payload):
                return f"{label}: ids {ids} do not match the listed ids"
        elif label == "store_query":
            sides = sorted(row["side"] for row in payload)
            if sides != list(QUERY_SIDES) or any(row["n"] <= 0 for row in payload):
                return f"store query: groups {sides} != {list(QUERY_SIDES)}"
        return None

    # ------------------------------------------------------------------
    def recording(self):
        return contextlib.nullcontext()

    def check(self) -> None:
        """Every output is checked as it arrives (see :meth:`_check`)."""

    def traced_layers(self, tracer, ops: list) -> dict:
        """Per-layer metrics: import attribution and warm in-process command times."""
        with tracer.span("imports.probe", "imports"):
            imports, cold_repro_s = import_profile()
        warm = self._warm_times(tracer)
        cold = {label: median([op[1] for op in ops if op[0] == label]) for label in warm}
        unattributed = [cold[label] - cold_repro_s - warm[label] for label in warm]
        return {
            **imports,
            "experiments.run_all_quick_warm_s": warm["run_all"],
            "cli.unattributed_ms": median(unattributed) * 1e3,
        }

    def _warm_times(self, tracer) -> dict:
        """Each command once more, in-process, after imports and a warm-up call."""
        from repro.cli import main

        seed = self.rng.randrange(10**6)

        def quiet(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["--quiet", *argv])
            if code != 0:
                raise RuntimeError(f"in-process {argv} exited {code}")

        quiet(["run", "E01", "--quick", "--json"])
        times = {}
        for label, argv in self.commands(seed):
            with tracer.span(f"experiments.warm.{label}", "experiments"):
                start = time.perf_counter()
                quiet(argv)
                times[label] = time.perf_counter() - start
        return times

"""Tests for the telemetry spine (repro.obs.telemetry) and its probes.

The headline contract is **bit-identity**: telemetry is observation-only,
so simulation results are identical with telemetry off, on, and at every
verbosity level — pinned here against the golden kernel fixtures (the
pre-refactor serial stream) on both backends, and by recorder-on vs
recorder-off equality for batched replicates.

The rest pins the recorder itself (counters / gauges / timers / spans /
JSONL output / provenance) and each subsystem's probes: the kernel and
fast path, the scheduler (per-cell latency, worker utilization — identical
counters for any worker count), the run cache (hits / misses / corrupt
recoveries / evictions), the sweep runner (computed vs cached cells,
checkpoint latency), and the documented span tree.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import __version__, cli
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.engine import RunCache, build_plan, execute_plan
from repro.obs import telemetry
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_LEVELS,
    Telemetry,
    TelemetryRecorder,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.store import ResultStore
from repro.swarm.noise import NoisyCollisionModel
from repro.sweeps import GridAxis, SweepSpec, TargetSpec, run_sweep_spec
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    UniformRandomWalk,
)

GOLDEN_PATH = Path(__file__).parent / "baselines" / "kernel_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MOVEMENTS = {
    "default": None,
    "uniform_random_walk": UniformRandomWalk(),
    "lazy_random_walk": LazyRandomWalk(stay_probability=0.4),
    "biased_torus_walk": BiasedTorusWalk(bias=0.3),
    "collision_avoiding_walk": CollisionAvoidingWalk(avoidance_steps=2),
}
NOISE_MODELS = {
    "noiseless": None,
    "noisy": NoisyCollisionModel(miss_probability=0.3, spurious_rate=0.1),
}


def _config(case) -> SimulationConfig:
    return SimulationConfig(
        num_agents=GOLDEN["num_agents"],
        rounds=GOLDEN["rounds"],
        marked_fraction=case["marked_fraction"],
        collision_model=NOISE_MODELS[case["noise"]],
        movement=MOVEMENTS[case["movement"]],
    )


def _check(outcome, case) -> None:
    assert np.array_equal(outcome.collision_totals, np.array(case["collision_totals"]))
    assert np.array_equal(
        outcome.marked_collision_totals, np.array(case["marked_collision_totals"])
    )
    assert np.array_equal(outcome.marked, np.array(case["marked"], dtype=bool))
    assert np.array_equal(outcome.initial_positions, np.array(case["initial_positions"]))
    assert np.array_equal(outcome.final_positions, np.array(case["final_positions"]))


def _case_id(case) -> str:
    return (
        f"{case['movement']}-{case['noise']}-marked{case['marked_fraction']}-seed{case['seed']}"
    )


def _telemetry_for(level: str) -> Telemetry | None:
    """``None`` (the process default no-op) for "off", a recorder otherwise."""
    return None if level == "off" else TelemetryRecorder(level=level)


@pytest.fixture(autouse=True)
def _restore_process_telemetry():
    """Never leak an installed recorder into other tests."""
    previous = get_telemetry()
    yield
    set_telemetry(previous)


# ---------------------------------------------------------------------------
# Bit-identity: the observation-only contract
# ---------------------------------------------------------------------------
class TestBitIdentity:
    """Results are bit-identical with telemetry off / summary / events."""

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("level", TELEMETRY_LEVELS)
    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=_case_id)
    def test_serial_golden_stream_at_every_level(self, case, level, backend):
        with use_telemetry(_telemetry_for(level)):
            outcome = run_kernel(
                Torus2D(GOLDEN["side"]), _config(case), None, case["seed"], backend=backend
            )
        _check(outcome, case)

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("level", ["summary", "events"])
    @pytest.mark.parametrize("case", GOLDEN["cases"][:4], ids=_case_id)
    def test_batched_replicates_match_telemetry_off(self, case, level, backend):
        topology = Torus2D(GOLDEN["side"])
        baseline = run_kernel(topology, _config(case), 3, case["seed"], backend=backend)
        with use_telemetry(TelemetryRecorder(level=level)):
            observed = run_kernel(topology, _config(case), 3, case["seed"], backend=backend)
        for field in (
            "collision_totals",
            "marked_collision_totals",
            "marked",
            "initial_positions",
            "final_positions",
        ):
            assert np.array_equal(getattr(baseline, field), getattr(observed, field)), field


# ---------------------------------------------------------------------------
# The recorder itself
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_counters_accumulate_with_sorted_label_keys(self):
        recorder = TelemetryRecorder()
        recorder.counter("hits", b=2, a=1)
        recorder.counter("hits", 3, a=1, b=2)  # label order must not matter
        recorder.counter("hits")
        assert recorder.summary()["counters"] == {"hits": 1, "hits[a=1,b=2]": 4}

    def test_gauge_keeps_latest_value(self):
        recorder = TelemetryRecorder()
        recorder.gauge("utilization", 0.25)
        recorder.gauge("utilization", 0.75)
        assert recorder.summary()["gauges"] == {"utilization": 0.75}

    def test_timer_aggregates_count_total_min_max_mean(self):
        recorder = TelemetryRecorder()
        for seconds in (0.1, 0.3, 0.2):
            recorder.timer("phase", seconds)
        stats = recorder.summary()["timers"]["phase"]
        assert stats["count"] == 3
        assert stats["total_seconds"] == pytest.approx(0.6)
        assert stats["min_seconds"] == pytest.approx(0.1)
        assert stats["max_seconds"] == pytest.approx(0.3)
        assert stats["mean_seconds"] == pytest.approx(0.2)

    def test_level_validated(self):
        with pytest.raises(ValueError, match="summary"):
            TelemetryRecorder(level="verbose")

    def test_summary_level_suppresses_events_but_keeps_aggregates(self):
        recorder = TelemetryRecorder(level="summary")
        recorder.counter("n")
        recorder.event("ignored", detail=1)
        assert recorder.events() == []
        assert recorder.summary()["events_recorded"] == 0
        assert recorder.summary()["counters"] == {"n": 1}

    def test_spans_nest_and_emit_events_and_timers(self):
        recorder = TelemetryRecorder(level="events")
        with recorder.span("run", command="test"):
            with recorder.span("plan", tasks=2):
                recorder.event("inner")
        events = recorder.events()
        inner = next(e for e in events if e["event"] == "inner")
        assert inner["span"] == "run/plan"
        span_events = [e["event"] for e in events]
        assert "span.plan" in span_events and "span.run" in span_events
        timers = recorder.summary()["timers"]
        assert timers["span.run.seconds"]["count"] == 1
        assert timers["span.plan.seconds"]["count"] == 1

    def test_write_publishes_summary_and_appends_events(self, tmp_path):
        recorder = TelemetryRecorder(directory=tmp_path / "tel", provenance={"seed_root": 7})
        recorder.counter("n")
        recorder.event("first")
        summary_path = recorder.write()
        recorder.event("second")
        recorder.write()

        lines = (tmp_path / "tel" / "events.jsonl").read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["first", "second"]
        summary = json.loads(summary_path.read_text())
        assert summary["telemetry_level"] == "events"
        assert summary["counters"] == {"n": 1}
        assert summary["events_recorded"] == 2
        assert summary["provenance"]["package_version"] == __version__
        assert summary["provenance"]["seed_root"] == 7
        for field in ("git_sha", "hostname", "numpy", "python"):
            assert field in summary["provenance"]

    def test_in_memory_recorder_write_is_a_noop(self):
        assert TelemetryRecorder().write() is None

    def test_default_is_the_noop_and_it_costs_nothing_observable(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled and NULL_TELEMETRY.level == "off"
        NULL_TELEMETRY.counter("x")
        NULL_TELEMETRY.gauge("x", 1.0)
        NULL_TELEMETRY.timer("x", 1.0)
        NULL_TELEMETRY.event("x")
        with NULL_TELEMETRY.span("x"):
            pass
        assert NULL_TELEMETRY.summary() == {}
        assert NULL_TELEMETRY.write() is None

    def test_set_and_use_restore_previous(self):
        recorder = TelemetryRecorder()
        previous = set_telemetry(recorder)
        assert previous is NULL_TELEMETRY
        assert get_telemetry() is recorder
        with use_telemetry(None):
            assert get_telemetry() is NULL_TELEMETRY
        assert get_telemetry() is recorder
        set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY


# ---------------------------------------------------------------------------
# Kernel / fast-path probes
# ---------------------------------------------------------------------------
class TestKernelProbes:
    def test_fused_serial_run_reports_path_and_phases(self):
        config = SimulationConfig(num_agents=14, rounds=12)
        with use_telemetry(TelemetryRecorder(level="events")) as tel:
            run_kernel(Torus2D(8), config, None, 7, backend="fused")
        summary = tel.summary()
        assert summary["counters"]["kernel.runs[backend=fused,mode=serial]"] == 1
        # 14 agents on 64 nodes is the linear-counting regime.
        assert summary["counters"]["fastpath.counting_path[path=bincount]"] == 1
        assert summary["counters"]["fastpath.chunk_refills"] >= 1
        for phase in ("draw", "step", "count", "observe"):
            assert f"fastpath.{phase}_seconds" in summary["timers"], phase
        events = [e["event"] for e in tel.events()]
        assert "fastpath.armed" in events and "fastpath.chunk_refill" in events

    def test_reference_run_reports_unique_counting_path(self):
        config = SimulationConfig(num_agents=6, rounds=4)
        with use_telemetry(TelemetryRecorder(level="summary")) as tel:
            run_kernel(Torus2D(6), config, None, 0, backend="reference")
        counters = tel.summary()["counters"]
        assert counters["kernel.runs[backend=reference,mode=serial]"] == 1
        assert counters["kernel.counting_path[backend=reference,path=unique]"] == 1


# ---------------------------------------------------------------------------
# Scheduler probes
# ---------------------------------------------------------------------------
def _plan_task(label, scale, rng):
    """Module-level task so process workers can unpickle it."""
    return {"label": label, "value": float(scale * rng.normal())}


PLAN_SETTINGS = [{"label": f"s{i}", "scale": i + 1} for i in range(6)]


class TestSchedulerProbes:
    def _run(self, workers: int) -> dict:
        plan = build_plan(_plan_task, PLAN_SETTINGS, seed=3)
        with use_telemetry(TelemetryRecorder(level="events")) as tel:
            results = execute_plan(plan, workers=workers)
        summary = tel.summary()
        return {"results": results, "summary": summary}

    def test_serial_plan_reports_cells_latency_and_utilization(self):
        run = self._run(workers=1)
        summary = run["summary"]
        assert summary["counters"]["scheduler.cells"] == len(PLAN_SETTINGS)
        assert summary["timers"]["scheduler.cell_seconds"]["count"] == len(PLAN_SETTINGS)
        assert 0.0 <= summary["gauges"]["scheduler.worker_utilization"] <= 1.0
        assert summary["timers"]["span.plan.seconds"]["count"] == 1

    def test_cell_counters_identical_across_worker_counts(self):
        serial = self._run(workers=1)
        pooled = self._run(workers=4)
        assert serial["results"] == pooled["results"]
        assert (
            serial["summary"]["counters"]["scheduler.cells"]
            == pooled["summary"]["counters"]["scheduler.cells"]
        )
        # Worker-measured durations fold into the parent recorder, so the
        # per-cell timer covers every cell regardless of layout.
        assert (
            pooled["summary"]["timers"]["scheduler.cell_seconds"]["count"]
            == len(PLAN_SETTINGS)
        )
        assert 0.0 <= pooled["summary"]["gauges"]["scheduler.worker_utilization"] <= 1.0


# ---------------------------------------------------------------------------
# Cache probes
# ---------------------------------------------------------------------------
class TestCacheProbes:
    def test_miss_store_hit_counters(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = cache.key(setting=1)
        with use_telemetry(TelemetryRecorder()) as tel:
            assert cache.load(key) is None
            cache.store(key, {"value": 1})
            assert cache.load(key) == {"value": 1}
        counters = tel.summary()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 1
        assert counters["cache.hits"] == 1
        assert tel.summary()["timers"]["cache.store_seconds"]["count"] == 1

    def test_corrupt_entry_recovery_counter(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = cache.key(setting=2)
        cache.store(key, {"value": 2})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        with use_telemetry(TelemetryRecorder()) as tel:
            assert cache.load(key) is None
        counters = tel.summary()["counters"]
        assert counters["cache.corrupt_recovered"] == 1
        assert counters["cache.misses"] == 1
        assert not cache.path_for(key).exists()  # recovered by eviction

    def test_clear_reports_evictions(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        for setting in range(3):
            cache.store(cache.key(setting=setting), {"value": setting})
        with use_telemetry(TelemetryRecorder()) as tel:
            assert cache.clear() == 3
        assert tel.summary()["counters"]["cache.evicted"] == 3


# ---------------------------------------------------------------------------
# Sweep probes (and cache-counter worker invariance, parent-side by design)
# ---------------------------------------------------------------------------
def _sweep_spec(name: str = "tel-sweep") -> SweepSpec:
    return SweepSpec(
        name=name,
        seed=3,
        targets=(
            TargetSpec(
                kind="experiment",
                name="E02",
                base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                axes=(GridAxis("densities", ((0.1,), (0.2,))),),
            ),
        ),
    )


class TestSweepProbes:
    def _run(self, tmp_path, tag: str, workers: int) -> dict:
        cache = RunCache(tmp_path / f"cache-{tag}")
        store = ResultStore(tmp_path / f"store-{tag}")
        with use_telemetry(TelemetryRecorder(level="events")) as tel:
            run_sweep_spec(_sweep_spec(), workers=workers, cache=cache, store=store)
            run_sweep_spec(_sweep_spec(), workers=workers, cache=cache, store=store)
        return tel.summary()

    def test_computed_then_cached_cells_and_checkpoint_latency(self, tmp_path):
        summary = self._run(tmp_path, "serial", workers=1)
        counters = summary["counters"]
        assert counters["sweep.cells_computed"] == 2  # first pass
        assert counters["sweep.cells_cached"] == 2  # second pass
        assert summary["timers"]["sweep.checkpoint_seconds"]["count"] == 2
        assert summary["timers"]["span.sweep.seconds"]["count"] == 2

    def test_cache_and_sweep_counters_identical_across_worker_counts(self, tmp_path):
        serial = self._run(tmp_path, "w1", workers=1)
        pooled = self._run(tmp_path, "w4", workers=4)

        def observability_counters(summary):
            return {
                key: value
                for key, value in summary["counters"].items()
                if key.startswith(("cache.", "sweep."))
            }

        assert observability_counters(serial) == observability_counters(pooled)
        assert observability_counters(serial)["cache.hits"] >= 2


# ---------------------------------------------------------------------------
# The documented span tree is the one the code opens
# ---------------------------------------------------------------------------
def _span_tree(text: str, heading: str) -> set[str]:
    """Span names of the tree drawn after ``heading``, one ``name  # comment`` per line."""
    names: list[str] = []
    for line in text[text.index(heading) :].splitlines()[1:]:
        match = re.match(r"\s*(?:└─\s*)?(\w+)\s+#", line)
        if match:
            names.append(match.group(1))
        elif names:
            break
    return set(names)


class TestDocumentedSpanTree:
    def test_traced_runs_open_exactly_the_documented_spans(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_sweep_spec().to_dict()))
        sweep_argv = ["sweep", "run", "--spec", str(spec), "--store", str(tmp_path / "store")]
        assert cli.main([*sweep_argv, "--telemetry", str(tmp_path / "sweep-tel")]) == 0
        sharded_argv = ["run", "E17", "--quick", "--shard-workers", "2"]
        assert cli.main([*sharded_argv, "--telemetry", str(tmp_path / "shard-tel")]) == 0
        capsys.readouterr()
        opened = set()
        for directory in ("sweep-tel", "shard-tel"):
            for line in (tmp_path / directory / "events.jsonl").read_text().splitlines():
                event = json.loads(line)["event"]
                if event.startswith("span."):
                    opened.add(event[len("span.") :])
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        assert _span_tree(readme, "span hierarchy nests") == opened
        assert _span_tree(telemetry.__doc__, "Span hierarchy") == opened

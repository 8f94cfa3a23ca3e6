"""Tests for the sweep subsystem (repro.sweeps): specs, compile, run, resume."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.aggregate import aggregate_stream
from repro.analysis.sweep import cartesian_grid
from repro.engine import RunCache
from repro.experiments import EXPERIMENTS
from repro.store import ResultStore
from repro.sweeps import (
    GridAxis,
    RandomAxis,
    SweepSpec,
    TargetSpec,
    ZipAxis,
    axis_from_dict,
    compile_cells,
    expand_axes,
    load_spec,
    run_sweep_spec,
    sweep_status,
)
from repro.sweeps.runner import cell_segment
from repro.utils.rng import spawn_seed_sequences


def small_spec(name="unit", seed=3) -> SweepSpec:
    """Four fast cells: two E02 grid points and two 'stable' scenario points."""
    return SweepSpec(
        name=name,
        seed=seed,
        targets=(
            TargetSpec(
                kind="experiment",
                name="E02",
                base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                axes=(GridAxis("densities", ((0.1,), (0.2,))),),
            ),
            TargetSpec(
                kind="scenario",
                name="stable",
                base={"side": 8, "num_agents": 4, "replicates": 2},
                axes=(GridAxis("rounds", (4, 8)),),
            ),
        ),
    )


def store_files(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


class TestAxes:
    def test_grid_axis_points(self):
        axis = GridAxis("a", (1, 2, 3))
        assert axis.points(np.random.default_rng(0)) == [{"a": 1}, {"a": 2}, {"a": 3}]

    def test_grid_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis("", (1,))
        with pytest.raises(ValueError):
            GridAxis("a", ())

    def test_zip_axis_points_and_validation(self):
        axis = ZipAxis(("m", "t"), (("x", 1), ("y", 2)))
        assert axis.points(np.random.default_rng(0)) == [{"m": "x", "t": 1}, {"m": "y", "t": 2}]
        with pytest.raises(ValueError, match="values for"):
            ZipAxis(("m", "t"), (("x",),))
        with pytest.raises(ValueError, match="repeats"):
            ZipAxis(("m", "m"), (("x", "y"),))

    def test_random_axis_deterministic_per_seed(self):
        axis = RandomAxis("p", samples=5, distribution="uniform", low=0.0, high=1.0)
        a = axis.points(np.random.default_rng(42))
        b = axis.points(np.random.default_rng(42))
        c = axis.points(np.random.default_rng(43))
        assert a == b
        assert a != c
        assert all(0.0 <= point["p"] < 1.0 for point in a)

    def test_random_axis_distributions(self):
        log = RandomAxis("p", samples=20, distribution="loguniform", low=0.01, high=10.0)
        values = [point["p"] for point in log.points(np.random.default_rng(0))]
        assert all(0.01 <= value <= 10.0 for value in values)
        ints = RandomAxis("n", samples=10, distribution="randint", low=2, high=5)
        assert all(point["n"] in (2, 3, 4) for point in ints.points(np.random.default_rng(0)))
        pick = RandomAxis("c", samples=10, distribution="choice", choices=("a", "b"))
        assert all(point["c"] in ("a", "b") for point in pick.points(np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "names,rows,match",
        [
            ((), ((1,),), "at least one parameter name"),
            (("m", "t"), (), "at least one row"),
        ],
        ids=["no-names", "no-rows"],
    )
    def test_zip_axis_needs_names_and_rows(self, names, rows, match):
        with pytest.raises(ValueError, match=match):
            ZipAxis(names, rows)

    def test_random_axis_needs_a_name(self):
        with pytest.raises(ValueError, match="non-empty parameter name"):
            RandomAxis("", samples=3, low=0.0, high=1.0)

    def test_random_axis_validation(self):
        with pytest.raises(ValueError, match="low < high"):
            RandomAxis("p", samples=3, low=1.0, high=1.0)
        with pytest.raises(ValueError, match="low > 0"):
            RandomAxis("p", samples=3, distribution="loguniform", low=0.0, high=1.0)
        with pytest.raises(ValueError, match="needs choices"):
            RandomAxis("p", samples=3, distribution="choice")
        with pytest.raises(ValueError, match="unknown distribution"):
            RandomAxis("p", samples=3, distribution="gaussian", low=0, high=1)

    def test_expand_axes_product_order(self):
        points = expand_axes((GridAxis("a", (1, 2)), GridAxis("b", ("x", "y"))))
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_expand_axes_matches_cartesian_grid(self):
        axes = (GridAxis("a", (1, 2)), GridAxis("b", (3, 4)))
        assert expand_axes(axes) == cartesian_grid(a=[1, 2], b=[3, 4])

    def test_expand_axes_empty_is_single_point(self):
        assert expand_axes(()) == [{}]

    def test_expand_axes_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="more than one axis"):
            expand_axes((GridAxis("a", (1,)), ZipAxis(("a", "b"), ((1, 2),))))

    def test_random_axis_expansion_is_pure_function_of_seed(self):
        axes = (RandomAxis("p", samples=3, low=0.0, high=1.0),)
        assert expand_axes(axes, seed=5) == expand_axes(axes, seed=5)
        assert expand_axes(axes, seed=5) != expand_axes(axes, seed=6)


class TestAxisStreamIndependence:
    """Random-search draws must not share streams with cell simulations or
    (for target-level axes) with each other across targets."""

    def _random_spec(self) -> SweepSpec:
        axis = lambda: (RandomAxis("delta", samples=3, low=0.05, high=0.5),)  # noqa: E731
        target = lambda: TargetSpec(  # noqa: E731
            kind="experiment",
            name="E02",
            base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
            axes=axis(),
        )
        return SweepSpec(name="rand-independence", seed=9, targets=(target(), target()))

    def test_axis_draws_do_not_reuse_cell_zero_stream(self):
        spec = self._random_spec()
        cells = compile_cells(spec)
        sampled = [cell.params["delta"] for cell in cells[:3]]
        # The bug this guards against: axis i seeded by child i of
        # SeedSequence(spec.seed) — the exact stream cell 0 simulates with.
        cell_zero_rng = np.random.default_rng(spawn_seed_sequences(spec.seed, len(cells))[0])
        cell_zero_draws = list(cell_zero_rng.uniform(0.05, 0.5, size=3))
        assert sampled != cell_zero_draws

    def test_target_level_random_axes_draw_independently_per_target(self):
        spec = self._random_spec()
        cells = compile_cells(spec)
        first = [cell.params["delta"] for cell in cells[:3]]
        second = [cell.params["delta"] for cell in cells[3:]]
        assert first != second

    def test_spec_level_random_axis_shared_across_targets(self):
        spec = SweepSpec(
            name="rand-shared",
            seed=9,
            axes=(RandomAxis("rounds", samples=2, distribution="randint", low=5, high=40),),
            targets=(
                TargetSpec(kind="experiment", name="E02", base={"quick": True, "trials": 1}),
                TargetSpec(kind="scenario", name="stable", base={"replicates": 2}),
            ),
        )
        cells = compile_cells(spec)
        assert [c.params["rounds"] for c in cells[:2]] == [c.params["rounds"] for c in cells[2:]]


class TestSpecSerialization:
    def test_dict_round_trip_preserves_cells(self):
        spec = small_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert [cell.key for cell in compile_cells(clone)] == [
            cell.key for cell in compile_cells(spec)
        ]

    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec(path) == spec

    def test_schema_mismatch_rejected(self):
        payload = small_spec().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            SweepSpec.from_dict(payload)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(path)

    def test_unknown_axis_kind_rejected(self):
        payload = small_spec().to_dict()
        payload["axes"] = [{"kind": "spiral", "name": "a", "values": [1]}]
        with pytest.raises(ValueError, match="unknown axis kind"):
            SweepSpec.from_dict(payload)

    def test_sweep_name_must_be_filesystem_safe(self):
        with pytest.raises(ValueError, match="A-Za-z0-9"):
            SweepSpec(name="has spaces", targets=(TargetSpec(kind="experiment", name="E02"),))

    @pytest.mark.parametrize(
        "axis",
        [
            GridAxis("densities", ((0.1,), (0.2,))),
            ZipAxis(("side", "rounds"), ((8, 10), (12, 20))),
            RandomAxis("delta", samples=4, distribution="uniform", low=0.05, high=0.5),
            RandomAxis("delta", samples=4, distribution="loguniform", low=0.01, high=1.0),
            RandomAxis("rounds", samples=4, distribution="randint", low=5, high=40),
            RandomAxis("model", samples=4, distribution="choice", choices=("lazy", "uniform")),
        ],
        ids=["grid", "zip", "uniform", "loguniform", "randint", "choice"],
    )
    def test_every_axis_kind_round_trips_through_json(self, axis):
        clone = axis_from_dict(json.loads(json.dumps(axis.to_dict())))
        assert clone == axis
        assert clone.points(np.random.default_rng(7)) == axis.points(np.random.default_rng(7))

    def test_target_needs_a_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            TargetSpec(kind="experiment", name="")

    def test_sweep_needs_a_target(self):
        with pytest.raises(ValueError, match="at least one target"):
            SweepSpec(name="empty", targets=())

    def test_random_axis_round_trip(self):
        spec = SweepSpec(
            name="rand",
            targets=(
                TargetSpec(
                    kind="experiment",
                    name="E02",
                    base={"quick": True},
                    axes=(RandomAxis("rounds", samples=2, distribution="randint", low=10, high=20),),
                ),
            ),
        )
        clone = SweepSpec.from_dict(spec.to_dict())
        assert [cell.params for cell in compile_cells(clone)] == [
            cell.params for cell in compile_cells(spec)
        ]


class TestCompile:
    def test_cell_order_targets_then_axes(self):
        cells = compile_cells(small_spec())
        assert [cell.target_name for cell in cells] == ["E02", "E02", "stable", "stable"]
        assert [cell.params.get("rounds") for cell in cells] == [10, 10, 4, 8]

    def test_cell_keys_unique_and_content_bound(self):
        cells_a = compile_cells(small_spec(seed=3))
        cells_b = compile_cells(small_spec(seed=4))
        keys_a = [cell.key for cell in cells_a]
        assert len(set(keys_a)) == len(keys_a)
        assert all(a.key != b.key for a, b in zip(cells_a, cells_b))

    def test_unknown_experiment_rejected(self):
        spec = SweepSpec(name="bad", targets=(TargetSpec(kind="experiment", name="E99"),))
        with pytest.raises(ValueError, match="unknown experiment"):
            compile_cells(spec)

    def test_unknown_experiment_param_rejected(self):
        spec = SweepSpec(
            name="bad",
            targets=(TargetSpec(kind="experiment", name="E02", base={"bogus_param": 1}),),
        )
        with pytest.raises(ValueError, match="does not take parameter"):
            compile_cells(spec)

    def test_unknown_scenario_rejected(self):
        spec = SweepSpec(name="bad", targets=(TargetSpec(kind="scenario", name="volcano"),))
        with pytest.raises(KeyError, match="unknown scenario"):
            compile_cells(spec)

    def test_unknown_scenario_param_rejected(self):
        spec = SweepSpec(
            name="bad",
            targets=(TargetSpec(kind="scenario", name="stable", base={"delta": 0.1}),),
        )
        with pytest.raises(ValueError, match="does not take parameter"):
            compile_cells(spec)

    def test_unknown_target_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown target kind"):
            TargetSpec(kind="benchmark", name="E02")


class TestRunSweep:
    def test_complete_run_populates_cache_and_store(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep_spec(spec, cache=cache, store=store)
        assert outcome.complete
        assert outcome.computed == 4 and outcome.hits == 0
        assert len(store.segments()) == 4
        assert store.count() == len(outcome.records())
        assert store.provenance()["seed_root"] == spec.seed

    def test_interrupt_and_resume_recomputes_nothing(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "store")
        first = run_sweep_spec(spec, cache=cache, store=store, max_cells=2)
        assert not first.complete
        assert first.computed == 2 and len(first.pending) == 2
        second = run_sweep_spec(spec, cache=cache, store=store)
        assert second.complete
        assert second.hits == 2 and second.computed == 2
        third = run_sweep_spec(spec, cache=cache, store=store)
        assert third.complete
        assert third.hits == 4 and third.computed == 0

    def test_resumed_store_bit_identical_to_uninterrupted(self, tmp_path):
        spec = small_spec()
        run_sweep_spec(
            spec, cache=RunCache(tmp_path / "ca"), store=ResultStore(tmp_path / "sa"), max_cells=1
        )
        run_sweep_spec(spec, cache=RunCache(tmp_path / "ca"), store=ResultStore(tmp_path / "sa"))
        run_sweep_spec(spec, cache=RunCache(tmp_path / "cb"), store=ResultStore(tmp_path / "sb"))
        assert store_files(tmp_path / "sa") == store_files(tmp_path / "sb")

    def test_corrupt_cache_entry_recomputed_without_disturbing_rest(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        run_sweep_spec(spec, cache=cache)
        victim = compile_cells(spec)[1]
        cache.path_for(victim.key).write_text("{torn write")
        outcome = run_sweep_spec(spec, cache=cache)
        assert outcome.complete
        assert outcome.computed == 1 and outcome.hits == 3
        assert outcome.executed[1] is True

    def test_fresh_store_backfilled_from_warm_cache(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        run_sweep_spec(spec, cache=cache, store=ResultStore(tmp_path / "sa"))
        outcome = run_sweep_spec(spec, cache=cache, store=ResultStore(tmp_path / "sb"))
        assert outcome.computed == 0 and outcome.hits == 4
        assert store_files(tmp_path / "sa") == store_files(tmp_path / "sb")

    def test_store_rows_identical_for_worker_counts(self, tmp_path):
        spec = small_spec()
        run_sweep_spec(spec, workers=1, store=ResultStore(tmp_path / "s1"))
        run_sweep_spec(spec, workers=2, store=ResultStore(tmp_path / "s2"))
        assert store_files(tmp_path / "s1") == store_files(tmp_path / "s2")

    def test_max_cells_zero_computes_nothing(self, tmp_path):
        spec = small_spec()
        outcome = run_sweep_spec(spec, cache=RunCache(tmp_path / "cache"), max_cells=0)
        assert outcome.computed == 0 and len(outcome.pending) == 4

    def test_progress_callback_sees_every_cell(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        events: list[tuple[int, str]] = []
        run_sweep_spec(spec, cache=cache, progress=lambda cell, status: events.append((cell.index, status)))
        assert events == [(0, "computed"), (1, "computed"), (2, "computed"), (3, "computed")]
        events.clear()
        run_sweep_spec(spec, cache=cache, progress=lambda cell, status: events.append((cell.index, status)))
        assert events == [(0, "cached"), (1, "cached"), (2, "cached"), (3, "cached")]

    def test_status_reflects_cache_and_store(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "store")
        before = sweep_status(spec, cache=cache, store=store)
        assert before["cells"] == 4 and before["cached"] == 0 and before["pending"] == 4
        run_sweep_spec(spec, cache=cache, store=store, max_cells=3)
        after = sweep_status(spec, cache=cache, store=store)
        assert after["cached"] == 3 and after["pending"] == 1
        assert [entry["stored"] for entry in after["per_cell"]] == [True, True, True, False]


class TestAcceptanceSweep:
    """The ISSUE acceptance criterion, at test scale: a 12-cell sweep mixing a
    static experiment with a dynamics scenario is interruptible, resumable
    with zero recomputation, bit-identical across worker counts, and its
    store reproduces the direct experiment path's aggregates exactly."""

    @pytest.fixture(scope="class")
    def spec(self) -> SweepSpec:
        return SweepSpec(
            name="acceptance",
            seed=11,
            axes=(GridAxis("side", (8, 12, 16)),),
            targets=(
                TargetSpec(
                    kind="experiment",
                    name="E02",
                    base={"quick": True, "trials": 1, "densities": (0.1, 0.2)},
                    axes=(GridAxis("rounds", (10, 20)),),
                ),
                TargetSpec(
                    kind="scenario",
                    name="stable",
                    base={"num_agents": 4, "replicates": 2},
                    axes=(GridAxis("rounds", (4, 8)),),
                ),
            ),
        )

    def test_twelve_cells_mixing_kinds(self, spec):
        cells = compile_cells(spec)
        assert len(cells) == 12
        assert {cell.target_kind for cell in cells} == {"experiment", "scenario"}

    def test_interrupt_resume_and_worker_counts_agree(self, spec, tmp_path):
        # Interrupted serial run + resume on 4 workers ...
        cache_a = RunCache(tmp_path / "ca")
        store_a = ResultStore(tmp_path / "sa")
        interrupted = run_sweep_spec(spec, workers=1, cache=cache_a, store=store_a, max_cells=5)
        assert interrupted.computed == 5 and len(interrupted.pending) == 7
        resumed = run_sweep_spec(spec, workers=4, cache=cache_a, store=store_a)
        assert resumed.complete
        assert resumed.hits == 5 and resumed.computed == 7  # zero recomputation
        # ... matches an uninterrupted single-process run bit for bit.
        run_sweep_spec(spec, workers=1, cache=RunCache(tmp_path / "cb"), store=ResultStore(tmp_path / "sb"))
        assert store_files(tmp_path / "sa") == store_files(tmp_path / "sb")

    def test_store_reproduces_direct_experiment_path(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep_spec(spec, store=store)
        cells = compile_cells(spec)
        seeds = spawn_seed_sequences(spec.seed, len(cells))
        index = next(i for i, cell in enumerate(cells) if cell.target_kind == "experiment")
        cell = cells[index]

        # Re-run the cell's experiment directly, outside the sweep machinery.
        module, config_cls = EXPERIMENTS[cell.target_name]
        params = dict(cell.params)
        params.pop("quick")
        params = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        config = dataclasses.replace(config_cls.quick(), **params)
        direct = module.run(config, seed=np.random.default_rng(seeds[index]))

        stored = store.select(where={"cell": index}, columns=["target_density", "empirical_epsilon"])
        assert stored == [
            {"target_density": r["target_density"], "empirical_epsilon": r["empirical_epsilon"]}
            for r in direct.records
        ]
        # And the query-level aggregate equals the direct path's aggregate.
        aggregated = aggregate_stream(
            store.select(where={"cell": index}), metrics=(("mean", "empirical_epsilon"),)
        )
        expected = float(np.mean([r["empirical_epsilon"] for r in direct.records]))
        assert aggregated[0]["mean_empirical_epsilon"] == pytest.approx(expected, rel=1e-12)

    def test_segment_names_deterministic(self, spec):
        cells = compile_cells(spec)
        names = [cell_segment(spec, cell) for cell in cells]
        assert names == sorted(names)
        assert all(name.startswith("acceptance-cell-") for name in names)

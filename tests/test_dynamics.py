"""Tests for the dynamics subsystem: events, churn, online tracking, scenarios."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.dynamics import (
    AgentArrival,
    AgentDeparture,
    DensityShock,
    EventSchedule,
    NoiseWindow,
    Population,
    Scenario,
    TopologyChange,
    build_scenario,
    event_from_dict,
    event_to_dict,
    random_churn_schedule,
    remap_positions,
    retire_agents,
    run_scenario,
    scenario_names,
    shock_population,
    spawn_agents,
    track_scenario,
    track_scenario_batch,
)
from repro.dynamics.online import (
    DiscountedEstimator,
    RunningEstimator,
    SlidingWindowEstimator,
    TwoWindowChangeDetector,
)
from repro.dynamics.scenario import QUICK_ROUNDS, build_movement, build_noise, build_topology
from repro.engine import ExecutionEngine
from repro.topology import Ring, Torus2D
from repro.utils.serialization import to_jsonable
from repro import cli

BASELINES = Path(__file__).parent / "baselines"
DYNAMICS_GOLDEN = json.loads((BASELINES / "dynamics_golden.json").read_text())


def _load_golden_generator():
    """The fixture's generator module: its case runners and digests are the spec."""
    path = BASELINES / "regenerate_dynamics_golden.py"
    spec = importlib.util.spec_from_file_location("regenerate_dynamics_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_generator = _load_golden_generator()


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
class TestEvents:
    def test_schedule_sorts_and_indexes_by_round(self):
        schedule = EventSchedule(
            events=(
                AgentDeparture(round=9, count=2),
                AgentArrival(round=3, count=5),
                DensityShock(round=3, factor=2.0),
            )
        )
        assert [event.round for event in schedule] == [3, 3, 9]
        assert len(schedule.at(3)) == 2
        assert schedule.at(4) == ()
        assert schedule.last_round == 9

    def test_dict_round_trip_every_kind(self):
        events = (
            AgentArrival(round=1, count=3),
            AgentDeparture(round=2, count=1),
            DensityShock(round=3, factor=0.5),
            TopologyChange(round=4, topology={"kind": "torus2d", "side": 9}, remap="mod"),
            NoiseWindow(round=5, duration=7, miss_probability=0.2, spurious_rate=0.1),
        )
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event
        schedule = EventSchedule(events=events)
        rebuilt = EventSchedule.from_dicts(schedule.to_dicts())
        assert rebuilt == schedule
        # The dict form must survive real JSON serialisation.
        assert EventSchedule.from_dicts(json.loads(json.dumps(schedule.to_dicts()))) == schedule

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentArrival(round=-1, count=3)
        with pytest.raises(ValueError):
            AgentArrival(round=0, count=0)
        with pytest.raises(ValueError):
            DensityShock(round=0, factor=0.0)
        with pytest.raises(ValueError):
            TopologyChange(round=0, topology={"side": 4})  # missing kind
        with pytest.raises(ValueError):
            TopologyChange(round=0, topology={"kind": "torus2d", "side": 4}, remap="teleport")
        with pytest.raises(ValueError):
            NoiseWindow(round=0, duration=0)
        with pytest.raises(ValueError):
            event_from_dict({"kind": "unheard-of", "round": 0})

    def test_random_churn_schedule_deterministic(self):
        first = random_churn_schedule(50, 1.5, 1.5, seed=42)
        second = random_churn_schedule(50, 1.5, 1.5, seed=42)
        assert first == second
        assert first != random_churn_schedule(50, 1.5, 1.5, seed=43)
        assert all(event.round < 50 for event in first)

    def test_random_churn_schedule_rates(self):
        schedule = random_churn_schedule(200, 2.0, 0.0, seed=0)
        arrivals = sum(e.count for e in schedule if isinstance(e, AgentArrival))
        departures = [e for e in schedule if isinstance(e, AgentDeparture)]
        assert departures == []
        assert 300 < arrivals < 500  # Poisson(2) * 200 rounds, generous band


# ----------------------------------------------------------------------
# Population churn
# ----------------------------------------------------------------------
class TestPopulationChurn:
    def _population(self, shape):
        rng = np.random.default_rng(0)
        return Population(
            positions=rng.integers(0, 36, size=shape),
            totals=rng.random(shape),
            marked=rng.random(shape) < 0.3,
            marked_totals=rng.random(shape),
        )

    @pytest.mark.parametrize("shape", [(10,), (4, 10)])
    def test_spawn_appends_zeroed_counters(self, shape):
        population = self._population(shape)
        grown = spawn_agents(population, 5, Torus2D(6), np.random.default_rng(1))
        assert grown.shape == shape[:-1] + (15,)
        grown.validate()
        assert np.array_equal(grown.totals[..., :10], population.totals)
        assert np.all(grown.totals[..., 10:] == 0.0)
        assert np.all(grown.marked_totals[..., 10:] == 0.0)
        assert not grown.marked[..., 10:].any()
        assert grown.positions[..., 10:].min() >= 0
        assert grown.positions[..., 10:].max() < 36

    @pytest.mark.parametrize("shape", [(10,), (4, 10)])
    def test_retire_removes_and_preserves_counter_alignment(self, shape):
        population = self._population(shape)
        shrunk = retire_agents(population, 4, np.random.default_rng(2))
        assert shrunk.shape == shape[:-1] + (6,)
        shrunk.validate()
        # Every surviving (position, total) pair existed before, in order.
        if len(shape) == 1:
            pairs = set(zip(population.positions.tolist(), population.totals.tolist()))
            for pos, tot in zip(shrunk.positions.tolist(), shrunk.totals.tolist()):
                assert (pos, tot) in pairs

    def test_retire_clamps_to_one_survivor(self):
        population = self._population((3,))
        shrunk = retire_agents(population, 99, np.random.default_rng(0))
        assert shrunk.size == 1

    def test_retire_rows_independent_across_replicates(self):
        population = self._population((64, 16))
        shrunk = retire_agents(population, 8, np.random.default_rng(3))
        # If every replicate dropped the same agents the surviving position
        # sets would be identical; with independent draws they differ.
        distinct = {tuple(row) for row in np.sort(shrunk.positions, axis=-1)}
        assert len(distinct) > 1

    def test_shock_population_directions(self):
        population = self._population((10,))
        rng = np.random.default_rng(4)
        assert shock_population(population, 1.5, Torus2D(6), rng).size == 15
        assert shock_population(population, 0.5, Torus2D(6), rng).size == 5
        assert shock_population(population, 1.0, Torus2D(6), rng) is population
        assert shock_population(population, 1e-9, Torus2D(6), rng).size == 1

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("nan")])
    def test_shock_factor_must_be_positive(self, factor):
        population = self._population((10,))
        with pytest.raises(ValueError, match="factor must be positive"):
            shock_population(population, factor, Torus2D(6), np.random.default_rng(0))

    def test_remap_mod_folds_labels_and_keeps_counters(self):
        population = self._population((4, 10))
        remapped = remap_positions(population, Torus2D(4), np.random.default_rng(5), mode="mod")
        remapped.validate()
        assert np.array_equal(remapped.positions, population.positions % 16)
        assert np.array_equal(remapped.totals, population.totals)
        assert np.array_equal(remapped.marked, population.marked)
        assert np.array_equal(remapped.marked_totals, population.marked_totals)

    def test_remap_rejects_unknown_mode(self):
        population = self._population((10,))
        with pytest.raises(ValueError, match="'uniform' or 'mod'"):
            remap_positions(population, Torus2D(4), np.random.default_rng(0), mode="nearest")

    def test_validate_rejects_desync(self):
        population = self._population((10,))
        population.totals = population.totals[:7]
        with pytest.raises(ValueError, match="out of sync"):
            population.validate()


# ----------------------------------------------------------------------
# Online estimators
# ----------------------------------------------------------------------
class TestOnlineEstimators:
    def test_running_matches_cumulative_mean(self):
        stream = np.random.default_rng(0).random((30, 4))
        estimator = RunningEstimator(tracks=4)
        for t, values in enumerate(stream, start=1):
            estimator.update(values)
            np.testing.assert_allclose(estimator.estimate(), stream[:t].mean(axis=0))

    def test_window_matches_trailing_mean(self):
        stream = np.random.default_rng(1).random((40, 3))
        estimator = SlidingWindowEstimator(window=7, tracks=3)
        for t, values in enumerate(stream, start=1):
            estimator.update(values, values * 2.0)
            lo = max(0, t - 7)
            np.testing.assert_allclose(estimator.estimate(), stream[lo:t].mean(axis=0))
            np.testing.assert_allclose(estimator.mass(), stream[lo:t].sum(axis=0) * 2.0)

    def test_window_reset_per_column_is_exact(self):
        stream = np.random.default_rng(2).random((25, 2))
        estimator = SlidingWindowEstimator(window=6, tracks=2)
        for t, values in enumerate(stream):
            estimator.update(values)
            if t == 10:
                estimator.reset(np.array([True, False]))
        # Column 0 restarted at t=11, column 1 never reset.
        np.testing.assert_allclose(estimator.estimate()[0], stream[19:25, 0].mean())
        np.testing.assert_allclose(estimator.estimate()[1], stream[19:25, 1].mean())
        assert estimator.fill()[0] == 6

    def test_window_reset_before_refill_excludes_stale_values(self):
        estimator = SlidingWindowEstimator(window=5, tracks=1)
        for value in (10.0, 10.0, 10.0, 10.0, 10.0):
            estimator.update(value)
        estimator.reset()
        for value in (1.0, 2.0):
            estimator.update(value)
        np.testing.assert_allclose(estimator.estimate(), [1.5])
        assert estimator.fill()[0] == 2

    def test_discounted_matches_reference(self):
        stream = np.random.default_rng(3).random(20)
        estimator = DiscountedEstimator(gamma=0.9)
        weighted = weight = 0.0
        for value in stream:
            estimator.update(value)
            weighted = 0.9 * weighted + value
            weight = 0.9 * weight + 1.0
        np.testing.assert_allclose(estimator.estimate(), [weighted / weight])

    def test_detector_flags_step_change_and_resets(self):
        rng = np.random.default_rng(4)
        detector = TwoWindowChangeDetector(window=10, tracks=1, threshold=0.25, z_threshold=5.0)
        flagged_at = None
        for t in range(120):
            level = 1.0 if t < 60 else 0.3
            flags = detector.update(level + rng.normal(0, 0.02))
            if flags[0] and flagged_at is None:
                flagged_at = t
        assert flagged_at is not None
        assert 60 <= flagged_at <= 80  # within 2 windows of the shift

    def test_detector_quiet_on_stationary_stream(self):
        rng = np.random.default_rng(5)
        detector = TwoWindowChangeDetector(window=10, tracks=8)
        flags_total = 0
        for _ in range(300):
            flags_total += int(detector.update(1.0 + rng.normal(0, 0.05, size=8)).sum())
        assert flags_total == 0

    @pytest.mark.parametrize("value", [0.0, float("nan")], ids=["zero", "nan"])
    @pytest.mark.parametrize("parameter", ["threshold", "z_threshold", "min_scale"])
    def test_detector_parameters_must_be_positive(self, parameter, value):
        with pytest.raises(ValueError, match=f"{parameter} must be positive"):
            TwoWindowChangeDetector(window=5, **{parameter: value})

    def test_detector_constant_stream_never_divides_by_zero(self):
        detector = TwoWindowChangeDetector(window=3, tracks=2)
        for _ in range(20):
            flags = detector.update(np.array([0.5, 0.5]))
            assert not flags.any()


# ----------------------------------------------------------------------
# Scenario specs and catalog
# ----------------------------------------------------------------------
class TestScenarios:
    def test_catalog_has_the_six_named_worlds(self):
        assert set(scenario_names()) >= {
            "stable",
            "ramp-up",
            "crash",
            "oscillating",
            "rewiring-torus",
            "failing-sensors",
        }

    @pytest.mark.parametrize("name", scenario_names())
    def test_build_quick_and_dict_round_trip(self, name):
        scenario = build_scenario(name, quick=True)
        assert scenario.rounds == QUICK_ROUNDS
        payload = json.loads(json.dumps(to_jsonable(scenario.to_dict())))
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt == scenario

    def test_rounds_override_rescales_events(self):
        crash = build_scenario("crash", rounds=120, side=12, num_agents=40)
        assert crash.rounds == 120
        assert crash.events.events[0].round == 60

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("not-a-scenario")

    def test_component_factories(self):
        assert isinstance(build_topology({"kind": "torus2d", "side": 5}), Torus2D)
        assert isinstance(build_topology({"kind": "ring", "size": 9}), Ring)
        assert build_movement(None) is None
        assert build_movement({"kind": "uniform"}) is None
        assert build_movement({"kind": "lazy", "stay_probability": 0.3}).stay_probability == 0.3
        assert build_noise(None) is None
        assert build_noise({"miss_probability": 0.0, "spurious_rate": 0.0}) is None
        assert build_noise({"miss_probability": 0.2}).miss_probability == 0.2
        with pytest.raises(ValueError, match="unknown topology kind"):
            build_topology({"kind": "klein-bottle"})

    def test_tracking_typo_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown tracking parameter"):
            Scenario(
                name="bad",
                description="typo'd tracking key",
                topology={"kind": "torus2d", "side": 8},
                num_agents=10,
                rounds=5,
                tracking={"widnow": 10},
            )

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            Scenario(
                name="bad",
                description="unknown noise kind",
                topology={"kind": "torus2d", "side": 8},
                num_agents=10,
                rounds=5,
                noise={"kind": "burst", "miss_probability": 0.3},
            )

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="only runs"):
            Scenario(
                name="bad",
                description="event after the end",
                topology={"kind": "torus2d", "side": 8},
                num_agents=10,
                rounds=5,
                events=EventSchedule(events=(AgentArrival(round=5, count=1),)),
            )


# ----------------------------------------------------------------------
# The tracking driver
# ----------------------------------------------------------------------
class TestDriver:
    def test_population_timeline_follows_schedule(self):
        scenario = build_scenario("crash", quick=True)
        outcome = track_scenario_batch(scenario, 3, seed=0)
        shock = scenario.events.events[0].round
        departing = scenario.events.events[0].count
        assert (outcome.population[: shock + 1] == scenario.num_agents).all()
        assert (outcome.population[shock + 1 :] == scenario.num_agents - departing).all()
        assert outcome.rounds == scenario.rounds
        assert len(outcome.records()) == scenario.rounds

    def test_single_and_batch_paths_agree_in_shape(self):
        scenario = build_scenario("oscillating", quick=True)
        single = track_scenario(scenario, seed=0)
        batch = track_scenario_batch(scenario, 5, seed=0)
        assert single.estimates["window"].shape == (scenario.rounds, 1)
        assert batch.estimates["window"].shape == (scenario.rounds, 5)
        assert np.array_equal(single.population, batch.population)

    def test_rewiring_changes_num_nodes_mid_run(self):
        scenario = build_scenario("rewiring-torus", quick=True)
        outcome = track_scenario(scenario, seed=0)
        assert len(set(outcome.num_nodes.tolist())) == 2
        assert outcome.num_nodes[0] == outcome.num_nodes[-1]

    def test_crash_detected_within_detector_span(self):
        scenario = build_scenario("crash", quick=True)
        outcome = track_scenario_batch(scenario, 8, seed=0)
        shock = scenario.events.events[0].round + 1  # 1-based
        span = 2 * 20 + 1  # two detector windows
        flagged = [rounds for rounds in outcome.change_rounds() if rounds]
        assert flagged, "no replicate detected the crash"
        for rounds in flagged:
            assert shock <= rounds[0] <= shock + span
        # Nobody fires before the shock.
        assert not outcome.change_flags[: shock - 1].any()

    def test_window_tracker_recovers_after_crash(self):
        scenario = build_scenario("crash", quick=True)
        outcome = track_scenario_batch(scenario, 8, seed=1)
        density = outcome.true_density
        window_error = abs(outcome.estimates["window"][-1].mean() - density[-1]) / density[-1]
        running_error = abs(outcome.estimates["running"][-1].mean() - density[-1]) / density[-1]
        assert window_error < 0.35
        assert running_error > 2 * window_error  # the anytime c/t goes stale

    def test_confidence_band_brackets_estimate(self):
        outcome = track_scenario_batch(build_scenario("stable", quick=True), 4, seed=0)
        window = outcome.estimates["window"]
        assert (outcome.ci_low <= window + 1e-12).all()
        assert (outcome.ci_high >= window - 1e-12).all()
        # The band tightens as the window fills with collision mass.
        width = outcome.ci_high - outcome.ci_low
        assert width[-1].mean() < width[0].mean()

    def test_failing_sensors_depresses_estimates_during_window(self):
        scenario = build_scenario("failing-sensors", quick=True)
        outcome = track_scenario_batch(scenario, 8, seed=0)
        event = scenario.events.events[0]
        during = slice(event.round + 10, event.round + event.duration)
        before = slice(event.round - 15, event.round)
        assert (
            outcome.estimates["window"][during].mean()
            < outcome.estimates["window"][before].mean()
        )

    def test_counters_match_live_population_after_run(self):
        scenario = build_scenario("crash", quick=True)
        tracker_result = track_scenario_batch(scenario, 2, seed=0)
        survivors = int(tracker_result.population[-1])
        config = SimulationConfig(
            num_agents=scenario.num_agents,
            rounds=scenario.rounds,
            round_hook=_CountingHook(scenario),
        )
        outcome = run_kernel(
            scenario.build_topology(), config, 2, seed=0
        )
        assert outcome.collision_totals.shape == (2, survivors)
        assert outcome.marked.shape == (2, survivors)

    def test_workers_bit_identical_for_every_catalog_scenario(self):
        for name in scenario_names():
            scenario = build_scenario(name, quick=True)
            serial = run_scenario(
                scenario, replicates=6, engine=ExecutionEngine(workers=1), seed=0
            )
            parallel = run_scenario(
                scenario, replicates=6, engine=ExecutionEngine(workers=4), seed=0
            )
            assert to_jsonable(serial.records()) == to_jsonable(parallel.records()), name
            assert serial.summary() == parallel.summary(), name

    def test_collision_avoiding_movement_runs_on_the_batched_path(self):
        # Every catalog movement model is batch-safe since the kernel
        # unification; collision-avoiding scenarios batch like the rest
        # (there is no serial fallback branch left to fall back to).
        scenario = build_scenario("stable", quick=True)
        scenario = Scenario.from_dict(
            {**scenario.to_dict(), "movement": {"kind": "collision_avoiding"}}
        )
        outcome = run_scenario(scenario, replicates=3, engine=ExecutionEngine(), seed=0)
        assert outcome.replicates == 3
        assert outcome.estimates["window"].shape == (scenario.rounds, 3)


class TestRoundStreamHook:
    """The serve layer's streaming contract (TESTING.md): an ``on_round``
    listener observes each completed round's record without consuming any
    randomness — the simulation stream is bit-identical with and without
    a listener installed."""

    def test_batch_listener_receives_exactly_the_records(self):
        scenario = build_scenario("crash", quick=True)
        seen: list[dict] = []
        outcome = track_scenario_batch(scenario, 2, seed=0, on_round=seen.append)
        assert json.dumps(seen) == json.dumps(outcome.records())

    def test_single_replicate_listener_receives_exactly_the_records(self):
        scenario = build_scenario("oscillating", quick=True)
        seen: list[dict] = []
        outcome = track_scenario(scenario, seed=0, on_round=seen.append)
        assert json.dumps(seen) == json.dumps(outcome.records())

    def test_listener_does_not_perturb_the_simulation_stream(self):
        for name in scenario_names():
            scenario = build_scenario(name, quick=True)
            silent = track_scenario_batch(scenario, 3, seed=0)
            observed = track_scenario_batch(
                scenario, 3, seed=0, on_round=lambda record: None
            )
            assert json.dumps(to_jsonable(silent.records())) == json.dumps(
                to_jsonable(observed.records())
            ), name
            assert silent.summary() == observed.summary(), name

    def test_run_scenario_streams_chunk_annotated_records(self):
        scenario = build_scenario("crash", quick=True, rounds=8)
        seen: list[dict] = []
        silent = run_scenario(scenario, replicates=6, seed=0)
        streamed = run_scenario(scenario, replicates=6, seed=0, on_round=seen.append)
        # Observation only: the merged result is bit-identical either way.
        assert json.dumps(to_jsonable(silent.records())) == json.dumps(
            to_jsonable(streamed.records())
        )
        # 6 replicates = one chunk of 4 plus a remainder chunk of 2; every
        # round streams once per chunk, stamped with its chunk context.
        assert len(seen) == scenario.rounds * 2
        assert {record["chunk"] for record in seen} == {0, 1}
        assert all(record["chunks"] == 2 for record in seen)
        by_chunk = {record["chunk"]: record["chunk_replicates"] for record in seen}
        assert by_chunk == {0: 4, 1: 2}
        record_keys = set(silent.records()[0])
        for record in seen:
            assert set(record) == record_keys | {"chunk", "chunks", "chunk_replicates"}

    def test_streamed_rounds_reuse_the_validated_delta(self, monkeypatch):
        """``δ`` is validated when the parameters are built; each streamed
        round bands from the tracker's precomputed ``3·log(2/δ)``, and only
        the whole-run band after the run goes through ``chernoff_interval``."""
        import repro.analysis.concentration as concentration

        checks = []
        real_check = concentration.require_probability
        monkeypatch.setattr(
            concentration,
            "require_probability",
            lambda value, name, **kwargs: (checks.append(name), real_check(value, name, **kwargs))[1],
        )
        scenario = build_scenario("crash", quick=True)
        seen: list[dict] = []
        outcome = track_scenario_batch(scenario, 2, seed=0, on_round=seen.append)
        assert len(seen) == scenario.rounds
        assert checks == ["delta"]
        assert json.dumps(seen) == json.dumps(outcome.records())

    def test_run_scenario_rejects_listener_with_multiprocess_engine(self):
        scenario = build_scenario("crash", quick=True)
        with pytest.raises(ValueError, match="in-process engine"):
            run_scenario(
                scenario,
                replicates=2,
                engine=ExecutionEngine(workers=2),
                seed=0,
                on_round=lambda record: None,
            )


class TestDynamicsGolden:
    """``dynamics_golden.json`` pins the bytes of every catalog scenario's
    payload and streamed round frames, and of one 200-track batch, as the
    tracker wrote them before its reductions were rewritten."""

    def test_the_fixture_covers_every_catalog_scenario(self):
        cases = DYNAMICS_GOLDEN["scenarios"]
        assert [{key: case[key] for key in ("scenario", "seed", "replicates")} for case in cases] == (
            golden_generator.scenario_specs()
        )
        assert {case["scenario"] for case in cases} == set(scenario_names())

    @pytest.mark.parametrize(
        "case",
        DYNAMICS_GOLDEN["scenarios"],
        ids=lambda case: f"{case['scenario']}-s{case['seed']}-r{case['replicates']}",
    )
    def test_scenario_payload_and_frames_reproduce(self, case):
        assert golden_generator.run_scenario_case(case) == case["outcome"]

    @pytest.mark.parametrize("tracks", [1, 3, 8, 9, 127, 128, 129, 200, 1000, 9000])
    def test_track_means_equal_each_row_mean(self, tracks):
        """The record's one reduction sums each row as ``ndarray.mean`` does,
        on both sides of NumPy's pairwise blocks (8 and 128 elements) and of
        its 8,192-element buffer, for a round's rows and a run's rows."""
        from repro.dynamics.driver import _track_means

        rows = np.random.default_rng(tracks).lognormal(size=(3, 6, tracks)) * 1e3
        rows[:, 5] = rows[:, 5] > 1e3  # the change-flag row: 0/1 as floats
        assert _track_means(rows[0]) == [float(row.mean()) for row in rows[0]]
        assert _track_means(rows) == [[float(row.mean()) for row in block] for block in rows]

    def test_wide_batch_reproduces(self):
        batch = DYNAMICS_GOLDEN["batch"]
        assert (batch["scenario"], batch["tracks"], batch["seed"]) == (
            golden_generator.BATCH_SCENARIO,
            golden_generator.BATCH_TRACKS,
            golden_generator.BATCH_SEED,
        )
        assert golden_generator.run_batch_case() == batch["outcome"]


class TestReplicateChunkingContract:
    """Regression tests for the ISSUE 3 satellite: `--replicates` values not
    divisible by the driver's fixed 4-replicate chunk must be exact — the
    remainder runs as a final smaller chunk, nothing is rounded or padded."""

    @pytest.mark.parametrize("replicates", [1, 3, 5, 6, 7, 9])
    def test_non_divisible_replicates_exact(self, replicates):
        scenario = build_scenario("crash", quick=True, rounds=8)
        outcome = run_scenario(scenario, replicates=replicates, seed=0)
        assert outcome.replicates == replicates
        for name in ("running", "window", "discounted"):
            assert outcome.estimates[name].shape == (scenario.rounds, replicates)
        assert outcome.change_flags.shape == (scenario.rounds, replicates)
        assert len(outcome.change_rounds()) == replicates

    @pytest.mark.parametrize("replicates", [5, 6, 7])
    def test_remainder_chunks_bit_identical_across_workers(self, replicates):
        scenario = build_scenario("crash", quick=True, rounds=8)
        serial = run_scenario(
            scenario, replicates=replicates, engine=ExecutionEngine(workers=1), seed=0
        )
        parallel = run_scenario(
            scenario, replicates=replicates, engine=ExecutionEngine(workers=4), seed=0
        )
        assert to_jsonable(serial.records()) == to_jsonable(parallel.records())
        assert serial.summary() == parallel.summary()

    def test_cli_accepts_non_divisible_replicates(self, capsys):
        exit_code = cli.main(
            ["scenario", "run", "--scenario", "stable", "--quick", "--replicates", "6", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicates"] == 6
        assert payload["summary"]["replicates"] == 6

    def test_cli_rejects_zero_replicates(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["scenario", "run", "--scenario", "stable", "--quick", "--replicates", "0"])
        assert "positive integer" in capsys.readouterr().err


class _CountingHook:
    """Re-applies a scenario's churn without any tracking (for shape checks)."""

    def __init__(self, scenario):
        self.scenario = scenario

    def __call__(self, state):
        from repro.dynamics.driver import _DynamicsTracker

        if not hasattr(self, "_tracker"):
            self._tracker = _DynamicsTracker(self.scenario, tracks=state.positions.shape[0])
        self._tracker(state)


# ----------------------------------------------------------------------
# Per-round hook contract in the engines
# ----------------------------------------------------------------------
class TestRoundHookContract:
    def test_hook_observes_every_round(self):
        seen = []
        config = SimulationConfig(
            num_agents=9, rounds=7, round_hook=lambda state: seen.append(state.round_index)
        )
        run_kernel(Torus2D(6), config, None, seed=0)
        assert seen == list(range(7))

    def test_noop_hook_preserves_the_stream(self):
        config_plain = SimulationConfig(num_agents=9, rounds=12)
        config_hooked = SimulationConfig(num_agents=9, rounds=12, round_hook=lambda state: None)
        plain = run_kernel(Torus2D(6), config_plain, None, seed=5)
        hooked = run_kernel(Torus2D(6), config_hooked, None, seed=5)
        assert np.array_equal(plain.collision_totals, hooked.collision_totals)
        batch_plain = run_kernel(Torus2D(6), config_plain, 3, seed=5)
        batch_hooked = run_kernel(Torus2D(6), config_hooked, 3, seed=5)
        assert np.array_equal(batch_plain.collision_totals, batch_hooked.collision_totals)

    def test_hook_shape_desync_rejected(self):
        def bad_hook(state):
            state.totals = state.totals[..., :-1]

        config = SimulationConfig(num_agents=6, rounds=2, round_hook=bad_hook)
        with pytest.raises(ValueError, match="inconsistent state"):
            run_kernel(Torus2D(6), config, None, seed=0)

    def test_hook_cannot_empty_the_population(self):
        def exterminate(state):
            state.positions = state.positions[..., :0]
            state.totals = state.totals[..., :0]
            state.marked = state.marked[..., :0]
            state.marked_totals = state.marked_totals[..., :0]

        config = SimulationConfig(num_agents=4, rounds=2, round_hook=exterminate)
        with pytest.raises(ValueError, match="at least one live agent"):
            run_kernel(Torus2D(6), config, None, seed=0)

    def test_hook_incompatible_with_trajectory_recording(self):
        with pytest.raises(ValueError, match="trajectory"):
            SimulationConfig(
                num_agents=4, rounds=2, record_trajectory=True, round_hook=lambda state: None
            )

    def test_batch_hook_must_keep_replicate_axis(self):
        def flatten(state):
            state.positions = state.positions.reshape(-1)
            state.totals = state.totals.reshape(-1)
            state.marked = state.marked.reshape(-1)
            state.marked_totals = state.marked_totals.reshape(-1)

        config = SimulationConfig(num_agents=4, rounds=2, round_hook=flatten)
        with pytest.raises(ValueError, match="replicate axis"):
            run_kernel(Torus2D(6), config, 3, seed=0)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_scenario_list(self, capsys):
        assert cli.main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenario_run_json_records_and_detection(self, capsys):
        code = cli.main(
            [
                "scenario",
                "run",
                "--scenario",
                "crash",
                "--quick",
                "--replicates",
                "8",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "crash"
        records = payload["records"]
        assert len(records) == QUICK_ROUNDS
        for record in records:
            assert record["ci_low"] <= record["window"] <= record["ci_high"] + 1e-12
        assert any(record["change_fraction"] > 0 for record in records)

    def test_scenario_run_rounds_override(self, capsys):
        code = cli.main(
            ["scenario", "run", "--scenario", "stable", "--quick", "--rounds", "30",
             "--replicates", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 30

    def test_scenario_run_unknown_name_exits_2(self, capsys):
        assert cli.main(["scenario", "run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_run_cache_round_trip(self, tmp_path, capsys):
        args = [
            "scenario", "run", "--scenario", "stable", "--quick", "--replicates", "2",
            "--json", "--cache-dir", str(tmp_path),
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert any(tmp_path.iterdir())

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out


class TestRunAllFailureCollection:
    @pytest.mark.slow
    def test_run_all_collects_failures_and_exits_nonzero(self, capsys, monkeypatch):
        # The execution seam lives in the shared CLI/daemon submission path
        # (repro.serve.submit); run_submission resolves it at call time.
        import repro.cli as cli_module
        import repro.serve.submit as submit_module

        real = submit_module.execute_submission

        def flaky(submission, **kwargs):
            if submission.name in ("E03", "E07"):
                raise RuntimeError(f"boom in {submission.name}")
            return real(submission, **kwargs)

        monkeypatch.setattr(submit_module, "execute_submission", flaky)
        code = cli_module.main(["run", "all", "--quick", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "2 of 24 experiments failed: E03, E07" in captured.err
        payload = json.loads(captured.out)
        by_id = {entry["experiment"]: entry for entry in payload}
        assert by_id["E03"]["error"] == "boom in E03"
        assert "records" in by_id["E01"]

    def test_single_experiment_failure_still_fails_fast(self, monkeypatch, capsys):
        import repro.cli as cli_module
        import repro.serve.submit as submit_module

        def explode(submission, **kwargs):
            raise KeyError("nope")

        monkeypatch.setattr(submit_module, "execute_submission", explode)
        assert cli_module.main(["run", "E01", "--quick"]) == 2

"""The dynamics driver: run a :class:`Scenario` and track density per round.

This is where the pieces of the subsystem meet the execution engine. The
driver installs a :class:`~repro.core.simulation.RoundState` hook into the
unified simulation kernel (:mod:`repro.core.kernel` — serial ``(n,)`` mode
or batched ``(R, n)`` mode of the same loop) and, once per round:

1. applies any active sensor-degradation window to the round's observed
   counts (adjusting the cumulative totals in place);
2. streams the population's mean encounter rate into the three anytime
   estimators and the change detector (:mod:`repro.dynamics.online`),
   resetting the forgetting estimators on tracks that flagged a shift;
3. records the per-round tracking state (population, environment size,
   true density, estimates, confidence band, change flags);
4. applies the events scheduled for the round boundary — churn, shocks,
   topology changes (:mod:`repro.dynamics.population`) — by replacing the
   hook state's arrays, which the host loop adopts for the next round.

Three entry points cover the execution spectrum:

* :func:`track_scenario` — one replicate on the kernel's serial mode;
* :func:`track_scenario_batch` — ``R`` replicates as one matrix
  simulation, the PR-1 throughput path (the benchmark gate keeps its
  overhead within 1.5x of the static batched loop);
* :func:`run_scenario` — replicates split into fixed-size batched chunks
  fanned out over the execution engine's scheduler. The chunking is a
  function of the replicate count alone (never of ``workers``), and each
  chunk's stream comes from its plan seed, so records are **bit-identical
  for every worker count** — the scheduler guarantee extends to dynamic
  scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis.concentration import _chernoff_band, chernoff_interval
from repro.core.kernel import run_kernel
from repro.core.simulation import RoundState, SimulationConfig
from repro.dynamics.events import (
    AgentArrival,
    AgentDeparture,
    DensityShock,
    Event,
    NoiseWindow,
    TopologyChange,
)
from repro.dynamics.online import (
    DiscountedEstimator,
    RunningEstimator,
    SlidingWindowEstimator,
    TrackingParameters,
    TwoWindowChangeDetector,
)
from repro.dynamics.population import (
    Population,
    remap_positions,
    retire_agents,
    shock_population,
    spawn_agents,
)
from repro.dynamics.scenario import Scenario, build_topology
from repro.engine.scheduler import ExecutionEngine
from repro.swarm.noise import NoisyCollisionModel
from repro.utils.rng import SeedLike
from repro.utils.validation import require_integer

#: Replicates per batched chunk when fanning a scenario over the scheduler.
#: Fixed (never derived from the worker count) so that the chunk layout —
#: and therefore every record — is identical for any ``--workers`` value.
CHUNK_REPLICATES = 4

#: Round-stream listener contract: called once per completed round with the
#: same JSON-friendly record :meth:`ScenarioRunResult.records` would emit
#: for that round (averaged over the tracks of the running simulation).
#: **Observation-only**: listeners receive plain Python data, are invoked
#: after the round's statistics are recorded, and the driver consumes zero
#: additional randomness when one is installed — the simulation stream is
#: bit-identical with and without a listener.
RoundListener = Callable[[dict], None]


def _track_means(rows: np.ndarray) -> list:
    """Means over the last axis, as plain floats, in one reduction.

    Each mean sums its tracks in the order ``ndarray.mean`` would (NumPy
    reduces along a contiguous last axis one row at a time) and divides
    by the track count, so it matches ``float(row.mean())`` bit for bit.
    """
    return (np.add.reduce(rows, axis=-1) / rows.shape[-1]).tolist()


def _round_record(t: int, population: int, num_nodes: int, means: list) -> dict:
    """Round ``t``'s record: the simulated environment and its six track
    means (running, window, discounted, ci_low, ci_high, change_fraction)."""
    population, num_nodes = int(population), int(num_nodes)
    running, window, discounted, ci_low, ci_high, change_fraction = means
    return {
        "round": t + 1,
        "population": population,
        "num_nodes": num_nodes,
        "true_density": (population - 1.0) / num_nodes,
        "running": running,
        "window": window,
        "discounted": discounted,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "change_fraction": change_fraction,
    }


class _DynamicsTracker:
    """The per-round hook: noise windows, online estimators, event application."""

    def __init__(
        self, scenario: Scenario, tracks: int, on_round: Optional[RoundListener] = None
    ):
        self._on_round = on_round
        self.scenario = scenario
        self.tracks = tracks
        self.params = TrackingParameters.resolve(scenario.tracking)
        #: ``3·log(2/δ)`` of the streamed confidence band, computed once:
        #: ``params`` validated ``δ`` when it was built.
        self._chernoff_scale = 3.0 * math.log(2.0 / self.params.delta)
        rounds = scenario.rounds
        self.running = RunningEstimator(tracks)
        self.window = SlidingWindowEstimator(self.params.window, tracks)
        self.discounted = DiscountedEstimator(self.params.gamma, tracks)
        self.detector = TwoWindowChangeDetector(
            self.params.detect_window,
            tracks,
            threshold=self.params.detect_threshold,
            z_threshold=self.params.detect_z,
            min_scale=self.params.detect_min_scale,
        )
        self.population = np.zeros(rounds, dtype=np.int64)
        self.num_nodes = np.zeros(rounds, dtype=np.int64)
        self.estimates = {
            name: np.zeros((rounds, tracks), dtype=np.float64)
            for name in ("running", "window", "discounted")
        }
        #: Collision mass inside the sliding window, per round — the
        #: confidence band is derived from this in one vectorised pass
        #: after the run (see :func:`_result_from_tracker`) to keep it out
        #: of the per-round hot path.
        self.window_mass = np.zeros((rounds, tracks), dtype=np.float64)
        self.change_flags = np.zeros((rounds, tracks), dtype=bool)
        #: The streamed record's six per-track rows (see ``_round_record``),
        #: reduced in one call.
        self._stream_rows = np.zeros((6, tracks), dtype=np.float64)
        #: Active sensor-degradation windows as ``(model, end_round)`` pairs;
        #: a window scheduled at round r degrades rounds ``r+1 .. r+duration``.
        self._noise_windows: list[tuple[NoisyCollisionModel, int]] = []

    # -- the hook ------------------------------------------------------
    def __call__(self, state: RoundState) -> None:
        t = state.round_index
        observed = np.asarray(state.observed, dtype=np.float64)

        if self._noise_windows:
            # Drop expired windows so the hot path never scans dead entries;
            # overlapping windows re-filter sequentially, so their miss
            # probabilities compound (two 30%-miss windows behave like one
            # 51%-miss window while both are active).
            self._noise_windows = [
                entry for entry in self._noise_windows if t < entry[1]
            ]
            for model, _ in self._noise_windows:
                degraded = np.asarray(model.observe(observed, state.rng), dtype=np.float64)
                state.totals += degraded - observed
                observed = degraded

        # One reduction pass serves both statistics: the collision mass per
        # replicate and (divided by the live count) the mean encounter rate.
        mass = np.atleast_1d(observed.sum(axis=-1))
        y = mass / observed.shape[-1]
        self.running.update(y)
        self.window.update(y, mass)
        self.discounted.update(y)

        # Record this round's estimates before any detection reset, so the
        # flag round still reports the (stale) pre-reset estimate; the
        # fresh window starts contributing from the next round.
        self.population[t] = state.num_agents
        self.num_nodes[t] = state.topology.num_nodes
        self.estimates["running"][t] = self.running.estimate()
        self.estimates["window"][t] = self.window.estimate()
        self.estimates["discounted"][t] = self.discounted.estimate()
        self.window_mass[t] = self.window.mass()

        flags = self.detector.update(y)
        if flags.any():
            # A detected shift makes pre-shift history misleading: restart
            # the forgetting estimators on the flagged tracks. The running
            # estimator deliberately keeps its full history (it is the
            # baseline whose staleness the experiments measure).
            self.window.reset(flags)
            self.discounted.reset(flags)
        self.change_flags[t] = flags

        if self._on_round is not None:
            # Stream this round's record *before* the boundary events fire,
            # matching :meth:`ScenarioRunResult.records` (which reports the
            # population the round was simulated with). Pure observation:
            # plain floats out, nothing mutated, no randomness consumed.
            rows = self._stream_rows
            rows[0] = self.estimates["running"][t]
            rows[1] = self.estimates["window"][t]
            rows[2] = self.estimates["discounted"][t]
            rows[3], rows[4] = _chernoff_band(
                self.estimates["window"][t], self.window_mass[t], self._chernoff_scale
            )
            rows[5] = self.change_flags[t]
            self._on_round(
                _round_record(t, state.num_agents, state.topology.num_nodes, _track_means(rows))
            )

        for event in self.scenario.events.at(t):
            self._apply(event, state)

    # -- event application --------------------------------------------
    def _apply(self, event: Event, state: RoundState) -> None:
        if isinstance(event, NoiseWindow):
            model = NoisyCollisionModel(
                miss_probability=event.miss_probability,
                spurious_rate=event.spurious_rate,
            )
            self._noise_windows.append((model, event.round + event.duration + 1))
            return

        population = Population(
            positions=state.positions,
            totals=state.totals,
            marked=state.marked,
            marked_totals=state.marked_totals,
        )
        if isinstance(event, AgentArrival):
            population = spawn_agents(population, event.count, state.topology, state.rng)
        elif isinstance(event, AgentDeparture):
            population = retire_agents(population, event.count, state.rng)
        elif isinstance(event, DensityShock):
            population = shock_population(population, event.factor, state.topology, state.rng)
        elif isinstance(event, TopologyChange):
            state.topology = build_topology(event.topology)
            population = remap_positions(population, state.topology, state.rng, event.remap)
        else:  # pragma: no cover - registry and driver enumerate the same kinds
            raise TypeError(f"unhandled event type {type(event).__name__}")
        state.positions = population.positions
        state.totals = population.totals
        state.marked = population.marked
        state.marked_totals = population.marked_totals


@dataclass
class ScenarioRunResult:
    """Per-round tracking output of a scenario run.

    All per-track arrays have shape ``(rounds, R)``; the environment
    timeline arrays (``population``, ``num_nodes``, ``true_density``) have
    shape ``(rounds,)`` — the event schedule is deterministic, so the
    population trajectory is common to every replicate.
    """

    scenario: Scenario
    replicates: int
    population: np.ndarray
    num_nodes: np.ndarray
    estimates: dict[str, np.ndarray]
    ci_low: np.ndarray
    ci_high: np.ndarray
    change_flags: np.ndarray

    @property
    def rounds(self) -> int:
        return int(self.population.shape[0])

    @property
    def true_density(self) -> np.ndarray:
        """Instantaneous true density ``(n_t - 1) / A_t`` per round."""
        return (self.population - 1.0) / self.num_nodes

    def change_rounds(self) -> list[list[int]]:
        """Per replicate: the 1-based rounds at which a change was flagged."""
        return [
            [int(r) + 1 for r in np.flatnonzero(self.change_flags[:, track])]
            for track in range(self.replicates)
        ]

    def records(self) -> list[dict[str, Any]]:
        """One JSON-friendly record per round (replicate-averaged estimates)."""
        rows = np.stack(
            [
                self.estimates["running"],
                self.estimates["window"],
                self.estimates["discounted"],
                self.ci_low,
                self.ci_high,
                self.change_flags,
            ],
            axis=1,
            dtype=np.float64,
        )
        return [
            _round_record(t, population, num_nodes, means)
            for t, (population, num_nodes, means) in enumerate(
                zip(self.population.tolist(), self.num_nodes.tolist(), _track_means(rows))
            )
        ]

    def summary(self) -> dict[str, Any]:
        """Run-level synopsis: final estimates, errors, detections."""
        density = self.true_density
        final = {name: float(values[-1].mean()) for name, values in self.estimates.items()}
        errors = {
            name: float(
                np.mean(np.abs(values.mean(axis=1) - density) / np.maximum(density, 1e-12))
            )
            for name, values in self.estimates.items()
        }
        per_replicate = self.change_rounds()
        all_rounds = sorted(r for rounds in per_replicate for r in rounds)
        return {
            "scenario": self.scenario.name,
            "rounds": self.rounds,
            "replicates": self.replicates,
            "final_true_density": float(density[-1]),
            "final_estimates": final,
            "mean_relative_error": errors,
            "change_rounds": per_replicate,
            "total_changes_flagged": len(all_rounds),
        }


def _result_from_tracker(
    scenario: Scenario, tracker: _DynamicsTracker
) -> ScenarioRunResult:
    ci_low, ci_high = chernoff_interval(
        tracker.estimates["window"], tracker.window_mass, tracker.params.delta
    )
    return ScenarioRunResult(
        scenario=scenario,
        replicates=tracker.tracks,
        population=tracker.population,
        num_nodes=tracker.num_nodes,
        estimates=tracker.estimates,
        ci_low=ci_low,
        ci_high=ci_high,
        change_flags=tracker.change_flags,
    )


def _base_config(scenario: Scenario, tracker: _DynamicsTracker) -> SimulationConfig:
    return SimulationConfig(
        num_agents=scenario.num_agents,
        rounds=scenario.rounds,
        placement=scenario.build_placement(),
        marked_fraction=0.0,
        collision_model=scenario.build_noise(),
        movement=scenario.build_movement(),
        round_hook=tracker,
    )


def track_scenario(
    scenario: Scenario,
    seed: SeedLike = None,
    *,
    on_round: Optional[RoundListener] = None,
) -> ScenarioRunResult:
    """Run one replicate of ``scenario`` on the kernel's serial mode."""
    tracker = _DynamicsTracker(scenario, tracks=1, on_round=on_round)
    run_kernel(scenario.build_topology(), _base_config(scenario, tracker), None, seed)
    return _result_from_tracker(scenario, tracker)


def track_scenario_batch(
    scenario: Scenario,
    replicates: int,
    seed: SeedLike = None,
    *,
    on_round: Optional[RoundListener] = None,
) -> ScenarioRunResult:
    """Run ``replicates`` independent copies of ``scenario`` as one matrix simulation.

    The whole replicate batch advances through the round loop together —
    churn, shocks, and rewiring included — so dynamic scenarios inherit
    the batched engine's throughput. ``on_round`` (see :data:`RoundListener`)
    streams each completed round's batch-averaged record without touching
    the simulation stream.
    """
    require_integer(replicates, "replicates", minimum=1)
    tracker = _DynamicsTracker(scenario, tracks=replicates, on_round=on_round)
    run_kernel(
        scenario.build_topology(), _base_config(scenario, tracker), replicates, seed
    )
    return _result_from_tracker(scenario, tracker)


class _ChunkRelay:
    """Forward a chunk's per-round records to a listener with chunk context.

    ``run_scenario`` executes a replicate request as several batched chunks;
    the relay stamps each streamed record with which chunk (and how many
    replicates of it) the averages cover, so a consumer can tell the chunks
    of one run apart without guessing from round numbers resetting.
    """

    def __init__(
        self, on_round: RoundListener, chunk: int, chunks: int, chunk_replicates: int
    ):
        self.on_round = on_round
        self.chunk = chunk
        self.chunks = chunks
        self.chunk_replicates = chunk_replicates

    def __call__(self, record: dict) -> None:
        self.on_round(
            {
                **record,
                "chunk": self.chunk,
                "chunks": self.chunks,
                "chunk_replicates": self.chunk_replicates,
            }
        )


def _batched_chunk_task(
    scenario: Scenario,
    replicates: int,
    on_round: Optional[RoundListener] = None,
    *,
    rng: np.random.Generator,
) -> ScenarioRunResult:
    """Scheduler task: one batched chunk of a scenario run (picklable)."""
    return track_scenario_batch(scenario, replicates, rng, on_round=on_round)


def run_scenario(
    scenario: Scenario,
    *,
    replicates: int = 8,
    engine: ExecutionEngine | None = None,
    seed: SeedLike = 0,
    on_round: Optional[RoundListener] = None,
) -> ScenarioRunResult:
    """Run a scenario's replicates through the execution engine's scheduler.

    Replicates are grouped into fixed chunks of :data:`CHUNK_REPLICATES`
    (each chunk is one batched matrix simulation) and the chunks are fanned
    out over the engine's worker processes. A ``replicates`` count that is
    not a multiple of the chunk size is **exact, never rounded**: the
    remainder runs as one final smaller chunk, so the result always holds
    precisely ``replicates`` tracks (validated below). Chunk layout and
    chunk seeds are pure functions of ``(replicates, seed)``, so the
    assembled records are bit-identical for every worker count. Every
    catalog movement model is batch-safe, so every chunk takes the batched
    matrix path; a non-batch-safe custom model is rejected by the kernel's
    capability check with a message naming it.
    """
    require_integer(replicates, "replicates", minimum=1)
    engine = engine or ExecutionEngine()
    if on_round is not None and engine.workers != 1:
        raise ValueError(
            "on_round streaming needs an in-process engine (workers=1): a "
            "round listener cannot cross the scheduler's process boundary"
        )

    chunk = CHUNK_REPLICATES
    sizes = [chunk] * (replicates // chunk)
    if replicates % chunk:
        sizes.append(replicates % chunk)

    settings: list[dict[str, Any]] = [
        {"scenario": scenario, "replicates": size} for size in sizes
    ]
    if on_round is not None:
        # Chunk seeds come from the plan index alone, so adding the relay to
        # the settings changes nothing about any chunk's random stream.
        for index, setting in enumerate(settings):
            setting["on_round"] = _ChunkRelay(
                on_round, index, len(sizes), setting["replicates"]
            )
    chunks: list[ScenarioRunResult] = engine.map(_batched_chunk_task, settings, seed)

    merged = ScenarioRunResult(
        scenario=scenario,
        replicates=replicates,
        population=chunks[0].population,
        num_nodes=chunks[0].num_nodes,
        estimates={
            name: np.concatenate([c.estimates[name] for c in chunks], axis=1)
            for name in chunks[0].estimates
        },
        ci_low=np.concatenate([c.ci_low for c in chunks], axis=1),
        ci_high=np.concatenate([c.ci_high for c in chunks], axis=1),
        change_flags=np.concatenate([c.change_flags for c in chunks], axis=1),
    )
    for other in chunks[1:]:
        if not (
            np.array_equal(other.population, merged.population)
            and np.array_equal(other.num_nodes, merged.num_nodes)
        ):  # pragma: no cover - the event schedule is deterministic
            raise RuntimeError("scenario chunks disagree on the environment timeline")
    # The chunk layout above must account for every requested replicate —
    # a remainder may never be silently rounded away (or padded up).
    assembled = merged.change_flags.shape[1]
    if assembled != replicates:  # pragma: no cover - guarded by the layout above
        raise RuntimeError(
            f"chunk layout produced {assembled} replicates for a request of {replicates}"
        )
    return merged


__all__ = [
    "CHUNK_REPLICATES",
    "RoundListener",
    "TrackingParameters",
    "ScenarioRunResult",
    "track_scenario",
    "track_scenario_batch",
    "run_scenario",
]

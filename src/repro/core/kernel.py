"""The one vectorized simulation kernel behind every execution path.

:func:`run_kernel` runs Algorithm 1 for every agent, in one of two modes:

* ``replicates=None`` — **serial mode**. The state arrays have shape
  ``(n,)``, placement/marking/movement/noise draw from the generator in a
  fixed order (pinned by the golden fixtures in
  ``tests/baselines/kernel_golden.json``), and per-round hooks observe
  ``(n,)`` arrays — the :class:`~repro.core.simulation.RoundState`
  contract.
* ``replicates=R`` — **batched mode**. All replicates advance through the
  round loop together as an ``(R, n)`` position matrix; one offset-label
  pass counts collisions for every replicate at once
  (:func:`repro.core.encounter.batched_collision_counts`).

Both modes share every line of the loop body: collision counting always
runs through the batched primitives (serial mode views its ``(n,)`` vector
as one ``(1, n)`` replicate), so there is exactly one place where a round
happens.

Capability checking lives here too: batched mode requires movement and
observation models to declare ``batch_safe = True`` (their array operations
must be elementwise over the replicate axis so that no information leaks
*between* replicates — mixing across agents of one replicate is fine, which
is how :class:`~repro.walks.movement.CollisionAvoidingWalk` batches).
:func:`require_batch_safe` is the single guard; the per-call-site
``getattr(model, "batch_safe", False)`` checks it replaced are gone.
Serial mode accepts any model — with one replicate there is nothing to
leak into.

The loop body itself exists in two interchangeable **backends**:

* ``backend="reference"`` — the loop in this module: the historical
  implementation, deliberately simple, counting through the sort-based
  ``np.unique`` primitives. It is the semantic baseline every optimisation
  is checked against.
* ``backend="fused"`` — the fast path in :mod:`repro.core.fastpath`:
  linear-time ``np.bincount`` collision counting, chunked multi-round RNG
  draws for ``precomputed_steps`` topologies, precomputed displacement
  tables, and reused scratch buffers. **Bit-identical** to the reference
  backend — same random stream, same results — which the equivalence suite
  and the golden fixtures pin.
* ``backend="auto"`` (the default) — currently always selects the fused
  path; its internal heuristics (the unique-vs-bincount crossover, the
  table amortisation test, chunk eligibility) degrade gracefully to
  reference-equivalent behaviour feature by feature, so there is no
  workload where choosing it loses.
* ``backend="analytic"`` — no simulation at all: :mod:`repro.core.analytic`
  *solves* the encounter process (sparse transition-matrix convolution /
  closed forms) and returns deterministic expectation containers, ``O(1)``
  in the replicate count. Exact but **not bit-identical** to the simulating
  backends — it returns the law of the process, not a draw — and only
  valid on the solvable combos; everything else raises
  :class:`~repro.core.analytic.AnalyticUnsupportedError`.

``backend=None`` and ``shard_workers=None`` resolve to the current
:class:`RunContext`, which the CLI builds from ``--backend`` and
``--shard-workers`` and installs with :func:`use_run_context`. The context
lives in a :class:`contextvars.ContextVar`, so it is scoped to one thread's
call stack: whoever crosses a thread or process boundary (the scheduler's
worker processes, the serve daemon's job threads) passes it explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from repro.core.encounter import batched_collision_counts, batched_collision_profiles
from repro.core.simulation import (
    RoundState,
    SimulationConfig,
    SimulationResult,
    apply_round_hook,
)
from repro.obs.telemetry import get_telemetry
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer

#: The selectable kernel backends; see the module docstring.
KERNEL_BACKENDS = ("auto", "reference", "fused", "analytic")


def _validated_backend(backend: str) -> str:
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class RunContext:
    """The run settings :func:`run_kernel` reads when its arguments are ``None``.

    Attributes
    ----------
    backend:
        One of :data:`KERNEL_BACKENDS` (default ``"auto"``).
    shard_workers:
        ``None`` (default) keeps the single-threaded kernel; an integer
        ``K >= 1`` shards batched fused calls (:mod:`repro.core.shardpath`).
    """

    backend: str = "auto"
    shard_workers: Optional[int] = None

    def __post_init__(self) -> None:
        _validated_backend(self.backend)
        if self.shard_workers is not None:
            require_integer(self.shard_workers, "shard_workers", minimum=1)

    def key_fields(self) -> dict[str, str]:
        """The cache-key fields of the settings that change records.

        The one rule every cache key folds in. The simulating backends are
        bit-identical, so they add nothing. ``analytic`` returns the law of
        the process instead of a draw (and ignores sharding), and a sharded
        run seeds each replicate row from its own SeedSequence child instead
        of one shared stream; the shard *count* never changes records. The
        default context adds nothing, so default keys stay stable.
        """
        if self.backend == "analytic":
            return {"backend": "analytic"}
        if self.shard_workers is not None:
            return {"rng_discipline": "sharded"}
        return {}


_RUN_CONTEXT: ContextVar[RunContext] = ContextVar("repro_run_context", default=RunContext())


def current_run_context() -> RunContext:
    """The :class:`RunContext` installed in this thread's call stack."""
    return _RUN_CONTEXT.get()


@contextmanager
def use_run_context(context: RunContext) -> Iterator[RunContext]:
    """Install ``context`` for the duration of a ``with`` block."""
    token = _RUN_CONTEXT.set(context)
    try:
        yield context
    finally:
        _RUN_CONTEXT.reset(token)


def require_batch_safe(model: Any, role: str = "model") -> None:
    """Raise unless ``model`` declares itself safe for ``(R, n)`` batching.

    The single capability check of the kernel (and of anything else that
    wants to fan a model across a replicate axis). A model is batch-safe
    when its array operations never mix information *between* replicates —
    elementwise operations trivially qualify, and so do cross-agent
    operations that treat each leading-axis row independently.

    Parameters
    ----------
    model:
        The movement or observation model about to be batched.
    role:
        Human-readable role used in the error message (``"movement
        model"``, ``"collision model"``, ...).

    Raises
    ------
    ValueError
        Naming the offending model, when ``batch_safe`` is absent or falsy.
    """
    if not getattr(model, "batch_safe", False):
        name = getattr(model, "name", None) or type(model).__name__
        raise ValueError(
            f"{role} {name!r} does not declare batch_safe=True: its array "
            "operations may mix information across the replicate axis, which "
            "would leak between the independent replicates of a batched "
            "simulation. Mark the model batch_safe once its operations treat "
            "each replicate row independently, or run the workload through "
            "the engine scheduler (one process per replicate) instead."
        )


@dataclass
class BatchSimulationResult:
    """Raw outcome of a batched :func:`run_kernel` call.

    All per-agent arrays carry a leading replicate axis: shape ``(R, n)``
    where :class:`~repro.core.simulation.SimulationResult` has ``(n,)``.
    Use :meth:`replicate` to view one replicate in the legacy single-run
    format.
    """

    collision_totals: np.ndarray
    marked_collision_totals: np.ndarray
    marked: np.ndarray
    initial_positions: np.ndarray
    final_positions: np.ndarray
    rounds: int
    num_nodes: int
    trajectory: np.ndarray | None = None
    marked_trajectory: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def replicates(self) -> int:
        return int(self.collision_totals.shape[0])

    @property
    def num_agents(self) -> int:
        return int(self.collision_totals.shape[1])

    @property
    def true_density(self) -> float:
        """The paper's density ``d = n / A`` (identical across replicates)."""
        return (self.num_agents - 1) / self.num_nodes

    def estimates(self) -> np.ndarray:
        """Per-agent density estimates ``d̃ = c / t``, shape ``(R, n)``."""
        return self.collision_totals / self.rounds

    def marked_estimates(self) -> np.ndarray:
        """Per-agent marked-density estimates ``d̃_P = c_P / t``, shape ``(R, n)``."""
        return self.marked_collision_totals / self.rounds

    def replicate(self, index: int) -> SimulationResult:
        """The ``index``-th replicate as a single-run :class:`SimulationResult`."""
        r = range(self.replicates)[index]  # normalises negative indices, bounds-checks
        return SimulationResult(
            collision_totals=self.collision_totals[r],
            marked_collision_totals=self.marked_collision_totals[r],
            marked=self.marked[r],
            initial_positions=self.initial_positions[r],
            final_positions=self.final_positions[r],
            rounds=self.rounds,
            num_nodes=self.num_nodes,
            trajectory=None if self.trajectory is None else self.trajectory[:, r, :],
            marked_trajectory=(
                None if self.marked_trajectory is None else self.marked_trajectory[:, r, :]
            ),
            metadata=dict(self.metadata, replicate=r),
        )


def _place_agents(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial positions with the mode's shape: ``(n,)`` serial, ``(R, n)`` batched."""
    n_agents = config.num_agents
    if config.placement is None:
        if replicates is None:
            positions = topology.uniform_nodes(n_agents, rng)
        else:
            positions = topology.uniform_nodes((replicates, n_agents), rng)
    else:
        rows = [
            _placed_row(topology, config, rng)
            for _ in range(1 if replicates is None else replicates)
        ]
        # Serial mode must own its positions array: a placement callable may
        # return (and retain) its own buffer, and the fused backend steps
        # positions in place — without the copy it would corrupt the
        # caller's array. Batched mode already copies via np.stack.
        positions = rows[0].copy() if replicates is None else np.stack(rows)
    positions = np.asarray(positions, dtype=np.int64)
    topology.validate_nodes(positions)
    return positions


def _placed_row(
    topology: Topology, config: SimulationConfig, rng: np.random.Generator
) -> np.ndarray:
    """One agent set drawn by ``config.placement``, checked to be ``(n,)``."""
    n_agents = config.num_agents
    row = np.asarray(config.placement(topology, n_agents, rng), dtype=np.int64)
    if row.shape != (n_agents,):
        raise ValueError(f"placement must return shape ({n_agents},), got {row.shape}")
    return row


def _build_result(
    serial: bool,
    replicates: Optional[int],
    topology: Topology,
    config: SimulationConfig,
    totals: np.ndarray,
    marked_totals: np.ndarray,
    marked: np.ndarray,
    initial_positions: np.ndarray,
    final_positions: np.ndarray,
    trajectory: np.ndarray | None,
    marked_trajectory: np.ndarray | None,
) -> SimulationResult | BatchSimulationResult:
    """Assemble the mode's result container (shared by both backends)."""
    if serial:
        return SimulationResult(
            collision_totals=totals,
            marked_collision_totals=marked_totals,
            marked=marked,
            initial_positions=initial_positions,
            final_positions=final_positions,
            rounds=config.rounds,
            num_nodes=topology.num_nodes,
            trajectory=trajectory,
            marked_trajectory=marked_trajectory,
            metadata={"topology": topology.name},
        )
    return BatchSimulationResult(
        collision_totals=totals,
        marked_collision_totals=marked_totals,
        marked=marked,
        initial_positions=initial_positions,
        final_positions=final_positions,
        rounds=config.rounds,
        num_nodes=topology.num_nodes,
        trajectory=trajectory,
        marked_trajectory=marked_trajectory,
        metadata={"topology": topology.name, "replicates": replicates},
    )


def run_kernel(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int] = None,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    shard_workers: Optional[int] = None,
) -> SimulationResult | BatchSimulationResult:
    """Run Algorithm 1 for every agent — serially or for ``R`` replicates at once.

    Parameters
    ----------
    topology:
        Topology to walk on; any :class:`~repro.topology.Topology` (their
        ``step_many`` implementations are shape-polymorphic).
    config:
        Simulation parameters; see :class:`~repro.core.simulation.SimulationConfig`.
    replicates:
        ``None`` (serial mode) runs one simulation with legacy ``(n,)``
        state arrays and the legacy random stream. An integer ``R >= 1``
        (batched mode) carries all replicates through the round loop as one
        ``(R, n)`` matrix; ``movement`` and ``collision_model`` hooks must
        then pass :func:`require_batch_safe`. The replicates draw from one
        shared stream, so they are deterministic given the seed and
        mutually independent.
    seed:
        Seed or generator controlling all randomness (placement, walks,
        property assignment, and observation noise).
    backend:
        ``"reference"``, ``"fused"``, ``"auto"``, or ``"analytic"``;
        ``None`` (the default) resolves to the current :class:`RunContext`'s
        backend (normally ``"auto"``). The simulating backends are
        bit-identical — the choice only affects wall-clock. ``"analytic"`` instead *solves*
        the process (:mod:`repro.core.analytic`): deterministic expectation
        containers, ``O(1)`` in ``replicates``, equivalent to the
        simulating backends only in distribution (tolerance-based checks,
        never ``cmp``).
    shard_workers:
        ``None`` (default; falls back to the current
        :class:`RunContext`'s ``shard_workers``) keeps the single-threaded
        kernel. An integer ``K >= 1`` runs batched fused calls as
        ``min(K, R)`` contiguous replicate-row shards on a pool
        (:mod:`repro.core.shardpath`): results are **bit-identical for
        every K** — each replicate row is seeded from its own
        SeedSequence child, so they differ from the unsharded
        shared-stream results. Requires a simulating, non-reference
        backend; serial mode and ``round_hook`` configs fall back to the
        unsharded fused loop for every ``K``.

    Returns
    -------
    SimulationResult | BatchSimulationResult
        Serial mode returns the single-run container; batched mode the
        ``(R, n)`` container.
    """
    serial = replicates is None
    context = _RUN_CONTEXT.get()
    resolved = context.backend if backend is None else _validated_backend(backend)
    shards = context.shard_workers if shard_workers is None else shard_workers
    if shards is not None:
        require_integer(shards, "shard_workers", minimum=1)
        if resolved == "reference":
            raise ValueError(
                "shard_workers requires a fused backend: the reference loop "
                "is the deliberately simple semantic baseline and stays "
                "single-threaded. Use backend='fused' (or 'auto') for "
                "sharded runs."
            )
    if not serial:
        require_integer(replicates, "replicates", minimum=1)
        if resolved != "analytic":
            if config.movement is not None:
                require_batch_safe(config.movement, "movement model")
            if config.collision_model is not None:
                require_batch_safe(config.collision_model, "collision model")

    tel = get_telemetry()
    if tel.enabled:
        tel.counter(
            "kernel.runs", backend=resolved, mode="serial" if serial else "batched"
        )
    if resolved == "analytic":
        # No simulation: solve the process exactly. The analytic module
        # validates the combo and raises AnalyticUnsupportedError (naming
        # the offender) outside its solvable regime, so batch-safety checks
        # are moot here — nothing is batched. shard_workers is ignored:
        # the solver is O(1) in replicates, there is nothing to shard.
        from repro.core.analytic import run_analytic  # deferred: analytic imports us

        return run_analytic(topology, config, replicates, seed)
    if resolved != "reference":
        # "auto" and "fused" both run the fast path; its internal
        # heuristics make the per-feature choices (see fastpath docstring).
        if shards is not None:
            from repro.core.shardpath import run_sharded  # deferred: shardpath imports us

            return run_sharded(topology, config, replicates, seed, shards)
        from repro.core.fastpath import run_fused  # deferred: fastpath imports us

        return run_fused(topology, config, replicates, seed)

    if tel.enabled:
        # The reference loop has no counting crossover: it is always the
        # sort-based np.unique path.
        tel.counter("kernel.counting_path", backend="reference", path="unique")

    rng = as_generator(seed)
    positions = _place_agents(topology, config, replicates, rng)
    shape = positions.shape
    initial_positions = positions.copy()

    if config.marked_fraction > 0.0:
        marked = rng.random(shape) < config.marked_fraction
    else:
        marked = np.zeros(shape, dtype=bool)
    track_marked = bool(marked.any())

    totals = np.zeros(shape, dtype=np.float64)
    marked_totals = np.zeros(shape, dtype=np.float64)

    trajectory = (
        np.zeros((config.rounds, *shape), dtype=np.float64)
        if config.record_trajectory
        else None
    )
    marked_trajectory = (
        np.zeros((config.rounds, *shape), dtype=np.float64)
        if (config.record_trajectory and track_marked)
        else None
    )

    # Loop-invariant work hoisted out of the steady-state rounds: the
    # num_nodes lookup and the decision whether positions need a per-round
    # label-range check. Placement was validated above; topology steps and
    # catalog movement models (``emits_valid_nodes``) produce in-range
    # labels by construction; apply_round_hook re-validates after every
    # hook mutation. Only foreign movement models keep the per-round scan.
    num_nodes = topology.num_nodes
    hoisted_validation = config.movement is None or getattr(
        config.movement, "emits_valid_nodes", False
    )

    for round_index in range(config.rounds):
        if config.movement is not None:
            positions = np.asarray(config.movement.step(topology, positions, rng), dtype=np.int64)
        else:
            positions = topology.step_many(positions, rng)
        # Counting is shared between the modes: serial mode views its (n,)
        # vector as a single replicate row. No randomness is involved, so
        # the round's stream is untouched either way.
        matrix = positions.reshape(-1, positions.shape[-1])
        if track_marked:
            counts, marked_counts = batched_collision_profiles(
                matrix, marked.reshape(matrix.shape), num_nodes,
                assume_validated=hoisted_validation,
            )
            marked_totals += marked_counts.reshape(shape)
            if marked_trajectory is not None:
                marked_trajectory[round_index] = marked_totals
        else:
            counts = batched_collision_counts(
                matrix, num_nodes, assume_validated=hoisted_validation
            )
        counts = counts.reshape(positions.shape)
        if config.collision_model is not None:
            observed = np.asarray(config.collision_model.observe(counts, rng), dtype=np.float64)
            if observed.shape != counts.shape:
                raise ValueError(
                    "collision_model.observe must preserve the shape of its input"
                )
            totals += observed
        elif config.round_hook is not None:
            # The hook contract hands over a fresh float observed array
            # every round (hooks may retain it), so the conversion cannot
            # be elided here the way it is below.
            observed = counts.astype(np.float64)
            totals += observed
        else:
            # No model and no hook observes this round's float view, so
            # accumulate the integer counts directly — np.add applies the
            # same exact int64→float64 conversion the astype produced,
            # without materialising a per-round temporary.
            observed = None
            np.add(totals, counts, out=totals)

        if trajectory is not None:
            trajectory[round_index] = totals

        if config.round_hook is not None:
            state = apply_round_hook(
                config.round_hook,
                RoundState(
                    topology=topology,
                    positions=positions,
                    totals=totals,
                    marked=marked,
                    marked_totals=marked_totals,
                    observed=observed,
                    round_index=round_index,
                    rng=rng,
                ),
            )
            if not serial and (
                state.positions.ndim != 2 or state.positions.shape[0] != replicates
            ):
                raise ValueError(
                    "round_hook must preserve the replicate axis: expected "
                    f"({replicates}, n) arrays, got shape {state.positions.shape}"
                )
            topology = state.topology
            positions = state.positions
            totals = state.totals
            marked = state.marked
            marked_totals = state.marked_totals
            shape = positions.shape
            # Re-arm the hoisted invariants: the hook may have swapped the
            # topology (apply_round_hook already validated positions on it).
            num_nodes = topology.num_nodes

    return _build_result(
        serial,
        replicates,
        topology,
        config,
        totals,
        marked_totals,
        marked,
        initial_positions,
        positions,
        trajectory,
        marked_trajectory,
    )


__all__ = [
    "BatchSimulationResult",
    "KERNEL_BACKENDS",
    "RunContext",
    "current_run_context",
    "require_batch_safe",
    "run_kernel",
    "use_run_context",
]

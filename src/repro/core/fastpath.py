"""The fused kernel fast path: linear-time counting, chunked RNG, cache-sized tiles.

:func:`repro.core.kernel.run_kernel` is the one round loop behind every
experiment, sweep cell, and dynamics scenario, so a constant-factor win here
multiplies across the whole repository. This module is the
``backend="fused"`` implementation of that loop (and what ``backend="auto"``,
the default, currently selects). It stacks three optimisations on the
reference loop, all **bit-identical** to it — same random stream, same
results, pinned by the golden fixtures and the equivalence suite:

1. **Linear-time collision counting.** The reference loop counts collisions
   with an ``np.unique`` sort over all ``R·n`` offset labels —
   O(R·n log(R·n)) per round. The paper's ``count(position)`` primitive
   only needs O(R·n + R·A): scatter-add the labels into a flat offset-label
   space with ``np.bincount`` and gather each agent's node count back.
   :func:`repro.core.encounter.linear_counting_is_faster` is the measured
   crossover heuristic (dense grids → bincount, huge sparse grids → sort;
   the crossover grid in ``benchmarks/bench_core_primitives.py`` pins it),
   and :func:`repro.core.encounter.linear_counting_block_rows` is the
   memory plan: one ``R·A`` space when it fits the 128 MiB budget, row
   blocks that each fit it otherwise.

2. **Chunked RNG + fused stepping.** Topologies declaring the
   ``precomputed_steps`` capability (:class:`~repro.topology.Torus2D`,
   :class:`~repro.topology.TorusKD`, :class:`~repro.topology.Ring`,
   :class:`~repro.topology.Hypercube`,
   :class:`~repro.topology.BoundedGrid`,
   :class:`~repro.topology.CompleteGraph`) factor their walk step into
   ``draw_steps`` (randomness) + ``apply_steps`` (pure displacement). When
   nothing else consumes the per-round stream (no observation noise, no
   round hook; the movement model, if any, must itself declare
   ``precomputed_steps``), the fast path draws K rounds of step choices at
   a time as one ``(K, R, n)`` array — NumPy's bounded-integer samplers
   fill elements sequentially in C order, so the chunked draw consumes the
   stream bit-identically to K per-round draws. Steps are applied through a
   precomputed ``(A, C)`` displacement table (one gather per round) when
   the table fits the budget *and* its build cost amortises over the run.
   Topologies whose per-round draw interleaves several generator calls
   (``TorusKD``) keep a per-round chunk fill — bit-identity is
   non-negotiable, not distributional.

3. **Cache-sized tiles.** The loop runs window → tile → round. A *window*
   is one chunk refill (a single round when a noise model, a round hook or
   a per-round movement draw couples the batch). A *tile* is a block of
   replicate rows whose ``tile_rows·A`` int64 scatter space fits
   :data:`TILE_BUDGET_BYTES` (at least one row, at most the memory plan's
   block), and each tile runs every round of the window — step, bincount
   in its own small label space, accumulate, trajectory rows — before the
   next tile starts, so the per-round bincount zeroes, scatters and
   gathers in cache instead of streaming an ``R·A`` array from memory.
   Rows never interact inside a chunkable window, and the window's draws
   are taken before any tile runs, so the reordering is bit-identical.
   Coupled runs are one whole-batch tile, counted in tile-sized blocks.
   Label / count / step-index scratch buffers are tile-sized and reused;
   the ``topology.num_nodes`` lookup, offset labels, and label-range
   validation are hoisted out of the loop (validation runs once after
   placement and after every ``round_hook`` mutation — and per round only
   for foreign movement models that do not declare ``emits_valid_nodes``).
   A ``round_hook`` that swaps the topology or reshapes the state re-arms
   all of this invariant state.

4. **One loop, two seed disciplines.** Every draw goes through one seam:
   :class:`_SharedStream` (the whole batch draws from one generator, as
   the reference loop does; a window is drawn for the whole batch before
   its tiles run) or :class:`_RowStreams` (one generator per replicate
   row; each tile draws its own rows for windows sized from the tile),
   with which :mod:`repro.core.shardpath` runs this same loop on each
   shard's row slice.

Contracts preserved exactly:

* a ``collision_model`` receives a **fresh** counts array each round (a
  model may retain its input; reference semantics);
* a ``round_hook`` receives a **fresh** ``observed`` array each round and
  fresh ``positions`` (never an in-place-reused step buffer), so hooks may
  retain state snapshots exactly as they could under the reference loop;
* chunked RNG and tiling switch off whenever a hook or observation model
  interleaves its own draws with the movement draws.

Backend selection order: ``run_kernel`` dispatches ``backend="analytic"``
to :mod:`repro.core.analytic` *before* reaching this module — the analytic
engine replaces the round loop wholesale (no simulation), so none of the
per-feature heuristics here apply to it. Every simulating resolution
(``auto``/``fused``) lands here and makes its choices per feature as
described above.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core import encounter
from repro.core.encounter import (
    batched_collision_counts,
    batched_collision_profiles,
    linear_counting_block_rows,
)
from repro.core.kernel import _build_result, _place_agents, _placed_row
from repro.core.simulation import (
    RoundState,
    SimulationConfig,
    apply_round_hook,
)
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator

#: Hard cap on the elements of one precomputed displacement table (A·C
#: int64 entries). Tables beyond it would not fit hot cache levels anyway.
TABLE_BUDGET_ELEMENTS = 1 << 22

#: A displacement table costs ~A·C element writes to build; it saves work
#: proportional to rounds·R·n. Build only when the saving clearly covers
#: the build (small serial runs on huge topologies must not pay for a
#: table they barely use).
TABLE_AMORTISATION_FACTOR = 4

#: Upper bound on the elements of one chunked draw buffer: the shared
#: stream's whole-batch ``(K, R, n)`` window, or one tile's
#: ``(K, tile_rows, n)`` window under per-row streams.
CHUNK_BUDGET_ELEMENTS = 1 << 21

#: Upper bound on one tile's ``tile_rows·A`` int64 scatter space, so each
#: round's bincount zeroes, scatters and gathers in cache: half of a core's
#: 2 MiB L2 on the 2-vCPU Intel Xeon it was tuned on, where 512 KiB and
#: 2 MiB tiles measured slower.
TILE_BUDGET_BYTES = 1 << 20


def build_step_table(topology: Topology) -> Optional[np.ndarray]:
    """Flat displacement table ``t[a * C + c] = apply_steps(a, c)``, or ``None``.

    Tabulates the topology's pure displacement function over every
    ``(node, choice)`` pair — by calling :meth:`~repro.topology.base.Topology.apply_steps`
    itself, so the table cannot drift from the walk it replaces. Returns
    ``None`` when the topology lacks the ``precomputed_steps`` capability
    or the table would blow :data:`TABLE_BUDGET_ELEMENTS`.
    """
    choices = topology.num_step_choices
    if choices is None:
        return None
    num_nodes = topology.num_nodes
    if num_nodes * choices > TABLE_BUDGET_ELEMENTS:
        return None
    nodes = np.arange(num_nodes, dtype=np.int64)
    table = np.empty((num_nodes, choices), dtype=np.int64)
    for choice in range(choices):
        table[:, choice] = topology.apply_steps(
            nodes, np.full(num_nodes, choice, dtype=np.int64)
        )
    return np.ascontiguousarray(table.reshape(-1))


def _rows(array: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of a batched array; a serial ``(n,)`` array is its own only row."""
    return array[lo:hi] if array.ndim == 2 else array


class _Tile:
    """Rows ``[lo, hi)`` of the live state and the scratch views a round needs for them.

    Built once per window for a chunkable tile — its positions are stepped
    in place, so every view stays valid for each round of the window — and
    once per block and round for a coupled batch.
    """

    __slots__ = (
        "positions", "index", "weights", "offsets", "labels", "flat", "space",
        "counts", "flat_weights", "marked_counts",
    )


class _ArmedLoop:
    """Loop-invariant state of the fused round loop.

    Everything here is computed once per arming — the ``topology.num_nodes``
    lookup, the counting plan and tile size, the replicate offset labels,
    the displacement table, and every scratch buffer — and re-armed only
    when a ``round_hook`` swaps the topology or reshapes the live state
    arrays.

    ``batch_rows`` is the whole batch's row count when ``shape`` is a row
    slice of it: the table, counting-plan and tile-size decisions are taken
    for the batch, so every slice makes the same ones; buffers fit the
    slice.
    """

    def __init__(
        self,
        topology: Topology,
        shape: tuple[int, ...],
        config: SimulationConfig,
        rounds_left: int,
        batch_rows: Optional[int] = None,
    ):
        self.topology = topology
        self.shape = shape
        self.num_nodes = topology.num_nodes
        rows = shape[0] if len(shape) == 2 else 1
        self.batch_rows = rows if batch_rows is None else batch_rows
        agents = shape[-1]
        movement = config.movement

        #: Catalog movement models declare ``emits_valid_nodes``; for them
        #: (and for the plain topology walk) label-range validation is
        #: hoisted out of the loop entirely. Foreign models keep a
        #: per-round ``validate_nodes`` — out-of-range labels would
        #: otherwise alias across replicate blocks in the linear counter.
        self.validate_each_round = movement is not None and not getattr(
            movement, "emits_valid_nodes", False
        )

        #: Whether the movement randomness is exactly the topology's own
        #: step draw, so the draw/apply decomposition applies.
        self.steps_precomputable = bool(
            getattr(topology, "precomputed_steps", False)
            and (movement is None or getattr(movement, "precomputed_steps", False))
        )

        #: Chunked RNG: legal only when the movement draw is the *only*
        #: consumer of per-round randomness — noise models and hooks
        #: interleave their own draws with the movement draws, and
        #: reordering those would break the bit-identity stream contract.
        self.chunkable = (
            config.round_hook is None
            and config.collision_model is None
            and self.steps_precomputable
        )

        self.choices = topology.num_step_choices if self.steps_precomputable else None
        self.table: Optional[np.ndarray] = None
        if self.steps_precomputable and self.choices is not None:
            build_cost = self.num_nodes * self.choices
            saving = rounds_left * max(self.batch_rows * agents, 1)
            if build_cost * TABLE_AMORTISATION_FACTOR <= saving:
                self.table = build_step_table(topology)

        # Counting plan: the measured unique-vs-bincount crossover with the
        # memory cap as a row-block plan (0 = sort path). The linear path
        # counts one tile at a time in the tile's own label space, so a
        # tile never exceeds the plan's block. The sort path has no scatter
        # space to fit in cache and runs as one whole-batch tile. Budgets
        # are read through the module attributes so tests can shrink them.
        self.block_rows = linear_counting_block_rows(
            self.batch_rows,
            agents,
            self.num_nodes,
            memory_budget_bytes=encounter.LINEAR_COUNTING_MEMORY_BUDGET_BYTES,
        )
        if self.block_rows:
            self.tile_rows = max(
                1, min(self.block_rows, TILE_BUDGET_BYTES // (8 * self.num_nodes))
            )
        else:
            self.tile_rows = self.batch_rows
        # Chunkable runs step, count and accumulate tile by tile; a coupled
        # run is one whole-slice tile that the counter splits into blocks.
        span = self.tile_rows if self.chunkable else rows
        self.tiles = [(lo, min(lo + span, rows)) for lo in range(0, rows, span)]
        scratch_shape = (min(span, rows), agents) if len(shape) == 2 else shape
        self.index_buf = (
            np.empty(scratch_shape, dtype=np.int64) if self.table is not None else None
        )
        if self.block_rows:
            block = min(self.tile_rows, rows)
            if block > 1:
                self.offsets = (
                    np.arange(block, dtype=np.int64) * np.int64(self.num_nodes)
                )[:, None]
                self.label_buf = np.empty((block, agents), dtype=np.int64)
            self.count_buf = np.empty(scratch_shape, dtype=np.int64)
            self.marked_buf = (
                np.empty(scratch_shape, dtype=np.float64)
                if config.marked_fraction > 0.0
                else None
            )

    @property
    def counting_path(self) -> str:
        """The memory plan's telemetry label."""
        if not self.block_rows:
            return "unique"
        return "bincount" if self.block_rows >= self.batch_rows else "bincount-blocked"

    def tile(
        self,
        positions: np.ndarray,
        lo: int,
        hi: int,
        weights: Optional[np.ndarray],
        counts: Optional[np.ndarray] = None,
        marked_counts: Optional[np.ndarray] = None,
    ) -> _Tile:
        """Rows ``[lo, hi)`` of the live state ``positions`` and ``weights``.

        ``weights`` is the marked mask as float64 (``None`` when no agent
        is marked). Counts land in ``counts`` / ``marked_counts``, by
        default the armed scratch buffers.
        """
        tile = _Tile()
        rows = hi - lo
        tile.positions = _rows(positions, lo, hi)
        tile.index = None if self.index_buf is None else _rows(self.index_buf, 0, rows)
        tile.weights = None if weights is None else _rows(weights, lo, hi)
        if not self.block_rows:
            return tile
        # A block's first row has offset 0, so a one-row tile counts its
        # positions as they are.
        tile.offsets = None if rows == 1 else self.offsets[:rows]
        tile.labels = tile.positions if rows == 1 else self.label_buf[:rows]
        tile.flat = tile.labels.reshape(-1)
        tile.space = rows * self.num_nodes
        tile.counts = _rows(self.count_buf, 0, rows) if counts is None else counts
        if weights is not None:
            tile.flat_weights = tile.weights.reshape(-1)
            if marked_counts is None:
                marked_counts = _rows(self.marked_buf, 0, rows)
            tile.marked_counts = marked_counts
        return tile

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_precomputed(
        self,
        positions: np.ndarray,
        draws: np.ndarray,
        in_place: bool,
        index: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one round of drawn step choices (table gather when armed).

        ``in_place`` writes the new positions into ``positions`` (a tile is
        a view of the batch) instead of returning a fresh array; ``index``
        is the gather-index scratch of a tile (default: the whole slice's).
        """
        if self.table is None:
            # Per-row streams store draws narrow; a topology's own
            # displacement arithmetic gets them as int64.
            stepped = self.topology.apply_steps(positions, draws.astype(np.int64, copy=False))
            if in_place:
                np.copyto(positions, stepped)
                return positions
            return stepped
        if index is None:
            index = self.index_buf.reshape(positions.shape)
        np.multiply(positions, self.choices, out=index)
        np.add(index, draws, out=index)
        # Indices are in range by construction; "clip" skips the copy of
        # ``out`` that NumPy's default "raise" mode makes.
        return self.table.take(index, out=positions if in_place else None, mode="clip")

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count(self, tile: _Tile) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """One tile's per-agent collision counts, and marked counts when it has weights.

        The linear branch is the tile-sized, buffer-reusing form of
        :func:`repro.core.encounter.batched_collision_counts_linear` and
        :func:`~repro.core.encounter.batched_collision_profiles_linear` —
        those primitives are the tested specification (property-based
        equivalence in tests/test_fastpath.py), and the backend
        bit-identity battery pins this in-loop form against the reference
        backend, so the two cannot drift apart silently. Labels never
        cross rows, so a tile's ``rows·A`` space sees exactly what an
        ``R·A`` space would. Marked counts are exact integer-valued floats.
        """
        if not self.block_rows:
            shape = tile.positions.shape
            matrix = tile.positions.reshape(-1, shape[-1])
            if tile.weights is None:
                counts = batched_collision_counts(matrix, self.num_nodes, assume_validated=True)
                return counts.reshape(shape), None
            counts, marked_counts = batched_collision_profiles(
                matrix, tile.weights.reshape(matrix.shape), self.num_nodes, assume_validated=True
            )
            return counts.reshape(shape), marked_counts.reshape(shape)
        if tile.offsets is not None:
            np.add(tile.positions, tile.offsets, out=tile.labels)
        np.bincount(tile.flat, minlength=tile.space).take(tile.labels, out=tile.counts, mode="clip")
        np.subtract(tile.counts, 1, out=tile.counts)
        if tile.weights is None:
            return tile.counts, None
        per_node = np.bincount(tile.flat, weights=tile.flat_weights, minlength=tile.space)
        per_node.take(tile.labels, out=tile.marked_counts, mode="clip")
        np.subtract(tile.marked_counts, tile.weights, out=tile.marked_counts)
        return tile.counts, tile.marked_counts

    def count_batch(
        self, positions: np.ndarray, weights: Optional[np.ndarray], fresh: bool
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """A coupled round's counts for the whole live state, counted in tile-sized blocks.

        Results are shaped like ``positions``. ``fresh=True`` returns a
        newly allocated counts array (required when a collision model will
        observe it — models may retain their input); otherwise a reused
        scratch buffer is returned.
        """
        rows = positions.shape[0] if positions.ndim == 2 else 1
        if not self.block_rows:
            return self.count(self.tile(positions, 0, rows, weights))
        counts = np.empty(positions.shape, dtype=np.int64) if fresh else self.count_buf
        marked_counts = None if weights is None else self.marked_buf
        for lo in range(0, rows, self.tile_rows):
            hi = min(lo + self.tile_rows, rows)
            marked_block = None if weights is None else _rows(marked_counts, lo, hi)
            self.count(self.tile(positions, lo, hi, weights, _rows(counts, lo, hi), marked_block))
        return counts, marked_counts


def _observed(noise, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One observation-model draw, checked to keep the shape of its input."""
    observed = np.asarray(noise.observe(counts, rng), dtype=np.float64)
    if observed.shape != counts.shape:
        raise ValueError("collision_model.observe must preserve the shape of its input")
    return observed


class _SharedStream:
    """The unsharded seed discipline: the whole batch draws from one generator.

    Each method makes exactly the generator calls the reference loop makes
    at that point, so the fused loop stays bit-identical to it. A window's
    ``(K, R, n)`` chunk is drawn for the whole batch before any tile runs.
    """

    #: Windows are sized so the whole batch's chunk fits the budget.
    tile_windows = False

    def __init__(self, seed: SeedLike):
        self.rng = as_generator(seed)
        self._window: Optional[np.ndarray] = None

    def place(self, topology, config, replicates):
        return _place_agents(topology, config, replicates, self.rng)

    def random(self, shape):
        return self.rng.random(shape)

    def draw_steps(self, topology, shape):
        return topology.draw_steps(shape, self.rng)

    def refill(self, topology, rounds, shape):
        self._window = topology.draw_steps_chunk(rounds, shape, self.rng)

    def tile_steps(self, topology, lo, hi):
        window = self._window
        return window[:, lo:hi] if window.ndim == 3 else window

    def move(self, movement, topology, positions):
        return movement.step(topology, positions, self.rng)

    def step_many(self, topology, positions):
        return topology.step_many(positions, self.rng)

    def observe(self, noise, counts):
        return _observed(noise, counts, self.rng)


class _RowStreams:
    """The per-row seed discipline: row ``i`` draws only from ``default_rng(seeds[i])``.

    A window draws nothing batch-wide: each tile draws its own rows, one
    ``draw_steps_chunk`` call per row, into reused storage of the narrowest
    dtype that holds a step choice (the table gather adds it to int64
    indices directly); :mod:`repro.core.shardpath` explains why this keeps
    results and memory flat.
    """

    #: Windows are sized so one tile's chunk fits the budget.
    tile_windows = True

    def __init__(self, seeds):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self._rounds = 0
        self._agents: tuple[int, ...] = ()
        self._chunk: Optional[np.ndarray] = None

    def place(self, topology, config, replicates):
        if config.placement is None:
            rows = [topology.uniform_nodes(config.num_agents, rng) for rng in self.rngs]
        else:
            rows = [_placed_row(topology, config, rng) for rng in self.rngs]
        positions = np.asarray(np.stack(rows), dtype=np.int64)
        topology.validate_nodes(positions)
        return positions

    def random(self, shape):
        return np.stack([rng.random(shape[-1]) for rng in self.rngs])

    def draw_steps(self, topology, shape):
        return np.stack([topology.draw_steps(shape[-1:], rng) for rng in self.rngs])

    def refill(self, topology, rounds, shape):
        self._rounds = rounds
        self._agents = shape[-1:]

    def tile_steps(self, topology, lo, hi):
        if self._chunk is None:
            # The first window's first tile is the largest, so it sizes the storage.
            narrow = np.min_scalar_type(topology.num_step_choices - 1)
            self._chunk = np.empty((self._rounds, hi - lo, *self._agents), dtype=narrow)
        chunk = self._chunk[: self._rounds, : hi - lo]
        for row in range(lo, hi):
            chunk[:, row - lo] = topology.draw_steps_chunk(
                self._rounds, self._agents, self.rngs[row]
            )
        return chunk

    def move(self, movement, topology, positions):
        return np.stack([movement.step(topology, row, rng) for row, rng in zip(positions, self.rngs)])

    def step_many(self, topology, positions):
        return np.stack([topology.step_many(row, rng) for row, rng in zip(positions, self.rngs)])

    def observe(self, noise, counts):
        return np.stack([_observed(noise, row, rng) for row, rng in zip(counts, self.rngs)])


def _report_armed(tel: Telemetry, armed: _ArmedLoop, reason: str) -> None:
    """Telemetry snapshot of one arming: counting plan, tile size, crossover inputs, features.

    Observation only — called only when a recorder is installed, and reads
    nothing but already-computed invariants. Reports the whole batch, so a
    sharded call reports the same arming for any shard count.
    """
    path = armed.counting_path
    tel.counter("fastpath.counting_path", path=path)
    tel.event(
        "fastpath.armed",
        reason=reason,
        counting_path=path,
        rows=armed.batch_rows,
        agents=int(armed.shape[-1]),
        num_nodes=int(armed.num_nodes),
        counting_block_rows=armed.block_rows if path == "bincount-blocked" else None,
        tile_rows=armed.tile_rows,
        steps_precomputable=armed.steps_precomputable,
        displacement_table=armed.table is not None,
        chunked_rng=armed.chunkable,
    )


def _report_phases(tel: Telemetry, runs: list[tuple[float, ...]]) -> None:
    """One call's phase timers, summed over the row slices it ran."""
    if tel.enabled:
        for phase, seconds in zip(("draw", "step", "count", "observe"), map(sum, zip(*runs))):
            tel.timer(f"fastpath.{phase}_seconds", seconds)


def run_fused(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int],
    seed: SeedLike,
):
    """The fused round loop — bit-identical to the reference loop, faster.

    Called through :func:`repro.core.kernel.run_kernel` with
    ``backend="fused"`` (or ``"auto"``, the default); capability checks and
    argument validation happen there. Returns the same
    :class:`~repro.core.simulation.SimulationResult` /
    :class:`~repro.core.kernel.BatchSimulationResult` containers.
    """
    tel = get_telemetry()
    result, seconds = _run_loop(topology, config, replicates, _SharedStream(seed), tel)
    _report_phases(tel, [seconds])
    return result


def _run_loop(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int],
    streams,
    tel: Telemetry,
    lead: bool = True,
    batch_rows: Optional[int] = None,
):
    """The NumPy fused round loop, drawing all randomness from ``streams``.

    ``streams`` is the seed-discipline seam: a :class:`_SharedStream` for
    an unsharded call, or a :class:`_RowStreams` for one row slice of a
    sharded call. Then ``batch_rows`` is the row count of the whole batch
    (it sizes the arming decisions, the tiles and the windows), and only
    the ``lead`` slice reports its armings and window refills, which are
    the same in every slice. Returns the mode's result container and the
    run's (draw, step, count, observe) seconds, timed while ``tel`` is
    enabled.
    """
    serial = replicates is None
    positions = streams.place(topology, config, replicates)
    shape = positions.shape
    initial_positions = positions.copy()

    if config.marked_fraction > 0.0:
        marked = streams.random(shape) < config.marked_fraction
    else:
        marked = np.zeros(shape, dtype=bool)
    track_marked = bool(marked.any())

    totals = np.zeros(shape, dtype=np.float64)
    marked_totals = np.zeros(shape, dtype=np.float64)
    rounds = config.rounds
    trajectory = (
        np.zeros((rounds, *shape), dtype=np.float64) if config.record_trajectory else None
    )
    marked_trajectory = (
        np.zeros((rounds, *shape), dtype=np.float64)
        if (config.record_trajectory and track_marked)
        else None
    )

    movement = config.movement
    noise = config.collision_model
    hook = config.round_hook
    armed = _ArmedLoop(topology, shape, config, rounds, batch_rows)
    # Hooks may replace or mutate ``marked``, so a hooked run re-derives
    # the float weights of the marked counter after every hook call.
    weights = marked.astype(np.float64) if track_marked else None

    # Window length of a chunkable run: the shared stream draws the whole
    # batch's window at once, per-row streams one tile's rows at a time.
    # Both are sized from batch-wide decisions, so every row slice of a
    # sharded call takes the same windows.
    agents = shape[-1]
    batch_elements = armed.batch_rows * agents
    window_rows = armed.tile_rows if streams.tile_windows else armed.batch_rows
    capacity = max(1, CHUNK_BUDGET_ELEMENTS // max(1, window_rows * agents))
    # (rounds, rows, n) views, so a tile writes its rows of a round.
    trajectory_rows = None if trajectory is None else trajectory.reshape(rounds, -1, agents)
    marked_trajectory_rows = (
        None if marked_trajectory is None else marked_trajectory.reshape(rounds, -1, agents)
    )

    # Telemetry is observation-only: probes never draw from a stream, never
    # touch simulation state, and all timing is gated on one local bool so
    # the no-op default costs a predicted branch per phase.
    timing = tel.enabled
    report = timing and lead
    if report:
        _report_armed(tel, armed, "initial")
    clock = time.perf_counter
    draw_seconds = step_seconds = count_seconds = observe_seconds = 0.0
    phase_start = 0.0

    start = 0
    while start < rounds:
        window = min(capacity, rounds - start) if armed.chunkable else 1
        if armed.chunkable:
            if timing:
                phase_start = clock()
            streams.refill(armed.topology, window, shape)
            if timing:
                draw_seconds += clock() - phase_start
            if report:
                tel.counter("fastpath.chunk_refills")
                tel.event(
                    "fastpath.chunk_refill",
                    start_round=start,
                    rounds=window,
                    elements=window * batch_elements,
                )
        for lo, hi in armed.tiles:
            if armed.chunkable:
                if timing:
                    phase_start = clock()
                steps = streams.tile_steps(armed.topology, lo, hi)
                if timing:
                    draw_seconds += clock() - phase_start
                tile = armed.tile(positions, lo, hi, weights)
            tile_totals = _rows(totals, lo, hi)
            tile_marked_totals = _rows(marked_totals, lo, hi)

            for round_index in range(start, start + window):
                # ---- movement ---------------------------------------------
                if timing:
                    phase_start = clock()
                if armed.chunkable:
                    armed.step_precomputed(
                        tile.positions, steps[round_index - start], True, tile.index
                    )
                elif armed.steps_precomputable:
                    # positions.shape, not the placement shape: a hook may
                    # have reshaped the live state (agent churn).
                    draws = streams.draw_steps(armed.topology, positions.shape)
                    if timing:
                        now = clock()
                        draw_seconds += now - phase_start
                        phase_start = now
                    # With a hook in play the hook may retain this round's
                    # positions, so never reuse the array in place.
                    positions = armed.step_precomputed(positions, draws, in_place=hook is None)
                elif movement is not None:
                    positions = np.asarray(
                        streams.move(movement, armed.topology, positions), dtype=np.int64
                    )
                    if armed.validate_each_round:
                        armed.topology.validate_nodes(positions)
                else:
                    positions = streams.step_many(armed.topology, positions)
                if timing:
                    step_seconds += clock() - phase_start

                # ---- counting ---------------------------------------------
                if timing:
                    phase_start = clock()
                if armed.chunkable:
                    counts, marked_counts = armed.count(tile)
                else:
                    counts, marked_counts = armed.count_batch(
                        positions, weights, fresh=noise is not None
                    )
                if marked_counts is not None:
                    np.add(tile_marked_totals, marked_counts, out=tile_marked_totals)
                    if marked_trajectory_rows is not None:
                        marked_trajectory_rows[round_index, lo:hi] = tile_marked_totals
                if timing:
                    count_seconds += clock() - phase_start

                # ---- observation + accumulation ---------------------------
                if timing:
                    phase_start = clock()
                if noise is not None:
                    observed = streams.observe(noise, counts)
                    np.add(tile_totals, observed, out=tile_totals)
                elif hook is not None:
                    # The hook contract hands over a fresh float observed array.
                    observed = counts.astype(np.float64)
                    np.add(tile_totals, observed, out=tile_totals)
                else:
                    observed = None
                    np.add(tile_totals, counts, out=tile_totals)
                if timing:
                    observe_seconds += clock() - phase_start

                if trajectory_rows is not None:
                    trajectory_rows[round_index, lo:hi] = tile_totals

                # ---- per-round hook + re-arming ---------------------------
                if hook is not None:
                    state = apply_round_hook(
                        hook,
                        RoundState(
                            topology=armed.topology,
                            positions=positions,
                            totals=totals,
                            marked=marked,
                            marked_totals=marked_totals,
                            observed=observed,
                            round_index=round_index,
                            # Hooked runs are never sharded: only the shared
                            # stream has one generator to hand over.
                            rng=streams.rng,
                        ),
                    )
                    if not serial and (
                        state.positions.ndim != 2 or state.positions.shape[0] != replicates
                    ):
                        raise ValueError(
                            "round_hook must preserve the replicate axis: expected "
                            f"({replicates}, n) arrays, got shape {state.positions.shape}"
                        )
                    positions = state.positions
                    totals = state.totals
                    marked = state.marked
                    marked_totals = state.marked_totals
                    if track_marked:
                        weights = marked.astype(np.float64)
                    if (
                        state.topology is not armed.topology
                        or state.topology.num_nodes != armed.num_nodes
                        or positions.shape != armed.shape
                    ):
                        # The hook swapped the world: every hoisted
                        # invariant — num_nodes, offsets, buffers, table,
                        # counting plan, tiles — is re-derived.
                        # apply_round_hook has already validated the new
                        # positions against the new topology.
                        armed = _ArmedLoop(
                            state.topology, positions.shape, config, rounds - round_index - 1
                        )
                        if report:
                            tel.counter("fastpath.rearms")
                            _report_armed(tel, armed, "round_hook")
        start += window

    result = _build_result(
        serial,
        replicates,
        armed.topology,
        config,
        totals,
        marked_totals,
        marked,
        initial_positions,
        positions,
        trajectory,
        marked_trajectory,
    )
    return result, (draw_seconds, step_seconds, count_seconds, observe_seconds)


__all__ = [
    "CHUNK_BUDGET_ELEMENTS",
    "TABLE_AMORTISATION_FACTOR",
    "TABLE_BUDGET_ELEMENTS",
    "TILE_BUDGET_BYTES",
    "build_step_table",
    "run_fused",
]

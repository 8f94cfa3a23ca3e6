"""The fused kernel fast path: linear-time counting, chunked RNG, reused buffers.

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
   only needs O(R·n + R·A): scatter-add the labels into the flat ``R·A``
   label space with ``np.bincount`` and gather each agent's node count
   back. :func:`repro.core.encounter.linear_counting_is_faster` is the
   measured crossover heuristic (dense grids → bincount, huge sparse
   grids → sort; the crossover grid in
   ``benchmarks/bench_core_primitives.py`` pins it).

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
   precomputed ``(A, C)`` displacement table (one fancy-gather per round)
   when the table fits the budget *and* its build cost amortises over the
   run. Topologies whose per-round draw interleaves several generator
   calls (``TorusKD``) keep a per-round chunk fill — bit-identity is
   non-negotiable, not distributional.

3. **Zero-allocation rounds.** The label / per-agent-count / step-index
   scratch buffers are preallocated once and reused across rounds;
   accumulation happens with ``np.add(..., out=...)``; the
   ``topology.num_nodes`` lookup, offset-label construction, and
   label-range validation are hoisted out of the loop (validation runs
   once after placement and after every ``round_hook`` mutation — and per
   round only for foreign movement models that do not declare
   ``emits_valid_nodes``). A ``round_hook`` that swaps the topology or
   reshapes the state re-arms all of this invariant state.

4. **One loop, two seed disciplines.** Every draw goes through one seam:
   :class:`_SharedStream` (the whole batch draws from one generator, as
   the reference loop does) or :class:`_RowStreams` (one generator per
   replicate row), with which :mod:`repro.core.shardpath` runs this same
   loop on each shard's row slice.

Contracts preserved exactly:

* a ``collision_model`` receives a **fresh** counts array each round (a
  model may retain its input; reference semantics);
* a ``round_hook`` receives a **fresh** ``observed`` array each round and
  fresh ``positions`` (never an in-place-reused step buffer), so hooks may
  retain state snapshots exactly as they could under the reference loop;
* chunked RNG switches off whenever a hook or observation model interleaves
  its own draws with the movement draws.

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

#: Upper bound on the elements of one chunked draw buffer (K·R·n). The
#: budget covers the whole batch: the row slices of a sharded call share it.
CHUNK_BUDGET_ELEMENTS = 1 << 21


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


class _ArmedLoop:
    """Loop-invariant state of the fused round loop.

    Everything here is computed once per arming — the ``topology.num_nodes``
    lookup, the replicate offset labels, the counting-path choice, the
    displacement table, and every scratch buffer — and re-armed only when a
    ``round_hook`` swaps the topology or reshapes the live state arrays.

    ``batch_rows`` is the whole batch's row count when ``shape`` is a row
    slice of it: the table and counting-path decisions are taken for the
    batch, so every slice makes the same ones; buffers fit the slice.
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
        hooked = config.round_hook is not None

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

        self.choices = topology.num_step_choices if self.steps_precomputable else None
        self.table: Optional[np.ndarray] = None
        if self.steps_precomputable and self.choices is not None:
            build_cost = self.num_nodes * self.choices
            saving = rounds_left * max(self.batch_rows * agents, 1)
            if build_cost * TABLE_AMORTISATION_FACTOR <= saving:
                self.table = build_step_table(topology)
        self.index_buf = np.empty(shape, dtype=np.int64) if self.table is not None else None

        # Counting path: the measured unique-vs-bincount crossover, with
        # the memory cap expressed as a *block plan* — when the full R·A
        # scatter buffer would blow the budget but the asymptotics still
        # favour the linear path, the scatter chunks over contiguous row
        # blocks instead of reverting to the O(R·n log R·n) sort. The
        # budget is read through the module attribute so tests can shrink
        # it and exercise the chunked branch on small workloads.
        block = linear_counting_block_rows(
            self.batch_rows,
            agents,
            self.num_nodes,
            memory_budget_bytes=encounter.LINEAR_COUNTING_MEMORY_BUDGET_BYTES,
        )
        self.linear = block >= self.batch_rows and block > 0
        self.block_rows = (
            block if (0 < block < self.batch_rows and len(shape) == 2) else None
        )
        if self.linear and len(shape) == 2:
            self.offsets = (
                np.arange(rows, dtype=np.int64) * np.int64(self.num_nodes)
            )[:, None]
            self.label_buf = np.empty(shape, dtype=np.int64)
        else:
            self.offsets = None
            self.label_buf = None
        if self.block_rows is not None:
            block = min(self.block_rows, rows)
            self.block_offsets = (
                np.arange(block, dtype=np.int64) * np.int64(self.num_nodes)
            )[:, None]
            self.block_label_buf = np.empty((block, agents), dtype=np.int64)
        else:
            self.block_offsets = None
            self.block_label_buf = None
        self.count_buf = (
            np.empty(shape, dtype=np.int64)
            if (self.linear or self.block_rows is not None)
            else None
        )
        self.space = rows * self.num_nodes
        #: Hooks may replace or mutate ``marked`` between rounds, so the
        #: float view used by the weighted scatter-add is cached only for
        #: hook-free runs.
        self.cache_marked_float = not hooked
        self.marked_float: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_precomputed(
        self, positions: np.ndarray, draws: np.ndarray, in_place: bool
    ) -> np.ndarray:
        """Apply one round of drawn step choices (table gather when armed)."""
        if self.table is None:
            return self.topology.apply_steps(positions, draws)
        if in_place:
            np.multiply(positions, self.choices, out=self.index_buf)
            np.add(self.index_buf, draws, out=self.index_buf)
            np.take(self.table, self.index_buf, out=positions)
            return positions
        np.multiply(positions, self.choices, out=self.index_buf)
        np.add(self.index_buf, draws, out=self.index_buf)
        return self.table[self.index_buf]

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def _labels(self, positions: np.ndarray) -> np.ndarray:
        """Offset labels for the linear counter (serial mode: positions as-is)."""
        if self.offsets is None:
            return positions
        np.add(positions, self.offsets, out=self.label_buf)
        return self.label_buf

    def count(self, positions: np.ndarray, fresh: bool) -> np.ndarray:
        """This round's per-agent collision counts.

        ``fresh=True`` returns a newly allocated array (required when a
        collision model will observe it — models may retain their input);
        otherwise the reused scratch buffer is returned.

        The linear branch here (and in :meth:`count_profiles`) is the
        buffer-reusing form of
        :func:`repro.core.encounter.batched_collision_counts_linear` — that
        primitive is the tested specification (property-based equivalence
        in tests/test_fastpath.py), and the backend bit-identity battery
        pins this in-loop form against the reference backend, so the two
        cannot drift apart silently.
        """
        if self.block_rows is not None:
            out = np.empty(positions.shape, dtype=np.int64) if fresh else self.count_buf
            return self._count_blocks(positions, out)
        if not self.linear:
            matrix = positions.reshape(-1, positions.shape[-1])
            return batched_collision_counts(
                matrix, self.num_nodes, assume_validated=True
            ).reshape(positions.shape)
        labels = self._labels(positions)
        per_node = np.bincount(labels.reshape(-1), minlength=self.space)
        if fresh or self.count_buf is None:
            return per_node[labels] - 1
        np.take(per_node, labels, out=self.count_buf)
        np.subtract(self.count_buf, 1, out=self.count_buf)
        return self.count_buf

    def _count_blocks(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Cap-respecting linear counting: one scatter pass per row block.

        Bit-identical to the single-pass bincount (labels never cross
        blocks, so each block's ``rows·A`` scatter space sees exactly the
        elements the full ``R·A`` space would), but the per-node buffer
        peaks at ``block_rows·A`` slots — the memory cap — instead of
        ``R·A``.
        """
        block = self.block_rows
        for lo in range(0, positions.shape[0], block):
            hi = min(lo + block, positions.shape[0])
            labels = self.block_label_buf[: hi - lo]
            np.add(positions[lo:hi], self.block_offsets[: hi - lo], out=labels)
            per_node = np.bincount(
                labels.reshape(-1), minlength=(hi - lo) * self.num_nodes
            )
            np.take(per_node, labels, out=out[lo:hi])
        np.subtract(out, 1, out=out)
        return out

    def count_profiles(
        self, positions: np.ndarray, marked: np.ndarray, fresh: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Plain and marked per-agent counts sharing one label pass."""
        if self.block_rows is not None:
            out = np.empty(positions.shape, dtype=np.int64) if fresh else self.count_buf
            return self._profile_blocks(positions, marked, out)
        if not self.linear:
            matrix = positions.reshape(-1, positions.shape[-1])
            counts, marked_counts = batched_collision_profiles(
                matrix,
                marked.reshape(matrix.shape),
                self.num_nodes,
                assume_validated=True,
            )
            return counts.reshape(positions.shape), marked_counts.reshape(positions.shape)
        labels = self._labels(positions)
        flat = labels.reshape(-1)
        per_node = np.bincount(flat, minlength=self.space)
        if self.cache_marked_float:
            if self.marked_float is None:
                self.marked_float = marked.astype(np.float64)
            marked_float = self.marked_float
        else:
            marked_float = marked.astype(np.float64)
        marked_per_node = np.bincount(
            flat, weights=marked_float.reshape(-1), minlength=self.space
        )
        marked_counts = (marked_per_node[labels] - marked_float).astype(np.int64)
        if fresh or self.count_buf is None:
            return per_node[labels] - 1, marked_counts
        np.take(per_node, labels, out=self.count_buf)
        np.subtract(self.count_buf, 1, out=self.count_buf)
        return self.count_buf, marked_counts

    def _profile_blocks(
        self, positions: np.ndarray, marked: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block-chunked form of :meth:`count_profiles` (see :meth:`_count_blocks`)."""
        block = self.block_rows
        marked_counts = np.empty(positions.shape, dtype=np.int64)
        for lo in range(0, positions.shape[0], block):
            hi = min(lo + block, positions.shape[0])
            labels = self.block_label_buf[: hi - lo]
            np.add(positions[lo:hi], self.block_offsets[: hi - lo], out=labels)
            flat = labels.reshape(-1)
            space = (hi - lo) * self.num_nodes
            per_node = np.bincount(flat, minlength=space)
            marked_float = marked[lo:hi].astype(np.float64)
            marked_per_node = np.bincount(
                flat, weights=marked_float.reshape(-1), minlength=space
            )
            marked_counts[lo:hi] = (marked_per_node[labels] - marked_float).astype(np.int64)
            np.take(per_node, labels, out=out[lo:hi])
        np.subtract(out, 1, out=out)
        return out, marked_counts


def _observed(noise, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One observation-model draw, checked to keep the shape of its input."""
    observed = np.asarray(noise.observe(counts, rng), dtype=np.float64)
    if observed.shape != counts.shape:
        raise ValueError("collision_model.observe must preserve the shape of its input")
    return observed


class _SharedStream:
    """The unsharded seed discipline: the whole batch draws from one generator.

    Each method makes exactly the generator calls the reference loop makes
    at that point, so the fused loop stays bit-identical to it.
    """

    def __init__(self, seed: SeedLike):
        self.rng = as_generator(seed)

    def place(self, topology, config, replicates):
        return _place_agents(topology, config, replicates, self.rng)

    def random(self, shape):
        return self.rng.random(shape)

    def draw_steps(self, topology, shape):
        return topology.draw_steps(shape, self.rng)

    def draw_steps_chunk(self, topology, rounds, shape):
        return topology.draw_steps_chunk(rounds, shape, self.rng)

    def chunk_steps(self, chunk, index):
        return chunk[index]

    def move(self, movement, topology, positions):
        return movement.step(topology, positions, self.rng)

    def step_many(self, topology, positions):
        return topology.step_many(positions, self.rng)

    def observe(self, noise, counts):
        return _observed(noise, counts, self.rng)


class _RowStreams:
    """The per-row seed discipline: row ``i`` draws only from ``default_rng(seeds[i])``.

    Chunk refills draw row by row into storage of the narrowest dtype that
    holds a step choice, widened each round into a reused int64 buffer;
    :mod:`repro.core.shardpath` explains why both keep results and memory flat.
    """

    def __init__(self, seeds):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self._chunk: Optional[np.ndarray] = None
        self._wide: Optional[np.ndarray] = None

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

    def draw_steps_chunk(self, topology, rounds, shape):
        if self._chunk is None:
            # The first refill is the largest, so it sizes the storage.
            narrow = np.min_scalar_type(topology.num_step_choices - 1)
            self._chunk = np.empty((rounds, *shape), dtype=narrow)
            self._wide = np.empty(shape, dtype=np.int64)
        chunk = self._chunk[:rounds]
        for row, rng in enumerate(self.rngs):
            chunk[:, row] = topology.draw_steps_chunk(rounds, shape[-1:], rng)
        return chunk

    def chunk_steps(self, chunk, index):
        np.copyto(self._wide, chunk[index])
        return self._wide

    def move(self, movement, topology, positions):
        return np.stack([movement.step(topology, row, rng) for row, rng in zip(positions, self.rngs)])

    def step_many(self, topology, positions):
        return np.stack([topology.step_many(row, rng) for row, rng in zip(positions, self.rngs)])

    def observe(self, noise, counts):
        return np.stack([_observed(noise, row, rng) for row, rng in zip(counts, self.rngs)])


def _report_armed(tel: Telemetry, armed: _ArmedLoop, reason: str, chunkable: bool) -> None:
    """Telemetry snapshot of one arming: counting path, crossover inputs, features.

    Observation only — called only when a recorder is installed, and reads
    nothing but already-computed invariants. Reports the whole batch, so a
    sharded call reports the same arming for any shard count.
    """
    if armed.linear:
        path = "bincount"
    elif armed.block_rows is not None:
        path = "bincount-blocked"
    else:
        path = "unique"
    tel.counter("fastpath.counting_path", path=path)
    tel.event(
        "fastpath.armed",
        reason=reason,
        counting_path=path,
        rows=armed.batch_rows,
        agents=int(armed.shape[-1]),
        num_nodes=int(armed.num_nodes),
        counting_block_rows=armed.block_rows,
        steps_precomputable=armed.steps_precomputable,
        displacement_table=armed.table is not None,
        chunked_rng=chunkable,
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
    (it sizes the arming decisions and the chunk budget), and only the
    ``lead`` slice reports its armings and chunk refills, which are the
    same in every slice. Returns the mode's result container and the run's
    (draw, step, count, observe) seconds, timed while ``tel`` is enabled.
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

    # Chunked RNG: legal only when the movement draw is the *only* consumer
    # of per-round randomness — noise models and hooks interleave their own
    # draws with the movement draws, and reordering those would break the
    # bit-identity stream contract.
    chunkable = hook is None and noise is None and armed.steps_precomputable
    chunk: Optional[np.ndarray] = None
    chunk_start = 0
    # The budget covers the whole batch, so the chunks of all concurrent
    # row slices together never exceed one unsharded chunk.
    batch_elements = armed.batch_rows * shape[-1]
    capacity = max(1, CHUNK_BUDGET_ELEMENTS // max(1, batch_elements))

    # Telemetry is observation-only: probes never draw from a stream, never
    # touch simulation state, and all timing is gated on one local bool so
    # the no-op default costs a predicted branch per phase.
    timing = tel.enabled
    report = timing and lead
    if report:
        _report_armed(tel, armed, "initial", chunkable)
    clock = time.perf_counter
    draw_seconds = step_seconds = count_seconds = observe_seconds = 0.0
    phase_start = 0.0

    for round_index in range(rounds):
        # ---- movement -------------------------------------------------
        if chunkable:
            if chunk is None or round_index - chunk_start >= chunk.shape[0]:
                chunk_start = round_index
                if timing:
                    phase_start = clock()
                chunk = streams.draw_steps_chunk(
                    armed.topology, min(rounds - round_index, capacity), shape
                )
                if timing:
                    draw_seconds += clock() - phase_start
                if report:
                    tel.counter("fastpath.chunk_refills")
                    tel.event(
                        "fastpath.chunk_refill",
                        start_round=round_index,
                        rounds=int(chunk.shape[0]),
                        elements=int(chunk.shape[0]) * batch_elements,
                    )
            if timing:
                phase_start = clock()
            positions = armed.step_precomputed(
                positions, streams.chunk_steps(chunk, round_index - chunk_start), in_place=True
            )
            if timing:
                step_seconds += clock() - phase_start
        elif armed.steps_precomputable:
            if timing:
                phase_start = clock()
            # positions.shape, not the placement shape: a hook may have
            # reshaped the live state (agent churn) since the loop started.
            draws = streams.draw_steps(armed.topology, positions.shape)
            if timing:
                now = clock()
                draw_seconds += now - phase_start
                phase_start = now
            # With a hook in play the hook may retain this round's
            # positions, so never reuse the array in place.
            positions = armed.step_precomputed(positions, draws, in_place=hook is None)
            if timing:
                step_seconds += clock() - phase_start
        elif movement is not None:
            if timing:
                phase_start = clock()
            positions = np.asarray(
                streams.move(movement, armed.topology, positions), dtype=np.int64
            )
            if armed.validate_each_round:
                armed.topology.validate_nodes(positions)
            if timing:
                step_seconds += clock() - phase_start
        else:
            if timing:
                phase_start = clock()
            positions = streams.step_many(armed.topology, positions)
            if timing:
                step_seconds += clock() - phase_start

        # ---- counting -------------------------------------------------
        if timing:
            phase_start = clock()
        if track_marked:
            counts, marked_counts = armed.count_profiles(
                positions, marked, fresh=noise is not None
            )
            np.add(marked_totals, marked_counts, out=marked_totals)
            if marked_trajectory is not None:
                marked_trajectory[round_index] = marked_totals
        else:
            counts = armed.count(positions, fresh=noise is not None)
        if timing:
            count_seconds += clock() - phase_start

        # ---- observation + accumulation -------------------------------
        if timing:
            phase_start = clock()
        if noise is not None:
            observed = streams.observe(noise, counts)
            np.add(totals, observed, out=totals)
        elif hook is not None:
            # The hook contract hands over a fresh float observed array.
            observed = counts.astype(np.float64)
            np.add(totals, observed, out=totals)
        else:
            observed = None
            np.add(totals, counts, out=totals)
        if timing:
            observe_seconds += clock() - phase_start

        if trajectory is not None:
            trajectory[round_index] = totals

        # ---- per-round hook + re-arming -------------------------------
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
                    # Hooked runs are never sharded: only the shared stream
                    # has one generator to hand over.
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
            if (
                state.topology is not armed.topology
                or state.topology.num_nodes != armed.num_nodes
                or positions.shape != armed.shape
            ):
                # The hook swapped the world: every hoisted invariant —
                # num_nodes, offsets, buffers, table, counting path — is
                # re-derived. apply_round_hook has already validated the
                # new positions against the new topology.
                armed = _ArmedLoop(
                    state.topology, positions.shape, config, rounds - round_index - 1
                )
                if report:
                    tel.counter("fastpath.rearms")
                    _report_armed(tel, armed, "round_hook", chunkable)

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
    "build_step_table",
    "run_fused",
]

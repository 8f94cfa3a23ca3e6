"""Collision counting primitives.

The model of Section 2 gives every agent a single sensing primitive:
``count(position)`` — the number of *other* agents currently at its node.
These functions evaluate that primitive for all agents at once from the
vector of current positions. Two families coexist:

* the **sort-based** primitives (``np.unique`` over the offset labels),
  O(R·n log(R·n)) per round and independent of the grid size ``A`` — the
  right tool when the grid is huge and sparsely occupied;
* the **linear** primitives (a ``np.bincount`` scatter-add over the
  ``R·A`` label space), O(R·n + R·A) per round — the paper's
  ``count(position)`` at its true complexity, and 4–6× faster than the
  sort in the dense regimes the experiment suite runs in.

:func:`linear_counting_is_faster` is the measured crossover heuristic the
fused kernel's ``auto`` path uses to pick between them (pinned by the
crossover grid in ``benchmarks/bench_core_primitives.py``).
"""

from __future__ import annotations

import math

import numpy as np

#: The linear (bincount) path beats the sort path roughly while
#: ``R·A <= FACTOR · R·n · log2(R·n)``; measured crossover on the reference
#: hardware is ≈ 3.7, so 3.0 keeps a safety margin (never materially worse
#: than the sort at the boundary). Pinned by the crossover benchmark grid.
LINEAR_COUNTING_CROSSOVER_FACTOR = 3.0

#: Hard cap on the per-node scatter buffer (``R·A`` int64 slots) the linear
#: path may allocate per round, whatever the heuristic says.
LINEAR_COUNTING_MEMORY_BUDGET_BYTES = 128 * 2**20


def linear_counting_is_faster(
    replicates: int,
    num_agents: int,
    num_nodes: int,
    *,
    memory_budget_bytes: int = LINEAR_COUNTING_MEMORY_BUDGET_BYTES,
) -> bool:
    """Whether the O(R·n + R·A) bincount path should beat the sort path.

    The sort costs ~γ·R·n·log2(R·n); the scatter-add costs ~β·R·A (plus an
    O(R·n) gather both paths share). The measured β/γ crossover sits near
    ``R·A ≈ 3.7 · R·n·log2(R·n)``; this predicate uses a conservative
    factor of 3 and additionally refuses label spaces whose per-round
    count buffer would exceed ``memory_budget_bytes`` — huge sparse grids
    stay on the sort path no matter how the asymptotics look.
    """
    labels = replicates * num_agents
    label_space = replicates * num_nodes
    if labels <= 0:
        return False
    if label_space * 8 > memory_budget_bytes:
        return False
    return label_space <= LINEAR_COUNTING_CROSSOVER_FACTOR * labels * max(
        1.0, math.log2(max(labels, 2))
    )


def linear_counting_block_rows(
    replicates: int,
    num_agents: int,
    num_nodes: int,
    *,
    memory_budget_bytes: int = LINEAR_COUNTING_MEMORY_BUDGET_BYTES,
) -> int:
    """Replicate rows per bincount block, or ``0`` for the sort path.

    The memory cap in :func:`linear_counting_is_faster` rejects label
    spaces whose *single-pass* ``R·A`` scatter buffer would not fit — but
    the scatter is separable across replicate rows, so a workload that
    fails the cap while still winning the asymptotic crossover should
    **chunk** the scatter over contiguous row blocks (each block counts in
    its own ``rows·A`` space) instead of reverting to the
    O(R·n log(R·n)) sort. This function is that plan:

    * ``replicates`` — the whole batch fits; one scatter pass (the fast
      path unchanged);
    * ``1 <= block < replicates`` — chunk the scatter into blocks of this
      many rows (bit-identical to the single pass; integers only);
    * ``0`` — the sort path wins (asymptotically, or because even one
      row's ``A`` buffer blows the budget).
    """
    if replicates <= 0 or num_agents <= 0:
        return 0
    # The asymptotic crossover is per-row (A vs. factor·n·log2(R·n)), so
    # evaluate it with the memory cap lifted: blocks handle memory.
    uncapped = max(memory_budget_bytes, replicates * num_nodes * 8)
    if not linear_counting_is_faster(
        replicates, num_agents, num_nodes, memory_budget_bytes=uncapped
    ):
        return 0
    rows = min(replicates, memory_budget_bytes // max(num_nodes * 8, 1))
    return max(int(rows), 0)


def collision_counts(positions: np.ndarray) -> np.ndarray:
    """Number of other agents co-located with each agent.

    Parameters
    ----------
    positions:
        Integer array of shape ``(n,)`` with each agent's current node.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n,)``; entry ``i`` is
        ``|{j != i : positions[j] == positions[i]}|`` — exactly the paper's
        ``count(position)`` as observed by agent ``i``.
    """
    positions = np.asarray(positions)
    if positions.ndim != 1:
        raise ValueError(f"positions must be 1-D, got shape {positions.shape}")
    if positions.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, inverse, counts = np.unique(positions, return_inverse=True, return_counts=True)
    return counts[inverse].astype(np.int64) - 1


def marked_collision_counts(positions: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Number of *marked* other agents co-located with each agent.

    Used by the property-frequency estimator of Section 5.2: agents track
    encounters with agents possessing a detectable property (successful
    foragers, enemies, task-group members, ...).

    Parameters
    ----------
    positions:
        Integer array of shape ``(n,)`` with each agent's current node.
    marked:
        Boolean array of shape ``(n,)``; ``True`` where the agent has the
        property.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n,)``; entry ``i`` counts marked agents
        ``j != i`` with ``positions[j] == positions[i]``.
    """
    positions = np.asarray(positions)
    marked = np.asarray(marked, dtype=bool)
    if positions.shape != marked.shape:
        raise ValueError(
            f"positions and marked must have the same shape, "
            f"got {positions.shape} and {marked.shape}"
        )
    if positions.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, inverse = np.unique(positions, return_inverse=True)
    marked_per_node = np.bincount(inverse, weights=marked.astype(np.float64))
    counts = marked_per_node[inverse] - marked.astype(np.float64)
    return counts.astype(np.int64)


def _offset_labels(
    positions: np.ndarray, num_nodes: int, *, assume_validated: bool = False
) -> np.ndarray:
    """Shift replicate ``r``'s node labels into the block ``[r*A, (r+1)*A)``.

    Agents in different replicates then occupy disjoint label ranges, so one
    flat ``np.unique`` pass counts collisions for every replicate at once.

    ``assume_validated=True`` skips the O(R·n) label-range scan: the caller
    asserts the labels already lie in ``[0, num_nodes)``. The kernel uses
    this to hoist validation out of its steady-state round loop — positions
    are validated once after placement and after every ``round_hook``
    mutation, and in between they come from topology steps that produce
    in-range labels by construction.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D (replicates, agents), got shape {positions.shape}")
    replicates = positions.shape[0]
    if positions.size and not assume_validated:
        low, high = positions.min(), positions.max()
        if low < 0 or high >= num_nodes:
            # An out-of-range label would alias into a neighbouring
            # replicate's block and silently corrupt both counts.
            raise ValueError(
                f"position labels must lie in [0, {num_nodes}), got range [{low}, {high}]"
            )
    if replicates > 0 and num_nodes > (2**63 - 1) // max(replicates, 1):
        raise ValueError(
            f"cannot offset {replicates} replicates of {num_nodes} nodes without int64 overflow"
        )
    offsets = np.arange(replicates, dtype=np.int64) * np.int64(num_nodes)
    return positions + offsets[:, None]


def batched_collision_counts(
    positions: np.ndarray, num_nodes: int, *, assume_validated: bool = False
) -> np.ndarray:
    """Per-agent collision counts for a batch of independent replicates.

    Parameters
    ----------
    positions:
        Integer array of shape ``(R, n)``: row ``r`` holds the current node
        of every agent in replicate ``r``. Labels lie in ``[0, num_nodes)``.
    num_nodes:
        Number of nodes ``A`` of the topology the replicates walk on.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(R, n)``; entry ``(r, i)`` equals
        ``collision_counts(positions[r])[i]``, computed with a single
        ``np.unique`` pass over all replicates.
    """
    shifted = _offset_labels(positions, num_nodes, assume_validated=assume_validated)
    if shifted.size == 0:
        return np.zeros(shifted.shape, dtype=np.int64)
    _, inverse, counts = np.unique(shifted.reshape(-1), return_inverse=True, return_counts=True)
    return (counts[inverse] - 1).reshape(shifted.shape).astype(np.int64)


def batched_collision_counts_linear(
    positions: np.ndarray, num_nodes: int, *, assume_validated: bool = False
) -> np.ndarray:
    """O(R·n + R·A) batched collision counts via a bincount scatter-add.

    Bit-identical results to :func:`batched_collision_counts` (pinned by
    property-based tests), but counts by scattering the offset labels into
    the flat ``R·A`` label space instead of sorting them — the paper's
    ``count(position)`` primitive at its true linear complexity. Wins when
    the occupied fraction is non-negligible; on huge sparse grids the
    ``R·A`` scatter pass loses to the sort
    (:func:`linear_counting_is_faster` is the measured crossover).
    """
    shifted = _offset_labels(positions, num_nodes, assume_validated=assume_validated)
    if shifted.size == 0:
        return np.zeros(shifted.shape, dtype=np.int64)
    per_node = np.bincount(shifted.reshape(-1), minlength=shifted.shape[0] * num_nodes)
    return per_node[shifted] - 1


def batched_collision_profiles_linear(
    positions: np.ndarray, marked: np.ndarray, num_nodes: int, *, assume_validated: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Linear-time plain *and* marked batched counts from two scatter-adds.

    Bit-identical to :func:`batched_collision_profiles`; shares the offset
    labels between the plain count and the marked (weighted) count.
    """
    marked = np.asarray(marked, dtype=bool)
    shifted = _offset_labels(positions, num_nodes, assume_validated=assume_validated)
    if shifted.shape != marked.shape:
        raise ValueError(
            f"positions and marked must have the same shape, "
            f"got {shifted.shape} and {marked.shape}"
        )
    if shifted.size == 0:
        return np.zeros(shifted.shape, dtype=np.int64), np.zeros(shifted.shape, dtype=np.int64)
    flat = shifted.reshape(-1)
    space = shifted.shape[0] * num_nodes
    per_node = np.bincount(flat, minlength=space)
    plain = per_node[shifted] - 1
    marked_float = marked.astype(np.float64)
    marked_per_node = np.bincount(flat, weights=marked_float.reshape(-1), minlength=space)
    marked_counts = marked_per_node[shifted] - marked_float
    return plain, marked_counts.astype(np.int64)


def batched_collision_profiles(
    positions: np.ndarray, marked: np.ndarray, num_nodes: int, *, assume_validated: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Plain *and* marked batched collision counts from one ``np.unique`` pass.

    Equivalent to ``(batched_collision_counts(...),
    batched_marked_collision_counts(...))`` but shares the offset-label
    array and its sort, halving the per-round cost when a simulation tracks
    marked agents.
    """
    marked = np.asarray(marked, dtype=bool)
    shifted = _offset_labels(positions, num_nodes, assume_validated=assume_validated)
    if shifted.shape != marked.shape:
        raise ValueError(
            f"positions and marked must have the same shape, "
            f"got {shifted.shape} and {marked.shape}"
        )
    if shifted.size == 0:
        return np.zeros(shifted.shape, dtype=np.int64), np.zeros(shifted.shape, dtype=np.int64)
    flat_marked = marked.reshape(-1)
    _, inverse, counts = np.unique(shifted.reshape(-1), return_inverse=True, return_counts=True)
    plain = (counts[inverse] - 1).reshape(shifted.shape).astype(np.int64)
    marked_per_node = np.bincount(inverse, weights=flat_marked.astype(np.float64))
    marked_counts = marked_per_node[inverse] - flat_marked.astype(np.float64)
    return plain, marked_counts.astype(np.int64).reshape(shifted.shape)


def batched_marked_collision_counts(
    positions: np.ndarray, marked: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Per-agent *marked* collision counts for a batch of replicates.

    The batched counterpart of :func:`marked_collision_counts`:
    ``positions`` and ``marked`` both have shape ``(R, n)`` and the result
    row ``r`` equals ``marked_collision_counts(positions[r], marked[r])``.
    """
    return batched_collision_profiles(positions, marked, num_nodes)[1]


__all__ = [
    "collision_counts",
    "marked_collision_counts",
    "batched_collision_counts",
    "batched_collision_counts_linear",
    "batched_collision_profiles",
    "batched_collision_profiles_linear",
    "batched_marked_collision_counts",
    "linear_counting_block_rows",
    "linear_counting_is_faster",
    "LINEAR_COUNTING_CROSSOVER_FACTOR",
    "LINEAR_COUNTING_MEMORY_BUDGET_BYTES",
]

"""A bounded (non-wrap-around) grid with reflecting boundaries.

Section 2 of the paper argues for the torus model because it "captures the
dynamics of density estimation on a surface, while avoiding complicating
factors of boundary behavior on a finite grid". This class provides exactly
the finite grid the paper chose *not* to analyse, so the E20 ablation can
measure how much boundary behaviour actually matters.

A random-walk step picks one of the four compass directions uniformly; a
step that would leave the grid is replaced by staying put (a "reflecting"
boundary with a self-loop). That transition matrix is symmetric, so the
stationary distribution remains uniform and the encounter-rate estimator is
still unbiased — but agents near the boundary effectively move more slowly
(they waste steps on blocked moves), which weakens local mixing there and
costs a little accuracy relative to the torus. E20 quantifies both effects.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.utils.rng import SeedLike
from repro.utils.validation import require_integer


class BoundedGrid(Topology):
    """A ``side x side`` grid without wrap-around.

    Node ``(x, y)`` is encoded as ``x * side + y``, exactly like
    :class:`~repro.topology.Torus2D`, so the two are interchangeable in
    experiments that compare them.
    """

    name = "bounded_grid"
    precomputed_steps = True
    num_step_choices = 4

    STEPS = np.array([(0, 1), (0, -1), (1, 0), (-1, 0)], dtype=np.int64)

    def __init__(self, side: int):
        require_integer(side, "side", minimum=2)
        self.side = int(side)
        self._num_nodes = self.side * self.side

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray | int, y: np.ndarray | int) -> np.ndarray | int:
        """Encode in-range coordinates as node labels (no wrap-around)."""
        x = np.asarray(x)
        y = np.asarray(y)
        if np.any((x < 0) | (x >= self.side) | (y < 0) | (y >= self.side)):
            raise ValueError("coordinates out of range for a bounded grid")
        return x * self.side + y

    def decode(self, nodes: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.asarray(nodes)
        return nodes // self.side, nodes % self.side

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    def degree_of(self, nodes: np.ndarray | int) -> np.ndarray | int:
        """Number of in-grid neighbours: 2 at corners, 3 on edges, 4 inside."""
        x, y = self.decode(np.asarray(nodes))
        on_x_boundary = (x == 0) | (x == self.side - 1)
        on_y_boundary = (y == 0) | (y == self.side - 1)
        degrees = 4 - on_x_boundary.astype(np.int64) - on_y_boundary.astype(np.int64)
        if np.isscalar(nodes):
            return int(degrees)
        return degrees

    def neighbors(self, node: int) -> np.ndarray:
        x, y = (int(v) for v in self.decode(np.asarray(node)))
        result = []
        for dx, dy in self.STEPS:
            nx_, ny_ = x + int(dx), y + int(dy)
            if 0 <= nx_ < self.side and 0 <= ny_ < self.side:
                result.append(nx_ * self.side + ny_)
        return np.array(sorted(result), dtype=np.int64)

    def draw_steps(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 4, size=shape)

    def draw_steps_chunk(
        self, chunk: int, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        return rng.integers(0, 4, size=(chunk, *shape))

    def apply_steps(self, positions: np.ndarray, draws: np.ndarray) -> np.ndarray:
        dx = self.STEPS[draws, 0]
        dy = self.STEPS[draws, 1]
        x, y = self.decode(positions)
        new_x = x + dx
        new_y = y + dy
        # Reflecting boundary: a step off the grid is replaced by staying put.
        blocked = (new_x < 0) | (new_x >= self.side) | (new_y < 0) | (new_y >= self.side)
        new_x = np.where(blocked, x, new_x)
        new_y = np.where(blocked, y, new_y)
        return (new_x * self.side + new_y).astype(np.int64)

    def step_many(self, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        return self.apply_steps(positions, self.draw_steps(positions.shape, rng))

    def stationary_nodes(
        self, count: int | tuple[int, ...], seed: SeedLike = None
    ) -> np.ndarray:
        """Uniform nodes: a blocked move stays put, so the walk's transition
        matrix is symmetric and its stationary law uniform, not degree-weighted."""
        return self.uniform_nodes(count, seed)

    def boundary_nodes(self) -> np.ndarray:
        """Labels of all nodes on the outer boundary of the grid."""
        nodes = np.arange(self.num_nodes)
        x, y = self.decode(nodes)
        mask = (x == 0) | (x == self.side - 1) | (y == 0) | (y == self.side - 1)
        return nodes[mask]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedGrid(side={self.side})"


__all__ = ["BoundedGrid"]

"""Coverage statistics of random walks: distinct nodes visited and repeat visits.

The sensor-network application (Section 6.3.1) and the swarm exploration
sketch (Section 6.3.4) both care about how much ground a walk covers and how
much effort is wasted on repeat visits. Corollary 15 says repeat visits on
the torus are rare in expectation; these helpers measure both on a recorded
walk path so the E16 sensor experiment has something concrete to check
against.
"""

from __future__ import annotations

import numpy as np


def distinct_nodes_visited(path: np.ndarray) -> int:
    """Number of distinct nodes on a recorded walk path (including the start)."""
    path = np.asarray(path)
    if path.ndim != 1 or path.size == 0:
        raise ValueError("path must be a non-empty 1-D array of positions")
    return int(np.unique(path).size)


def repeat_visit_fraction(path: np.ndarray) -> float:
    """Fraction of steps (excluding the start) that land on an already-visited node."""
    path = np.asarray(path)
    if path.ndim != 1 or path.size < 2:
        raise ValueError("path must contain at least one step")
    steps = path.size - 1
    new_nodes = distinct_nodes_visited(path) - 1  # nodes discovered after the start
    # A step is "wasted" when it does not discover a new node. The start node
    # itself may be revisited, which also counts as a repeat.
    return 1.0 - new_nodes / steps


__all__ = [
    "distinct_nodes_visited",
    "repeat_visit_fraction",
]

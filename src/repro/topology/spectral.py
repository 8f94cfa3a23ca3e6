"""Spectral utilities: walk matrices and their second eigenvalue.

The paper's expander bound (Lemma 23) and the burn-in analysis of the
network-size estimator (Section 5.1.4) are parameterised by
``λ = max(|λ₂|, |λ_A|)`` of the random-walk matrix. These helpers compute the
walk matrix of any topology and its second eigenvalue magnitude.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.topology.base import Topology


def transition_matrix(topology: Topology) -> sp.csr_matrix:
    """Random-walk transition matrix ``W`` of ``topology`` (rows sum to 1).

    ``W[i, j]`` is the probability that a walker at node ``i`` steps to node
    ``j``. The matrix is returned in CSR format; for the structured
    topologies in this library it is sparse (degree is constant and small).
    """
    size = topology.num_nodes
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    for node in range(size):
        neighbors = topology.neighbors(node)
        if len(neighbors) == 0:
            raise ValueError(f"node {node} has no neighbours; walk matrix undefined")
        weight = 1.0 / len(neighbors)
        rows.extend([node] * len(neighbors))
        cols.extend(int(v) for v in neighbors)
        values.extend([weight] * len(neighbors))
    return sp.csr_matrix((values, (rows, cols)), shape=(size, size))


def second_eigenvalue_magnitude(topology: Topology) -> float:
    """``λ = max(|λ₂|, |λ_A|)`` of the walk matrix of a *regular* topology.

    For regular topologies the walk matrix is symmetric, so its eigenvalues
    are real and we can use Lanczos iterations (or a dense solve for small
    graphs). Non-regular graphs are handled by symmetrising with the degree
    weighting ``D^{-1/2} A D^{-1/2}``, which has the same spectrum as ``W``.
    """
    size = topology.num_nodes
    degrees = np.asarray(topology.degree_of(np.arange(size)), dtype=np.float64)
    walk = transition_matrix(topology)
    # Similarity transform to a symmetric matrix with identical spectrum.
    d_sqrt = np.sqrt(degrees)
    sym = sp.diags(d_sqrt) @ walk @ sp.diags(1.0 / d_sqrt)
    sym = (sym + sym.T) * 0.5

    if size <= 4096:
        # Dense solve. Deliberately used far beyond the point where Lanczos
        # becomes cheaper: ARPACK's eigsh is not bit-deterministic across
        # calls (even with a pinned v0 its restarts perturb the result at
        # the ~1e-13 level), which is enough to break the suite's
        # bit-identical-records guarantee. eigvalsh is deterministic, and
        # every eigenvalue consumer in the library (expanders up to ~2500
        # nodes, burn-in prescriptions) stays under this threshold at well
        # under two seconds per (cached) solve.
        eigenvalues = np.linalg.eigvalsh(sym.toarray())
    else:
        # Largest magnitude eigenvalues; request a few to skip the trivial
        # 1. The pinned start vector keeps repeated runs as close as ARPACK
        # allows, but bit-identity is not guaranteed on this path.
        k = min(6, size - 2)
        v0 = np.full(size, 1.0 / np.sqrt(size))
        eigenvalues = spla.eigsh(sym, k=k, which="LM", return_eigenvectors=False, v0=v0)
        eigenvalues = np.sort(eigenvalues)
    eigenvalues = np.sort(eigenvalues)
    # Drop one eigenvalue equal to 1 (the stationary eigenvector).
    top_index = int(np.argmax(eigenvalues))
    mask = np.ones(len(eigenvalues), dtype=bool)
    mask[top_index] = False
    remaining = eigenvalues[mask]
    if remaining.size == 0:
        return 0.0
    return float(np.max(np.abs(remaining)))


__all__ = [
    "transition_matrix",
    "second_eigenvalue_magnitude",
]

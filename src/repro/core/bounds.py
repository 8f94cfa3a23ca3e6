"""Every closed-form bound stated by the paper, as plain functions.

The functions are organised by where they appear:

* Theorem 1 (2-D torus accuracy / round complexity),
* Lemma 4 and its analogues (re-collision probability bounds per topology),
* the local mixing sum B(t) per topology (Lemma 19, Sections 4.3–4.5),
* Theorem 27 / Theorem 31 / Section 5.1.4 (network size estimation),
* Theorem 32 (independent-sampling baseline).

All bounds hide universal constants; each function takes an optional
``constant`` argument (default 1) so that experiments can fit the constant on
one data point and check the *shape* on the rest, which is how the
reproduction validates asymptotic statements.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import (
    require_in_range,
    require_integer,
    require_positive,
    require_probability,
)


# ----------------------------------------------------------------------
# Theorem 1 — random-walk density estimation on the two-dimensional torus
# ----------------------------------------------------------------------
def theorem1_epsilon(rounds: int | float, density: float, delta: float, *, constant: float = 1.0) -> float:
    """Accuracy of Algorithm 1 on the 2-D torus after ``rounds`` rounds.

    Theorem 1, first claim: with probability ``1 - δ``,
    ``ε <= c · sqrt(log(1/δ) / (t·d)) · log(2t)``.
    """
    require_positive(rounds, "rounds")
    require_positive(density, "density")
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    require_positive(constant, "constant")
    return constant * math.sqrt(math.log(1.0 / delta) / (rounds * density)) * math.log(2.0 * rounds)


def theorem1_rounds(density: float, epsilon: float, delta: float, *, constant: float = 1.0) -> int:
    """Rounds sufficient for a ``(1 ± ε)`` estimate on the 2-D torus.

    Theorem 1, second claim:
    ``t = c · log(1/δ) · [log log(1/δ) + log(1/(dε))]² / (dε²)``.
    The ``log log`` term is clamped at zero for very mild ``δ``.
    """
    require_positive(density, "density")
    require_probability(epsilon, "epsilon", allow_zero=False, allow_one=False)
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    require_positive(constant, "constant")
    log_inv_delta = math.log(1.0 / delta)
    loglog = math.log(log_inv_delta) if log_inv_delta > 1.0 else 0.0
    log_term = max(loglog, 0.0) + max(math.log(1.0 / (density * epsilon)), 0.0)
    rounds = constant * log_inv_delta * (log_term**2) / (density * epsilon**2)
    return max(1, int(math.ceil(rounds)))


# ----------------------------------------------------------------------
# Re-collision probability bounds (Lemma 4 and Section 4 analogues)
# ----------------------------------------------------------------------
def recollision_bound_torus2d(offset: int, num_nodes: int, *, constant: float = 1.0) -> float:
    """Lemma 4: ``P[re-collision after m steps] = O(1/(m+1) + 1/A)``."""
    require_integer(offset, "offset", minimum=0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    return constant * (1.0 / (offset + 1.0) + 1.0 / num_nodes)


def recollision_bound_ring(offset: int, num_nodes: int, *, constant: float = 1.0) -> float:
    """Lemma 20: on the ring the bound is ``O(1/sqrt(m+1) + 1/A)``."""
    require_integer(offset, "offset", minimum=0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    return constant * (1.0 / math.sqrt(offset + 1.0) + 1.0 / num_nodes)


def recollision_bound_torus_kd(offset: int, num_nodes: int, dims: int, *, constant: float = 1.0) -> float:
    """Lemma 22: on a k-D torus the bound is ``O(1/(m+1)^{k/2} + 1/A)``."""
    require_integer(offset, "offset", minimum=0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    require_integer(dims, "dims", minimum=1)
    return constant * (1.0 / (offset + 1.0) ** (dims / 2.0) + 1.0 / num_nodes)


def recollision_bound_expander(offset: int, num_nodes: int, lambda_value: float) -> float:
    """Lemma 23: on a regular expander the bound is ``λ^m + 1/A`` (no hidden constant)."""
    require_integer(offset, "offset", minimum=0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    require_in_range(lambda_value, "lambda_value", 0.0, 1.0)
    return lambda_value**offset + 1.0 / num_nodes


def recollision_bound_hypercube(offset: int, num_nodes: int) -> float:
    """Lemma 25: on the hypercube the bound is ``(9/10)^{m-1} + 1/sqrt(A)``."""
    require_integer(offset, "offset", minimum=0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    exponent = max(offset - 1, 0)
    return (9.0 / 10.0) ** exponent + 1.0 / math.sqrt(num_nodes)


# ----------------------------------------------------------------------
# Lemma 19 — from a re-collision bound to estimation accuracy
# ----------------------------------------------------------------------
def local_mixing_sum_torus2d(rounds: int, *, constant: float = 1.0) -> float:
    """``B(t) = O(log 2t)`` on the 2-D torus (sum of Lemma 4's bound)."""
    require_integer(rounds, "rounds", minimum=1)
    return constant * math.log(2.0 * rounds)


def local_mixing_sum_ring(rounds: int, *, constant: float = 1.0) -> float:
    """``B(t) = Θ(sqrt(t))`` on the ring."""
    require_integer(rounds, "rounds", minimum=1)
    return constant * math.sqrt(rounds)


def local_mixing_sum_torus_kd(rounds: int, dims: int, *, constant: float = 1.0) -> float:
    """``B(t) = O_k(1)`` for k >= 3 (Section 4.3); log/ sqrt forms for k = 2, 1."""
    require_integer(rounds, "rounds", minimum=1)
    require_integer(dims, "dims", minimum=1)
    if dims == 1:
        return local_mixing_sum_ring(rounds, constant=constant)
    if dims == 2:
        return local_mixing_sum_torus2d(rounds, constant=constant)
    # For k >= 3 the series sum_m (m+1)^{-k/2} converges; use the zeta value.
    tail = sum((m + 1.0) ** (-dims / 2.0) for m in range(rounds + 1))
    return constant * tail


def local_mixing_sum_expander(rounds: int, lambda_value: float, num_nodes: int) -> float:
    """``B(t) <= 1/(1-λ) + t/A`` on a regular expander (Section 4.4)."""
    require_integer(rounds, "rounds", minimum=1)
    require_in_range(lambda_value, "lambda_value", 0.0, 1.0)
    require_integer(num_nodes, "num_nodes", minimum=1)
    if lambda_value >= 1.0:
        raise ValueError("lambda_value must be < 1 for an expander")
    return 1.0 / (1.0 - lambda_value) + rounds / num_nodes


def local_mixing_sum_hypercube(rounds: int, num_nodes: int) -> float:
    """``B(t) <= 10 + t/sqrt(A)`` on the hypercube (Section 4.5)."""
    require_integer(rounds, "rounds", minimum=1)
    require_integer(num_nodes, "num_nodes", minimum=1)
    return 10.0 + rounds / math.sqrt(num_nodes)


# ----------------------------------------------------------------------
# Theorem 32 / complete graph — independent sampling
# ----------------------------------------------------------------------
def independent_sampling_epsilon(rounds: int | float, density: float, delta: float, *, constant: float = 1.0) -> float:
    """Theorem 32: ``ε = O(sqrt(log(1/δ) / (t·d)))``."""
    require_positive(rounds, "rounds")
    require_positive(density, "density")
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    return constant * math.sqrt(math.log(1.0 / delta) / (rounds * density))


# ----------------------------------------------------------------------
# Union bound over all agents (Section 3.1 remark)
# ----------------------------------------------------------------------
def per_agent_delta(total_delta: float, num_agents: int) -> float:
    """δ to use per agent so all ``num_agents`` agents succeed w.p. ``1 - total_delta``."""
    require_probability(total_delta, "total_delta", allow_zero=False, allow_one=False)
    require_integer(num_agents, "num_agents", minimum=1)
    return total_delta / num_agents


# ----------------------------------------------------------------------
# Section 5.1 — network size estimation
# ----------------------------------------------------------------------
def theorem27_walks_required(
    num_nodes: int,
    num_edges: int,
    local_mixing: float,
    rounds: int,
    epsilon: float,
    delta: float,
    *,
    constant: float = 1.0,
) -> int:
    """Theorem 27: walks ``n`` with ``n²t = Θ((B(t)·deg + 1)·|V| / (ε²δ))``.

    Returns the smallest integer ``n`` satisfying the bound for the given
    number of rounds ``t`` (at least 2, since collisions need two walks).
    """
    require_integer(num_nodes, "num_nodes", minimum=1)
    require_integer(num_edges, "num_edges", minimum=1)
    require_positive(local_mixing, "local_mixing")
    require_integer(rounds, "rounds", minimum=1)
    require_probability(epsilon, "epsilon", allow_zero=False, allow_one=False)
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    average_degree = 2.0 * num_edges / num_nodes
    required_product = constant * (local_mixing * average_degree + 1.0) * num_nodes / (epsilon**2 * delta)
    walks = math.sqrt(required_product / rounds)
    return max(2, int(math.ceil(walks)))


def theorem31_samples_required(
    average_degree: float, min_degree: float, epsilon: float, delta: float, *, constant: float = 1.0
) -> int:
    """Theorem 31: ``n = Θ( deg / (deg_min · ε² · δ) )`` samples for the average degree."""
    require_positive(average_degree, "average_degree")
    require_positive(min_degree, "min_degree")
    require_probability(epsilon, "epsilon", allow_zero=False, allow_one=False)
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    samples = constant * average_degree / (min_degree * epsilon**2 * delta)
    return max(1, int(math.ceil(samples)))


def burn_in_steps(lambda_value: float, num_edges: int, delta: float, *, constant: float = 1.0) -> int:
    """Section 5.1.4: burn-in ``M = O(log(|E|/δ) / (1-λ))`` steps."""
    require_in_range(lambda_value, "lambda_value", 0.0, 1.0)
    if lambda_value >= 1.0:
        raise ValueError("lambda_value must be < 1")
    require_integer(num_edges, "num_edges", minimum=1)
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    steps = constant * math.log(num_edges / delta) / (1.0 - lambda_value)
    return max(1, int(math.ceil(steps)))


def katzir_walks_required(
    num_nodes: int, degrees: np.ndarray, epsilon: float, delta: float, *, constant: float = 1.0
) -> int:
    """[KLSC14] baseline: ``n = Θ( |V|·deg / (ε²δ·sqrt(Σ deg(v)²)) )`` walks.

    This is the "halt after burn-in and count collisions once" estimator
    that Section 5.1.5 compares against.
    """
    require_integer(num_nodes, "num_nodes", minimum=1)
    degrees = np.asarray(degrees, dtype=np.float64)
    require_probability(epsilon, "epsilon", allow_zero=False, allow_one=False)
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    average_degree = float(degrees.mean())
    denominator = epsilon**2 * delta * math.sqrt(float(np.sum(degrees**2)))
    walks = constant * num_nodes * average_degree / denominator
    return max(2, int(math.ceil(walks)))


__all__ = [
    "theorem1_epsilon",
    "theorem1_rounds",
    "recollision_bound_torus2d",
    "recollision_bound_ring",
    "recollision_bound_torus_kd",
    "recollision_bound_expander",
    "recollision_bound_hypercube",
    "local_mixing_sum_torus2d",
    "local_mixing_sum_ring",
    "local_mixing_sum_torus_kd",
    "local_mixing_sum_expander",
    "local_mixing_sum_hypercube",
    "independent_sampling_epsilon",
    "per_agent_delta",
    "theorem27_walks_required",
    "theorem31_samples_required",
    "burn_in_steps",
    "katzir_walks_required",
]

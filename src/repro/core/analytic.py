"""Closed-form expectations of Algorithm 1 — the ``analytic`` kernel backend.

Where the reference and fused backends *simulate* the encounter process,
this module *solves* it. For the vertex-transitive catalog topologies the
collision process of Algorithm 1 is exactly tractable:

* every agent's position is uniform on the nodes in every round (uniform
  placement is stationary for the uniform random walk), so two distinct
  agents collide in any given round with probability ``1/A`` and the
  per-agent estimate is **exactly unbiased**: ``E[d̃] = d = (n_a - 1)/A``;
* the only dependence between rounds is the single-pair *re-collision*
  chain: two walkers who share a node share one again ``m`` rounds later
  with probability ``p_m = Σ_x P^m(v, x)²`` — a quantity this module
  computes by per-round sparse transition-matrix convolution
  (:func:`meeting_probabilities`), or in closed form where one exists
  (complete graph, hypercube);
* covariances that involve three distinct walks vanish *exactly* (the
  walks are independent and their round marginals uniform), so the
  variance of every estimate is a finite sum over the ``p_m`` series —
  not a bound, the exact value (:class:`AnalyticSolution`).

Replicates therefore drop out of the cost model entirely: a batched
``run_kernel(..., replicates=R, backend="analytic")`` call costs the same
single ``O(A · degree · t)`` matrix recursion for ``R = 1`` and
``R = 10**6``; the replicate axis of the returned arrays is a read-only
``np.broadcast_to`` view.

Results flow through the ordinary result containers so every downstream
consumer (experiments, sweeps, serve, the statistical suite) works
untouched. The collision totals are **deterministic expectation combs**,
not samples: agent ``i`` receives ``E[C] + sd(C) · Φ⁻¹((i + ½)/n)``
(normalised to exact mean/variance), so the cross-agent mean of the
estimates is exactly ``d``, their variance exactly ``Var(d̃)``, and
quantile statistics such as :func:`repro.analysis.accuracy.empirical_epsilon`
reproduce the CLT prediction ``z_{1-δ/2} · σ/d``. This is why the backend
is **not** bit-identical to reference/fused — it returns the law of the
process, not a draw from it — and why cross-backend checks against it are
tolerance-based (see TESTING.md, "the analytic oracle contract").

Everything outside the solvable regime raises
:class:`AnalyticUnsupportedError` naming the offending component, so a
mis-targeted ``--backend analytic`` fails loudly instead of silently
returning wrong expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.kernel import BatchSimulationResult
from repro.core.simulation import SimulationConfig, SimulationResult
from repro.topology.base import Topology
from repro.topology.complete import CompleteGraph
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD
from repro.utils.rng import SeedLike
from repro.utils.validation import require_integer

# SciPy is imported inside the functions that use it, so importing this
# module costs NumPy only.
if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse

#: Topologies whose single-pair chain the engine can solve. All are
#: vertex-transitive with a symmetric uniform-step walk, which is what makes
#: ``p_m`` start-node independent and the round marginals uniform.
SUPPORTED_TOPOLOGIES = (CompleteGraph, Ring, Torus2D, TorusKD, Hypercube)

#: Budget for the explicit sparse transition matrix (``A · num_step_choices``
#: stored entries). The closed-form topologies (complete graph, hypercube)
#: are exempt — their series cost ``O(1)`` per lag regardless of ``A``.
MAX_TRANSITION_NNZ = 1 << 24


class AnalyticUnsupportedError(ValueError):
    """The requested combo has no exact analytic solution.

    Raised by :func:`ensure_analytic_supported` (and everything built on
    it) with a message naming the offending topology, movement model,
    observation model, hook, or size. Subclasses :class:`ValueError` so the
    CLI's error guard reports it as a clean ``error:`` line (exit 2).
    """


# ----------------------------------------------------------------------
# Capability checking
# ----------------------------------------------------------------------


def ensure_analytic_supported(topology: Topology, config: SimulationConfig) -> None:
    """Raise :class:`AnalyticUnsupportedError` unless the combo is solvable.

    The solvable regime is exactly: a supported vertex-transitive topology,
    uniform placement, the uniform random walk (``movement=None`` or a
    ``precomputed_steps`` model), noiseless observation, no per-round hook,
    no marked subpopulation, and no trajectory recording. Each check names
    its offender so callers can tell *which* ingredient broke the math.
    """
    if not isinstance(topology, SUPPORTED_TOPOLOGIES):
        supported = ", ".join(cls.__name__ for cls in SUPPORTED_TOPOLOGIES)
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support topology {topology.name!r} "
            f"({type(topology).__name__}): no exact single-pair re-collision "
            f"chain is implemented for it. Supported topologies: {supported}."
        )
    movement = config.movement
    if movement is not None and not getattr(movement, "precomputed_steps", False):
        name = getattr(movement, "name", None) or type(movement).__name__
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support movement model {name!r}: "
            "only the uniform random walk (movement=None, or a model "
            "declaring precomputed_steps=True such as UniformRandomWalk) "
            "keeps the round marginals uniform, which the exact mean and "
            "variance derivations require."
        )
    model = config.collision_model
    if model is not None and not getattr(model, "is_noiseless", False):
        name = getattr(model, "name", None) or type(model).__name__
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support collision model {name!r}: "
            "it perturbs the observed counts, and the analytic engine "
            "computes exact noiseless expectations. Drop the model or run a "
            "simulating backend (reference/fused)."
        )
    if config.round_hook is not None:
        name = getattr(config.round_hook, "__name__", None) or type(config.round_hook).__name__
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support round_hook {name!r}: hooks "
            "may mutate the population or topology mid-run, which has no "
            "closed-form law. Dynamic scenarios require a simulating backend."
        )
    if config.placement is not None:
        name = getattr(config.placement, "__name__", None) or type(config.placement).__name__
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support custom placement {name!r}: "
            "the derivation assumes independent uniform placement (the "
            "stationary distribution); a custom placement breaks the "
            "uniform round marginals."
        )
    if config.marked_fraction > 0.0:
        raise AnalyticUnsupportedError(
            f"backend='analytic' does not support marked_fraction="
            f"{config.marked_fraction}: marked-subpopulation collision "
            "totals are random in the property assignment, which the "
            "deterministic expectation containers cannot represent."
        )
    if config.record_trajectory:
        raise AnalyticUnsupportedError(
            "backend='analytic' does not support record_trajectory=True: "
            "per-round cumulative trajectories are sample paths, and the "
            "analytic engine returns laws, not paths."
        )


# ----------------------------------------------------------------------
# The single-pair re-collision chain
# ----------------------------------------------------------------------


def transition_matrix(topology: Topology) -> scipy.sparse.csr_matrix:
    """The one-step walk transition matrix ``P`` as a sparse CSR matrix.

    Built from the topology's own ``precomputed_steps`` capability: entry
    ``P[x, y]`` is the fraction of the ``num_step_choices`` uniform step
    draws that move ``x`` to ``y`` (duplicate destinations — e.g. the two
    directions of a side-2 torus — accumulate). Row-stochastic by
    construction, and symmetric for every supported topology (each step has
    an equally likely inverse step), which the property suite pins.
    """
    if not isinstance(topology, SUPPORTED_TOPOLOGIES):
        supported = ", ".join(cls.__name__ for cls in SUPPORTED_TOPOLOGIES)
        raise AnalyticUnsupportedError(
            f"no analytic transition structure for topology {topology.name!r} "
            f"({type(topology).__name__}); supported topologies: {supported}."
        )
    import scipy.sparse

    num_nodes = topology.num_nodes
    choices = int(topology.num_step_choices)
    if num_nodes * choices > MAX_TRANSITION_NNZ:
        raise AnalyticUnsupportedError(
            f"topology {topology.name!r} needs {num_nodes * choices} sparse "
            f"transition entries ({num_nodes} nodes x {choices} steps), over "
            f"the analytic budget of {MAX_TRANSITION_NNZ}; reduce the "
            "topology size or use a simulating backend."
        )
    nodes = np.arange(num_nodes, dtype=np.int64)
    rows = np.tile(nodes, choices)
    cols = np.concatenate(
        [
            np.asarray(
                topology.apply_steps(nodes, np.full(num_nodes, choice, dtype=np.int64)),
                dtype=np.int64,
            )
            for choice in range(choices)
        ]
    )
    data = np.full(num_nodes * choices, 1.0 / choices)
    return scipy.sparse.coo_matrix(
        (data, (rows, cols)), shape=(num_nodes, num_nodes)
    ).tocsr()


def meeting_probabilities(topology: Topology, max_lag: int) -> np.ndarray:
    """``p_m`` for ``m = 0..max_lag``: the single-pair re-collision series.

    ``p_m`` is the probability that two independent walkers currently on a
    common node share a node again exactly ``m`` rounds later; by vertex
    transitivity it does not depend on which node, so ``p_m = ||P^m δ_v||²``
    for any anchor ``v``. ``p_0 = 1`` by definition.

    The complete graph and the hypercube use exact closed forms (``O(1)``
    and ``O(dims)`` per lag); the torus/ring families run the sparse
    per-round convolution ``ρ_{m+1} = Pᵀ ρ_m`` — the same move the
    dispersal-model exemplar makes with its per-step scipy.sparse solution.
    """
    require_integer(max_lag, "max_lag", minimum=0)
    lags = np.arange(max_lag + 1)
    if isinstance(topology, CompleteGraph):
        # Return probability of one walker: a_m = 1/A + (1-1/A)(-1/(A-1))^m.
        # Conditioned on that, the second walker is at the shared node with
        # the same a_m and at each of the other A-1 nodes equally otherwise.
        size = topology.num_nodes
        a = 1.0 / size + (1.0 - 1.0 / size) * (-1.0 / (size - 1)) ** lags
        return a * a + (1.0 - a) ** 2 / (size - 1)
    if isinstance(topology, Hypercube):
        # The XOR of two independent m-step flip walks is a 2m-step flip
        # walk, so p_m is its return probability — a character sum over the
        # cube's eigenvalues (k-2j)/k with binomial weights.
        dims = topology.dims
        j = np.arange(dims + 1)
        weights = np.array([math.comb(dims, int(v)) for v in j], dtype=np.float64)
        weights *= 2.0**-dims
        eigenvalues = (dims - 2 * j) / dims
        return (weights[None, :] * eigenvalues[None, :] ** (2 * lags[:, None])).sum(axis=1)
    matrix = transition_matrix(topology).T.tocsr()
    rho = np.zeros(topology.num_nodes)
    rho[0] = 1.0
    series = np.empty(max_lag + 1)
    series[0] = 1.0
    for lag in range(1, max_lag + 1):
        rho = matrix @ rho
        series[lag] = float(rho @ rho)
    return series


# ----------------------------------------------------------------------
# The solution object
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """Exact law of Algorithm 1's estimates for one (topology, config) pair.

    All quantities are *exact* (finite-``A``, finite-``t``), not asymptotic
    bounds: the mean from uniform stationarity, the variances from the
    ``p_m`` re-collision series (three-walk covariances vanish exactly).
    The only approximate methods are the confidence widths —
    :meth:`clt_epsilon` (a CLT quantile) and :meth:`chernoff_epsilon`
    (a Chernoff tail bound, conservative by construction).
    """

    topology_name: str
    num_nodes: int
    num_agents: int
    rounds: int
    #: ``p_m`` indexed by lag, length ``rounds`` (``recollision[0] == 1``).
    recollision: np.ndarray
    #: Exact variance of one pair's collision-indicator sum over ``rounds``.
    pair_variance: float

    # -- first moments --------------------------------------------------
    @property
    def density(self) -> float:
        """The paper's ``d = (n_a - 1)/A`` — also exactly ``E[d̃]``."""
        return (self.num_agents - 1) / self.num_nodes

    @property
    def expected_collision_total(self) -> float:
        """Expected total collisions one agent accumulates, ``t · d``."""
        return self.rounds * self.density

    def expected_collision_curve(self) -> np.ndarray:
        """Expected cumulative collisions after rounds ``1..t`` (linear in t)."""
        return self.density * np.arange(1, self.rounds + 1, dtype=np.float64)

    # -- second moments -------------------------------------------------
    @property
    def estimate_variance(self) -> float:
        """Exact ``Var(d̃_u)`` of one agent's estimate.

        ``Var(C_u) = n · V_pair`` exactly: the ``n = n_a - 1`` pair sums are
        uncorrelated because every covariance through a third walk vanishes.
        """
        n_others = self.num_agents - 1
        return n_others * self.pair_variance / self.rounds**2

    @property
    def estimate_std(self) -> float:
        """Exact standard deviation of one agent's estimate."""
        return math.sqrt(self.estimate_variance)

    @property
    def independent_variance(self) -> float:
        """``Var(d̃_u)`` if rounds were independent Bernoulli samples."""
        occupancy = 1.0 / self.num_nodes
        return (self.num_agents - 1) * occupancy * (1.0 - occupancy) / self.rounds

    @property
    def variance_inflation(self) -> float:
        """Exact variance over the independent-sampling variance (>= 1 on
        the slow-mixing topologies; exactly the paper's re-collision
        overhead, Lemma 19's quantity without the big-O)."""
        if self.num_agents == 1:
            return 1.0
        return self.estimate_variance / self.independent_variance

    @cached_property
    def _pair_covariance(self) -> float:
        """``Cov(d̃_u, d̃_v)`` for two distinct agents (shared-pair term)."""
        return self.pair_variance / self.rounds**2

    def grand_mean_variance(self, replicates: int = 1) -> float:
        """Exact variance of the across-agent (and replicate) mean estimate.

        One replicate's grand mean has ``Var = 2 n V_pair / (n_a t²)`` —
        each pair sum appears in two agents' counts — and independent
        replicates divide it by ``R``.
        """
        require_integer(replicates, "replicates", minimum=1)
        n_others = self.num_agents - 1
        single = 2.0 * n_others * self.pair_variance / (self.num_agents * self.rounds**2)
        return single / replicates

    def expected_sample_variance(self, replicates: int = 1) -> float:
        """Exact expectation of the pooled sample variance (``ddof=1``) of
        all ``R · n_a`` per-agent estimates.

        ``E[S²] = Var(d̃) − mean pairwise covariance``; only same-replicate
        pairs covary (through their shared pair sum).
        """
        require_integer(replicates, "replicates", minimum=1)
        total = replicates * self.num_agents
        if total < 2:
            return 0.0
        shared = (self.num_agents - 1) / (total - 1)
        return self.estimate_variance - shared * self._pair_covariance

    # -- confidence widths ----------------------------------------------
    def clt_epsilon(self, delta: float = 0.05) -> float:
        """CLT prediction of the ``(1-δ)`` relative-error quantile.

        Matches :func:`repro.analysis.accuracy.empirical_epsilon`: the
        ``(1-δ)`` quantile of ``|d̃ - d|/d`` under a normal approximation is
        ``z_{1-δ/2} · σ/d``.
        """
        from scipy.special import ndtri

        _require_delta(delta)
        if self.density == 0.0:
            return math.inf
        return float(ndtri(1.0 - delta / 2.0)) * self.estimate_std / self.density

    def chernoff_epsilon(self, delta: float = 0.05) -> float:
        """Chernoff-style relative-error width at confidence ``1-δ``.

        Inverts the paper's tail bound ``P(fail) <= 2 exp(-ε² t d / 3)`` and
        inflates by ``sqrt(variance_inflation)`` to account for re-collision
        correlation (the Lemma 19 move). Conservative: always at least the
        independent-sampling width.
        """
        _require_delta(delta)
        mean_total = self.rounds * self.density
        if mean_total == 0.0:
            return math.inf
        epsilon = math.sqrt(3.0 * math.log(2.0 / delta) / mean_total)
        return epsilon * math.sqrt(max(1.0, self.variance_inflation))


def _require_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def solve(topology: Topology, config: SimulationConfig) -> AnalyticSolution:
    """Solve the encounter process exactly for one (topology, config) pair.

    ``V_pair = t·q(1-q) + 2·Σ_{m=1}^{t-1} (t-m)·q·(p_m - q)`` with
    ``q = 1/A``: the variance of one pair's collision-indicator sum, the
    only nontrivial ingredient of every estimate moment.
    """
    ensure_analytic_supported(topology, config)
    rounds = config.rounds
    occupancy = 1.0 / topology.num_nodes
    recollision = meeting_probabilities(topology, rounds - 1)
    lags = np.arange(1, rounds)
    lag_covariances = occupancy * (recollision[1:] - occupancy)
    pair_variance = rounds * occupancy * (1.0 - occupancy) + 2.0 * float(
        ((rounds - lags) * lag_covariances).sum()
    )
    return AnalyticSolution(
        topology_name=topology.name,
        num_nodes=topology.num_nodes,
        num_agents=config.num_agents,
        rounds=rounds,
        recollision=recollision,
        pair_variance=max(0.0, pair_variance),
    )


# ----------------------------------------------------------------------
# Result containers (the existing record schema, carrying the law)
# ----------------------------------------------------------------------


@dataclass
class AnalyticSimulationResult(SimulationResult):
    """Serial-mode analytic result: a :class:`SimulationResult` whose
    collision totals are the deterministic expectation comb, plus the
    :class:`AnalyticSolution` it was built from."""

    solution: Optional[AnalyticSolution] = None


@dataclass
class AnalyticBatchResult(BatchSimulationResult):
    """Batched analytic result. Every per-agent array is a **read-only**
    ``np.broadcast_to`` view over one ``(n,)`` row — identical for every
    replicate — which is what makes the backend ``O(1)`` in ``R``."""

    solution: Optional[AnalyticSolution] = None


def _expectation_comb(solution: AnalyticSolution) -> np.ndarray:
    """Deterministic per-agent collision totals encoding the exact law.

    A Gaussian quantile comb ``Φ⁻¹((i+½)/n)``, renormalised to exact zero
    mean and unit variance, scaled by ``sd(C_u)`` and shifted by ``E[C_u]``:
    the cross-agent mean and variance of the resulting estimates equal the
    analytic mean and variance *exactly*, and empirical quantile statistics
    reproduce the CLT widths.
    """
    from scipy.special import ndtri

    count = solution.num_agents
    mean_total = solution.expected_collision_total
    std_total = solution.rounds * solution.estimate_std
    comb = np.asarray(ndtri((np.arange(count) + 0.5) / count), dtype=np.float64)
    comb -= comb.mean()
    spread = comb.std()
    if spread > 0.0 and std_total > 0.0:
        comb *= std_total / spread
    else:
        comb = np.zeros(count)
    return mean_total + comb


def run_analytic(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int] = None,
    seed: SeedLike = None,
) -> AnalyticSimulationResult | AnalyticBatchResult:
    """The ``backend="analytic"`` entry point behind :func:`run_kernel`.

    Validates the combo (:func:`ensure_analytic_supported`), solves the
    process (:func:`solve`), and wraps the law in the ordinary result
    containers. ``seed`` is accepted for signature compatibility with the
    simulating backends and ignored — the output is deterministic.
    Positions and the marked vector are schema-filling zeros (the law has
    no sample path); ``metadata["backend"] == "analytic"`` marks them.
    """
    del seed  # deterministic: the law of the process has no randomness
    if replicates is not None:
        require_integer(replicates, "replicates", minimum=1)
    solution = solve(topology, config)
    totals_row = _expectation_comb(solution)
    count = config.num_agents
    metadata = {"topology": topology.name, "backend": "analytic"}
    if replicates is None:
        return AnalyticSimulationResult(
            collision_totals=totals_row,
            marked_collision_totals=np.zeros(count),
            marked=np.zeros(count, dtype=bool),
            initial_positions=np.zeros(count, dtype=np.int64),
            final_positions=np.zeros(count, dtype=np.int64),
            rounds=config.rounds,
            num_nodes=topology.num_nodes,
            metadata=metadata,
            solution=solution,
        )
    shape = (replicates, count)
    return AnalyticBatchResult(
        collision_totals=np.broadcast_to(totals_row, shape),
        marked_collision_totals=np.broadcast_to(np.zeros(count), shape),
        marked=np.broadcast_to(np.zeros(count, dtype=bool), shape),
        initial_positions=np.broadcast_to(np.zeros(count, dtype=np.int64), shape),
        final_positions=np.broadcast_to(np.zeros(count, dtype=np.int64), shape),
        rounds=config.rounds,
        num_nodes=topology.num_nodes,
        metadata=dict(metadata, replicates=replicates),
        solution=solution,
    )


__all__ = [
    "AnalyticBatchResult",
    "AnalyticSimulationResult",
    "AnalyticSolution",
    "AnalyticUnsupportedError",
    "MAX_TRANSITION_NNZ",
    "SUPPORTED_TOPOLOGIES",
    "ensure_analytic_supported",
    "meeting_probabilities",
    "run_analytic",
    "solve",
    "transition_matrix",
]

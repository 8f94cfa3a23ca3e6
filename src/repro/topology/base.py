"""Abstract topology interface.

A topology is a finite graph whose nodes are labelled ``0 .. num_nodes - 1``.
Agents occupy nodes and move by stepping to a uniformly random neighbour each
round (the random-walk model of Section 2 of the paper).

The interface is deliberately array-first: ``step_many`` maps an array of
current positions to an array of next positions in one vectorised call, which
is what makes simulating thousands of agents for thousands of rounds cheap in
pure Python + NumPy.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.rng import SeedLike, as_generator


class Topology(abc.ABC):
    """Base class for all walkable topologies.

    Subclasses must provide :attr:`num_nodes`, :meth:`degree_of`,
    :meth:`neighbors`, and :meth:`step_many`. Regular topologies should
    additionally subclass :class:`RegularTopology`.

    Topologies whose random-walk step factors into "draw an index, then
    apply a deterministic displacement" may additionally declare the
    ``precomputed_steps`` capability (see :meth:`draw_steps`), which lets
    the fused kernel fast path (:mod:`repro.core.fastpath`) draw many
    rounds of randomness at once and apply steps through precomputed
    displacement tables.
    """

    #: Human-readable name used in experiment tables.
    name: str = "topology"

    #: The ``precomputed_steps`` capability: ``True`` when the walk step
    #: decomposes into :meth:`draw_steps` + :meth:`apply_steps` with
    #: *bit-identical* stream consumption to :meth:`step_many`. Declaring
    #: it obliges the subclass to implement both methods, to set
    #: :attr:`num_step_choices`, and to route its own ``step_many``
    #: through the pair so the decomposition can never drift.
    precomputed_steps: bool = False

    #: Number of distinct values :meth:`draw_steps` may return (draws lie
    #: in ``[0, num_step_choices)``); ``None`` without the capability.
    num_step_choices: int | None = None

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Total number of nodes (the quantity ``A`` in the paper)."""

    @property
    def is_regular(self) -> bool:
        """Whether all nodes have the same degree.

        Regularity is what keeps the stationary distribution uniform, which
        the density-estimation analysis relies on (Lemma 2 / Section 4.1).
        """
        return False

    @abc.abstractmethod
    def degree_of(self, nodes: np.ndarray | int) -> np.ndarray | int:
        """Degree of each node in ``nodes`` (scalar in, scalar out)."""

    @abc.abstractmethod
    def neighbors(self, node: int) -> np.ndarray:
        """Array of neighbours of ``node`` (used by tests and the oracle)."""

    @abc.abstractmethod
    def step_many(self, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance every position by one uniformly random neighbour step.

        Parameters
        ----------
        positions:
            Integer array of current node labels, of **any shape**. In
            particular implementations must accept the ``(replicates,
            agents)`` matrices of the kernel's batched mode
            (:func:`repro.core.kernel.run_kernel`), so batching needs no
            per-topology special cases; every entry is stepped independently.
        rng:
            Generator supplying the randomness.

        Returns
        -------
        numpy.ndarray
            Array of the same shape with the new node labels.
        """

    # ------------------------------------------------------------------
    # The precomputed_steps capability
    # ------------------------------------------------------------------
    def draw_steps(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw one round of step choices, consuming the stream like ``step_many``.

        Returns an integer array of ``shape`` with values in
        ``[0, num_step_choices)``. The contract (the **bit-identity stream
        contract**, see TESTING.md) is exact, not distributional:
        ``apply_steps(p, draw_steps(p.shape, rng))`` must equal
        ``step_many(p, rng)`` *and* leave ``rng`` in the same state.
        Capability-declaring subclasses therefore implement ``step_many``
        as exactly that composition.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare the precomputed_steps capability"
        )

    def draw_steps_chunk(
        self, chunk: int, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``chunk`` rounds of step choices as one ``(chunk, *shape)`` array.

        Row ``k`` must be bit-identical to the ``k``-th of ``chunk``
        sequential :meth:`draw_steps` calls, and the generator must end in
        the same state. The default implementation draws round by round,
        which satisfies the contract for *any* topology (including those
        whose per-round draw interleaves several generator calls, like
        :class:`~repro.topology.TorusKD`); subclasses whose draw is a
        single generator call override this with one vectorised draw —
        NumPy's bounded-integer samplers consume the stream element by
        element in C order, so one ``(chunk, *shape)`` draw is
        bit-identical to ``chunk`` consecutive ``shape`` draws.
        """
        return np.stack([self.draw_steps(shape, rng) for _ in range(chunk)])

    def apply_steps(self, positions: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Deterministically apply drawn step choices to positions.

        Pure (no randomness): ``apply_steps(p, d)`` maps current node
        labels ``p`` and draw indices ``d`` (same shape) to next labels.
        The fused kernel may tabulate this function over all
        ``(node, choice)`` pairs, so it must be elementwise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare the precomputed_steps capability"
        )

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def uniform_nodes(
        self, count: int | tuple[int, ...], seed: SeedLike = None
    ) -> np.ndarray:
        """Place ``count`` agents independently and uniformly at random.

        This is the initial placement assumed throughout Section 2 of the
        paper ("each agent is placed independently at a uniform random node").
        ``count`` may also be a shape tuple — the batched engine uses
        ``(replicates, agents)`` to draw every replicate's placement at once.
        """
        rng = as_generator(seed)
        return rng.integers(0, self.num_nodes, size=count, dtype=np.int64)

    def stationary_nodes(
        self, count: int | tuple[int, ...], seed: SeedLike = None
    ) -> np.ndarray:
        """Sample ``count`` independent nodes from the walk's stationary law.

        For regular topologies this is the uniform distribution; non-regular
        topologies weight each node by its degree (Section 5.1). Like
        :meth:`uniform_nodes`, ``count`` may be a shape tuple.
        """
        if self.is_regular:
            return self.uniform_nodes(count, seed)
        rng = as_generator(seed)
        degrees = np.asarray(self.degree_of(np.arange(self.num_nodes)), dtype=np.float64)
        probabilities = degrees / degrees.sum()
        return rng.choice(self.num_nodes, size=count, p=probabilities).astype(np.int64)

    def walk(self, start: int, steps: int, seed: SeedLike = None) -> np.ndarray:
        """Simulate a single random walk and return its path.

        Returns an array of length ``steps + 1`` whose first entry is
        ``start`` and whose ``r``-th entry is the position after ``r`` steps.
        """
        rng = as_generator(seed)
        path = np.empty(steps + 1, dtype=np.int64)
        path[0] = start
        position = np.asarray([start], dtype=np.int64)
        for step_index in range(1, steps + 1):
            position = self.step_many(position, rng)
            path[step_index] = position[0]
        return path

    def validate_nodes(self, nodes: np.ndarray) -> None:
        """Raise ``ValueError`` if any label in ``nodes`` is out of range."""
        nodes = np.asarray(nodes)
        if nodes.size == 0:
            return
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ValueError(
                f"node labels must lie in [0, {self.num_nodes}), "
                f"got range [{nodes.min()}, {nodes.max()}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"


class RegularTopology(Topology):
    """A topology where every node has the same degree.

    Subclasses set :attr:`degree` once; ``degree_of`` then broadcasts it.
    """

    #: The common node degree.
    degree: int = 0

    @property
    def is_regular(self) -> bool:
        return True

    def degree_of(self, nodes: np.ndarray | int) -> np.ndarray | int:
        if np.isscalar(nodes):
            return self.degree
        return np.full(np.shape(nodes), self.degree, dtype=np.int64)


__all__ = ["Topology", "RegularTopology"]

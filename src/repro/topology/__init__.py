"""Graph topologies agents walk on.

Every topology encodes its nodes as integers in ``range(num_nodes)`` and
exposes a vectorised ``step_many`` so the density-estimation engine and the
random-walk analysis tools work unchanged on all of them.

The topologies mirror Section 2 and Section 4 of the paper:

* :class:`Torus2D` — the paper's primary model (Section 2, Theorem 1).
* :class:`Ring` — the 1-D torus (Section 4.2, Lemma 20, Theorem 21).
* :class:`TorusKD` — k-dimensional tori (Section 4.3, Lemma 22).
* :class:`Hypercube` — the k-dimensional hypercube (Section 4.5, Lemma 25).
* :class:`CompleteGraph` — the independent-sampling ideal (Section 1.1).
* :class:`RegularExpander` — random regular expanders (Section 4.4, Lemma 23).
* :class:`NetworkXTopology` — arbitrary (possibly non-regular) graphs used by
  the network-size estimation application (Section 5.1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Topology": ".base", "RegularTopology": ".base",
    "Torus2D": ".torus",
    "BoundedGrid": ".bounded_grid",
    "Ring": ".ring",
    "TorusKD": ".torus_kd",
    "Hypercube": ".hypercube",
    "CompleteGraph": ".complete",
    "RegularExpander": ".expander",
    "NetworkXTopology": ".graph",
    "second_eigenvalue_magnitude": ".spectral", "transition_matrix": ".spectral",
})

__all__ = [
    "Topology",
    "RegularTopology",
    "Torus2D",
    "BoundedGrid",
    "Ring",
    "TorusKD",
    "Hypercube",
    "CompleteGraph",
    "RegularExpander",
    "NetworkXTopology",
    "second_eigenvalue_magnitude",
    "transition_matrix",
]

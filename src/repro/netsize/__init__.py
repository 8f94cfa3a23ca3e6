"""Random-walk-based network size estimation (Section 5.1 of the paper).

The application: estimate ``|V|`` of a graph that can only be explored
through neighbourhood (link) queries, by running ``n`` random walks for
``t`` rounds and counting degree-weighted collisions (Algorithm 2), after a
burn-in phase that brings the walks close to the stationary distribution.
The average degree needed by Algorithm 2 is itself estimated by inverse
degree sampling (Algorithm 3). The Katzir et al. [KLSC14] estimator (halt
after burn-in, count collisions once) is implemented as the baseline the
paper compares against in Section 5.1.5.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "GraphAccessOracle": ".oracle",
    "estimate_average_degree": ".degree", "estimate_inverse_average_degree": ".degree",
    "NetworkSizeEstimate": ".size_estimator", "estimate_network_size": ".size_estimator",
    "burn_in_walks": ".burn_in", "required_burn_in_steps": ".burn_in",
    "katzir_size_estimate": ".katzir",
    "NetworkSizeEstimationPipeline": ".pipeline", "PipelineReport": ".pipeline",
})

__all__ = [
    "GraphAccessOracle",
    "estimate_average_degree",
    "estimate_inverse_average_degree",
    "NetworkSizeEstimate",
    "estimate_network_size",
    "burn_in_walks",
    "required_burn_in_steps",
    "katzir_size_estimate",
    "NetworkSizeEstimationPipeline",
    "PipelineReport",
]

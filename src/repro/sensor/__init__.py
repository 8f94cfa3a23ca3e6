"""Random-walk token sampling on sensor networks (Section 6.3.1).

A base station injects a query token at some sensor of a grid network; the
token is relayed to a uniformly random neighbouring sensor in each step and
aggregates the readings it sees. Because the grid has strong *local* mixing,
repeat visits are few (Corollary 15), so the token's running average is
nearly as accurate as independently sampling sensors — without the network
having to remember which sensors were already visited.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "SensorGrid": ".network",
    "TokenSampleResult": ".aggregation", "token_mean_estimate": ".aggregation",
    "independent_sample_mean": ".aggregation",
})

__all__ = [
    "SensorGrid",
    "TokenSampleResult",
    "token_mean_estimate",
    "independent_sample_mean",
]

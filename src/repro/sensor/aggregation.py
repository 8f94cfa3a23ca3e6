"""Aggregation estimators over token walks.

The token's running average over visited sensors estimates the network-wide
mean; its accuracy relative to independent sampling is governed by how often
the walk revisits sensors — exactly the repeat-visit moments bounded by
Corollary 15 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sensor.network import SensorGrid
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


@dataclass(frozen=True)
class TokenSampleResult:
    """Outcome of one token-walk aggregation query."""

    estimate: float
    true_value: float
    steps: int
    distinct_sensors: int
    repeat_visit_fraction: float

    @property
    def relative_error(self) -> float:
        if self.true_value == 0:
            return abs(self.estimate)
        return abs(self.estimate - self.true_value) / abs(self.true_value)


def token_mean_estimate(
    network: SensorGrid, steps: int, seed: SeedLike = None, *, start: int | None = None
) -> TokenSampleResult:
    """Estimate the mean sensor reading from one ``steps``-hop token walk."""
    require_integer(steps, "steps", minimum=1)
    visited = network.token_walk(steps, seed, start=start)
    readings = network.readings_along(visited)
    distinct = int(np.unique(visited).size)
    return TokenSampleResult(
        estimate=float(readings.mean()),
        true_value=network.true_mean,
        steps=steps,
        distinct_sensors=distinct,
        repeat_visit_fraction=1.0 - distinct / steps,
    )


def independent_sample_mean(
    network: SensorGrid, samples: int, seed: SeedLike = None
) -> TokenSampleResult:
    """Baseline: average the readings of ``samples`` uniformly random sensors.

    This is the idealised estimator the token walk is compared against;
    implementing it requires global random access to the network, which a
    relayed token does not have.
    """
    require_integer(samples, "samples", minimum=1)
    rng = as_generator(seed)
    chosen = rng.integers(0, network.num_sensors, size=samples)
    readings = network.readings_along(chosen)
    distinct = int(np.unique(chosen).size)
    return TokenSampleResult(
        estimate=float(readings.mean()),
        true_value=network.true_mean,
        steps=samples,
        distinct_sensors=distinct,
        repeat_visit_fraction=1.0 - distinct / samples,
    )


__all__ = [
    "TokenSampleResult",
    "token_mean_estimate",
    "independent_sample_mean",
]

"""Chernoff concentration helpers.

These mirror the multiplicative Chernoff bound the paper uses on the
complete graph and in Algorithm 4's analysis: the relative deviation it
allows at a given mean and confidence, and the confidence interval it puts
around an estimate.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import require_positive, require_probability


def chernoff_deviation(mean: float, delta: float) -> float:
    """Multiplicative deviation ε with ``P[|X - μ| >= εμ] <= δ`` for Binomial-like X.

    Inverts the standard bound ``δ = 2·exp(-ε²μ/3)``.
    """
    require_positive(mean, "mean")
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    return math.sqrt(3.0 * math.log(2.0 / delta) / mean)


def chernoff_interval(
    estimates: np.ndarray | float,
    collision_mass: np.ndarray | float,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised multiplicative-Chernoff confidence band around estimates.

    The anytime/streaming counterpart of :func:`chernoff_deviation`, used by
    the online density trackers (:mod:`repro.dynamics.online`): a window
    holding ``collision_mass`` observed collisions has multiplicative
    deviation ``ε = sqrt(3·log(2/δ) / mass)``, so the true density lies in
    ``[est·(1-ε), est·(1+ε)]`` with probability ``1 - δ`` (treating the
    observed mass as a proxy for its expectation, the standard empirical
    plug-in). Works elementwise on arrays of any shape so per-round,
    per-replicate bands cost one vector expression.

    Parameters
    ----------
    estimates:
        Density estimates (any shape, broadcastable with ``collision_mass``).
    collision_mass:
        Total observed collisions supporting each estimate. Entries below 1
        are clamped to 1 (an empty window yields an uninformatively wide,
        but finite, band); the lower band is clipped at zero.
    delta:
        Failure probability of the band.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Elementwise lower and upper confidence bounds.
    """
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    return _chernoff_band(
        np.asarray(estimates, dtype=np.float64),
        np.asarray(collision_mass, dtype=np.float64),
        3.0 * math.log(2.0 / delta),
    )


def _chernoff_band(
    estimates: np.ndarray, collision_mass: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`chernoff_interval` of float64 arrays, given ``scale = 3·log(2/δ)``.

    For a caller that bands many rounds at one validated ``δ`` (the
    streaming tracker): the same float operations in the same order, so the
    band is bit-identical to :func:`chernoff_interval`'s.
    """
    epsilon = np.sqrt(scale / np.maximum(collision_mass, 1.0))
    lower = np.maximum(estimates * (1.0 - epsilon), 0.0)
    upper = estimates * (1.0 + epsilon)
    return lower, upper


__all__ = [
    "chernoff_deviation",
    "chernoff_interval",
]

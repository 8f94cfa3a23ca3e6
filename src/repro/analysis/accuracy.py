"""Empirical accuracy summaries for estimator outputs.

The paper's guarantees are (ε, δ) statements; these helpers compute the
empirical counterparts from a vector of estimates, plus a small power-law
fitting routine used to check decay exponents (e.g. that the empirical ε of
Algorithm 1 decays roughly as ``t^{-1/2}``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_probability


def relative_errors(estimates: np.ndarray, truth: float) -> np.ndarray:
    """``|estimate - truth| / truth`` elementwise."""
    if truth == 0:
        raise ValueError("truth must be non-zero for relative errors")
    return np.abs(np.asarray(estimates, dtype=np.float64) - truth) / abs(truth)


def fraction_within(estimates: np.ndarray, truth: float, epsilon: float) -> float:
    """Fraction of estimates within a ``(1 ± ε)`` factor of ``truth``."""
    require_probability(epsilon, "epsilon", allow_zero=False)
    return float(np.mean(relative_errors(estimates, truth) <= epsilon))


def empirical_epsilon(estimates: np.ndarray, truth: float, delta: float = 0.1) -> float:
    """The ε achieved by a ``1 - δ`` fraction of the estimates (error quantile)."""
    require_probability(delta, "delta", allow_zero=False, allow_one=False)
    return float(np.quantile(relative_errors(estimates, truth), 1.0 - delta))


def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of ``y ≈ a · x^b`` in log-log space.

    Returns ``(a, b)``. Used to verify decay exponents of error curves and
    re-collision profiles (only strictly positive data points are used).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = (x > 0) & (y > 0)
    if np.count_nonzero(mask) < 2:
        raise ValueError("need at least two positive (x, y) points to fit a power law")
    log_x = np.log(x[mask])
    log_y = np.log(y[mask])
    slope, intercept = np.polyfit(log_x, log_y, 1)
    return float(np.exp(intercept)), float(slope)


__all__ = [
    "relative_errors",
    "fraction_within",
    "empirical_epsilon",
    "fit_power_law",
]

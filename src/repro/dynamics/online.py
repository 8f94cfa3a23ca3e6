"""Streaming (anytime) density estimators with per-round confidence bands.

Algorithm 1 reports one estimate after ``t`` rounds; a deployed swarm needs
an estimate *every* round, and — once the environment is allowed to change
mid-run (:mod:`repro.dynamics.events`) — an estimator that forgets. This
module provides three anytime estimators over the per-round encounter-rate
stream ``y_t`` (the population's mean observed collision count in round
``t``, an unbiased per-round density sample under the paper's model):

* :class:`RunningEstimator` — Algorithm 1's own ``c/t``: optimal while the
  world is static, arbitrarily stale after a shift;
* :class:`SlidingWindowEstimator` — mean of the last ``W`` rounds, the
  windowed/view-change idea: bounded staleness at ``sqrt(W)``-worse noise;
* :class:`DiscountedEstimator` — exponentially discounted average, the
  smooth interpolation between the two.

Every estimator is **column-vectorised**: its state is a vector over ``R``
independent tracks (one per batched replicate), every update is an O(R) or
O(W·R) NumPy expression, and resets act on boolean column masks — which is
what keeps online tracking within the batched engine's throughput budget.

:class:`TwoWindowChangeDetector` compares the means of two adjacent
``W``-round windows and flags a shift when they disagree by more than a
relative threshold; the tracking driver resets the forgetting estimators
on the flagged columns, so re-convergence starts from scratch rather than
being dragged by pre-shift history. Confidence bands come from
:func:`repro.analysis.concentration.chernoff_interval` applied to the
collision mass supporting each window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.utils.validation import require_integer, require_probability


@dataclass(frozen=True)
class TrackingParameters:
    """Resolved online-tracking parameters (scenario ``tracking`` overrides).

    Attributes
    ----------
    window:
        Sliding-window width ``W`` (rounds).
    gamma:
        Discount factor of the exponentially discounted estimator.
    delta:
        Failure probability of the per-round confidence band.
    detect_window / detect_threshold / detect_z / detect_min_scale:
        Change-detector geometry: two adjacent ``detect_window``-round
        means must differ by ``detect_threshold`` relative to the older
        one *and* by ``detect_z`` standard errors (``detect_min_scale`` is
        the absolute scale floor of the relative criterion).
    """

    window: int = 25
    gamma: float = 0.96
    delta: float = 0.1
    detect_window: int = 20
    detect_threshold: float = 0.25
    detect_z: float = 4.5
    detect_min_scale: float = 0.01

    def __post_init__(self) -> None:
        require_integer(self.window, "window", minimum=1)
        require_integer(self.detect_window, "detect_window", minimum=1)
        require_probability(self.gamma, "gamma", allow_zero=False, allow_one=False)
        require_probability(self.delta, "delta", allow_zero=False, allow_one=False)

    @classmethod
    def resolve(cls, overrides: Mapping[str, Any] | None) -> "TrackingParameters":
        """Defaults overlaid with a scenario's ``tracking`` mapping.

        Raises ``ValueError`` for unknown override keys, so a typo'd
        scenario spec fails at construction time instead of mid-run inside
        a worker process.
        """
        if not overrides:
            return cls()
        try:
            return cls(**dict(overrides))
        except TypeError:
            from dataclasses import fields

            known = {f.name for f in fields(cls)}
            unknown = sorted(set(overrides) - known)
            raise ValueError(
                f"unknown tracking parameter(s) {unknown}; known parameters: {sorted(known)}"
            ) from None


_FLOAT64 = np.dtype(np.float64)


def _as_columns(values: np.ndarray | float) -> np.ndarray:
    """Coerce a per-round statistic to a float64 vector of track columns.

    A float64 vector, which is what the tracking driver passes every round,
    is returned as it is.
    """
    if type(values) is np.ndarray and values.dtype is _FLOAT64 and values.ndim == 1:
        return values
    return np.atleast_1d(np.asarray(values, dtype=np.float64))


class RunningEstimator:
    """Algorithm 1's anytime form: the all-history mean ``(Σ y_s) / t``."""

    name = "running"

    def __init__(self, tracks: int = 1):
        require_integer(tracks, "tracks", minimum=1)
        self._sum = np.zeros(tracks, dtype=np.float64)
        self._rounds = np.zeros(tracks, dtype=np.float64)

    def update(self, values: np.ndarray | float) -> None:
        """Fold in one round's mean encounter rate."""
        self._sum += _as_columns(values)
        self._rounds += 1.0

    def estimate(self) -> np.ndarray:
        """Current per-track density estimate (zero before any update)."""
        return self._sum / np.maximum(self._rounds, 1.0)


class SlidingWindowEstimator:
    """Mean encounter rate over the last ``window`` rounds, per track.

    A ring buffer plus running sums make each update O(R): the value
    falling out of the window is subtracted only once the track is at
    capacity, which also makes per-column resets exact — after a reset the
    stale buffer contents are never subtracted, because the column only
    reaches capacity again once every slot has been rewritten.
    """

    name = "window"

    def __init__(self, window: int, tracks: int = 1):
        require_integer(window, "window", minimum=1)
        require_integer(tracks, "tracks", minimum=1)
        self.window = int(window)
        self._values = np.zeros((window, tracks), dtype=np.float64)
        self._masses = np.zeros((window, tracks), dtype=np.float64)
        self._sum = np.zeros(tracks, dtype=np.float64)
        self._mass = np.zeros(tracks, dtype=np.float64)
        self._count = np.zeros(tracks, dtype=np.int64)
        self._cursor = 0

    def update(self, values: np.ndarray | float, mass: np.ndarray | float = 0.0) -> None:
        values = _as_columns(values)
        mass = _as_columns(mass)
        if mass.shape != values.shape:
            mass = np.broadcast_to(mass, values.shape)
        at_capacity = self._count >= self.window
        self._sum += values - np.where(at_capacity, self._values[self._cursor], 0.0)
        self._mass += mass - np.where(at_capacity, self._masses[self._cursor], 0.0)
        self._count = np.where(at_capacity, self._count, self._count + 1)
        self._values[self._cursor] = values
        self._masses[self._cursor] = mass
        self._cursor = (self._cursor + 1) % self.window

    def estimate(self) -> np.ndarray:
        return self._sum / np.maximum(self._count, 1)

    def mass(self) -> np.ndarray:
        """Collision mass inside each track's current window (for CIs)."""
        return self._mass.copy()

    def fill(self) -> np.ndarray:
        """Rounds currently contributing to each track's window."""
        return self._count.copy()

    def reset(self, columns: np.ndarray | None = None) -> None:
        mask = slice(None) if columns is None else np.asarray(columns, dtype=bool)
        self._sum[mask] = 0.0
        self._mass[mask] = 0.0
        self._count[mask] = 0


class DiscountedEstimator:
    """Exponentially discounted mean: ``est = Σ γ^(t-s) y_s / Σ γ^(t-s)``.

    The normaliser makes the estimate unbiased from the first round (no
    warm-up bias), and the effective memory is ``1 / (1 - gamma)`` rounds.
    """

    name = "discounted"

    def __init__(self, gamma: float, tracks: int = 1):
        require_probability(gamma, "gamma", allow_zero=False, allow_one=False)
        require_integer(tracks, "tracks", minimum=1)
        self.gamma = float(gamma)
        self._weighted = np.zeros(tracks, dtype=np.float64)
        self._weight = np.zeros(tracks, dtype=np.float64)

    def update(self, values: np.ndarray | float) -> None:
        self._weighted = self.gamma * self._weighted + _as_columns(values)
        self._weight = self.gamma * self._weight + 1.0

    def estimate(self) -> np.ndarray:
        return self._weighted / np.maximum(self._weight, 1e-12)

    def reset(self, columns: np.ndarray | None = None) -> None:
        mask = slice(None) if columns is None else np.asarray(columns, dtype=bool)
        self._weighted[mask] = 0.0
        self._weight[mask] = 0.0


class TwoWindowChangeDetector:
    """Flag density shifts by comparing two adjacent ``window``-round means.

    Keeps the last ``2·window`` stream values per track; once a track has
    seen that many rounds since its last reset, it compares the mean of the
    most recent ``window`` rounds against the mean of the ``window`` rounds
    before them. A change is flagged only when **both** criteria hold:

    * the shift is *material*: the window means differ by more than
      ``threshold`` relative to the reference mean (with ``min_scale`` as
      an absolute floor, so near-zero densities do not produce spurious
      relative blow-ups); and
    * the shift is *significant*: the Welch-style z-score of the two
      window means exceeds ``z_threshold``, with the per-window variances
      estimated from the buffered stream itself.

    The conjunction makes the detector scale-aware — at small populations
    the z-score suppresses noise-driven flags, at large populations the
    relative threshold suppresses statistically significant but practically
    irrelevant drift. Flagged tracks reset themselves, giving the detector
    — and any estimator the driver resets alongside it — a clean slate.

    Detection latency after a genuine shift of relative size ``s`` is about
    ``window · threshold / s`` rounds (the recent window must fill with
    enough post-shift rounds for the contrast to cross the threshold), and
    never more than ``2·window`` rounds for detectable shifts.

    Like any fixed-threshold change detector this one sits on an ROC curve,
    and the encounter-rate stream makes the trade-off real: local density
    fluctuations relax only diffusively (timescale ``~A``), so window means
    wander on scales no within-window variance estimate can fully see. At
    the default operating point, measured on the catalog's Torus2D
    workloads: a 60% density crash is flagged in >95% of full-scale
    replicates (~70% at the scaled-down quick size, whose z-margin is
    intrinsically thin), while a stationary stream draws a spurious flag
    roughly once per few hundred replicate-rounds. Raise ``z_threshold`` /
    ``threshold`` for quieter, less sensitive detection, or widen
    ``window`` to average the wander down at the cost of latency.
    """

    name = "two_window"

    def __init__(
        self,
        window: int,
        tracks: int = 1,
        threshold: float = 0.25,
        z_threshold: float = 4.5,
        min_scale: float = 0.01,
    ):
        require_integer(window, "window", minimum=1)
        require_integer(tracks, "tracks", minimum=1)
        if not threshold > 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not z_threshold > 0:
            raise ValueError(f"z_threshold must be positive, got {z_threshold}")
        if not min_scale > 0:
            raise ValueError(f"min_scale must be positive, got {min_scale}")
        self.window = int(window)
        self.threshold = float(threshold)
        self.z_threshold = float(z_threshold)
        self.min_scale = float(min_scale)
        self._buffer = np.zeros((2 * window, tracks), dtype=np.float64)
        self._count = np.zeros(tracks, dtype=np.int64)
        self._cursor = 0
        #: Ring slots newest first, twice round: with ``start = -cursor %
        #: (2 * window)``, ``_ring[start:start + window]`` is the recent
        #: window (slots ``cursor-1, cursor-2, ...``) and the next ``window``
        #: entries the reference window, so no round computes an index.
        self._ring = (-1 - np.arange(4 * window)) % (2 * window)

    def update(self, values: np.ndarray | float) -> np.ndarray:
        """Feed one round's values; return the boolean change flags per track."""
        values = _as_columns(values)
        self._buffer[self._cursor] = values
        self._cursor = (self._cursor + 1) % (2 * self.window)
        self._count = self._count + 1
        ready = self._count >= 2 * self.window
        if not ready.any():
            return np.zeros(values.shape, dtype=bool)
        # The most recent `window` slots of the ring: cursor-1, cursor-2, ...
        # The reference window is everything else, recovered from the total
        # so only one gather over the ring is needed.
        start = -self._cursor % (2 * self.window)
        recent_rows = self._buffer[self._ring[start : start + self.window]]
        recent_sum = recent_rows.sum(axis=0)
        recent = recent_sum / self.window
        reference = (self._buffer.sum(axis=0) - recent_sum) / self.window
        contrast = np.abs(recent - reference)
        scale = np.maximum(np.abs(reference), self.min_scale)
        material = ready & (contrast > self.threshold * scale)
        if not material.any():
            # The expensive significance test only runs when some track sees
            # a material shift — on a stationary stream this fast path makes
            # detection nearly free.
            return material
        # Welch z-score of the two window means; the variance floor keeps a
        # perfectly constant stream (variance 0) from dividing by zero.
        reference_rows = self._buffer[self._ring[start + self.window : start + 2 * self.window]]
        recent_var = np.maximum(recent_rows.var(axis=0), 0.0)
        reference_var = np.maximum(reference_rows.var(axis=0), 0.0)
        # Encounter-rate streams are positively autocorrelated (walkers that
        # just collided are nearby and likely to re-collide — the very
        # effect the paper's re-collision lemmas quantify), so the naive
        # var/W estimate of the window-mean variance is too small. Estimate
        # the first few autocorrelations from the stationary reference
        # window and shrink the effective sample size by the Newey-West /
        # Bartlett factor 1 + 2·Σ (1 - k/K)·ρ_k.
        centred = reference_rows - reference
        inflation = np.ones_like(reference_var)
        max_lag = min(3, self.window - 1)
        for lag in range(1, max_lag + 1):
            lag_cov = (centred[:-lag] * centred[lag:]).mean(axis=0)
            rho = np.clip(lag_cov / np.maximum(reference_var, 1e-18), 0.0, 1.0)
            inflation += 2.0 * (1.0 - lag / (max_lag + 1.0)) * rho
        effective = self.window / inflation
        variance = (recent_var + reference_var) / np.maximum(effective, 1.0)
        significant = contrast > self.z_threshold * np.sqrt(np.maximum(variance, 1e-18))
        flags = material & significant
        if flags.any():
            self._count = np.where(flags, 0, self._count)
        return flags


__all__ = [
    "TrackingParameters",
    "RunningEstimator",
    "SlidingWindowEstimator",
    "DiscountedEstimator",
    "TwoWindowChangeDetector",
]

"""Noisy collision detection (the robustness extension of Section 6.1).

The paper suggests modelling imperfect sensing: each true collision is
detected only with some probability, and spurious collisions may occasionally
be registered. :class:`NoisyCollisionModel` implements exactly that
observation model; because both effects act linearly on the expectation,
the resulting bias can be removed in closed form, which
:func:`correct_noisy_estimate` does:

    E[observed per round] = (1 - miss) · d + spurious_rate
    ⇒  d = (E[observed] - spurious_rate) / (1 - miss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_non_negative, require_probability


@dataclass(frozen=True)
class NoisyCollisionModel:
    """Observation model: miss real collisions, add spurious ones.

    Parameters
    ----------
    miss_probability:
        Each true collision is independently *not* detected with this
        probability.
    spurious_rate:
        Expected number of spurious collisions registered per agent per
        round (spurious detections are Poisson distributed).
    """

    miss_probability: float = 0.0
    spurious_rate: float = 0.0

    #: Both noise effects act elementwise on the count array, so the batched
    #: engine may apply this model to ``(R, n)`` replicate matrices directly.
    batch_safe = True

    def __post_init__(self) -> None:
        require_probability(self.miss_probability, "miss_probability")
        require_non_negative(self.spurious_rate, "spurious_rate")

    def observe(self, true_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the noise model to a round's true collision counts."""
        true_counts = np.asarray(true_counts, dtype=np.int64)
        observed = true_counts.astype(np.float64)
        if self.miss_probability > 0.0:
            # Thin only the nonzero counts: NumPy's binomial returns 0 for
            # n = 0 without drawing, so values and generator state are those
            # of thinning the whole array.
            nonzero = true_counts != 0
            observed[nonzero] = rng.binomial(true_counts[nonzero], 1.0 - self.miss_probability)
        if self.spurious_rate > 0.0:
            observed = observed + rng.poisson(self.spurious_rate, size=true_counts.shape)
        return observed

    @property
    def is_noiseless(self) -> bool:
        return self.miss_probability == 0.0 and self.spurious_rate == 0.0


def correct_noisy_estimate(
    estimates: np.ndarray | float,
    model: NoisyCollisionModel,
) -> np.ndarray | float:
    """Remove the known bias of a noisy-observation density estimate.

    Given raw encounter-rate estimates produced under ``model``, return the
    de-biased density estimates. Values are clipped at zero (a raw estimate
    below the spurious rate carries no evidence of positive density).
    """
    if model.miss_probability >= 1.0:
        raise ValueError("miss_probability = 1 destroys all signal; cannot correct")
    corrected = (np.asarray(estimates, dtype=np.float64) - model.spurious_rate) / (
        1.0 - model.miss_probability
    )
    corrected = np.maximum(corrected, 0.0)
    if np.isscalar(estimates):
        return float(corrected)
    return corrected


__all__ = ["NoisyCollisionModel", "correct_noisy_estimate"]

"""Local mixing measurements.

The paper's central conceptual point is that *local* mixing — how quickly a
walk spreads over its neighbourhood, captured by the sum
``B(t) = sum_{m=0}^{t} β(m)`` of re-collision probabilities — is what governs
encounter-rate density estimation (Lemma 19), not the *global* mixing time.
This module measures ``B(t)`` so experiments can exhibit the divergence (e.g.
the 2-D torus mixes slowly globally but has ``B(t) = O(log t)``).
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.utils.rng import SeedLike
from repro.walks.recollision import RecollisionProfile, recollision_profile


def local_mixing_sum(
    topology_or_profile: Topology | RecollisionProfile,
    max_offset: int | None = None,
    trials: int = 1000,
    seed: SeedLike = None,
) -> float:
    """The local mixing sum ``B(t)`` of Lemma 19.

    Accepts either a pre-computed :class:`RecollisionProfile` or a topology
    (in which case the profile is measured first with ``max_offset`` and
    ``trials``).
    """
    if isinstance(topology_or_profile, RecollisionProfile):
        return topology_or_profile.local_mixing_sum()
    if max_offset is None:
        raise ValueError("max_offset is required when passing a topology")
    profile = recollision_profile(topology_or_profile, max_offset, trials=trials, seed=seed)
    return profile.local_mixing_sum()


__all__ = [
    "local_mixing_sum",
]

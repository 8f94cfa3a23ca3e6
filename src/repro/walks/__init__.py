"""Random-walk simulation and analysis tools.

This package provides the measurement side of the paper's technical core:

* :mod:`repro.walks.single` — recording the paths of many walks at once.
* :mod:`repro.walks.recollision` — empirical re-collision probability
  profiles β(m) (Lemma 4 and its topology-specific analogues, Lemmas 20,
  22, 23, 25).
* :mod:`repro.walks.equalization` — return-to-origin (equalization)
  statistics (Corollaries 10 and 16).
* :mod:`repro.walks.moments` — empirical moments of pairwise collision
  counts and node visit counts (Lemma 11, Corollary 15).
* :mod:`repro.walks.mixing` — local mixing sums B(t) (Lemma 19).
* :mod:`repro.walks.movement` — the movement models beyond the uniform walk.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "walk_paths": ".single",
    "recollision_profile": ".recollision", "recollision_probability": ".recollision",
    "equalization_profile": ".equalization", "equalization_counts": ".equalization",
    "central_moments": ".moments", "pairwise_collision_counts": ".moments",
    "visit_counts": ".moments",
    "local_mixing_sum": ".mixing",
    "MovementModel": ".movement", "UniformRandomWalk": ".movement", "LazyRandomWalk": ".movement",
    "BiasedTorusWalk": ".movement", "CollisionAvoidingWalk": ".movement",
})

__all__ = [
    "walk_paths",
    "recollision_profile",
    "recollision_probability",
    "equalization_profile",
    "equalization_counts",
    "central_moments",
    "pairwise_collision_counts",
    "visit_counts",
    "local_mixing_sum",
    "MovementModel",
    "UniformRandomWalk",
    "LazyRandomWalk",
    "BiasedTorusWalk",
    "CollisionAvoidingWalk",
]

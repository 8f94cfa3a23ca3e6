"""Random-walk simulation and analysis tools.

This package provides the measurement side of the paper's technical core:

* :mod:`repro.walks.single` — simulating single and multiple walks.
* :mod:`repro.walks.recollision` — empirical re-collision probability
  profiles β(m) (Lemma 4 and its topology-specific analogues, Lemmas 20,
  22, 23, 25).
* :mod:`repro.walks.equalization` — return-to-origin (equalization)
  statistics (Corollaries 10 and 16).
* :mod:`repro.walks.moments` — empirical moments of pairwise collision
  counts and node visit counts (Lemma 11, Corollary 15).
* :mod:`repro.walks.mixing` — local mixing sums B(t) (Lemma 19) and
  empirical global mixing measurements.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "FirstPassageStatistics": ".meeting", "hitting_times": ".meeting", "meeting_times": ".meeting",
    "summarize_first_passage": ".meeting",
    "walk_path": ".single", "walk_paths": ".single", "end_positions": ".single",
    "recollision_profile": ".recollision", "recollision_probability": ".recollision",
    "equalization_profile": ".equalization", "equalization_counts": ".equalization",
    "count_equalizations": ".equalization",
    "central_moments": ".moments", "pairwise_collision_counts": ".moments",
    "visit_counts": ".moments",
    "local_mixing_sum": ".mixing", "empirical_total_variation": ".mixing",
    "empirical_mixing_time": ".mixing",
    "CoverageStatistics": ".coverage", "coverage_statistics": ".coverage",
    "distinct_nodes_visited": ".coverage", "repeat_visit_fraction": ".coverage",
    "MovementModel": ".movement", "UniformRandomWalk": ".movement", "LazyRandomWalk": ".movement",
    "BiasedTorusWalk": ".movement", "CollisionAvoidingWalk": ".movement",
})

__all__ = [
    "FirstPassageStatistics",
    "hitting_times",
    "meeting_times",
    "summarize_first_passage",
    "walk_path",
    "walk_paths",
    "end_positions",
    "recollision_profile",
    "recollision_probability",
    "equalization_profile",
    "equalization_counts",
    "count_equalizations",
    "central_moments",
    "pairwise_collision_counts",
    "visit_counts",
    "local_mixing_sum",
    "empirical_total_variation",
    "empirical_mixing_time",
    "CoverageStatistics",
    "coverage_statistics",
    "distinct_nodes_visited",
    "repeat_visit_fraction",
    "MovementModel",
    "UniformRandomWalk",
    "LazyRandomWalk",
    "BiasedTorusWalk",
    "CollisionAvoidingWalk",
]

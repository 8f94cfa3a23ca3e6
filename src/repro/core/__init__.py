"""The paper's core contribution: encounter-rate density estimation.

Contents
--------

* :mod:`repro.core.encounter` — vectorised collision counting (the
  ``count(position)`` primitive of the model, Section 2).
* :mod:`repro.core.simulation` — the multi-agent simulation engine that
  executes Algorithm 1 for all agents simultaneously.
* :mod:`repro.core.estimator` — :class:`RandomWalkDensityEstimator`
  (Algorithm 1) and the convenience function :func:`estimate_density`.
* :mod:`repro.core.independent` — the independent-sampling baseline of
  Appendix A (Algorithm 4, Theorem 32).
* :mod:`repro.core.frequency` — relative property-frequency estimation
  (Section 5.2).
* :mod:`repro.core.thresholds` — quorum / threshold detection built on top
  of density estimates (Section 6.2 discussion).
* :mod:`repro.core.bounds` — every closed-form bound stated by the paper, as
  plain functions shared by tests, experiments, and documentation.
* :mod:`repro.core.results` — result dataclasses with accuracy summaries.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AdaptiveDensityEstimator": ".adaptive", "AdaptiveEstimate": ".adaptive",
    "AnalyticSolution": ".analytic", "AnalyticUnsupportedError": ".analytic",
    "run_analytic": ".analytic",
    "solve_analytic": ".analytic:solve",
    "collision_counts": ".encounter", "marked_collision_counts": ".encounter",
    "RandomWalkDensityEstimator": ".estimator", "estimate_density": ".estimator",
    "IndependentSamplingEstimator": ".independent", "estimate_density_independent": ".independent",
    "PropertyFrequencyEstimate": ".frequency", "estimate_property_frequency": ".frequency",
    "estimate_property_frequency_batch": ".frequency",
    "BatchSimulationResult": ".kernel", "require_batch_safe": ".kernel", "run_kernel": ".kernel",
    "QuorumDetector": ".thresholds", "QuorumDecision": ".thresholds",
    "DensityEstimationRun": ".results", "AccuracySummary": ".results",
    "SimulationConfig": ".simulation",
    "bounds": ".bounds",
})

__all__ = [
    "AdaptiveDensityEstimator",
    "AdaptiveEstimate",
    "AnalyticSolution",
    "AnalyticUnsupportedError",
    "run_analytic",
    "solve_analytic",
    "collision_counts",
    "marked_collision_counts",
    "RandomWalkDensityEstimator",
    "estimate_density",
    "IndependentSamplingEstimator",
    "estimate_density_independent",
    "PropertyFrequencyEstimate",
    "estimate_property_frequency",
    "estimate_property_frequency_batch",
    "BatchSimulationResult",
    "require_batch_safe",
    "run_kernel",
    "QuorumDetector",
    "QuorumDecision",
    "DensityEstimationRun",
    "AccuracySummary",
    "SimulationConfig",
    "bounds",
]

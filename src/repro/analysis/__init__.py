"""Statistical analysis toolkit used by the experiments and applications.

* :mod:`repro.analysis.concentration` — the multiplicative Chernoff bound
  the paper's complete-graph analysis uses, as a deviation and an interval.
* :mod:`repro.analysis.accuracy` — empirical accuracy summaries of estimator
  outputs (relative errors, empirical ε at a target δ, error decay fits).
* :mod:`repro.analysis.sweep` — :func:`cartesian_grid`, the plain
  parameter grid (its declarative, resumable big sibling is
  :mod:`repro.sweeps`).
* :mod:`repro.analysis.aggregate` — deterministic group-by aggregation over
  dict records, the read-side counterpart of the result store
  (:mod:`repro.store`): ``repro store query --aggregate`` and report
  regeneration both reduce persisted rows with it instead of re-running
  simulations.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "chernoff_deviation": ".concentration", "chernoff_interval": ".concentration",
    "relative_errors": ".accuracy", "fraction_within": ".accuracy",
    "empirical_epsilon": ".accuracy", "fit_power_law": ".accuracy",
    "cartesian_grid": ".sweep",
    "StreamStats": ".aggregate", "aggregate_stream": ".aggregate", "parse_metric": ".aggregate",
    "statistic_names": ".aggregate",
})

__all__ = [
    "chernoff_deviation",
    "chernoff_interval",
    "relative_errors",
    "fraction_within",
    "empirical_epsilon",
    "fit_power_law",
    "cartesian_grid",
    "StreamStats",
    "aggregate_stream",
    "parse_metric",
    "statistic_names",
]

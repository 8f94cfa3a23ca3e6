"""Statistical analysis toolkit used by the experiments and applications.

* :mod:`repro.analysis.concentration` — the concentration inequalities the
  paper's proofs use (Chernoff, Chebyshev, the Bernstein-type bound of
  Lemma 18) and the median-of-means amplification trick.
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
    "required_rounds_by_topology": ".theory_tables", "rounds_table": ".theory_tables",
    "torus_overhead_table": ".theory_tables", "network_size_budget_table": ".theory_tables",
    "BootstrapInterval": ".bootstrap", "bootstrap_interval": ".bootstrap",
    "difference_is_significant": ".bootstrap",
    "chernoff_deviation": ".concentration", "chernoff_interval": ".concentration",
    "chebyshev_deviation": ".concentration", "subexponential_deviation": ".concentration",
    "median_of_means": ".concentration",
    "relative_errors": ".accuracy", "fraction_within": ".accuracy",
    "empirical_epsilon": ".accuracy", "empirical_failure_probability": ".accuracy",
    "fit_power_law": ".accuracy",
    "cartesian_grid": ".sweep",
    "StreamStats": ".aggregate", "aggregate_records": ".aggregate",
    "aggregate_stream": ".aggregate", "parse_metric": ".aggregate", "statistic_names": ".aggregate",
})

__all__ = [
    "required_rounds_by_topology",
    "rounds_table",
    "torus_overhead_table",
    "network_size_budget_table",
    "BootstrapInterval",
    "bootstrap_interval",
    "difference_is_significant",
    "chernoff_deviation",
    "chernoff_interval",
    "chebyshev_deviation",
    "subexponential_deviation",
    "median_of_means",
    "relative_errors",
    "fraction_within",
    "empirical_epsilon",
    "empirical_failure_probability",
    "fit_power_law",
    "cartesian_grid",
    "StreamStats",
    "aggregate_records",
    "aggregate_stream",
    "parse_metric",
    "statistic_names",
]

"""repro — Ant-Inspired Density Estimation via Random Walks.

A complete, executable reproduction of Musco, Su, and Lynch,
"Ant-Inspired Density Estimation via Random Walks" (PODC 2016 / PNAS 2017):

* the encounter-rate density-estimation algorithm (Algorithm 1) and its
  independent-sampling baseline (Algorithm 4),
* every topology the paper analyses (2-D torus, ring, k-D tori, hypercubes,
  regular expanders, complete graphs, arbitrary graphs),
* the random-walk analysis machinery (re-collision profiles, equalization
  statistics, collision moments, local mixing sums),
* the applications: social-network size estimation (Algorithms 2–3 and the
  [KLSC14] baseline), robot-swarm density / property-frequency estimation,
  and sensor-network token sampling,
* an experiment suite that regenerates the paper's quantitative claims,
* an execution engine (:mod:`repro.engine`) that runs replicate workloads
  fast: :class:`ExecutionEngine` batches independent Algorithm 1 replicates
  into one matrix simulation (``ExecutionEngine.run_replicates``, the
  batched mode of :func:`repro.core.kernel.run_kernel`), schedules
  non-batchable tasks over worker processes with bit-identical results for
  any worker count (``ExecutionEngine.map``), and
  :class:`repro.engine.RunCache` skips settings already computed,
* a dynamics layer (:mod:`repro.dynamics`) for time-varying worlds: seeded
  event schedules (agent churn, density shocks, topology rewiring, sensor
  degradation), a catalog of named :class:`Scenario` specs, and online
  anytime density tracking with per-round confidence bands and change
  detection (:func:`run_scenario`),
* resumable sweep orchestration (:mod:`repro.sweeps`): declarative
  :class:`SweepSpec`\\ s (grid / zip / random-search axes over experiment
  configs and dynamics scenarios) compiled into one flat plan, with every
  completed cell checkpointed so an interrupted sweep resumes with zero
  recomputation (:func:`run_sweep_spec`),
* a persistent columnar result store (:mod:`repro.store`):
  :class:`ResultStore` appends NDJSON rows atomically and idempotently,
  records run provenance, and serves queries and report regeneration
  without re-running simulations.

Quickstart
----------

>>> from repro import Torus2D, estimate_density
>>> run = estimate_density(Torus2D(side=64), num_agents=200, rounds=400, seed=0)
>>> abs(run.mean_estimate() - run.true_density) / run.true_density < 0.2
True

Batched replicates via the engine:

>>> from repro import ExecutionEngine
>>> from repro.core.simulation import SimulationConfig
>>> batch = ExecutionEngine().run_replicates(
...     Torus2D(side=64), SimulationConfig(num_agents=200, rounds=400), 32, seed=0)
>>> batch.estimates().shape
(32, 200)

Online tracking of a time-varying world:

>>> from repro import build_scenario, run_scenario
>>> outcome = run_scenario(build_scenario("crash", quick=True), replicates=4, seed=0)
>>> len(outcome.records())
80
"""

from repro._lazy import lazy_exports

# A plain global, not a lazy export: repro.store and repro.sweeps fold the
# package version into provenance metadata and cache keys at import time.
__version__ = "1.10.0"

# Each public name imports its defining module on first use, so ``import
# repro`` imports no submodule and a command loads only what it runs.
__getattr__, __dir__ = lazy_exports(__name__, {
    "RandomWalkDensityEstimator": ".core.estimator", "estimate_density": ".core.estimator",
    "IndependentSamplingEstimator": ".core.independent",
    "estimate_density_independent": ".core.independent",
    "QuorumDetector": ".core.thresholds",
    "estimate_property_frequency": ".core.frequency",
    "bounds": ".core.bounds",
    "DensityEstimationRun": ".core.results", "AccuracySummary": ".core.results",
    "KERNEL_BACKENDS": ".core.kernel", "RunContext": ".core.kernel",
    "use_run_context": ".core.kernel", "BatchSimulationResult": ".core.kernel",
    "run_kernel": ".core.kernel", "require_batch_safe": ".core.kernel",
    "AnalyticSolution": ".core.analytic", "AnalyticUnsupportedError": ".core.analytic",
    "solve_analytic": ".core.analytic:solve",
    "ExecutionEngine": ".engine.scheduler",
    "RunCache": ".engine.cache",
    "SweepSpec": ".sweeps.spec", "TargetSpec": ".sweeps.spec", "GridAxis": ".sweeps.spec",
    "ZipAxis": ".sweeps.spec", "RandomAxis": ".sweeps.spec",
    "run_sweep_spec": ".sweeps.runner",
    "ResultStore": ".store.store",
    "Telemetry": ".obs.telemetry", "TelemetryRecorder": ".obs.telemetry",
    "get_telemetry": ".obs.telemetry", "set_telemetry": ".obs.telemetry",
    "use_telemetry": ".obs.telemetry",
    "Scenario": ".dynamics.scenario", "build_scenario": ".dynamics.scenario",
    "scenario_names": ".dynamics.scenario",
    "ScenarioRunResult": ".dynamics.driver", "run_scenario": ".dynamics.driver",
    "EventSchedule": ".dynamics.events",
    "Torus2D": ".topology.torus",
    "Ring": ".topology.ring",
    "TorusKD": ".topology.torus_kd",
    "Hypercube": ".topology.hypercube",
    "CompleteGraph": ".topology.complete",
    "RegularExpander": ".topology.expander",
    "NetworkXTopology": ".topology.graph",
    "NetworkSizeEstimationPipeline": ".netsize.pipeline",
    "estimate_network_size": ".netsize.size_estimator",
    "estimate_average_degree": ".netsize.degree",
    "katzir_size_estimate": ".netsize.katzir",
    "RobotSwarm": ".swarm.swarm",
    "SensorGrid": ".sensor.network",
})

__all__ = [
    "__version__",
    # Core algorithms
    "RandomWalkDensityEstimator",
    "IndependentSamplingEstimator",
    "QuorumDetector",
    "estimate_density",
    "estimate_density_independent",
    "estimate_property_frequency",
    "bounds",
    "DensityEstimationRun",
    "AccuracySummary",
    # Execution engine and the unified simulation kernel
    "KERNEL_BACKENDS",
    "RunContext",
    "use_run_context",
    "AnalyticSolution",
    "AnalyticUnsupportedError",
    "solve_analytic",
    "ExecutionEngine",
    "BatchSimulationResult",
    "RunCache",
    "run_kernel",
    "require_batch_safe",
    # Sweeps and the result store
    "SweepSpec",
    "TargetSpec",
    "GridAxis",
    "ZipAxis",
    "RandomAxis",
    "run_sweep_spec",
    "ResultStore",
    # Observability: telemetry spine + bench-history observatory
    "Telemetry",
    "TelemetryRecorder",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    # Dynamics: time-varying scenarios and online tracking
    "Scenario",
    "ScenarioRunResult",
    "EventSchedule",
    "build_scenario",
    "run_scenario",
    "scenario_names",
    # Topologies
    "Torus2D",
    "Ring",
    "TorusKD",
    "Hypercube",
    "CompleteGraph",
    "RegularExpander",
    "NetworkXTopology",
    # Applications
    "NetworkSizeEstimationPipeline",
    "estimate_network_size",
    "estimate_average_degree",
    "katzir_size_estimate",
    "RobotSwarm",
    "SensorGrid",
]

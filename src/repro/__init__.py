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
  :class:`ResultStore` appends rows atomically and idempotently (Parquet
  when pyarrow is present, NDJSON otherwise), records run provenance, and
  serves queries and report regeneration without re-running simulations.

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

# Defined before any subpackage import: repro.store and repro.sweeps fold the
# package version into provenance metadata and cache keys at import time.
__version__ = "1.10.0"

from repro.core import (
    AnalyticSolution,
    AnalyticUnsupportedError,
    IndependentSamplingEstimator,
    QuorumDetector,
    RandomWalkDensityEstimator,
    bounds,
    estimate_density,
    estimate_density_independent,
    estimate_property_frequency,
    solve_analytic,
)
from repro.core.results import AccuracySummary, DensityEstimationRun
from repro.dynamics import (
    EventSchedule,
    Scenario,
    ScenarioRunResult,
    build_scenario,
    run_scenario,
    scenario_names,
)
from repro.core.kernel import RunContext, use_run_context
from repro.engine import (
    KERNEL_BACKENDS,
    BatchSimulationResult,
    ExecutionEngine,
    RunCache,
    require_batch_safe,
    run_kernel,
)
from repro.obs import (
    Telemetry,
    TelemetryRecorder,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.store import ResultStore
from repro.sweeps import (
    GridAxis,
    RandomAxis,
    SweepSpec,
    TargetSpec,
    ZipAxis,
    run_sweep_spec,
)
from repro.netsize import (
    NetworkSizeEstimationPipeline,
    estimate_average_degree,
    estimate_network_size,
    katzir_size_estimate,
)
from repro.swarm import RobotSwarm
from repro.sensor import SensorGrid
from repro.topology import (
    CompleteGraph,
    Hypercube,
    NetworkXTopology,
    RegularExpander,
    Ring,
    Torus2D,
    TorusKD,
)

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

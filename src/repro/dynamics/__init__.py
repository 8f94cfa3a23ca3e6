"""Time-varying environments, agent churn, and online density tracking.

The paper frames random-walk collision counting as a *robust* density
primitive for ant colonies and robot swarms — but robustness only means
something once the world is allowed to change mid-run. This subsystem
makes the simulation loop time-varying and observable at every round:

* :mod:`~repro.dynamics.events` — declarative, seeded schedules of agent
  arrivals/departures, density shocks, topology rewiring, and sensor
  degradation windows;
* :mod:`~repro.dynamics.population` — vectorised birth/death churn that
  keeps per-agent collision counters aligned with the live population;
* :mod:`~repro.dynamics.online` — streaming anytime estimators (running
  ``c/t``, sliding-window, exponentially discounted) with per-round
  Chernoff confidence bands and a two-window change detector;
* :mod:`~repro.dynamics.scenario` — frozen, JSON-serialisable ``Scenario``
  specs plus a catalog of named time-varying worlds;
* :mod:`~repro.dynamics.driver` — the tracking driver that installs a
  per-round hook into the single-run and batched engines and assembles
  per-round records, bit-identical across worker counts.

Quickstart::

    from repro.dynamics import build_scenario, run_scenario
    result = run_scenario(build_scenario("crash", quick=True), replicates=8, seed=0)
    for record in result.records()[::20]:
        print(record["round"], record["true_density"], record["window"])
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Event": ".events", "AgentArrival": ".events", "AgentDeparture": ".events",
    "DensityShock": ".events", "TopologyChange": ".events", "NoiseWindow": ".events",
    "EventSchedule": ".events", "event_to_dict": ".events", "event_from_dict": ".events",
    "random_churn_schedule": ".events",
    "Population": ".population", "spawn_agents": ".population", "retire_agents": ".population",
    "shock_population": ".population", "remap_positions": ".population",
    "RunningEstimator": ".online", "SlidingWindowEstimator": ".online",
    "DiscountedEstimator": ".online", "TwoWindowChangeDetector": ".online",
    "TrackingParameters": ".online",
    "Scenario": ".scenario", "SCENARIOS": ".scenario", "register_scenario": ".scenario",
    "scenario_names": ".scenario", "build_scenario": ".scenario", "build_topology": ".scenario",
    "CHUNK_REPLICATES": ".driver", "ScenarioRunResult": ".driver", "run_scenario": ".driver",
    "track_scenario": ".driver", "track_scenario_batch": ".driver",
})

__all__ = [
    # events
    "Event",
    "AgentArrival",
    "AgentDeparture",
    "DensityShock",
    "TopologyChange",
    "NoiseWindow",
    "EventSchedule",
    "event_to_dict",
    "event_from_dict",
    "random_churn_schedule",
    # population
    "Population",
    "spawn_agents",
    "retire_agents",
    "shock_population",
    "remap_positions",
    # online estimators
    "RunningEstimator",
    "SlidingWindowEstimator",
    "DiscountedEstimator",
    "TwoWindowChangeDetector",
    # scenarios
    "Scenario",
    "SCENARIOS",
    "register_scenario",
    "scenario_names",
    "build_scenario",
    "build_topology",
    # driver
    "CHUNK_REPLICATES",
    "TrackingParameters",
    "ScenarioRunResult",
    "run_scenario",
    "track_scenario",
    "track_scenario_batch",
]

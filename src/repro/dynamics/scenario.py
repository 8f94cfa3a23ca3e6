"""Frozen ``Scenario`` specs, plain-dict component factories, and a catalog.

A :class:`Scenario` pins down *everything* a dynamic tracking run needs —
topology, initial population, movement model, baseline sensing noise,
placement, event schedule, and tracking parameters — as plain,
JSON-serialisable data. That buys three things at once:

* **reproducibility** — a scenario plus a seed fully determines every
  record, so runs cache by content and fan out over worker processes
  without drift;
* **composability** — components are built from spec dicts (``{"kind":
  "torus2d", "side": 32}``), so new scenarios are data, not code;
* **a catalog** — the named scenarios below (stable, ramp-up, crash,
  oscillating, rewiring-torus, failing-sensors) give the experiments, the
  CLI (``repro scenario list/run``), and the benchmarks one shared
  vocabulary of time-varying worlds.

Catalog builders are parameterised by ``(rounds, side, num_agents)`` with
event rounds placed at fixed fractions of the horizon, so ``--quick`` and
``--rounds`` rescale a scenario without distorting its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.simulation import PlacementFn
from repro.dynamics.events import (
    AgentArrival,
    AgentDeparture,
    DensityShock,
    EventSchedule,
    NoiseWindow,
    TopologyChange,
)
from repro.dynamics.online import TrackingParameters
from repro.swarm.noise import NoisyCollisionModel
from repro.swarm.placement import clustered_placement, gaussian_blob_placement
from repro.topology import (
    BoundedGrid,
    CompleteGraph,
    Hypercube,
    Ring,
    Topology,
    Torus2D,
    TorusKD,
)
from repro.utils.validation import require_integer
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    MovementModel,
)

# ----------------------------------------------------------------------
# Component factories: plain dict spec -> live object
# ----------------------------------------------------------------------

_TOPOLOGY_BUILDERS: dict[str, Callable[..., Topology]] = {
    "torus2d": lambda side: Torus2D(side),
    "bounded_grid": lambda side: BoundedGrid(side),
    "ring": lambda size: Ring(size),
    "torus_kd": lambda side, dims: TorusKD(side, dims),
    "hypercube": lambda dims: Hypercube(dims),
    "complete": lambda size: CompleteGraph(size),
}

_MOVEMENT_BUILDERS: dict[str, Callable[..., Optional[MovementModel]]] = {
    "uniform": lambda: None,  # the topology's own uniform random walk
    "lazy": lambda stay_probability=0.5: LazyRandomWalk(stay_probability=stay_probability),
    "biased": lambda bias=0.2: BiasedTorusWalk(bias=bias),
    "collision_avoiding": lambda avoidance_steps=1: CollisionAvoidingWalk(
        avoidance_steps=avoidance_steps
    ),
}

_PLACEMENT_BUILDERS: dict[str, Callable[..., Optional[PlacementFn]]] = {
    "uniform": lambda: None,  # the engines' default independent uniform placement
    "clustered": lambda cluster_fraction=0.5, cluster_radius=2: clustered_placement(
        cluster_fraction, cluster_radius
    ),
    "gaussian_blob": lambda spread=3.0: gaussian_blob_placement(spread),
}


def _build_from_spec(
    spec: Mapping[str, Any] | None,
    builders: Mapping[str, Callable[..., Any]],
    what: str,
):
    if spec is None:
        return None
    kwargs = dict(spec)
    kind = kwargs.pop("kind", None)
    if kind not in builders:
        raise ValueError(f"unknown {what} kind {kind!r}; known kinds: {sorted(builders)}")
    return builders[kind](**kwargs)


def build_topology(spec: Mapping[str, Any]) -> Topology:
    """Build a topology from a plain spec dict, e.g. ``{"kind": "torus2d", "side": 32}``."""
    topology = _build_from_spec(spec, _TOPOLOGY_BUILDERS, "topology")
    if topology is None:
        raise ValueError("topology spec must not be None")
    return topology


def build_movement(spec: Mapping[str, Any] | None) -> Optional[MovementModel]:
    """Build a movement model from a spec dict (``None``/``uniform`` → default walk)."""
    return _build_from_spec(spec, _MOVEMENT_BUILDERS, "movement")


def build_placement(spec: Mapping[str, Any] | None) -> Optional[PlacementFn]:
    """Build a placement function from a spec dict (``None``/``uniform`` → default)."""
    return _build_from_spec(spec, _PLACEMENT_BUILDERS, "placement")


def build_noise(spec: Mapping[str, Any] | None) -> Optional[NoisyCollisionModel]:
    """Build the baseline sensing-noise model from a spec dict (``None`` → noiseless)."""
    if spec is None:
        return None
    kwargs = dict(spec)
    kind = kwargs.pop("kind", "noisy")
    if kind != "noisy":
        raise ValueError(f"unknown noise kind {kind!r}; known kinds: ['noisy']")
    model = NoisyCollisionModel(**kwargs)
    return None if model.is_noiseless else model


# ----------------------------------------------------------------------
# The scenario spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A complete, serialisable description of one dynamic tracking run.

    Attributes
    ----------
    name / description:
        Identification (the registry key and a one-line summary).
    topology:
        Spec dict for the initial environment (:func:`build_topology`).
    num_agents:
        Initial population (events may change it mid-run).
    rounds:
        Horizon ``T``; one tracking record is emitted per round.
    events:
        The :class:`~repro.dynamics.events.EventSchedule` applied between
        rounds.
    movement / noise / placement:
        Optional spec dicts for the movement model, baseline sensing noise,
        and initial placement (``None`` → the paper's defaults).
    tracking:
        Optional overrides for the online-tracking parameters: ``window``,
        ``gamma``, ``delta``, ``detect_window``, ``detect_threshold``.
    """

    name: str
    description: str
    topology: Mapping[str, Any]
    num_agents: int
    rounds: int
    events: EventSchedule = field(default_factory=EventSchedule)
    movement: Mapping[str, Any] | None = None
    noise: Mapping[str, Any] | None = None
    placement: Mapping[str, Any] | None = None
    tracking: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        require_integer(self.num_agents, "num_agents", minimum=2)
        require_integer(self.rounds, "rounds", minimum=1)
        if self.events.last_round >= self.rounds:
            raise ValueError(
                f"event scheduled for round {self.events.last_round} but the "
                f"scenario only runs {self.rounds} rounds"
            )
        # Fail fast on malformed component specs (otherwise the error would
        # only surface mid-run inside a worker process).
        build_topology(self.topology)
        build_movement(self.movement)
        build_noise(self.noise)
        build_placement(self.placement)
        TrackingParameters.resolve(self.tracking)

    def build_topology(self) -> Topology:
        return build_topology(self.topology)

    def build_movement(self) -> Optional[MovementModel]:
        return build_movement(self.movement)

    def build_noise(self) -> Optional[NoisyCollisionModel]:
        return build_noise(self.noise)

    def build_placement(self) -> Optional[PlacementFn]:
        return build_placement(self.placement)

    def to_dict(self) -> dict[str, Any]:
        """The scenario as one plain JSON-serialisable dict."""
        return {
            "name": self.name,
            "description": self.description,
            "topology": dict(self.topology),
            "num_agents": self.num_agents,
            "rounds": self.rounds,
            "events": self.events.to_dicts(),
            "movement": None if self.movement is None else dict(self.movement),
            "noise": None if self.noise is None else dict(self.noise),
            "placement": None if self.placement is None else dict(self.placement),
            "tracking": None if self.tracking is None else dict(self.tracking),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        data = dict(payload)
        data["events"] = EventSchedule.from_dicts(data.get("events", []))
        return cls(**data)


# ----------------------------------------------------------------------
# Registry and catalog
# ----------------------------------------------------------------------

#: Scenario builder signature: ``factory(rounds, side, num_agents) -> Scenario``.
ScenarioFactory = Callable[[int, int, int], Scenario]


@dataclass(frozen=True)
class ScenarioEntry:
    """One catalog entry: a description plus the parameterised factory."""

    name: str
    description: str
    factory: ScenarioFactory


SCENARIOS: dict[str, ScenarioEntry] = {}

#: Full-scale defaults (the 32x200x400 Torus2D workload of the benchmarks)
#: and the quick variant used by tests and ``--quick``.
DEFAULT_ROUNDS, DEFAULT_SIDE, DEFAULT_AGENTS = 400, 32, 200
QUICK_ROUNDS, QUICK_SIDE, QUICK_AGENTS = 80, 16, 60


def register_scenario(name: str, description: str) -> Callable[[ScenarioFactory], ScenarioFactory]:
    """Decorator: add a scenario factory to the catalog under ``name``."""

    def deco(factory: ScenarioFactory) -> ScenarioFactory:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = ScenarioEntry(name=name, description=description, factory=factory)
        return factory

    return deco


def scenario_names() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(SCENARIOS)


def build_scenario(
    name: str,
    *,
    rounds: int | None = None,
    side: int | None = None,
    num_agents: int | None = None,
    quick: bool = False,
) -> Scenario:
    """Build a catalog scenario, optionally rescaled.

    ``quick=True`` swaps in the scaled-down defaults (seconds instead of
    minutes); explicit ``rounds`` / ``side`` / ``num_agents`` override
    either default individually.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {scenario_names()}")
    base = (QUICK_ROUNDS, QUICK_SIDE, QUICK_AGENTS) if quick else (
        DEFAULT_ROUNDS, DEFAULT_SIDE, DEFAULT_AGENTS
    )
    rounds = base[0] if rounds is None else rounds
    side = base[1] if side is None else side
    num_agents = base[2] if num_agents is None else num_agents
    require_integer(rounds, "rounds", minimum=4)
    require_integer(side, "side", minimum=2)
    require_integer(num_agents, "num_agents", minimum=2)
    return SCENARIOS[name].factory(rounds, side, num_agents)


def _torus(side: int) -> dict[str, Any]:
    return {"kind": "torus2d", "side": side}


@register_scenario("stable", "static world: fixed torus, fixed population, no events")
def _stable(rounds: int, side: int, num_agents: int) -> Scenario:
    return Scenario(
        name="stable",
        description="static world: fixed torus, fixed population, no events",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
    )


@register_scenario("ramp-up", "population grows ~50% through five arrival waves")
def _ramp_up(rounds: int, side: int, num_agents: int) -> Scenario:
    wave = max(1, num_agents // 10)
    waves = tuple(
        AgentArrival(round=int(rounds * fraction), count=wave)
        for fraction in (0.25, 0.35, 0.45, 0.55, 0.65)
    )
    return Scenario(
        name="ramp-up",
        description="population grows ~50% through five arrival waves",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
        events=EventSchedule(events=waves),
    )


@register_scenario("crash", "60% of the population departs at mid-run")
def _crash(rounds: int, side: int, num_agents: int) -> Scenario:
    departing = max(1, int(round(num_agents * 0.6)))
    return Scenario(
        name="crash",
        description="60% of the population departs at mid-run",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
        events=EventSchedule(events=(AgentDeparture(round=rounds // 2, count=departing),)),
    )


@register_scenario("oscillating", "density square-wave: x1.6 / /1.6 shocks at quarter marks")
def _oscillating(rounds: int, side: int, num_agents: int) -> Scenario:
    shocks = tuple(
        DensityShock(round=int(rounds * fraction), factor=factor)
        for fraction, factor in ((0.25, 1.6), (0.5, 1.0 / 1.6), (0.75, 1.6))
    )
    return Scenario(
        name="oscillating",
        description="density square-wave: x1.6 / /1.6 shocks at quarter marks",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
        events=EventSchedule(events=shocks),
    )


@register_scenario("rewiring-torus", "the torus shrinks by a third mid-run, then grows back")
def _rewiring_torus(rounds: int, side: int, num_agents: int) -> Scenario:
    shrunk = max(2, (2 * side) // 3)
    changes = (
        TopologyChange(round=rounds // 3, topology=_torus(shrunk), remap="uniform"),
        TopologyChange(round=(2 * rounds) // 3, topology=_torus(side), remap="uniform"),
    )
    return Scenario(
        name="rewiring-torus",
        description="the torus shrinks by a third mid-run, then grows back",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
        events=EventSchedule(events=changes),
    )


@register_scenario("failing-sensors", "a mid-run window of missed and spurious detections")
def _failing_sensors(rounds: int, side: int, num_agents: int) -> Scenario:
    start = int(rounds * 0.4)
    duration = max(1, int(rounds * 0.3))
    window = NoiseWindow(
        round=start, duration=duration, miss_probability=0.3, spurious_rate=0.05
    )
    return Scenario(
        name="failing-sensors",
        description="a mid-run window of missed and spurious detections",
        topology=_torus(side),
        num_agents=num_agents,
        rounds=rounds,
        events=EventSchedule(events=(window,)),
    )


__all__ = [
    "Scenario",
    "ScenarioEntry",
    "SCENARIOS",
    "register_scenario",
    "scenario_names",
    "build_scenario",
    "build_topology",
    "build_movement",
    "build_noise",
    "build_placement",
    "DEFAULT_ROUNDS",
    "DEFAULT_SIDE",
    "DEFAULT_AGENTS",
    "QUICK_ROUNDS",
    "QUICK_SIDE",
    "QUICK_AGENTS",
]

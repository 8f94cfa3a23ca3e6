"""Experiment suite regenerating the paper's quantitative claims.

The paper is an extended abstract of a theory result and contains no
empirical tables; each experiment here turns one of its theorems, lemmas, or
worked examples into a measurable table (see DESIGN.md for the full index).
Every experiment module exposes a ``*Config`` dataclass (with a ``quick()``
variant used by tests and benchmarks) and a ``run(config, seed)`` function
returning an :class:`~repro.experiments.base.ExperimentResult`.

Use :data:`EXPERIMENTS` to iterate over the whole suite, or
:func:`run_experiment` to run one by id::

    from repro.experiments import run_experiment
    print(run_experiment("E01", quick=True).to_table())
"""

from __future__ import annotations

import ast
import inspect
from collections.abc import Iterator, Mapping
from importlib import import_module
from importlib.util import find_spec
from typing import TYPE_CHECKING, Callable

from repro.experiments.base import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import ExecutionEngine


class ExperimentRegistry(Mapping):
    """Experiment id -> ``(module, config class)``, importing a module on lookup.

    Membership, ``len`` and iteration read the id table and import nothing,
    so listing or validating ids costs no experiment import; ``registry[id]``
    imports that one module (once, through ``sys.modules``).
    """

    def __init__(self, table: dict[str, tuple[str, str]]) -> None:
        self._table = table

    def __getitem__(self, key: str) -> tuple[object, type]:
        module_name, config_name = self._table[key]
        module = import_module(f"{__name__}.{module_name}")
        return module, getattr(module, config_name)

    def __contains__(self, key: object) -> bool:
        return key in self._table

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def summary(self, key: str) -> str:
        """First line of the experiment module's docstring, read from its source."""
        spec = find_spec(f"{__name__}.{self._table[key][0]}")
        docstring = ast.get_docstring(ast.parse(spec.loader.get_source(spec.name))) or ""
        return docstring.strip().splitlines()[0]


#: Registry: experiment id -> (module, config class), each imported on lookup.
EXPERIMENTS = ExperimentRegistry(
    {
        "E01": ("e01_accuracy_vs_rounds", "AccuracyVsRoundsConfig"),
        "E02": ("e02_accuracy_vs_density", "AccuracyVsDensityConfig"),
        "E03": ("e03_recollision_torus", "RecollisionTorusConfig"),
        "E04": ("e04_collision_moments", "CollisionMomentsConfig"),
        "E05": ("e05_rw_vs_independent", "RandomWalkVsIndependentConfig"),
        "E06": ("e06_topology_comparison", "TopologyComparisonConfig"),
        "E07": ("e07_recollision_topologies", "RecollisionTopologiesConfig"),
        "E08": ("e08_local_mixing", "LocalMixingConfig"),
        "E09": ("e09_network_size", "NetworkSizeConfig"),
        "E10": ("e10_average_degree", "AverageDegreeConfig"),
        "E11": ("e11_burn_in", "BurnInConfig"),
        "E12": ("e12_property_frequency", "PropertyFrequencyConfig"),
        "E13": ("e13_all_agents", "AllAgentsConfig"),
        "E14": ("e14_noise_ablation", "NoiseAblationConfig"),
        "E15": ("e15_nonuniform_placement", "NonuniformPlacementConfig"),
        "E16": ("e16_sensor_sampling", "SensorSamplingConfig"),
        "E17": ("e17_unbiasedness", "UnbiasednessConfig"),
        "E18": ("e18_quorum_sensing", "QuorumSensingConfig"),
        "E19": ("e19_movement_models", "MovementModelsConfig"),
        "E20": ("e20_boundary_effects", "BoundaryEffectsConfig"),
        "E21": ("e21_adaptive_estimation", "AdaptiveEstimationConfig"),
        "E22": ("e22_collective_quorum", "CollectiveQuorumConfig"),
        "E23": ("e23_density_tracking", "DensityTrackingConfig"),
        "E24": ("e24_churn_robustness", "ChurnRobustnessConfig"),
    }
)


def _engine_aware_runner(key: str, module: object) -> Callable:
    """The experiment's ``run`` — verified to forward the execution engine.

    Every registered experiment executes through the engine
    (``ExecutionPlan`` cells and/or the batched kernel), so its ``run``
    must accept ``engine=``. An experiment that silently dropped the
    parameter would run serially no matter what ``--workers`` asks for;
    this guard turns that regression into a loud error naming the module.
    """
    runner: Callable = module.run
    if "engine" not in inspect.signature(runner).parameters:
        raise TypeError(
            f"experiment {key} ({module.__name__}) does not accept engine=: "
            "every experiment must forward the execution engine so that "
            "batching, caching, and --workers reach it"
        )
    return runner


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = False,
    seed: int = 0,
    engine: "ExecutionEngine | None" = None,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E03"``).

    Parameters
    ----------
    experiment_id:
        Key of :data:`EXPERIMENTS` (case-insensitive).
    quick:
        Use the scaled-down configuration (seconds instead of minutes).
    seed:
        Seed forwarded to the experiment.
    engine:
        Optional :class:`repro.engine.ExecutionEngine`, forwarded to every
        experiment (each defaults to a serial engine when ``None``).
        Records never depend on the engine's worker count — only
        wall-clock does.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment id {experiment_id!r}; known ids: {sorted(EXPERIMENTS)}")
    module, config_cls = EXPERIMENTS[key]
    config = config_cls.quick() if quick else config_cls()
    runner = _engine_aware_runner(key, module)
    return runner(config, seed=seed, engine=engine)


def run_all(
    *, quick: bool = True, seed: int = 0, engine: "ExecutionEngine | None" = None
) -> dict[str, ExperimentResult]:
    """Run the whole suite (quick configurations by default) and return results by id.

    Before anything runs, every registered experiment is checked to forward
    the engine — one experiment ignoring ``engine=`` would silently run
    serially under ``--workers N``, so the check fails fast and names it.
    """
    for key, (module, _) in EXPERIMENTS.items():
        _engine_aware_runner(key, module)
    return {key: run_experiment(key, quick=quick, seed=seed, engine=engine) for key in EXPERIMENTS}


__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment", "run_all"]

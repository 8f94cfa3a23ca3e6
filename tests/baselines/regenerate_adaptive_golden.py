"""Regenerate the golden fixtures of the adaptive and dispersion estimators.

:class:`~repro.core.adaptive.AdaptiveDensityEstimator` and
:func:`~repro.swarm.dispersion.disperse_swarm` stop, or steer robots, on
their own collision counts, so statistical tests alone cannot notice a
rewrite that shifts their random streams. ``adaptive_golden.json`` pins the
streams: per case it records a SHA-256 digest of every result array
(dtype, shape and bytes) plus the exact scalars, and
``tests/test_adaptive_meeting_paths.py`` requires the current code to
reproduce them byte for byte.

The adaptive cases cover Torus2D, Ring, TorusKD, Hypercube, BoundedGrid,
CompleteGraph and a RegularExpander, with 2, 30 and 120 agents, two target
widths and two seeds; some runs stop after a few phases and some reach the
round cap on a shortened last phase. The dispersion cases cover two torus
sides, uniform and clustered starts, and runs with and without spread
steps. The fixtures were generated from the estimators' own step-and-count
loops, before both ran through the simulation kernel. Run::

    PYTHONPATH=src python tests/baselines/regenerate_adaptive_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.adaptive import AdaptiveDensityEstimator
from repro.swarm.dispersion import disperse_swarm
from repro.swarm.placement import gaussian_blob_placement
from repro.topology.bounded_grid import BoundedGrid
from repro.topology.complete import CompleteGraph
from repro.topology.expander import RegularExpander
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD

GOLDEN_PATH = Path(__file__).with_name("adaptive_golden.json")

TOPOLOGIES = {
    "torus2d": lambda: Torus2D(8),
    "ring": lambda: Ring(40),
    "torus_kd": lambda: TorusKD(4, 3),
    "hypercube": lambda: Hypercube(6),
    "bounded_grid": lambda: BoundedGrid(8),
    "complete": lambda: CompleteGraph(50),
    "expander": lambda: RegularExpander(64, 4, seed=3),
}

NUM_AGENTS = (2, 30, 120)
TARGET_EPSILONS = (0.5, 0.15)
SEEDS = (0, 1)

#: Phases of 8, 16, ..., 256 rounds total 504, so a capped run ends on an
#: 8-round phase instead of a full doubling.
INITIAL_ROUNDS = 8
MAX_ROUNDS = 512

DISPERSION_SIDES = {8: 4, 12: 3}  # torus side -> cells_per_side
DISPERSION_ROBOTS = (2, 30, 90)
DISPERSION_SPREAD_STEPS = (0, 4)
DISPERSION_PLACEMENTS = ("uniform", "blob")
DISPERSION_EPOCHS = 3
DISPERSION_ROUNDS_PER_EPOCH = 6


def adaptive_specs() -> list[dict]:
    specs = []
    for topology in TOPOLOGIES:
        for num_agents in NUM_AGENTS:
            for target_epsilon in TARGET_EPSILONS:
                for seed in SEEDS:
                    specs.append(
                        {"topology": topology, "num_agents": num_agents,
                         "target_epsilon": target_epsilon, "seed": seed}
                    )
    return specs


def dispersion_specs() -> list[dict]:
    specs = []
    for side, cells_per_side in DISPERSION_SIDES.items():
        for robots in DISPERSION_ROBOTS:
            for spread_steps in DISPERSION_SPREAD_STEPS:
                for placement in DISPERSION_PLACEMENTS:
                    specs.append(
                        {"side": side, "cells_per_side": cells_per_side, "robots": robots,
                         "spread_steps": spread_steps, "placement": placement}
                    )
    for index, spec in enumerate(specs):
        spec["seed"] = 2000 + index
    return specs


def digest(array) -> str:
    """SHA-256 over an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    payload = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    return hashlib.sha256(payload).hexdigest()


def run_adaptive(spec: dict) -> dict:
    outcome = AdaptiveDensityEstimator(
        TOPOLOGIES[spec["topology"]](),
        spec["num_agents"],
        target_epsilon=spec["target_epsilon"],
        initial_rounds=INITIAL_ROUNDS,
        max_rounds=MAX_ROUNDS,
    ).run(spec["seed"])
    return {
        "estimates": digest(outcome.estimates),
        "rounds_used": outcome.rounds_used,
        "phases": outcome.phases,
        "converged_fraction": outcome.converged_fraction,
    }


def initial_positions(spec: dict) -> np.ndarray:
    """The swarm's starting nodes, drawn from their own generator."""
    topology = Torus2D(spec["side"])
    rng = np.random.default_rng(spec["seed"] + 10_000)
    if spec["placement"] == "blob":
        return gaussian_blob_placement(1.5)(topology, spec["robots"], rng)
    return topology.uniform_nodes(spec["robots"], rng)


def run_dispersion(spec: dict) -> dict:
    outcome = disperse_swarm(
        Torus2D(spec["side"]),
        initial_positions(spec),
        epochs=DISPERSION_EPOCHS,
        rounds_per_epoch=DISPERSION_ROUNDS_PER_EPOCH,
        spread_steps=spec["spread_steps"],
        seed=spec["seed"],
        cells_per_side=spec["cells_per_side"],
    )
    return {
        "imbalance_history": digest(outcome.imbalance_history),
        "final_positions": digest(outcome.final_positions),
    }


def generate() -> dict:
    return {
        "adaptive": {
            "initial_rounds": INITIAL_ROUNDS,
            "max_rounds": MAX_ROUNDS,
            "cases": [dict(spec, outcome=run_adaptive(spec)) for spec in adaptive_specs()],
        },
        "dispersion": {
            "epochs": DISPERSION_EPOCHS,
            "rounds_per_epoch": DISPERSION_ROUNDS_PER_EPOCH,
            "cases": [dict(spec, outcome=run_dispersion(spec)) for spec in dispersion_specs()],
        },
    }


def main() -> None:
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(
        f"wrote {len(payload['adaptive']['cases'])} adaptive and "
        f"{len(payload['dispersion']['cases'])} dispersion cases to {GOLDEN_PATH}"
    )


if __name__ == "__main__":
    main()

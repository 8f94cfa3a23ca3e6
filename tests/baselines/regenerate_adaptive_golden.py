"""Regenerate the golden fixture of the adaptive estimator.

:class:`~repro.core.adaptive.AdaptiveDensityEstimator` stops on its own
collision counts, so statistical tests alone cannot notice a rewrite that
shifts its random streams. ``adaptive_golden.json`` pins the streams: per
case it records a SHA-256 digest of the estimates array (dtype, shape and
bytes) plus the exact scalars, and ``tests/test_adaptive_meeting_paths.py``
requires the current code to reproduce them byte for byte.

The cases cover Torus2D, Ring, TorusKD, Hypercube, BoundedGrid,
CompleteGraph and a RegularExpander, with 2, 30 and 120 agents, two target
widths and two seeds; some runs stop after a few phases and some reach the
round cap on a shortened last phase. The fixture was generated from the
estimator's own step-and-count loop, before it ran through the simulation
kernel. Run::

    PYTHONPATH=src python tests/baselines/regenerate_adaptive_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.adaptive import AdaptiveDensityEstimator
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


def generate() -> dict:
    return {
        "adaptive": {
            "initial_rounds": INITIAL_ROUNDS,
            "max_rounds": MAX_ROUNDS,
            "cases": [dict(spec, outcome=run_adaptive(spec)) for spec in adaptive_specs()],
        },
    }


def main() -> None:
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['adaptive']['cases'])} adaptive cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()

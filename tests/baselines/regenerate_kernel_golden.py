"""Regenerate the kernel-equivalence golden fixtures.

The fixtures in ``kernel_golden.json`` pin the exact random stream of the
pre-refactor serial simulation loop (``simulate_density_estimation`` as it
existed before the single-kernel refactor) for every catalog movement model
x collision/noise model combination. These fixtures are the contract that
the vectorized kernel (:func:`repro.core.kernel.run_kernel`) reproduces
that stream bit for bit, in serial mode and at ``replicates=1``.

The fixtures were generated once from the pre-refactor loop and committed;
regenerating them against the current code only confirms the kernel still
matches itself. Run::

    PYTHONPATH=src python tests/baselines/regenerate_kernel_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    UniformRandomWalk,
)

SIDE = 8
NUM_AGENTS = 14
ROUNDS = 12
SEEDS = (0, 7)

#: Catalog movement models (None = the topology's own uniform step).
MOVEMENTS = {
    "default": None,
    "uniform_random_walk": UniformRandomWalk(),
    "lazy_random_walk": LazyRandomWalk(stay_probability=0.4),
    "biased_torus_walk": BiasedTorusWalk(bias=0.3),
    "collision_avoiding_walk": CollisionAvoidingWalk(avoidance_steps=2),
}

#: Catalog collision observation models (None = noiseless).
NOISE_MODELS = {
    "noiseless": None,
    "noisy": NoisyCollisionModel(miss_probability=0.3, spurious_rate=0.1),
}

#: Marked fractions exercised (marked tracking changes the counting path).
MARKED_FRACTIONS = (0.0, 0.25)


def generate() -> dict:
    cases = []
    for movement_name, movement in MOVEMENTS.items():
        for noise_name, noise in NOISE_MODELS.items():
            for marked_fraction in MARKED_FRACTIONS:
                for seed in SEEDS:
                    config = SimulationConfig(
                        num_agents=NUM_AGENTS,
                        rounds=ROUNDS,
                        marked_fraction=marked_fraction,
                        collision_model=noise,
                        movement=movement,
                    )
                    outcome = run_kernel(Torus2D(SIDE), config, None, seed)
                    cases.append(
                        {
                            "movement": movement_name,
                            "noise": noise_name,
                            "marked_fraction": marked_fraction,
                            "seed": seed,
                            "collision_totals": outcome.collision_totals.tolist(),
                            "marked_collision_totals": outcome.marked_collision_totals.tolist(),
                            "marked": outcome.marked.astype(int).tolist(),
                            "initial_positions": outcome.initial_positions.tolist(),
                            "final_positions": outcome.final_positions.tolist(),
                        }
                    )
    return {
        "side": SIDE,
        "num_agents": NUM_AGENTS,
        "rounds": ROUNDS,
        "cases": cases,
    }


def main() -> None:
    payload = generate()
    path = Path(__file__).with_name("kernel_golden.json")
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {path}")


if __name__ == "__main__":
    main()

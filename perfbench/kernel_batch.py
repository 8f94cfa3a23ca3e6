"""``kernel-batch``: a warm, in-process, fixed cycle of ``run_kernel`` calls.

An operation is one call. Each call's mean estimate must fall inside the
analytic oracle band of its configuration, and at set-up the fused backend
must be bit-identical to the reference loop.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.analytic import solve
from repro.core.encounter import batched_collision_counts_linear
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.swarm.noise import NoisyCollisionModel
from repro.topology import Torus2D

from common import Checks, self_peak_rss_mb

#: Width of the oracle band, in standard deviations of the grand mean.
BAND_SIGMAS = 6.0

NOISE = NoisyCollisionModel(miss_probability=0.1, spurious_rate=0.05)

#: (name, side, agents, replicates, rounds, run_kernel keyword arguments).
CALLS = (
    ("torus128", 128, 1024, 64, 200, {}),
    ("torus32_fused", 32, 64, 1000, 100, {}),
    ("torus32_k1", 32, 64, 1000, 100, {"shard_workers": 1}),
    ("torus32_k2", 32, 64, 1000, 100, {"shard_workers": 2}),
    ("torus64_marked", 64, 512, 64, 200, {"marked_fraction": 0.25}),
    ("noisy", 64, 512, 32, 200, {"collision_model": NOISE}),
)

#: The adaptive call: Torus2D(16), 120 agents. It never meets epsilon=0.2 before
#: the 4080-round cap, so every seed does the same work.
ADAPTIVE = {"side": 16, "num_agents": 120, "target_epsilon": 0.2, "max_rounds": 4080}

CONFIG_FIELDS = ("marked_fraction", "collision_model")


def _config(agents: int, rounds: int, extra: dict) -> SimulationConfig:
    return SimulationConfig(
        num_agents=agents, rounds=rounds, **{k: v for k, v in extra.items() if k in CONFIG_FIELDS}
    )


def _band(side: int, agents: int, rounds: int, replicates: int, noise=None) -> tuple:
    """(centre, half-width) of the grand-mean estimate, from the analytic solver."""
    solution = solve(Torus2D(side), SimulationConfig(num_agents=agents, rounds=rounds))
    centre, variance = solution.density, solution.grand_mean_variance(replicates)
    if noise is not None:
        keep = 1.0 - noise.miss_probability
        centre = keep * centre + noise.spurious_rate
        samples = agents * replicates * rounds
        variance = keep**2 * variance + (
            solution.density * keep * noise.miss_probability + noise.spurious_rate
        ) / samples
    return centre, BAND_SIGMAS * math.sqrt(variance)


class Workload:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"kernel-batch:{seed}")
        self.checks = Checks()
        self.estimates: list = []  # (call name, its op record, mean estimate)
        self.topologies = {side: Torus2D(side) for side in {c[1] for c in CALLS}}

    def _adaptive(self) -> AdaptiveDensityEstimator:
        return AdaptiveDensityEstimator(
            Torus2D(ADAPTIVE["side"]),
            ADAPTIVE["num_agents"],
            target_epsilon=ADAPTIVE["target_epsilon"],
            max_rounds=ADAPTIVE["max_rounds"],
        )

    # ------------------------------------------------------------------
    def setup(self) -> None:
        topology = Torus2D(16)
        config = SimulationConfig(num_agents=40, rounds=60, marked_fraction=0.25)
        fused = run_kernel(topology, config, replicates=8, seed=11, backend="fused")
        reference = run_kernel(topology, config, replicates=8, seed=11, backend="reference")
        for field in ("collision_totals", "marked_collision_totals", "final_positions"):
            self.checks.expect(
                np.array_equal(getattr(fused, field), getattr(reference, field)),
                f"set-up: fused {field} differs from the reference backend",
            )
        # Warm-up: one small call down every path the cycle takes.
        for name, side, agents, _, _, extra in CALLS:
            run_kernel(self.topologies[side], _config(agents, 8, extra), replicates=4, seed=0, **{
                k: v for k, v in extra.items() if k not in CONFIG_FIELDS
            })
        AdaptiveDensityEstimator(Torus2D(8), 10, max_rounds=32, initial_rounds=16).run(seed=0)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    # ------------------------------------------------------------------
    def cycle(self, tracer, ops: list) -> dict:
        """One pass over the call cycle; returns each call's seconds."""
        seed = self.rng.randrange(2**32)
        sharded = []  # (op record, collision totals) of the sharded calls
        for name, side, agents, replicates, rounds, extra in CALLS:
            layer = "core.shardpath" if "shard_workers" in extra else "core.fastpath"
            config = _config(agents, rounds, extra)
            kwargs = {k: v for k, v in extra.items() if k not in CONFIG_FIELDS}
            # The two sharded calls share a seed: their results must be bit-identical.
            call_seed = seed if "shard_workers" in extra else self.rng.randrange(2**32)
            with tracer.span(f"kernel.{name}", layer):
                t0 = time.perf_counter()
                result = run_kernel(self.topologies[side], config, replicates=replicates, seed=call_seed, **kwargs)
                elapsed = time.perf_counter() - t0
            ops.append([name, elapsed, True])
            self.estimates.append((name, ops[-1], float(result.estimates().mean())))
            if "shard_workers" in extra:
                sharded.append((ops[-1], result.collision_totals))
        with tracer.span("adaptive.run", "core.adaptive"):
            t0 = time.perf_counter()
            outcome = self._adaptive().run(seed=self.rng.randrange(2**32))
            elapsed = time.perf_counter() - t0
        ops.append(["adaptive", elapsed, True])
        self.estimates.append(("adaptive", ops[-1], float(outcome.mean_estimate())))
        self.last_adaptive_rounds = outcome.rounds_used
        for op, totals in sharded[1:]:
            self.checks.expect(
                np.array_equal(totals, sharded[0][1]), f"{op[0]}: sharded results depend on shard_workers", op
            )
        return {op[0]: op[1] for op in ops[-len(CALLS) - 1 :]}

    def agent_rounds(self) -> int:
        return sum(a * r * t for _, _, a, r, t, _ in CALLS) + ADAPTIVE["num_agents"] * self.last_adaptive_rounds

    def check(self) -> None:
        """Every call's mean estimate against its analytic oracle band."""
        bands = {}
        for name, side, agents, replicates, rounds, extra in CALLS:
            bands[name] = _band(side, agents, rounds, replicates, extra.get("collision_model"))
        # The estimator stops on its own data, so the fixed-horizon band does not
        # apply; its contract is a mean within target_epsilon of d.
        density = (ADAPTIVE["num_agents"] - 1) / Torus2D(ADAPTIVE["side"]).num_nodes
        bands["adaptive"] = (density, ADAPTIVE["target_epsilon"] * density)
        for name, op, estimate in self.estimates:
            centre, half_width = bands[name]
            self.checks.expect(
                abs(estimate - centre) <= half_width,
                f"{name}: mean estimate {estimate:.6f} outside {centre:.6f} ± {half_width:.6f}",
                op,
            )

    # ------------------------------------------------------------------
    def recording(self):
        self.recorder = TelemetryRecorder(level="summary")
        return use_telemetry(self.recorder)

    def traced_layers(self, tracer, traced_ops: list) -> dict:
        """Phase timers via the public telemetry API, plus direct layer calls."""
        summary = self.recorder.summary()
        timers, counters = summary["timers"], summary["counters"]
        out = {
            f"fastpath.{phase}_s": timers.get(f"fastpath.{phase}_seconds", {}).get("total_seconds", 0.0)
            for phase in ("draw", "step", "count", "observe")
        }
        for path in ("bincount", "bincount-blocked", "unique"):
            out[f"fastpath.counting_path.{path}"] = counters.get(f"fastpath.counting_path[path={path}]", 0)
        by_name = {op[0]: op[1] for op in traced_ops}
        for name in ("torus128", "torus32_fused", "torus64_marked", "noisy"):
            out[f"kernel.{name}_ms"] = by_name[name] * 1e3
        out["kernel.agent_rounds_per_s"] = self.agent_rounds() / sum(by_name.values())
        out["shardpath.k1_ms"] = by_name["torus32_k1"] * 1e3
        out["shardpath.k2_ms"] = by_name["torus32_k2"] * 1e3
        out["shardpath.k1_over_fused"] = by_name["torus32_k1"] / by_name["torus32_fused"]
        out["adaptive.run_ms"] = by_name["adaptive"] * 1e3
        out["adaptive.rounds_used"] = self.last_adaptive_rounds
        out.update(self._primitives(tracer))
        return out

    def _primitives(self, tracer) -> dict:
        """Counting and stepping primitives, called directly on the cycle's shapes."""
        generator = np.random.default_rng(self.rng.randrange(2**32))
        count_s = draw_s = apply_s = 0.0
        label_bytes = 0
        for name, side, agents, replicates, _, _ in CALLS:
            topology = self.topologies[side]
            positions = topology.uniform_nodes((replicates, agents), generator)
            with tracer.span(f"encounter.count.{name}", "core.encounter"):
                t0 = time.perf_counter()
                batched_collision_counts_linear(positions, topology.num_nodes)
                count_s += time.perf_counter() - t0
            # Computed, not measured: offset labels, the R·A bincount, the gathered counts.
            label_bytes += 8 * (2 * replicates * agents + replicates * topology.num_nodes)
            with tracer.span(f"topology.draw_chunk.{name}", "topology"):
                t0 = time.perf_counter()
                draws = topology.draw_steps_chunk(16, positions.shape, generator)
                draw_s += time.perf_counter() - t0
            with tracer.span(f"topology.apply_steps.{name}", "topology"):
                t0 = time.perf_counter()
                topology.apply_steps(positions, draws[0])
                apply_s += time.perf_counter() - t0
        return {
            "encounter.count_ms": count_s * 1e3,
            "encounter.label_bytes_computed": label_bytes,
            "topology.draw_chunk_ms": draw_s * 1e3,
            "topology.apply_steps_ms": apply_s * 1e3,
        }

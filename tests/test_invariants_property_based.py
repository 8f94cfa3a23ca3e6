"""Cross-cutting invariant and property-based tests.

These tests state invariants that must hold for *any* parameter choice —
conservation laws of the simulation, monotonicity of the theoretical bounds,
determinism given a seed — and let hypothesis explore the parameter space.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds
from repro.core.encounter import collision_counts
from repro.core.estimator import RandomWalkDensityEstimator
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.dynamics import (
    EventSchedule,
    Scenario,
    random_churn_schedule,
    track_scenario,
    track_scenario_batch,
)
from repro.topology.torus import Torus2D


densities = st.floats(min_value=0.005, max_value=0.5)
epsilons = st.floats(min_value=0.01, max_value=0.9)
deltas = st.floats(min_value=0.001, max_value=0.5)


class TestBoundsProperties:
    @given(
        d=st.floats(min_value=0.005, max_value=0.3),
        eps=st.floats(min_value=0.01, max_value=0.5),
        delta=deltas,
    )
    @settings(max_examples=60, deadline=None)
    def test_theorem1_rounds_at_least_independent_sampling(self, d, eps, delta):
        # In the regime the theorem targets (d·eps well below 1, so the
        # squared log factor exceeds 1), the torus bound dominates Theorem
        # 32's independent-sampling count ceil(log(1/δ) / (dε²)).
        assert bounds.theorem1_rounds(d, eps, delta) >= math.ceil(math.log(1 / delta) / (d * eps**2))

    @given(d=densities, eps=epsilons, delta=deltas)
    @settings(max_examples=60, deadline=None)
    def test_rounds_monotone_in_epsilon(self, d, eps, delta):
        tighter = max(eps / 2.0, 0.005)
        assert bounds.theorem1_rounds(d, tighter, delta) >= bounds.theorem1_rounds(d, eps, delta)

    @given(d=densities, eps=epsilons, delta=deltas)
    @settings(max_examples=60, deadline=None)
    def test_rounds_monotone_in_delta(self, d, eps, delta):
        stricter = delta / 2.0
        assert bounds.theorem1_rounds(d, eps, stricter) >= bounds.theorem1_rounds(d, eps, delta)

    @given(
        m=st.integers(min_value=0, max_value=10**6),
        num_nodes=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=60, deadline=None)
    def test_recollision_bounds_are_probabilistically_sane(self, m, num_nodes):
        for value in (
            bounds.recollision_bound_torus2d(m, num_nodes),
            bounds.recollision_bound_ring(m, num_nodes),
            bounds.recollision_bound_torus_kd(m, num_nodes, 3),
            bounds.recollision_bound_hypercube(m, num_nodes),
        ):
            assert value > 0

    @given(
        m=st.integers(min_value=1, max_value=1000),
        num_nodes=st.integers(min_value=10, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_recollision_bound_ordering_by_local_mixing(self, m, num_nodes):
        ring = bounds.recollision_bound_ring(m, num_nodes)
        torus = bounds.recollision_bound_torus2d(m, num_nodes)
        torus3 = bounds.recollision_bound_torus_kd(m, num_nodes, 3)
        assert ring >= torus >= torus3


class TestSimulationInvariants:
    @given(
        side=st.integers(min_value=4, max_value=24),
        num_agents=st.integers(min_value=1, max_value=80),
        rounds=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_collision_totals_bounded_and_even(self, side, num_agents, rounds, seed):
        topology = Torus2D(side)
        config = SimulationConfig(num_agents=num_agents, rounds=rounds)
        outcome = run_kernel(topology, config, None, seed=seed)
        totals = outcome.collision_totals
        assert np.all(totals >= 0)
        assert np.all(totals <= rounds * (num_agents - 1))
        # Collisions are mutual: the population-wide total per round is even,
        # hence so is the grand total.
        assert int(totals.sum()) % 2 == 0

    @given(
        side=st.integers(min_value=4, max_value=20),
        num_agents=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_runs_are_deterministic_given_seed(self, side, num_agents, seed):
        topology = Torus2D(side)
        first = RandomWalkDensityEstimator(topology, num_agents, 10).run(seed=seed)
        second = RandomWalkDensityEstimator(topology, num_agents, 10).run(seed=seed)
        assert np.array_equal(first.estimates, second.estimates)

    @given(positions=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_collision_counts_consistent_with_occupancy(self, positions):
        counts = collision_counts(np.array(positions))
        # Sum of per-agent counts equals sum over nodes of k(k-1).
        _, occupancy = np.unique(np.array(positions), return_counts=True)
        assert counts.sum() == int(np.sum(occupancy * (occupancy - 1)))

    def test_estimates_scale_inversely_with_area_on_average(self):
        # Doubling the torus area (at fixed agent count) halves the density
        # and the average estimate follows.
        small = RandomWalkDensityEstimator(Torus2D(20), 100, 200).run(seed=0)
        large = RandomWalkDensityEstimator(Torus2D(29), 100, 200).run(seed=0)
        ratio = small.mean_estimate() / max(large.mean_estimate(), 1e-9)
        expected = (29 * 29) / (20 * 20)
        assert ratio == pytest.approx(expected, rel=0.35)


def _churn_scenario(rounds: int, num_agents: int, arrival_rate: float,
                    departure_rate: float, schedule_seed: int) -> Scenario:
    return Scenario(
        name="property-churn",
        description="hypothesis-generated churn traffic",
        topology={"kind": "torus2d", "side": 8},
        num_agents=num_agents,
        rounds=rounds,
        events=random_churn_schedule(rounds, arrival_rate, departure_rate, schedule_seed),
    )


class TestDynamicsInvariants:
    @given(
        rounds=st.integers(min_value=4, max_value=30),
        num_agents=st.integers(min_value=2, max_value=40),
        arrival_rate=st.floats(min_value=0.0, max_value=3.0),
        departure_rate=st.floats(min_value=0.0, max_value=6.0),
        schedule_seed=st.integers(min_value=0, max_value=10**6),
        run_seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_churn_never_yields_negative_population(
        self, rounds, num_agents, arrival_rate, departure_rate, schedule_seed, run_seed
    ):
        # Even under heavy departure pressure (departures drawn at twice the
        # arrival rate) the clamp keeps at least one live agent, so the
        # population timeline is positive at every round.
        scenario = _churn_scenario(
            rounds, num_agents, arrival_rate, departure_rate, schedule_seed
        )
        outcome = track_scenario(scenario, seed=run_seed)
        assert outcome.population.min() >= 1
        assert (outcome.num_nodes == 64).all()

    @given(
        rounds=st.integers(min_value=4, max_value=25),
        num_agents=st.integers(min_value=2, max_value=30),
        replicates=st.integers(min_value=1, max_value=4),
        schedule_seed=st.integers(min_value=0, max_value=10**6),
        run_seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_counter_arrays_always_match_live_agent_count(
        self, rounds, num_agents, replicates, schedule_seed, run_seed
    ):
        from repro.core.simulation import SimulationConfig
        from repro.dynamics.driver import _DynamicsTracker

        scenario = _churn_scenario(rounds, num_agents, 2.0, 3.0, schedule_seed)
        sizes: list[tuple[int, ...]] = []

        tracker = _DynamicsTracker(scenario, tracks=replicates)

        def observing_hook(state):
            tracker(state)
            # After every round (events applied) the four per-agent arrays
            # must agree on one shape with at least one live agent.
            assert state.positions.shape == state.totals.shape
            assert state.positions.shape == state.marked.shape
            assert state.positions.shape == state.marked_totals.shape
            assert state.positions.shape[-1] >= 1
            sizes.append(state.positions.shape)

        config = SimulationConfig(
            num_agents=scenario.num_agents, rounds=scenario.rounds, round_hook=observing_hook
        )
        result = run_kernel(
            Torus2D(8), config, replicates, seed=run_seed
        )
        assert len(sizes) == rounds
        # The final result arrays carry the final live population.
        assert result.collision_totals.shape == sizes[-1]
        # The tracker records the population *observed* in round t, which is
        # the post-event size of round t-1 (and the initial size at t=0).
        assert tracker.population[0] == scenario.num_agents
        for t in range(1, rounds):
            assert tracker.population[t] == sizes[t - 1][-1]

    @given(
        rounds=st.integers(min_value=1, max_value=60),
        arrival_rate=st.floats(min_value=0.0, max_value=4.0),
        departure_rate=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=50, deadline=None)
    def test_identical_seeds_give_bit_identical_schedules(
        self, rounds, arrival_rate, departure_rate, seed
    ):
        # The schedule is generated before any execution fan-out, so seed
        # determinism here is what makes scenario records independent of
        # the worker count. Equality must also survive the JSON round trip
        # used by caches and subprocess settings.
        first = random_churn_schedule(rounds, arrival_rate, departure_rate, seed)
        second = random_churn_schedule(rounds, arrival_rate, departure_rate, seed)
        assert first == second
        assert EventSchedule.from_dicts(first.to_dicts()) == second

    @given(
        num_agents=st.integers(min_value=4, max_value=30),
        schedule_seed=st.integers(min_value=0, max_value=10**6),
        run_seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_churn_population_timeline_matches_single_run(
        self, num_agents, schedule_seed, run_seed
    ):
        scenario = _churn_scenario(12, num_agents, 1.5, 1.5, schedule_seed)
        single = track_scenario(scenario, seed=run_seed)
        batched = track_scenario_batch(scenario, 3, seed=run_seed)
        # The environment timeline is schedule-driven, hence identical
        # whatever the execution shape.
        assert np.array_equal(single.population, batched.population)
        assert np.array_equal(single.num_nodes, batched.num_nodes)

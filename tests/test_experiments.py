"""Tests for the experiment suite (structure and key qualitative claims)."""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.base import ExperimentResult


class TestRegistry:
    def test_all_ids_present(self):
        expected = {f"E{i:02d}" for i in range(1, 25)}
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive_lookup(self):
        result = run_experiment("e17", quick=True, seed=0)
        assert result.experiment_id == "E17"

    def test_quick_configs_exist(self):
        for module, config_cls in EXPERIMENTS.values():
            quick = config_cls.quick()
            assert isinstance(quick, config_cls)


def _shape_e01(result):
    epsilons = result.column("empirical_epsilon")
    rounds = result.column("rounds")
    # More rounds => smaller error (the headline shape of Theorem 1).
    assert rounds == sorted(rounds)
    assert epsilons[-1] < epsilons[0]


def _shape_e02(result):
    densities = result.column("true_density")
    epsilons = result.column("empirical_epsilon")
    assert densities == sorted(densities)
    # Densest setting is estimated at least as well as the sparsest one.
    assert epsilons[-1] <= epsilons[0]


def _shape_e03(result):
    probabilities = result.column("recollision_probability")
    assert probabilities[-1] < probabilities[0]
    for probability, bound in zip(probabilities, result.column("lemma4_bound")):
        assert probability <= 4.0 * bound + 0.05


def _shape_e04(result):
    for record in result.records:
        assert record["pair_collision_moment"] >= 0
        assert record["lemma11_bound_fitted"] > 0
        assert record["within_bound"]


def _shape_e05(result):
    ratios = [r for r in result.column("ratio") if np.isfinite(r)]
    assert ratios, "expected at least one finite error ratio"
    # Random walks lose at most a small multiplicative factor (poly-log in theory).
    assert max(ratios) < 10.0


def _shape_e06(result):
    epsilons = {record["topology"]: record["empirical_epsilon"] for record in result.records}
    assert "ring" in epsilons and "complete" in epsilons and "torus2d" in epsilons
    # The ring is never better than the complete graph; the torus sits between.
    assert epsilons["ring"] >= epsilons["complete"] * 0.9
    assert epsilons["torus2d"] <= epsilons["ring"] * 1.5


def _shape_e07(result):
    by_topology = {record["topology"]: record for record in result.records}
    # The decay steepens with local mixing strength: ring < torus2d < torus_3d.
    assert (
        by_topology["ring"]["probability_at_max_offset"]
        > by_topology["torus2d"]["probability_at_max_offset"]
    )
    assert (
        by_topology["torus2d"]["probability_at_max_offset"]
        >= by_topology["torus_3d"]["probability_at_max_offset"]
    )
    # Fitted exponents keep the expected ordering (ring shallowest).
    assert by_topology["ring"]["fitted_exponent"] > by_topology["torus_3d"]["fitted_exponent"]


def _shape_e08(result):
    growth = {record["topology"]: record["growth_ratio"] for record in result.records}
    assert growth["ring"] >= growth["torus2d"] * 0.9
    assert growth["ring"] > growth["torus_3d"]
    assert growth["ring"] > growth["hypercube"]


def _shape_e09(result):
    algorithm_rows = [r for r in result.records if r["method"] == "algorithm2"]
    baseline_rows = [r for r in result.records if r["method"] == "katzir_baseline"]
    assert algorithm_rows and baseline_rows
    for graph in {r["graph"] for r in result.records}:
        graph_rows = [r for r in algorithm_rows if r["graph"] == graph]
        baseline = next(r for r in baseline_rows if r["graph"] == graph)
        # The longest-walk configuration uses no more walks than the baseline.
        longest = max(graph_rows, key=lambda r: r["rounds"])
        assert longest["num_walks"] <= baseline["num_walks"]


def _shape_e10(result):
    for record in result.records:
        # Allow slack for the unit constant in the Theta(.) of Theorem 31.
        assert record["median_relative_error"] <= 2.0 * record["target_epsilon"]


def _shape_e11(result):
    burn_ins = result.column("burn_in_steps")
    biases = [abs(b) for b in result.column("signed_bias")]
    assert burn_ins == sorted(burn_ins)
    # No (or almost no) burn-in gives a strongly biased estimate.
    assert result.records[0]["signed_bias"] < -0.3
    # The longest burn-in reduces the bias magnitude substantially.
    assert biases[-1] < biases[0] * 0.5


def _shape_e12(result):
    errors = result.column("median_relative_error")
    fractions = result.column("fraction_within_epsilon")
    assert errors[-1] <= errors[0]
    assert fractions[-1] >= fractions[0]


def _shape_e13(result):
    rows = {record["budget"]: record for record in result.records}
    single = rows["single_agent_budget"]
    union = rows["union_bound_budget"]
    assert union["rounds"] >= single["rounds"]
    # At the union-bound budget most agents are simultaneously within epsilon.
    assert union["mean_fraction_of_agents_within"] >= single["mean_fraction_of_agents_within"]
    assert union["mean_fraction_of_agents_within"] > 0.8


def _shape_e14(result):
    for record in result.records:
        truth = record["true_density"]
        raw_bias = abs(record["raw_mean_estimate"] - truth)
        corrected_bias = abs(record["corrected_mean_estimate"] - truth)
        if record["miss_probability"] == 0 and record["spurious_rate"] == 0:
            # Noiseless: correction is a no-op.
            assert corrected_bias == raw_bias
        else:
            # Correction never increases the bias (up to small sampling noise).
            assert corrected_bias <= raw_bias + 0.02 * truth


def _shape_e15(result):
    rows = {record["placement"]: record for record in result.records}
    assert rows["clustered_80pct"]["estimate_spread"] > rows["uniform"]["estimate_spread"]
    assert rows["clustered_80pct"]["p90_relative_error"] > rows["uniform"]["p90_relative_error"]
    assert rows["gaussian_blob"]["p90_relative_error"] > rows["uniform"]["p90_relative_error"]


def _shape_e16(result):
    for record in result.records:
        # Walk sampling stays within a small factor of independent sampling.
        assert record["error_ratio"] < 6.0
        assert record["mean_repeat_visit_fraction"] < 0.6
    errors = result.column("token_mean_error")
    assert errors[-1] <= errors[0]


def _shape_e17(result):
    for record in result.records:
        assert abs(record["relative_bias"]) < 0.25


def _shape_e18(result):
    for record in result.records:
        assert record["fraction_correct"] > 0.6
    # The most separated settings (extreme multipliers) are decided best.
    for record in (result.records[0], result.records[-1]):
        assert record["fraction_correct"] > 0.8


def _shape_e19(result):
    rows = {record["movement_model"]: record for record in result.records}
    # Unbiased families stay close to the truth.
    for name in ("uniform_random_walk", "lazy_random_walk", "biased_torus_walk"):
        assert abs(rows[name]["relative_bias"]) < 0.25
    # Collision avoidance lowers the encounter rate (negative bias), and by
    # more than the unbiased families fluctuate.
    assert rows["collision_avoiding_walk"]["relative_bias"] < -0.05


def _shape_e20(result):
    torus_rows = [r for r in result.records if r["topology"] == "torus2d"]
    grid_rows = [r for r in result.records if r["topology"] == "bounded_grid"]
    assert torus_rows and grid_rows
    # Both models stay essentially unbiased at every size.
    for record in torus_rows + grid_rows:
        assert abs(record["relative_bias"]) < 0.15
    # The boundary never makes estimation substantially *better* than the
    # torus; typically it is mildly worse.
    for torus_record, grid_record in zip(
        sorted(torus_rows, key=lambda r: r["side"]), sorted(grid_rows, key=lambda r: r["side"])
    ):
        assert grid_record["empirical_epsilon"] >= 0.75 * torus_record["empirical_epsilon"]


def _shape_e21(result):
    records = sorted(result.records, key=lambda r: r["true_density"], reverse=True)
    rounds = [record["rounds_used"] for record in records]
    # Sparser settings (later in the sorted list) use at least as many rounds.
    assert rounds == sorted(rounds)
    # Accuracy is met where the estimator converged.
    for record in result.records:
        if record["converged_fraction"] >= 0.9:
            assert record["median_relative_error"] <= 1.5 * 0.3


def _shape_e22(result):
    for record in result.records:
        assert record["collective_failure_rate"] <= record["individual_failure_rate"] + 0.15
    # At the most separated settings the collective decision is essentially always right.
    for record in (result.records[0], result.records[-1]):
        assert record["collective_failure_rate"] <= 0.25


#: The qualitative shape of each experiment's claim, checked on its quick
#: seed-0 run (E23 and E24 have no shape check beyond the structural one).
QUICK_SHAPE_CHECKS = {
    "E01": _shape_e01,
    "E02": _shape_e02,
    "E03": _shape_e03,
    "E04": _shape_e04,
    "E05": _shape_e05,
    "E06": _shape_e06,
    "E07": _shape_e07,
    "E08": _shape_e08,
    "E09": _shape_e09,
    "E10": _shape_e10,
    "E11": _shape_e11,
    "E12": _shape_e12,
    "E13": _shape_e13,
    "E14": _shape_e14,
    "E15": _shape_e15,
    "E16": _shape_e16,
    "E17": _shape_e17,
    "E18": _shape_e18,
    "E19": _shape_e19,
    "E20": _shape_e20,
    "E21": _shape_e21,
    "E22": _shape_e22,
}


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
class TestEveryExperimentRuns:
    def test_quick_run_produces_records(self, experiment_id):
        result = run_experiment(experiment_id, quick=True, seed=0)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert len(result.records) > 0
        assert result.claim
        # Every record exposes the declared columns.
        if result.columns:
            for record in result.records:
                for column in result.columns:
                    assert column in record
        # Table rendering never fails.
        assert experiment_id in result.to_table()
        check_shape = QUICK_SHAPE_CHECKS.get(experiment_id)
        if check_shape is not None:
            check_shape(result)


class TestExperimentResultHelpers:
    def test_column_extraction(self):
        result = ExperimentResult("EX", "t", "c", records=[{"a": 1}, {"a": 2}])
        assert result.column("a") == [1, 2]

    def test_add_and_len(self):
        result = ExperimentResult("EX", "t", "c")
        result.add(a=1)
        assert len(result) == 1


class TestQualitativeClaims:
    """Spot-check the qualitative shape of key experiments at quick scale.

    These are deliberately loose (quick configurations are noisy).
    """

    def test_e01_error_decreases_with_rounds(self):
        result = run_experiment("E01", quick=True, seed=11)
        eps = result.column("empirical_epsilon")
        assert eps[-1] < eps[0]

    def test_e03_recollision_decays(self):
        result = run_experiment("E03", quick=True, seed=11)
        probabilities = result.column("recollision_probability")
        assert probabilities[-1] < probabilities[0]
        # Every measurement respects the Lemma 4 bound up to a constant.
        for record in result.records:
            assert record["recollision_probability"] <= 4 * record["lemma4_bound"] + 0.05

    def test_e04_moments_finite_and_positive(self):
        result = run_experiment("E04", quick=True, seed=11)
        for record in result.records:
            assert np.isfinite(record["pair_collision_moment"])
            assert record["lemma11_bound_fitted"] > 0

    def test_e08_ring_grows_fastest(self):
        result = run_experiment("E08", quick=True, seed=11)
        growth = {record["topology"]: record["growth_ratio"] for record in result.records}
        assert growth["ring"] >= growth["torus_3d"]
        assert growth["ring"] >= growth["hypercube"]

    def test_e11_longer_burn_in_reduces_bias(self):
        result = run_experiment("E11", quick=True, seed=11)
        biases = [abs(record["signed_bias"]) for record in result.records]
        assert biases[-1] < biases[0]

    def test_e15_clustering_inflates_spread(self):
        result = run_experiment("E15", quick=True, seed=11)
        spread = {record["placement"]: record["estimate_spread"] for record in result.records}
        assert spread["clustered_80pct"] > spread["uniform"]

    def test_e17_bias_is_small(self):
        result = run_experiment("E17", quick=True, seed=11)
        for record in result.records:
            assert abs(record["relative_bias"]) < 0.25

    def test_e18_separated_densities_decided_correctly(self):
        result = run_experiment("E18", quick=True, seed=11)
        for record in result.records:
            assert record["fraction_correct"] > 0.6


class TestRunAll:
    @pytest.mark.slow
    def test_run_all_quick(self):
        # Smoke-test the aggregate entry point on a subset-sized budget: it
        # must return one result per experiment id.
        results = run_all(quick=True, seed=1)
        assert set(results) == set(EXPERIMENTS)

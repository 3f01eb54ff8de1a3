import math
import warnings

import numpy as np
import pytest

from ecd.dataio import Dataset
from ecd.errors import InvalidConfig
from ecd.exprcore import (
    DIV_EPSILON,
    ExpressionTree,
    Operator,
    const_node,
    evaluate_batch,
    op_node,
    var_node,
)
from ecd.gpsr import PENALTY_MSE, GpConfig, fitness
from ecd.synthbench import (
    GROUND_TRUTH,
    HOLDOUT_SEED,
    MAX_ROWS,
    SynthConfig,
    generate,
    holdout_data,
    run_benchmark,
    structure_score,
)


# Z = B + C/D; protected division stands in for true division, and
# generated rows keep |D| well away from zero.
RESPONSE_TREE = ExpressionTree(
    op_node(Operator.ADD, var_node("B"), op_node(Operator.PDIV, var_node("C"), var_node("D")))
)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()
        SynthConfig(noise_percent=1.0)  # the largest noise: 100% of each cell

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n=1)
        # The cap is checked when the config is built; no draw of that size starts.
        SynthConfig(n=MAX_ROWS)
        for n in (MAX_ROWS + 1, 10**400):
            with pytest.raises(InvalidConfig, match="n must be at most"):
                SynthConfig(n=n)
        for noise in (-0.01, math.inf, math.nan, 1.5, 1e200):
            with pytest.raises(InvalidConfig, match="noise_percent must be nonnegative and finite"):
                SynthConfig(noise_percent=noise)


class TestGenerate:
    def test_columns_and_shape(self):
        data, truth = generate(SynthConfig(n=120, seed=2))
        assert data.names == ("A", "B", "C", "D", "Z")
        assert data.n_rows == 120
        assert truth is GROUND_TRUTH

    def test_noiseless_identities_hold_exactly(self):
        data, _ = generate(SynthConfig(n=300, seed=4, noise_percent=0.0))
        a, b = data.column("A"), data.column("B")
        c, d, z = data.column("C"), data.column("D"), data.column("Z")
        assert np.array_equal(c, a + b)
        assert np.array_equal(d, 2.0 * a + 3.0)
        assert np.array_equal(z, b + c / d)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(d) >= DIV_EPSILON)

    def test_deterministic_and_seed_sensitive(self):
        one, _ = generate(SynthConfig(n=80, seed=9, noise_percent=0.02))
        two, _ = generate(SynthConfig(n=80, seed=9, noise_percent=0.02))
        other, _ = generate(SynthConfig(n=80, seed=10, noise_percent=0.02))
        for name in one.names:
            assert np.array_equal(one.column(name), two.column(name))
        assert not np.array_equal(one.column("A"), other.column("A"))

    def test_source_means_within_three_sigma(self):
        data, _ = generate(SynthConfig(n=500, seed=0))
        n = data.n_rows
        assert abs(data.column("A").mean() - 1.0) < 3 * 2.0 / np.sqrt(n)
        assert abs(data.column("B").mean() - 2.0) < 3 * 1.0 / np.sqrt(n)

    def test_noise_touches_predictors_not_response(self):
        clean, _ = generate(SynthConfig(n=400, seed=5, noise_percent=0.0))
        noisy, _ = generate(SynthConfig(n=400, seed=5, noise_percent=0.05))
        assert np.array_equal(clean.column("Z"), noisy.column("Z"))
        for name in ("A", "B", "C", "D"):
            assert not np.array_equal(clean.column(name), noisy.column(name))

    def test_noise_is_zero_mean_on_derived_column(self):
        data, _ = generate(SynthConfig(n=2000, seed=1, noise_percent=0.05))
        residual = data.column("D") - (2.0 * data.column("A") + 3.0)
        assert residual.std() > 0
        assert abs(residual.mean()) < 4 * residual.std() / np.sqrt(residual.size)

    def test_noise_grows_with_percent(self):
        small, _ = generate(SynthConfig(n=1000, seed=6, noise_percent=0.02))
        large, _ = generate(SynthConfig(n=1000, seed=6, noise_percent=0.05))
        gap_small = np.abs(small.column("C") - (small.column("A") + small.column("B")))
        gap_large = np.abs(large.column("C") - (large.column("A") + large.column("B")))
        assert gap_small.mean() < gap_large.mean()

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(n=1))


class TestGroundTruth:
    def test_documented_relationships(self):
        assert GROUND_TRUTH.response == "Z"
        assert GROUND_TRUTH.direct_parents["Z"] == {"B", "C", "D"}
        assert frozenset({"A", "B"}) in GROUND_TRUTH.equivalent_supports

    def test_response_tree_reproduces_clean_z(self):
        data, _ = generate(SynthConfig(n=200, seed=8))
        assert np.array_equal(evaluate_batch(RESPONSE_TREE, data), data.column("Z"))


class TestHoldout:
    def test_fixed_and_noiseless(self):
        one = holdout_data()
        two = holdout_data()
        assert one.n_rows == 500
        for name in one.names:
            assert np.array_equal(one.column(name), two.column(name))
        assert np.array_equal(one.column("C"), one.column("A") + one.column("B"))

    def test_disjoint_from_sweep_seeds(self):
        sweep, _ = generate(SynthConfig(n=500, seed=0))
        assert HOLDOUT_SEED not in range(1000)
        assert not np.array_equal(holdout_data().column("A"), sweep.column("A"))


class TestStructureScore:
    def test_true_structure_scores_perfectly(self):
        score = structure_score(RESPONSE_TREE, GROUND_TRUTH)
        assert score.support_jaccard == 1.0
        assert score.mse_on_clean == 0.0

    def test_constant_model_scores_zero_overlap(self):
        score = structure_score(ExpressionTree(const_node(2.0)), GROUND_TRUTH)
        assert score.support_jaccard == 0.0
        assert score.mse_on_clean > 0.0

    def test_source_form_counts_as_recovery(self):
        # B + (A+B)/(2A+3) reproduces the response from the source columns
        tree = ExpressionTree(
            op_node(
                Operator.ADD,
                var_node("B"),
                op_node(
                    Operator.PDIV,
                    op_node(Operator.ADD, var_node("A"), var_node("B")),
                    op_node(
                        Operator.ADD,
                        op_node(Operator.MUL, const_node(2.0), var_node("A")),
                        const_node(3.0),
                    ),
                ),
            )
        )
        score = structure_score(tree, GROUND_TRUTH)
        assert score.support_jaccard == 1.0
        assert score.mse_on_clean < 1e-12

    def test_partial_support(self):
        score = structure_score(ExpressionTree(var_node("B")), GROUND_TRUTH)
        assert score.support_jaccard == 0.5

    def test_overflowing_model_scores_without_warning(self):
        # A * 1e200 overflows in the squared error: an ordinary poor score,
        # not a numpy warning, both here and in the fit's fitness.
        tree = ExpressionTree(op_node(Operator.MUL, var_node("A"), const_node(1e200)))
        holdout = holdout_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert structure_score(tree, GROUND_TRUTH, holdout).mse_on_clean == math.inf
            assert fitness(tree, holdout, "Z", 0.001) == (PENALTY_MSE, PENALTY_MSE)

    def test_explicit_holdout_used(self):
        holdout = Dataset({"B": [1.0, 2.0], "Z": [1.0, 2.0]})
        score = structure_score(ExpressionTree(var_node("B")), GROUND_TRUTH, holdout)
        assert score.mse_on_clean == 0.0


@pytest.fixture(scope="module")
def tiny_runs():
    return run_benchmark(
        GpConfig(population_size=30, generations=2, seed=0),
        [SynthConfig(n=60, seed=3, noise_percent=0.0)],
        repeats=2,
    )


class TestRunBenchmark:
    def test_one_row_per_repeat(self, tiny_runs):
        assert len(tiny_runs) == 2
        assert [run.seed for run in tiny_runs] == [3, 4]
        for run in tiny_runs:
            assert run.noise == 0.0
            assert run.best_mse >= 0.0
            assert 0.0 <= run.support_jaccard <= 1.0
            assert run.runtime_sec > 0.0
            assert run.best_expression

    def test_deterministic_apart_from_runtime(self, tiny_runs):
        again = run_benchmark(
            GpConfig(population_size=30, generations=2, seed=0),
            [SynthConfig(n=60, seed=3, noise_percent=0.0)],
            repeats=2,
        )
        for one, two in zip(tiny_runs, again):
            assert one.best_expression == two.best_expression
            assert one.best_mse == two.best_mse
            assert one.support_jaccard == two.support_jaccard

    def test_invalid_repeats(self):
        with pytest.raises(InvalidConfig):
            run_benchmark(GpConfig(), [SynthConfig()], repeats=0)

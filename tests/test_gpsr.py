import csv
import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ecd.dataio import Dataset
from ecd.errors import (
    EmptyDataset,
    EmptyPopulation,
    InvalidConfig,
    MalformedTree,
    MissingVariable,
)
from ecd.exprcore import (
    ExpressionTree,
    Operator,
    const_node,
    node_depth,
    op_node,
    var_node,
)
from ecd.gpsr import (
    HISTORY_COLUMNS,
    MAX_DEPTH,
    MAX_GENERATIONS,
    MAX_INIT_DEPTH,
    MAX_POPULATION,
    PENALTY_MSE,
    PRESETS,
    GpConfig,
    Individual,
    Termination,
    _Pcg64Stream,
    _point_mutation,
    _rng_streams,
    crossover,
    diversity,
    evolve,
    fitness,
    history_to_csv,
    init_population,
    model_document,
    model_from_document,
    mutate,
    preset,
    ranking,
    select,
)
from ecd.synthbench import holdout_data


class StubRng:
    """Scripted stand-in for the draws breeding takes, for forcing rare branches."""

    def __init__(self, randoms=(), integers=(), uniforms=()):
        self.randoms = list(randoms)
        self.ints = list(integers)
        self.uniforms = list(uniforms)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, n):
        return self.ints.pop(0)

    def uniform(self, low, high):
        return self.uniforms.pop(0)


# integers(n) bounds: n == 1 draws nothing, 2**31 + 1 and 3 * 2**30 reject
# about half and a quarter of their 32-bit draws, 2**32 - 1 is the largest.
STREAM_BOUNDS = (1, 2, 3, 2000, 2**31 + 1, 3 * 2**30, 2**32 - 1)


class TestPcg64Stream:
    def test_matches_numpy_generator_draw_for_draw(self):
        for seed in range(12):
            seq = np.random.SeedSequence(seed)
            stream = _Pcg64Stream(seq)
            numpy_rng = np.random.Generator(np.random.PCG64(seq))
            script = random.Random(seed)
            # 3,000 draws take more than one block of raw words.
            for _ in range(3000):
                kind = script.randrange(3)
                if kind == 0:
                    assert stream.random().hex() == numpy_rng.random().hex()
                elif kind == 1:
                    lo = script.uniform(-10.0, 10.0)
                    hi = lo + script.choice((0.0, 1e-3, 7.5, 1e6))
                    assert stream.uniform(lo, hi).hex() == numpy_rng.uniform(lo, hi).hex()
                else:
                    n = script.choice(STREAM_BOUNDS)
                    got = stream.integers(n)
                    assert type(got) is int
                    assert got == numpy_rng.integers(n)

    def test_recorded_draws(self):
        # Fixed from PCG64's raw words alone; this list must not move when
        # numpy's Generator changes how it samples.
        stream = _Pcg64Stream(np.random.SeedSequence(20240501))
        assert stream.random().hex() == "0x1.139b80bfe2ad2p-2"
        assert stream.integers(7) == 2
        assert stream.uniform(-5.0, 5.0).hex() == "-0x1.332b12cc00688p+2"
        assert stream.integers(2**31 + 1) == 368501858
        assert stream.integers(1) == 0
        assert stream.integers(3) == 0
        assert stream.random().hex() == "0x1.5576968847bc8p-2"
        assert stream.integers(2**32 - 1) == 1072621898
        assert stream.integers(3 * 2**30) == 1207088782
        assert stream.uniform(0.5, 2.0).hex() == "0x1.19d8336736a5ap+0"
        assert stream.integers(2000) == 406


def make_data(seed=7, n=80):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 2, n)
    b = rng.normal(1, 1, n)
    return Dataset({"A": a, "B": b, "Z": a + b})


class TestGpConfig:
    def test_defaults_valid(self):
        GpConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"crossover_prob": 1.5},
            {"mutation_prob": -0.1},
            {"tournament_size": 0},
            {"elitism_count": -1},
            {"elitism_count": 10, "population_size": 10},
            {"init_depth_range": (0, 3)},
            {"init_depth_range": (4, 2)},
            {"init_depth_range": (2, 9), "max_depth": 8},
            {"init_depth_range": (2, MAX_INIT_DEPTH + 1), "max_depth": MAX_INIT_DEPTH + 1},
            {"population_size": MAX_POPULATION + 1},
            {"generations": MAX_GENERATIONS + 1},
            {"tournament_size": MAX_POPULATION + 1},
            {"max_depth": MAX_DEPTH + 1},
            {"population_size": 10**400},
            {"parsimony_coeff": -0.001},
            {"fitness_threshold": -1.0},
            {"constant_range": (5.0, -5.0)},
            {"constant_range": (-1e308, 1e308)},
            {"constant_range": (0.0, math.inf)},
            {"constant_range": (math.nan, 1.0)},
            {"parsimony_coeff": math.nan},
            {"parsimony_coeff": math.inf},
            {"fitness_threshold": math.nan},
            {"fitness_threshold": math.inf},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(InvalidConfig):
            GpConfig(**kwargs)

    def test_caps_are_inclusive(self):
        # Only built, never run: a run of this size would not end.
        GpConfig(
            population_size=MAX_POPULATION,
            generations=MAX_GENERATIONS,
            tournament_size=MAX_POPULATION,
            max_depth=MAX_DEPTH,
            init_depth_range=(1, MAX_INIT_DEPTH),
        )

    def test_checked_when_derived(self):
        # preset() and dataclasses.replace build a new config, so they check it too
        with pytest.raises(InvalidConfig, match="population_size must be at least 2"):
            preset("ehr-large", population_size=1)
        with pytest.raises(InvalidConfig, match="max_depth"):
            replace(GpConfig(), max_depth=3)

    def test_presets(self):
        large = preset("synthetic-large")
        assert large.population_size == 50_000
        assert (large.crossover_prob, large.mutation_prob) == (0.5, 0.1)
        ehr = preset("ehr-large", seed=42)
        assert ehr.population_size == 100_000
        assert (ehr.crossover_prob, ehr.mutation_prob) == (0.6, 0.2)
        assert ehr.seed == 42
        assert ehr.generations == PRESETS["ehr-large"].generations == 30
        with pytest.raises(InvalidConfig):
            preset("nonexistent")


class TestInitPopulation:
    def test_size_and_depth_bounds(self):
        cfg = GpConfig(population_size=10, init_depth_range=(2, 5))
        pop = init_population(cfg, {"A"}, _rng_streams(cfg)[0])
        assert len(pop) == 10
        for ind in pop:
            assert 2 <= node_depth(ind.tree.tokens) <= 5
            assert ind.fitness is None

    def test_deterministic(self):
        cfg = GpConfig(population_size=30, seed=5)
        a = init_population(cfg, {"A", "B"}, _rng_streams(cfg)[0])
        b = init_population(cfg, {"B", "A"}, _rng_streams(cfg)[0])
        assert [i.tree.infix for i in a] == [i.tree.infix for i in b]

    def test_depth_one_range(self):
        cfg = GpConfig(population_size=12, init_depth_range=(1, 1), seed=3)
        pop = init_population(cfg, {"A"}, _rng_streams(cfg)[0])
        for ind in pop:
            assert node_depth(ind.tree.tokens) == 1

    def test_constants_within_range(self):
        cfg = GpConfig(population_size=60, constant_range=(-2.0, 2.0), seed=1)
        pop = init_population(cfg, {"A"}, _rng_streams(cfg)[0])
        seen = 0
        for ind in pop:
            for token in ind.tree.tokens:
                if isinstance(token, float):
                    seen += 1
                    assert -2.0 <= token <= 2.0
        assert seen > 0

    def test_needs_variables(self):
        cfg = GpConfig(population_size=4)
        with pytest.raises(InvalidConfig):
            init_population(cfg, set(), _rng_streams(cfg)[0])


class TestFitness:
    def test_exact_reproduction(self):
        data = make_data()
        tree = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        fit, raw = fitness(tree, data, "Z", 0.0)
        assert (fit, raw) == (0.0, 0.0)

    def test_known_mse(self):
        data = Dataset({"A": [0.0, 0.0], "Z": [1.0, 1.0]})
        tree = ExpressionTree(var_node("A"))
        fit, raw = fitness(tree, data, "Z", 0.0)
        assert (fit, raw) == (1.0, 1.0)

    def test_parsimony_term(self):
        data = make_data()
        tree = ExpressionTree(
            op_node(Operator.ADD, var_node("A"), op_node(Operator.MUL, var_node("B"), const_node(1)))
        )
        assert tree.size == 5
        fit, raw = fitness(tree, data, "Z", 0.001)
        assert fit == raw + 0.001 * 5

    def test_overflow_clamped(self):
        data = Dataset({"A": [1.0, 2.0], "Z": [0.0, 0.0]})
        huge = const_node(1e200)
        tree = ExpressionTree(op_node(Operator.MUL, huge, huge))
        fit, raw = fitness(tree, data, "Z", 0.001)
        assert raw == PENALTY_MSE
        assert math.isfinite(fit)
        # Finite predictions whose squared residuals overflow, and an inf - inf
        # residual, are clamped without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, z in (([1e160, 2e160], [0.0, 0.0]), ([1e308, 1.0], [-1e308, 1.0])):
                fit, raw = fitness(ExpressionTree(var_node("A")), Dataset({"A": a, "Z": z}), "Z", 0.0)
                assert (fit, raw) == (PENALTY_MSE, PENALTY_MSE)
            inf = Dataset({"A": [math.inf, 1.0], "Z": [math.inf, 1.0]})
            assert fitness(ExpressionTree(var_node("A")), inf, "Z", 0.0)[1] == PENALTY_MSE

    @pytest.mark.parametrize(
        "value, bits",
        [
            (2.5, ("0x1.e9c79dc519e44p+15", "0x1.e9c79d420775bp+15")),
            (-0.0, ("0x1.ea437c7805b47p+15", "0x1.ea437bf4f345ep+15")),
            (0.1, ("0x1.ea3e0d292f78dp+15", "0x1.ea3e0ca61d0a4p+15")),
        ],
    )
    def test_constant_tree_recorded_bits(self, value, bits):
        # A constant tree is scored as one value per row; recorded when its
        # float was subtracted from the response column directly.
        fit, raw = fitness(ExpressionTree(const_node(value)), holdout_data(), "Z", 0.001)
        assert (fit.hex(), raw.hex()) == bits

    def test_errors(self):
        empty = Dataset({"A": np.array([]), "Z": np.array([])})
        tree = ExpressionTree(var_node("A"))
        with pytest.raises(EmptyDataset):
            fitness(tree, empty, "Z", 0.0)
        with pytest.raises(MissingVariable):
            fitness(ExpressionTree(var_node("Q")), make_data(), "Z", 0.0)


class TestSelect:
    def test_single_individual(self):
        assert select([0], 5, StubRng(integers=[0, 0, 0, 0, 0])) == 0

    def test_global_best_when_all_sampled(self):
        pop = [
            Individual(ExpressionTree(var_node("A")), fitness=3.0),
            Individual(ExpressionTree(var_node("B")), fitness=1.0),
            Individual(ExpressionTree(var_node("C")), fitness=2.0),
        ]
        order, ranks = ranking(pop)
        assert (order, ranks) == ([1, 2, 0], [2, 0, 1])
        assert pop[order[select(ranks, 3, StubRng(integers=[0, 1, 2]))]] is pop[1]

    def test_tie_breaks_on_size_then_index(self):
        small = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        big = ExpressionTree(
            op_node(Operator.ADD, op_node(Operator.MUL, var_node("A"), var_node("B")),
                    op_node(Operator.SUB, var_node("A"), var_node("B")))
        )
        pop = [Individual(big, fitness=1.0), Individual(small, fitness=1.0)]
        order, ranks = ranking(pop)
        assert (order, ranks) == ([1, 0], [1, 0])
        assert pop[order[select(ranks, 2, StubRng(integers=[0, 1]))]] is pop[1]
        twin = ExpressionTree(op_node(Operator.SUB, var_node("A"), var_node("B")))
        pop2 = [Individual(small, fitness=1.0), Individual(twin, fitness=1.0)]
        order, ranks = ranking(pop2)
        assert (order, ranks) == ([0, 1], [0, 1])
        assert pop2[order[select(ranks, 2, StubRng(integers=[1, 0]))]] is pop2[0]

    def test_empty_population(self):
        with pytest.raises(EmptyPopulation):
            select([], 3, StubRng())


def chain_tree(depth):
    node = var_node("A")
    for _ in range(depth):
        node = op_node(Operator.ADD, node, var_node("B"))
    return ExpressionTree(node)


class TestCrossover:
    def test_self_cross_at_root(self):
        tree = chain_tree(2)
        a, b = crossover(tree, tree, 8, StubRng(integers=[0, 0]))
        assert a.infix == tree.infix
        assert b.infix == tree.infix

    def test_leaf_swap_changes_one_leaf(self):
        left = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        right = ExpressionTree(op_node(Operator.MUL, var_node("C"), var_node("D")))
        a, b = crossover(left, right, 8, StubRng(integers=[1, 2]))
        assert a.infix == "(D + B)"
        assert b.infix == "(C * A)"

    def test_oversized_child_replaced_by_parent(self):
        shallow = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        deep = chain_tree(8)
        assert deep.depth == 8
        # swap deep's root into shallow's leaf: depth 9 > 8, child a reverts
        a, b = crossover(shallow, deep, 8, StubRng(integers=[1, 0]))
        assert a is shallow
        assert b.infix == "A"

    def test_random_children_respect_depth(self, rng):
        for _ in range(100):
            p1 = chain_tree(int(rng.integers(1, 8)))
            p2 = chain_tree(int(rng.integers(1, 8)))
            a, b = crossover(p1, p2, 8, rng)
            assert a.depth <= 8 and b.depth <= 8


class TestMutate:
    def test_point_mutation_keeps_leaf_a_leaf(self):
        tree = ExpressionTree(const_node(3))
        # random() >= .5 -> point branch; leaf draw picks variable index 0
        got = mutate(tree, ["A"], 8, (-5.0, 5.0), StubRng(randoms=[0.9], integers=[0, 0]))
        assert got.depth == 0
        assert got.infix == "A"

    def test_point_mutation_swaps_operator(self):
        tree = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        got = mutate(tree, ["A", "B"], 8, (-5.0, 5.0), StubRng(randoms=[0.9], integers=[0, 0]))
        # alternatives to ADD in declaration order: SUB, MUL, PDIV; index 0 -> SUB
        assert got.infix == "(A - B)"

    def test_depth_always_respected(self, rng):
        tree = chain_tree(4)
        for _ in range(200):
            got = mutate(tree, ["A", "B"], 4, (-5.0, 5.0), rng)
            assert got.depth <= 4

    def test_subtree_mode_inserts_shallow_subtree(self):
        tree = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        # random() < .5 -> subtree branch at node 2 (leaf B); grow draws:
        # level0 terminal check fails (0.9), op pick, then two leaves
        stub = StubRng(
            randoms=[0.1, 0.9, 0.1, 0.1],
            integers=[2, 0, 0, 1],
        )
        got = mutate(tree, ["A", "B"], 8, (-5.0, 5.0), stub)
        assert got.infix == "(A + (A + B))"

    @staticmethod
    def old_random_leaf(rng, variables, constant_range):
        # The leaf draw point mutation made before it drew through _random_tree.
        pick = rng.integers(len(variables) + 1)
        if pick == len(variables):
            return rng.uniform(*constant_range)
        return variables[pick]

    @pytest.mark.parametrize("make_rng", [
        np.random.default_rng,
        lambda seed: _Pcg64Stream(np.random.SeedSequence(seed)),
    ])
    def test_point_mutation_draws_a_leaf_as_random_leaf_did(self, make_rng):
        constants = 0
        for seed in range(300):
            variables = ["A", "B", "C"][: 1 + seed % 3]
            constant_range = (-5.0, 5.0) if seed % 2 else (0.25, 0.5)
            new, old = make_rng(seed), make_rng(seed)
            # A one-leaf tree: the node index draw, integers(1), draws nothing.
            got = _point_mutation(ExpressionTree(const_node(1.5)), variables, constant_range, new)
            expected = self.old_random_leaf(old, variables, constant_range)
            assert got.tokens == (expected,) and type(got.tokens[0]) is type(expected)
            constants += isinstance(expected, float)
            # Both took the same draws, so the streams go on alike.
            assert new.random() == old.random()
            assert new.integers(2**32 - 1) == old.integers(2**32 - 1)
        assert 50 < constants < 250


class TestDiversity:
    def test_extremes(self):
        same = ExpressionTree(var_node("A"))
        other = ExpressionTree(var_node("B"))
        assert diversity([Individual(same)] * 4) == 0.0
        assert diversity([Individual(same), Individual(other)]) == 1.0
        assert diversity([Individual(same)]) == 0.0

    def test_formula(self):
        trees = [ExpressionTree(const_node(v)) for v in range(5)]
        pop = [Individual(trees[i % 5]) for i in range(10)]
        assert diversity(pop) == pytest.approx(4 / 9)

    def test_empty(self):
        with pytest.raises(EmptyPopulation):
            diversity([])


@pytest.fixture(scope="module")
def constant_run():
    rng = np.random.default_rng(7)
    data = Dataset(
        {"A": rng.normal(0, 2, 60), "B": rng.normal(1, 1, 60), "Z": np.ones(60)}
    )
    return evolve(data, "Z", GpConfig(population_size=400, generations=25, seed=0))


class TestEvolve:
    def test_constant_response_reaches_zero(self, constant_run):
        assert constant_run.best.raw_mse == 0.0

    def test_stagnation_stop(self, constant_run):
        # exact reproduction leaves fitness at the parsimony floor, which the
        # default threshold of 0.0 never reaches, so the flat streak ends it
        assert constant_run.terminated_by is Termination.STAGNATION
        assert len(constant_run.history) < 25

    def test_deterministic(self):
        data = make_data()
        cfg = GpConfig(population_size=200, generations=8, seed=11)
        r1 = evolve(data, "Z", cfg)
        r2 = evolve(data, "Z", cfg)
        assert r1.best.tree.infix == r2.best.tree.infix
        assert r1.best.fitness == r2.best.fitness
        assert r1.history == r2.history
        assert r1.terminated_by == r2.terminated_by

    def test_fitness_threshold_stop(self):
        data = make_data()
        cfg = GpConfig(
            population_size=400, generations=30, seed=0,
            parsimony_coeff=0.0, fitness_threshold=1e-9,
        )
        res = evolve(data, "Z", cfg)
        assert res.terminated_by is Termination.FITNESS_THRESHOLD
        assert res.best.fitness <= 1e-9
        assert len(res.history) < 30

    def test_history_invariants(self):
        data = make_data()
        cfg = GpConfig(population_size=150, generations=10, seed=2)
        res = evolve(data, "Z", cfg)
        assert len(res.history) <= 10
        mins = [s.min_fitness for s in res.history]
        # elitism >= 1 makes the per-generation minimum non-increasing
        assert all(a >= b for a, b in zip(mins, mins[1:]))
        assert res.best.fitness == min(mins)
        for stats in res.history:
            assert stats.min_fitness <= stats.mean_fitness
            assert 0.0 <= stats.diversity <= 1.0
            assert stats.best_expression

    def test_errors(self):
        data = make_data()
        with pytest.raises(MissingVariable):
            evolve(data, "Q", GpConfig(population_size=10, generations=1))
        one_row = Dataset({"A": [1.0], "Z": [2.0]})
        with pytest.raises(EmptyDataset):
            evolve(one_row, "Z", GpConfig(population_size=10, generations=1))
        no_predictors = Dataset({"Z": [1.0, 2.0]})
        with pytest.raises(InvalidConfig):
            evolve(no_predictors, "Z", GpConfig(population_size=10, generations=1))


class TestHistoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        data = make_data()
        res = evolve(data, "Z", GpConfig(population_size=100, generations=4, seed=0))
        path = tmp_path / "history.csv"
        history_to_csv(res.history, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(HISTORY_COLUMNS)
        assert len(rows) == len(res.history) + 1
        for row, stats in zip(rows[1:], res.history):
            assert int(row[0]) == stats.generation
            assert float(row[1]) == stats.min_fitness
            assert float(row[2]) == stats.mean_fitness
            assert float(row[3]) == stats.diversity
            assert row[4] == stats.best_expression


class TestModelDocument:
    def test_round_trip(self, tmp_path):
        data = make_data()
        cfg = GpConfig(population_size=100, generations=4, seed=0)
        res = evolve(data, "Z", cfg)
        doc = model_document(res.best, ["A", "B"], cfg)
        text = json.dumps(doc, indent=2, sort_keys=True)
        loaded = json.loads(text)
        tree, variables = model_from_document(loaded)
        assert tree.infix == res.best.tree.infix
        assert variables == ("A", "B")
        assert loaded["seed"] == 0
        assert loaded["config"]["population_size"] == 100
        assert set(loaded["operators"]) == {"add", "sub", "mul", "pdiv"}

    def test_rejects_bad_documents(self):
        with pytest.raises(MalformedTree):
            model_from_document({"variables": ["A"]})
        with pytest.raises(MissingVariable):
            model_from_document({"tree": {"var": "Q"}, "variables": ["A"]})

    def test_rejects_repeated_variables(self):
        with pytest.raises(MalformedTree, match="repeat a name"):
            model_from_document({"tree": {"var": "A"}, "variables": ["A", "B", "C", "D", "B"]})

    def test_rejects_other_schema_version_and_unknown_operators(self):
        doc = {"tree": {"var": "A"}, "variables": ["A"]}
        assert model_from_document(dict(doc, schema_version=1, operators=["add", "pdiv"]))
        for bad in ({"schema_version": 2}, {"schema_version": "1"}, {"operators": ["pow"]},
                    {"operators": [["add"]]}, {"operators": {"add": 1}}):
            with pytest.raises(MalformedTree):
                model_from_document(dict(doc, **bad))

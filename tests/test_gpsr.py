import csv
import json
import math
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecd import gpsr
from ecd.dataio import Dataset
from ecd.errors import (
    EmptyDataset,
    EmptyPopulation,
    InvalidConfig,
    MalformedTree,
    MissingColumn,
    MissingVariable,
)
from ecd.exprcore import (
    OPERATORS,
    ExpressionTree,
    Operator,
    const_node,
    evaluate_batch,
    node_depth,
    op_node,
    var_node,
)
from ecd.gpsr import (
    ENTRANT_BLOCK,
    GROW_TERMINAL_PROB,
    HISTORY_COLUMNS,
    MAX_DEPTH,
    MAX_GENERATIONS,
    MAX_INIT_DEPTH,
    MAX_POPULATION,
    PENALTY_MSE,
    PRESETS,
    SUBTREE_TRIES,
    GpConfig,
    Individual,
    Termination,
    _point_mutation,
    breed,
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


def init_draws(cfg):
    """The Generator evolve initializes with: PCG64 of SeedSequence(seed)'s first child."""
    return np.random.Generator(np.random.PCG64(*np.random.SeedSequence(cfg.seed).spawn(1)))


def layout_trees(draws, full, depth, stop_from, names, constant_range):
    """Random trees rebuilt from the README's layout: each block of template
    slots draws operators, leaf picks, stops and constants, and each tree
    walks its full template in preorder, skipping what lies under a leaf."""
    slots = 2 ** (depth + 1) - 1
    rows = max(1, gpsr.TREE_SLOT_BLOCK // slots)
    trees = []
    for start in range(0, len(full), rows):
        block = full[start : start + rows]
        shape = (len(block), slots)
        ops = draws.integers(0, len(OPERATORS), shape)
        picks = draws.integers(0, len(names) + 1, shape)
        stops = draws.random(shape)
        constants = draws.uniform(*constant_range, shape)
        for r, is_full in enumerate(block):
            tokens = []

            def walk(slot, level):
                grow_stop = not is_full and level >= stop_from and stops[r, slot] < GROW_TERMINAL_PROB
                if level == depth or grow_stop:
                    pick = picks[r, slot]
                    tokens.append(float(constants[r, slot]) if pick == len(names) else names[pick])
                else:
                    tokens.append(OPERATORS[ops[r, slot]])
                    walk(slot + 1, level + 1)
                    walk(slot + 2 ** (depth - level), level + 1)

            walk(0, 0)
            trees.append(tuple(tokens))
    return trees


def layout_mutants(trees, names, max_depth, constant_range, draws, outcomes):
    """mutate rebuilt from the README's layout; counts each outcome kind."""
    mutants = list(trees)
    subtree = draws.random(len(trees)) < 0.5
    pending = [j for j in range(len(trees)) if subtree[j]]
    for _ in range(SUBTREE_TRIES):
        if not pending:
            break
        points = draws.integers(0, [mutants[j].size for j in pending])
        fresh = layout_trees(draws, [False] * len(pending), 2, 0, names, constant_range)
        oversized = []
        for j, point, replacement in zip(pending, points, fresh):
            tokens = mutants[j].tokens
            child = ExpressionTree(tokens[:point] + replacement + tokens[mutants[j].ends[point] :])
            if child.depth <= max_depth:
                mutants[j] = child
                outcomes["subtree"] += 1
            else:
                outcomes["retry"] += 1
                oversized.append(j)
        pending = oversized
    outcomes["fallback"] += len(pending)
    pointwise = sorted([j for j in range(len(trees)) if not subtree[j]] + pending)
    points = draws.integers(0, [mutants[j].size for j in pointwise])
    alternatives = draws.integers(0, len(OPERATORS) - 1, len(pointwise))
    leaves = layout_trees(draws, [True] * len(pointwise), 0, 0, names, constant_range)
    for j, point, alternative, (leaf,) in zip(pointwise, points, alternatives, leaves):
        tokens = list(mutants[j].tokens)
        if isinstance(tokens[point], Operator):
            tokens[point] = [op for op in OPERATORS if op is not tokens[point]][alternative]
        else:
            tokens[point] = leaf
        mutants[j] = ExpressionTree(tuple(tokens))
        outcomes["point"] += 1
    return mutants


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
            {"constant_range": (-5, 10**400)},  # float(10**400) overflows
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
        pop = init_population(cfg, {"A"}, init_draws(cfg))
        assert len(pop) == 10
        for ind in pop:
            assert 2 <= node_depth(ind.tree.tokens) <= 5
            assert ind.fitness is None

    def test_deterministic(self):
        cfg = GpConfig(population_size=30, seed=5)
        a = init_population(cfg, {"A", "B"}, init_draws(cfg))
        b = init_population(cfg, {"B", "A"}, init_draws(cfg))
        assert [i.tree.infix for i in a] == [i.tree.infix for i in b]

    def test_depth_one_range(self):
        cfg = GpConfig(population_size=12, init_depth_range=(1, 1), seed=3)
        pop = init_population(cfg, {"A"}, init_draws(cfg))
        for ind in pop:
            assert node_depth(ind.tree.tokens) == 1

    def test_constants_within_range(self):
        cfg = GpConfig(population_size=60, constant_range=(-2.0, 2.0), seed=1)
        pop = init_population(cfg, {"A"}, init_draws(cfg))
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
            init_population(cfg, set(), init_draws(cfg))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        population_size=st.integers(2, 40),
        lo=st.integers(1, 4),
        span=st.integers(0, 4),
        n_vars=st.integers(1, 3),
        constant_range=st.sampled_from([(-5.0, 5.0), (0.25, 0.5), (-1e300, 1e300), (2.0, 2.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Fewer individuals than 2 x the 7 depths: most depth groups are empty.
    @example(population_size=3, lo=2, span=6, n_vars=2, constant_range=(-5.0, 5.0), seed=1)
    def test_ramped_half_and_half(self, population_size, lo, span, n_vars, constant_range, seed):
        depths = range(lo, lo + span + 1)
        cfg = GpConfig(
            population_size=population_size, init_depth_range=(lo, depths[-1]),
            max_depth=max(8, depths[-1]), constant_range=constant_range,
        )
        names = ["A", "B", "C"][:n_vars]
        pop = init_population(cfg, names, np.random.default_rng(seed))
        assert len(pop) == population_size
        for i, ind in enumerate(pop):
            target, tree = depths[(i // 2) % len(depths)], ind.tree
            if i % 2 == 0:
                assert (tree.depth, tree.size) == (target, 2 ** (target + 1) - 1)
            else:
                assert lo <= tree.depth <= target
            for token in tree.tokens:
                if isinstance(token, float):
                    assert constant_range[0] <= token <= constant_range[1]
                else:
                    assert isinstance(token, Operator) or token in names
            assert ind.fitness is None
        again = init_population(cfg, names, np.random.default_rng(seed))
        assert [ind.tree for ind in again] == [ind.tree for ind in pop]

    @pytest.mark.parametrize("block", [gpsr.TREE_SLOT_BLOCK, 40])
    def test_generation_0_follows_the_documented_layout(self, monkeypatch, block):
        # At 40 slots a block holds five depth-2 trees and one depth-5 tree.
        monkeypatch.setattr(gpsr, "TREE_SLOT_BLOCK", block)
        cfg = GpConfig(population_size=37, init_depth_range=(2, 5), constant_range=(-2.0, 3.0), seed=4)
        names = ["A", "B", "C"]
        got = init_population(cfg, names, init_draws(cfg))
        draws, expected = init_draws(cfg), [None] * 37
        for j, depth in enumerate(range(2, 6)):
            members = [i for i in range(37) if (i // 2) % 4 == j]
            full = [i % 2 == 0 for i in members]
            for i, tokens in zip(members, layout_trees(draws, full, depth, 2, names, (-2.0, 3.0))):
                expected[i] = tokens
        assert [ind.tree.tokens for ind in got] == expected


class TestFitness:
    def test_exact_reproduction(self):
        data = make_data()
        tree = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        ((fit, raw),) = fitness([tree], data, "Z", 0.0)
        assert (fit, raw) == (0.0, 0.0)

    def test_known_mse(self):
        data = Dataset({"A": [0.0, 0.0], "Z": [1.0, 1.0]})
        tree = ExpressionTree(var_node("A"))
        ((fit, raw),) = fitness([tree], data, "Z", 0.0)
        assert (fit, raw) == (1.0, 1.0)

    def test_parsimony_term(self):
        data = make_data()
        tree = ExpressionTree(
            op_node(Operator.ADD, var_node("A"), op_node(Operator.MUL, var_node("B"), const_node(1)))
        )
        assert tree.size == 5
        ((fit, raw),) = fitness([tree], data, "Z", 0.001)
        assert fit == raw + 0.001 * 5

    def test_overflow_clamped(self):
        data = Dataset({"A": [1.0, 2.0], "Z": [0.0, 0.0]})
        huge = const_node(1e200)
        tree = ExpressionTree(op_node(Operator.MUL, huge, huge))
        ((fit, raw),) = fitness([tree], data, "Z", 0.001)
        assert raw == PENALTY_MSE
        assert math.isfinite(fit)
        # Finite predictions whose squared residuals overflow, and an inf - inf
        # residual, are clamped without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, z in (([1e160, 2e160], [0.0, 0.0]), ([1e308, 1.0], [-1e308, 1.0])):
                ((fit, raw),) = fitness([ExpressionTree(var_node("A"))], Dataset({"A": a, "Z": z}), "Z", 0.0)
                assert (fit, raw) == (PENALTY_MSE, PENALTY_MSE)
            inf = Dataset({"A": [math.inf, 1.0], "Z": [math.inf, 1.0]})
            assert fitness([ExpressionTree(var_node("A"))], inf, "Z", 0.0)[0][1] == PENALTY_MSE

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
        ((fit, raw),) = fitness([ExpressionTree(const_node(value))], holdout_data(), "Z", 0.001)
        assert (fit.hex(), raw.hex()) == bits

    def test_errors(self):
        empty = Dataset({"A": np.array([]), "Z": np.array([])})
        tree = ExpressionTree(var_node("A"))
        assert fitness([], make_data(), "Z", 0.0) == []
        for trees in ([], [tree]):
            with pytest.raises(EmptyDataset):
                fitness(trees, empty, "Z", 0.0)
            with pytest.raises(MissingColumn):
                fitness(trees, make_data(), "Q", 0.0)
        with pytest.raises(MissingVariable):
            fitness([tree, ExpressionTree(var_node("Q"))], make_data(), "Z", 0.0)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_matches_the_per_tree_formula_across_blocks(self, monkeypatch, rows):
        data = make_data(n=50)
        monkeypatch.setattr(gpsr, "SCORE_BLOCK_BYTES", rows * 8 * data.n_rows)
        cfg = GpConfig(population_size=20, seed=3)
        trees = [ind.tree for ind in init_population(cfg, ["A", "B"], init_draws(cfg))]
        huge = const_node(1e200)
        trees += [
            ExpressionTree(const_node(-0.5)),  # a constant, broadcast by evaluate_batch
            ExpressionTree(op_node(Operator.MUL, huge, op_node(Operator.ADD, var_node("A"), huge))),
            ExpressionTree(var_node("B")),  # the data column itself
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fitness(trees, data, "Z", 0.001)
        assert len(got) == len(trees) == 23
        for tree, (fit, raw) in zip(trees, got):
            # One tree as fitness scored it before blocks: np.mean's sum and division.
            with np.errstate(all="ignore"):
                residuals = evaluate_batch(tree, data) - data.column("Z")
                expected = float(np.add.reduce(residuals * residuals)) / len(residuals)
            if not math.isfinite(expected):
                expected = PENALTY_MSE
            assert (fit.hex(), raw.hex()) == ((expected + 0.001 * tree.size).hex(), expected.hex())
        assert got[-2][1] == PENALTY_MSE


class TestSelect:
    def test_single_individual(self):
        assert select([0], [[0, 0, 0, 0, 0]]) == [0]

    def test_global_best_when_all_sampled(self):
        pop = [
            Individual(ExpressionTree(var_node("A")), fitness=3.0),
            Individual(ExpressionTree(var_node("B")), fitness=1.0),
            Individual(ExpressionTree(var_node("C")), fitness=2.0),
        ]
        order, ranks = ranking(pop)
        assert (order, ranks) == ([1, 2, 0], [2, 0, 1])
        assert [pop[order[r]] for r in select(ranks, [[0, 1, 2], [0, 2, 2]])] == [pop[1], pop[2]]

    def test_tie_breaks_on_size_then_index(self):
        small = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        big = ExpressionTree(
            op_node(Operator.ADD, op_node(Operator.MUL, var_node("A"), var_node("B")),
                    op_node(Operator.SUB, var_node("A"), var_node("B")))
        )
        pop = [Individual(big, fitness=1.0), Individual(small, fitness=1.0)]
        order, ranks = ranking(pop)
        assert (order, ranks) == ([1, 0], [1, 0])
        assert pop[order[select(ranks, [[0, 1]])[0]]] is pop[1]
        twin = ExpressionTree(op_node(Operator.SUB, var_node("A"), var_node("B")))
        pop2 = [Individual(small, fitness=1.0), Individual(twin, fitness=1.0)]
        order, ranks = ranking(pop2)
        assert (order, ranks) == ([0, 1], [0, 1])
        assert pop2[order[select(ranks, [[1, 0]])[0]]] is pop2[0]

    def test_empty_population(self):
        with pytest.raises(EmptyPopulation):
            select([], [[0, 0, 0]])


def chain_tree(depth):
    node = var_node("A")
    for _ in range(depth):
        node = op_node(Operator.ADD, node, var_node("B"))
    return ExpressionTree(node)


class TestCrossover:
    def test_self_cross_at_root(self):
        tree = chain_tree(2)
        a, b = crossover(tree, tree, 8, 0, 0)
        assert a.infix == tree.infix
        assert b.infix == tree.infix

    def test_leaf_swap_changes_one_leaf(self):
        left = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        right = ExpressionTree(op_node(Operator.MUL, var_node("C"), var_node("D")))
        a, b = crossover(left, right, 8, 1, 2)
        assert a.infix == "(D + B)"
        assert b.infix == "(C * A)"

    def test_oversized_child_replaced_by_parent(self):
        shallow = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        deep = chain_tree(8)
        assert deep.depth == 8
        # swap deep's root into shallow's leaf: depth 9 > 8, child a reverts
        a, b = crossover(shallow, deep, 8, 1, 0)
        assert a is shallow
        assert b.infix == "A"

    def test_random_children_respect_depth(self, rng):
        for _ in range(100):
            p1 = chain_tree(int(rng.integers(1, 8)))
            p2 = chain_tree(int(rng.integers(1, 8)))
            a, b = crossover(p1, p2, 8, int(rng.integers(p1.size)), int(rng.integers(p2.size)))
            assert a.depth <= 8 and b.depth <= 8


class TestMutate:
    def test_point_mutation_keeps_leaf_a_leaf(self):
        tree = ExpressionTree(const_node(3))
        got = _point_mutation(tree, 0, 0, ("A",))
        assert got.depth == 0
        assert got.infix == "A"

    def test_point_mutation_swaps_operator(self):
        tree = ExpressionTree(op_node(Operator.ADD, var_node("A"), var_node("B")))
        got = _point_mutation(tree, 0, 0, ("A",))
        # alternatives to ADD in declaration order: SUB, MUL, PDIV; index 0 -> SUB
        assert got.infix == "(A - B)"

    def test_depth_always_respected(self, rng):
        tree = chain_tree(4)
        got = mutate([tree] * 200, ["A", "B"], 4, (-5.0, 5.0), rng)
        assert len(got) == 200
        assert all(child.depth <= 4 for child in got)

    def test_subtree_mode_inserts_shallow_subtree(self, rng):
        # Each mutant is its tree with one subtree swapped for a grow tree of
        # depth <= 2 (a leaf's point mutation is one too), or with one
        # operator swapped for another.
        tree = ExpressionTree(op_node(Operator.ADD, chain_tree(2).tokens, var_node("C")))

        def replaces_a_subtree(child):
            for i, end in enumerate(tree.ends):
                tail = child.size - (tree.size - end)
                if child.tokens[:i] == tree.tokens[:i] and child.tokens[tail:] == tree.tokens[end:]:
                    try:
                        if ExpressionTree(child.tokens[i:tail]).depth <= 2:
                            return True
                    except MalformedTree:
                        pass
            return False

        kinds = Counter()
        for child in mutate([tree] * 300, ["A", "B", "C"], 8, (-5.0, 5.0), rng):
            if replaces_a_subtree(child):
                kinds["subtree"] += 1
            else:
                (point,) = [i for i, (a, b) in enumerate(zip(tree.tokens, child.tokens)) if a != b]
                assert child.size == tree.size and isinstance(child.tokens[point], Operator)
                kinds["operator"] += 1
        assert kinds["subtree"] > 100 and kinds["operator"] > 20

    def test_mutates_nothing_when_given_nothing(self, rng):
        state = rng.bit_generator.state
        assert mutate([], ["A"], 8, (-5.0, 5.0), rng) == []
        assert rng.bit_generator.state == state


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

    def test_threshold_met_in_generation_0_spawns_one_stream(self, monkeypatch):
        # Each breeding stream is spawned as its generation starts, so a fit
        # that stops in generation 0 spawns only the initialization stream.
        spawned = []

        class RecordingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", RecordingSeedSequence)
        cfg = GpConfig(population_size=8, generations=1000, fitness_threshold=PENALTY_MSE)
        res = evolve(make_data(), "Z", cfg)
        assert res.terminated_by is Termination.FITNESS_THRESHOLD
        assert len(res.history) == 1
        assert sum(spawned) == 1

    @pytest.mark.parametrize("population_size", [2, 3, 4])
    @pytest.mark.parametrize("elitism_count", [0, 1])
    def test_each_pair_crosses_once_and_keeps_both_children(
        self, monkeypatch, population_size, elitism_count
    ):
        calls, generations = [], []
        real_crossover, real_breed = gpsr.crossover, gpsr.breed

        def recording_crossover(*args):
            calls.append(real_crossover(*args))
            return calls[-1]

        def recording_breed(*args):
            start = len(calls)
            offspring = real_breed(*args)
            generations.append((calls[start:], offspring))
            return offspring

        monkeypatch.setattr(gpsr, "crossover", recording_crossover)
        monkeypatch.setattr(gpsr, "breed", recording_breed)
        cfg = GpConfig(
            population_size=population_size, generations=4, elitism_count=elitism_count,
            crossover_prob=1.0, mutation_prob=0.0, init_depth_range=(1, 2), seed=5,
        )
        res = evolve(make_data(), "Z", cfg)
        assert len(generations) == len(res.history) - 1 == 3
        m = population_size - elitism_count
        for made, offspring in generations:
            assert len(offspring) == population_size
            assert len(made) == m // 2
            bred = offspring[elitism_count:]
            for k, (child_a, child_b) in enumerate(made):
                assert bred[2 * k] is child_a and bred[2 * k + 1] is child_b

    def test_entrants_are_drawn_in_blocks(self, monkeypatch):
        shapes = []

        class RecordingGenerator(np.random.Generator):
            def integers(self, low, high=None, size=None, *args, **kwargs):
                if isinstance(size, tuple) and size[1] == 3000:  # not a tree template's slots
                    shapes.append(size)
                return super().integers(low, high, size, *args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
        cfg = GpConfig(population_size=3000, tournament_size=3000, generations=2, mutation_prob=0.0)
        evolve(make_data(n=20), "Z", cfg)
        rows = ENTRANT_BLOCK // 3000
        assert shapes == [(rows, 3000)] * (2999 // rows) + [(2999 % rows, 3000)]
        assert all(r * k <= ENTRANT_BLOCK for r, k in shapes)

    LAYOUT_CONFIG = GpConfig(
        population_size=41, tournament_size=3, elitism_count=2,
        crossover_prob=0.6, mutation_prob=0.3, seed=9,
    )

    def test_breed_draws_in_the_documented_layout(self):
        outcomes = self.check_breed_layout(self.LAYOUT_CONFIG)
        assert outcomes["subtree"] > 0 and outcomes["point"] > 0

    def test_mutation_retries_and_falls_back_in_the_documented_layout(self):
        # Every slot mutates, and at max_depth 1 a depth-2 replacement often
        # does not fit, so some trees retry and some fall back to point mutation.
        cfg = replace(
            self.LAYOUT_CONFIG, population_size=301, mutation_prob=1.0, max_depth=1, init_depth_range=(1, 1)
        )
        outcomes = self.check_breed_layout(cfg)
        assert outcomes["retry"] > 0 and outcomes["fallback"] > 0

    @staticmethod
    def check_breed_layout(cfg):
        """breed's next generation against one rebuilt from the README's
        layout; returns the rebuilt mutations' outcome counts."""
        names = ["A", "B"]
        population = [
            Individual(ind.tree, fitness=float(i % 7))
            for i, ind in enumerate(init_population(cfg, names, init_draws(cfg)))
        ]
        order, ranks = ranking(population)
        got = breed(population, order, ranks, cfg, names, np.random.SeedSequence(9).spawn(2)[1])

        # Generation 1's stream draws entrants, pair flags, points, mutation
        # flags, then mutate's plan.
        draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9).spawn(2)[1]))
        size = cfg.population_size
        m = size - 2
        entrants = draws.integers(0, size, (m, 3))
        trees = [population[min(row, key=ranks.__getitem__)].tree for row in entrants]
        pairs = np.flatnonzero(draws.random(m // 2) < cfg.crossover_prob)
        points = draws.integers(0, [trees[j].size for k in pairs for j in (2 * k, 2 * k + 1)])
        for k, a, b in zip(pairs, points[::2], points[1::2]):
            trees[2 * k], trees[2 * k + 1] = crossover(trees[2 * k], trees[2 * k + 1], cfg.max_depth, a, b)
        slots = np.flatnonzero(draws.random(m) < cfg.mutation_prob)
        outcomes = Counter()
        mutants = layout_mutants([trees[j] for j in slots], names, cfg.max_depth, cfg.constant_range, draws, outcomes)
        for j, tree in zip(slots, mutants):
            trees[j] = tree
        assert 0 < len(pairs) < m // 2
        assert got == [population[i].tree for i in order[:2]] + trees
        return outcomes

    def test_each_generation_scores_its_new_trees_in_one_call(self, monkeypatch):
        populations, scored = [], []
        real_init, real_breed, real_fitness = gpsr.init_population, gpsr.breed, gpsr.fitness

        def recording_init(*args):
            populations.append([ind.tree for ind in real_init(*args)])
            return [Individual(tree) for tree in populations[-1]]

        def recording_breed(*args):
            offspring = real_breed(*args)
            populations.append(list(offspring))
            return offspring

        def recording_fitness(trees, *args):
            scored.append(list(trees))
            return real_fitness(trees, *args)

        monkeypatch.setattr(gpsr, "init_population", recording_init)
        monkeypatch.setattr(gpsr, "breed", recording_breed)
        monkeypatch.setattr(gpsr, "fitness", recording_fitness)
        res = evolve(make_data(), "Z", GpConfig(population_size=60, generations=6, seed=3))
        assert len(scored) == len(populations) == len(res.history) == 6
        seen = set()
        for population, trees in zip(populations, scored):
            # The generation's distinct trees not scored before, in population order.
            fresh = [t for t in population if t.tokens not in seen and not seen.add(t.tokens)]
            assert [t.tokens for t in trees] == [t.tokens for t in fresh]
            assert len(fresh) < len(population) or population is populations[0]

    def test_each_distinct_tree_gets_one_frozen_individual(self, monkeypatch):
        built, scored = [], []
        real_fitness = gpsr.fitness

        class RecordingIndividual(Individual):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def recording_fitness(trees, *args):
            scored.extend(trees)
            return real_fitness(trees, *args)

        monkeypatch.setattr(gpsr, "Individual", RecordingIndividual)
        monkeypatch.setattr(gpsr, "fitness", recording_fitness)
        cfg = GpConfig(population_size=60, generations=6, seed=3)
        res = evolve(make_data(), "Z", cfg)
        # init_population's unscored records, then one per tree scored, as it is scored.
        unscored, records = built[: cfg.population_size], built[cfg.population_size :]
        assert all(ind.fitness is None for ind in unscored)
        assert [ind.tree for ind in records] == scored
        assert len({ind.tree.tokens for ind in records}) == len(records)
        assert any(res.best is ind for ind in records)
        with pytest.raises(FrozenInstanceError):
            res.best.fitness = 0.0

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
        path.write_text(history_to_csv(res.history), encoding="utf-8", newline="")
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

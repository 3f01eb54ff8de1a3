"""Genetic-programming symbolic regression over expression trees.

The generation is the unit of work. Generation 0 is ramped half-and-half,
drawn depth by depth. Each later generation keeps its elitism_count best and
breeds the rest: each offspring slot's parent wins a rank tournament, slots
2k and 2k + 1 pair up for a subtree crossover that keeps both children, and
each slot may mutate. A generation's new trees are scored in one fitness
call: MSE plus parsimony over exprcore.evaluate_batch's output.

All randomness flows from one seed: numpy's SeedSequence spawns one child for
initialization and one as each breeding generation starts, and each child
seeds a Generator(PCG64(child)) that draws arrays: init_population's trees,
then breed's tournaments, pair flags, crossover points, mutation flags and
mutate's plans, in the order their docstrings list them. _random_trees draws
every random tree. Runs are reproducible across platforms and restarts.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .dataio import Dataset
from .errors import (
    EmptyDataset,
    EmptyPopulation,
    InvalidConfig,
    MalformedTree,
    MissingVariable,
)
from .exprcore import (
    OPERATORS,
    ExpressionTree,
    Operator,
    Tokens,
    dependency_set,
    evaluate_batch,
    node_depth,
    replace_at,
    subtree_at,
    tree_from_json,
    tree_to_json,
)

# Substitute fitness for trees whose predictions overflow or degenerate;
# large enough to lose every tournament, finite so orderings stay total.
PENALTY_MSE = 1e300

# Probability that grow-mode tree generation stops at a terminal early.
GROW_TERMINAL_PROB = 0.3

STAGNATION_WINDOW = 10
STAGNATION_EPS = 1e-12

MODEL_SCHEMA_VERSION = 1

# Upper caps on GpConfig's counts, far above the largest preset (ehr-large:
# population 100,000, 30 generations, depth 8), so that a mistyped count is
# refused when the config is built instead of starting a loop or an
# allocation that never ends. tournament_size shares MAX_POPULATION,
# elitism_count is held below population_size, and init_depth_range within
# max_depth and MAX_INIT_DEPTH: a full tree of depth 20 has 2,097,151 nodes.
MAX_POPULATION = 10_000_000
MAX_GENERATIONS = 1_000_000
MAX_DEPTH = 1_000
MAX_INIT_DEPTH = 20


@dataclass(frozen=True)
class GpConfig:
    """Hyperparameters for one evolution run, checked when built (so also by
    preset and dataclasses.replace). Defaults are desk-scale."""

    population_size: int = 2000
    generations: int = 30
    crossover_prob: float = 0.5
    mutation_prob: float = 0.1
    tournament_size: int = 7
    max_depth: int = 8
    init_depth_range: tuple[int, int] = (2, 5)
    parsimony_coeff: float = 0.001
    elitism_count: int = 1
    constant_range: tuple[float, float] = (-5.0, 5.0)
    seed: int = 0
    fitness_threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "init_depth_range", tuple(self.init_depth_range))
        object.__setattr__(self, "constant_range", tuple(self.constant_range))
        for name, lo, hi in (
            ("population_size", 2, MAX_POPULATION),
            ("generations", 1, MAX_GENERATIONS),
            ("tournament_size", 1, MAX_POPULATION),
            ("max_depth", 1, MAX_DEPTH),
        ):
            value = getattr(self, name)
            if value < lo:
                raise InvalidConfig(f"{name} must be at least {lo}")
            if value > hi:
                raise InvalidConfig(f"{name} must be at most {hi}, got {value}")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidConfig(f"{name} must lie in [0, 1], got {p}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.elitism_count < self.population_size:
            raise InvalidConfig("elitism_count must be in [0, population_size)")
        lo, hi = self.init_depth_range
        if not (1 <= lo <= hi <= min(self.max_depth, MAX_INIT_DEPTH)):
            raise InvalidConfig(
                f"init_depth_range {self.init_depth_range} must satisfy "
                f"1 <= min <= max <= max_depth ({self.max_depth}) and max <= {MAX_INIT_DEPTH}"
            )
        for name in ("parsimony_coeff", "fitness_threshold"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be nonnegative and finite")
        clo, chi = self.constant_range
        if not clo <= chi:
            raise InvalidConfig("constant_range must satisfy lo <= hi")
        try:
            width = float(chi) - float(clo)  # inf or nan unless both bounds are finite
        except OverflowError:  # an int beyond float range
            width = math.inf
        if not math.isfinite(width):
            raise InvalidConfig(
                f"constant_range {list(self.constant_range)} must have finite bounds and width"
            )


# Large-scale settings from published experiments; opt-in, not defaults.
PRESETS: dict[str, GpConfig] = {
    "synthetic-large": GpConfig(
        population_size=50_000, generations=30, crossover_prob=0.5, mutation_prob=0.1
    ),
    "ehr-large": GpConfig(
        population_size=100_000, generations=30, crossover_prob=0.6, mutation_prob=0.2
    ),
}


def preset(name: str, **overrides) -> GpConfig:
    try:
        base = PRESETS[name]
    except KeyError:
        raise InvalidConfig(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True, slots=True)
class Individual:
    """One expression and its score, None until scored; evolve builds one per tree scored."""

    tree: ExpressionTree
    fitness: float | None = None
    raw_mse: float | None = None


@dataclass(frozen=True)
class GenerationStats:
    """One history.csv row; its fields, in order, are the file's columns."""

    generation: int
    min_fitness: float
    mean_fitness: float
    diversity: float
    best_expression: str


HISTORY_COLUMNS = tuple(field.name for field in fields(GenerationStats))


class Termination(enum.Enum):
    MAX_GENERATIONS = "max_generations"
    FITNESS_THRESHOLD = "fitness_threshold"
    STAGNATION = "stagnation"


@dataclass(frozen=True)
class FitResult:
    best: Individual
    history: tuple[GenerationStats, ...]
    terminated_by: Termination


# Template slots per block of random trees, in whole trees (at least one);
# each block draws four arrays of one value per slot, so it is part of the draw layout.
TREE_SLOT_BLOCK = 1 << 16


def _random_trees(
    draws: np.random.Generator,
    full: Sequence[bool],
    depth: int,
    stop_from: int,
    names: Sequence[str],
    constant_range,
) -> list[Tokens]:
    """Preorder tokens of one random tree of target depth per entry of full.

    Each tree fills the preorder template of a full tree of that depth, with
    2**(depth + 1) - 1 slots. A slot at level depth is a leaf; so is a slot
    of a grow tree (full false) at a level of at least stop_from whose stop
    draw is below GROW_TERMINAL_PROB, and the slots under a leaf are dropped.
    A block of rows trees draws, in this order: integers(0, len(OPERATORS),
    (rows, slots)) for operators, integers(0, len(names) + 1, (rows, slots))
    for leaves, the last pick a constant, random((rows, slots)) for stops,
    and uniform(*constant_range, (rows, slots)) for constants.
    """
    n_ops, n_vars = len(OPERATORS), len(names)
    levels = np.zeros(1, dtype=np.intp)
    for _ in range(depth):
        levels = np.concatenate(([0], levels + 1, levels + 1))
    slots = len(levels)
    # A slot's children: the next slot, and the one past the left subtree.
    parents = np.zeros(slots, dtype=np.intp)
    inner = np.flatnonzero(levels < depth)
    parents[inner + 1] = inner
    parents[inner + (1 << (depth - levels[inner]))] = inner
    by_level = [np.flatnonzero(levels == level) for level in range(1, depth + 1)]
    table = np.array([*OPERATORS, *names, None], dtype=object)
    full = np.asarray(full, dtype=bool)
    rows = max(1, TREE_SLOT_BLOCK // slots)
    trees: list[Tokens] = []
    for start in range(0, len(full), rows):
        block = full[start : start + rows]
        shape = (len(block), slots)
        ops = draws.integers(0, n_ops, shape)
        picks = draws.integers(0, n_vars + 1, shape)
        stops = draws.random(shape) < GROW_TERMINAL_PROB
        constants = draws.uniform(*constant_range, shape)
        leaf = (levels == depth) | (~block[:, None] & (levels >= stop_from) & stops)
        dropped = np.zeros(shape, dtype=bool)
        for at in by_level:
            dropped[:, at] = dropped[:, parents[at]] | leaf[:, parents[at]]
        kept = ~dropped
        codes = np.where(leaf, n_ops + picks, ops)[kept]
        tokens = table[codes]
        constant = codes == n_ops + n_vars
        tokens[constant] = constants[kept][constant].tolist()
        tokens = tokens.tolist()
        ends = np.cumsum(kept.sum(axis=1)).tolist()
        trees += [tuple(tokens[a:b]) for a, b in zip([0, *ends], ends)]
    return trees


def init_population(config: GpConfig, variables: Iterable[str], draws: np.random.Generator) -> list[Individual]:
    """Ramped half-and-half: individual i has target depth
    depths[(i // 2) % len(depths)] over init_depth_range, and is a full tree
    when i is even, a grow tree when odd. Each depth's trees are drawn in
    index order by _random_trees, depth by depth from the shallowest."""
    names = sorted(set(variables))
    if not names:
        raise InvalidConfig("at least one variable is required")
    lo, hi = config.init_depth_range
    depths = range(lo, hi + 1)
    group = np.arange(config.population_size) // 2 % len(depths)
    tokens: list[Tokens] = [()] * config.population_size
    for j, depth in enumerate(depths):
        members = np.flatnonzero(group == j)
        drawn = _random_trees(draws, members % 2 == 0, depth, lo, names, config.constant_range)
        for i, tree in zip(members.tolist(), drawn):
            tokens[i] = tree
    return [Individual(ExpressionTree(tree)) for tree in tokens]


# Bytes of fitness's residual block, one row per tree and at least one row: enough rows
# to spread numpy's cost per call, few enough to add little to peak memory.
SCORE_BLOCK_BYTES = 1 << 18


def fitness(
    trees: Sequence[ExpressionTree], data: Dataset, response: str, parsimony_coeff: float
) -> list[tuple[float, float]]:
    """(fitness, raw_mse) of each tree against the response column, in order.

    Each tree's predictions fill one row of a block of SCORE_BLOCK_BYTES;
    the block's residuals are squared and summed per row in place, the same
    sum np.mean would take of one tree's. Overflowing or otherwise non-finite
    MSEs are clamped to PENALTY_MSE so every fitness stays finite and
    comparable.
    """
    if data.n_rows == 0:
        raise EmptyDataset("cannot score against an empty dataset")
    y, n = data.column(response), data.n_rows
    rows = max(1, SCORE_BLOCK_BYTES // (8 * n))
    block = np.empty((min(len(trees), rows), n))
    scores = []
    # An overflow (inf) or inf - inf (nan) here meets the clamp below.
    with np.errstate(all="ignore"):
        for start in range(0, len(trees), rows):
            chunk = trees[start : start + rows]
            residuals = block[: len(chunk)]
            for row, tree in zip(residuals, chunk):
                row[:] = evaluate_batch(tree, data)
            residuals -= y
            residuals *= residuals
            for tree, raw_mse in zip(chunk, (np.add.reduce(residuals, axis=1) / n).tolist()):
                if not math.isfinite(raw_mse):
                    raw_mse = PENALTY_MSE
                scores.append((raw_mse + parsimony_coeff * tree.size, raw_mse))
    return scores


def ranking(population: Sequence[Individual]) -> tuple[list[int], list[int]]:
    """(order, ranks): order lists the population's indices best first, by
    fitness, then smaller tree, then earlier index, a total order; ranks[i] is
    individual i's position in order."""
    order = np.lexsort(([ind.tree.size for ind in population], [ind.fitness for ind in population]))
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))
    return order.tolist(), ranks.tolist()


def select(ranks: Sequence[int], entrants) -> list[int]:
    """Tournaments, one per row of entrants (population indices, drawn with
    replacement): each row's best rank, so order[rank] is the winner's index
    (see ranking)."""
    if not len(ranks):
        raise EmptyPopulation("cannot select from an empty population")
    return np.asarray(ranks)[entrants].min(axis=1).tolist()


def crossover(
    parent_a: ExpressionTree,
    parent_b: ExpressionTree,
    max_depth: int,
    point_a: int,
    point_b: int,
) -> tuple[ExpressionTree, ExpressionTree]:
    """Swap the subtrees rooted at point_a of parent_a and point_b of
    parent_b. A child exceeding max_depth is replaced by a copy of its
    corresponding parent."""
    sub_a = subtree_at(parent_a, point_a)
    sub_b = subtree_at(parent_b, point_b)
    # Children are built before their depth is checked: few exceed max_depth.
    child_a = ExpressionTree(replace_at(parent_a, point_a, sub_b))
    child_b = ExpressionTree(replace_at(parent_b, point_b, sub_a))
    return (
        parent_a if child_a.depth > max_depth else child_a,
        parent_b if child_b.depth > max_depth else child_b,
    )


def _point_mutation(tree: ExpressionTree, point: int, alternative: int, leaf: Tokens) -> ExpressionTree:
    """Swap the token at point for another of its kind: an operator for the
    alternative-th of the other operators, a leaf for leaf's one token."""
    token = tree.tokens[point]
    if token.__class__ is Operator:
        token = [op for op in OPERATORS if op is not token][alternative]
    else:
        (token,) = leaf
    return ExpressionTree(tree.tokens[:point] + (token,) + tree.tokens[point + 1 :])


# Subtree replacements a mutation tries before it falls back to point mutation.
SUBTREE_TRIES = 10


def mutate(
    trees: Sequence[ExpressionTree],
    variables: Sequence[str],
    max_depth: int,
    constant_range,
    draws: np.random.Generator,
) -> list[ExpressionTree]:
    """Each tree mutated once, by a plan drawn from draws as arrays.

    random(len(trees)) < 0.5 picks subtree replacement. Then, in rounds of
    at most SUBTREE_TRIES, the trees whose replacement is still pending draw
    integers(0, sizes) for their points and one depth-2 grow tree each, whose
    root may already be a leaf; a child within max_depth is kept. The rest,
    in order, are point-mutated: integers(0, sizes) for the points,
    integers(0, len(OPERATORS) - 1, count) for the operators, and one
    depth-0 tree each for the leaves.
    """
    names = sorted(set(variables))
    mutants = list(trees)
    subtree = draws.random(len(trees)) < 0.5
    pending = np.flatnonzero(subtree).tolist()
    for _ in range(SUBTREE_TRIES):
        if not pending:
            break
        points = draws.integers(0, [mutants[j].size for j in pending]).tolist()
        fresh = _random_trees(draws, [False] * len(pending), 2, 0, names, constant_range)
        oversized = []
        for j, point, replacement in zip(pending, points, fresh):
            tokens = replace_at(mutants[j], point, replacement)
            if node_depth(tokens) <= max_depth:
                mutants[j] = ExpressionTree(tokens)
            else:
                oversized.append(j)
        pending = oversized
    pointwise = sorted(np.flatnonzero(~subtree).tolist() + pending)
    points = draws.integers(0, [mutants[j].size for j in pointwise]).tolist()
    alternatives = draws.integers(0, len(OPERATORS) - 1, len(pointwise)).tolist()
    leaves = _random_trees(draws, [True] * len(pointwise), 0, 0, names, constant_range)
    for j, point, alternative, leaf in zip(pointwise, points, alternatives, leaves):
        mutants[j] = _point_mutation(mutants[j], point, alternative, leaf)
    return mutants


def diversity(population: Sequence[Individual]) -> float:
    """Fraction of the population occupied by distinct expressions, rescaled
    so one unique form gives 0.0 and all-distinct gives 1.0."""
    if not population:
        raise EmptyPopulation("diversity of an empty population is undefined")
    if len(population) == 1:
        return 0.0
    distinct = len({ind.tree.tokens for ind in population})
    return (distinct - 1) / (len(population) - 1)


# Entrant draws per Generator.integers call, in whole tournament rows (at
# least one row). numpy's bounded-integer fill keeps a spare half-word only
# within one call, so this block size is part of the draw layout.
ENTRANT_BLOCK = 1 << 16


def breed(
    population: Sequence[Individual],
    order: Sequence[int],
    ranks: Sequence[int],
    config: GpConfig,
    variables: Sequence[str],
    seq: np.random.SeedSequence,
) -> list[ExpressionTree]:
    """The next generation's trees: the elitism_count best, then m offspring
    bred from Generator(PCG64(seq))'s draws in the order below, mutate's last."""
    draws = np.random.Generator(np.random.PCG64(seq))
    m, k = config.population_size - config.elitism_count, config.tournament_size
    rows = max(1, ENTRANT_BLOCK // k)
    rank_array = np.asarray(ranks)
    winners: list[int] = []
    for start in range(0, m, rows):
        winners += select(rank_array, draws.integers(0, len(population), (min(rows, m - start), k)))
    trees = [population[order[rank]].tree for rank in winners]

    pairs = np.flatnonzero(draws.random(m // 2) < config.crossover_prob).tolist()
    sizes = [trees[slot].size for pair in pairs for slot in (2 * pair, 2 * pair + 1)]
    points = draws.integers(0, sizes).tolist()
    for pair, point_a, point_b in zip(pairs, points[::2], points[1::2]):
        a, b = 2 * pair, 2 * pair + 1
        trees[a], trees[b] = crossover(trees[a], trees[b], config.max_depth, point_a, point_b)

    slots = np.flatnonzero(draws.random(m) < config.mutation_prob).tolist()
    mutants = mutate([trees[slot] for slot in slots], variables, config.max_depth, config.constant_range, draws)
    for slot, tree in zip(slots, mutants):
        trees[slot] = tree
    return [population[i].tree for i in order[: config.elitism_count]] + trees


def evolve(data: Dataset, response: str, config: GpConfig) -> FitResult:
    """Run the generational loop and return the best individual ever seen.

    Stops at the generation budget, when best fitness reaches
    fitness_threshold, or after STAGNATION_WINDOW generations without
    improvement beyond STAGNATION_EPS.
    """
    if response not in data.columns:
        raise MissingVariable(response)
    if data.n_rows < 2:
        raise EmptyDataset("evolution needs at least 2 rows")
    variables = sorted(n for n in data.names if n != response)
    if not variables:
        raise InvalidConfig("dataset provides no predictor columns")

    # spawn(1) numbers its children in order: child 0 seeds initialization,
    # child t breeds generation t, spawned only when that generation starts.
    seeds = np.random.SeedSequence(config.seed)
    draws = np.random.Generator(np.random.PCG64(*seeds.spawn(1)))
    trees = [ind.tree for ind in init_population(config, variables, draws)]

    # Each distinct tree's one Individual, keyed by token tuple: equal tuples
    # are equal trees, and constants are floats only, so no two distinct trees
    # share a key. Each generation scores its distinct uncached trees in one
    # fitness call, in population order, so a copy of a parent reads its entry.
    cache: dict[tuple, Individual] = {}

    best: Individual | None = None
    history: list[GenerationStats] = []
    terminated_by = Termination.MAX_GENERATIONS
    flat_generations = 0

    for generation in range(config.generations):
        fresh = {tree.tokens: tree for tree in trees if tree.tokens not in cache}
        scores = fitness(list(fresh.values()), data, response, config.parsimony_coeff)
        cache.update((key, Individual(tree, *score)) for (key, tree), score in zip(fresh.items(), scores))
        population = [cache[tree.tokens] for tree in trees]

        order, ranks = ranking(population)
        gen_best = population[order[0]]
        previous = best.fitness if best is not None else None
        if best is None or gen_best.fitness < best.fitness:
            best = gen_best

        fitness_values = [ind.fitness for ind in population]
        history.append(
            GenerationStats(
                generation=generation,
                min_fitness=gen_best.fitness,
                mean_fitness=float(np.mean(fitness_values)),
                diversity=diversity(population),
                best_expression=gen_best.tree.infix,
            )
        )

        if best.fitness <= config.fitness_threshold:
            terminated_by = Termination.FITNESS_THRESHOLD
            break
        if previous is not None:
            if previous - best.fitness > STAGNATION_EPS:
                flat_generations = 0
            else:
                flat_generations += 1
            if flat_generations >= STAGNATION_WINDOW:
                terminated_by = Termination.STAGNATION
                break
        if generation == config.generations - 1:
            break

        trees = breed(population, order, ranks, config, variables, *seeds.spawn(1))

    return FitResult(best=best, history=tuple(history), terminated_by=terminated_by)


def history_to_csv(history: Iterable[GenerationStats]) -> str:
    """The per-generation log as CSV text, with full-precision numerics."""
    handle = io.StringIO()
    writer = csv.writer(handle)
    writer.writerow(HISTORY_COLUMNS)
    for stats in history:
        values = (getattr(stats, name) for name in HISTORY_COLUMNS)
        writer.writerow([repr(v) if isinstance(v, float) else v for v in values])
    return handle.getvalue()


def tree_document(tree: ExpressionTree, variables: Sequence[str]) -> dict:
    """The keys every model document shares: the tree as nested nodes, its
    infix, the operator set and the sorted variable universe."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "operators": [op.value for op in OPERATORS],
        "variables": sorted(variables),
        "tree": tree_to_json(tree),
        "expression": tree.infix,
    }


def model_document(best: Individual, variables: Sequence[str], config: GpConfig) -> dict:
    """JSON-ready description of a fitted model: tree_document's keys plus
    the fitness and the config that produced it."""
    doc = {
        **tree_document(best.tree, variables),
        "fitness": best.fitness,
        "raw_mse": best.raw_mse,
        "config": asdict(config),
        "seed": config.seed,
    }
    doc["config"]["init_depth_range"] = list(config.init_depth_range)
    doc["config"]["constant_range"] = list(config.constant_range)
    return doc


def model_from_document(doc: dict) -> tuple[ExpressionTree, tuple[str, ...]]:
    """Load (tree, variables) back from a model document.

    The tree may reference only declared variables; anything else means the
    document was hand-edited or truncated. schema_version and operators may
    be absent, but when present must match what this version writes.
    """
    if not isinstance(doc, dict):
        raise MalformedTree(f"model document must be an object, got {type(doc).__name__}")
    version, operators = doc.get("schema_version", MODEL_SCHEMA_VERSION), doc.get("operators", [])
    if version != MODEL_SCHEMA_VERSION:
        raise MalformedTree(f"model schema_version {version!r} is not {MODEL_SCHEMA_VERSION}")
    known = [op.value for op in OPERATORS]
    if not isinstance(operators, list) or not all(op in known for op in operators):
        raise MalformedTree(f"model operators {operators!r} are not all of {known}")
    try:
        tree, variables = tree_from_json(doc["tree"]), doc["variables"]
    except KeyError as exc:
        raise MalformedTree(f"model document lacks required key: {exc}") from None
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise MalformedTree(f"model variables must be a list of strings, got {variables!r}")
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise MalformedTree(f"model variables {list(variables)} repeat a name")
    extra = dependency_set(tree) - set(variables)
    if extra:
        raise MissingVariable(sorted(extra)[0])
    return tree, variables

"""Genetic-programming symbolic regression over expression trees.

The generational loop is select -> crossover -> mutate with elitism, tournament
selection, and an MSE-plus-parsimony fitness over exprcore.evaluate_batch's
output. All randomness flows from one seed: numpy's SeedSequence spawns one
substream for initialization and one per breeding generation, each a PCG64 bit
generator whose raw 64-bit words _Pcg64Stream turns into exactly the draws
numpy's Generator would make. Runs are reproducible across platforms and
restarts, and depend on numpy only through SeedSequence and the PCG64 bit
stream, which NumPy keeps stable across versions (NEP 19), not through
Generator's sampling methods.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence, Union

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

HISTORY_COLUMNS = ("generation", "min_fitness", "mean_fitness", "diversity", "best_expression")

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


@dataclass
class Individual:
    """One candidate expression. fitness/raw_mse are None until evaluated."""

    tree: ExpressionTree
    fitness: float | None = None
    raw_mse: float | None = None


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    min_fitness: float
    mean_fitness: float
    diversity: float
    best_expression: str


class Termination(enum.Enum):
    MAX_GENERATIONS = "max_generations"
    FITNESS_THRESHOLD = "fitness_threshold"
    STAGNATION = "stagnation"


@dataclass(frozen=True)
class FitResult:
    best: Individual
    history: tuple[GenerationStats, ...]
    terminated_by: Termination


# Raw PCG64 words a stream fetches per numpy call: enough to spread the
# call's cost thin, few enough that the block a spent stream keeps is small.
_STREAM_BLOCK = 512


class _Pcg64Stream:
    """The scalar random(), uniform(lo, hi) and integers(n) of
    np.random.Generator(np.random.PCG64(seq)), bit for bit, computed in Python
    from raw PCG64 words without the Generator's per-call overhead.

    random() scales a word's top 53 bits by 2**-53; uniform(lo, hi) is
    lo + (hi - lo) * random(). integers(n), for 1 <= n < 2**32, is numpy's
    32-bit Lemire rejection over 32-bit values that are the low and then the
    high half of one word; the spare half waits across calls, as PCG64's
    next_uint32 keeps it, and n == 1 draws nothing.
    """

    __slots__ = ("_bits", "_next_word", "_spare")

    def __init__(self, seq: np.random.SeedSequence):
        self._bits = np.random.PCG64(seq)
        self._next_word = iter(()).__next__
        self._spare = None

    def _refill(self) -> int:
        """The first word of a new block; the draws call it once the block is spent."""
        self._next_word = iter(self._bits.random_raw(_STREAM_BLOCK).tolist()).__next__
        return self._next_word()

    def random(self) -> float:
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2**-53

    def uniform(self, lo: float, hi: float) -> float:
        lo = float(lo)  # numpy takes both bounds as doubles first
        return lo + (float(hi) - lo) * self.random()

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            draw = self._spare  # a 32-bit value: a spare high half, else a fresh low half
            if draw is None:
                try:
                    word = self._next_word()
                except StopIteration:
                    word = self._refill()
                draw, self._spare = word & 0xFFFFFFFF, word >> 32
            else:
                self._spare = None
            m = draw * n
            # Lemire: reject m whose low half is below 2**32 % n, which is
            # below n, so the modulo is needed only for a low half below n.
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32


# What breeding draws from: evolve passes a _Pcg64Stream, and other callers
# may pass a numpy Generator, whose integers(n), random() and uniform(lo, hi)
# give the same draws.
Rng = Union[_Pcg64Stream, np.random.Generator]


def _rng_streams(config: GpConfig) -> list[_Pcg64Stream]:
    """Stream 0 seeds initialization; stream t >= 1 breeds generation t."""
    seqs = np.random.SeedSequence(config.seed).spawn(config.generations + 1)
    return [_Pcg64Stream(s) for s in seqs]


def _random_tree(
    rng: Rng,
    variables: Sequence[str],
    constant_range,
    target_depth: int,
    min_depth: int,
    full: bool,
) -> Tokens:
    """Preorder tokens of a random tree, emitted in the order they are drawn:
    a leaf is one integers(len(variables) + 1), plus uniform(*constant_range)
    when it picks the last slot, a constant; an operator is one
    integers(len(OPERATORS)). At target_depth 0 the one token is a leaf."""
    integers, random, uniform = rng.integers, rng.random, rng.uniform
    n_vars, n_ops = len(variables), len(OPERATORS)
    lo, hi = constant_range
    # Grow mode may stop at a leaf from min_depth on; full mode only at target_depth.
    may_stop = target_depth if full else min_depth
    tokens = []
    append = tokens.append
    pending = [0]  # depths of the operand slots still to fill, next on top
    pop = pending.pop
    while pending:
        level = pop()
        if level >= target_depth or (level >= may_stop and random() < GROW_TERMINAL_PROB):
            pick = integers(n_vars + 1)
            append(uniform(lo, hi) if pick == n_vars else variables[pick])
        else:
            append(OPERATORS[integers(n_ops)])
            level += 1
            pending += (level, level)
    return tuple(tokens)


def init_population(
    config: GpConfig, variables: Iterable[str], rng: Rng
) -> list[Individual]:
    """Ramped half-and-half: depth targets cycle over init_depth_range while
    full and grow construction alternate."""
    names = sorted(set(variables))
    if not names:
        raise InvalidConfig("at least one variable is required")
    lo, hi = config.init_depth_range
    depths = list(range(lo, hi + 1))
    population = []
    for i in range(config.population_size):
        target = depths[(i // 2) % len(depths)]
        tokens = _random_tree(
            rng, names, config.constant_range, target, lo, full=(i % 2 == 0)
        )
        population.append(Individual(ExpressionTree(tokens)))
    return population


def fitness(
    tree: ExpressionTree, data: Dataset, response: str, parsimony_coeff: float
) -> tuple[float, float]:
    """(fitness, raw_mse) against the response column.

    Overflowing or otherwise non-finite predictions are clamped to PENALTY_MSE
    so every fitness stays finite and comparable.
    """
    if data.n_rows == 0:
        raise EmptyDataset("cannot score against an empty dataset")
    # An overflow (inf) or inf - inf (nan) here meets the clamp below.
    with np.errstate(all="ignore"):
        residuals = evaluate_batch(tree, data) - data.column(response)
        # np.mean's own sum and division, without its Python-level wrapper.
        raw_mse = float(np.add.reduce(residuals * residuals)) / len(residuals)
    if not math.isfinite(raw_mse):
        raw_mse = PENALTY_MSE
    return raw_mse + parsimony_coeff * tree.size, raw_mse


def ranking(population: Sequence[Individual]) -> tuple[list[int], list[int]]:
    """(order, ranks): order lists the population's indices best first, by
    fitness, then smaller tree, then earlier index, a total order; ranks[i] is
    individual i's position in order."""
    keys = [(ind.fitness, ind.tree.size, i) for i, ind in enumerate(population)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(order)
    for rank, i in enumerate(order):
        ranks[i] = rank
    return order, ranks


def select(ranks: Sequence[int], tournament_size: int, rng: Rng) -> int:
    """Tournament of uniformly sampled entrants, with replacement: the best
    rank drawn, so order[select(...)] is the winner's index (see ranking)."""
    if not ranks:
        raise EmptyPopulation("cannot select from an empty population")
    n, integers = len(ranks), rng.integers
    best = ranks[integers(n)]
    for _ in range(tournament_size - 1):
        rank = ranks[integers(n)]
        if rank < best:
            best = rank
    return best


def crossover(
    parent_a: ExpressionTree,
    parent_b: ExpressionTree,
    max_depth: int,
    rng: Rng,
) -> tuple[ExpressionTree, ExpressionTree]:
    """Swap uniformly chosen subtrees. A child exceeding max_depth is replaced
    by a copy of its corresponding parent."""
    point_a = rng.integers(parent_a.size)
    point_b = rng.integers(parent_b.size)
    sub_a = subtree_at(parent_a, point_a)
    sub_b = subtree_at(parent_b, point_b)
    # Children are built before their depth is checked: few exceed max_depth.
    child_a = ExpressionTree(replace_at(parent_a, point_a, sub_b))
    child_b = ExpressionTree(replace_at(parent_b, point_b, sub_a))
    return (
        parent_a if child_a.depth > max_depth else child_a,
        parent_b if child_b.depth > max_depth else child_b,
    )


def _point_mutation(
    tree: ExpressionTree, variables: Sequence[str], constant_range, rng: Rng
) -> ExpressionTree:
    """Swap one token for another of the same kind; operands stay in place."""
    idx = rng.integers(tree.size)
    token = tree.tokens[idx]
    if isinstance(token, Operator):
        alternatives = [op for op in OPERATORS if op is not token]
        token = alternatives[rng.integers(len(alternatives))]
    else:
        (token,) = _random_tree(rng, variables, constant_range, 0, 0, full=True)
    return ExpressionTree(tree.tokens[:idx] + (token,) + tree.tokens[idx + 1 :])


def mutate(
    tree: ExpressionTree,
    variables: Sequence[str],
    max_depth: int,
    constant_range,
    rng: Rng,
) -> ExpressionTree:
    """Half the time replace a subtree with a fresh grow tree of depth <= 2,
    otherwise point-mutate one node. max_depth is always respected; subtree
    replacement falls back to point mutation after 10 oversized attempts."""
    names = sorted(set(variables))
    if rng.random() < 0.5:
        for _ in range(10):
            idx = rng.integers(tree.size)
            fresh = _random_tree(
                rng, names, constant_range, target_depth=2, min_depth=0, full=False
            )
            tokens = replace_at(tree, idx, fresh)
            if node_depth(tokens) <= max_depth:
                return ExpressionTree(tokens)
    return _point_mutation(tree, names, constant_range, rng)


def diversity(population: Sequence[Individual]) -> float:
    """Fraction of the population occupied by distinct expressions, rescaled
    so one unique form gives 0.0 and all-distinct gives 1.0."""
    if not population:
        raise EmptyPopulation("diversity of an empty population is undefined")
    if len(population) == 1:
        return 0.0
    distinct = len({ind.tree.tokens for ind in population})
    return (distinct - 1) / (len(population) - 1)


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

    streams = _rng_streams(config)
    population = init_population(config, variables, streams[0])

    # Keyed by token tuple: equal tuples are equal trees, and constants are
    # floats only, so no two distinct trees share a key. Every individual is
    # scored through it, so an unchanged copy of a parent reads its entry.
    cache: dict[tuple, tuple[float, float]] = {}

    def score(ind: Individual) -> None:
        key = ind.tree.tokens
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = fitness(ind.tree, data, response, config.parsimony_coeff)
        ind.fitness, ind.raw_mse = hit

    best: Individual | None = None
    history: list[GenerationStats] = []
    terminated_by = Termination.MAX_GENERATIONS
    flat_generations = 0

    for generation in range(config.generations):
        for ind in population:
            score(ind)

        order, ranks = ranking(population)
        gen_best = population[order[0]]
        previous = best.fitness if best is not None else None
        if best is None or gen_best.fitness < best.fitness:
            best = Individual(gen_best.tree, gen_best.fitness, gen_best.raw_mse)

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

        rng = streams[generation + 1]
        offspring: list[Individual] = [population[i] for i in order[: config.elitism_count]]
        while len(offspring) < config.population_size:
            tree = population[order[select(ranks, config.tournament_size, rng)]].tree
            if rng.random() < config.crossover_prob:
                mate = population[order[select(ranks, config.tournament_size, rng)]]
                tree, _ = crossover(tree, mate.tree, config.max_depth, rng)
            if rng.random() < config.mutation_prob:
                tree = mutate(tree, variables, config.max_depth, config.constant_range, rng)
            offspring.append(Individual(tree))
        population = offspring

    return FitResult(best=best, history=tuple(history), terminated_by=terminated_by)


def history_to_csv(history: Iterable[GenerationStats], path) -> None:
    """Write the per-generation log with full-precision numerics."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_COLUMNS)
        for stats in history:
            writer.writerow(
                [
                    stats.generation,
                    repr(stats.min_fitness),
                    repr(stats.mean_fitness),
                    repr(stats.diversity),
                    stats.best_expression,
                ]
            )


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

"""Synthetic benchmark with known structure.

Ground truth: A ~ N(1, 2), B ~ N(2, 1), C = A + B, D = 2A + 3, and the
response Z = B + C/D using true division. Derived columns and Z are computed
before any noise; Gaussian noise proportional to each cell's magnitude is then
added to the predictors only, so the regression target stays well defined.
Recovery is scored on support overlap and holdout error against clean Z.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .dataio import Dataset
from .errors import InvalidConfig
from .exprcore import DIV_EPSILON, ExpressionTree, dependency_set, evaluate_batch
from .gpsr import FitResult, GpConfig, evolve

# Fresh-data seed for scoring; far outside the usual experiment sweep range.
HOLDOUT_SEED = 99991

# Upper cap on SynthConfig.n: ten million rows of the five columns take
# 400 MB, so a larger count is refused when the config is built.
MAX_ROWS = 10_000_000


@dataclass(frozen=True)
class SynthConfig:
    """Size, seed and noise of one synthetic draw, checked when built."""

    n: int = 500
    seed: int = 0
    noise_percent: float = 0.0  # a fraction of each cell's magnitude: 0.05 is 5%

    def __post_init__(self):
        if self.n < 2:
            raise InvalidConfig("n must be at least 2")
        if self.n > MAX_ROWS:
            raise InvalidConfig(f"n must be at most {MAX_ROWS}, got {self.n}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.noise_percent <= 1:
            raise InvalidConfig(
                "noise_percent must be nonnegative and finite, at most 1 (0.05 is 5%), "
                f"got {self.noise_percent!r}"
            )


@dataclass(frozen=True)
class GroundTruth:
    """The generating equations, plus the variable sets recovery is judged on."""

    response: str
    equations: Mapping[str, str]
    direct_parents: Mapping[str, frozenset[str]]
    equivalent_supports: tuple[frozenset[str], ...]


GROUND_TRUTH = GroundTruth(
    response="Z",
    equations={
        "A": "Normal(mean=1, sd=2)",
        "B": "Normal(mean=2, sd=1)",
        "C": "A + B",
        "D": "2*A + 3",
        "Z": "B + C/D",
    },
    direct_parents={
        "C": frozenset({"A", "B"}),
        "D": frozenset({"A"}),
        "Z": frozenset({"B", "C", "D"}),
    },
    equivalent_supports=(frozenset({"B", "C", "D"}), frozenset({"A", "B"})),
)


def generate(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Draw one dataset. Rows whose clean D lands within DIV_EPSILON of zero
    are redrawn so Z is finite; noise (if any) comes after all derived columns."""
    rng = np.random.default_rng(config.seed)
    n = config.n

    a = rng.normal(1.0, 2.0, n)
    b = rng.normal(2.0, 1.0, n)
    d = 2.0 * a + 3.0
    bad = np.abs(d) < DIV_EPSILON
    while bad.any():
        count = int(bad.sum())
        a[bad] = rng.normal(1.0, 2.0, count)
        b[bad] = rng.normal(2.0, 1.0, count)
        d = 2.0 * a + 3.0
        bad = np.abs(d) < DIV_EPSILON
    c = a + b
    z = b + c / d

    if config.noise_percent > 0:
        for col in (a, b, c, d):
            col += rng.normal(0.0, 1.0, n) * (config.noise_percent * np.abs(col))

    data = Dataset({"A": a, "B": b, "C": c, "D": d, "Z": z})
    return data, GROUND_TRUTH


def holdout_data() -> Dataset:
    """The fixed noiseless 500-row dataset all scoring uses."""
    data, _ = generate(SynthConfig(n=500, seed=HOLDOUT_SEED, noise_percent=0.0))
    return data


@dataclass(frozen=True)
class StructureScore:
    support_jaccard: float
    mse_on_clean: float


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def structure_score(
    fitted: ExpressionTree, truth: GroundTruth, holdout: Dataset | None = None
) -> StructureScore:
    """Support overlap with the truth, and MSE against clean Z on fresh data.

    C and D are deterministic in A and B, so an expression over {A, B} can be
    exactly right; the score takes the best match over the equivalent
    support sets.
    """
    support = frozenset(dependency_set(fitted))
    jaccard = max(_jaccard(support, ref) for ref in truth.equivalent_supports)
    data = holdout if holdout is not None else holdout_data()
    with np.errstate(all="ignore"):  # an overflow is an ordinary, if poor, score
        mse = float(np.mean((evaluate_batch(fitted, data) - data.column(truth.response)) ** 2))
    return StructureScore(support_jaccard=jaccard, mse_on_clean=mse)


@dataclass(frozen=True)
class RunRecord:
    noise: float
    seed: int
    best_mse: float
    support_jaccard: float
    runtime_sec: float
    best_expression: str


def run_benchmark(
    gp_config: GpConfig, synth_configs: Iterable[SynthConfig], repeats: int = 1
) -> tuple[RunRecord, ...]:
    """Evolve once per (config, repeat) and score against the fixed holdout.

    Repeat r of a config offsets both the data seed and the search seed by r,
    so every run is an independent draw yet fully reproducible.
    """
    if repeats < 1:
        raise InvalidConfig("repeats must be at least 1")
    holdout = holdout_data()
    runs = []
    for synth in synth_configs:
        for r in range(repeats):
            run_seed = synth.seed + r
            data, truth = generate(replace(synth, seed=run_seed))
            started = time.perf_counter()
            result: FitResult = evolve(data, truth.response, replace(gp_config, seed=run_seed))
            runtime = time.perf_counter() - started
            score = structure_score(result.best.tree, truth, holdout)
            runs.append(
                RunRecord(
                    noise=synth.noise_percent,
                    seed=run_seed,
                    best_mse=score.mse_on_clean,
                    support_jaccard=score.support_jaccard,
                    runtime_sec=runtime,
                    best_expression=result.best.tree.infix,
                )
            )
    return tuple(runs)

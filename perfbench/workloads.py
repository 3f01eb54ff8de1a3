"""The two workloads: their generated inputs, CLI calls and output checks.

Each workload is a closed loop with one client: operation i is issued when
operation i-1 has returned. An operation is one `ecd fit`, or for `analyze`
one session of `ecd ris`, `ecd counterfactual` and `ecd simplify` on one
model. All inputs derive from the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Callable

import numpy as np

from ecd import gpsr, synthbench

import oracle

PREDICTORS = tuple(f"x{i:02d}" for i in range(1, 13))
RESPONSE = "y"

# fit-desk: the paper's Z = B + C/D problem at the default GpConfig but for
# the generation count. Six generations, fewer than the ten flat ones that
# stop a fit, so every fit runs all six and does the same work whichever
# generation its seed stalls at. The fit finds Z = B + C/D within them for
# most seeds; the default run then repeats flat generations until the
# stagnation stop.
DESK_N = 500
DESK_GP = {"generations": 6}

WARM_GP = {"population_size": 50, "generations": 1}

# analyze: random full trees at every depth from 2 to 8 (7 to 511 nodes), 40
# of each, taken from the full half of a ramped half-and-half population. All
# full trees of one depth have the same size, so the corpus's size mix is the
# same for every seed; 40 trees a depth keep a run's sessions from hinging
# on a few trees whose huge values make long DOT labels. Model k has depth
# 2 + k % 7, so the first TRACE_MODELS models hold one tree of each depth.
# Sessions take the depths in turn, so any run, however many sessions it
# gets through, has the same mix of tree sizes.
ANALYZE_N = 500
ANALYZE_DEPTHS = (2, 8)
TRACE_MODELS = ANALYZE_DEPTHS[1] - ANALYZE_DEPTHS[0] + 1
TREES_PER_DEPTH = 40
CORPUS_SIZE = TREES_PER_DEPTH * TRACE_MODELS
MAGNITUDE = 0.05
SIMPLIFY_THRESHOLD = 0.01


@dataclass
class Call:
    command: str
    argv: list[str]
    check: Callable[[], dict | None]  # raises oracle.CheckFailed; returns facts
    # The call's --out directory. It is removed before the call, so every call
    # writes new files as it would into a fresh directory: rewriting the
    # previous call's files makes ext4 flush them on close, which puts disk
    # waits on the clock.
    out: Path | None = None


def derived_seed(seed: int, i: int) -> int:
    """Seed of operation i of a run with this workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def make_table(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Twelve predictors and a noisy response that + - * / cannot fit exactly."""
    x = rng.normal(1.0, 1.0, (n, len(PREDICTORS)))
    y = (
        np.sin(x[:, 0]) * x[:, 1]
        + np.exp(0.5 * x[:, 2])
        + x[:, 3] * x[:, 4] / (1.0 + x[:, 5] ** 2)
        + 0.1 * rng.normal(0.0, 1.0, n)
    )
    columns = {name: x[:, j].copy() for j, name in enumerate(PREDICTORS)}
    columns[RESPONSE] = y
    return columns


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """repr() of each float, so the file reloads to the same doubles."""
    rows = np.column_stack(list(columns.values())).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


class Workload:
    """summarize() reports means over the whole run, not medians: the shared
    host this was sized on runs for stretches of 10 s to minutes at up to
    1.8 times its fastest call times, and a run's median call then reads whichever
    stretch holds the middle call, while the mean weighs each stretch by its
    length. Over two ten-run sets the mean spread least of the statistics
    tried (README.md, "Noise")."""

    name = ""
    why = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Generate and write the inputs (part of set-up)."""

    def warm_up(self) -> Call:
        raise NotImplementedError

    def operation(self, i: int) -> list[Call]:
        raise NotImplementedError

    def trace_pass(self) -> list[list[Call]]:
        """The fixed operations one traced pass repeats."""
        return [self.operation(0)]

    def summarize(self, ops: list[list[dict]]) -> tuple[dict, dict]:
        """(end-to-end metrics, named report) from the operations' records."""
        raise NotImplementedError


class FitDesk(Workload):
    name = "fit-desk"
    why = (
        "paper's Z = B + C/D fit at population 2000, 6 generations; "
        "breeding-bound, evaluation small"
    )

    def prepare(self) -> None:
        # The warm-up fit only has to run every code path once.
        self.warm_config = self.work / "warm.json"
        write_json(self.warm_config, {"gp": {**DESK_GP, **WARM_GP}})
        self.config = self.work / "gp.json"
        write_json(self.config, {"gp": DESK_GP})
        self.holdout = dict(synthbench.holdout_data().columns)

    def _call(self, i: int, out: Path, config: Path, generations: int) -> Call:
        seed = derived_seed(self.seed, i)
        argv = ["fit", "--synth", "--n", str(DESK_N), "--seed", str(seed)]
        argv += ["--config", str(config), "--out", str(out)]

        def check() -> dict:
            data, _ = synthbench.generate(synthbench.SynthConfig(n=DESK_N, seed=seed))
            facts = oracle.check_fit(out, data.columns, "Z", generations)
            facts["recovered"] = oracle.recovered(facts.pop("tree"), self.holdout)
            return {"seed": seed, **facts}

        return Call("fit", argv, check, out)

    def warm_up(self) -> Call:
        return self._call(0, self.work / "warm", self.warm_config, WARM_GP["generations"])

    def operation(self, i: int) -> list[Call]:
        return [self._call(i, self.work / "fit", self.config, DESK_GP["generations"])]

    def summarize(self, ops):
        fits = [op[0] for op in ops]
        ok = [f for f in fits if f["ok"]]
        seconds = [f["seconds"] for f in fits]
        population = gpsr.GpConfig(**DESK_GP).population_size
        ind_gens = sum(population * f["facts"]["generations_run"] for f in ok)
        rate = ind_gens / sum(f["seconds"] for f in ok) if ok else 0.0
        recovered = sum(f["facts"]["recovered"] for f in ok) / len(ok) if ok else 0.0
        e2e = {"call_ms_mean": mean(seconds) * 1000.0, "throughput_per_s": rate}
        report = {
            "fit_s_p50": (median(seconds), "s", len(seconds)),
            "fit_ind_gens_per_s": (rate, "1/s", len(ok)),
            "recovered_frac": (recovered, "ratio", len(ok)),
        }
        return e2e, report


class Analyze(Workload):
    name = "analyze"
    why = (
        "ris, counterfactual and simplify over random trees of 7-511 nodes; "
        "per-node scalar analysis, no breeding"
    )

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.columns = make_table(rng, ANALYZE_N)
        self.csv = self.work / "data.csv"
        write_csv(self.csv, self.columns)
        self.baselines = oracle.quartile_baselines(self.columns, PREDICTORS)

        config = gpsr.GpConfig(
            population_size=2 * CORPUS_SIZE,
            init_depth_range=ANALYZE_DEPTHS,
            max_depth=ANALYZE_DEPTHS[1],
        )
        models_dir = self.work / "models"
        models_dir.mkdir()
        self.models = []
        population = gpsr.init_population(config, PREDICTORS, rng)
        for k, ind in enumerate(population[::2]):  # even positions are built full
            doc = gpsr.model_document(ind, PREDICTORS, config)
            path = models_dir / f"model_{k:03d}.json"
            write_json(path, doc)
            row, other = rng.integers(0, ANALYZE_N, size=2)
            variable = PREDICTORS[int(rng.integers(0, len(PREDICTORS)))]
            self.models.append(
                {
                    "path": path,
                    "doc": doc,
                    "size": oracle.tree_size(doc["tree"]),
                    "scenario": {n: float(self.columns[n][row]) for n in PREDICTORS},
                    "set": (variable, float(self.columns[variable][other])),
                }
            )
        self.order = [
            TRACE_MODELS * int(j) + d
            for j in rng.permutation(TREES_PER_DEPTH)
            for d in range(TRACE_MODELS)
        ]

    def _data_flags(self) -> list[str]:
        return [
            "--csv", str(self.csv), "--response", RESPONSE, "--predictors", ",".join(PREDICTORS),
        ]

    def _ris(self, model: dict, out: Path) -> Call:
        argv = ["ris", "--model", str(model["path"]), "--out", str(out)]
        argv += ["--magnitude", repr(MAGNITUDE)] + self._data_flags()
        return Call(
            "ris",
            argv,
            lambda: oracle.check_ris(out, model["doc"], self.baselines, MAGNITUDE),
            out,
        )

    def session(self, k: int) -> list[Call]:
        model = self.models[k]
        out = self.work / "out"
        variable, value = model["set"]
        cf_argv = ["counterfactual", "--model", str(model["path"]), "--out", str(out)]
        cf_argv += [f"--at={n}={v!r}" for n, v in model["scenario"].items()]
        cf_argv += [f"--set={variable}={value!r}"]
        simplify_argv = [
            "simplify", "--model", str(model["path"]), "--out", str(out),
            "--magnitude", repr(MAGNITUDE), "--threshold", repr(SIMPLIFY_THRESHOLD),
        ] + self._data_flags()
        return [
            self._ris(model, out),
            Call(
                "counterfactual",
                cf_argv,
                lambda: oracle.check_counterfactual(
                    out, model["doc"], model["scenario"], variable, value
                ),
                out,
            ),
            Call(
                "simplify",
                simplify_argv,
                lambda: {
                    "pruned": oracle.check_simplify(
                        out, model["doc"], self.baselines, SIMPLIFY_THRESHOLD
                    ),
                    "size": model["size"],
                },
                out,
            ),
        ]

    def warm_up(self) -> Call:
        return self._ris(self.models[0], self.work / "warm")

    def operation(self, i: int) -> list[Call]:
        return self.session(self.order[i % CORPUS_SIZE])

    def trace_pass(self) -> list[list[Call]]:
        return [self.session(k) for k in range(TRACE_MODELS)]

    def summarize(self, ops):
        sessions = [sum(c["seconds"] for c in op) for op in ops]
        # Each session's simplify record carries the model size.
        ok = [op for op in ops if all(c["ok"] for c in op)]
        nodes = sum(op[2]["facts"]["size"] for op in ok)
        busy = sum(c["seconds"] for op in ok for c in op)
        e2e = {
            "call_ms_mean": mean(sessions) * 1000.0,
            "throughput_per_s": nodes / busy if busy else 0.0,
        }
        report = {}
        for command in ("ris", "counterfactual", "simplify"):
            ms = [c["seconds"] * 1000.0 for op in ops for c in op if c["command"] == command]
            report[f"{command}_ms_p50"] = (median(ms), "ms", len(ms))
            report[f"{command}_ms_p90"] = (float(np.percentile(ms, 90.0)), "ms", len(ms))
        return e2e, report


WORKLOADS = {w.name: w for w in (FitDesk, Analyze)}

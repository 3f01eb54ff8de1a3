"""Search-quality record: how often desk fits recover the synthetic truth.

Fits the paper's synthetic benchmark (Z = B + C/D) at the desk config,
GpConfig() with n=500, at noise levels 0, 0.01, 0.05 and 0.10, over seeds
1-150 at each level (the data seed and the search seed are the same). Each
fit is one synthbench.run_benchmark run, scored on the fixed holdout. For
each level it writes, as JSON:

- the count of fits whose support matches the truth (support_jaccard 1.0),
  and the count that also scores a holdout MSE below 1e-4;
- the median, quartiles and IQR of the holdout MSE (mse_on_clean);
- how many generations each fit ran, and why each fit stopped.

Everything but the "timing" key is deterministic: a rerun on the same code
writes the same bytes there. A change that moves fit bytes cites two records,
its parent's and its own, and passes RULE, which --against checks:

    PYTHONPATH=src python3 tools/search_quality.py --out parent.json
    PYTHONPATH=src python3 tools/search_quality.py --out change.json --against parent.json

Standard library and ecd only. Fits run in one process per CPU; the worker
count goes under "timing", since it changes wall time and nothing else.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import ecd
from ecd.gpsr import GpConfig
from ecd.synthbench import SynthConfig, run_benchmark

NOISE_LEVELS = (0.0, 0.01, 0.05, 0.10)
SEEDS = range(1, 151)
N_ROWS = 500
RECOVERY_MSE = 1e-4
MAX_POINTS_LOST = 5  # percentage points of pooled recovery
MAX_LEVEL_LOST = 10  # recovered fits at one level; one level's count swings this much by seed block
MAX_Q3_RATIO = 2.0  # of one level's holdout-MSE q3 to the parent's

RULE = (
    f"Against its parent's record, a change passes when its pooled recovery "
    f"(support_jaccard 1.0, over all levels) is at most {MAX_POINTS_LOST} percentage "
    f"points below the parent's, every level's median holdout MSE "
    f"(mse_on_clean) stays below {RECOVERY_MSE:g}, no level's recovered count "
    f"falls more than {MAX_LEVEL_LOST} below the parent's, and no level's holdout-MSE "
    f"q3 exceeds {MAX_Q3_RATIO:g}x the parent's, or {RECOVERY_MSE:g} where the parent's is 0."
)


def fit_one(job: tuple[float, int]) -> dict:
    noise, seed = job
    (run,) = run_benchmark(GpConfig(), [SynthConfig(n=N_ROWS, seed=seed, noise_percent=noise)])
    return {
        "recovered": run.support_jaccard == 1.0,
        "mse_on_clean": run.best_mse,
        "generations": len(run.result.history),
        "terminated_by": run.result.terminated_by.value,
        "seconds": run.runtime_sec,
    }


def quartiles(values: list[float]) -> dict:
    # "inclusive" interpolates between order statistics as numpy's default does.
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(fits: list[dict]) -> dict:
    recovered = [f for f in fits if f["recovered"]]
    return {
        "fits": len(fits),
        "recovered": len(recovered),
        "recovered_below_mse": sum(f["mse_on_clean"] < RECOVERY_MSE for f in recovered),
        "mse_on_clean": quartiles([f["mse_on_clean"] for f in fits]),
        "generations_run": {
            str(g): count for g, count in sorted(Counter(f["generations"] for f in fits).items())
        },
        "terminated_by": dict(sorted(Counter(f["terminated_by"] for f in fits).items())),
    }


def check_rule(record: dict, parent: dict) -> dict:
    """RULE applied to two records; "passed" is True when every clause holds.

    "levels" reports each level's change and whether its per-level clauses
    hold, so a loss at one level shows by name.
    """
    fits = record["pooled"]["fits"]
    if parent["pooled"]["fits"] != fits or parent["levels"].keys() != record["levels"].keys():
        raise SystemExit("the two records cover different fits")
    floor = parent["pooled"]["recovered"] - MAX_POINTS_LOST * fits / 100
    recovery_ok = record["pooled"]["recovered"] >= floor
    high = [
        level for level, stats in record["levels"].items()
        if not stats["mse_on_clean"]["median"] < RECOVERY_MSE
    ]
    levels = {}
    for level, stats in record["levels"].items():
        before = parent["levels"][level]
        q3, parent_q3 = stats["mse_on_clean"]["q3"], before["mse_on_clean"]["q3"]
        change = stats["recovered"] - before["recovered"]
        q3_bound = MAX_Q3_RATIO * parent_q3 if parent_q3 else RECOVERY_MSE
        levels[level] = {
            "recovered_change": change,
            "recovered_below_mse_change": stats["recovered_below_mse"] - before["recovered_below_mse"],
            "mse_q3": [parent_q3, q3],
            "mse_q3_ratio": q3 / parent_q3 if parent_q3 else None,
            "mse_q3_bound": q3_bound,
            "passed": change >= -MAX_LEVEL_LOST and q3 <= q3_bound,
        }
    return {
        "parent_recovered": parent["pooled"]["recovered"],
        "recovered": record["pooled"]["recovered"],
        "recovered_floor": floor,
        "levels_with_median_mse_too_high": high,
        "levels": levels,
        "passed": recovery_ok and not high and all(stats["passed"] for stats in levels.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--against", help="a parent's record to check RULE against")
    args = parser.parse_args(argv)
    jobs = [(noise, seed) for noise in NOISE_LEVELS for seed in SEEDS]

    workers = os.cpu_count() or 1
    started = time.perf_counter()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        fits = list(pool.map(fit_one, jobs, chunksize=4))
    wall = time.perf_counter() - started

    config = asdict(GpConfig())
    del config["seed"]  # each fit's seed is its data seed
    config.update(init_depth_range=list(config["init_depth_range"]),
                  constant_range=list(config["constant_range"]))
    levels = {
        repr(noise): summarize([f for f, (level, _) in zip(fits, jobs) if level == noise])
        for noise in NOISE_LEVELS
    }
    record = {
        "ecd_version": ecd.__version__,
        "gp": config,
        "n": N_ROWS,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "rule": RULE,
        "levels": levels,
        "pooled": {
            "fits": len(fits),
            "recovered": sum(stats["recovered"] for stats in levels.values()),
            "recovered_below_mse": sum(stats["recovered_below_mse"] for stats in levels.values()),
        },
        "timing": {
            "wall_s": round(wall, 1),
            "workers": workers,
            "fit_s": {
                repr(noise): quartiles([f["seconds"] for f, (level, _) in zip(fits, jobs) if level == noise])
                for noise in NOISE_LEVELS
            },
        },
    }
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            record["rule_check"] = check_rule(record, json.load(handle))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps({"pooled": record["pooled"], **record.get("rule_check", {})}))
    return 0 if record.get("rule_check", {}).get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())

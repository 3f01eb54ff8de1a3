"""Independent checks of the artifacts ecd writes.

The reference evaluator works on the JSON tree of a model document with plain
numpy and shares no code with ``ecd.exprcore``. Every check raises
CheckFailed; the benchmark counts that as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

# Protected division returns 1.0 when |denominator| is below this.
DIV_EPSILON = 1e-6

QUARTILES = (25.0, 50.0, 75.0)

# How far a recomputed float may sit from the artifact's value. The
# arithmetic is the same IEEE double arithmetic, so in practice they are equal.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# ecd's recovery criterion for the synthetic problem Z = B + C/D.
RECOVERY_MSE = 1e-4
TRUE_SUPPORTS = (frozenset({"B", "C", "D"}), frozenset({"A", "B"}))

# evolve's stopping rule, used only to label why a recorded fit stopped.
STAGNATION_WINDOW = 10
STAGNATION_EPS = 1e-12


class CheckFailed(Exception):
    """An artifact disagrees with the reference."""


def eval_tree(node: dict, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Values of a JSON tree node on n rows of the given columns."""
    if "var" in node:
        return np.asarray(columns[node["var"]], dtype=np.float64)
    if "const" in node:
        return np.full(n, float(node["const"]))
    left, right = (eval_tree(child, columns, n) for child in node["children"])
    op = node["op"]
    with np.errstate(all="ignore"):
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        if op == "mul":
            return left * right
        if op == "pdiv":
            return np.where(np.abs(right) >= DIV_EPSILON, left / right, 1.0)
    raise CheckFailed(f"unknown operator {op!r}")


def tree_support(node: dict) -> set[str]:
    if "var" in node:
        return {node["var"]}
    return set().union(*(tree_support(c) for c in node.get("children", ())))


def tree_size(node: dict) -> int:
    return 1 + sum(tree_size(c) for c in node.get("children", ()))


def same(actual: float, expected: float) -> bool:
    """Equal as floats, NaN matching NaN."""
    if math.isnan(actual) or math.isnan(expected):
        return math.isnan(actual) and math.isnan(expected)
    if math.isinf(actual) or math.isinf(expected):
        return actual == expected
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def stop_reason(min_fitness: Sequence[float], generations: int, threshold: float = 0.0) -> str:
    """Why a fit with this history stopped, by evolve's documented rule."""
    best = None
    flat = 0
    for value in min_fitness:
        previous = best
        if best is None or value < best:
            best = value
        if best <= threshold:
            return "fitness_threshold"
        if previous is not None:
            flat = 0 if previous - best > STAGNATION_EPS else flat + 1
            if flat >= STAGNATION_WINDOW:
                return "stagnation"
    return "max_generations" if len(min_fitness) == generations else "unexplained"


def check_fit(
    out_dir: Path, columns: Mapping[str, np.ndarray], response: str, generations: int
) -> dict:
    """model.json's raw_mse re-evaluates on the input data; history.csv's
    min_fitness never increases. Returns facts about the fit."""
    doc = _load(out_dir / "model.json")
    n = len(columns[response])
    predictions = eval_tree(doc["tree"], columns, n)
    mse = float(np.mean((predictions - columns[response]) ** 2))
    _expect(same(mse, doc["raw_mse"]), f"raw_mse {doc['raw_mse']!r} != reference {mse!r}")

    with open(out_dir / "history.csv", newline="", encoding="utf-8") as handle:
        mins = [float(row["min_fitness"]) for row in csv.DictReader(handle)]
    _expect(bool(mins), "history.csv has no generations")
    for gen in range(1, len(mins)):
        _expect(
            mins[gen] <= mins[gen - 1],
            f"min_fitness rose at generation {gen}: {mins[gen - 1]!r} -> {mins[gen]!r}",
        )
    return {
        "generations_run": len(mins),
        "terminated_by": stop_reason(mins, generations),
        "raw_mse": doc["raw_mse"],
        "size": tree_size(doc["tree"]),
        "tree": doc["tree"],
    }


def recovered(tree: dict, holdout: Mapping[str, np.ndarray], response: str = "Z") -> bool:
    """Holdout MSE below RECOVERY_MSE and a support equal to a true one."""
    n = len(holdout[response])
    mse = float(np.mean((eval_tree(tree, holdout, n) - holdout[response]) ** 2))
    return mse < RECOVERY_MSE and frozenset(tree_support(tree)) in TRUE_SUPPORTS


def quartile_baselines(
    columns: Mapping[str, np.ndarray], names: Sequence[str]
) -> list[dict[str, float]]:
    """Q1, Q2, Q3 bindings: every predictor at the same quartile."""
    per_name = {name: np.percentile(columns[name], QUARTILES) for name in names}
    return [{name: float(per_name[name][q]) for name in names} for q in range(3)]


def _scenario_outputs(tree: dict, scenarios: Sequence[Mapping[str, float]]) -> list[float]:
    """Tree output for each scenario, all scenarios in one vectorised pass."""
    names = scenarios[0].keys()
    columns = {name: np.array([s[name] for s in scenarios]) for name in names}
    return [float(v) for v in eval_tree(tree, columns, len(scenarios))]


def _relative(value: float, magnitude: float) -> float:
    # ecd's relative perturbation falls back to an absolute shift at zero.
    return value + magnitude if value == 0.0 else value * (1.0 + magnitude)


def check_ris(out_dir: Path, model: dict, baselines: Sequence[dict], magnitude: float) -> None:
    """Every impact_table.json cell equals reference(perturbed) - reference(baseline)."""
    table = _load(out_dir / "impact_table.json")
    names = list(model["variables"])
    _expect(
        [row["variable"] for row in table["rows"]] == names,
        "impact table rows do not list the model's variables",
    )
    for q, base in enumerate(baselines):
        scenarios = [base]
        for name in names:
            scenarios.append({**base, name: _relative(base[name], magnitude)})
        outputs = _scenario_outputs(model["tree"], scenarios)
        _expect(
            same(table["baselines"][q], outputs[0]),
            f"baseline Q{q + 1}: {table['baselines'][q]!r} != reference {outputs[0]!r}",
        )
        for k, row in enumerate(table["rows"]):
            expected = outputs[k + 1] - outputs[0]
            _expect(
                same(row["impacts"][q], expected),
                f"impact {row['variable']} Q{q + 1}: {row['impacts'][q]!r} != {expected!r}",
            )


def check_counterfactual(
    out_dir: Path, model: dict, scenario: Mapping[str, float], variable: str, value: float
) -> None:
    """counterfactual.json impact equals the reference's."""
    report = _load(out_dir / "counterfactual.json")
    base, pert = _scenario_outputs(model["tree"], [scenario, {**scenario, variable: value}])
    _expect(
        same(report["impact"], pert - base),
        f"counterfactual impact {report['impact']!r} != reference {pert - base!r}",
    )


def check_simplify(
    out_dir: Path, model: dict, baselines: Sequence[dict], threshold: float
) -> int:
    """simplified_model.json matches the original at Q1..Q3 within threshold.

    Returns the number of pruned subtrees.
    """
    doc = _load(out_dir / "simplified_model.json")
    pruned = len(doc["pruned_node_ids"])
    if not pruned:
        _expect(doc["tree"] == model["tree"], "tree changed although nothing was pruned")
        return 0
    before = _scenario_outputs(model["tree"], baselines)
    after = _scenario_outputs(doc["tree"], baselines)
    for q, (a, b) in enumerate(zip(before, after)):
        _expect(
            abs(a - b) <= threshold,
            f"simplified output at Q{q + 1} moved {abs(a - b)!r} > threshold {threshold!r}",
        )
    return pruned

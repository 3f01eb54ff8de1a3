"""Relative impact stratification: perturb inputs, propagate through a fitted
expression tree, and report how the output and every internal node move.

Impacts are exact differences of double-precision evaluations; no finite
differencing or linearization is involved. Quartile sweeps hold every other
predictor at the same quartile, and impact tables format like the published
layout (impacts to 3 decimals, baselines to 1) while JSON keeps full precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataio import Dataset
from .errors import EmptyColumn, InvalidConfig, MissingVariable, NonFiniteBaseline
from .exprcore import (
    ExpressionTree,
    Operator,
    const_node,
    dependency_set,
    evaluate,
    evaluate_nodes,
    replace_at,
)

QUARTILE_LABELS = ("Q1", "Q2", "Q3")

DEFAULT_MAGNITUDE = 0.05


class Mode(enum.Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"
    SET_TO = "set_to"


@dataclass(frozen=True)
class BaselineSpec:
    """Named assignment of one value to each predictor."""

    values: Mapping[str, float]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))


@dataclass(frozen=True)
class PerturbationSpec:
    """One variable to nudge: relative scales by (1 + magnitude), absolute
    shifts by magnitude, set_to replaces the value outright."""

    variable: str
    mode: Mode = Mode.RELATIVE
    magnitude: float = DEFAULT_MAGNITUDE


@dataclass(frozen=True)
class NodeImpact:
    baseline_value: float
    perturbed_value: float
    delta: float


@dataclass(frozen=True)
class ImpactReport:
    variable: str
    baseline_label: str
    baseline_output: float
    perturbed_output: float
    impact: float
    node_impacts: Mapping[int, NodeImpact]
    unused_variable: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "node_impacts", dict(self.node_impacts))

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "baseline_label": self.baseline_label,
            "baseline_output": self.baseline_output,
            "perturbed_output": self.perturbed_output,
            "impact": self.impact,
            "unused_variable": self.unused_variable,
            "notes": list(self.notes),
            "node_impacts": {
                str(node_id): {
                    "baseline_value": ni.baseline_value,
                    "perturbed_value": ni.perturbed_value,
                    "delta": ni.delta,
                }
                for node_id, ni in sorted(self.node_impacts.items())
            },
        }

    def annotations(self) -> dict[int, str]:
        """Per-node label suffixes for exprcore.to_dot."""
        return {
            node_id: f"{ni.baseline_value:.3f} -> {ni.perturbed_value:.3f} ({format_impact(ni.delta)})"
            for node_id, ni in self.node_impacts.items()
        }


def format_impact(value: float) -> str:
    if round(value, 3) == 0:
        return "±0.000"
    return f"{value:+.3f}"


def format_baseline(value: float) -> str:
    return f"{value:.1f}"


def _check_finite(baseline: BaselineSpec) -> None:
    for name, value in baseline.values.items():
        if not math.isfinite(value):
            raise NonFiniteBaseline(name, value)


def perturbed_values(
    baseline: BaselineSpec, perturbation: PerturbationSpec
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Apply one perturbation to a copy of the baseline bindings.

    Relative mode at a zero baseline value has nothing to scale, so it falls
    back to an absolute shift; the returned notes record that.
    """
    name = perturbation.variable
    if name not in baseline.values:
        raise MissingVariable(name)
    values = dict(baseline.values)
    current = float(values[name])
    notes: tuple[str, ...] = ()
    if perturbation.mode is Mode.RELATIVE:
        if current == 0.0:
            values[name] = current + perturbation.magnitude
            notes = (
                f"relative perturbation of {name} fell back to absolute: baseline is 0",
            )
        else:
            values[name] = current * (1.0 + perturbation.magnitude)
    elif perturbation.mode is Mode.ABSOLUTE:
        values[name] = current + perturbation.magnitude
    else:
        values[name] = float(perturbation.magnitude)
    return values, notes


def ris(
    tree: ExpressionTree,
    baseline: BaselineSpec,
    perturbations: Sequence[PerturbationSpec],
) -> list[ImpactReport]:
    """One ImpactReport per perturbation, all against the same baseline.

    A perturbation naming a variable the tree never reads still yields a
    report (impact 0) with unused_variable set, so sweeps over a fixed
    predictor list stay total.
    """
    _check_finite(baseline)
    base_nodes = evaluate_nodes(tree, baseline.values)
    deps = dependency_set(tree)

    reports = []
    for perturbation in perturbations:
        values, notes = perturbed_values(baseline, perturbation)
        pert_nodes = evaluate_nodes(tree, values)
        node_impacts = {
            node_id: NodeImpact(
                baseline_value=base_nodes[node_id],
                perturbed_value=pert_nodes[node_id],
                delta=pert_nodes[node_id] - base_nodes[node_id],
            )
            for node_id in base_nodes
        }
        reports.append(
            ImpactReport(
                variable=perturbation.variable,
                baseline_label=baseline.label,
                baseline_output=base_nodes[0],
                perturbed_output=pert_nodes[0],
                impact=pert_nodes[0] - base_nodes[0],
                node_impacts=node_impacts,
                unused_variable=perturbation.variable not in deps,
                notes=notes,
            )
        )
    return reports


def quartile_baselines(
    data: Dataset, predictors: Sequence[str]
) -> tuple[BaselineSpec, BaselineSpec, BaselineSpec]:
    """Q1/Q2/Q3 BaselineSpecs, linear interpolation between order statistics."""
    per_quartile: list[dict[str, float]] = [{}, {}, {}]
    for name in predictors:
        col = data.column(name)
        if col.shape[0] == 0:
            raise EmptyColumn(name)
        q1, q2, q3 = np.percentile(col, [25.0, 50.0, 75.0])
        for slot, value in zip(per_quartile, (q1, q2, q3)):
            slot[name] = float(value)
    return tuple(
        BaselineSpec(values, label)
        for values, label in zip(per_quartile, QUARTILE_LABELS)
    )


@dataclass(frozen=True)
class QuartileImpactTable:
    """Impacts of one shared perturbation per predictor at Q1/Q2/Q3, plus the
    tree's response at each quartile baseline."""

    rows: tuple[tuple[str, tuple[float, float, float]], ...]
    baselines: tuple[float, float, float]
    mode: Mode
    magnitude: float
    reports: Mapping[str, tuple[ImpactReport, ImpactReport, ImpactReport]] = field(
        default_factory=dict, repr=False
    )

    def to_text(self) -> str:
        name_width = max(
            [len("Variable"), len("Baseline")] + [len(name) for name, _ in self.rows]
        )
        header = f"{'Variable':<{name_width}}"
        for label in QUARTILE_LABELS:
            header += f"  {label:>8}"
        lines = [
            f"Impact at quartiles ({self.mode.value} perturbation, magnitude {self.magnitude:g})",
            header,
            "-" * len(header),
        ]
        for name, impacts in self.rows:
            line = f"{name:<{name_width}}"
            for value in impacts:
                line += f"  {format_impact(value):>8}"
            lines.append(line)
        lines.append("-" * len(header))
        base = f"{'Baseline':<{name_width}}"
        for value in self.baselines:
            base += f"  {format_baseline(value):>8}"
        lines.append(base)
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "perturbation": {"mode": self.mode.value, "magnitude": self.magnitude},
            "quartiles": list(QUARTILE_LABELS),
            "baselines": list(self.baselines),
            "rows": [
                {"variable": name, "impacts": list(impacts)} for name, impacts in self.rows
            ],
        }


def quartile_impact_table(
    tree: ExpressionTree,
    data: Dataset,
    predictors: Sequence[str],
    perturbation_mode: Mode = Mode.RELATIVE,
    magnitude: float = DEFAULT_MAGNITUDE,
) -> QuartileImpactTable:
    """One ris run per (predictor, quartile), others held at the co-quartile
    baseline. Full-precision impacts; formatting happens in to_text."""
    baselines = quartile_baselines(data, predictors)
    rows = []
    reports: dict[str, tuple[ImpactReport, ...]] = {}
    for name in predictors:
        spec = PerturbationSpec(name, perturbation_mode, magnitude)
        cells = tuple(ris(tree, baseline, [spec])[0] for baseline in baselines)
        reports[name] = cells
        rows.append((name, tuple(cell.impact for cell in cells)))
    outputs = tuple(evaluate(tree, baseline.values) for baseline in baselines)
    return QuartileImpactTable(
        rows=tuple(rows),
        baselines=outputs,
        mode=perturbation_mode,
        magnitude=magnitude,
        reports=reports,
    )


def counterfactual(
    tree: ExpressionTree, scenario: BaselineSpec, intervention: PerturbationSpec
) -> ImpactReport:
    """RIS against a user-supplied scenario instead of a statistical baseline."""
    return ris(tree, scenario, [intervention])[0]


def simplify_by_impact(
    tree: ExpressionTree,
    data: Dataset,
    predictors: Sequence[str],
    magnitude: float = DEFAULT_MAGNITUDE,
    threshold: float = 0.0,
) -> tuple[ExpressionTree, list[int]]:
    """Replace inert subtrees with constants.

    A subtree qualifies when every operator node inside it moves by at most
    threshold across all (predictor, quartile) relative perturbations. Each
    maximal such subtree is replaced by a Constant holding its Q2-baseline
    value, but only if the whole simplified tree still matches the original
    at all three quartile baselines within threshold. Returned ids are the
    pruned subtree roots, numbered in the original tree.
    """
    if not threshold >= 0:
        raise InvalidConfig(f"threshold must be nonnegative, got {threshold!r}")
    baselines = quartile_baselines(data, predictors)

    max_delta = {node_id: 0.0 for node_id in range(tree.size)}
    for baseline in baselines:
        specs = [
            PerturbationSpec(name, Mode.RELATIVE, magnitude) for name in predictors
        ]
        for report in ris(tree, baseline, specs):
            for node_id, ni in report.node_impacts.items():
                delta = abs(ni.delta)
                if delta > max_delta[node_id]:
                    max_delta[node_id] = delta

    # Maximal subtrees whose operator nodes are all quiet: one pass from the
    # last node back marks every qualifying subtree (leaves qualify, an
    # operator when it is quiet and both operands qualify); a scan from the
    # root then takes the highest qualifying operators, skipping their
    # subtrees, so candidates are disjoint and in preorder.
    tokens, ends = tree.tokens, tree.ends
    ok = [True] * tree.size
    for node_id in range(tree.size - 1, -1, -1):
        if isinstance(tokens[node_id], Operator):
            ok[node_id] = (
                max_delta[node_id] <= threshold and ok[node_id + 1] and ok[ends[node_id + 1]]
            )
    candidates: list[int] = []
    node_id = 0
    while node_id < tree.size:
        if ok[node_id] and isinstance(tokens[node_id], Operator):
            candidates.append(node_id)
            node_id = ends[node_id]
        else:
            node_id += 1

    if not candidates:
        return tree, []

    q2_values = evaluate_nodes(tree, baselines[1].values)
    original_outputs = [evaluate(tree, b.values) for b in baselines]

    current = tree
    shift = 0  # nodes removed so far ahead of the next candidate
    pruned: list[int] = []
    for orig_id in candidates:
        candidate = ExpressionTree(
            replace_at(current, orig_id - shift, const_node(q2_values[orig_id]))
        )
        if all(
            abs(evaluate(candidate, b.values) - original)
            <= threshold
            for b, original in zip(baselines, original_outputs)
        ):
            current = candidate
            shift += ends[orig_id] - orig_id - 1
            pruned.append(orig_id)

    return current, pruned

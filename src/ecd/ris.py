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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import Dataset
from .errors import EmptyColumn, InvalidConfig, MissingVariable, NonFiniteBaseline
from .exprcore import (
    LABEL_CUTOFF,
    ExpressionTree,
    Operator,
    const_node,
    dependency_set,
    evaluate,  # not called here: perfbench's tracer rebinds ris.evaluate
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
    """Named assignment of one finite value to each predictor."""

    values: Mapping[str, float]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise NonFiniteBaseline(name, value)


@dataclass(frozen=True)
class PerturbationSpec:
    """One variable to nudge: relative scales by (1 + magnitude), absolute
    shifts by magnitude, set_to replaces the value outright."""

    variable: str
    mode: Mode = Mode.RELATIVE
    magnitude: float = DEFAULT_MAGNITUDE

    def __post_init__(self):
        if not math.isfinite(self.magnitude):
            raise InvalidConfig(f"perturbation of {self.variable!r} is not finite: {self.magnitude!r}")


@dataclass(frozen=True)
class ImpactReport:
    """How one perturbation moves every node: node i's value before and after
    is at index i of baseline_values and perturbed_values. The reports of one
    ris call share one baseline_values tuple."""

    variable: str
    baseline_label: str
    baseline_values: tuple[float, ...]
    perturbed_values: tuple[float, ...]
    unused_variable: bool = False
    notes: tuple[str, ...] = ()

    @property
    def baseline_output(self) -> float:
        return self.baseline_values[0]

    @property
    def perturbed_output(self) -> float:
        return self.perturbed_values[0]

    @property
    def impact(self) -> float:
        return self.perturbed_values[0] - self.baseline_values[0]

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
                str(node_id): {"baseline_value": b, "perturbed_value": p, "delta": p - b}
                for node_id, (b, p) in enumerate(zip(self.baseline_values, self.perturbed_values))
            },
        }

    def annotations(self, moved_only: bool = False) -> dict[int, str]:
        """Per-node label suffixes for exprcore.to_dot; moved_only keeps the nodes
        whose text can differ from annotation(b, b): p != b, NaN or a zero's sign flip."""
        return {
            node_id: annotation(b, p)
            for node_id, (b, p) in enumerate(zip(self.baseline_values, self.perturbed_values))
            if not moved_only or p != b or (not p and math.copysign(1.0, p) != math.copysign(1.0, b))
        }


def annotation(before: float, after: float) -> str:
    """A node's value before and after a perturbation, and the change."""
    return f"{format_value(before)} -> {format_value(after)} ({format_impact(after - before)})"


def format_value(value: float, spec: str = ".3") -> str:
    """value in fixed point to spec's sign and precision (3 decimals by
    default), or in exponent form outside (-LABEL_CUTOFF, LABEL_CUTOFF);
    nan and inf read as in fixed point."""
    return f"{value:{spec}f}" if -LABEL_CUTOFF < value < LABEL_CUTOFF else f"{value:{spec}e}"


def format_impact(value: float) -> str:
    """A signed change to 3 decimals, or ±0.000 where it rounds to 0."""
    return "±0.000" if round(value, 3) == 0 else format_value(value, "+.3")


def format_baseline(value: float) -> str:
    """A baseline to 1 decimal, as format_value prints it."""
    return format_value(value, ".1")


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


def _scenario_nodes(
    tree: ExpressionTree,
    baseline: BaselineSpec,
    perturbations: Sequence[PerturbationSpec],
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """Node values of the baseline and of each perturbed copy of it, in one
    evaluation: column 0 is the baseline, column k + 1 perturbation k. Also
    returns each perturbation's notes."""
    scenarios = [baseline.values]
    notes = []
    for perturbation in perturbations:
        values, note = perturbed_values(baseline, perturbation)
        scenarios.append(values)
        notes.append(note)
    columns = {name: [values[name] for values in scenarios] for name in baseline.values}
    return evaluate_nodes(tree, columns), notes


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
    nodes, notes = _scenario_nodes(tree, baseline, perturbations)
    base, *perturbed = map(tuple, nodes.T.tolist())
    deps = dependency_set(tree)
    return [
        ImpactReport(
            variable=perturbation.variable,
            baseline_label=baseline.label,
            baseline_values=base,
            perturbed_values=pert,
            unused_variable=perturbation.variable not in deps,
            notes=note,
        )
        for perturbation, pert, note in zip(perturbations, perturbed, notes)
    ]


def quartile_baselines(
    data: Dataset, predictors: Sequence[str]
) -> tuple[BaselineSpec, BaselineSpec, BaselineSpec]:
    """Q1/Q2/Q3 BaselineSpecs, linear interpolation between order statistics."""
    columns = []
    for name in predictors:
        columns.append(data.column(name))
        if columns[-1].shape[0] == 0:
            raise EmptyColumn(name)
    matrix = np.reshape(columns, (len(columns), data.n_rows))  # 2-D even with no predictors
    percents = (25.0, 50.0, 75.0)
    with np.errstate(over="ignore", invalid="ignore"):
        quartiles = np.percentile(matrix, percents, axis=1)
    # numpy interpolates as a + (b - a)·t, and b - a overflows where the two
    # order statistics lie far apart on either side of 0. (1 - t)·a + t·b
    # cannot overflow there; it is used only where numpy's result is not
    # finite, so other quartiles keep numpy's bits.
    for k, j in zip(*np.nonzero(~np.isfinite(quartiles))):
        if np.isfinite(matrix[j]).all():
            ordered = np.sort(matrix[j])
            h = (data.n_rows - 1) * percents[k] / 100.0
            i = math.floor(h)
            t = h - i
            quartiles[k, j] = (1.0 - t) * ordered[i] + t * ordered[min(i + 1, data.n_rows - 1)]
    return tuple(
        BaselineSpec(dict(zip(predictors, values)), label)
        for values, label in zip(quartiles.tolist(), QUARTILE_LABELS)
    )


@dataclass(frozen=True)
class QuartileImpactTable:
    """Impacts of one shared perturbation per predictor at Q1/Q2/Q3, plus the
    tree's response at each quartile baseline, read from each predictor's
    three reports."""

    reports: Mapping[str, tuple[ImpactReport, ImpactReport, ImpactReport]]
    mode: Mode
    magnitude: float

    @property
    def rows(self) -> tuple[tuple[str, tuple[float, float, float]], ...]:
        return tuple(
            (name, tuple(report.impact for report in cells)) for name, cells in self.reports.items()
        )

    @property
    def baselines(self) -> tuple[float, float, float]:
        return tuple(report.baseline_output for report in next(iter(self.reports.values())))

    def to_text(self) -> str:
        width = max(len(name) for name in ("Variable", "Baseline", *(name for name, _ in self.rows)))

        def line(label: str, cells) -> str:
            return f"{label:<{width}}" + "".join(f"  {cell:>8}" for cell in cells)

        header = line("Variable", QUARTILE_LABELS)
        rule = "-" * len(header)
        lines = [
            f"Impact at quartiles ({self.mode.value} perturbation, magnitude {self.magnitude:g})",
            header,
            rule,
        ]
        lines += [line(name, map(format_impact, impacts)) for name, impacts in self.rows]
        lines += [rule, line("Baseline", map(format_baseline, self.baselines))]
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
    """One ris run per quartile baseline, perturbing each predictor in turn
    while the others stay at that quartile. Full-precision impacts;
    formatting happens in to_text."""
    if not predictors or len(set(predictors)) != len(predictors):
        raise InvalidConfig(f"an impact table needs distinct predictors, got {list(predictors)}")
    specs = [PerturbationSpec(name, perturbation_mode, magnitude) for name in predictors]
    per_quartile = [ris(tree, baseline, specs) for baseline in quartile_baselines(data, predictors)]
    return QuartileImpactTable(
        dict(zip(predictors, zip(*per_quartile))), perturbation_mode, magnitude
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
    if not 0 <= threshold < math.inf:
        raise InvalidConfig(f"threshold must be nonnegative and finite, got {threshold!r}")
    baselines = quartile_baselines(data, predictors)
    specs = [PerturbationSpec(name, Mode.RELATIVE, magnitude) for name in predictors]
    per_quartile = [_scenario_nodes(tree, baseline, specs)[0] for baseline in baselines]
    # Every node's largest |delta| over all cells; fmax skips NaN deltas, such
    # as inf - inf at a node that is inf at a baseline.
    with np.errstate(invalid="ignore"):
        deltas = np.hstack([np.abs(nodes[:, 1:] - nodes[:, :1]) for nodes in per_quartile])
    max_delta = np.fmax.reduce(deltas, axis=1, initial=0.0).tolist()

    # Maximal subtrees whose operator nodes are all quiet: one pass from the
    # last node back marks every qualifying subtree (leaves qualify, an
    # operator when it is quiet and both operands qualify); a scan from the
    # root then takes the highest qualifying operators with a finite Q2 value
    # (the constant that replaces them), skipping their subtrees, so
    # candidates are disjoint and in preorder.
    q2_values = per_quartile[1][:, 0]
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
        if ok[node_id] and isinstance(tokens[node_id], Operator) and math.isfinite(q2_values[node_id]):
            candidates.append(node_id)
            node_id = ends[node_id]
        else:
            node_id += 1

    if not candidates:
        return tree, []

    # A candidate is checked in one evaluation over the three baselines; a
    # non-finite gap (inf - inf is NaN) fails the check quietly.
    columns = {name: [b.values[name] for b in baselines] for name in baselines[0].values}
    original_outputs = np.array([nodes[0, 0] for nodes in per_quartile])

    current = tree
    shift = 0  # nodes removed so far ahead of the next candidate
    pruned: list[int] = []
    for orig_id in candidates:
        candidate = ExpressionTree(
            replace_at(current, orig_id - shift, const_node(q2_values[orig_id]))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.abs(evaluate_nodes(candidate, columns)[0] - original_outputs)
        if (gaps <= threshold).all():
            current = candidate
            shift += ends[orig_id] - orig_id - 1
            pruned.append(orig_id)

    return current, pruned

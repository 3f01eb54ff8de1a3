"""End-to-end acceptance checks, one test per shipped guarantee.

Run with pytest -v: each test prints a single PASS/FAIL line, echoed as a
block before the summary, and fails loudly if its bar is not met. The
expensive evolution sweeps are shared across tests through session fixtures.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import VARS, naive_derivative, naive_eval, operands, random_tree

from ecd.dataio import Dataset
from ecd.exprcore import (
    ExpressionTree,
    Operator,
    const_node,
    evaluate,
    op_node,
    replace_at,
    to_dot,
    var_node,
)
from ecd.gpsr import GpConfig, evolve, history_to_csv, model_document
from ecd.ris import (
    BaselineSpec,
    Mode,
    PerturbationSpec,
    quartile_baselines,
    quartile_impact_table,
    ris,
    simplify_by_impact,
)
from ecd.synthbench import (
    SynthConfig,
    generate,
    holdout_data,
    run_benchmark,
)

RECOVERY_GP = GpConfig(population_size=2000, generations=30)

RECOVERY_MSE = 1e-4
RUN_BUDGET_SEC = 300.0


_RESULT_LINES: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def _criterion_summary(request):
    """Echo the collected PASS/FAIL lines past output capture at session end."""
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and _RESULT_LINES:
        reporter.ensure_newline()
        for line in _RESULT_LINES:
            reporter.write_line(line)


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    _RESULT_LINES.append(line)
    assert ok, f"criterion {number} {name}{suffix}"


@pytest.fixture(scope="session")
def holdout():
    return holdout_data()


@pytest.fixture(scope="session")
def noiseless_runs():
    # Seeds 0-9: repeat r runs at data seed and search seed r.
    return run_benchmark(RECOVERY_GP, [SynthConfig(n=500, seed=0, noise_percent=0.0)], repeats=10)


@pytest.fixture(scope="session")
def noisy_r2(holdout):
    variance = float(np.var(holdout.column("Z")))
    best = {}
    for noise in (0.02, 0.05):
        bench = run_benchmark(
            RECOVERY_GP, [SynthConfig(n=500, seed=0, noise_percent=noise)], repeats=10
        )
        min_mse = min(run.best_mse for run in bench)
        best[noise] = 1.0 - min_mse / variance
    return best


def test_01_synthetic_recovery(noiseless_runs):
    good = [r for r in noiseless_runs if r.best_mse < RECOVERY_MSE]
    slowest = max(r.runtime_sec for r in noiseless_runs)
    ok = (
        len(good) >= 8
        and all(r.support_jaccard == 1.0 for r in good)
        and slowest < RUN_BUDGET_SEC
    )
    report(
        1,
        "synthetic recovery",
        ok,
        f"{len(good)}/10 runs under mse {RECOVERY_MSE:g} with full support overlap, "
        f"slowest run {slowest:.1f}s",
    )


def test_02_noise_robustness(noisy_r2):
    ok = all(noisy_r2[noise] >= 0.95 for noise in (0.02, 0.05))
    report(
        2,
        "noise robustness",
        ok,
        f"best-of-10 R2: 2%={noisy_r2[0.02]:.4f}, 5%={noisy_r2[0.05]:.4f}",
    )


def test_03_perturbation_oracle_equivalence():
    rng = np.random.default_rng(777)
    modes = (Mode.RELATIVE, Mode.ABSOLUTE, Mode.SET_TO)
    mismatches = 0
    for i in range(1000):
        tree = random_tree(rng)
        bindings = {name: float(rng.uniform(-10.0, 10.0)) for name in VARS}
        name = VARS[int(rng.integers(0, len(VARS)))]
        mode = modes[i % 3]
        if mode is Mode.SET_TO:
            magnitude = float(rng.uniform(-10.0, 10.0))
        else:
            magnitude = float(rng.uniform(-0.5, 0.5))
        shifted = dict(bindings)
        current = shifted[name]
        if mode is Mode.RELATIVE:
            shifted[name] = current + magnitude if current == 0.0 else current * (1.0 + magnitude)
        elif mode is Mode.ABSOLUTE:
            shifted[name] = current + magnitude
        else:
            shifted[name] = magnitude
        expected = naive_eval(tree.tokens, shifted) - naive_eval(tree.tokens, bindings)
        (rep,) = ris(tree, BaselineSpec(bindings, "b"), [PerturbationSpec(name, mode, magnitude)])
        if rep.impact != expected:
            mismatches += 1
    report(3, "perturbation oracle equivalence", mismatches == 0, f"{mismatches}/1000 mismatches")


def _denominators_bounded(tokens, bindings, floor=1e-3):
    if not isinstance(tokens[0], Operator):
        return True
    left, right = operands(tokens)
    if tokens[0] is Operator.PDIV:
        if abs(naive_eval(right, bindings)) < floor:
            return False
    return all(_denominators_bounded(child, bindings, floor) for child in (left, right))


def test_04_derivative_consistency():
    # forward difference at delta=1e-6 against the analytic derivative; cases
    # keep every division denominator >= 1e-3 and the derivative >= 1e-2 so
    # the difference quotient is numerically meaningful
    rng = np.random.default_rng(4242)
    delta = 1e-6
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 100 and attempts < 10_000:
        attempts += 1
        tree = random_tree(rng, max_depth=4)
        bindings = {name: float(rng.uniform(-3.0, 3.0)) for name in VARS}
        name = VARS[int(rng.integers(0, len(VARS)))]
        if not _denominators_bounded(tree.tokens, bindings):
            continue
        derivative = naive_derivative(tree.tokens, name, bindings)
        if abs(derivative) < 1e-2:
            continue
        (rep,) = ris(
            tree, BaselineSpec(bindings, "b"), [PerturbationSpec(name, Mode.ABSOLUTE, delta)]
        )
        relative_error = abs(rep.impact / delta - derivative) / abs(derivative)
        worst = max(worst, relative_error)
        accepted += 1
    ok = accepted == 100 and worst < 1e-3
    report(
        4,
        "derivative consistency",
        ok,
        f"{accepted} cases, worst relative error {worst:.2e}",
    )


def test_05_zero_perturbation_identity():
    rng = np.random.default_rng(20107)
    violations = 0
    for i in range(1000):
        tree = random_tree(rng)
        bindings = {name: float(rng.uniform(-10.0, 10.0)) for name in VARS}
        name = VARS[int(rng.integers(0, len(VARS)))]
        if i % 3 == 0:
            spec = PerturbationSpec(name, Mode.RELATIVE, 0.0)
        elif i % 3 == 1:
            spec = PerturbationSpec(name, Mode.ABSOLUTE, 0.0)
        else:
            spec = PerturbationSpec(name, Mode.SET_TO, bindings[name])
        (rep,) = ris(tree, BaselineSpec(bindings, "b"), [spec])
        deltas = (p - b for b, p in zip(rep.baseline_values, rep.perturbed_values))
        if rep.impact != 0.0 or any(delta != 0.0 for delta in deltas):
            violations += 1
    report(5, "zero perturbation identity", violations == 0, f"{violations}/1000 violations")


def test_06_elitist_monotonicity(noiseless_runs):
    bad_runs = 0
    for run in noiseless_runs:
        mins = [stats.min_fitness for stats in run.result.history]
        if any(later > earlier for earlier, later in zip(mins, mins[1:])):
            bad_runs += 1
    report(6, "elitist monotonicity", bad_runs == 0, f"{bad_runs}/10 runs regressed")


def _contains_slice(tokens, part):
    # A run of tokens equal to a whole subtree's tokens is that subtree, so
    # this finds the injected subtree wherever it survived, and any other
    # subtree equal to it as well.
    return any(tokens[i : i + len(part)] == part for i in range(len(tokens) - len(part) + 1))


def test_07_simplification_safety():
    rng = np.random.default_rng(2024)
    remained = 0
    disagreements = 0
    threshold = 0.0
    for _ in range(100):
        base = random_tree(rng, max_depth=4)
        leaf = var_node(VARS[int(rng.integers(0, len(VARS)))])
        inert = op_node(Operator.MUL, const_node(0.0), leaf)
        victim = int(rng.integers(0, base.size))
        if victim == 0 and base.size == 1:
            tokens = inert
        elif victim == 0:
            tokens = op_node(Operator.ADD, base.tokens, inert)
        else:
            tokens = replace_at(base, victim, inert)
        tree = ExpressionTree(tokens)
        data = Dataset({name: rng.uniform(0.5, 9.5, 30) for name in VARS})
        simplified, _ = simplify_by_impact(tree, data, list(VARS), threshold=threshold)
        if _contains_slice(simplified.tokens, inert):
            remained += 1
        for spec in quartile_baselines(data, list(VARS)):
            if abs(evaluate(simplified, spec.values) - evaluate(tree, spec.values)) > threshold:
                disagreements += 1
                break
    ok = remained == 0 and disagreements == 0
    report(
        7,
        "simplification safety",
        ok,
        f"{remained}/100 injected subtrees survived, {disagreements}/100 baseline disagreements",
    )


def test_08_determinism(noiseless_runs, tmp_path):
    data, truth = generate(SynthConfig(n=500, seed=0, noise_percent=0.0))
    config = replace(RECOVERY_GP, seed=0)
    rerun = evolve(data, truth.response, config)
    first = noiseless_runs[0].result
    predictors = [n for n in data.names if n != truth.response]

    model_a = json.dumps(model_document(first.best, predictors, config), indent=2, sort_keys=True)
    model_b = json.dumps(model_document(rerun.best, predictors, config), indent=2, sort_keys=True)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    path_a.write_text(history_to_csv(first.history), encoding="utf-8", newline="")
    path_b.write_text(history_to_csv(rerun.history), encoding="utf-8", newline="")
    same_model = model_a.encode() == model_b.encode()
    same_history = path_a.read_bytes() == path_b.read_bytes()
    report(
        8,
        "determinism",
        same_model and same_history,
        f"model bytes equal: {same_model}, history bytes equal: {same_history}",
    )


IMPACT_CELL = re.compile(r"^(?:[+-]\d+\.\d{3}|±0\.000)$")
BASELINE_CELL = re.compile(r"^-?\d+\.\d$")


def test_09_impact_table_layout():
    predictors = ("P1", "P2", "P3", "P4")
    tree = ExpressionTree(
        op_node(
            Operator.SUB,
            op_node(
                Operator.ADD,
                var_node("P1"),
                op_node(Operator.MUL, var_node("P2"), var_node("P3")),
            ),
            var_node("P4"),
        )
    )
    rng = np.random.default_rng(6)
    data = Dataset(
        {
            "P1": rng.uniform(20.0, 40.0, 50),
            "P2": rng.uniform(1.0, 5.0, 50),
            "P3": rng.uniform(0.5, 2.0, 50),
            "P4": rng.uniform(4.0, 10.0, 50),
        }
    )
    table = quartile_impact_table(tree, data, predictors, Mode.RELATIVE, 0.05)
    lines = table.to_text().splitlines()

    ok = len(lines) == 9
    ok = ok and lines[1].split() == ["Variable", "Q1", "Q2", "Q3"]
    ok = ok and [line.split()[0] for line in lines[3:7]] == list(predictors)
    for line in lines[3:7]:
        cells = line.split()[1:]
        ok = ok and len(cells) == 3 and all(IMPACT_CELL.match(c) for c in cells)
    baseline_cells = lines[8].split()[1:]
    ok = ok and lines[8].startswith("Baseline")
    ok = ok and len(baseline_cells) == 3 and all(BASELINE_CELL.match(c) for c in baseline_cells)
    report(
        9,
        "impact table layout",
        ok,
        "4 predictor rows x 3 quartiles, impacts .3f, baselines .1f",
    )


DOT_NODE = re.compile(r"^  (n\d+) \[label=\"(?:[^\"\\]|\\.)*\" shape=(box|ellipse)\];$")
DOT_EDGE = re.compile(r"^  (n\d+) -> (n\d+);$")


def _check_dot(text):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "digraph expression_tree {" or lines[-1] != "}":
        return "bad frame"
    shapes = {}
    edges = []
    for line in lines[1:-1]:
        node_match = DOT_NODE.match(line)
        edge_match = DOT_EDGE.match(line)
        if node_match:
            shapes[node_match.group(1)] = node_match.group(2)
        elif edge_match:
            edges.append((edge_match.group(1), edge_match.group(2)))
        else:
            return f"unparsed line: {line!r}"
    in_degree = {name: 0 for name in shapes}
    adjacency = {name: [] for name in shapes}
    for src, dst in edges:
        if src not in shapes or dst not in shapes:
            return f"edge references undeclared node: {src} -> {dst}"
        in_degree[dst] += 1
        adjacency[src].append(dst)

    state = dict.fromkeys(shapes, 0)

    def dfs(name):
        state[name] = 1
        for nxt in adjacency[name]:
            if state[nxt] == 1:
                return True
            if state[nxt] == 0 and dfs(nxt):
                return True
        state[name] = 2
        return False

    for name in shapes:
        if state[name] == 0 and dfs(name):
            return "cycle detected"
    for name, shape in shapes.items():
        if shape == "box" and in_degree[name] != 0:
            return f"leaf {name} has incoming edges"
        if shape == "ellipse" and in_degree[name] != 2:
            return f"operator {name} in-degree {in_degree[name]}"
    return None


def test_10_dot_validity():
    rng = np.random.default_rng(31415)
    failures = []
    samples = 0
    for _ in range(100):
        tree = random_tree(rng)
        problem = _check_dot(to_dot(tree))
        samples += 1
        if problem:
            failures.append(problem)
    for _ in range(10):
        tree = random_tree(rng)
        bindings = {name: float(rng.uniform(1.0, 5.0)) for name in VARS}
        name = VARS[int(rng.integers(0, len(VARS)))]
        (rep,) = ris(
            tree, BaselineSpec(bindings, "b"), [PerturbationSpec(name, Mode.RELATIVE, 0.05)]
        )
        problem = _check_dot(to_dot(tree, rep.annotations()))
        samples += 1
        if problem:
            failures.append(problem)
    for single in (ExpressionTree(var_node("x")), ExpressionTree(const_node(-2.5))):
        problem = _check_dot(to_dot(single))
        samples += 1
        if problem:
            failures.append(problem)
    detail = f"{samples} graphs checked"
    if failures:
        detail += f"; first failure: {failures[0]}"
    report(10, "dot validity", not failures, detail)

"""Property tests: invariants checked over generated trees and scenarios.

Runs are derandomized, so every run draws the same examples, and bounded, so
the suite's time barely moves.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import VARS, naive_eval
from ecd.cli import FIELDS, main
from ecd.dataio import Dataset
from ecd.exprcore import (
    ExpressionTree,
    Operator,
    const_node,
    evaluate,
    evaluate_nodes,
    op_node,
    subtree_at,
    tree_from_json,
    tree_to_json,
    var_node,
)
from ecd.gpsr import GpConfig, crossover, mutate
from ecd.ris import quartile_baselines, simplify_by_impact

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

moderate = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.sampled_from(VARS).map(var_node),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False).map(const_node),
)
tokens = st.recursive(
    leaves,
    lambda children: st.builds(op_node, st.sampled_from(list(Operator)), children, children),
    max_leaves=24,
)
trees = tokens.map(ExpressionTree)


@PROPERTY
@given(trees, st.lists(st.fixed_dictionaries({n: moderate for n in VARS}), min_size=1, max_size=4))
def test_evaluate_nodes_matches_naive_eval_of_every_subtree(tree, scenarios):
    values = evaluate_nodes(tree, {n: [s[n] for s in scenarios] for n in VARS})
    expected = [
        [naive_eval(subtree_at(tree, node_id), s) for s in scenarios] for node_id in range(tree.size)
    ]
    assert values.tobytes() == np.array(expected).tobytes()


@PROPERTY
@given(
    trees,
    st.lists(st.tuples(*[st.floats(0.5, 9.5)] * len(VARS)), min_size=1, max_size=12),
    st.sampled_from([0.0, 1e-9, 0.01, 0.5]),
    st.sampled_from([1e-6, 0.05]),
)
def test_simplify_moves_no_quartile_output_beyond_threshold(tree, rows, threshold, magnitude):
    # A tiny magnitude leaves subtrees quiet that still differ between
    # quartiles, so the final agreement check is what keeps the bound.
    data = Dataset({n: [row[k] for row in rows] for k, n in enumerate(VARS)})
    simplified, pruned = simplify_by_impact(
        tree, data, list(VARS), magnitude=magnitude, threshold=threshold
    )
    if not pruned:
        assert simplified is tree
    for spec in quartile_baselines(data, list(VARS)):
        assert abs(evaluate(simplified, spec.values) - evaluate(tree, spec.values)) <= threshold


@PROPERTY
@given(trees)
def test_json_round_trip(tree):
    assert tree_from_json(tree_to_json(tree)) == tree
    assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree


@PROPERTY
@given(trees, trees, st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_crossover_and_mutation_stay_within_max_depth(a, b, slack, seed):
    max_depth = max(a.depth, b.depth) + slack
    config = GpConfig(max_depth=max_depth, init_depth_range=(1, max(max_depth, 1)))
    rng = np.random.default_rng(seed)
    for child in crossover(a, b, max_depth, rng) + (mutate(a, VARS, config, rng),):
        assert ExpressionTree(child.tokens) == child
        assert child.depth <= max_depth


# Never a traceback: every config field, scenario value and model-document
# slot takes boundary values and small arbitrary JSON, and each run exits 0
# or 1. Count fields skip large integers, which start enormous loops or
# allocations; data.csv skips integers, which open() would take for a file
# descriptor. Strings keep to an alphabet with no path separator or dot, so
# an "out" value stays inside the run's directory.
BOUNDARY = [10**400, -(10**400), math.nan, math.inf, -math.inf, True, "1", "", [], {}, None, 1.5, -1]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("B1 _", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("B1 _", max_size=3), inner, max_size=3),
    max_leaves=6,
)
COUNTS = {"population_size", "generations", "tournament_size", "elitism_count", "max_depth",
          "init_depth_range", "n"}
MODEL_SLOTS = ("const", "var", "variables", "schema_version", "operators")
SLOTS = [
    *((section, key) for section, fields in FIELDS.items() for key in fields),
    ("scenario", "B"),
    *(("model", key) for key in MODEL_SLOTS),
]
DATA = "B,C,D,Z\n" + "".join(f"{i},{i % 4 + 1},{i % 3 + 2},{i * 2}\n" for i in range(1, 13))
TREE = {"op": "add", "children": [{"var": "B"}, {"op": "pdiv", "children": [{"var": "C"}, {"const": 2.0}]}]}


def allowed(slot, value) -> bool:
    if slot == ("data", "csv"):
        return not isinstance(value, int)
    if slot[1] in COUNTS and slot[0] in ("gp", "synth"):
        values = value if isinstance(value, list) else [value]
        return not any(type(v) is int and abs(v) > 64 for v in values)
    return True


def run_slot(slot, value) -> int:
    """Exit code of one command with value put in slot, run in a fresh directory."""
    section, key = slot
    model = {"schema_version": 1, "operators": ["add", "pdiv"], "variables": ["B", "C", "D"]}
    model["tree"] = json.loads(json.dumps(TREE))
    config = {
        "gp": {"population_size": 8, "generations": 2},
        "synth": {"n": 20},
        "data": {"csv": "data.csv", "response": "Z", "predictors": ["B", "C", "D"]},
        "scenario": {"B": 2, "C": 3, "D": 5},
        "intervention": {"variable": "D", "value": 6},
    }
    if section == "model":
        slots = {"const": model["tree"]["children"][1]["children"][1], "var": model["tree"]["children"][0]}
        slots.get(key, model)[key] = value
    else:
        (config.setdefault(section, {}) if section else config)[key] = value
    if section in ("", "gp", "synth"):
        del config["data"]
        argv = ["fit"]
    else:
        del config["synth"]
        argv = {"data": "simplify", "ris": "ris", "intervention": "counterfactual",
                "scenario": "counterfactual", "model": "counterfactual"}[section]
        argv = ["simplify" if slot == ("ris", "threshold") else argv, "--model", "model.json"]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in {"data.csv": DATA, "model.json": json.dumps(model),
                               "config.json": json.dumps(config)}.items():
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(text)
            return main([*argv, "--config", "config.json"])
        finally:
            os.chdir(here)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("slot", SLOTS, ids=".".join)
def test_every_slot_takes_boundary_values_without_traceback(slot):
    for value in BOUNDARY:
        if allowed(slot, value):
            assert run_slot(slot, value) in (0, 1), value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(SLOTS), json_values)
def test_any_json_in_any_slot_exits_without_traceback(slot, value):
    assume(allowed(slot, value))
    assert run_slot(slot, value) in (0, 1)

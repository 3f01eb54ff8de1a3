"""Property tests: invariants checked over generated trees and scenarios.

Runs are derandomized, so every run draws the same examples, and bounded, so
the suite's time barely moves.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VARS, naive_eval
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

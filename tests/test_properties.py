"""Property tests: invariants checked over generated trees and scenarios.

Runs are derandomized, so every run draws the same examples, and bounded, so
the suite's time barely moves.
"""

import contextlib
import csv
import io
import itertools
import json
import logging
import math
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from conftest import VARS, is_one_tree, naive_eval
from ecd import gpsr
from ecd.cli import COMMANDS, FIELDS, FLAGS, _impact_dots, main
from ecd.dataio import Dataset, RoleConfig, filter_rows, load_csv
from ecd.errors import (
    EcdError,
    EmptyAfterFiltering,
    EmptyDataset,
    MalformedTree,
    MissingColumn,
    ParseError,
)
from ecd.exprcore import (
    DIV_EPSILON,
    ExpressionTree,
    Operator,
    const_node,
    evaluate,
    evaluate_batch,
    evaluate_nodes,
    op_node,
    subtree_at,
    to_dot,
    tree_from_json,
    tree_to_json,
    var_node,
)
from ecd.gpsr import (
    MAX_DEPTH,
    MAX_GENERATIONS,
    MAX_INIT_DEPTH,
    MAX_POPULATION,
    PENALTY_MSE,
    GpConfig,
    Individual,
    _point_mutation,
    _random_trees,
    crossover,
    evolve,
    fitness,
    mutate,
    ranking,
    select,
)
from ecd.ris import (
    QUARTILE_LABELS,
    BaselineSpec,
    Mode,
    PerturbationSpec,
    QuartileImpactTable,
    quartile_baselines,
    ris,
    simplify_by_impact,
)
from ecd.synthbench import MAX_ROWS, SynthConfig, generate

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


# Values whose text needs care: signed zeros and magnitudes near overflow;
# 1.75e308 overflows to inf when a relative perturbation of 0.05 scales it,
# so u - u goes from 0.0 to NaN.
SPECIAL = [0.0, -0.0, 1e300, -1e300, 1.75e308]
special_trees = st.recursive(
    leaves | st.sampled_from(SPECIAL).map(const_node),
    lambda children: st.builds(op_node, st.sampled_from(list(Operator)), children, children),
    max_leaves=24,
).map(ExpressionTree)
special_values = st.sampled_from(SPECIAL) | moderate


@PROPERTY
@given(
    special_trees,
    st.lists(st.fixed_dictionaries({n: special_values for n in VARS}), min_size=3, max_size=3),
    st.sampled_from([(Mode.RELATIVE, 0.05), (Mode.RELATIVE, -2.0), (Mode.ABSOLUTE, -0.5),
                     (Mode.SET_TO, -0.0), (Mode.SET_TO, 1e300)]),
)
@example(
    ExpressionTree(op_node(Operator.SUB, var_node("u"), var_node("u"))),
    [dict.fromkeys(VARS, 1.75e308)] * 3,
    (Mode.RELATIVE, 0.05),
)
def test_impact_cell_dot_is_to_dot_of_its_annotations(tree, baselines, perturbation):
    mode, magnitude = perturbation
    specs = [PerturbationSpec(n, mode, magnitude) for n in VARS]
    per_quartile = [
        ris(tree, BaselineSpec(values, label), specs)
        for values, label in zip(baselines, QUARTILE_LABELS)
    ]
    table = QuartileImpactTable(dict(zip(VARS, zip(*per_quartile))), mode, magnitude)
    expected = [
        (f"impact_{name}_{label}.dot", to_dot(tree, report.annotations()))
        for label, reports in zip(QUARTILE_LABELS, per_quartile)
        for name, report in zip(VARS, reports)
    ]
    assert list(_impact_dots(tree, table)) == expected


@PROPERTY
@given(trees)
def test_json_round_trip(tree):
    assert tree_from_json(tree_to_json(tree)) == tree
    assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree


@PROPERTY
@given(trees, trees, st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_crossover_and_mutation_stay_within_max_depth(a, b, slack, seed):
    max_depth = max(a.depth, b.depth) + slack
    rng = np.random.default_rng(seed)
    children = crossover(a, b, max_depth, int(rng.integers(a.size)), int(rng.integers(b.size)))
    for child in children + tuple(mutate([a], VARS, max_depth, (-5.0, 5.0), rng)):
        assert ExpressionTree(child.tokens) == child
        assert child.depth <= max_depth


# Breeding builds its trees with trusted_tree, which skips validation: every
# tree it makes must be the one validation builds from the same tokens.
@PROPERTY
@given(trees, st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(1, 8))
def test_bred_trees_equal_their_validated_rebuild(a, seed, depth, max_depth):
    rng = np.random.default_rng(seed)
    drawn = _random_trees(rng, [True, False, False], depth, 1, VARS, (-5.0, 5.0))
    bred = list(drawn)
    for b in drawn:
        # Small parents take the summed-depth shortcut, deep ones the check.
        bred += crossover(a, b, max_depth, int(rng.integers(a.size)), int(rng.integers(b.size)))
        bred += crossover(b, a, max_depth, int(rng.integers(b.size)), int(rng.integers(a.size)))
    bred += mutate(bred, VARS, max_depth, (-5.0, 5.0), rng)
    (leaf,) = _random_trees(rng, [True], 0, 0, VARS, (-5.0, 5.0))
    bred += [_point_mutation(t, int(rng.integers(t.size)), int(rng.integers(3)), leaf.tokens) for t in bred]
    for tree in bred:
        rebuilt = ExpressionTree(tree.tokens)
        assert (tree.size, tree.depth) == (rebuilt.size, rebuilt.depth)


# Validation is node_depth's one walk: it must accept exactly the sequences
# that encode one tree, and refuse the rest, a complete tree with a token
# after it included.
@PROPERTY
@given(st.lists(st.sampled_from(list(Operator)) | st.sampled_from(VARS) | st.floats(-4.0, 4.0), max_size=15))
@example(["u", Operator.ADD, "v"])
@example([Operator.MUL, 1.0, Operator.ADD, "u", "v"])
def test_validation_accepts_exactly_one_tree(sequence):
    try:
        tree = ExpressionTree(sequence)
    except MalformedTree:
        assert not is_one_tree(sequence)
    else:
        assert is_one_tree(sequence)
        assert tree.tokens == tuple(sequence) and tree.size == len(sequence)


def test_evolve_is_unchanged_when_every_bred_tree_is_validated(monkeypatch):
    # Crossover on every pair at max_depth 3 takes both depth paths and rejects children.
    data, truth = generate(SynthConfig(n=60, seed=4))
    config = GpConfig(
        population_size=300, generations=4, seed=2, crossover_prob=1.0, mutation_prob=0.5,
        max_depth=3, init_depth_range=(1, 3),
    )
    trusted = evolve(data, truth.response, config)

    def validated_tree(tokens, depth=None):
        tree = ExpressionTree(tokens)
        assert depth in (None, tree.depth)
        return tree

    monkeypatch.setattr(gpsr, "trusted_tree", validated_tree)
    assert evolve(data, truth.response, config) == trusted


def reference_evaluate(tree, data):
    """evaluate_batch as it was before the shared kernel: every constant an
    np.full array, numpy's ufuncs, and pdiv built from ones_like and
    divide(where=)."""

    def reference_pdiv(x, y):
        out = np.ones_like(y)
        np.divide(x, y, out=out, where=np.abs(y) >= DIV_EPSILON)
        return out

    funcs = {Operator.ADD: np.add, Operator.SUB: np.subtract, Operator.MUL: np.multiply,
             Operator.PDIV: reference_pdiv}
    stack = []
    with np.errstate(all="ignore"):
        for token in reversed(tree.tokens):
            if isinstance(token, Operator):
                left = stack.pop()
                stack[-1] = funcs[token](left, stack[-1])
            elif isinstance(token, str):
                stack.append(data.column(token))
            else:
                stack.append(np.full(data.n_rows, token))
    return stack[0]


def reference_fitness(tree, data, parsimony_coeff):
    predictions = reference_evaluate(tree, data)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = predictions - data.column("Z")
        raw_mse = float(np.add.reduce(residuals * residuals)) / len(residuals)
    if not math.isfinite(raw_mse):
        raw_mse = PENALTY_MSE
    return raw_mse + parsimony_coeff * tree.size, raw_mse


def same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN in the same place."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# Values at the kernel's edges: signed zeros, divisors on either side of
# DIV_EPSILON, and magnitudes whose sums and products overflow to inf, and
# whose inf - inf and inf * 0 make NaN.
EDGES = [0.0, -0.0, 1e-7, -5e-7, DIV_EPSILON, -DIV_EPSILON, 1e300, -1e300, 1.75e308, 2.0]
edge_leaves = st.sampled_from(EDGES) | moderate
constant_tokens = st.recursive(
    edge_leaves.map(const_node),
    lambda children: st.builds(op_node, st.sampled_from(list(Operator)), children, children),
    max_leaves=8,
)
kernel_tokens = st.recursive(
    st.sampled_from(VARS).map(var_node) | edge_leaves.map(const_node),
    lambda children: st.builds(op_node, st.sampled_from(list(Operator)), children, children)
    | st.builds(op_node, st.sampled_from(list(Operator)), constant_tokens, children)
    | st.builds(op_node, st.sampled_from(list(Operator)), children, constant_tokens),
    max_leaves=24,
)
# Ramped half-and-half's two shapes, as init_population draws them.
grown_tokens = st.builds(
    lambda seed, depth, full: _random_trees(np.random.default_rng(seed), [full], depth, 1, VARS, (-5.0, 5.0))[0].tokens,
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans(),
)
kernel_data = st.integers(1, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {name: st.lists(edge_leaves | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=n, max_size=n)
         for name in (*VARS, "Z")}
    )
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(kernel_tokens | grown_tokens | constant_tokens, kernel_data)
@example(  # a data column divides: its kept mask must cover NaN as well as near-zero
    op_node(Operator.PDIV, var_node("u"), var_node("v")),
    {"u": [1.0, 2.0, 3.0, 4.0], "v": [math.nan, 1e-7, 3.0, -0.0], "w": [0.0] * 4, "x": [0.0] * 4, "Z": [1.0] * 4},
)
def test_kernel_matches_the_reference_evaluator_bit_for_bit(tokens, columns):
    tree, data = ExpressionTree(tokens), Dataset(columns)
    batch = evaluate_batch(tree, data)
    assert isinstance(batch, np.ndarray) and same_bits(batch, reference_evaluate(tree, data))
    assert fitness([tree], data, "Z", 0.001) == [reference_fitness(tree, data, 0.001)]
    scenarios = {name: data.column(name).tolist() for name in VARS}
    assert same_bits(evaluate_nodes(tree, scenarios)[0], batch)


@PROPERTY
@given(
    kernel_tokens | grown_tokens | constant_tokens,
    st.lists(st.fixed_dictionaries({n: edge_leaves | st.sampled_from([math.inf, -math.inf, math.nan])
                                     for n in VARS}), min_size=3, max_size=3),
)
def test_one_three_column_evaluation_is_three_one_column_evaluations(tokens, scenarios):
    # simplify_by_impact checks a candidate at its three baselines this way.
    tree = ExpressionTree(tokens)
    root = evaluate_nodes(tree, {n: [s[n] for s in scenarios] for n in VARS})[0]
    assert same_bits(root, [evaluate(tree, s) for s in scenarios])


SHAPES = (  # tree sizes 1, 3 and 5
    var_node("u"),
    op_node(Operator.ADD, var_node("u"), var_node("v")),
    op_node(Operator.MUL, op_node(Operator.SUB, var_node("u"), var_node("v")), var_node("w")),
)


@PROPERTY
@given(
    st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(SHAPES)), min_size=1, max_size=30),
    st.integers(1, 9),
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
)
def test_rank_tournament_picks_the_keyed_min_winner(members, tournament_size, rows, seed):
    population = [Individual(ExpressionTree(shape), fitness=f) for f, shape in members]
    order, ranks = ranking(population)
    entrants = np.random.default_rng(seed).integers(0, len(population), (rows, tournament_size))
    best = select(ranks, entrants)
    assert best == [min(ranks[e] for e in row) for row in entrants.tolist()]
    for rank, row in zip(best, entrants.tolist()):
        # The tournament as it was: the keyed min over the row's entrants.
        winner = min(row, key=lambda i: (population[i].fitness, population[i].tree.size, i))
        assert population[order[rank]] is population[winner]


@PROPERTY
@given(st.lists(st.sampled_from([-1.5e308, 1.5e308, -1e308, 1.7e308, 0.0, -0.0]) | moderate, min_size=1, max_size=9))
@example([-1.5e308, 1.5e308, -1.5e308, 1.5e308])
def test_quartiles_of_a_finite_column_lie_within_it(column):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quartiles = [spec.values["A"] for spec in quartile_baselines(Dataset({"A": column}), ["A"])]
    assert all(min(column) <= q <= max(column) for q in quartiles)
    assert quartiles == sorted(quartiles)


# load_csv reads a body with C passes over blocks of lines, and, from the
# first block such a pass refuses or in which it reads a non-finite cell,
# with its row reader. Whichever takes a file, the outcome is the one this
# plain row reader gives: the same doubles, or the same error, and the same
# log lines.
def reference_load_csv(path, missing_policy: str, notes: list) -> dict:
    wanted = ("B", "A")  # RoleConfig(response="A", predictors=("B",)).selected
    header, kept, dropped = None, [], 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row_num in itertools.count(1):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise EcdError(f"{path}: row {row_num}: {exc}") from None
            if header is None:
                header = [cell.strip() for cell in row]
                for name in wanted:
                    if name not in header:
                        raise MissingColumn(name)
                continue
            if all(not cell.strip() for cell in row):
                continue
            values = []
            for name in wanted:
                pos = header.index(name)
                text = row[pos].strip() if pos < len(row) else ""
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    break
                values.append(value)
            else:
                kept.append(values)
                continue
            if missing_policy == "fail":
                raise ParseError(row_num, name, text)
            dropped += 1
    if header is None:
        raise EmptyDataset(f"{path}: no header row")
    if dropped:
        notes.append(f"{path}: dropped {dropped} row(s) with missing or unparseable cells")
    if not kept:
        raise EmptyAfterFiltering(f"{path}: no usable rows for columns B, A")
    notes.append(f"{path}: loaded {len(kept)} row(s), 2 column(s)")
    return {name: np.array([row[i] for row in kept]).tobytes() for i, name in enumerate(wanted)}


def load_outcome(load, path, missing_policy: str):
    """(columns as bytes, or the error's type and text; log lines) of one load,
    with warnings raised as errors."""
    notes: list = []
    logger = logging.getLogger("ecd.dataio")
    handler = logging.Handler()
    handler.emit = lambda record: notes.append(record.getMessage())
    level = logger.level
    logger.setLevel(logging.INFO)  # not .level =, which would keep isEnabledFor's cache
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return load(path, missing_policy, notes), notes
    except (EcdError, UnicodeDecodeError) as exc:
        return (type(exc).__name__, str(exc)), notes
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def ecd_load_csv(path, missing_policy: str, notes: list) -> dict:
    data = load_csv(path, RoleConfig(response="A", predictors=("B",)), missing_policy)
    return {name: column.tobytes() for name, column in data.columns.items()}


CSV_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-10**6, 10**6).map(str)
CSV_ODD_CELLS = st.sampled_from([
    "", "  ", " 1.5 ", "\t2", "\xa09", "nan", " inf", "-inf", "1e999", "-1e999", "1_0", "x", "NA", "-0",
    '"3"', '" 4 "', '"5,6"', '"7\n8"', '""', '"x""y"', "1\x00",
])
# A file: an optional byte order mark, a header of A, B and C in any order
# (with, at times, a quoted two-line name), then rows, each ending in LF,
# CRLF or CR, the last at times in nothing. Half the files hold rows of
# numbers, as many as the header has names or one more, with at times one
# cell of the file swapped for an odd one; the other half rows of 0 to 5
# cells of any kind. At times 1,500 plain rows lead the body, so that the
# rows after them fall in a later C-pass block, and a non-UTF-8 byte after
# them past the first 8 KB the file reader decodes.
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bytes(draw) -> bytes:
    header = list(draw(st.permutations(["A", "B", "C"])))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, 3)), '"X\nY"')
    width = len(header)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(CSV_NUMBERS, min_size=width, max_size=width + 1), max_size=6))
        if rows and draw(st.booleans()):
            cells = rows[draw(st.integers(0, len(rows) - 1))]
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_ODD_CELLS)
    else:
        rows = draw(st.lists(st.lists(CSV_NUMBERS | CSV_ODD_CELLS, max_size=5), max_size=6))
    lines = [",".join(header) + draw(LINE_ENDS)]
    lines += [",".join(["1"] * width) + draw(LINE_ENDS)] * draw(st.sampled_from([0, 0, 0, 1500]))
    lines += [",".join(cells) + draw(LINE_ENDS) for cells in rows]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    head, body = lines[0].encode("utf-8"), "".join(lines[1:]).encode("utf-8")
    if body and draw(st.integers(1, 8)) == 8:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b"\xff" + body[at:]
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + head + body


@PROPERTY
@given(csv_bytes(), st.sampled_from(["drop_row", "fail"]))
@example(b"A,B,C\n1,2,3\n4,5,6\n", "fail")
@example(b"B,A\r\n", "drop_row")
@example(b"A,B\n\n\n1,2\n", "fail")
@example(b"C,X,A,B\n\"5,6\",9,1,2\n", "fail")  # a quoted comma before the selected cells
@example(b"A,B,C\n1,2," + b"3" * 140_000 + b"\n", "drop_row")  # an unselected cell csv refuses
@example(b"A,B\n" + b" " * 140_000 + b"\n", "drop_row")  # a blank line csv refuses
@example(b"A,B,C\n1,2,x\x00\n", "drop_row")  # csv refuses a NUL before Python 3.11
@example(b"A,B\n1,x\n" + b"1,2\n" * 3000 + b"\xff\n", "fail")  # a bad row before an undecodable one
@example(b"A,B\n" + b"1,2\n" * 3000 + b"\xff\n", "drop_row")  # an undecodable byte past the first block
def test_load_csv_matches_a_plain_row_reader(data, missing_policy):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        assert load_outcome(ecd_load_csv, path, missing_policy) == load_outcome(
            reference_load_csv, path, missing_policy
        )


edge_values = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]) | st.floats(-3.0, 3.0)


@PROPERTY
@given(
    st.lists(edge_values, max_size=12),
    st.sampled_from(["==", "<=", ">=", "range"]),
    edge_values,
    edge_values,
)
def test_filter_rows_keeps_what_numpy_comparisons_keep(column, op, a, b):
    col = np.array(column, dtype=np.float64)
    data = Dataset({"A": col, "row": np.arange(len(col), dtype=np.float64)})
    kept = {"==": col == a, "<=": col <= a, ">=": col >= a, "range": (col >= a) & (col <= b)}[op]
    out = filter_rows(data, [["A", op, [a, b] if op == "range" else a]])
    assert out.column("row").tolist() == np.flatnonzero(kept).tolist()


# Never a traceback: every config field, filter clause slot, scenario value
# and model-document slot takes boundary values and small arbitrary JSON, and
# each run exits 0 or 1; a filter clause slot holding a value of the wrong
# kind exits 1, and so does a count above its cap. Counts from 65 up to the
# cap are skipped, as they would start enormous loops or allocations. Strings keep to an alphabet with no path separator or dot, so
# an "out" value stays inside the run's directory.
BOUNDARY = [10**400, -(10**400), math.nan, math.inf, -math.inf, True, "1", "", [], {}, None, 1.5, -1]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("B1 _", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("B1 _", max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Each count field's cap; elitism_count is held below population_size.
COUNTS = {"population_size": MAX_POPULATION, "generations": MAX_GENERATIONS,
          "tournament_size": MAX_POPULATION, "elitism_count": MAX_POPULATION, "max_depth": MAX_DEPTH,
          "init_depth_range": MAX_INIT_DEPTH, "n": MAX_ROWS}
MODEL_SLOTS = ("const", "var", "variables", "schema_version", "operators")
# A data.filter clause [name, op, value], or [name, "range", [lo, hi]] for lo and hi.
FILTER_SLOTS = ("name", "op", "value", "lo", "hi")
SLOTS = [
    *((section, key) for section, fields in FIELDS.items() for key in fields),
    *(("filter", key) for key in FILTER_SLOTS),
    ("scenario", "B"),
    *(("model", key) for key in MODEL_SLOTS),
]
DATA = "B,C,D,Z\n" + "".join(f"{i},{i % 4 + 1},{i % 3 + 2},{i * 2}\n" for i in range(1, 13))
TREE = {"op": "add", "children": [{"var": "B"}, {"op": "pdiv", "children": [{"var": "C"}, {"const": 2.0}]}]}


def counts(slot, value) -> list[int]:
    """The integers value puts in a count field's slot."""
    if slot[1] in COUNTS and slot[0] in ("gp", "synth"):
        return [v for v in (value if isinstance(value, list) else [value]) if type(v) is int]
    return []


def allowed(slot, value) -> bool:
    return not any(64 < v <= COUNTS[slot[1]] for v in counts(slot, value))


def rejected(slot, value) -> bool:
    """Whether value is of a kind its filter clause slot refuses, or a count
    above its cap."""
    section, key = slot
    if any(v > COUNTS[key] for v in counts(slot, value)):
        return True
    if section != "filter":
        return False
    if key == "name":
        return value not in ("B", "C", "D", "Z")
    if key == "op":
        return value not in ("==", "<=", ">=")
    return isinstance(value, bool) or not isinstance(value, (int, float))


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
    elif section == "filter":
        clause, bounds = ["B", ">=", 1], [1, 12]
        if key in ("lo", "hi"):
            clause[1:] = "range", bounds
            bounds[key == "hi"] = value
        else:
            clause[FILTER_SLOTS.index(key)] = value
        config["data"]["filter"] = [clause]
    else:
        (config.setdefault(section, {}) if section else config)[key] = value
    if section in ("", "gp", "synth"):
        del config["data"]
        argv = ["fit"]
    else:
        del config["synth"]
        argv = {"data": "simplify", "filter": "simplify", "ris": "ris", "intervention": "counterfactual",
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
            assert run_slot(slot, value) in ((1,) if rejected(slot, value) else (0, 1)), value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(SLOTS), json_values)
def test_any_json_in_any_slot_exits_without_traceback(slot, value):
    assume(allowed(slot, value))
    assert run_slot(slot, value) in ((1,) if rejected(slot, value) else (0, 1))


# Never a traceback from argv either: random flags from the CLI's table, each
# with short random text, on gen (50 rows unless --n says otherwise) and on
# ris and counterfactual over a tiny model. Every call exits 0 or 1 with no
# traceback on stderr, and a call that exits 1 leaves its directory as it
# found it, so it made no --out directory. The text has no path separator or
# dot, so an --out value stays inside the run's directory.
FLAG_TEXT = st.text("0123456789-e=,BCinfa", max_size=3)
BASE_ARGV = {
    "gen": ["gen", "--n", "50"],
    "ris": ["ris", "--model", "model.json", "--csv", "data.csv", "--response", "Z", "--predictors", "B,C,D"],
    "counterfactual": ["counterfactual", "--model", "model.json", "--at", "B=2", "--at", "C=3", "--at", "D=5",
                       "--set", "D=6"],
}


def run_argv(argv) -> tuple[int, str]:
    """(exit code, stderr) of main(argv), run in a fresh directory that holds
    data.csv and model.json; a call that exits 1 must add nothing to it."""
    here, root = os.getcwd(), logging.getLogger()
    handlers, root.handlers = root.handlers, []  # so main's log lines go to the stderr read here
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            model = {"variables": ["B", "C", "D"], "tree": TREE}
            for name, text in {"data.csv": DATA, "model.json": json.dumps(model)}.items():
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(text)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            if code == 1:
                assert sorted(os.listdir()) == ["data.csv", "model.json"], argv
            return code, err.getvalue()
        finally:
            os.chdir(here)
            root.handlers = handlers


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.sampled_from(sorted(BASE_ARGV)), st.lists(st.tuples(st.sampled_from(sorted(FLAGS)), FLAG_TEXT), max_size=3))
def test_any_flags_exit_0_or_1_without_traceback(command, flags):
    argv = list(BASE_ARGV[command])
    for flag, text in flags:
        argv += [flag] if FLAGS[flag].get("action") == "store_true" else [flag, text]
    code, err = run_argv(argv)
    assert code in (0, 1), argv
    assert "Traceback" not in err, argv


# One user's session: a shared config file, edited one field at a time, that
# the five commands read as they run with random flags of their own from
# FLAGS. The machine picks each call's --out, a fresh directory, and the
# session's directory holds data.csv, model.json and config.json. Invariants:
# every call exits 0 or 1 with no traceback; a call that exits 1 makes no
# directory; --stdout prints the primary artifact's exact text; a rerun
# writes the same bytes; and fit, ris and simplify, which all read the data
# section, agree on whether the config is accepted.
SESSION_CONFIG = {
    "seed": 1,
    "gp": {"population_size": 8, "generations": 2},
    "data": {"csv": "data.csv", "response": "Z", "predictors": ["B", "C", "D"]},
    "ris": {"magnitude": 0.05, "threshold": 0.0},
    "scenario": {"B": 2, "C": 3, "D": 5},
    "intervention": {"variable": "D", "value": 6},
}
SESSION_ARGV = {
    name: [name, "--config", "config.json", *(["--model", "model.json"] if "--model" in flags else [])]
    for name, (_, _, flags) in COMMANDS.items()
}
PRIMARY = {"gen": "synthetic.csv", "fit": "model.json", "ris": "impact_table.txt",
           "counterfactual": "counterfactual.txt", "simplify": "simplified_model.json"}
# An edit puts a value of the field's own kind half the time, else any of
# EDIT_VALUES. A count is at most 2 or above its cap, so a fit stays within
# population 8 and 2 generations.
EDIT_VALUES = st.sampled_from(
    [None, True, -1, 0, 1, 2, 1.5, 10**400, "", "x", "absolute", "set_to", "fail", [], [1], [1, 2], {}]
)
KIND_VALUES = {
    int: st.integers(-1, 2),
    float: st.sampled_from([0.0, 0.01, 0.5, 1.0, -2.0]),
    str: st.sampled_from(["", "x", "B", "absolute", "set_to", "fail"]),
    list: st.sampled_from([[], [1]]),
    tuple: st.sampled_from([[1, 2], [2, 1]]),
}
EDIT_SLOTS = [(section, key) for section, fields in FIELDS.items() for key in fields]


def files_under(directory) -> dict:
    """{relative path: bytes} of every file under directory."""
    paths = (path for path in Path(directory).rglob("*") if path.is_file())
    return {str(path.relative_to(directory)): path.read_bytes() for path in paths}


class CliSession(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp()
        self.config = json.loads(json.dumps(SESSION_CONFIG))
        self.runs = 0
        model = {"variables": ["B", "C", "D"], "tree": TREE}
        for name, text in {"data.csv": DATA, "model.json": json.dumps(model)}.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        self.write_config()

    def teardown(self):
        shutil.rmtree(self.workdir)

    def write_config(self):
        with open(os.path.join(self.workdir, "config.json"), "w", encoding="utf-8") as handle:
            json.dump(self.config, handle)

    def call(self, argv) -> tuple[int, str]:
        """(exit code, --out directory) of main(argv) with a fresh --out last."""
        self.runs += 1
        out = f"run{self.runs}"
        argv = [*argv, "--out", out]
        here, root = os.getcwd(), logging.getLogger()
        handlers, root.handlers = root.handlers, []  # so main's log lines go to the stderr read here
        os.chdir(self.workdir)
        try:
            before = sorted(os.listdir())
            with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()) as std:
                code = main(argv)
            assert code in (0, 1), argv
            assert "Traceback" not in err.getvalue(), argv
            if code == 1:
                assert sorted(os.listdir()) == before, argv
            elif "--stdout" in argv:
                artifact = os.path.join(out, PRIMARY[argv[0]])
                with open(artifact, "rb") as handle:
                    assert std.getvalue() == handle.read().decode("utf-8"), argv
            return code, os.path.join(self.workdir, out)
        finally:
            os.chdir(here)
            root.handlers = handlers

    @rule(
        command=st.sampled_from(sorted(COMMANDS)),
        flags=st.lists(st.tuples(st.sampled_from(sorted(set(FLAGS) - {"--out"})), FLAG_TEXT), max_size=2),
        stdout=st.booleans(),
    )
    def run(self, command, flags, stdout):
        argv = SESSION_ARGV[command] + ["--stdout"] * stdout
        for flag, text in flags:
            argv += [flag] if FLAGS[flag].get("action") == "store_true" else [flag, text]
        code, out = self.call(argv)
        if code == 0:
            again = self.call(argv)
            assert again[0] == 0 and files_under(again[1]) == files_under(out), argv

    @rule(slot=st.sampled_from(EDIT_SLOTS), own_kind=st.booleans(), data=st.data())
    def edit(self, slot, own_kind, data):
        section, key = slot
        value = data.draw(KIND_VALUES[type(FIELDS[section][key])] if own_kind else EDIT_VALUES)
        self.restore()
        (self.config.setdefault(section, {}) if section else self.config)[key] = value
        self.write_config()
        codes = {name: self.call(SESSION_ARGV[name])[0] for name in ("fit", "ris", "simplify")}
        assert len(set(codes.values())) == 1, (codes, self.config)

    @rule()
    def restore(self):
        self.config = json.loads(json.dumps(SESSION_CONFIG))
        self.write_config()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_session():
    run_state_machine_as_test(
        CliSession, settings=settings(derandomize=True, database=None, max_examples=60, stateful_step_count=10,
                                      deadline=None)
    )

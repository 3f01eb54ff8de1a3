import json
import math

import numpy as np
import pytest

from ecd.dataio import Dataset
from ecd.errors import MalformedTree, MissingVariable, UnknownNodeId
from ecd.exprcore import (
    DIV_EPSILON,
    ExpressionTree,
    Operator,
    const_node,
    dependency_set,
    evaluate,
    evaluate_batch,
    evaluate_nodes,
    format_constant,
    op_node,
    pdiv,
    replace_at,
    subtree_at,
    to_dot,
    tree_from_json,
    tree_to_json,
    var_node,
)
from conftest import naive_eval, random_bindings, random_tree, subtree_ends


def bcd_tree():
    """add(B, pdiv(C, D)) used throughout."""
    return ExpressionTree(
        op_node(Operator.ADD, var_node("B"), op_node(Operator.PDIV, var_node("C"), var_node("D")))
    )


class TestPdiv:
    def test_ordinary_division(self):
        assert pdiv(3.0, 5.0) == 0.6
        assert pdiv(-8.0, 2.0) == -4.0

    def test_near_zero_denominator_returns_one(self):
        assert pdiv(3.0, 0.0) == 1.0
        assert pdiv(3.0, 1e-7) == 1.0
        assert pdiv(3.0, -1e-7) == 1.0

    def test_boundary_divides(self):
        assert pdiv(3.0, DIV_EPSILON) == 3.0 / DIV_EPSILON
        assert pdiv(3.0, -DIV_EPSILON) == 3.0 / -DIV_EPSILON

    def test_total_over_finite_inputs(self, rng):
        for _ in range(500):
            x = float(rng.uniform(-1e6, 1e6))
            y = float(rng.uniform(-1e-5, 1e-5))
            assert math.isfinite(pdiv(x, y))

    def test_nan_denominator_returns_one(self):
        assert pdiv(3.0, math.nan) == 1.0
        got = pdiv(np.array([3.0, 4.0]), np.array([math.nan, 2.0]))
        assert got.tolist() == [1.0, 2.0]
        # inf - inf is NaN: a divisor made that way is protected too
        with np.errstate(invalid="ignore"):
            assert pdiv(np.array([5.0]), np.array([math.inf]) - math.inf).tolist() == [1.0]

    @pytest.mark.parametrize("x_array", [False, True])
    @pytest.mark.parametrize("y_array", [False, True])
    def test_every_float_array_mix(self, x_array, y_array):
        xs, ys = [3.0, -8.0, 0.0, 1e308], [5.0, 1e-7, -DIV_EPSILON, math.nan]
        for x, y in zip(xs, ys):
            want = x / y if abs(y) >= DIV_EPSILON else 1.0
            with np.errstate(all="ignore"):
                got = pdiv(np.array([x, x]) if x_array else x, np.array([y, y]) if y_array else y)
            if not (x_array or y_array):
                assert type(got) is float and got == want
            else:
                assert np.array(got * np.ones(2)).tolist() == [want, want]

    def test_vector_matches_scalar(self, rng):
        x = rng.uniform(-100, 100, 200)
        y = rng.uniform(-1e-5, 1e-5, 200)
        got = pdiv(x, y)
        want = np.array([a / b if abs(b) >= DIV_EPSILON else 1.0 for a, b in zip(x, y)])
        assert np.array_equal(got, want)


class TestNodeValidation:
    def test_operator_arity_enforced(self):
        with pytest.raises(MalformedTree):
            ExpressionTree(op_node(Operator.ADD, var_node("A")))
        with pytest.raises(MalformedTree):
            ExpressionTree(op_node(Operator.MUL, var_node("A"), var_node("B"), var_node("C")))

    def test_leaves_must_be_childless(self):
        with pytest.raises(MalformedTree):
            ExpressionTree(var_node("A") + var_node("B"))
        with pytest.raises(MalformedTree):
            ExpressionTree(const_node(1.0) + var_node("B"))

    def test_empty_variable_name_rejected(self):
        with pytest.raises(MalformedTree):
            ExpressionTree(var_node(""))

    def test_bogus_payload_rejected(self):
        for bogus in (None, 1, True, b"A", ("A",)):
            with pytest.raises(MalformedTree):
                ExpressionTree((Operator.ADD, "A", bogus))

    def test_empty_token_sequence_rejected(self):
        with pytest.raises(MalformedTree):
            ExpressionTree(())

    def test_ends_and_depth(self):
        tree = bcd_tree()
        assert subtree_ends(tree.tokens) == (5, 2, 5, 4, 5)
        assert tuple(i + len(subtree_at(tree, i)) for i in range(tree.size)) == (5, 2, 5, 4, 5)
        assert (tree.size, tree.depth) == (5, 2)

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ((Operator.ADD, "A", None), "node 2: unknown token type NoneType"),
            ((Operator.ADD, "", "A"), "node 1: variable names must be nonempty"),
            ((), "empty token sequence"),
            ((Operator.ADD, "A", Operator.MUL, 2.0), "tokens end before every operator has 2 operands"),
            ((Operator.ADD, "A", 2.0, "B"), "tokens continue past the end of the tree at node 3"),
            (("A", Operator.ADD, "B"), "tokens continue past the end of the tree at node 1"),
        ],
    )
    def test_malformed_messages(self, tokens, message):
        with pytest.raises(MalformedTree) as excinfo:
            ExpressionTree(tokens)
        assert str(excinfo.value) == message


class TestStructure:
    def test_preorder_ids(self):
        tree = bcd_tree()
        tokens = tree.tokens
        assert tokens[0] is Operator.ADD
        assert tokens[1] == "B"
        assert tokens[2] is Operator.PDIV
        assert tokens[3] == "C"
        assert tokens[4] == "D"

    def test_size_and_depth(self):
        tree = bcd_tree()
        assert (tree.size, tree.depth) == (5, 2)
        assert (ExpressionTree(const_node(1)).size, ExpressionTree(const_node(1)).depth) == (1, 0)
        wide = ExpressionTree(op_node(Operator.MUL, op_node(Operator.ADD, var_node("A"), var_node("B")), var_node("C")))
        assert (wide.size, wide.depth) == (5, 2)

    def test_dependency_set(self):
        assert dependency_set(bcd_tree()) == {"B", "C", "D"}
        assert dependency_set(ExpressionTree(const_node(3))) == set()
        assert dependency_set(ExpressionTree(op_node(Operator.SUB, var_node("A"), var_node("A")))) == {"A"}

    def test_node_lookup_bounds(self):
        tree = bcd_tree()
        assert subtree_at(tree, 4) == var_node("D")
        with pytest.raises(UnknownNodeId):
            subtree_at(tree, 5)
        with pytest.raises(UnknownNodeId):
            subtree_at(tree, -1)

    def test_subtree_at_and_replace_at(self):
        tree = bcd_tree()
        sub = subtree_at(tree, 2)
        assert ExpressionTree(sub).infix == "(C / D)"
        swapped = replace_at(tree, 2, var_node("E"))
        assert ExpressionTree(swapped).infix == "(B + E)"
        # untouched branches keep their tokens and their node ids
        assert swapped[:2] == tree.tokens[:2]
        assert ExpressionTree(replace_at(tree, 0, const_node(9))).infix == "9"
        with pytest.raises(UnknownNodeId):
            subtree_at(tree, 99)
        with pytest.raises(UnknownNodeId):
            replace_at(tree, 99, const_node(1))


class TestEvaluate:
    def test_reference_example(self):
        assert evaluate(bcd_tree(), {"B": 2, "C": 3, "D": 5}) == 2.6

    def test_constant_leaf(self):
        assert evaluate(ExpressionTree(const_node(7)), {}) == 7
        assert evaluate(ExpressionTree(const_node(7)), {"X": 1}) == 7

    def test_protected_division_at_zero(self):
        tree = ExpressionTree(op_node(Operator.PDIV, var_node("X"), var_node("Y")))
        assert evaluate(tree, {"X": 3, "Y": 0}) == 1.0

    def test_missing_variable(self):
        with pytest.raises(MissingVariable) as info:
            evaluate(bcd_tree(), {"B": 2, "C": 3})
        assert "D" in str(info.value)

    def test_matches_naive_oracle(self, rng):
        for _ in range(300):
            tree = random_tree(rng)
            bindings = random_bindings(rng)
            assert evaluate(tree, bindings) == naive_eval(tree.tokens, bindings)

    def test_finite_for_finite_inputs(self, rng):
        for _ in range(200):
            tree = random_tree(rng, max_depth=4)
            value = evaluate(tree, random_bindings(rng))
            assert math.isfinite(value)


class TestEvaluateNodes:
    def test_reference_example(self):
        values = evaluate_nodes(bcd_tree(), {"B": [2, 0], "C": [3, 1], "D": [5, 2]})
        assert values.dtype == np.float64
        assert values.tolist() == [[2.6, 0.5], [2.0, 0.0], [0.6, 0.5], [3.0, 1.0], [5.0, 2.0]]

    def test_single_constant(self):
        # a tree that reads no variable still fills one column per scenario
        assert evaluate_nodes(ExpressionTree(const_node(4)), {}).tolist() == [[4.0]]
        assert evaluate_nodes(ExpressionTree(const_node(4)), {"X": [1, 2, 3]}).tolist() == [[4.0] * 3]

    def test_repeated_variable(self):
        tree = ExpressionTree(op_node(Operator.MUL, var_node("A"), var_node("A")))
        assert evaluate_nodes(tree, {"A": [3]}).tolist() == [[9.0], [3.0], [3.0]]

    def test_root_matches_evaluate_and_subtrees_match_oracle(self, rng):
        for _ in range(100):
            tree = random_tree(rng)
            scenarios = [random_bindings(rng) for _ in range(3)]
            values = evaluate_nodes(tree, {n: [s[n] for s in scenarios] for n in scenarios[0]})
            assert values.shape == (tree.size, 3)
            for k, bindings in enumerate(scenarios):
                assert values[0, k] == evaluate(tree, bindings)
                for node_id in range(tree.size):
                    assert values[node_id, k] == naive_eval(subtree_at(tree, node_id), bindings)

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            evaluate_nodes(bcd_tree(), {"B": [1.0], "C": [2.0]})


class TestEvaluateBatch:
    def test_reference_rows(self):
        data = Dataset({"B": [2, 0], "C": [3, 1], "D": [5, 2]})
        assert np.array_equal(evaluate_batch(bcd_tree(), data), [2.6, 0.5])

    def test_constant_and_identity(self):
        data = Dataset({"A": [1.5, -2, 0]})
        assert np.array_equal(evaluate_batch(ExpressionTree(const_node(0)), data), [0, 0, 0])
        assert np.array_equal(evaluate_batch(ExpressionTree(var_node("A")), data), [1.5, -2, 0])

    def test_missing_column(self):
        data = Dataset({"B": [1], "C": [2]})
        with pytest.raises(MissingVariable):
            evaluate_batch(bcd_tree(), data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bitwise_equal_to_scalar_path(self, rng):
        names = ("u", "v", "w", "x")
        cols = {n: rng.uniform(-10, 10, 40) for n in names}
        data = Dataset(cols)
        for _ in range(50):
            tree = random_tree(rng)
            batch = evaluate_batch(tree, data)
            rows = [{n: cols[n][i] for n in names} for i in range(40)]
            assert np.array_equal(batch, [naive_eval(tree.tokens, row) for row in rows])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_column_masks_apply_to_their_column_only(self):
        # D's mask covers 0.0, 1e-7, -0.0 and NaN; D + 0.0 has D's values but is
        # another array, so pdiv checks it, and B divides unprotected.
        d = [2.0, 0.0, 1e-7, -0.0, math.nan, -3.0]
        data = Dataset({"A": [1.0, 2.0, -3.0, 4.0, 5.0, 6.0], "B": [0.5, 2.0, 4.0, -1.0, 3.0, 1.5], "D": d})
        div, add = Operator.PDIV, Operator.ADD
        a, b, col = var_node("A"), var_node("B"), var_node("D")
        same_d = op_node(add, col, const_node(0.0))
        for tokens in (
            op_node(div, a, col),
            op_node(div, a, same_d),
            op_node(div, col, same_d),
            op_node(div, op_node(div, a, col), b),
            op_node(div, op_node(div, a, b), op_node(div, col, col)),
            op_node(div, const_node(2.0), col),
        ):
            batch = evaluate_batch(ExpressionTree(tokens), data)
            rows = [{name: data.column(name)[i] for name in data.names} for i in range(len(d))]
            assert [v.hex() for v in batch.tolist()] == [naive_eval(tokens, row).hex() for row in rows]


class TestInfix:
    def test_reference_example(self):
        assert bcd_tree().infix == "(B + (C / D))"

    def test_constant_rendering(self):
        assert ExpressionTree(const_node(1)).infix == "1"
        assert ExpressionTree(const_node(-3)).infix == "-3"
        assert ExpressionTree(const_node(2.5)).infix == "2.5"
        assert format_constant(0.1) == "0.1"
        assert format_constant(1e20) == "1e+20"

    def test_non_finite_constants(self):
        tree = ExpressionTree(
            op_node(Operator.ADD, const_node(math.inf), op_node(Operator.MUL, const_node(-math.inf), const_node(math.nan)))
        )
        assert tree.infix == "(inf + (-inf * nan))"
        labels = [line.split('"')[1] for line in to_dot(tree).splitlines() if "shape=box" in line]
        assert labels == ["inf", "-inf", "nan"]
        assert Dataset({"A": [math.inf, -math.inf, math.nan, 2.0]}).to_csv().split() == ["A", "inf", "-inf", "nan", "2"]

    def test_deterministic(self, rng):
        for _ in range(50):
            tree = random_tree(rng)
            assert tree.infix == ExpressionTree(tree.tokens).infix


class TestJsonRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(100):
            tree = random_tree(rng)
            doc = tree_to_json(tree)
            json.dumps(doc)  # must be serializable as-is
            again = tree_from_json(doc)
            assert again.infix == tree.infix

    def test_hand_built_doc(self):
        doc = {"op": "add", "children": [{"var": "B"}, {"op": "pdiv", "children": [{"var": "C"}, {"var": "D"}]}]}
        assert tree_from_json(doc).infix == "(B + (C / D))"

    def test_bad_docs_rejected(self):
        with pytest.raises(MalformedTree):
            tree_from_json({"op": "pow", "children": [{"var": "A"}, {"var": "B"}]})
        with pytest.raises(MalformedTree):
            tree_from_json({"children": []})
        with pytest.raises(MalformedTree):
            tree_from_json([1, 2])
        with pytest.raises(MalformedTree):
            tree_from_json({"op": "add", "children": [{"var": "A"}]})

    def test_non_numeric_constant_rejected(self):
        for bad in ("x", None, [1.0], math.inf, -math.inf, math.nan, 10**400, "inf"):
            with pytest.raises(MalformedTree, match="not a finite number"):
                tree_from_json({"const": bad})

    def test_extra_children_rejected(self):
        # a third child must not be read as the operand of an enclosing operator
        doc = {
            "op": "add",
            "children": [{"op": "mul", "children": [{"var": "A"}]}, {"var": "B"}, {"var": "C"}],
        }
        with pytest.raises(MalformedTree):
            tree_from_json(doc)


class TestToDot:
    def test_single_node(self):
        dot = to_dot(ExpressionTree(const_node(2)))
        assert dot.startswith("digraph")
        assert dot.count("->") == 0
        assert 'label="2"' in dot

    def test_shapes_and_edges(self):
        dot = to_dot(bcd_tree())
        assert dot.count("shape=box") == 3
        assert dot.count("shape=ellipse") == 2
        assert dot.count("->") == 4
        # edges run child -> parent
        assert "n1 -> n0;" in dot
        assert "n2 -> n0;" in dot
        assert "n3 -> n2;" in dot
        assert "n4 -> n2;" in dot

    def test_annotations(self):
        dot = to_dot(bcd_tree(), {0: "+0.105"})
        assert "+0.105" in dot
        with pytest.raises(UnknownNodeId):
            to_dot(bcd_tree(), {7: "x"})

    def test_label_escaping(self):
        tree = ExpressionTree(var_node("B"))
        dot = to_dot(tree, {0: 'say "hi"'})
        assert '\\"hi\\"' in dot

    @pytest.mark.parametrize("annotations", [None, {0: "x"}])
    def test_variable_name_escaped_with_and_without_annotation(self, annotations):
        tree = ExpressionTree(var_node('a"b\\c'))
        dot = to_dot(tree, annotations)
        label = 'a\\"b\\\\c' + ("\\nx" if annotations else "")
        assert f'n0 [label="{label}" shape=box];' in dot


class TestDeepTree:
    DEPTH = 5000

    def chain(self):
        # (((A + B) + B) + ... + B), left-deep, DEPTH operators
        return ExpressionTree((Operator.ADD,) * self.DEPTH + ("A",) + ("B",) * self.DEPTH)

    def test_built_evaluated_and_rendered_without_recursion(self):
        tree = self.chain()
        assert (tree.size, tree.depth) == (2 * self.DEPTH + 1, self.DEPTH)
        expected = 1.0 + 2.0 * self.DEPTH
        assert evaluate(tree, {"A": 1.0, "B": 2.0}) == expected
        values = evaluate_nodes(tree, {"A": [1.0], "B": [2.0]})
        assert values[0, 0] == expected and values[self.DEPTH, 0] == 1.0
        data = Dataset({"A": [1.0, 0.0], "B": [2.0, 1.0]})
        assert np.array_equal(evaluate_batch(tree, data), [expected, float(self.DEPTH)])
        assert tree.infix.startswith("(" * self.DEPTH + "A + B)")
        dot = to_dot(tree)
        assert dot.count("->") == 2 * self.DEPTH
        assert f"n{self.DEPTH} -> n{self.DEPTH - 1};" in dot
        assert tree_from_json(tree_to_json(tree)) == tree

"""Expression trees over dataset variables, constants, and arithmetic operators.

A tree is one flat preorder tuple of tokens: an Operator, a variable name
(str) or a constant (float). Every operator is binary and its two operand
subtrees follow it, left then right, so every subtree is a contiguous slice
and a node's id is its index in the tuple. Trees are immutable after
construction and all operations here are pure functions, so a tree can be
shared and evaluated concurrently; any structural edit produces a new tree.
Every walk is a loop, never a recursion, so tree depth is bounded only by
memory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import MalformedTree, MissingVariable, UnknownNodeId

# Denominators smaller than this in magnitude make protected division return 1.0.
DIV_EPSILON = 1e-6
# Labels print values beyond it in exponent form, so none grows to hundreds of digits.
LABEL_CUTOFF = 1e16


def pdiv(x, y):
    """Protected division of floats or arrays: x / y, but 1.0 where the
    denominator is below DIV_EPSILON in magnitude or is NaN. A float
    denominator gives a float 1.0 where it is protected, whatever x is."""
    if isinstance(y, float):
        return x / y if abs(y) >= DIV_EPSILON else 1.0
    out = x / y
    out[~(abs(y) >= DIV_EPSILON)] = 1.0  # ~(>=), not <, so a NaN divisor gives 1.0 too
    return out


class Operator(enum.Enum):
    """Binary arithmetic operators available to expressions."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    PDIV = "pdiv"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it runs in C, where Enum's hashes the name in
    # Python, and token tuples are hashed for every fitness-cache lookup.
    __hash__ = object.__hash__


_SYMBOLS = {
    Operator.ADD: "+",
    Operator.SUB: "-",
    Operator.MUL: "*",
    Operator.PDIV: "/",
}

OPERATORS: tuple[Operator, ...] = tuple(Operator)
_ADD, _SUB, _MUL, _PDIV = Operator.ADD, Operator.SUB, Operator.MUL, Operator.PDIV

# Constants are floats and never ints, so no constant compares equal to
# another token (1 == 1.0 would merge distinct trees in hashed collections).
Token = Union[Operator, str, float]
Tokens = tuple  # tuple[Token, ...] in preorder

Bindings = Mapping[str, float]
Scenarios = Mapping[str, Sequence[float]]  # variable -> its value in each scenario


def var_node(name: str) -> Tokens:
    return (name,)


def const_node(value: float) -> Tokens:
    return (float(value),)


def op_node(operator: Operator, *children: Tokens) -> Tokens:
    return (operator,) + tuple(token for child in children for token in child)


def format_constant(value: float) -> str:
    """Shortest decimal form that round-trips; integral values inside
    (-LABEL_CUTOFF, LABEL_CUTOFF) print without a fraction, and a non-finite
    value prints as inf, -inf or nan."""
    if -LABEL_CUTOFF < value < LABEL_CUTOFF and value == int(value):
        return str(int(value))
    return repr(value)


_TOKEN_TYPES = frozenset((Operator, str, float))


def _malformed(tokens: Tokens) -> MalformedTree:
    """The first fault of a token sequence that does not encode one tree."""
    for index, token in enumerate(tokens):
        if type(token) not in _TOKEN_TYPES:
            return MalformedTree(f"node {index}: unknown token type {type(token).__name__}")
        if token == "":
            return MalformedTree(f"node {index}: variable names must be nonempty")
    if not tokens:
        return MalformedTree("empty token sequence")
    try:
        end = _subtree_end(tokens, 0)
    except IndexError:
        return MalformedTree("tokens end before every operator has 2 operands")
    return MalformedTree(f"tokens continue past the end of the tree at node {end}")


@dataclass(frozen=True, slots=True)
class ExpressionTree:
    """A preorder token tuple that encodes one tree, with stable node ids.

    ExpressionTree(tokens) validates the tokens; trusted_tree builds a tree
    whose tokens are valid by construction without that pass. No subtree
    bounds are stored: subtree_at finds one by a scan from its root. depth
    counts edges on the longest root-to-leaf path.
    """

    tokens: Tokens
    size: int = field(init=False, repr=False, compare=False)
    _depth: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = self.tokens
        if type(tokens) is not tuple:
            tokens = tuple(tokens)
            object.__setattr__(self, "tokens", tokens)
        depth = node_depth(tokens)
        if depth is None or not _TOKEN_TYPES.issuperset(map(type, tokens)) or "" in tokens:
            raise _malformed(tokens)
        object.__setattr__(self, "size", len(tokens))
        object.__setattr__(self, "_depth", depth)

    @property
    def depth(self) -> int:
        depth = self._depth
        if depth is None:
            depth = node_depth(self.tokens)
            object.__setattr__(self, "_depth", depth)
        return depth

    @property
    def infix(self) -> str:
        """Fully parenthesized, deterministic infix rendering."""
        stack: list[str] = []
        for token in reversed(self.tokens):
            if isinstance(token, Operator):
                left = stack.pop()
                stack[-1] = f"({left} {_SYMBOLS[token]} {stack[-1]})"
            elif isinstance(token, str):
                stack.append(token)
            else:
                stack.append(format_constant(token))
        return stack[0]


# ExpressionTree's slot setters: trusted_tree fills a tree's slots without
# object.__setattr__'s lookup by name.
_SET_TOKENS, _SET_SIZE, _SET_DEPTH = (
    ExpressionTree.__dict__[name].__set__ for name in ("tokens", "size", "_depth")
)


def trusted_tree(tokens: Tokens, depth: int | None = None) -> ExpressionTree:
    """The tree of a token tuple that is valid by construction, such as a
    splice of complete subtrees of valid trees, built without the validating
    pass. depth, when not given, is computed on first read."""
    tree = object.__new__(ExpressionTree)
    _SET_TOKENS(tree, tokens)
    _SET_SIZE(tree, len(tokens))
    _SET_DEPTH(tree, depth)
    return tree


def node_depth(tokens: Tokens) -> int | None:
    """Longest root-to-leaf path, counted in edges, of the tree that a
    preorder token sequence encodes, or None when the sequence is not exactly
    one tree; cheaper than building the tree."""
    deepest = level = 0
    pending = [None]  # levels of the right operands still to visit, next on top
    push, pop = pending.append, pending.pop
    try:
        for token in tokens:
            if token.__class__ is Operator:
                level += 1
                push(level)  # its left operand follows at once, at the same level
            else:
                if level > deepest:
                    deepest = level
                level = pop()  # the last leaf takes the None
    except TypeError:  # a token after the last leaf meets the None as its level
        return None
    return None if pending else deepest


def _subtree_end(tokens: Tokens, index: int) -> int:
    """Index just past the subtree rooted at node index of a valid preorder
    token tuple, found by a scan from index."""
    end, pending = index, 1  # operand slots still to fill
    while pending:
        pending += 1 if tokens[end].__class__ is Operator else -1
        end += 1
    return end


def subtree_at(tree: ExpressionTree, index: int) -> Tokens:
    """Tokens of the subtree rooted at node `index`."""
    if index < 0 or index >= tree.size:
        raise UnknownNodeId(index)
    tokens = tree.tokens
    return tokens[index : _subtree_end(tokens, index)]


def replace_at(tree: ExpressionTree, index: int, replacement: Tokens) -> Tokens:
    """Tokens of the tree with the subtree at node `index` swapped out."""
    if index < 0 or index >= tree.size:
        raise UnknownNodeId(index)
    tokens = tree.tokens
    return tokens[:index] + replacement + tokens[_subtree_end(tokens, index) :]


def dependency_set(tree: ExpressionTree) -> set[str]:
    """Names of all variables referenced anywhere in the tree."""
    return {token for token in tree.tokens if isinstance(token, str)}


def divisor_masks(columns: Mapping[str, np.ndarray]) -> dict[int, np.ndarray | None]:
    """For each column, where protected division by it gives 1.0: a boolean
    mask, or None where it gives the quotient everywhere. Keyed by the
    column's id, as the kernel meets a divisor as an array, not a name; the
    ids hold while the columns live."""
    masks = {}
    for column in columns.values():
        small = ~(abs(column) >= DIV_EPSILON)
        masks[id(column)] = small if small.any() else None
    return masks


def _run(tokens: Tokens, columns, masks: Mapping, rows=None):
    """The evaluation kernel: the root's value over the columns, a float when
    the tree reads no variable, else an array. Node i's value also goes to
    rows[i] when rows is given.

    One pass from the last token back, so both operands of an operator are
    done before it; only operands still to be used stay on the stack.
    Constants stay floats and + - * apply inline to floats or arrays alike,
    so a subtree of constants folds to a float, and an array operand gives
    the same bits as numpy's ufunc on the constant broadcast to an array. A
    divisor that is one of the columns itself, found by identity in masks
    (see divisor_masks), takes that column's mask; any other goes through
    pdiv. The caller holds the np.errstate scope, as overflow and NaN are
    ordinary values here.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for i in range(len(tokens) - 1, -1, -1):
        token = tokens[i]
        if token.__class__ is Operator:
            x = pop()
            if token is _ADD:
                stack[-1] = x + stack[-1]
            elif token is _SUB:
                stack[-1] = x - stack[-1]
            elif token is _MUL:
                stack[-1] = x * stack[-1]
            else:
                y = stack[-1]
                mask = masks.get(id(y), False)
                if mask is False:
                    stack[-1] = pdiv(x, y)
                else:  # x / y is a new array, and the column's mask was computed once
                    out = x / y
                    if mask is not None:
                        out[mask] = 1.0
                    stack[-1] = out
        elif token.__class__ is str:
            try:
                push(columns[token])
            except KeyError:
                raise MissingVariable(token) from None
        else:
            push(token)
        if rows is not None:
            rows[i] = stack[-1]
    return stack[0]


def evaluate_nodes(tree: ExpressionTree, scenarios: Scenarios) -> np.ndarray:
    """Value of every node in every scenario, as a (size x m) float64 array.

    scenarios maps each variable to a vector of its m values, one per
    scenario; row i holds node i's values, so row 0 is the output. float64
    arithmetic gives the same bits as evaluating each scenario alone.
    """
    m = len(next(iter(scenarios.values()), (0.0,)))
    # Only the variables the tree reads; a missing one is reported by _run.
    columns = {
        name: np.asarray(scenarios[name], dtype=np.float64)
        for name in dependency_set(tree)
        if name in scenarios
    }
    rows = np.empty((tree.size, m))
    with np.errstate(all="ignore"):
        _run(tree.tokens, columns, {}, rows)  # no masks: pdiv checks every divisor
    return rows


def evaluate(tree: ExpressionTree, bindings: Bindings) -> float:
    """Value at the root under the given variable bindings."""
    scenario = {name: (value,) for name, value in bindings.items()}
    return float(evaluate_nodes(tree, scenario)[0, 0])


def evaluate_batch(tree: ExpressionTree, data) -> np.ndarray:
    """Row-wise output over a dataset; element i equals evaluate on row i.

    The one dataset evaluator, gpsr.fitness's and synthbench's: one vector
    operation per operator that reads a variable, keeping at most depth + 1
    columns alive where evaluate_nodes holds one per node. It enters no
    np.errstate scope, as each caller goes on computing with the output and
    holds one scope around both.
    """
    out = _run(tree.tokens, data.columns, data.divisor_masks)
    return np.full(data.n_rows, out) if out.__class__ is float else out


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class DotLayout:
    """The parts of a tree's DOT text that annotations leave alone, built once:
    each node's label head and shape tail, and the edge block. Variables are
    boxed, operators ellipses; edges run child to parent, as values flow."""

    def __init__(self, tree: ExpressionTree):
        self.heads, self.tails = [], []
        edges = []
        pending: list[int] = []  # an operator's id once per operand still to come, next on top
        for node_id, token in enumerate(tree.tokens):
            if pending:
                edges.append(f"\n  n{node_id} -> n{pending.pop()};")
            if isinstance(token, Operator):
                label, shape = _SYMBOLS[token], "ellipse"
                pending += (node_id, node_id)
            elif isinstance(token, str):
                label, shape = _dot_escape(token), "box"
            else:
                label, shape = format_constant(token), "box"
            self.heads.append(f'  n{node_id} [label="{label}')
            self.tails.append(f'" shape={shape}];')
        self.edges = "".join(edges) + "\n}\n"

    def lines(self, annotations: Mapping[int, str], base: Sequence[str] | None = None) -> list[str]:
        """base's node lines (plain by default), annotated nodes' lines rewritten."""
        heads, tails = self.heads, self.tails
        lines = list(base) if base is not None else [h + t for h, t in zip(heads, tails)]
        for node_id, text in annotations.items():
            lines[node_id] = f"{heads[node_id]}\\n{_dot_escape(text)}{tails[node_id]}"
        return lines

    def render(self, lines: Sequence[str]) -> str:
        return "digraph expression_tree {\n" + "\n".join(lines) + self.edges


def to_dot(tree: ExpressionTree, annotations: Mapping[int, str] | None = None) -> str:
    """DOT digraph of the tree (see DotLayout); annotations[i] follows node i's label."""
    annotations = annotations or {}
    for key in annotations:
        if key < 0 or key >= tree.size:
            raise UnknownNodeId(key)
    layout = DotLayout(tree)
    return layout.render(layout.lines(annotations))


def tree_to_json(tree: ExpressionTree) -> dict:
    """Nested-node document for the tree, suitable for JSON serialization."""
    stack: list[dict] = []
    for token in reversed(tree.tokens):
        if isinstance(token, Operator):
            left = stack.pop()
            stack[-1] = {"op": token.value, "children": [left, stack[-1]]}
        elif isinstance(token, str):
            stack.append({"var": token})
        else:
            stack.append({"const": token})
    return stack[0]


def tree_from_json(doc: dict) -> ExpressionTree:
    """Inverse of tree_to_json; raises MalformedTree on unrecognized documents."""
    tokens: list = []
    stack = [doc]
    while stack:
        item = stack.pop()
        if not isinstance(item, dict):
            raise MalformedTree(f"expected an object, got {type(item).__name__}")
        if "var" in item:
            if not isinstance(item["var"], str) or not item["var"]:
                raise MalformedTree(f"variable name must be a nonempty string: {item['var']!r}")
            tokens.append(item["var"])
        elif "const" in item:
            try:  # a JSON number; float() would also take a string or a bool
                value = math.nan if isinstance(item["const"], (str, bool)) else float(item["const"])
            except (TypeError, OverflowError):
                value = math.nan
            if not math.isfinite(value):
                raise MalformedTree(f"constant is not a finite number: {item['const']!r}")
            tokens.append(value)
        elif "op" in item:
            try:
                tokens.append(Operator(item["op"]))
            except ValueError:
                raise MalformedTree(f"unknown operator {item['op']!r}") from None
            children = item.get("children", [])
            if not isinstance(children, list) or len(children) != 2:
                raise MalformedTree(f"operator {item['op']} expects a list of 2 children")
            stack.append(children[1])
            stack.append(children[0])
        else:
            raise MalformedTree(f"node object needs var, const, or op: {sorted(item)}")
    return ExpressionTree(tuple(tokens))

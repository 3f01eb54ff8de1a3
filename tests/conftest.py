"""Shared oracles and generators.

naive_eval and naive_derivative are written from scratch on purpose: they are
the reference the library is checked against, so they share no code with it
beyond reading the same preorder tokens. They find operands by their own
recursive descent, not through ExpressionTree.ends.
"""

import numpy as np
import pytest

from ecd.exprcore import ExpressionTree, Operator


def operands(tokens):
    """(left, right) token slices of an operator-rooted preorder token tuple."""
    pos, need = 1, 1
    while need:
        need += 1 if isinstance(tokens[pos], Operator) else -1
        pos += 1
    return tokens[1:pos], tokens[pos:]


def naive_eval(tokens, bindings):
    """Recursive reference evaluator with its own arithmetic and guard."""
    p = tokens[0]
    if isinstance(p, str):
        return float(bindings[p])
    if isinstance(p, float):
        return p
    left, right = operands(tokens)
    a = naive_eval(left, bindings)
    b = naive_eval(right, bindings)
    if p is Operator.ADD:
        return a + b
    if p is Operator.SUB:
        return a - b
    if p is Operator.MUL:
        return a * b
    if p is Operator.PDIV:
        return a / b if abs(b) >= 1e-6 else 1.0
    raise AssertionError(f"unexpected token {p!r}")


def naive_derivative(tokens, var, bindings):
    """Analytic partial derivative d(tree)/d(var) at the given point.

    Inside the protected-division guard the operator is constant 1.0, so its
    derivative there is 0.
    """
    p = tokens[0]
    if isinstance(p, str):
        return 1.0 if p == var else 0.0
    if isinstance(p, float):
        return 0.0
    left, right = operands(tokens)
    a = naive_eval(left, bindings)
    b = naive_eval(right, bindings)
    da = naive_derivative(left, var, bindings)
    db = naive_derivative(right, var, bindings)
    if p is Operator.ADD:
        return da + db
    if p is Operator.SUB:
        return da - db
    if p is Operator.MUL:
        return da * b + a * db
    if p is Operator.PDIV:
        if abs(b) < 1e-6:
            return 0.0
        return (da * b - a * db) / (b * b)
    raise AssertionError(f"unexpected token {p!r}")


VARS = ("u", "v", "w", "x")


def random_node(rng, depth, variables=VARS, const_lo=-4.0, const_hi=4.0):
    """Preorder tokens of a random tree of exactly bounded depth; leaves are
    variables or moderate constants so double arithmetic stays far from
    overflow."""
    if depth == 0 or (depth < 3 and rng.random() < 0.3):
        if rng.random() < 0.5:
            return (variables[int(rng.integers(0, len(variables)))],)
        return (float(rng.uniform(const_lo, const_hi)),)
    op = list(Operator)[int(rng.integers(0, 4))]
    left = random_node(rng, depth - 1, variables, const_lo, const_hi)
    return (op,) + left + random_node(rng, depth - 1, variables, const_lo, const_hi)


def random_tree(rng, max_depth=5, variables=VARS):
    return ExpressionTree(random_node(rng, int(rng.integers(1, max_depth + 1)), variables))


def random_bindings(rng, variables=VARS, lo=-10.0, hi=10.0):
    return {name: float(rng.uniform(lo, hi)) for name in variables}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

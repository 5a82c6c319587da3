"""A tiny arithmetic expression language for kernel and map definitions.

Supports +, -, *, /, **, unary minus, parentheses, numeric literals, the
declared variable names, the constants pi and e, and the functions sin, cos,
exp, sqrt, abs, log.  Everything compiles to a numpy-broadcasting callable.
"""
from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np


class ExpressionError(ValueError):
    pass


_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "log": np.log,
}
_CONSTS = {"pi": np.pi, "e": np.e}


def _power(a, b):
    """a**b, except that the complex power of a negative float is NaN, as it
    is for a numpy array: every value of the language is real."""
    value = a**b
    return math.nan if isinstance(value, complex) else value


MAX_DEPTH = 200  # nesting levels: evaluation recurses once per level
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: _power,
}


def compile_expression(text: str, variables: Sequence[str]) -> Callable:
    """Compile `text` into a callable taking the variables in order."""
    variables = tuple(variables)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels") from exc

    def build(node: ast.AST, depth: int = 0) -> Callable[[dict], object]:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.Expression):
            return build(node.body, depth + 1)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                try:
                    v = float(node.value)
                except OverflowError:  # an integer past the floats reads as 1e999 does
                    v = math.inf
                return lambda env: v
            raise ExpressionError(f"literal {node.value!r} is not numeric")
        if isinstance(node, ast.Name):
            if node.id in variables:
                name = node.id
                return lambda env: env[name]
            if node.id in _CONSTS:
                c = _CONSTS[node.id]
                return lambda env: c
            raise ExpressionError(
                f"unknown name {node.id!r}; allowed: {', '.join(variables)}"
            )
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left, right = build(node.left, depth + 1), build(node.right, depth + 1)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand, depth + 1)
            if isinstance(node.op, ast.USub):
                return lambda env: -inner(env)
            return inner
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError("only sin/cos/exp/sqrt/abs/log calls are allowed")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError(f"{node.func.id} takes exactly one argument")
            fn = _FUNCS[node.func.id]
            arg = build(node.args[0], depth + 1)
            return lambda env: fn(arg(env))
        raise ExpressionError(f"unsupported syntax: {ast.dump(node)[:60]}")

    body = build(tree)

    def call(*args):
        if len(args) != len(variables):
            raise ExpressionError(
                f"expression over ({', '.join(variables)}) called with {len(args)} arguments"
            )
        return body(dict(zip(variables, args)))

    call.__name__ = f"expr<{text}>"
    return call

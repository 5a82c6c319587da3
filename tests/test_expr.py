"""The expression language against the same arithmetic written out in Python.

Each literal of the language is a float and each name or function is the
numpy one, so an expression must give what the float arithmetic below gives,
value for value and exception for exception.
"""
import math

import numpy as np
import pytest

from monofix.expr import ExpressionError, compile_expression

EXPRESSIONS = {
    "0.3*u - 0.2*v + 1.0": lambda u, v: 0.3 * u - 0.2 * v + 1.0,
    "u/(v-v)": lambda u, v: u / (v - v),
    "u/v": lambda u, v: u / v,
    "u**1000": lambda u, v: u**1000.0,
    "2**u**v": lambda u, v: 2.0 ** (u**v),
    "-u**2 + +v": lambda u, v: -(u**2.0) + v,
    "-(-u) - -v": lambda u, v: -(-u) - (-v),
    "u - (v - 1) - 2 - u": lambda u, v: ((u - (v - 1.0)) - 2.0) - u,
    "(u + 1e308) * 10": lambda u, v: (u + 1e308) * 10.0,
    "1/0 + u": lambda u, v: 1.0 / 0.0 + u,
    "0.0/0.0*u": lambda u, v: 0.0 / 0.0 * u,
    "1e999 - u": lambda u, v: math.inf - u,
    "pi*u + e": lambda u, v: np.pi * u + np.e,
    "exp(sin(u)*cos(v)) + sqrt(abs(u)) - log(abs(v) + 1)": lambda u, v: (
        np.exp(np.sin(u) * np.cos(v)) + np.sqrt(np.abs(u)) - np.log(np.abs(v) + 1.0)
    ),
    "exp(1000*u*u)": lambda u, v: np.exp(1000.0 * u * u),
    "2**-1074 / 2 * u": lambda u, v: 2.0 ** (-1074.0) / 2.0 * u,
    "7 + u*0": lambda u, v: 7.0 + u * 0.0,
    "u": lambda u, v: u,
}
SCALARS = [(-10.0, 10.0), (0.5, 0.25), (0.0, 0.0), (-0.0, 3.0), (1e308, -1e308), (math.inf, 2.0), (math.nan, 1.0)]
ARRAYS = [
    (np.linspace(-2.0, 2.0, 7), np.linspace(0.5, 3.5, 7)),
    (np.array([0.0, 1.0, -1.0]), np.array([0.0, 0.0, 2.0])),
    (np.array([1e200, np.inf, np.nan]), 2.0),
]


def outcome(fn, *args):
    """repr of the result, or the type and text of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("text", list(EXPRESSIONS))
def test_expression_is_its_float_arithmetic(text):
    compiled, written = compile_expression(text, ("u", "v")), EXPRESSIONS[text]
    for args in SCALARS + ARRAYS:
        assert outcome(compiled, *args) == outcome(written, *args), (text, args)


@pytest.mark.parametrize(
    "text, variables, message",
    [
        ("1 +", ("t",), "cannot parse expression '1 +': invalid syntax"),
        ("'a' + t", ("t",), "literal 'a' is not numeric"),
        ("t + y", ("t", "s"), "unknown name 'y'; allowed: t, s"),
        ("t % 2", ("t",), "unsupported syntax: BinOp("),
        ("not t", ("t",), "unsupported syntax: UnaryOp("),
        ("max(t)", ("t",), "only sin/cos/exp/sqrt/abs/log calls are allowed"),
        ("np.sin(t)", ("t",), "only sin/cos/exp/sqrt/abs/log calls are allowed"),
        ("sin(t, s)", ("t", "s"), "sin takes exactly one argument"),
        ("sin(x=t)", ("t",), "sin takes exactly one argument"),
        ("t.real", ("t",), "unsupported syntax: Attribute("),
        ("__import__('os')", ("t",), "only sin/cos/exp/sqrt/abs/log calls are allowed"),
        ("y + 'a'", ("t",), "unknown name 'y'; allowed: t"),
    ],
)
def test_rejection_texts(text, variables, message):
    with pytest.raises(ExpressionError) as got:
        compile_expression(text, variables)
    assert str(got.value).startswith(message)


def test_arity_error_text():
    call = compile_expression("u + v", ("u", "v"))
    for args in [(), (1.0,), (1.0, 2.0, 3.0)]:
        want = f"ExpressionError: expression over (u, v) called with {len(args)} arguments"
        assert outcome(call, *args) == want
    assert outcome(compile_expression("2.5", ())) == "2.5"


def test_power_of_a_negative_float_is_nan_not_complex():
    # float arithmetic gives (-4.0)**0.5 == 2j; the language reads it as NaN,
    # as numpy's power does for an array
    power = compile_expression("u**v", ("u", "v"))
    assert math.isnan(power(-4.0, 0.5))
    with np.errstate(invalid="ignore"):
        assert np.isnan(power(np.array([-4.0]), 0.5)).all()
    assert power(-2.0, 3.0) == -8.0 and power(4.0, 0.5) == 2.0


def test_deep_nesting_and_long_integers():
    for text in ["-" * 300 + "t", "+".join(["t"] * 300), "-sin(" * 110 + "t" + ")" * 110]:
        with pytest.raises(ExpressionError, match="nests deeper than 200 levels"):
            compile_expression(text, ("t",))
    assert compile_expression("-" * 190 + "t", ("t",))(2.0) == 2.0
    assert compile_expression("1" * 400 + " - t", ("t",))(1.0) == math.inf

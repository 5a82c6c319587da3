"""Small shared helpers: equality across carrier types, stable formatting,
Collatz-Wielandt quotients."""
from __future__ import annotations

import functools
import math
from typing import Any

import numpy as np


def generic_eq(a: Any, b: Any) -> bool:
    """Equality that works for floats, tuples, frozensets and numpy arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(generic_eq(x, y) for x, y in zip(a, b))
    return a == b


# the tolerances of the float carriers' equality
RTOL, ATOL = 1e-9, 1e-12


def close_entries(a: Any, b: Any, rel: float = RTOL, abs_: float = ATOL) -> np.ndarray:
    """Entrywise `np.isclose(a, b, rtol=rel, atol=abs_)`: |a - b| <= abs_ +
    rel*|b| where b is finite, or a == b, evaluated directly, without the
    per-call set-up of `isclose`, which takes more than half its time on a
    101-entry array.  b is made inexact as numpy does.  inf - inf and
    overflowing differences are not warned about: they only ever decide
    "not close" or are overruled by a == b.
    """
    b = np.asarray(b, dtype=np.result_type(b, 1.0))
    with np.errstate(invalid="ignore", over="ignore"):
        return (abs(a - b) <= abs_ + rel * abs(b)) & np.isfinite(b) | (a == b)


@functools.lru_cache(maxsize=None)  # one function per tolerance pair
def close_eq(rel: float = RTOL, abs_: float = ATOL):
    """Tolerant equality for float-based carriers (scalars, tuples, arrays).

    On arrays it is `np.allclose(a, b, rtol=rel, atol=abs_)`: every entry
    `close_entries`.
    """

    def eq(a: Any, b: Any) -> bool:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return bool(close_entries(a, b, rel, abs_).all())
        if isinstance(a, tuple) and isinstance(b, tuple):
            return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
        return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))

    return eq


def below_entries(x: np.ndarray, rung: Any) -> np.ndarray:
    """The scalar `strictly_below(x, rung)` of `close_eq`'s carriers, entry
    by entry: x <= rung and not |x - rung| <= ATOL + RTOL * max(|x|, |rung|)."""
    return (x <= rung) & ~(abs(x - rung) <= ATOL + RTOL * np.maximum(abs(x), abs(rung)))


def close_band(rung: np.ndarray) -> np.ndarray:
    """rung - ATOL - RTOL * |rung|: an entry below it is not `close_entries`
    to the rung's entry."""
    return rung - ATOL - RTOL * np.abs(rung)


def format_value(v: Any) -> str:
    """Deterministic, compact, single-line rendering for CSV and reports."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.ndarray):
        flat = np.asarray(v).ravel()
        if flat.size > 8:
            head = " ".join(repr(float(x)) for x in flat[:4])
            return f"[{head} ... n={flat.size} sup={repr(float(np.max(np.abs(flat))))}]"
        return "[" + " ".join(repr(float(x)) for x in flat) + "]"
    if isinstance(v, frozenset):
        pairs = sorted(v, key=repr)
        return "{" + ", ".join(f"({format_value(a)},{format_value(b)})" for a, b in pairs) + "}"
    if isinstance(v, tuple):
        return "(" + ", ".join(format_value(x) for x in v) + ")"
    return repr(v)


def ratio_bounds(
    x: np.ndarray, y: np.ndarray, dead: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collatz-Wielandt quotients of row pairs (x, y = W x) for a nonnegative
    m x m matrix W whose identically zero rows are marked by `dead`.

    Returns, per row pair, lo and hi with lo x <= W x <= hi x, and whether
    the pair is usable: x at least the smallest normal float and y finite on
    the live rows.  They are the min and max of y / x over the live rows
    (on a dead row W x is exactly zero), widened by (m + 2) eps, relative,
    to cover the rounding of the m-term dot products and of the quotient.
    `out` is scratch of the pairs' shape; the dead rows are masked in it by
    +-inf rather than copied out.
    """
    usable = np.all((x >= np.finfo(float).tiny) | dead, axis=1)
    usable &= np.all(np.isfinite(y) | dead, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(y, x, out=out)
    out[:, dead] = math.inf
    lo = np.min(out, axis=1)
    out[:, dead] = -math.inf
    hi = np.max(out, axis=1)
    slack = (x.shape[1] + 2) * float(np.finfo(float).eps)
    return lo * (1.0 - slack), hi * (1.0 + slack), usable

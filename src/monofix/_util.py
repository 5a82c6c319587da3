"""Small shared helpers: equality across carrier types, stable formatting,
Collatz-Wielandt quotients."""
from __future__ import annotations

import math
import operator
from typing import Any, Optional

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


def close_entries(a: Any, b: Any) -> np.ndarray:
    """`close_eq`'s rule, entry by entry: a == b, or |a - b| <= ATOL + RTOL *
    max(|a|, |b|) with that band finite.  Both sides are made inexact first,
    so that integer entries neither wrap in a - b nor overflow in |a|.
    inf - inf, NaN and overflowing differences are not warned about: they
    only ever decide "not close" or are overruled by a == b.
    """
    a, b = np.asarray(a), np.asarray(b)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    b = b.astype(np.result_type(b, 1.0), copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        band = ATOL + RTOL * np.maximum(abs(a), abs(b))
        return (abs(a - b) <= band) & (band < math.inf) | (a == b)


def close_eq(a: Any, b: Any) -> bool:
    """Tolerant equality for float-based carriers (scalars, tuples, arrays).

    Two floats are equal when a == b, or when |a - b| <= ATOL + RTOL *
    max(|a|, |b|) and that band is finite.  The rule is symmetric; a
    non-finite value (a band of inf) equals only itself, and NaN equals
    nothing.  Tuples are equal entry by entry; arrays are equal when every
    entry is `close_entries`, the same rule evaluated by numpy.
    """
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(close_eq, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(close_entries(a, b).all())
    return a == b or abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b)) < math.inf


def leq_rows(a: np.ndarray, b: Any) -> np.ndarray:
    """The order of `close_eq`'s carriers on rows: `<=` along the last axis."""
    return (a <= b).all(axis=-1)


def close_rows(a: Any, b: Any) -> np.ndarray:
    """`close_eq` on rows: `close_entries` along the last axis."""
    return close_entries(a, b).all(axis=-1)


def below_rows(a: np.ndarray, b: Any) -> np.ndarray:
    """`strictly_below` of `close_eq`'s carriers on rows (a scalar is a row
    of one entry): `leq_rows` and not `close_rows`."""
    return leq_rows(a, b) & ~close_rows(a, b)


def first_below(rows: np.ndarray, rung: Any) -> Optional[int]:
    """The first row `below_rows` the rung, or None.  Only the rows that
    `leq_rows` it are tested for a tie, one at a time, up to the first that
    is not one, so `close_entries` never sees the whole block."""
    for i in np.flatnonzero(leq_rows(rows, rung)):
        if not close_rows(rows[i], rung):
            return int(i)
    return None


def close_band(rung: np.ndarray) -> np.ndarray:
    """rung - ATOL - RTOL * |rung|: an entry below it is not `close_entries`
    to the rung's entry."""
    return rung - ATOL - RTOL * np.abs(rung)


def add_entries(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def leq_entries(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


def max_entries(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def leq_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a <= b).all())


# The (combine, leq, eq, sup) of the real-entrywise carriers, by the type of
# their identity: floats, tuples of floats and float arrays, added by +,
# ordered by <= and compared by close_eq entry by entry, with the entrywise
# max as supremum.  `MonoidSpec.elementwise` holds exactly when a monoid's
# four callbacks are one row of this table.
REAL_ENTRYWISE = {
    float: (operator.add, operator.le, close_eq, max),
    tuple: (add_entries, leq_entries, close_eq, max_entries),
    np.ndarray: (np.add, leq_arrays, close_eq, np.maximum),
}


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
    the pair is usable: x at least the smallest normal float and y finite
    and at least 2**-969 on the live rows, so that the products that
    underflow in a dot product add less than one eps relative for any
    m <= 2**52.  They are the min and max of y / x over the live rows (on a
    dead row W x is exactly zero), widened by (m + 3) eps, relative, to
    cover that eps and the rounding of the m-term dot products and of the
    quotient.  `out` is scratch of the pairs' shape; the dead rows are
    masked in it by +-inf rather than copied out.
    """
    usable = np.all((x >= np.finfo(float).tiny) | dead, axis=1)
    usable &= np.all((np.isfinite(y) & (y >= 2.0**-969)) | dead, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(y, x, out=out)
    out[:, dead] = math.inf
    lo = np.min(out, axis=1)
    out[:, dead] = -math.inf
    hi = np.max(out, axis=1)
    slack = (x.shape[1] + 3) * float(np.finfo(float).eps)
    return lo * (1.0 - slack), hi * (1.0 + slack), usable

"""Partially ordered monoids, test ladders, and null-trace machinery.

A `MonoidSpec` packages a carrier with an associative operation, a neutral
element, and a compatible partial order.  A `TestLadder` is a finite
descending chain of strictly positive elements with the halving property
(each rung above the bottom has a rung whose double sits below it); it is the
decidable stand-in for a threshold family, and every convergence-style check
in the library reduces to "falls and stays strictly below the bottom rung
within a witness budget".
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ._rng import child_rng, choice_indices, distinct_draws
from ._util import REAL_ENTRYWISE, below_rows, close_rows, first_below, format_value, generic_eq, leq_rows
from .reporting import CheckResult, Decision, ValidationReport


def relation_compose(a: frozenset, b: frozenset) -> frozenset:
    """The relation {(x, y): (x, z) in a and (z, y) in b for some z}."""
    succ: dict[Any, list] = {}
    for u, v in b:
        succ.setdefault(u, []).append(v)
    return frozenset((x, y) for x, z in a for y in succ.get(z, ()))


# The (combine, leq, eq, sup) of the relation monoids: composition, and
# inclusion, equality and union of frozensets of pairs.
RELATIONAL = (relation_compose, operator.le, operator.eq, operator.or_)


@dataclass(frozen=True)
class MonoidSpec:
    """A partially ordered monoid.

    `leq` is a partial order: both `leq(x, y)` and `leq(y, x)` being false
    means x and y are incomparable, which is a first-class outcome and never
    silently coerced.  `sup` is optional and, when present, must return the
    least upper bound of its arguments.  `eq` is the carrier equality; float
    carriers use a tolerant equality so that rounding does not break the
    algebraic axioms.  `elementwise` and `relational`, read from the
    callbacks, mark the real-entrywise and the relation carriers, which the
    fast paths check on stacked arrays.

    Every callback must be deterministic: the validators decide each
    distinct draw once and give its repeats the same verdict.
    """

    carrier_descr: str
    combine: Callable[[Any, Any], Any]
    identity: Any
    leq: Callable[[Any, Any], bool]
    sup: Optional[Callable[[Any, Any], Any]] = None
    eq: Callable[[Any, Any], bool] = generic_eq

    @property
    def elementwise(self) -> bool:
        """Whether `combine`, `leq`, `eq` and `sup` are the `REAL_ENTRYWISE`
        row of the identity's type: +, <=, close_eq and max on every entry
        of a float, a tuple of floats or a float array.  The fast paths over
        such a carrier work on stacked float arrays; a `replace()` of any
        callback turns them off."""
        ops = REAL_ENTRYWISE.get(type(self.identity))
        mine = (self.combine, self.leq, self.eq, self.sup)
        return ops is not None and all(map(operator.is_, mine, ops))

    @property
    def relational(self) -> bool:
        """Whether the identity is a frozenset and `combine`, `leq`, `eq` and
        `sup` are `RELATIONAL`: the monoid of relations, frozensets of pairs,
        under composition and inclusion, with union as supremum.  A
        `replace()` of any callback turns its fast path off."""
        mine = (self.combine, self.leq, self.eq, self.sup)
        return isinstance(self.identity, frozenset) and all(map(operator.is_, mine, RELATIONAL))

    @classmethod
    def real_entrywise(cls, carrier_descr: str, identity: Any) -> "MonoidSpec":
        """The elementwise monoid of `identity`: a float, float tuple or array."""
        combine, leq, eq, sup = REAL_ENTRYWISE[type(identity)]
        return cls(carrier_descr, combine, identity, leq, sup, eq)

    def is_positive(self, x: Any) -> bool:
        return self.leq(self.identity, x)

    def strictly_below(self, x: Any, y: Any) -> bool:
        return self.leq(x, y) and not self.eq(x, y)

    def fold(self, elements: Sequence[Any]) -> Any:
        acc = self.identity
        for e in elements:
            acc = self.combine(acc, e)
        return acc


def _not_descending(spec: MonoidSpec, rungs: Sequence[Any]) -> Optional[int]:
    """The first i whose rung i + 1 is not strictly below rung i, or None."""
    pairs = enumerate(zip(rungs, rungs[1:]))
    return next((i for i, (hi, lo) in pairs if not spec.strictly_below(lo, hi)), None)


@dataclass(frozen=True)
class TestLadder:
    """A finite descending chain of strictly positive monoid elements.

    `build` refuses rungs that do not strictly descend; `validate_ladder`
    checks positivity, descent and the halving property (every rung but the
    bottom one, the truncation point of the chain, has a rung delta with
    combine(delta, delta) <= it).
    """

    __test__ = False  # not a test class, despite the name

    rungs: tuple

    @property
    def bottom(self) -> Any:
        return self.rungs[-1]

    def __len__(self) -> int:
        return len(self.rungs)

    @classmethod
    def build(cls, spec: MonoidSpec, rungs: Sequence[Any]) -> "TestLadder":
        rungs = tuple(rungs)
        bad = _not_descending(spec, rungs)
        if bad is not None:
            pair = _pair_repr(*rungs[bad : bad + 2])
            raise ValueError(f"ladder rungs {bad},{bad + 1} do not strictly descend: {pair}")
        return cls(rungs=rungs)


# The deepest dyadic ladder whose bottom rung, 2**-1074, is a positive float.
MAX_LADDER_DEPTH = 1074


def dyadic_ladder(depth: int = 20) -> TestLadder:
    """The standard real ladder 1/2, 1/4, ..., 2**-depth, depth 1 to 1074."""
    if not 1 <= depth <= MAX_LADDER_DEPTH:
        raise ValueError(f"ladder depth must be from 1 to {MAX_LADDER_DEPTH}, not {depth}")
    return TestLadder(rungs=tuple(2.0 ** -(i + 1) for i in range(depth)))


@dataclass(frozen=True)
class MTrace:
    """A finite trace of positive monoid elements plus a witness budget.

    `budget` caps the index at which a decision witness may start.  A trace
    longer than its budget carries extra evidence: the tail past the budget
    still has to stay quiet for a NULL verdict, which is what separates
    genuinely summable traces from slowly diverging ones on finite data.
    Over an elementwise array carrier, `elements` may also be a 2-d array
    whose rows are the elements.
    """

    elements: tuple
    budget: int

    @classmethod
    def of(cls, elements: Sequence[Any], budget: Optional[int] = None) -> "MTrace":
        elements = tuple(elements)
        return cls(elements=elements, budget=len(elements) if budget is None else budget)

    def __len__(self) -> int:
        return len(self.elements)


def _not_positive(i: int, x: Any) -> ValueError:
    return ValueError(f"trace element at index {i} is not in the positive cone: {format_value(x)}")


def _require_positive(trace_elements: Sequence[Any], spec: MonoidSpec) -> None:
    """Raise for the first element that is not `is_positive`.

    One pass of `leq(identity, x)` over all elements runs without a Python
    frame per element when `leq` is a builtin; only a failing trace is
    scanned again, to find the element.
    """
    leq, identity = spec.leq, spec.identity
    if all(map(leq, itertools.repeat(identity), trace_elements)):
        return
    for i, x in enumerate(trace_elements):
        if not leq(identity, x):
            raise _not_positive(i, x)


def _tail_decision(row_is_bad: Callable[[int], bool], rows: int, n: int, budget: int) -> Decision:
    """The verdict of a last-bad-row rule, read from the tail.

    A check marks rows 0..rows-1 good or bad and is NULL when it has no bad
    row or its last bad row is at index min(rows, budget) - 2 or earlier.
    Only the rows after that index can change the verdict, so they are
    tested from the last one down and the test stops at the first bad row.
    A budget below 1 admits no start index: the check is NOT_NULL_WITHIN
    and no row is tested, as `cauchy_series_window_report` finds no witness
    N <= budget.  A check that is not NULL is NOT_NULL_WITHIN once its
    evidence has reached the budget (`n >= budget`), else INDETERMINATE.
    """
    last_ok = max(min(rows, budget) - 2, -1)
    if budget >= 1 and not any(row_is_bad(i) for i in range(rows - 1, last_ok, -1)):
        return Decision.NULL
    return Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE


def is_null_trace(trace: MTrace, ladder: TestLadder, spec: MonoidSpec) -> Decision:
    """Decide whether the trace falls and stays strictly below the bottom rung.

    NULL requires a start index N below min(n, budget) such that every
    element from N to the end of the trace sits strictly below the bottom
    rung: no element is a violation, or the last one is at index
    min(n, budget) - 2 or earlier.  Elements that exceed or are incomparable
    to the rung count as violations.  A budget below 1 admits no start
    index, so such a trace is NOT_NULL_WITHIN.

    Every element is checked for positivity.  Only the elements after index
    min(n, budget) - 2 are then compared with the rung, from the end of the
    trace back, stopping at the first violation: with budget n that is the
    last element alone.
    """
    xs = trace.elements
    n = len(xs)
    if n == 0:
        raise ValueError("empty trace")
    bottom = ladder.bottom
    _require_positive(xs, spec)
    return _tail_decision(lambda i: not spec.strictly_below(xs[i], bottom), n, n, trace.budget)


def _suffix_sums(trace: MTrace, spec: MonoidSpec) -> list:
    """Sums of the windows [i, end], folded from the right.

    Each sum is built from its own window only: a suffix taken as total
    minus prefix loses a small tail next to a large head to cancellation.
    """
    xs = trace.elements
    n = len(xs)
    tails = [None] * n
    acc = xs[-1]
    tails[-1] = acc
    for i in range(n - 2, -1, -1):
        acc = spec.combine(xs[i], acc)
        tails[i] = acc
    return tails


def _rows(elements: Sequence[Any]) -> np.ndarray:
    """Elements of a real-entrywise carrier as floats, a row per element."""
    return np.asarray(elements, dtype=float).reshape(len(elements), -1)


def _as_carrier(row: np.ndarray, identity: Any) -> Any:
    """A row of `_rows` as a value of the carrier of `identity`."""
    if isinstance(identity, np.ndarray):
        return row.reshape(identity.shape)
    return tuple(row.tolist()) if isinstance(identity, tuple) else float(row[0])


def _stacked_suffix_scan(
    trace: MTrace, bottom: Any, spec: MonoidSpec
) -> tuple[np.ndarray, Optional[int]]:
    """Suffix sums, a row each, and the first one strictly below `bottom`,
    for an elementwise carrier, computed on the stacked trace.

    The positivity check runs on all rows at once.  The reversed cumulative
    sum adds the elements in the order of the right fold in `_suffix_sums`
    (float addition is commutative), so every suffix sum is bit-identical
    to it, and `first_below` finds the first one strictly below the rung.
    """
    xs, identity = _rows(trace.elements), _rows([spec.identity])
    if not (xs >= identity).all():  # no (n, m) mask outlives the check
        i = int(np.argmin(leq_rows(identity, xs)))
        raise _not_positive(i, trace.elements[i])
    tails = np.cumsum(xs[::-1], axis=0)[::-1]
    return tails, first_below(tails, _rows([bottom])[0])


def cauchy_series_window_report(
    trace: MTrace, ladder: TestLadder, spec: MonoidSpec
) -> tuple[Decision, Optional[int], Optional[tuple]]:
    """Like `cauchy_series_check` but also returns the witness index or the
    offending window (start, end, sum) when the check does not pass.

    Because the elements are positive and the order is compatible with the
    operation, every window inside [N, end] is dominated by the full tail
    window [N, end]; the check therefore only needs the suffix sums.  Over an
    elementwise carrier they are computed on the stacked trace, with the same
    additions in the same order as the per-element right fold and the same
    equality rule deciding ties, so the decision, witness and window are the
    same; the window's sum is returned as a carrier value.
    """
    if len(trace.elements) == 0:
        raise ValueError("empty trace")
    bottom = ladder.bottom
    if spec.elementwise:
        tails, witness = _stacked_suffix_scan(trace, bottom, spec)
        window_sum = lambda i: _as_carrier(tails[i], spec.identity)
    else:
        _require_positive(trace.elements, spec)
        tails = _suffix_sums(trace, spec)
        witness = next((i for i, t in enumerate(tails) if spec.strictly_below(t, bottom)), None)
        window_sum = tails.__getitem__
    n = len(tails)
    if witness is not None and witness + 1 <= trace.budget:
        return Decision.NULL, witness + 1, None
    start = min(trace.budget, n) - 1
    offending = (start + 1, n, window_sum(start)) if start >= 0 else None
    if n >= trace.budget:
        return Decision.NOT_NULL_WITHIN, None, offending
    return Decision.INDETERMINATE, None, offending


def cauchy_series_check(trace: MTrace, ladder: TestLadder, spec: MonoidSpec) -> Decision:
    """Decide whether the trace is the term sequence of a Cauchy series.

    NULL means: there is a start index N <= budget such that every window sum
    over [n, m] with N <= n <= m <= end stays strictly below the bottom rung.
    """
    decision, _, _ = cauchy_series_window_report(trace, ladder, spec)
    return decision


def is_bounded(elements: Sequence[Any], spec: MonoidSpec) -> Optional[Any]:
    """Return a common upper bound for the elements when one can be built.

    With a supremum the bound is the supremum fold; otherwise a linear scan
    looks for a dominating element.  An absent result means no bound was
    found, not that none exists.
    """
    if not elements:
        raise ValueError("empty element list")
    if spec.sup is not None:
        acc = elements[0]
        for e in elements[1:]:
            acc = spec.sup(acc, e)
        return acc
    candidate = elements[0]
    for e in elements[1:]:
        if spec.leq(candidate, e):
            candidate = e
    if all(spec.leq(e, candidate) for e in elements):
        return candidate
    return None


def _pair_repr(*items: Any) -> str:
    return ", ".join(format_value(x) for x in items)


def _stacked_axioms(
    identity: np.ndarray, add: Callable, leq: Callable, eq: Callable, sup: Callable
) -> dict[str, Callable[..., np.ndarray]]:
    """The axioms of `validate_monoid` on stacked arguments: trial t is the
    element t of each argument, and each axiom returns one verdict per
    trial.  `add`, `leq`, `eq` and `sup` are the carrier's operations on
    stacked elements, so each trial's verdict is the per-trial predicate's."""

    def riesz(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
        s = sup(a, b)
        return leq(a, s) & leq(b, s) & ~(leq(a, z) & leq(b, z) & ~leq(s, z))

    return {
        "associativity": lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c))),
        "identity": lambda x: eq(add(identity, x), x) & eq(add(x, identity), x),
        "order_reflexive": lambda x: leq(x, x),
        "order_transitive": lambda a, b, c: ~(leq(a, b) & leq(b, c)) | leq(a, c),
        "order_antisymmetric": lambda a, b: ~(leq(a, b) & leq(b, a)) | eq(a, b),
        "order_compatibility": lambda x1, y1, x2, y2: ~(leq(x1, y1) & leq(x2, y2))
        | leq(add(x1, x2), add(y1, y2)),
        "riesz_supremum": riesz,
    }


def _relation_matrices(relations: Sequence[frozenset]) -> np.ndarray:
    """Relations as stacked boolean point x point matrices, indexed over the
    points that appear in them."""
    points = dict.fromkeys(p for r in relations for pair in r for p in pair)
    index = {p: i for i, p in enumerate(points)}
    n = len(index)
    out = np.zeros((len(relations), n * n), dtype=bool)
    for row, r in zip(out, relations):
        row[[index[a] * n + index[b] for a, b in r]] = True
    return out.reshape(len(relations), n, n)


def _compose_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked `relation_compose`: the boolean matrix product, as a count
    of paths in float32 by the BLAS, which is positive where one exists."""
    return np.matmul(a, b, dtype=np.float32) > 0


# A chunk of relational trials stacks at most this many entries per argument.
_CHUNK_ENTRIES = 1 << 16


def _relation_ops(relations: Sequence[frozenset]) -> tuple[tuple, int]:
    """The composition, inclusion, equality and union of stacked relations,
    given as indices into `relations` or as boolean point x point matrices,
    and the entries of a matrix.  Two index arguments compose by a lookup in
    a table of every product of two relations, composed once if it holds at
    most 16 chunks' entries."""
    matrices = _relation_matrices(relations)
    of = lambda x: x if x.dtype == bool else matrices[x]
    fits = len(matrices) ** 2 * matrices[0].size <= 16 * _CHUNK_ENTRIES
    products = _compose_stacked(matrices[:, None], matrices[None]) if fits else None

    def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if products is not None and bool not in (a.dtype, b.dtype):
            return products[a, b]
        return _compose_stacked(of(a), of(b))

    ops = (
        compose,
        lambda a, b: ~(of(a) & ~of(b)).any(axis=(1, 2)),
        lambda a, b: (of(a) == of(b)).all(axis=(1, 2)),
        lambda a, b: of(a) | of(b),
    )
    return ops, matrices[0].size


def _stacked_carrier(spec: MonoidSpec, samples: list) -> Optional[tuple]:
    """The samples stacked, the axioms on stacked arguments and the trials
    per chunk (None: all at once), over an elementwise or a relational
    carrier; else None.

    Elementwise: a float row per element; `+`, `leq_rows`, `close_rows`
    and `np.maximum` (`max` differs from it only where a NaN fails `leq`
    either way).  Relational: an index per relation into the samples and
    the identity (`_relation_ops`), in chunks of at most `_CHUNK_ENTRIES`
    matrix entries per argument.
    """
    if spec.elementwise:
        rows, identity = _rows(samples), _rows([spec.identity])
        ops = (np.add, leq_rows, close_rows, np.maximum)
        chunk = None
    elif spec.relational:
        ops, size = _relation_ops([*samples, spec.identity])
        rows, identity = np.arange(len(samples)), np.intp(len(samples))
        chunk = max(1, _CHUNK_ENTRIES // size)
    else:
        return None
    return rows, _stacked_axioms(identity, *ops), chunk


def _first_false(verdicts: Callable, rows: np.ndarray, idx: np.ndarray, arity: int, chunk: int) -> Optional[int]:
    """The first trial whose verdict on the stacked samples rows[idx] is
    False, or None; `chunk` trials at a time."""
    for start in range(0, len(idx), chunk * arity):
        part = idx[start : start + chunk * arity]
        bad = np.flatnonzero(~verdicts(*(rows[part[j::arity]] for j in range(arity))))
        if bad.size:
            return start // arity + int(bad[0])
    return None


def validate_monoid(
    spec: MonoidSpec,
    samples: Sequence[Any],
    trials: int,
    seed: int = 0,
) -> ValidationReport:
    """Randomized audit of the monoid axioms on the given samples.

    Each axiom reports PASS with the trial count or a concrete counterexample
    from its first failing trial.  A failed axiom is a report entry, never
    an exception.

    Trial t of an axiom of arity k takes the samples that k calls
    `rng.choice(samples)` would pick.  Each axiom draws the indices of all
    its trials at once (`choice_indices`) and leaves `rng` where the
    per-trial loop would stop: after the failing trial, or after the last.
    Over an elementwise or a relational carrier each axiom is evaluated on
    the stacked samples of all its trials, or of a chunk of them at a time
    over relations (`_stacked_carrier`), and the first False verdict is the
    failing trial; other carriers call
    the predicate once per distinct draw: on the first trial to draw each
    tuple of sample indices (`distinct_draws`).  Draws, verdicts and
    counterexamples are those of the per-trial loop.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not samples:
        raise ValueError("samples must be non-empty")
    rng = child_rng(seed, "validate_monoid")
    samples = list(samples)
    checks: list[CheckResult] = []
    stacked = _stacked_carrier(spec, samples)

    def axiom(name: str, arity: int, predicate: Callable[..., bool]) -> None:
        idx, settle = choice_indices(rng, len(samples), trials * arity)
        if stacked is not None:
            rows, on_rows, chunk = stacked
            failing = _first_false(on_rows[name], rows, idx, arity, chunk or trials)
        else:
            draws = ((t, map(samples.__getitem__, key)) for t, key in distinct_draws(idx, arity))
            failing = next((t for t, args in draws if not predicate(*args)), None)
        t = trials if failing is None else failing + 1
        settle(t * arity)
        text = None if failing is None else _pair_repr(*(samples[i] for i in idx[(t - 1) * arity : t * arity]))
        checks.append(CheckResult(name, failing is None, trials=t, counterexample=text))

    leq, eq, add, identity = spec.leq, spec.eq, spec.combine, spec.identity
    axiom("associativity", 3, lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c))))
    axiom("identity", 1, lambda x: eq(add(identity, x), x) and eq(add(x, identity), x))
    axiom("order_reflexive", 1, lambda x: leq(x, x))
    axiom("order_transitive", 3, lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c))
    axiom("order_antisymmetric", 2, lambda a, b: not (leq(a, b) and leq(b, a)) or eq(a, b))
    axiom(
        "order_compatibility",
        4,
        lambda x1, y1, x2, y2: not (leq(x1, y1) and leq(x2, y2)) or leq(add(x1, x2), add(y1, y2)),
    )
    if spec.sup is not None:

        def riesz(a: Any, b: Any, z: Any) -> bool:
            s = spec.sup(a, b)
            return leq(a, s) and leq(b, s) and not (leq(a, z) and leq(b, z) and not leq(s, z))

        axiom("riesz_supremum", 3, riesz)

    positive = any(spec.is_positive(x) and not eq(x, identity) for x in samples)
    text = None if positive else "no sample above the identity"
    checks.append(CheckResult("positive_cone_nontrivial", positive, len(samples), text))
    return ValidationReport(subject=spec.carrier_descr, checks=tuple(checks))


def _stacked_ladder(spec: MonoidSpec, rungs: tuple) -> tuple[Optional[int], ...]:
    """`validate_ladder`'s first failing rung of each check (None: it passes)
    over an elementwise carrier: `+`, `leq_rows` and `below_rows` on all rungs at once."""
    r, identity = _rows(rungs), _rows([spec.identity])
    positive, descends = below_rows(identity, r), below_rows(r[1:], r[:-1])
    eps, doubles = r[:-1], r + r
    # the (eps, delta) comparisons, for as many rungs eps at a time as a chunk holds
    step = max(1, _CHUNK_ENTRIES // doubles.size)
    halved = [leq_rows(doubles, eps[i : i + step, None]).any(axis=1) for i in range(0, len(eps), step)]
    halved = np.concatenate([np.ones(0, dtype=bool), *halved])
    return tuple(None if ok.all() else int(np.argmin(ok)) for ok in (positive, descends, halved))


def validate_ladder(spec: MonoidSpec, ladder: TestLadder) -> ValidationReport:
    """Check positivity, strict descent, and the halving property of a ladder.

    Each check reports its first failing rung.  An elementwise carrier's
    rungs are checked all at once (`_stacked_ladder`), others rung by rung.
    """
    rungs = ladder.rungs
    if not rungs:
        raise ValueError("ladder must be non-empty")
    if spec.elementwise:
        bad = _stacked_ladder(spec, rungs)
    else:
        positive = lambda r: spec.is_positive(r) and not spec.eq(r, spec.identity)
        # from the bottom rung up: with a monotone combine its double fits
        # first; each double is composed once per call, when first needed
        doubles: dict[int, Any] = {}
        double = lambda k: doubles[k] if k in doubles else doubles.setdefault(k, spec.combine(rungs[k], rungs[k]))
        halved = lambda eps: any(spec.leq(double(k), eps) for k in reversed(range(len(rungs))))
        bad = (
            next((i for i, r in enumerate(rungs) if not positive(r)), None),
            _not_descending(spec, rungs),
            next((i for i, eps in enumerate(rungs[:-1]) if not halved(eps)), None),
        )
    n = len(rungs)
    # a check's first failing rung i, rendered by text(i); None when it passes
    check = lambda name, count, i, text: CheckResult(name, i is None, count, None if i is None else text(i))
    return ValidationReport(
        subject="test ladder",
        checks=(
            check("positivity", n, bad[0], lambda i: f"rung {i}: {format_value(rungs[i])}"),
            check("strict_descent", n - 1, bad[1], lambda i: f"rungs {i},{i + 1}: {_pair_repr(*rungs[i : i + 2])}"),
            check(
                "halving", n - 1, bad[2],
                lambda i: f"no rung delta with delta+delta <= rung {i} ({format_value(rungs[i])})",
            ),
        ),
    )

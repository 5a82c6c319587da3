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

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ._rng import child_rng
from ._util import format_value, generic_eq
from .reporting import CheckResult, Decision, ValidationReport


@dataclass(frozen=True)
class MonoidSpec:
    """A partially ordered monoid.

    `leq` is a partial order: both `leq(x, y)` and `leq(y, x)` being false
    means x and y are incomparable, which is a first-class outcome and never
    silently coerced.  `sup` is optional and, when present, must return the
    least upper bound of its arguments.  `eq` is the carrier equality; float
    carriers use a tolerant equality so that rounding does not break the
    algebraic axioms.
    """

    carrier_descr: str
    combine: Callable[[Any, Any], Any]
    identity: Any
    leq: Callable[[Any, Any], bool]
    sup: Optional[Callable[[Any, Any], Any]] = None
    eq: Callable[[Any, Any], bool] = generic_eq

    def is_positive(self, x: Any) -> bool:
        return self.leq(self.identity, x)

    def strictly_below(self, x: Any, y: Any) -> bool:
        return self.leq(x, y) and not self.eq(x, y)

    def fold(self, elements: Sequence[Any]) -> Any:
        acc = self.identity
        for e in elements:
            acc = self.combine(acc, e)
        return acc


@dataclass(frozen=True)
class TestLadder:
    """A finite descending chain of strictly positive monoid elements.

    `halving_witness[i]` is the index of a rung delta with
    combine(delta, delta) <= rungs[i], or None when no rung qualifies.  A
    witness is required for every rung except the bottom one: the bottom rung
    is the truncation point of the chain, so nothing below it is available.
    """

    __test__ = False  # not a test class, despite the name

    rungs: tuple
    halving_witness: tuple[Optional[int], ...]

    @property
    def bottom(self) -> Any:
        return self.rungs[-1]

    def __len__(self) -> int:
        return len(self.rungs)

    @classmethod
    def build(cls, spec: MonoidSpec, rungs: Sequence[Any]) -> "TestLadder":
        rungs = tuple(rungs)
        witnesses = []
        for eps in rungs:
            found = None
            for j, delta in enumerate(rungs):
                if spec.leq(spec.combine(delta, delta), eps):
                    found = j
                    break
            witnesses.append(found)
        return cls(rungs=rungs, halving_witness=tuple(witnesses))


def dyadic_ladder(depth: int = 20) -> TestLadder:
    """The standard real ladder 1/2, 1/4, ..., 2**-depth."""
    rungs = tuple(2.0 ** -(i + 1) for i in range(depth))
    witnesses = tuple(i + 1 if i + 1 < depth else None for i in range(depth))
    return TestLadder(rungs=rungs, halving_witness=witnesses)


@dataclass(frozen=True)
class MTrace:
    """A finite trace of positive monoid elements plus a witness budget.

    `budget` caps the index at which a decision witness may start.  A trace
    longer than its budget carries extra evidence: the tail past the budget
    still has to stay quiet for a NULL verdict, which is what separates
    genuinely summable traces from slowly diverging ones on finite data.
    """

    elements: tuple
    budget: int

    @classmethod
    def of(cls, elements: Sequence[Any], budget: Optional[int] = None) -> "MTrace":
        elements = tuple(elements)
        return cls(elements=elements, budget=len(elements) if budget is None else budget)

    def __len__(self) -> int:
        return len(self.elements)


def _require_positive(trace_elements: Sequence[Any], spec: MonoidSpec) -> None:
    for i, x in enumerate(trace_elements):
        if not spec.is_positive(x):
            raise ValueError(
                f"trace element at index {i} is not in the positive cone: {format_value(x)}"
            )


def is_null_trace(trace: MTrace, ladder: TestLadder, spec: MonoidSpec) -> Decision:
    """Decide whether the trace falls and stays strictly below the bottom rung.

    NULL requires a start index N <= budget such that every element from N to
    the end of the trace sits strictly below the bottom rung.  Elements that
    exceed or are incomparable to the rung count as violations.
    """
    if not trace.elements:
        raise ValueError("empty trace")
    _require_positive(trace.elements, spec)
    bottom = ladder.bottom
    last_bad = -1
    for i, x in enumerate(trace.elements):
        if not spec.strictly_below(x, bottom):
            last_bad = i
    n = len(trace.elements)
    if last_bad == -1:
        return Decision.NULL
    if last_bad <= n - 2 and last_bad + 2 <= trace.budget:
        return Decision.NULL
    if n >= trace.budget:
        return Decision.NOT_NULL_WITHIN
    return Decision.INDETERMINATE


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


def cauchy_series_window_report(
    trace: MTrace, ladder: TestLadder, spec: MonoidSpec
) -> tuple[Decision, Optional[int], Optional[tuple]]:
    """Like `cauchy_series_check` but also returns the witness index or the
    offending window (start, end, sum) when the check does not pass.

    Because the elements are positive and the order is compatible with the
    operation, every window inside [N, end] is dominated by the full tail
    window [N, end]; the check therefore only needs the suffix sums.
    """
    if not trace.elements:
        raise ValueError("empty trace")
    _require_positive(trace.elements, spec)
    bottom = ladder.bottom
    tails = _suffix_sums(trace, spec)
    n = len(tails)
    witness = None
    for i, t in enumerate(tails):
        if spec.strictly_below(t, bottom):
            witness = i
            break
    if witness is not None and witness + 1 <= trace.budget:
        return Decision.NULL, witness + 1, None
    start = min(trace.budget, n) - 1
    offending = (start + 1, n, tails[start]) if start >= 0 else None
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


def validate_monoid(
    spec: MonoidSpec,
    samples: Sequence[Any],
    trials: int,
    seed: int = 0,
) -> ValidationReport:
    """Randomized audit of the monoid axioms on the given samples.

    Each axiom reports PASS with the trial count or a concrete counterexample.
    A failed axiom is a report entry, never an exception.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    rng = child_rng(seed, "validate_monoid")
    samples = list(samples)
    checks: list[CheckResult] = []

    def axiom(name: str, arity: int, predicate: Callable[..., bool]) -> None:
        for t in range(trials):
            args = [rng.choice(samples) for _ in range(arity)]
            if not predicate(*args):
                checks.append(
                    CheckResult(name, False, trials=t + 1, counterexample=_pair_repr(*args))
                )
                return
        checks.append(CheckResult(name, True, trials=trials))

    axiom(
        "associativity",
        3,
        lambda a, b, c: spec.eq(
            spec.combine(spec.combine(a, b), c), spec.combine(a, spec.combine(b, c))
        ),
    )
    axiom(
        "identity",
        1,
        lambda x: spec.eq(spec.combine(spec.identity, x), x)
        and spec.eq(spec.combine(x, spec.identity), x),
    )
    axiom("order_reflexive", 1, lambda x: spec.leq(x, x))
    axiom(
        "order_transitive",
        3,
        lambda a, b, c: not (spec.leq(a, b) and spec.leq(b, c)) or spec.leq(a, c),
    )
    axiom(
        "order_antisymmetric",
        2,
        lambda a, b: not (spec.leq(a, b) and spec.leq(b, a)) or spec.eq(a, b),
    )
    axiom(
        "order_compatibility",
        4,
        lambda x1, y1, x2, y2: not (spec.leq(x1, y1) and spec.leq(x2, y2))
        or spec.leq(spec.combine(x1, x2), spec.combine(y1, y2)),
    )
    if spec.sup is not None:

        def riesz(a: Any, b: Any, z: Any) -> bool:
            s = spec.sup(a, b)
            if not (spec.leq(a, s) and spec.leq(b, s)):
                return False
            if spec.leq(a, z) and spec.leq(b, z) and not spec.leq(s, z):
                return False
            return True

        axiom("riesz_supremum", 3, riesz)

    positive = [
        x for x in samples if spec.is_positive(x) and not spec.eq(x, spec.identity)
    ]
    checks.append(
        CheckResult(
            "positive_cone_nontrivial",
            bool(positive),
            trials=len(samples),
            counterexample=None if positive else "no sample above the identity",
        )
    )
    return ValidationReport(subject=spec.carrier_descr, checks=tuple(checks))


def validate_ladder(spec: MonoidSpec, ladder: TestLadder) -> ValidationReport:
    """Check positivity, strict descent, and the halving property of a ladder."""
    if not ladder.rungs:
        raise ValueError("ladder must be non-empty")
    checks: list[CheckResult] = []

    bad = next(
        (
            (i, r)
            for i, r in enumerate(ladder.rungs)
            if not (spec.is_positive(r) and not spec.eq(r, spec.identity))
        ),
        None,
    )
    checks.append(
        CheckResult(
            "positivity",
            bad is None,
            trials=len(ladder.rungs),
            counterexample=None if bad is None else f"rung {bad[0]}: {format_value(bad[1])}",
        )
    )

    bad = None
    for i in range(len(ladder.rungs) - 1):
        hi, lo = ladder.rungs[i], ladder.rungs[i + 1]
        if not (spec.leq(lo, hi) and not spec.eq(lo, hi)):
            bad = (i, hi, lo)
            break
    checks.append(
        CheckResult(
            "strict_descent",
            bad is None,
            trials=max(len(ladder.rungs) - 1, 0),
            counterexample=None
            if bad is None
            else f"rungs {bad[0]},{bad[0] + 1}: {_pair_repr(bad[1], bad[2])}",
        )
    )

    bad = None
    for i, eps in enumerate(ladder.rungs[:-1]):
        witnessed = any(
            spec.leq(spec.combine(delta, delta), eps) for delta in ladder.rungs
        )
        if not witnessed:
            bad = (i, eps)
            break
    checks.append(
        CheckResult(
            "halving",
            bad is None,
            trials=max(len(ladder.rungs) - 1, 0),
            counterexample=None
            if bad is None
            else f"no rung delta with delta+delta <= rung {bad[0]} ({format_value(bad[1])})",
        )
    )
    return ValidationReport(subject="test ladder", checks=tuple(checks))

"""Monoid axioms, ladders, and trace decisions against independent oracles."""
import random

import numpy as np
import pytest

from monofix import (
    Decision,
    MTrace,
    MonoidSpec,
    TestLadder,
    cauchy_series_check,
    dyadic_ladder,
    is_bounded,
    is_null_trace,
    validate_ladder,
    validate_monoid,
)
from monofix.catalog import get_monoid, hierarchical_rho, real_nonneg_monoid
from monofix.monoid import cauchy_series_window_report
from monofix.spaces import diagonal, relation_compose, relation_monoid
from monofix._util import close_eq

REAL = real_nonneg_monoid()
LADDER16 = TestLadder.build(REAL, [1.0, 0.5, 0.25, 0.125, 0.0625])


def brute_compose(a, b):
    # independent oracle: try every pair of pairs
    return frozenset((x, y) for (x, z1) in a for (z2, y) in b if z1 == z2)


def test_validate_real_nonneg_passes():
    rep = validate_monoid(REAL, [0.0, 1.0, 2.5], trials=2000, seed=1)
    assert rep.ok, rep.render()


def test_relation_composition_matches_brute_force():
    pts = ("a", "b", "c")
    delta = diagonal(pts)
    r1 = delta | {("a", "b"), ("b", "a")}
    r2 = delta | {("b", "c"), ("c", "b")}
    expected = delta | {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c")}
    assert brute_compose(r1, r2) == expected
    assert relation_compose(r1, r2) == expected

    spec = relation_monoid(pts)
    rep = validate_monoid(spec, [delta, r1, r2, expected], trials=2000, seed=2)
    assert rep.ok, rep.render()


def test_broken_subtraction_reports_associativity_counterexample():
    # hand oracle at (1, 2, 3)
    assert (1 - 2) - 3 != 1 - (2 - 3)
    entry = get_monoid("broken_subtraction")
    rep = validate_monoid(entry.spec, entry.samples, trials=500, seed=3)
    failed = {c.name for c in rep.failures}
    assert "associativity" in failed
    assoc = next(c for c in rep.checks if c.name == "associativity")
    assert assoc.counterexample


def test_validate_ladder_dyadic_sequence_passes():
    rep = validate_ladder(REAL, LADDER16)
    assert rep.ok, rep.render()
    # witness for the top rung: 0.5 + 0.5 <= 1
    assert REAL.leq(REAL.combine(0.5, 0.5), 1.0)


def test_validate_ladder_without_halving_fails():
    ladder = TestLadder.build(REAL, [1.0, 0.9])
    rep = validate_ladder(REAL, ladder)
    failed = {c.name for c in rep.failures}
    assert "halving" in failed
    # oracle: no rung delta has delta + delta <= 1.0
    assert all(2 * d > 1.0 for d in (1.0, 0.9))


def test_validate_ladder_relation_sublevels():
    pts = tuple(range(8))
    spec = relation_monoid(pts)

    def sublevel(r):
        return frozenset((a, b) for a in pts for b in pts if hierarchical_rho(a, b) <= r)

    rungs = [sublevel(1.0), sublevel(0.5), sublevel(0.25)]
    # oracle: composing a sublevel with itself stays within the doubled level
    for lo, hi in ((0.25, 0.5), (0.5, 1.0)):
        assert brute_compose(sublevel(lo), sublevel(lo)) <= sublevel(hi)
    rep = validate_ladder(spec, TestLadder.build(spec, rungs))
    assert rep.ok, rep.render()


def test_ladder_rejects_nonpositive_rung():
    ladder = TestLadder.build(REAL, [0.5, 0.0])
    rep = validate_ladder(REAL, ladder)
    assert not rep.ok
    assert any(c.name == "positivity" for c in rep.failures)


# ---------------------------------------------------------------------------
# null traces


def test_null_trace_one_over_n():
    trace = MTrace.of([1.0 / n for n in range(1, 201)])
    assert is_null_trace(trace, LADDER16, REAL) is Decision.NULL
    # oracle: 1/n < 1/16 for all n >= 17
    assert 1.0 / 17 < 0.0625


def test_null_trace_constant_fails():
    trace = MTrace.of([0.5] * 50)
    assert is_null_trace(trace, LADDER16, REAL) is Decision.NOT_NULL_WITHIN


def test_null_trace_indeterminate_when_short_of_budget():
    trace = MTrace(elements=(0.5, 0.5), budget=100)
    assert is_null_trace(trace, LADDER16, REAL) is Decision.INDETERMINATE


def test_null_trace_relation_shrinking_to_identity():
    pts = tuple(range(8))
    spec = relation_monoid(pts)

    def sublevel(r):
        return frozenset((a, b) for a in pts for b in pts if hierarchical_rho(a, b) <= r)

    ladder = TestLadder.build(spec, [sublevel(1.0), sublevel(0.5), sublevel(0.25)])
    trace = MTrace.of([sublevel(1.0), sublevel(0.5), sublevel(0.25)] + [spec.identity] * 10)
    assert is_null_trace(trace, ladder, spec) is Decision.NULL


def test_null_trace_rejects_element_outside_positive_cone():
    bad = MTrace.of([0.5, -1.0])
    with pytest.raises(ValueError):
        is_null_trace(bad, LADDER16, REAL)


# ---------------------------------------------------------------------------
# Cauchy series


def oracle_tail_witness(xs, rung):
    """First 1-based index whose full tail sum drops strictly below the rung."""
    for n in range(1, len(xs) + 1):
        if sum(xs[n - 1 :]) < rung:
            return n
    return None


def test_cauchy_series_inverse_squares():
    xs = [1.0 / (n + 1) ** 2 for n in range(1, 1001)]
    witness = oracle_tail_witness(xs, 0.0625)
    assert witness is not None and witness <= 1000
    trace = MTrace.of(xs)
    assert cauchy_series_check(trace, LADDER16, REAL) is Decision.NULL


def test_cauchy_series_harmonic_fails_within_budget():
    xs = [1.0 / (n + 1) for n in range(1, 10001)]
    witness = oracle_tail_witness(xs, 0.0625)
    # the witness exists only deep in the tail, past any honest cutoff
    assert witness is not None and witness > 5000
    trace = MTrace(elements=tuple(xs), budget=5000)
    assert cauchy_series_check(trace, LADDER16, REAL) is Decision.NOT_NULL_WITHIN


def test_cauchy_series_all_zero():
    trace = MTrace.of([0.0] * 25)
    assert cauchy_series_check(trace, LADDER16, REAL) is Decision.NULL


# Magnitudes far apart, so that a window sum computed by cancellation loses
# its small tail; no window sum comes near the 2**-20 bottom rung.
MIXED = (0.0, 3e-7, 5e-7, 0.25, 1e10)


def _window_sum(xs, a, b, spec):
    # left fold of the 1-based window [a, b], each window on its own
    acc = xs[a - 1]
    for x in xs[a:b]:
        acc = spec.combine(acc, x)
    return acc


def brute_cauchy_series(xs, budget, ladder, spec):
    """Decision, witness and offending window straight from the definition:
    NULL with the least start N <= budget such that every window [a, b] with
    N <= a <= b <= end sums strictly below the bottom rung; otherwise the
    tail window from the last admissible start."""
    n = len(xs)
    bad_starts = [
        a
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if not spec.strictly_below(_window_sum(xs, a, b, spec), ladder.bottom)
    ]
    least = max(bad_starts, default=0) + 1
    if least <= min(budget, n):
        return Decision.NULL, least, None
    start = min(budget, n)
    window = (start, n, _window_sum(xs, start, n, spec))
    return (Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE), None, window


def brute_null_trace(xs, budget, ladder, spec):
    """NULL when some start N <= budget has every element from N on strictly
    below the bottom rung."""
    n = len(xs)
    for start in range(1, min(budget, n) + 1):
        if all(spec.strictly_below(x, ladder.bottom) for x in xs[start - 1 :]):
            return Decision.NULL
    return Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE


MIXED_ELEMENTS = {
    "real_nonneg": lambda rng: rng.choice(MIXED),
    "real_vector{3}": lambda rng: np.array([rng.choice(MIXED) for _ in range(3)]),
    "product{real_nonneg,real_nonneg}": lambda rng: (rng.choice(MIXED), rng.choice(MIXED)),
}


@pytest.mark.parametrize("name", MIXED_ELEMENTS)
def test_trace_decisions_match_brute_force_windows(name):
    element = MIXED_ELEMENTS[name]
    entry = get_monoid(name)
    spec, ladder = entry.spec, entry.ladder
    rng = random.Random(name)
    # a small tail after a large head, then random traces whose elements are
    # mostly tiny, so that NULL and not-NULL outcomes both occur
    cases = [[element(rng) for _ in range(rng.randint(1, 8))] for _ in range(60)]
    small = [e for e in (element(rng) for _ in range(400)) if spec.strictly_below(e, ladder.bottom)]
    cases += [[element(rng)] + [rng.choice(small) for _ in range(rng.randint(0, 7))] for _ in range(60)]
    seen = set()
    for xs in cases:
        n = len(xs)
        for budget in sorted({max(n - 2, 1), n, n + 2}):
            trace = MTrace(elements=tuple(xs), budget=budget)
            want = brute_cauchy_series(xs, budget, ladder, spec)
            decision, witness, window = cauchy_series_window_report(trace, ladder, spec)
            assert (decision, witness) == want[:2], (xs, budget)
            if want[2] is None:
                assert window is None
            else:
                start, end, total = want[2]
                assert window[:2] == (start, end) and spec.eq(window[2], total), (xs, budget)
                assert not spec.strictly_below(total, ladder.bottom)
            null = is_null_trace(trace, ladder, spec)
            assert null is brute_null_trace(xs, budget, ladder, spec), (xs, budget)
            seen.add((decision, null))
    assert {d for d, _ in seen} == set(Decision) and {d for _, d in seen} == set(Decision)


def test_cauchy_series_small_tail_after_large_head_is_not_null():
    # the tail sum 1.5e-6 from index 3 stays above the bottom rung 2**-20;
    # a suffix computed as total minus prefix cancels it and reports NULL
    trace = MTrace(elements=(1e10,) + (5e-7,) * 4, budget=3)
    decision, witness, window = cauchy_series_window_report(trace, dyadic_ladder(20), REAL)
    assert decision is Decision.NOT_NULL_WITHIN and witness is None
    start, end, total = window
    assert (start, end) == (3, 5)
    assert total == pytest.approx(1.5e-6, rel=1e-12) and total > 2.0**-20


# ---------------------------------------------------------------------------
# bounds


def test_is_bounded_real_with_sup():
    assert is_bounded([1.0, 3.0, 2.0], REAL) == 3.0


def test_is_bounded_relations_by_union():
    pts = ("a", "b", "c")
    spec = relation_monoid(pts)
    r1 = diagonal(pts) | {("a", "b")}
    r2 = diagonal(pts) | {("b", "c")}
    bound = is_bounded([r1, r2], spec)
    assert bound == r1 | r2


def test_is_bounded_incomparable_product_without_sup():
    pair = MonoidSpec(
        carrier_descr="pairs without a supremum",
        combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        identity=(0.0, 0.0),
        leq=lambda a, b: a[0] <= b[0] and a[1] <= b[1],
    )
    assert is_bounded([(1.0, 0.0), (0.0, 1.0)], pair) is None


# ---------------------------------------------------------------------------
# property suites


def _null_real_trace(rng):
    scale = rng.uniform(0.1, 3.0)
    kind = rng.random()
    if kind < 0.5:
        xs = [scale * 2.0 ** -(n + 1) for n in range(120)]
    else:
        xs = [scale / (n + 2) ** 2 for n in range(120)]
    return MTrace.of(xs)


def test_property_subsequence_closure():
    rng = random.Random(42)
    for _ in range(100):
        t = _null_real_trace(rng)
        assert is_null_trace(t, LADDER16, REAL) is Decision.NULL
        idx = sorted(rng.sample(range(len(t.elements)), rng.randint(2, len(t.elements))))
        sub = MTrace(elements=tuple(t.elements[i] for i in idx), budget=t.budget)
        assert is_null_trace(sub, LADDER16, REAL) is not Decision.NOT_NULL_WITHIN


def test_property_sum_closure_with_halving_witness():
    # bottom rung of the coarser ladder has a halving witness in the finer one
    fine = TestLadder.build(REAL, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    coarse = TestLadder.build(REAL, [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert REAL.leq(REAL.combine(0.03125, 0.03125), coarse.bottom)
    rng = random.Random(7)
    for _ in range(100):
        a = _null_real_trace(rng)
        b = _null_real_trace(rng)
        assert is_null_trace(a, fine, REAL) is Decision.NULL
        assert is_null_trace(b, fine, REAL) is Decision.NULL
        combined = MTrace(
            elements=tuple(REAL.combine(x, y) for x, y in zip(a.elements, b.elements)),
            budget=min(a.budget, b.budget),
        )
        assert is_null_trace(combined, coarse, REAL) is Decision.NULL


def test_property_squeeze():
    rng = random.Random(11)
    for _ in range(100):
        x = _null_real_trace(rng)
        y = MTrace(
            elements=tuple(v * rng.uniform(0.0, 1.0) for v in x.elements),
            budget=x.budget,
        )
        assert is_null_trace(y, LADDER16, REAL) is Decision.NULL


def test_property_cauchy_series_implies_null():
    rng = random.Random(13)
    for _ in range(100):
        t = _null_real_trace(rng)
        if cauchy_series_check(t, LADDER16, REAL) is Decision.NULL:
            assert is_null_trace(t, LADDER16, REAL) is Decision.NULL

"""Monoid axioms, ladders, and trace decisions against independent oracles."""
import ast
import itertools
import math
import operator
import random
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import monofix._util
import monofix.monoid
from monofix import (
    Decision,
    MTrace,
    MonoidSpec,
    TestLadder,
    cauchy_series_check,
    dyadic_ladder,
    grid_ladder,
    is_bounded,
    is_null_trace,
    validate_ladder,
    validate_monoid,
)
from monofix.catalog import get_monoid, hierarchical_rho, real_nonneg_monoid
from monofix.monoid import _require_positive, cauchy_series_window_report, relation_compose
from monofix.spaces import diagonal, relation_monoid
from monofix._util import ATOL, RTOL, below_rows, close_entries, close_eq, first_below, format_value

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


def test_relation_composition_of_equal_distinct_operands_is_exact():
    # equal relations that are distinct objects compose exactly, on every
    # repeat of every pair
    rng = random.Random(5)
    pts = range(6)
    rels = [frozenset(p for p in itertools.product(pts, pts) if rng.random() < 0.3) for _ in range(12)]
    for _ in range(3):
        for a in rels:
            for b in rels:
                a2, b2 = frozenset(list(a)), frozenset(list(b))
                assert relation_compose(a, b) == relation_compose(a2, b2) == brute_compose(a, b)


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


@pytest.mark.parametrize("name", ["relation{8}", "broken_subtraction"])
def test_ladder_halving_search_starts_at_the_bottom_rung(name):
    # the rung-by-rung path tries the bottom rung's double first, which fits
    # under every rung above it, and composes each double at most once per
    # call: one product, the bottom rung's, for all the rungs above it
    entry = get_monoid(name)
    products = []
    counting = replace(entry.spec, combine=lambda a, b: products.append((a, b)) or entry.spec.combine(a, b))
    assert not (counting.elementwise or counting.relational)
    report = validate_ladder(counting, entry.ladder)
    assert report == validate_ladder(entry.spec, entry.ladder) and report.ok
    bottom = entry.ladder.rungs[-1]
    assert len(entry.ladder.rungs) > 2 and len(products) == 1
    assert products[0][0] is products[0][1] is bottom


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


@pytest.mark.parametrize("build", [dyadic_ladder, lambda depth: grid_ladder(3, depth)])
def test_dyadic_ladders_take_depths_1_to_1074(build):
    # 2**-1074 is the smallest positive float; one rung deeper is 0.0
    assert np.all(build(1074).bottom == 2.0**-1074) and np.all(build(1074).bottom > 0)
    assert len(build(1).rungs) == 1
    for depth in (0, 1075):
        with pytest.raises(ValueError, match=f"from 1 to 1074, not {depth}"):
            build(depth)


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
    tail window from the last admissible start, if there is one."""
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
    window = (start, n, _window_sum(xs, start, n, spec)) if start >= 1 else None
    return (Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE), None, window


def brute_null_trace(xs, budget, ladder, spec):
    """NULL when some start N <= budget has every element from N on strictly
    below the bottom rung."""
    n = len(xs)
    for start in range(1, min(budget, n) + 1):
        if all(spec.strictly_below(x, ladder.bottom) for x in xs[start - 1 :]):
            return Decision.NULL
    return Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE


# The bottom rung 2**-20 and a value just under it, equal to it within the
# tolerance of `close_eq`: a suffix sum made of these is <= the rung but not
# strictly below it, a tie that `eq` has to reject.
RUNG_TIES = (2.0**-20, 2.0**-20 * (1.0 - 1e-12))


def _constant(spec, v):
    """The element of spec's carrier with every entry v."""
    if isinstance(spec.identity, np.ndarray):
        return np.full(spec.identity.shape, v)
    return (v,) * len(spec.identity) if isinstance(spec.identity, tuple) else v


def _grid_element(rng):
    if rng.random() < 0.2:
        return np.full(3, rng.choice(RUNG_TIES))
    return np.array([rng.choice(MIXED) for _ in range(3)])


MIXED_ELEMENTS = {
    "real_nonneg": lambda rng: rng.choice(MIXED),
    "real_vector{3}": lambda rng: np.array([rng.choice(MIXED) for _ in range(3)]),
    "product{real_nonneg,real_nonneg}": lambda rng: (rng.choice(MIXED), rng.choice(MIXED)),
    "grid_function{3}": _grid_element,
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
    if spec.elementwise:
        # the last suffix sum ties with the bottom rung
        cases += [[_constant(spec, 0.25), _constant(spec, tie)] for tie in RUNG_TIES]
        per_element = replace(spec, combine=lambda a, b: spec.combine(a, b))  # not elementwise
    seen = set()
    for xs in cases:
        n = len(xs)
        for budget in sorted({0, max(n - 2, 1), n, n + 2}):
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
            if spec.elementwise:
                # the stacked path makes the additions of the per-element fold,
                # and returns the window's sum as a value of the carrier
                d, w, win = cauchy_series_window_report(trace, ladder, per_element)
                assert (d, w) == (decision, witness) and (win is None) == (window is None)
                if win is not None:
                    assert win[:2] == window[:2] and type(win[2]) is type(window[2])
                    assert format_value(win[2]) == format_value(window[2])
            null = is_null_trace(trace, ladder, spec)
            assert null is brute_null_trace(xs, budget, ladder, spec), (xs, budget)
            seen.add((decision, null))
    assert {d for d, _ in seen} == set(Decision) and {d for _, d in seen} == set(Decision)


def test_budget_zero_admits_no_start_index():
    # tiny elements, all strictly below the rung: only the budget decides
    trace = MTrace(elements=(1e-7,) * 3, budget=0)
    ladder = dyadic_ladder(20)
    assert is_null_trace(trace, ladder, REAL) is Decision.NOT_NULL_WITHIN
    assert cauchy_series_window_report(trace, ladder, REAL) == (Decision.NOT_NULL_WITHIN, None, None)
    assert brute_null_trace(trace.elements, 0, ladder, REAL) is Decision.NOT_NULL_WITHIN
    assert is_null_trace(replace(trace, budget=1), ladder, REAL) is Decision.NULL


@pytest.mark.parametrize(
    "name",
    [
        "real_vector{x}", "real_vector{0}", "grid_function{0}", "relation{1}", "real_nonneg{2}",
        "product{real_nonneg,zzz}", "product{}",
    ],
)
def test_get_monoid_rejects_bad_name_parameters(name):
    with pytest.raises(KeyError):
        get_monoid(name)


def full_scan_null_trace(xs, budget, ladder, spec):
    """`is_null_trace` as a scan of every element: positivity, then the
    index of the last element that is not strictly below the bottom rung.
    A budget below 1 admits no start index."""
    for i, x in enumerate(xs):
        if not spec.is_positive(x):
            raise ValueError(f"trace element at index {i} is not in the positive cone: {format_value(x)}")
    last_bad = -1
    for i, x in enumerate(xs):
        if not spec.strictly_below(x, ladder.bottom):
            last_bad = i
    n = len(xs)
    if budget < 1:
        return Decision.NOT_NULL_WITHIN
    if last_bad == -1:
        return Decision.NULL
    if last_bad <= n - 2 and last_bad + 2 <= budget:
        return Decision.NULL
    if n >= budget:
        return Decision.NOT_NULL_WITHIN
    return Decision.INDETERMINATE


# Entries strictly below the 2**-20 bottom rung, and entries that are not:
# far above it, or tied with it within the tolerance of `close_eq`.  A vector
# or pair mixing the two kinds is incomparable with the rung; one made of
# ties alone equals it; one mixing ties with entries below is strictly below.
BELOW = (0.0, 3e-7, 5e-7)
NOT_BELOW = (0.25, 1e10) + RUNG_TIES
OUTSIDE_CONE = (-5e-7, -1e10, float("nan"))


def _entry(rng, p_below):
    return rng.choice(BELOW if rng.random() < p_below else NOT_BELOW)


TAIL_ELEMENTS = {
    "real_nonneg": (_entry, lambda x, bad, rng: bad),
    "real_vector{3}": (
        lambda rng, p: np.array([_entry(rng, p) for _ in range(3)]),
        lambda x, bad, rng: np.where(np.arange(3) == rng.randrange(3), bad, x),
    ),
    "product{real_nonneg,real_nonneg}": (
        lambda rng, p: (_entry(rng, p), _entry(rng, p)),
        lambda x, bad, rng: (bad, x[1]) if rng.random() < 0.5 else (x[0], bad),
    ),
}


@pytest.mark.parametrize("name", TAIL_ELEMENTS)
def test_null_trace_from_the_tail_matches_full_scan(name):
    element, leave_cone = TAIL_ELEMENTS[name]
    entry = get_monoid(name)
    spec, ladder = entry.spec, entry.ladder
    rng = random.Random(f"tail/{name}")
    seen = set()
    for t in range(240):
        p_below = rng.choice((0.3, 0.7, 0.9, 1.0))
        xs = [element(rng, p_below) for _ in range(rng.randint(1, 9))]
        if t % 4 == 0:
            # one or two elements leave the cone; the first one is reported
            for at in {rng.randrange(len(xs)) for _ in range(2)}:
                xs[at] = leave_cone(xs[at], rng.choice(OUTSIDE_CONE), rng)
        n = len(xs)
        for budget in sorted({0, 1, n - 1, n, n + 5}):
            trace = MTrace(elements=tuple(xs), budget=budget)
            try:
                want = full_scan_null_trace(xs, budget, ladder, spec)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    is_null_trace(trace, ladder, spec)
                assert str(got.value) == str(exc)
                seen.add("raises")
                continue
            assert is_null_trace(trace, ladder, spec) is want, (xs, budget)
            seen.add(want)
    assert seen == set(Decision) | {"raises"}


def test_null_trace_compares_only_the_deciding_tail(monkeypatch):
    compared = []
    strictly_below = MonoidSpec.strictly_below

    def counting(self, x, y):
        compared.append(x)
        return strictly_below(self, x, y)

    monkeypatch.setattr(MonoidSpec, "strictly_below", counting)
    ladder = dyadic_ladder(20)
    head = [0.5, 1e-7, 0.25] * 10
    for xs, budget, want, calls in [
        # budget n: the last element alone decides
        (head + [1e-7], None, Decision.NULL, 1),
        (head + [0.5], None, Decision.NOT_NULL_WITHIN, 1),
        # budget n - 1: the last two
        (head + [1e-7, 1e-7], 31, Decision.NULL, 2),
        # budget 0: no start index, nothing compared
        ([1e-7] * 12, 0, Decision.NOT_NULL_WITHIN, 0),
    ]:
        compared.clear()
        assert is_null_trace(MTrace.of(xs, budget), ladder, REAL) is want
        assert len(compared) == calls, (xs, budget)


# Values around the tolerances (1e-9 relative, 1e-12 absolute), signed
# zeros, subnormals, the extremes of float64 and the non-finite values.
CLOSE_VALUES = (
    0.0, -0.0, 1e-12, 2e-12, -1e-12, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, -1.0,
    5e-324, 2.2e-308, 1e308, -1e308, np.inf, -np.inf, np.nan,
)
INT64 = np.iinfo(np.int64)


def _rule(x, y):
    # the equality of float carriers, on two Python floats: equal values,
    # else two finite values within 1e-12 + 1e-9 * max(|x|, |y|)
    if x == y:
        return True
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= 1e-12 + 1e-9 * max(abs(x), abs(y))


def _allclose(a, b):
    # `_rule` on every pair of broadcast entries, ints made floats
    pairs = zip(*(np.asarray(x).ravel().tolist() for x in np.broadcast_arrays(a, b)))
    return all(_rule(float(x), float(y)) for x, y in pairs)


def test_close_eq_on_arrays_is_allclose():
    # arrays, scalars against arrays and tuples of them, in both orders, as
    # the per-entry oracle of the one symmetric rule
    eq = close_eq
    rng = random.Random("close_eq")
    pairs = []
    for _ in range(400):
        a = np.array([rng.choice(CLOSE_VALUES) for _ in range(3)])
        # b is a, nudged entries of a, or fresh values
        b = np.array([x if rng.random() < 0.5 else rng.choice(CLOSE_VALUES) for x in a])
        pairs += [(a, b), (a[0], b), (a, b[1]), (np.array(a[2]), np.array(b[2]))]
    ints = [np.array([INT64.min, 0, 5]), np.array([INT64.max, 0, 5]), np.array([0, 0, 5])]
    pairs += [(x, y) for x in ints for y in ints]
    pairs += [(ints[0], ints[0].astype(float)), (3, np.array([3, 3])), (np.array([3, 3]), 3.0)]
    pairs += [(0.0, np.zeros(0)), (np.zeros((2, 3)), np.zeros(3))]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, b in pairs:
            want = _allclose(a, b)
            assert eq(a, b) is want and eq(b, a) is want, (a, b)
            seen.add(want)
        for (a1, b1), (a2, b2) in zip(pairs[::2], pairs[1::2]):
            want = _allclose(a1, b1) and _allclose(a2, b2)
            assert eq((a1, a2), (b1, b2)) is want and eq((b1, b2), (a1, a2)) is want
    assert seen == {True, False}


def test_close_eq_on_scalars_is_the_rule():
    eq = close_eq
    for x in CLOSE_VALUES:
        for y in CLOSE_VALUES:
            assert eq(x, y) is _rule(x, y), (x, y)
            assert bool(close_entries(x, y)) is _rule(x, y), (x, y)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "a, b, want",
    [(INF, 1.0, False), (-INF, 1.0, False), (INF, 1e308, False), (-INF, -1e308, False),
     (INF, -INF, False), (INF, INF, True), (-INF, -INF, True), (NAN, NAN, False),
     (NAN, 1.0, False), (NAN, INF, False)],
)
def test_a_non_finite_value_equals_only_itself(a, b, want):
    eq = close_eq
    for x, y in ((a, b), (b, a)):
        assert eq(x, y) is want
        assert eq((x, 0.5), (y, 0.5)) is want and eq((0.5, x), (0.5, y)) is want
        assert eq(np.array([x, 0.5]), np.array([y, 0.5])) is want
        assert eq(np.array([x, 0.5]), y) is (want and eq(0.5, y))
        assert close_entries(np.array([x, 0.5]), np.array([y, 0.5])).tolist() == [want, True]


# entries of rungs: the ATOL and the RTOL parts of the band of close_eq
# dominate in turn, then ATOL itself (r - band lies exactly on the band's
# edge), a subnormal and a signed zero
RUNG_ENTRIES = (2.0**-20, 1.0, 1e-3, ATOL, 5e-324, -0.0)


def _near(r):
    """Entries that probe "strictly below" at a rung entry r: r, 1 ulp either
    side of r -/+ (ATOL + RTOL |r|), non-finite values, signed zeros,
    subnormals and an entry far below."""
    edges = [r - (ATOL + RTOL * abs(r)), r + (ATOL + RTOL * abs(r))]
    ulps = [np.nextafter(e, to) for e in edges for to in (-math.inf, math.inf)]
    specials = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]
    return [r, *edges, *ulps, *specials, r / 4 - 1.0]


def _probe_rows(rung, rng):
    """Rows against a rung row: every entry from `_near`, one probed entry
    among ties or among far-below entries, and random mixes."""
    near = [_near(r) for r in rung.tolist()]
    rows = []
    for j, values in enumerate(near):
        for v in values:
            for fill in (rung, rung / 4 - 1.0):
                row = fill.copy()
                row[j] = v
                rows.append(row)
    rows += [np.array([rng.choice(values) for values in near]) for _ in range(300)]
    return np.array(rows)


@pytest.mark.parametrize(
    "name, carrier",
    [
        ("real_nonneg", lambda row: float(row[0])),
        ("grid_function{3}", lambda row: row.copy()),
        ("product{real_nonneg,real_nonneg}", lambda row: tuple(row.tolist())),
    ],
)
def test_row_helpers_are_strictly_below(name, carrier, monkeypatch):
    # the stacked rule of every fast path against the scalar one of the
    # monoid: below_rows on every row, and first_below on blocks of rows,
    # which tests for ties only the rows <= the rung, one at a time, up to
    # the first that is not a tie
    spec = get_monoid(name).spec
    width = len(np.atleast_1d(spec.identity))
    shapes, close = [], monofix._util.close_entries  # the shape of each row compared
    spy = lambda a, b: shapes.append(np.shape(a)) or close(a, b)
    monkeypatch.setattr(monofix._util, "close_entries", spy)
    rng = random.Random(name)
    seen = set()
    for turn in range(len(RUNG_ENTRIES)):
        rung = np.array([RUNG_ENTRIES[(turn + j) % len(RUNG_ENTRIES)] for j in range(width)])
        rows = _probe_rows(rung, rng)
        below = lambda row: spec.strictly_below(carrier(row), carrier(rung))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want = [below(row) for row in rows]
            assert below_rows(rows, rung).tolist() == want
            leq = [spec.leq(carrier(row), carrier(rung)) for row in rows]
            seen |= set(zip(leq, want))
            order = list(range(len(rows)))
            for _ in range(len(rows) // 8):  # blocks of 8 shuffled rows
                rng.shuffle(order)
                block = order[:8]
                first = next((i for i, j in enumerate(block) if want[j]), None)
                shapes.clear()
                assert first_below(rows[block], rung) == first
                ties = sum(leq[j] for j in block[: len(block) if first is None else first + 1])
                assert shapes == [(width,)] * ties
    # rows above or beside the rung, ties and rows strictly below all occur
    assert seen == {(False, False), (True, False), (True, True)}


def test_close_entries_is_called_in_util_only():
    # the stacked "strictly below" of every fast path is one rule in _util
    package = Path(monofix.monoid.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_util.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in nodes}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "close_entries" not in names, path.name


@pytest.mark.parametrize("bad", [-5e-7, -1e10, float("nan")])
def test_grid_trace_outside_positive_cone_raises_as_per_element(bad):
    entry = get_monoid("grid_function{3}")
    spec, ladder = entry.spec, entry.ladder
    per_element = replace(spec, combine=lambda a, b: spec.combine(a, b))  # not elementwise
    rng = random.Random(repr(bad))
    for _ in range(20):
        xs = [_grid_element(rng) for _ in range(rng.randint(1, 8))]
        # one or two elements leave the cone; the first one is reported
        hit = sorted({rng.randrange(len(xs)) for _ in range(2)})
        for at in hit:
            xs[at] = xs[at].copy()
            xs[at][rng.randrange(3)] = bad
        trace = MTrace(elements=tuple(xs), budget=len(xs))
        with pytest.raises(ValueError, match=f"at index {hit[0]} ") as stacked:
            cauchy_series_window_report(trace, ladder, spec)
        with pytest.raises(ValueError) as folded:
            cauchy_series_window_report(trace, ladder, per_element)
        assert str(stacked.value) == str(folded.value)


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


def reference_require_positive(xs, spec):
    """`_require_positive` as one `is_positive` call per element."""
    for i, x in enumerate(xs):
        if not spec.leq(spec.identity, x):
            raise ValueError(f"trace element at index {i} is not in the positive cone: {format_value(x)}")


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)
    return None


def _leq_raising_at_two(a, b):
    if b == 2.0:
        raise ZeroDivisionError("leq refuses 2.0")
    return a <= b


@pytest.mark.parametrize(
    "leq", [operator.le, lambda a, b: a <= b, _leq_raising_at_two], ids=["operator", "lambda", "raising"]
)
def test_require_positive_matches_per_element_scan(leq):
    spec = replace(REAL, leq=leq)
    base = (0.5, 0.0, 1.0, 2.0, 3.0)
    assert _raised(_require_positive, base, spec) == _raised(reference_require_positive, base, spec)
    for bad in (float("nan"), -0.5, -float("inf")):
        for at in (0, 2, 4):
            xs = base[:at] + (bad,) + base[at + 1 :]
            want = _raised(reference_require_positive, xs, spec)
            assert want is not None
            assert _raised(_require_positive, xs, spec) == want, (bad, at)
            if leq is _leq_raising_at_two and at == 4:
                assert want[0] is ZeroDivisionError  # the leq's own error comes first
            else:
                assert want == (ValueError, f"trace element at index {at} is not in the positive cone: {bad!r}")


# ---------------------------------------------------------------------------
# the halving check of a built ladder, against the search from delta 0


def quadratic_witnesses(spec: MonoidSpec, rungs: tuple) -> tuple:
    """Reference: the first delta with delta + delta <= rung, every rung searched from 0."""
    return tuple(
        next((j for j, d in enumerate(rungs) if spec.leq(spec.combine(d, d), eps)), None)
        for eps in rungs
    )


def _catalog_ladder(kind: str, name: str):
    from monofix.catalog import get_space

    if kind == "monoid":
        entry = get_monoid(name)
        return entry.spec, entry.ladder.rungs
    space = get_space(name).space
    return space.monoid, space.ladder.rungs


@pytest.mark.parametrize(
    "spec, rungs",
    [
        (REAL, dyadic_ladder(20).rungs),
        _catalog_ladder("monoid", "product{real_nonneg,real_nonneg}"),
        _catalog_ladder("monoid", "relation{8}"),
        _catalog_ladder("space", "uniform_pseudometric{8}"),
        _catalog_ladder("space", "gauge{3}"),
        # a rung without a witness, and one below it that inherits none
        (REAL, (1.0, 0.45, 0.3, 0.2, 0.15, 0.1)),
        (REAL, (1.0, 0.9, 0.8)),
    ],
    ids=["dyadic", "product", "relation", "uniform", "gauge", "no-witness", "none"],
)
def test_ladder_build_equals_the_quadratic_search(spec, rungs):
    # the halving check fails at the first rung above the bottom with no witness
    report = validate_ladder(spec, TestLadder.build(spec, rungs))
    witnesses = quadratic_witnesses(spec, tuple(rungs))[:-1]
    first = next((i for i, w in enumerate(witnesses) if w is None), None)
    halving = next(c for c in report.checks if c.name == "halving")
    assert [c.name for c in report.failures] == ([] if first is None else ["halving"])
    if first is not None:
        assert halving.counterexample.startswith(f"no rung delta with delta+delta <= rung {first} (")


@pytest.mark.parametrize(
    "spec, rungs, message",
    [
        (REAL, (0.25, 1.0, 0.5, 0.125, 2.0, 0.0625), "rungs 0,1 do not strictly descend: 0.25, 1.0"),
        # a tie within the tolerance of close_eq is not a descent
        (REAL, (1.0, 0.5, 0.5 * (1 - 1e-12), 0.1), "rungs 1,2 do not strictly descend: 0.5, 0.4999"),
        (
            relation_monoid(tuple(range(3))),
            (diagonal(range(3)) | {(0, 1), (1, 2), (0, 2)}, diagonal(range(3)) | {(0, 1)},
             diagonal(range(3)) | {(1, 2)}),
            "rungs 1,2 do not strictly descend: ",
        ),
    ],
    ids=["not-descending", "tie", "incomparable"],
)
def test_ladder_build_refuses_rungs_that_do_not_descend(spec, rungs, message):
    with pytest.raises(ValueError, match=message):
        TestLadder.build(spec, rungs)


# ---------------------------------------------------------------------------
# the stacked forms of the validators against their scalar loops


@pytest.mark.parametrize("name", ["relation{8}", "relation{64}"])
def test_relation_product_table_is_relation_compose(name):
    # every product of two of the samples and the identity, read from the
    # table, and every product of one of those with a sample, composed
    entry = get_monoid(name)
    rels = [*entry.samples, entry.spec.identity]
    (compose, *_), _ = monofix.monoid._relation_ops(rels)
    a, b = (x.ravel() for x in np.indices((len(rels), len(rels))))
    pairs = [relation_compose(rels[i], rels[j]) for i, j in zip(a.tolist(), b.tolist())]
    triples = [relation_compose(p, rels[j]) for p, j in zip(pairs, b.tolist())]
    want = monofix.monoid._relation_matrices([*rels, *pairs, *triples])[len(rels) :]
    got = compose(a, b)
    assert (np.concatenate((got, compose(got, b))) == want).all()
    assert all(brute_compose(rels[i], rels[j]) == p for i, j, p in zip(a.tolist(), b.tolist(), pairs))


def _grid_rungs(heights, m=8):
    return tuple(np.full(m, h) for h in heights)


GRID, VECTOR = get_monoid("grid_function{8}"), get_monoid("real_vector{3}")
PAIR = get_monoid("product{real_nonneg,real_nonneg}")
# (monoid, rungs, the checks that fail); the ladders are built by the
# constructor, which checks nothing
STACKED_LADDERS = {
    "grid_function{8}": (GRID.spec, GRID.ladder.rungs, set()),
    "real_vector{3}": (VECTOR.spec, VECTOR.ladder.rungs, set()),
    "no halving at rung 4": (REAL, (1.0, 0.45, 0.3, 0.2, 0.15, 0.1), {"halving"}),
    "grid, no halving at rung 4, in chunks": (
        monofix.monoid.MonoidSpec.real_entrywise("grid", np.zeros(4096)),
        _grid_rungs((1.0, 0.45, 0.3, 0.2, 0.15, 0.1), 4096),
        {"halving"},
    ),
    "not descending": (REAL, (0.25, 1.0, 0.5, 0.125, 2.0, 0.0625), {"strict_descent"}),
    "grid, a tie within close_eq": (
        GRID.spec, _grid_rungs((1.0, 0.5, 0.5 * (1 - 1e-12), 0.1)), {"strict_descent"}
    ),
    "vector, an entry rises": (
        VECTOR.spec, tuple(map(np.array, ((1.0, 1.0, 1.0), (0.5, 1.5, 0.5), (0.25, 0.25, 0.25)))),
        {"strict_descent"},
    ),
    "pair, an entry rises": (PAIR.spec, ((1.0, 1.0), (0.5, 1.5), (0.25, 0.25)), {"strict_descent"}),
    "not positive": (REAL, (0.5, 0.0, -0.25, math.nan), {"positivity", "strict_descent"}),
    "grid, a negative entry": (
        GRID.spec, (np.full(8, 0.5), np.array([0.25] * 7 + [-1e-300])), {"positivity"}
    ),
    "one rung": (REAL, (0.5,), set()),
}


@pytest.mark.parametrize("name", STACKED_LADDERS)
def test_stacked_ladder_check_matches_the_scalar_loop(name):
    spec, rungs, failing = STACKED_LADDERS[name]
    ladder = TestLadder(tuple(rungs))
    # the same callbacks, but not the `REAL_ENTRYWISE` row: the scalar loop
    scalar = replace(spec, combine=lambda a, b: spec.combine(a, b))
    assert spec.elementwise and not scalar.elementwise
    got, want = validate_ladder(spec, ladder), validate_ladder(scalar, ladder)
    assert got == want and got.render() == want.render()
    assert {c.name for c in got.failures} == failing

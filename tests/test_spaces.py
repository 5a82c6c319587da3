"""Distance-space axioms, detectors, falsifiers, and example spaces."""
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import monofix.engine
import monofix.monoid
import monofix.spaces
from monofix import (
    Decision,
    DistanceSpaceSpec,
    Grid,
    LambdaSequence,
    MapSpec,
    MTrace,
    PointTrace,
    SpaceKind,
    TestLadder,
    ZetaSpec,
    check_triangle,
    check_zeta_triangle,
    converges_to,
    dyadic_ladder,
    entourage_distance,
    falsify_frechet_wilson,
    gauge_space,
    grid_ladder,
    grid_space,
    is_cauchy_sequence,
    is_null_trace,
    is_cw_sequence,
    make_uniform_from_pseudometric,
    product_space,
    solve_sequential,
    validate_monoid,
    validate_space,
    validate_zeta,
)
from monofix.catalog import (
    get_monoid,
    get_space,
    hierarchical_rho,
    interleaved_sequence,
    real_nonneg_monoid,
)
from monofix._rng import child_rng
from monofix._util import ATOL, RTOL, add_entries, close_entries, close_eq, format_value
from monofix.reporting import Counterexample
from monofix.monoid import cauchy_series_window_report
from monofix.spaces import FW_LEVELS, FWSampler, diagonal, full_relation, product_monoid

REAL_ABS = get_space("real_abs")
SNOWFLAKE = get_space("snowflake")
SQUARED = get_space("squared")
OMEGA = get_space("omega_counterexample{128}")


def test_validate_real_metric():
    rep = validate_space(REAL_ABS.space, REAL_ABS.samples, trials=2000, seed=1)
    assert rep.ok, rep.render()


def test_validate_dislocated_max_reports_dislocation():
    entry = get_space("dislocated_max")
    rep = validate_space(entry.space, entry.samples, trials=2000, seed=2)
    assert rep.ok, rep.render()
    # dislocation is reported, not penalized: d(2,2) = 2 != 0
    assert entry.space.distance(2.0, 2.0) == 2.0
    note = next(c for c in rep.checks if c.name == "dislocation_observed")
    assert "d(x,x)" in note.detail


def test_validate_collapsing_distance_declared_distance_fails():
    entry = get_space("broken_pseudo_as_distance")
    rep = validate_space(entry.space, entry.samples, trials=2000, seed=3)
    assert not rep.ok
    assert any(c.name == "zero_implies_equal" for c in rep.failures)


# ---------------------------------------------------------------------------
# triangle checks


def test_triangle_real_random_triples():
    rng = random.Random(4)
    triples = [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(500)]
    assert check_triangle(REAL_ABS.space, triples).ok


def test_triangle_snowflake_violation():
    # hand oracle: d(0,2) = 4 while d(0,1) + d(1,2) = 2, after a tie
    # d(0,1) = 1 = d(0,0.5) + d(0.5,1) that passes
    d = SNOWFLAKE.space.distance
    assert d(0.0, 2.0) == 4.0 and d(0.0, 1.0) + d(1.0, 2.0) == 2.0
    rep = check_triangle(SNOWFLAKE.space, [(0.0, 1.0, 0.5), (0.0, 2.0, 1.0)])
    (check,) = rep.checks
    assert not rep.ok and check.trials == 2
    assert check.render() == "FAIL triangle: x=0.0 y=2.0 z=1.0 d(x,y)=4.0 d(x,z)+d(z,y)=2.0"


def test_triangle_infinite_distance_fails():
    # three points with d(0,1) = inf while d(0,2) + d(2,1) = 2: inf is not
    # <= 2, and a non-finite value equals only itself, so no tie forgives it
    table = {frozenset((0, 1)): math.inf, frozenset((0, 2)): 1.0, frozenset((1, 2)): 1.0}
    dist = lambda x, y: 0.0 if x == y else table[frozenset((x, y))]
    space = dataclasses.replace(REAL_ABS.space, distance=dist, point_descr="three points")
    rep = check_triangle(space, [(0, 2, 1), (0, 1, 2)])
    (check,) = rep.checks
    assert not rep.ok and check.trials == 2
    assert check.counterexample == "x=0 y=1 z=2 d(x,y)=inf d(x,z)+d(z,y)=2.0"


def test_triangle_entourage_space_exhaustive():
    entry = get_space("uniform_pseudometric{8}")
    triples = itertools.product(entry.finite_carrier, repeat=3)
    assert check_triangle(entry.space, triples).ok


def reference_triangle(space, name, labels, rhs_of, triples):
    """(name, passed, trials, counterexample) of deciding d(x,y) <= rhs_of(d(x,z),
    d(z,y)) on every triple in order."""
    m, d, count = space.monoid, space.distance, 0
    for count, (x, y, z) in enumerate(triples, 1):
        lhs, rhs = d(x, y), rhs_of(d(x, z), d(z, y))
        if not (m.leq(lhs, rhs) or m.eq(lhs, rhs)):
            text = f"x={format_value(x)} y={format_value(y)} z={format_value(z)} "
            text += f"{labels[0]}={format_value(lhs)} {labels[1]}={format_value(rhs)}"
            return name, False, count, text
    return name, True, count, None


@st.composite
def relation_tables(draw):
    """A relation-valued distance table on at most 5 points and triples of
    them.  Either the entourage distances of points on a line with one of
    them replaced, on every triple in some order, so that triples pass and
    repeat their distances until one meets the replaced pair; or copies of
    at most 3 random relations, so that equal distances are distinct
    objects, on a list of triples."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.product(range(n), repeat=2))
    relation = st.frozensets(st.sampled_from(pairs))
    if draw(st.booleans()):
        at = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        base = [frozenset((a, b) for a, b in pairs if abs(at[a] - at[b]) <= r) for r in (4, 2, 1, 0)]
        table = {(x, y): entourage_distance(base, x, y) for x, y in pairs}
        table[draw(st.sampled_from(pairs))] = draw(relation)
        return table, draw(st.permutations(list(itertools.product(range(n), repeat=3))))
    pool = draw(st.lists(relation, min_size=1, max_size=3))
    table = {p: frozenset(list(draw(st.sampled_from(pool)))) for p in pairs}
    point = st.integers(0, n - 1)
    return table, draw(st.lists(st.tuples(point, point, point), min_size=1, max_size=40))


# every distance empty but d(0,2) = {(0,0)}: (0,1,1) passes, (1,0,0)
# repeats its distances, and (0,2,1) fails
REPEAT_THEN_FAIL = (
    {(x, y): frozenset({(0, 0)} if (x, y) == (0, 2) else ()) for x in range(3) for y in range(3)},
    [(0, 1, 1), (1, 0, 0), (0, 2, 1)],
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(relation_tables())
@example(REPEAT_THEN_FAIL)
def test_relational_triangle_decides_each_distance_triple_once(case):
    table, triples = case
    space = dataclasses.replace(get_space("uniform_pseudometric{8}").space, distance=lambda a, b: table[a, b])
    assert space.monoid.relational
    compose = space.monoid.combine
    report = check_triangle(space, triples).checks[0]
    want = reference_triangle(space, "triangle", ("d(x,y)", "d(x,z)+d(z,y)"), compose, triples)
    assert (report.name, report.passed, report.trials, report.counterexample) == want

    calls = []
    zspec = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: calls.append((a, b)) or compose(a, b))
    report = check_zeta_triangle(space, zspec, triples).checks[0]
    want = reference_triangle(space, "zeta_triangle", ("phi(d(x,y))", "zeta"), compose, triples)
    assert (report.name, report.passed, report.trials, report.counterexample) == want
    decided = triples[: report.trials]
    assert len(calls) == len({(table[x, y], table[x, z], table[z, y]) for x, y, z in decided})


def test_zeta_triangle_identity_sum_reduces_to_triangle():
    rng = random.Random(5)
    zspec = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: a + b)
    triples = [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(500)]
    assert check_zeta_triangle(REAL_ABS.space, zspec, triples).ok


def test_zeta_triangle_doubled_sum_on_squared_distance():
    # oracle: (x-y)^2 <= 2 (x-z)^2 + 2 (z-y)^2, checked numerically
    rng = random.Random(6)
    triples = [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(500)]
    for x, y, z in triples:
        assert (x - y) ** 2 <= 2 * (x - z) ** 2 + 2 * (z - y) ** 2 + 1e-12
    zspec = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: 2 * (a + b))
    rep = check_zeta_triangle(SQUARED.space, zspec, triples)
    assert rep.ok and rep.checks[0].render() == "PASS zeta_triangle [500 trials]"


def test_zeta_triangle_plain_sum_on_squared_distance_fails():
    zspec = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: a + b)
    rep = check_zeta_triangle(SQUARED.space, zspec, [(0.0, 2.0, 1.0)])
    assert not rep.ok  # 4 > 1 + 1
    (check,) = rep.checks
    assert check.trials == 1
    assert check.render() == "FAIL zeta_triangle: x=0.0 y=2.0 z=1.0 phi(d(x,y))=4.0 zeta=2.0"


def test_validate_zeta_battery():
    from monofix.catalog import get_monoid

    entry = get_monoid("real_nonneg")
    # equal lengths, and every trace (hence every pairwise sum) falls well
    # below the depth-20 rung inside the common prefix
    null = (
        MTrace.of([2.0 ** -(n + 1) for n in range(80)]),
        MTrace.of([5.0 * 3.0 ** -(n + 1) for n in range(80)]),
        MTrace.of([0.0] * 80),
    )
    notnull = (MTrace.of([0.3] * 40), MTrace.of([0.5 + 1.0 / (n + 1) for n in range(40)]))
    good = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: a + b)
    rep = validate_zeta(entry.spec, entry.ladder, good, null, notnull)
    assert rep.ok, rep.render()
    offset = ZetaSpec(phi=lambda a: a, zeta=lambda a, b: a + b + 0.3)
    rep = validate_zeta(entry.spec, entry.ladder, offset, null, notnull)
    assert any(c.name == "zeta_preserves_null" for c in rep.failures)
    crushing = ZetaSpec(phi=lambda a: 0.0, zeta=lambda a, b: a + b)
    rep = validate_zeta(entry.spec, entry.ladder, crushing, null, notnull)
    assert any(c.name == "phi_reflects_null" for c in rep.failures)


# ---------------------------------------------------------------------------
# Frechet-Wilson falsifiers


def test_fw_strong_squared_canonical_chain_is_a_witness():
    # the arithmetic of the canonical chain, checked by hand
    h, n = 0.01, 100
    chain = [i * h for i in range(1, n + 1)]
    consec = sum((chain[i + 1] - chain[i]) ** 2 for i in range(n - 1))
    assert abs(consec - 99 * 1e-4) < 1e-12
    endpoint = (chain[-1] - chain[0]) ** 2
    assert 0.97 < endpoint < 0.99
    bottom = SQUARED.space.ladder.bottom
    assert consec < bottom or bottom < consec  # chain scale depends on the ladder

    cex = falsify_frechet_wilson(
        SQUARED.space, "strong", SQUARED.fw_sampler("strong"), trials=20_000, seed=7
    )
    assert cex is not None
    total, endpoint = cex.distances
    assert total < bottom
    assert not SQUARED.space.monoid.strictly_below(
        endpoint, SQUARED.space.ladder.rungs[cex.rung_index]
    )


def test_fw_strong_snowflake_not_falsified():
    cex = falsify_frechet_wilson(
        SNOWFLAKE.space, "strong", SNOWFLAKE.fw_sampler("strong"), trials=5000, seed=8
    )
    assert cex is None


def test_fw_strong_real_abs_not_falsified():
    cex = falsify_frechet_wilson(
        REAL_ABS.space, "strong", REAL_ABS.fw_sampler("strong"), trials=5000, seed=9
    )
    assert cex is None


def test_fw_standard_omega_falsified():
    cex = falsify_frechet_wilson(
        OMEGA.space, "standard", OMEGA.fw_sampler("standard"), trials=2000, seed=10
    )
    assert cex is not None
    assert cex.kind == "fw-standard"


def test_fw_standard_squared_not_falsified():
    cex = falsify_frechet_wilson(
        SQUARED.space, "standard", SQUARED.fw_sampler("standard"), trials=2000, seed=11
    )
    assert cex is None


def test_fw_weak_omega_not_falsified():
    cex = falsify_frechet_wilson(
        OMEGA.space, "weak", OMEGA.fw_sampler("weak"), trials=2000, seed=12
    )
    assert cex is None


def test_fw_rejects_unknown_level():
    with pytest.raises(ValueError):
        falsify_frechet_wilson(REAL_ABS.space, "superstrong", lambda rng: [], 1)


# The Frechet-Wilson checks of the benchmark's audit workload.
FW_CHECKS = (
    ("strong", "snowflake"),
    ("strong", "real_abs"),
    ("strong", "squared"),
    ("weak", "real_abs"),
    ("standard", "real_abs"),
    ("weak", "omega_counterexample{128}"),
    ("standard", "omega_counterexample{128}"),
    ("weak", "uniform_pseudometric{8}"),
    ("standard", "uniform_pseudometric{8}"),
)


def eager_frechet_wilson(space, level, sampler, trials, seed):
    """The falsifier with every trace of a trial computed before any of
    them is decided."""
    m, ladder = space.monoid, space.ladder
    rng = child_rng(seed, f"fw-{level}")
    for trial in range(trials):
        cand = sampler(rng)
        if level == "strong":
            chain = tuple(cand)
            if len(chain) < 2:
                continue
            total = m.fold(space.distance(a, b) for a, b in zip(chain, chain[1:]))
            if not m.strictly_below(total, ladder.bottom):
                continue
            endpoint = space.distance(chain[0], chain[-1])
            above = [i for i, eps in enumerate(ladder.rungs) if not m.strictly_below(endpoint, eps)]
            if above:
                return level, trial, chain, above[0], (total, endpoint)
            continue
        if level == "weak":
            seq_x, seq_y, z = cand
            heads, middles, tails = tuple(seq_x), tuple(seq_y), (z,) * len(seq_x)
        else:
            heads, middles, tails = (tuple(c) for c in cand)
        n = min(len(heads), len(middles), len(tails))
        if n < 2:
            continue
        heads, middles, tails = heads[:n], middles[:n], tails[:n]
        prem1, prem2, concl = (
            MTrace.of([space.distance(a, b) for a, b in zip(us, vs)])
            for us, vs in ((heads, middles), (middles, tails), (heads, tails))
        )
        if (
            is_null_trace(prem1, ladder, m) is Decision.NULL
            and is_null_trace(prem2, ladder, m) is Decision.NULL
            and is_null_trace(concl, ladder, m) is Decision.NOT_NULL_WITHIN
        ):
            return level, trial, (heads, middles, tails), len(ladder.rungs) - 1, concl.elements[-1:]
    return None


@pytest.mark.parametrize("level,name", FW_CHECKS)
def test_fw_lazy_traces_match_eager_reference(level, name):
    entry = get_space(name)
    for seed in range(8):
        want = eager_frechet_wilson(entry.space, level, entry.fw_sampler(level), 120, seed)
        cex = falsify_frechet_wilson(entry.space, level, entry.fw_sampler(level), 120, seed=seed)
        if want is None:
            assert cex is None, seed
            continue
        kind, trial, points, rung, distances = want
        assert cex == Counterexample(
            kind=f"fw-{kind}",
            points=points,
            rung_index=rung,
            distances=distances,
            detail=cex.detail,
        ), seed
        assert cex.detail.endswith(f"found on trial {trial}")


KEYED_FW_CHECKS = [
    (level, name)
    for name in ("omega_counterexample{128}", "uniform_pseudometric{8}")
    for level in FW_LEVELS
]


@pytest.mark.parametrize("level,name", KEYED_FW_CHECKS)
def test_fw_keyed_samplers_match_eager_reference_when_draws_repeat(level, name):
    # at 1000 trials most omega draws repeat an earlier one, and only the
    # first of each is decided
    entry = get_space(name)
    for seed in range(8):
        want = eager_frechet_wilson(entry.space, level, entry.fw_sampler(level), 1000, seed)
        cex = falsify_frechet_wilson(entry.space, level, entry.fw_sampler(level), 1000, seed=seed)
        if want is None:
            assert cex is None, seed
            continue
        kind, trial, points, rung, distances = want
        assert (cex.kind, cex.points, cex.rung_index, cex.distances) == (
            f"fw-{kind}", points, rung, distances
        ), seed
        assert cex.detail.endswith(f"found on trial {trial}")


def test_fw_omega_weak_measures_only_distinct_draws():
    calls = []

    def dist(x, y):
        calls.append((x, y))
        return OMEGA.space.distance(x, y)

    space = dataclasses.replace(OMEGA.space, distance=dist)
    # the keyed loop, without the stacked screen
    stacked, trials = OMEGA.fw_sampler("weak"), 1000
    sampler = FWSampler(stacked.draw, stacked.build)
    rng = child_rng(0, "fw-weak")
    distinct = list(dict.fromkeys(sampler.draw(rng) for _ in range(trials)))
    assert len(distinct) < trials // 4
    assert falsify_frechet_wilson(space, "weak", sampler, trials, seed=0) is None
    keyed = len(calls)
    # the same candidates, each once, through a plain sampler
    calls.clear()
    candidates = iter(map(sampler.build, distinct))
    assert falsify_frechet_wilson(space, "weak", lambda _: next(candidates), len(distinct)) is None
    assert keyed == len(calls) > 0


def test_fw_keyed_sampler_reports_the_first_failing_trial():
    # key 3 is the only counterexample: d(a, b) and d(b, c) are 0, d(a, c) is 1
    space = dataclasses.replace(REAL_ABS.space, distance=lambda x, y: float({x, y} == {"a", "c"}))
    built = []

    def build(key):
        built.append(key)
        return ["a"] * 8, ["b"] * 8, "c" if key == 3 else "b"

    sampler = FWSampler(draw=lambda rng: rng.randint(0, 3), build=build)
    for seed in range(20):
        built.clear()
        cex = falsify_frechet_wilson(space, "weak", sampler, 50, seed=seed)
        assert built == list(dict.fromkeys(built)) and built[-1] == 3
        want = falsify_frechet_wilson(space, "weak", lambda rng: sampler(rng), 50, seed=seed)
        assert cex == want and cex.detail == want.detail


def reference_omega_fw_sample(rng, level, n_max=128):
    """The omega sampler drawing and building in one function."""
    if level == "strong":
        k = rng.randint(2, n_max - 1)
        return [("n", k), ("w", k), ("n", k + 1)]
    start = rng.randint(1, max(1, n_max - 65))
    n = min(64, n_max - start)
    xs = [("n", start + i) for i in range(n)]
    if level == "weak":
        choice = rng.random()
        if choice < 0.5:
            return xs, [("w", start + i) for i in range(n)], ("inf",)
        return xs, [("inf",)] * n, ("inf",)
    zs = [("w", start + i) for i in range(n)]
    ys = [("n", start + i + 1) for i in range(n)]
    return xs, zs, ys


def reference_uniform_fw_sample(rng, level, pts=tuple(range(8))):
    """The uniform sampler drawing and building in one function."""
    n = rng.randint(2, 6)
    chain = [rng.choice(pts) for _ in range(n)]
    if level == "strong":
        return chain
    z = rng.choice(pts)
    xs = chain * 8
    ys = list(reversed(chain)) * 8
    if level == "weak":
        return xs, ys, z
    return xs, [z] * len(xs), ys


@pytest.mark.parametrize("level", FW_LEVELS)
@pytest.mark.parametrize(
    "name, reference",
    [
        ("omega_counterexample{128}", reference_omega_fw_sample),
        ("uniform_pseudometric{8}", reference_uniform_fw_sample),
    ],
)
def test_keyed_fw_sampler_matches_one_piece_reference(level, name, reference):
    sample = get_space(name).fw_sampler(level)
    for seed in range(100):
        rng, ref_rng, key_rng = random.Random(seed), random.Random(seed), random.Random(seed)
        want = repr(reference(ref_rng, level))
        assert repr(sample(rng)) == want, seed
        assert rng.getstate() == ref_rng.getstate()
        key = sample.draw(key_rng)
        hash(key)
        assert repr(sample.build(key)) == want and key_rng.getstate() == ref_rng.getstate()


def test_fw_second_premise_computed_only_after_a_null_first():
    pairs = []

    def dist(x, y):
        pairs.append((x, y))
        return abs(x - y)

    space = dataclasses.replace(REAL_ABS.space, distance=dist)
    n, trials = 8, 5
    for xs, ys, z, per_trial in [
        ([0.0] * n, [1.0] * n, 0.0, n),  # the first premise is not null
        ([0.0] * n, [0.0] * n, 1.0, 2 * n),  # the second premise is not null
        ([0.0] * n, [0.0] * n, 0.0, 3 * n),  # no trace is decisively not null
    ]:
        pairs.clear()
        cex = falsify_frechet_wilson(space, "weak", lambda rng: (xs, ys, z), trials, seed=1)
        assert cex is None and len(pairs) == trials * per_trial


def reference_real_fw_sample(rng, level, nonneg):
    """The weak and standard real sampler, each quotient divided anew by the
    int (i + 1) ** 2."""
    z = rng.uniform(0.0, 2.0) if nonneg else rng.uniform(-2.0, 2.0)
    amp = rng.uniform(0.1, 1.0)
    n = 48
    xs = [z + amp / (i + 1) ** 2 for i in range(n)]
    ys = [z - amp / (i + 1) ** 2 for i in range(n)]
    if nonneg:
        xs = [abs(v) for v in xs]
        ys = [abs(v) for v in ys]
    if level == "weak":
        return xs, ys, z
    zs = [z + amp / (2 * (i + 1) ** 2) for i in range(n)]
    return xs, zs, ys


@pytest.mark.parametrize("level", ["weak", "standard"])
@pytest.mark.parametrize("name, nonneg", [("real_abs", False), ("dislocated_max", True)])
def test_real_fw_sampler_matches_per_index_division(level, name, nonneg):
    sample = get_space(name).fw_sampler(level)
    for seed in range(100):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert repr(sample(rng)) == repr(reference_real_fw_sample(ref_rng, level, nonneg)), seed
        assert rng.getstate() == ref_rng.getstate()


def reference_omega_distance(x, y):
    """`omega_distance` deciding each kind pair on its own."""
    if x == y:
        return 0.0
    kx, ky = x[0], y[0]
    if kx == "n" and ky == "n":
        return 1.0
    if kx == "w" and ky == "w":
        return 1.0
    if kx == "n":
        return 1.0 / x[1] ** 2
    if ky == "n":
        return 1.0 / y[1] ** 2
    j = x[1] if kx == "w" else y[1]
    return 1.0 / j**2


def test_omega_distance_matches_per_kind_reference():
    points = [("inf",)] + [(kind, k) for kind in ("n", "w") for k in (1, 2, 3, 127, 128)]
    for x, y in itertools.product(points, repeat=2):
        assert repr(OMEGA.space.distance(x, y)) == repr(reference_omega_distance(x, y)), (x, y)


def omega_code(p):
    """The float code of an omega point in its stacked rows."""
    return 0.0 if p == ("inf",) else float(p[1] if p[0] == "n" else -p[1])


@pytest.mark.parametrize("n", [3, 128, 10**6])
def test_omega_array_distance_is_the_scalar_distance_bit_for_bit(n):
    sampler = get_space(f"omega_counterexample{{{n}}}").fw_sampler("weak")
    ks = range(1, n + 1) if n <= 128 else (1, 2, 3, 4095, 4096, n - 1, n)  # all points, or some
    points = [("inf",)] + [(kind, k) for kind in ("n", "w") for k in ks]
    codes = np.array([omega_code(p) for p in points])
    got = sampler.distance(codes[:, None], codes[None, :])
    want = [[OMEGA.space.distance(x, y) for y in points] for x in points]
    assert bits(got) == bits(want)


def test_uniform_distance_matches_tuple_keyed_table():
    pts = tuple(range(8))
    thresholds = [1.0, 0.5, 0.25, 0.125]
    base = [
        frozenset((a, b) for a in pts for b in pts if hierarchical_rho(a, b) <= r)
        for r in thresholds
    ]
    table = {(a, b): entourage_distance(base, a, b) for a in pts for b in pts}
    space = get_space("uniform_pseudometric{8}").space
    for a, b in itertools.product(pts, repeat=2):
        assert repr(space.distance(a, b)) == repr(table[(a, b)]), (a, b)


def _outcome(run):
    try:
        return "returned", run()
    except ValueError as exc:
        return "raised", str(exc)


@pytest.mark.parametrize("level,name", [c for c in FW_CHECKS if c[0] != "strong"])
@pytest.mark.parametrize("role", [0, 1])
def test_fw_distance_outside_the_cone_raises_as_reference(level, name, role):
    # on trial 3 the distance leaves the positive cone (-0.5, or the empty
    # relation) at the middle element of both traces through the heads
    # (role 0) or the middles (role 1)
    entry = get_space(name)
    bad = object()
    outside = frozenset() if name.startswith("uniform") else -0.5

    def dist(x, y):
        return outside if x is bad or y is bad else entry.space.distance(x, y)

    space = dataclasses.replace(entry.space, distance=dist)

    def run(falsify):
        drawn = []

        def sampler(rng):
            cand = [list(c) if isinstance(c, list) else c for c in entry.fw_sampler(level)(rng)]
            if len(drawn) == 3 and isinstance(cand[role], list):
                cand[role][len(cand[role]) // 2] = bad
            drawn.append(cand)
            return cand

        return _outcome(lambda: falsify(space, level, sampler, 40, 5)), len(drawn)

    got = run(lambda *args: falsify_frechet_wilson(*args[:4], seed=args[4]))
    (kind, want), trials = run(eager_frechet_wilson)
    if kind == "raised":
        assert got == ((kind, want), trials) and trials == 4
        assert want.endswith(f"is not in the positive cone: {format_value(outside)}")
    elif want is None:
        assert got == (("returned", None), trials)
    else:
        assert got[1] == trials and got[0][1].detail.endswith(f"found on trial {want[1]}")


@pytest.mark.parametrize("level", ["weak", "standard"])
def test_fw_conclusion_outside_the_cone_raises_as_reference(level):
    # the premises are all 0; on trial 3 the conclusion is -0.5 at its middle
    n = 8

    def dist(x, y):
        return -0.5 if {x, y} == {"x!", "z"} else 0.0

    space = dataclasses.replace(REAL_ABS.space, distance=dist)

    def run(falsify):
        drawn = []

        def sampler(rng):
            xs = ["x"] * n
            if len(drawn) == 3:
                xs[n // 2] = "x!"
            drawn.append(xs)
            return (xs, ["y"] * n, "z") if level == "weak" else (xs, ["y"] * n, ["z"] * n)

        return _outcome(lambda: falsify(space, level, sampler, 10, 0)), len(drawn)

    want = run(eager_frechet_wilson)
    assert want == (("raised", "trace element at index 4 is not in the positive cone: -0.5"), 4)
    assert run(lambda *args: falsify_frechet_wilson(*args[:4], seed=args[4])) == want


# ---------------------------------------------------------------------------
# The stacked screen of the real-line samplers

REAL_LINE = ("real_abs", "snowflake", "squared", "dislocated_max")
# around the end of the unscreened trials (4), of the screened chunks (every
# 256 trials) and of the keys drawn at once (every 1024 trials)
SCREEN_TRIALS = (1, 3, 4, 5, 15, 16, 17, 255, 256, 257, 511, 512, 513, 1000, 1024, 1025, 1100)


def plain(sampler):
    """The same sampler as a plain callable, decided on every trial."""
    return lambda rng: sampler(rng)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# the omega spaces whose start range (one start up to n_max = 66) and row
# width (n_max - 1 below 65 points) change; 1100 draws one start in 1035
OMEGA_SIZES = (3, 66, 67, 128, 1100)
STACKED_FW_CHECKS = [(name, level) for name in REAL_LINE for level in FW_LEVELS] + [
    (f"omega_counterexample{{{n}}}", level) for n in OMEGA_SIZES for level in ("weak", "standard")
]


def late_omega_ladder(n):
    """A one-rung ladder below which a standard omega candidate's premises
    fall only at the largest start, so that its counterexamples come late."""
    top, width = max(1, n - 65), min(64, n - 1)
    return TestLadder(((top + width - 1.5) ** -2,))


@pytest.mark.parametrize("name,level", STACKED_FW_CHECKS)
def test_fw_screen_matches_the_scalar_loop(level, name):
    entry = get_space(name)
    sampler = entry.fw_sampler(level)
    assert sampler.stack is not None and sampler.distance is not None
    spaces = [entry.space]
    if name.startswith("omega") and level == "standard":
        spaces.append(dataclasses.replace(entry.space, ladder=late_omega_ladder(int(name[21:-1]))))
    late = []
    for space, seed in itertools.product(spaces, range(8)):
        # the plain loop decides trials in order and stops at the first
        # witness: over fewer trials it finds that witness or nothing
        found = falsify_frechet_wilson(space, level, plain(sampler), max(SCREEN_TRIALS), seed=seed)
        first = math.inf if found is None else int(found.detail.rsplit(" ", 1)[1])
        for trials in SCREEN_TRIALS:
            want = found if first < trials else None
            cex = falsify_frechet_wilson(space, level, sampler, trials, seed=seed)
            assert cex == want and repr(cex) == repr(want), (seed, trials)
        if space is not entry.space:
            late.append(first)
    if name == "omega_counterexample{1100}" and level == "standard":
        # found by the screen in the first chunk and past it, and not found
        # in the keys drawn past the first 1024
        assert 4 <= min(late) < 256 < sorted(late)[-3] < 1024 < max(late), late


@pytest.mark.parametrize("name,level", STACKED_FW_CHECKS)
def test_fw_stacked_rows_are_the_built_candidates(level, name):
    # the keys and the generator state of scalar draws; rows, lengths and
    # array distances, bit for bit, padding excluded
    entry = get_space(name)
    sampler, d = entry.fw_sampler(level), entry.space.distance
    code = omega_code if name.startswith("omega") else float
    for seed in range(4):
        for count in (1, 4, 5, 256, 257, 1024):  # the generator state alone
            rng, scalar = random.Random(seed), random.Random(seed)
            sampler.stack(rng, count)
            for _ in range(count):
                sampler.draw(scalar)
            assert rng.getstate() == scalar.getstate(), (seed, count)
        rng, scalar = random.Random(seed), random.Random(seed)
        rows_of, key, *row_of = sampler.stack(rng, 300)
        keys = [sampler.draw(scalar) for _ in range(300)]
        assert rng.getstate() == scalar.getstate(), seed
        assert repr([key(i) for i in range(300)]) == repr(keys), seed
        if row_of:  # a row per distinct key, and each key's row
            assert len(set(keys)) == len(rows_of[0]) == max(row_of[0]) + 1 and len(row_of[0]) == 300
            rows = tuple(r[row_of[0]] for r in rows_of)
        else:
            rows = rows_of(0, 300)
            for i, j in ((0, 1), (17, 150), (299, 300)):  # a slice's rows are its keys'
                assert [bits(r[i:j]) for r in rows] == [bits(r) for r in rows_of(i, j)], (seed, i, j)
        if level == "strong":
            points, lengths = rows
            steps = sampler.distance(points[:, :-1], points[:, 1:])
            ends = sampler.distance(points[:, 0], points[np.arange(len(keys)), lengths - 1])
            for i, key in enumerate(keys):
                chain = sampler.build(key)
                n = len(chain)
                assert lengths[i] == n and bits(points[i, :n]) == bits(chain), (seed, i)
                assert bits(steps[i, : n - 1]) == bits(list(map(d, chain, chain[1:]))), (seed, i)
                assert bits(ends[i]) == bits(d(chain[0], chain[-1])), (seed, i)
            continue
        if level == "weak":
            assert rows[2].shape == (len(keys), 1)
        seqs = np.broadcast_arrays(*rows)
        traces = [(0, 1), (1, 2), (0, 2)]
        dists = [sampler.distance(seqs[u], seqs[v]) for u, v in traces]
        for i, key in enumerate(keys):
            cand = sampler.build(key)
            if level == "weak":
                cand = (cand[0], cand[1], [cand[2]] * len(cand[0]))
            assert [bits(s[i]) for s in seqs] == [bits(list(map(code, c))) for c in cand], (seed, i)
            for (u, v), got in zip(traces, dists):
                assert bits(got[i]) == bits(list(map(d, cand[u], cand[v]))), (seed, i, u, v)


FINITE = ("uniform_pseudometric{8}", "uniform_pseudometric{64}")


@pytest.mark.parametrize("level", ["weak", "standard"])
@pytest.mark.parametrize("name", FINITE)
def test_finite_stacked_rows_are_the_last_columns(level, name):
    # the keys and the generator state of scalar draws; the rows index the
    # points of the built candidate's last columns, its last column last
    entry = get_space(name)
    sampler = entry.fw_sampler(level)
    pts = np.array(sampler.points)
    assert sampler.points == entry.finite_carrier and sampler.distance is None
    for seed in range(4):
        rng, scalar = random.Random(seed), random.Random(seed)
        rows_of, key = sampler.stack(rng, 300)
        keys = [sampler.draw(scalar) for _ in range(300)]
        assert rng.getstate() == scalar.getstate(), seed
        assert repr([key(i) for i in range(300)]) == repr(keys), seed
        rows = rows_of(0, 300)
        width = rows[0].shape[1]
        for i, k in enumerate(keys):
            cand = sampler.build(k)
            if level == "weak":
                cand = (cand[0], cand[1], [cand[2]])
            for row, seq in zip(rows, cand):
                assert pts[row[i]].tolist() == seq[-row.shape[1]:], (seed, i)
            assert width >= 2 and len(cand[0]) >= width and len(set(cand[0])) <= width
        for i, j in ((0, 1), (17, 150), (299, 300)):
            assert [r[i:j].tolist() for r in rows] == [r.tolist() for r in rows_of(i, j)], (seed, i, j)


def near_distance(near):
    """The entourage space's distance, except that a pair in `near` is at
    the diagonal and any other pair of distinct points at the full
    relation: "near" is not transitive, which the weak and standard
    properties need."""
    pts = tuple(range(8))
    low, high = diagonal(pts), full_relation(pts)
    return lambda x, y: low if x == y or {x, y} in near else high


@pytest.mark.parametrize("level", ["weak", "standard"])
@pytest.mark.parametrize("case", ["falsified", "outside the cone"])
def test_finite_screen_matches_the_keyed_loop(level, case):
    # 0 ~ 1 ~ 2 and 0 !~ 2 falsify both properties, at a trial whose chain
    # ends and z are those three points, about one trial in 250; the empty
    # relation between 3 and 5 is outside the positive cone
    entry = get_space("uniform_pseudometric{8}")
    near = [{0, 1}, {1, 2}]
    distance = near_distance(near)
    if case == "outside the cone":
        distance = (lambda d: lambda x, y: frozenset() if {x, y} == {3, 5} else d(x, y))(distance)
    space = dataclasses.replace(entry.space, distance=distance)
    sampler = entry.fw_sampler(level)
    keyed = dataclasses.replace(sampler, stack=None, points=None)
    found = []
    for seed in range(8):
        for trials in (1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 1024, 1025):
            want = _outcome(lambda: falsify_frechet_wilson(space, level, keyed, trials, seed=seed))
            got = _outcome(lambda: falsify_frechet_wilson(space, level, sampler, trials, seed=seed))
            assert repr(got) == repr(want), (seed, trials)
        found.append(want)
    if case == "falsified":
        trials = sorted(int(cex.detail.rsplit(" ", 1)[1]) for kind, cex in found if cex is not None)
        assert trials[0] >= 4 and trials[-1] >= 256, trials  # found by the screen, in and past the first chunk
    else:
        assert {kind for kind, _ in found} == {"raised"}
        assert all(text.endswith("is not in the positive cone: {}") for _, text in found)


def stacked_sampler(level, draw, build, distance):
    """A keyed sampler whose stacked form is its built candidates' rows,
    drawn one key at a time."""

    def stack(rng, count):
        keys = [draw(rng) for _ in range(count)]
        cands = [build(key) for key in keys]
        if level == "strong":
            width = max(map(len, cands))
            points = np.array([c + [c[-1]] * (width - len(c)) for c in cands])
            rows = (points, np.array([len(c) for c in cands]))
        else:
            heads, middles, tails = zip(*cands)
            if level == "weak":
                tails = [[z] for z in tails]
            rows = tuple(np.array(s, dtype=float) for s in (heads, middles, tails))
        return (lambda i, j: tuple(r[i:j] for r in rows)), keys.__getitem__

    return FWSampler(draw, build, stack, distance)


def pair_distance(bad_pairs, bad):
    """|x - y|, except `bad` on the given ordered pairs: scalar and array forms."""

    def scalar(x, y):
        return bad if (x, y) in bad_pairs else abs(x - y)

    def array(x, y):
        hit = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for a, b in bad_pairs:
            hit |= (x == a) & (y == b)
        return np.where(hit, bad, abs(x - y))

    return scalar, array


def run_both(space, level, make_sampler, trials, seed):
    """The outcome and the last trial drawn (plain) or built (screened),
    once through the scalar loop alone and once through the screen."""
    found = []
    for screened in (False, True):
        seen = []
        sampler = make_sampler(seen)
        run = sampler if screened else plain(sampler)
        got = _outcome(lambda: falsify_frechet_wilson(space, level, run, trials, seed=seed))
        found.append((got[0], repr(got[1]), seen[-1] if seen else None))
    return found


# The family of the adversarial cases, on the depth-4 dyadic ladder: n
# points per sequence; heads z + q, middles z + q/2, tails z, with
# q = amp / (i + 1)**2, so every trace is null; strong chains of steps
# h < 2**-10, all below every rung.
N_POINTS = 16


def family_build(level, seen):
    """The family's build, noting each key's trial in `seen`."""

    def build(key):
        t, z, amp = key
        seen.append(t)
        if level == "strong":
            return [z + i * amp * 2.0**-10 for i in range(2 + int(amp * 30))]
        qs = [amp / (i + 1) ** 2 for i in range(N_POINTS)]
        heads, middles = [z + q for q in qs], [z + q / 2 for q in qs]
        return (heads, middles, z) if level == "weak" else (heads, middles, [z] * N_POINTS)

    return build


def family_draw():
    counter = itertools.count()
    return lambda rng: (next(counter), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0))


def bad_pairs_of(level, cand, role, index):
    """The ordered pair at `index` of the trace `role` (premise 1, premise 2,
    conclusion; strong: a step, or the endpoint pair)."""
    if level == "strong":
        return (cand[0], cand[-1]) if role == "endpoint" else (cand[index], cand[index + 1])
    heads, middles, tails = cand
    if level == "weak":
        tails = [tails] * len(heads)
    u, v = ((heads, middles), (middles, tails), (heads, tails))[role]
    return (u[index], v[index])


@pytest.mark.parametrize("bad", [math.nan, -0.5, -math.inf])
@pytest.mark.parametrize(
    "level, role",
    [("weak", 0), ("weak", 1), ("weak", 2), ("standard", 0), ("standard", 1), ("standard", 2),
     ("strong", "step"), ("strong", "endpoint")],
)
def test_fw_screen_outside_the_cone_as_the_scalar_loop(level, role, bad):
    # one pair of one chosen trial's candidate gets a bad distance, in the
    # scalar and the array form alike
    for bad_trial in (0, 15, 16, 40, 300):
        # the chosen trial's candidate, from the draws of an unmarked run
        rng, draw = child_rng(7, f"fw-{level}"), family_draw()
        for _ in range(bad_trial + 1):
            key = draw(rng)
        cand = family_build(level, [])(key)
        pair = bad_pairs_of(level, cand, role, N_POINTS // 2 if level != "strong" else 0)
        scalar, array = pair_distance({pair}, bad)
        space = dataclasses.replace(REAL_ABS.space, distance=scalar, ladder=dyadic_ladder(4))
        make = lambda seen: stacked_sampler(level, family_draw(), family_build(level, seen), array)
        plain_run, screened_run = run_both(space, level, make, 400, 7)
        assert screened_run == plain_run, bad_trial
        kind, text, last = plain_run
        if level != "strong":
            assert kind == "raised" and last == bad_trial, bad_trial
            message = f"trace element at index {N_POINTS // 2} is not in the positive cone: "
            assert text == repr(message + format_value(bad))
        elif role == "endpoint" and math.isnan(bad):
            # NaN is not strictly below the first rung: a witness
            assert text.endswith(f"found on trial {bad_trial}')") and last == bad_trial
        else:
            # a NaN step makes a NaN sum, not strictly below the bottom rung;
            # after a -0.5 or -inf step the sum is, but the endpoint stays
            # strictly below every rung, as a -0.5 or -inf endpoint is
            assert (kind, text) == ("returned", "None"), bad_trial


def constant_candidate(level, last, n=4):
    """Constant sequences whose premise distances are 3/4 and 1/4 of `last`,
    the conclusion's."""
    heads, middles = [last] * n, [last / 4] * n
    return (heads, middles, 0.0) if level == "weak" else (heads, middles, [0.0] * n)


@pytest.mark.parametrize("level", ["weak", "standard"])
def test_fw_screen_breaks_ties_as_close_eq(level):
    # the bottom rung b lies where ATOL dominates the band of close_eq; the
    # conclusion's last distance c is far below b, just outside the band, a
    # tie inside it, in the sliver of the band that |c - b| <= ATOL + RTOL*c
    # (numpy's isclose, with c as the second argument) misses, or above b
    b = 1e-11
    band = ATOL + RTOL * b
    lasts = (b / 2, b - band * (1 + 1e-6), b - band / 2, b - band * (1 - RTOL / 2), b + 2 * band)
    eq = close_eq
    assert [eq(c, b) for c in lasts] == [False, False, True, True, False]
    assert not np.isclose(b, lasts[3], rtol=RTOL, atol=ATOL)
    assert close_entries(b, lasts[3]) and close_entries(lasts[3], b)  # one symmetric rule
    weights = (0.9, 0.04, 0.02, 0.02, 0.02)
    ladder = TestLadder.build(REAL_ABS.space.monoid, [0.5, 0.25, b])
    space = dataclasses.replace(REAL_ABS.space, ladder=ladder)
    witnesses = []
    for seed in range(8):

        def make(seen):
            counter = itertools.count()

            def draw(rng):
                return next(counter), rng.choices(range(5), weights)[0]

            def build(key):
                seen.append(key[0])
                return constant_candidate(level, lasts[key[1]])

            return stacked_sampler(level, draw, build, REAL_ABS.fw_sampler(level).distance)

        plain_run, screened_run = run_both(space, level, make, 400, seed)
        assert screened_run == plain_run, seed
        witnesses.append(plain_run)
    # every seed finds a witness, and some first witness is a sliver tie
    assert all(kind == "returned" and text != "None" for kind, text, _ in witnesses)
    assert any(repr(lasts[3]) in text for _, text, _ in witnesses)


def test_fw_screen_scans_every_rung():
    # a ladder made by the constructor need not descend: here the upper rung
    # 2**-40 lies below ATOL, so no endpoint at or above 0 is strictly below
    # it (ATOL makes a small one a tie), and that rung, not the bottom rung
    # 1/16, decides; chains of steps amp/32 have a sum below 1/16 for amp
    # below about 0.24
    space = dataclasses.replace(REAL_ABS.space, ladder=TestLadder((2.0**-40, 2.0**-4)))

    def make(seen):
        def build(key):
            t, z, amp = key
            seen.append(t)
            return [z + i * amp / 32 for i in range(2 + int(amp * 30))]

        return stacked_sampler("strong", family_draw(), build, REAL_ABS.fw_sampler("strong").distance)

    firsts = []
    for seed in range(8):
        plain_run, screened_run = run_both(space, "strong", make, 300, seed)
        assert screened_run == plain_run, seed
        assert "rung_index=0" in plain_run[1]
        firsts.append(plain_run[2])
    assert max(firsts) >= 16  # found by the screen, past the unscreened trials
    # on the descending depth-40 dyadic ladder, whose bottom rung 2**-40 lies
    # inside ATOL, no sum of distances is strictly below the bottom rung
    sampler = REAL_ABS.fw_sampler("strong")
    space = dataclasses.replace(REAL_ABS.space, ladder=dyadic_ladder(40))
    for seed in range(4):
        assert falsify_frechet_wilson(space, "strong", plain(sampler), 300, seed=seed) is None
        assert falsify_frechet_wilson(space, "strong", sampler, 300, seed=seed) is None


# ---------------------------------------------------------------------------
# sequence detectors


def coarse(space_entry, depth=4):
    # same space, coarser ladder: detector examples live at the 1/16 scale
    import dataclasses

    return dataclasses.replace(space_entry.space, ladder=dyadic_ladder(depth))


def test_cauchy_sequence_one_over_n():
    space = coarse(REAL_ABS)
    pts = [1.0 / n for n in range(1, 101)]
    trace = PointTrace.from_points(space, pts, budget=50)
    assert is_cauchy_sequence(space, trace) is Decision.NULL


def test_cauchy_sequence_constant():
    trace = PointTrace.from_points(REAL_ABS.space, [0.7] * 20)
    assert is_cauchy_sequence(REAL_ABS.space, trace) is Decision.NULL


def full_scan_cauchy_sequence(space, points, budget):
    """`is_cauchy_sequence` as a scan of every pair: the last row i with a
    pair (i, j) that is not strictly below the bottom rung.  A budget below
    1 admits no start index."""
    m, bottom, n = space.monoid, space.ladder.bottom, len(points)
    last_bad = -1
    for i in range(n - 1):
        for j in range(i + 1, n):
            if not m.strictly_below(space.distance(points[i], points[j]), bottom):
                last_bad = max(last_bad, i)
    if budget >= 1 and (last_bad == -1 or (last_bad + 1 <= n - 2 and last_bad + 2 <= budget)):
        return Decision.NULL
    return Decision.NOT_NULL_WITHIN if n >= budget else Decision.INDETERMINATE


def test_cauchy_sequence_from_the_tail_matches_full_scan():
    # the bottom rung is 1/16: 0.0, 0.01 and 0.02 pair strictly below it,
    # 0.0 and 0.0625 tie with it, and 0.5 and 3.0 pair above it
    space = coarse(REAL_ABS)
    rng = random.Random("cauchy-tail")
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 9)
        near = rng.random()
        points = [rng.choice((0.0, 0.01, 0.0625, 0.5, 3.0)) if rng.random() > near else 0.02 for _ in range(n)]
        for budget in sorted({0, 1, n - 2, n - 1, n, n + 5}):
            trace = PointTrace.from_points(space, points, budget=budget)
            want = full_scan_cauchy_sequence(space, points, budget)
            assert is_cauchy_sequence(space, trace) is want, (points, budget)
            seen.add(want)
    assert seen == set(Decision)


def test_omega_interleaved_triple_pattern():
    space = OMEGA.space
    prefix = interleaved_sequence(240)
    trace = PointTrace.from_points(space, prefix, budget=120)
    assert is_cw_sequence(space, trace) is Decision.NULL
    assert is_cauchy_sequence(space, trace) is Decision.NOT_NULL_WITHIN
    assert converges_to(space, trace, ("inf",)) is Decision.NULL
    # oracle for the non-Cauchy claim: distinct naturals stay at distance 1
    assert space.distance(("n", 3), ("n", 77)) == 1.0


def test_cw_geometric_orbit():
    pts = [2.0 ** -n for n in range(30)]
    trace = PointTrace.from_points(REAL_ABS.space, pts)
    assert is_cw_sequence(REAL_ABS.space, trace) is Decision.NULL


def test_cw_harmonic_walk_fails_within_budget():
    sums = list(itertools.accumulate(1.0 / k for k in range(1, 1001)))
    trace = PointTrace.from_points(REAL_ABS.space, sums, budget=500)
    # oracle: consecutive distances are 1/k, whose tails past index 500 still
    # exceed the bottom rung of the depth-20 ladder
    assert sum(1.0 / k for k in range(501, 1001)) > REAL_ABS.space.ladder.bottom
    assert is_cw_sequence(REAL_ABS.space, trace) is Decision.NOT_NULL_WITHIN


def test_converges_to_wrong_limit():
    space = coarse(REAL_ABS)
    pts = [1.0 / n for n in range(1, 101)]
    trace = PointTrace.from_points(space, pts)
    assert converges_to(space, trace, 0.0) is Decision.NULL
    assert converges_to(space, trace, 1.0) is Decision.NOT_NULL_WITHIN


# ---------------------------------------------------------------------------
# entourage distances


def _sublevels(pts, rho, thresholds):
    return [
        frozenset((a, b) for a in pts for b in pts if rho(a, b) <= r) for r in thresholds
    ]


def test_entourage_distance_diagonal_for_separating_base():
    pts = tuple(range(8))
    base = _sublevels(pts, hierarchical_rho, [1.0, 0.5, 0.25, 0.125])
    assert entourage_distance(base, 3, 3) == diagonal(pts)


def test_entourage_distance_three_point_example():
    pts = ("a", "b", "c")
    table = {
        frozenset(("a", "b")): 1.5,
        frozenset(("a", "c")): 0.8,
        frozenset(("b", "c")): 0.9,
    }

    def rho(x, y):
        return 0.0 if x == y else table[frozenset((x, y))]

    base = _sublevels(pts, rho, [2.0, 1.0])
    # oracle: only the sublevel-2 relation contains (a, b)
    assert ("a", "b") in base[0] and ("a", "b") not in base[1]
    assert entourage_distance(base, "a", "b") == base[0]


def test_entourage_distance_empty_intersection_is_full():
    pts = ("a", "b")
    base = [diagonal(pts)]
    assert entourage_distance(base, "a", "b") == full_relation(pts)


def test_entourage_distance_empty_base_rejected():
    with pytest.raises(ValueError):
        entourage_distance([], "a", "b")


# ---------------------------------------------------------------------------
# uniform construction


def test_make_uniform_hierarchical_validates():
    from monofix import validate_ladder

    pts = tuple(range(8))
    space, ladder = make_uniform_from_pseudometric(
        pts, hierarchical_rho, [1.0, 0.5, 0.25, 0.125]
    )
    assert space.kind is SpaceKind.DISTANCE
    assert validate_ladder(space.monoid, ladder).ok
    assert check_triangle(space, itertools.product(pts, repeat=3)).ok
    rep = validate_space(space, pts, trials=2000, seed=13)
    assert rep.ok, rep.render()


def test_make_uniform_non_separating_is_pseudo():
    pts = ("a", "b", "c")

    def rho(x, y):
        if {x, y} <= {"a", "b"}:
            return 0.0
        return 0.0 if x == y else 1.0

    space, _ = make_uniform_from_pseudometric(pts, rho, [2.0, 1.0, 0.5])
    assert space.kind is SpaceKind.PSEUDO
    assert space.distance("a", "b") == space.monoid.identity


def test_make_uniform_single_point_degenerates():
    with pytest.raises(ValueError):
        make_uniform_from_pseudometric(("p",), lambda a, b: 0.0, [1.0, 0.5])


def test_make_uniform_rejects_bad_thresholds():
    pts = (0, 1)
    with pytest.raises(ValueError):
        make_uniform_from_pseudometric(pts, lambda a, b: abs(a - b), [1.0, 0.6])
    with pytest.raises(ValueError):
        make_uniform_from_pseudometric(pts, lambda a, b: abs(a - b), [1.0, 1.0])


# ---------------------------------------------------------------------------
# products and gauges


def test_product_sigma_is_taxicab():
    plane = product_space([REAL_ABS.space, REAL_ABS.space], mode="sigma")
    assert plane.distance((0.0, 0.0), (1.0, 2.0)) == 3.0


def test_product_vee_is_chebyshev():
    plane = product_space([REAL_ABS.space, REAL_ABS.space], mode="vee")
    assert plane.distance((0.0, 0.0), (1.0, 2.0)) == 2.0


def test_product_coordinatewise():
    plane = product_space([REAL_ABS.space, REAL_ABS.space], mode="coordinatewise")
    assert plane.distance((0.0, 0.0), (1.0, 2.0)) == (1.0, 2.0)
    assert plane.ladder.rungs[0] == (0.5, 0.5)


def reference_product_monoid(factors):
    """`product_monoid` with a generator expression over the factors."""

    def combine(a, b):
        return tuple(m.combine(x, y) for m, x, y in zip(factors, a, b))

    def leq(a, b):
        return all(m.leq(x, y) for m, x, y in zip(factors, a, b))

    def eq(a, b):
        return all(m.eq(x, y) for m, x, y in zip(factors, a, b))

    def sup(a, b):
        return tuple(m.sup(x, y) for m, x, y in zip(factors, a, b))

    has_sup = all(m.sup is not None for m in factors)
    return combine, leq, eq, sup if has_sup else None


@pytest.mark.parametrize(
    "names",
    [
        ("real_nonneg", "real_nonneg"),
        ("relation{8}", "real_nonneg"),
        ("real_nonneg", "broken_subtraction", "relation{8}"),
    ],
)
def test_product_monoid_matches_generator_reference(names):
    # each factor logs its callback calls: both products must make the same
    # calls, in the same order, stopping at the same factor
    log = []

    def logged(i, op, fn):
        def call(x, y):
            out = fn(x, y)
            log.append((i, op, repr(x), repr(y), repr(out)))
            return out

        return None if fn is None else call

    ops = ("combine", "leq", "eq", "sup")
    entries = [get_monoid(n) for n in names]
    factors = [
        dataclasses.replace(e.spec, **{op: logged(i, op, getattr(e.spec, op)) for op in ops})
        for i, e in enumerate(entries)
    ]
    got = product_monoid(factors)
    want = dict(zip(ops, reference_product_monoid(factors)))
    assert (got.sup is None) is (want["sup"] is None)
    samples = list(itertools.product(*[e.samples[::3] for e in entries]))
    incomparable = 0
    for a, b in itertools.product(samples, repeat=2):
        incomparable += not got.leq(a, b) and not got.leq(b, a)
        for op in ops:
            if want[op] is None:
                continue
            log.clear()
            out = getattr(got, op)(a, b)
            got_log = list(log)
            log.clear()
            assert repr(out) == repr(want[op](a, b)) and got_log == log, (op, a, b)
    assert incomparable > 0


def test_product_of_real_monoids_adds_entries():
    # a product of elementwise float monoids is elementwise itself: + on
    # every entry, with <= and close_eq as order and equality; a factor
    # with another callback, or one that is not a float monoid, is not
    real = get_monoid("real_nonneg")
    got = product_monoid([real.spec, real.spec])
    assert got.elementwise and got.combine is add_entries
    reference = reference_product_monoid([real.spec, real.spec])[0]
    for a, b in itertools.product(itertools.product(real.samples, repeat=2), repeat=2):
        assert repr(got.combine(a, b)) == repr(reference(a, b))
    for changed in (
        dict(combine=max),
        dict(combine=lambda a, b: a + b),
        dict(leq=lambda a, b: a <= b),
        dict(eq=lambda a, b: close_eq(a, b)),  # the same rule, another function
        dict(sup=None),
    ):
        other = dataclasses.replace(real.spec, **changed)
        assert not product_monoid([real.spec, other]).elementwise, changed
    for name in ("relation{8}", "product{real_nonneg,real_nonneg}", "real_vector{3}"):
        assert not product_monoid([real.spec, get_monoid(name).spec]).elementwise, name


def _one_replaced(spec, callback):
    """spec with `callback` replaced by a wrapper that calls it: the same
    monoid, told apart from an elementwise one."""
    f = getattr(spec, callback)
    return dataclasses.replace(spec, **{callback: lambda a, b: f(a, b)})


def _constant_of(spec, v):
    """The element of spec's float carrier with every entry v."""
    if isinstance(spec.identity, np.ndarray):
        return np.full(spec.identity.shape, v)
    return (v,) * len(spec.identity) if isinstance(spec.identity, tuple) else v


def _vector_solve(space):
    """A series solve of x -> A x + 1 on two coordinates with |A| as the
    matrix of its step operator, on tuples or on arrays."""
    a = np.array([[0.3, -0.2], [-0.2, 0.3]])
    w = np.abs(a)
    if isinstance(space.monoid.identity, tuple):
        f = MapSpec(apply=lambda p: tuple((a @ np.array(p) + 1.0).tolist()))
        op, x0 = (lambda v: tuple((w @ np.array(v)).tolist())), (-10.0, 10.0)
    else:
        f, op, x0 = MapSpec(apply=lambda x: a @ x + 1.0), (lambda v: w @ v), np.array([-10.0, 10.0])
    lam = LambdaSequence.constant(op, matrix=w)
    rep = solve_sequential(space, f, lam, x0, "series", 200)
    return rep.status, rep.diagnostics, format_value(rep.fixed_point), rep.iterations


# name in the catalog, the space whose monoid it is, and the fast paths that
# the unchanged monoid takes: stacked axioms and suffix sums always, the
# falsifier screen on scalars, the geometric tail decision on vectors
REAL_CARRIERS = {
    "scalar": ("real_nonneg", lambda: get_space("squared").space, {"_screened"}),
    "tuple": (
        "product{real_nonneg,real_nonneg}",
        lambda: product_space([REAL_ABS.space, REAL_ABS.space], "coordinatewise"),
        {"_geometric_witness"},
    ),
    "array": (
        "real_vector{2}", lambda: grid_space(Grid.trapezoid(0.0, 1.0, 2), grid_ladder(2)), {"_geometric_witness"}
    ),
}


@pytest.fixture
def fast_paths(monkeypatch):
    """The names of the fast paths taken, in order."""
    taken = []
    for module, name in (
        (monofix.monoid, "_stacked_axioms"),
        (monofix.monoid, "_stacked_suffix_scan"),
        (monofix.spaces, "_screened"),
        (monofix.engine, "_geometric_witness"),
    ):

        def spy(*args, _real=getattr(module, name), _name=name):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return taken


@pytest.mark.parametrize("callback", ["combine", "leq", "eq", "sup"])
@pytest.mark.parametrize("carrier", REAL_CARRIERS)
def test_replacing_one_real_callback_takes_the_generic_paths(carrier, callback, fast_paths):
    name, make_space, vector_or_scalar = REAL_CARRIERS[carrier]
    entry, space = get_monoid(name), make_space()

    def outcomes(spec, space):
        found = [validate_monoid(spec, entry.samples, 200, seed=3)]
        for values, budget in (([0.5**k for k in range(1, 60)], 30), ([0.3] * 12, 6)):
            trace = MTrace.of([_constant_of(spec, v) for v in values], budget)
            decision, witness, window = cauchy_series_window_report(trace, entry.ladder, spec)
            total = None if window is None else (type(window[2]), format_value(window[2]))
            found.append((decision, witness, window and window[:2], total))
        if carrier == "scalar":  # a counterexample: (x-y)^2 breaks the strong property
            sampler = get_space("squared").fw_sampler("strong")
            found.append(repr(falsify_frechet_wilson(space, "strong", sampler, 300, seed=1)))
        else:
            found.append(_vector_solve(space))
        return found

    assert entry.spec.elementwise and space.monoid.elementwise
    want = outcomes(entry.spec, space)
    assert set(fast_paths) == {"_stacked_axioms", "_stacked_suffix_scan"} | vector_or_scalar
    fast_paths.clear()
    spec = _one_replaced(entry.spec, callback)
    assert not spec.elementwise
    got = outcomes(spec, dataclasses.replace(space, monoid=_one_replaced(space.monoid, callback)))
    assert fast_paths == [] and got == want


@pytest.mark.parametrize("callback", ["combine", "leq", "eq", "sup"])
def test_replacing_one_relation_callback_takes_the_keyed_path(callback, fast_paths):
    # an identity short of the diagonal, so that the identity axiom fails
    pts = tuple(range(8))
    entry = get_monoid("relation{8}")
    spec = dataclasses.replace(entry.spec, identity=diagonal(pts[1:]))
    assert spec.relational
    want = validate_monoid(spec, entry.samples, 200, seed=3)
    assert fast_paths == ["_stacked_axioms"] and not want.ok
    fast_paths.clear()
    replaced = _one_replaced(spec, callback)
    assert not replaced.relational
    assert validate_monoid(replaced, entry.samples, 200, seed=3) == want and fast_paths == []


def test_product_mixed_monoids_rejected():
    entry = get_space("uniform_pseudometric{8}")
    with pytest.raises(ValueError):
        product_space([REAL_ABS.space, entry.space], mode="sigma")


def test_gauge_separating_vs_single_factor():
    entry = get_space("gauge{3}")
    assert entry.space.kind is SpaceKind.DISTANCE
    single = DistanceSpaceSpec(
        point_descr="plane with the first-coordinate pseudo-distance",
        distance=lambda x, y: abs(x[0] - y[0]),
        kind=SpaceKind.PSEUDO,
        monoid=real_nonneg_monoid(),
        ladder=dyadic_ladder(8),
    )
    g = gauge_space([single], samples=[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    assert g.kind is SpaceKind.PSEUDO


def test_gauge_is_the_coordinatewise_product_on_the_diagonal():
    factors = [
        DistanceSpaceSpec(
            point_descr="plane",
            distance=lambda x, y, i=i: abs(x[i] - y[i]),
            kind=SpaceKind.PSEUDO,
            monoid=real_nonneg_monoid(),
            ladder=dyadic_ladder(8 + i),
            weierstrass_capable=True,
            regular_order=True,
            co_regular_order=i == 0,
        )
        for i in range(2)
    ]
    product = product_space(factors, "coordinatewise")
    g = gauge_space(factors, samples=[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    assert g.point_descr == "gauge(plane; 2 factors)" and g.kind is SpaceKind.DISTANCE
    x, y = (0.0, 1.0), (2.0, 4.0)
    assert g.distance(x, y) == product.distance((x, x), (y, y)) == (2.0, 3.0)
    assert g.monoid.carrier_descr == product.monoid.carrier_descr and g.monoid.elementwise
    assert g.ladder.rungs == product.ladder.rungs and len(g.ladder.rungs) == 8
    flags = ("weierstrass_capable", "regular_order", "co_regular_order")
    assert [getattr(g, f) for f in flags] == [True, True, False]
    assert g.point_eq((0.0, 1.0), (0.0, 1.0)) and not g.point_eq((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="at least one factor"):
        gauge_space([], samples=())


def test_gauge_convergence_matches_plain_metric():
    entry = get_space("gauge{3}")
    rng = random.Random(14)
    for _ in range(50):
        limit = rng.uniform(-2, 2)
        scale = rng.uniform(0.1, 2.0)
        pts = [limit + scale * 2.0 ** -n for n in range(40)]
        gdec = converges_to(entry.space, PointTrace.from_points(entry.space, pts), limit)
        rdec = converges_to(REAL_ABS.space, PointTrace.from_points(REAL_ABS.space, pts), limit)
        assert gdec is rdec is Decision.NULL
        off = limit + 1.0
        gbad = converges_to(entry.space, PointTrace.from_points(entry.space, pts), off)
        rbad = converges_to(REAL_ABS.space, PointTrace.from_points(REAL_ABS.space, pts), off)
        assert gbad is rbad is Decision.NOT_NULL_WITHIN


# ---------------------------------------------------------------------------
# invariants


def test_classical_epsilon_convergence_agreement():
    rng = random.Random(15)
    bottom = REAL_ABS.space.ladder.bottom
    for _ in range(100):
        limit = rng.uniform(-3, 3)
        converging = rng.random() < 0.5
        if converging:
            pts = [limit + rng.uniform(0.5, 2.0) * 2.0 ** -n for n in range(60)]
        else:
            pts = [limit + rng.uniform(0.2, 1.0) for _ in range(60)]
        dec = converges_to(REAL_ABS.space, PointTrace.from_points(REAL_ABS.space, pts), limit)
        # classical oracle with the bottom rung as epsilon
        classical = any(
            all(abs(p - limit) < bottom for p in pts[n:]) and n < len(pts)
            for n in range(len(pts))
        )
        assert (dec is Decision.NULL) == classical


def test_hausdorff_uniqueness_at_trace_scale():
    rng = random.Random(16)
    space = REAL_ABS.space
    bottom = space.ladder.bottom
    for _ in range(50):
        a = rng.uniform(-2, 2)
        pts = [a + 2.0 ** -n for n in range(60)]
        trace = PointTrace.from_points(space, pts)
        b = a + bottom / 4
        if converges_to(space, trace, a) is Decision.NULL and (
            converges_to(space, trace, b) is Decision.NULL
        ):
            assert space.distance(a, b) < bottom


def test_exhaustive_triangle_implies_strong_fw_not_falsified():
    # triangle on the whole finite carrier, so the strong chain property
    # cannot be falsified from within it
    entry = get_space("uniform_pseudometric{8}")
    assert check_triangle(
        entry.space, itertools.product(entry.finite_carrier, repeat=3)
    ).ok
    cex = falsify_frechet_wilson(
        entry.space, "strong", entry.fw_sampler("strong"), trials=3000, seed=17
    )
    assert cex is None


def test_fw_weak_falsifier_detects_synthetic_violation():
    # synthetic space: a_n meets b_n and b_n meets z quadratically fast, yet
    # a_n stays one unit away from z
    def dist(x, y):
        if x == y:
            return 0.0
        pair = {x[0], y[0]}
        if pair == {"a", "b"} and x[1] == y[1]:
            return 1.0 / x[1] ** 2
        if pair == {"b", "z"}:
            n = x[1] if x[0] == "b" else y[1]
            return 1.0 / n**2
        return 1.0

    space = DistanceSpaceSpec(
        point_descr="weak chain-condition violator",
        distance=dist,
        kind=SpaceKind.DISTANCE,
        monoid=real_nonneg_monoid(),
        ladder=dyadic_ladder(4),
    )

    def sampler(rng):
        n = 64
        return (
            [("a", k) for k in range(1, n + 1)],
            [("b", k) for k in range(1, n + 1)],
            ("z", 0),
        )

    cex = falsify_frechet_wilson(space, "weak", sampler, trials=5, seed=18)
    assert cex is not None
    assert cex.kind == "fw-weak"

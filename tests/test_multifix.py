"""Profile lifts, the mixed order, and coupled fixed points."""
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from monofix import (
    LambdaSequence,
    ProfilePoint,
    SigmaSpec,
    SolveStatus,
    coupled_fixed_point,
    coupled_sigma,
    p_order_leq,
    sigma_lift,
    solve_multiple_fixed_point,
)
from monofix import engine
from monofix.catalog import get_space
from monofix.engine import _geometric_witness, lambda_product_trace
from monofix.monoid import MTrace, cauchy_series_window_report
from monofix.multifix import profile_space
from monofix.reporting import Decision

SPACE = get_space("real_abs").space
BOTTOM = SPACE.ladder.bottom


def test_sigma_lift_coupled_unfolds_both_coordinates():
    s = coupled_sigma()
    f = lambda view: 10.0 * view(1) + view(2)
    lifted = sigma_lift(s, f)
    out = lifted(ProfilePoint(values=(1.0, 2.0)))
    # direct unfolding: coordinate 1 sees (x1, x2), coordinate 2 sees (x2, x1)
    assert out.values == (10.0 * 1 + 2, 10.0 * 2 + 1)


def test_sigma_lift_identity_reindex_gives_constant_profile():
    s = SigmaSpec(index_set=(1, 2, 3), sigma=lambda a, b: b, polarity=lambda a: 0)
    f = lambda view: view(1) + view(2) + view(3)
    lifted = sigma_lift(s, f)
    out = lifted(ProfilePoint(values=(1.0, 2.0, 4.0)))
    assert out.values == (7.0, 7.0, 7.0)


def test_sigma_lift_single_index_is_ordinary_selfmap():
    s = SigmaSpec(index_set=("only",), sigma=lambda a, b: b, polarity=lambda a: 0)
    f = lambda view: view("only") / 2 + 1
    lifted = sigma_lift(s, f)
    out = lifted(ProfilePoint(values=(4.0,)))
    assert out.values == (3.0,)


def test_sigma_lift_matches_definition_exhaustively():
    idx = (0, 1, 2)
    ys = (0.0, 1.0, 2.0)
    rng = random.Random(3)
    for _ in range(30):
        table = {(a, b): rng.choice(idx) for a in idx for b in idx}
        s = SigmaSpec(index_set=idx, sigma=lambda a, b, t=table: t[(a, b)], polarity=lambda a: 0)
        f = lambda view: view(0) + 10 * view(1) + 100 * view(2)
        lifted = sigma_lift(s, f)
        x = ProfilePoint(values=tuple(rng.choice(ys) for _ in idx))
        out = lifted(x)
        for i, alpha in enumerate(idx):
            expected = f(lambda beta: x.values[idx.index(table[(alpha, beta)])])
            assert out.values[i] == expected


def test_p_order_mixed_example():
    s = coupled_sigma()
    leq = lambda a, b: a <= b
    assert p_order_leq(s, ProfilePoint((1.0, 5.0)), ProfilePoint((2.0, 3.0)), leq)
    assert not p_order_leq(s, ProfilePoint((2.0, 3.0)), ProfilePoint((1.0, 5.0)), leq)


def test_p_order_all_zero_polarity_is_product_order():
    s = SigmaSpec(index_set=(1, 2), sigma=lambda a, b: b, polarity=lambda a: 0)
    leq = lambda a, b: a <= b
    assert p_order_leq(s, ProfilePoint((1.0, 2.0)), ProfilePoint((1.5, 2.5)), leq)
    assert not p_order_leq(s, ProfilePoint((1.0, 3.0)), ProfilePoint((1.5, 2.5)), leq)


def test_p_order_is_partial_order():
    s = coupled_sigma()
    leq = lambda a, b: a <= b
    rng = random.Random(4)
    profiles = [
        ProfilePoint((rng.choice([0.0, 1.0, 2.0]), rng.choice([0.0, 1.0, 2.0])))
        for _ in range(40)
    ]
    for x in profiles:
        assert p_order_leq(s, x, x, leq)
    for x, y in itertools.combinations(profiles, 2):
        if p_order_leq(s, x, y, leq) and p_order_leq(s, y, x, leq):
            assert x.values == y.values
    for x, y, z in itertools.islice(itertools.permutations(profiles, 3), 500):
        if p_order_leq(s, x, y, leq) and p_order_leq(s, y, z, leq):
            assert p_order_leq(s, x, z, leq)


def _coupled_lam(lu: float, lv: float) -> LambdaSequence:
    return LambdaSequence.constant(
        lambda d: (lu * d[0] + lv * d[1], lu * d[1] + lv * d[0])
    )


def test_coupled_linear_certifies_against_linear_system_oracle():
    # oracle: solve the 2x2 system u = 0.3u - 0.2v + 1, v = 0.3v - 0.2u + 1
    a = np.array([[1 - 0.3, 0.2], [0.2, 1 - 0.3]])
    b = np.array([1.0, 1.0])
    expected = np.linalg.solve(a, b)
    assert np.allclose(expected, [10.0 / 9.0, 10.0 / 9.0])

    rep = coupled_fixed_point(
        SPACE,
        lambda u, v: 0.3 * u - 0.2 * v + 1.0,
        -10.0,
        10.0,
        _coupled_lam(0.3, 0.2),
        budget=400,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert abs(rep.fixed_point.values[0] - expected[0]) < 1e-6
    assert abs(rep.fixed_point.values[1] - expected[1]) < 1e-6


def test_coupled_takes_the_seed_step_once():
    # two calls of f per profile step: the seed check's f(x0) is handed to
    # the sequential machinery, which takes it as the orbit's first step
    calls = []

    def f(u, v):
        calls.append((u, v))
        return 0.3 * u - 0.2 * v + 1.0

    rep = coupled_fixed_point(SPACE, f, -10.0, 10.0, _coupled_lam(0.3, 0.2), budget=400)
    assert rep.status is SolveStatus.CERTIFIED
    assert len(calls) == 2 * 27 == 2 * (rep.iterations + 1)
    assert calls.count((-10.0, 10.0)) == 1


def test_coupled_constant_map_fixes_in_one_step():
    rep = coupled_fixed_point(
        SPACE, lambda u, v: 1.25, 0.0, 5.0, _coupled_lam(0.0, 0.0), budget=50
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert rep.fixed_point.values == (1.25, 1.25)
    assert rep.iterations <= 2


def test_coupled_projection_fixes_symmetric_seed():
    rep = coupled_fixed_point(
        SPACE, lambda u, v: u, 3.0, 3.0, _coupled_lam(1.0, 0.0), budget=50
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert rep.fixed_point.values == (3.0, 3.0)
    assert rep.iterations == 0


def test_multiple_fixed_point_requires_regularity_flags():
    import dataclasses

    irregular = dataclasses.replace(SPACE, co_regular_order=False)
    s = coupled_sigma()
    with pytest.raises(ValueError):
        solve_multiple_fixed_point(
            irregular,
            s,
            lambda view: view(1),
            ProfilePoint((0.0, 0.0)),
            _coupled_lam(0.5, 0.0),
            budget=10,
        )


def test_fixed_profile_satisfies_coordinate_equations():
    s = coupled_sigma()
    g = lambda u, v: 0.3 * u - 0.2 * v + 1.0
    f = lambda view: g(view(1), view(2))
    rep = solve_multiple_fixed_point(
        SPACE, s, f, ProfilePoint((-10.0, 10.0)), _coupled_lam(0.3, 0.2), budget=400
    )
    assert rep.status is SolveStatus.CERTIFIED
    x = rep.fixed_point
    for i, alpha in enumerate(s.index_set):
        direct = f(lambda beta: x.values[s.index_set.index(s.sigma(alpha, beta))])
        assert abs(x.values[i] - direct) < BOTTOM


def test_spec_example_seed_fails_seed_inequality():
    # the mixed-order seed condition rejects (0, 10): its image (-1, 4) is
    # not above it in the mixed order
    g = lambda u, v: 0.3 * u - 0.2 * v + 1.0
    assert g(0.0, 10.0) == -1.0
    rep = coupled_fixed_point(
        SPACE, g, 0.0, 10.0, _coupled_lam(0.3, 0.2), budget=50
    )
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.condition == "seed_order"


def test_sigma_lift_exhaustive_two_indices():
    idx = (0, 1)
    ys = (0.0, 1.0, 2.0)
    f = lambda view: view(0) + 10 * view(1)
    for t00 in idx:
        for t01 in idx:
            for t10 in idx:
                for t11 in idx:
                    table = {(0, 0): t00, (0, 1): t01, (1, 0): t10, (1, 1): t11}
                    s = SigmaSpec(
                        index_set=idx,
                        sigma=lambda a, b, t=table: t[(a, b)],
                        polarity=lambda a: 0,
                    )
                    lifted = sigma_lift(s, f)
                    for v0 in ys:
                        for v1 in ys:
                            x = ProfilePoint((v0, v1))
                            out = lifted(x)
                            for i, alpha in enumerate(idx):
                                expected = f(lambda beta: x.values[table[(alpha, beta)]])
                                assert out.values[i] == expected


# ---------------------------------------------------------------------------
# non-finite coordinates end the solve as a violation


@pytest.mark.parametrize(
    "f",
    [
        lambda u, v: u / (v - v),
        lambda u, v: u**1000.0,
        lambda u, v: math.inf,
        lambda u, v: math.nan,
    ],
    ids=["zero-division", "overflow", "inf", "nan"],
)
def test_non_finite_seed_step_is_a_violation(f):
    rep = coupled_fixed_point(SPACE, f, -10.0, 10.0, _coupled_lam(0.3, 0.2), budget=50)
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert (rep.violation.step, rep.violation.condition) == (0, "non_finite_iterate")
    assert rep.trace.flags == ("violated:non_finite_iterate",)


def test_non_finite_orbit_step_is_a_violation():
    # the criterion-8 map, until both coordinates pass 0.5 on the way to 10/9
    def f(u, v):
        return 0.3 * u - 0.2 * v + 1.0 + (math.inf if u > 0.5 and v > 0.5 else 0.0)

    rep = coupled_fixed_point(SPACE, f, -10.0, 10.0, _coupled_lam(0.3, 0.2), budget=50)
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.condition == "non_finite_iterate"
    assert rep.violation.step > 0
    assert all(math.isfinite(v) for p in rep.trace.points[:-1] for v in p.values)


# ---------------------------------------------------------------------------
# the composed-product series of a coupled solve, from its geometric tail

COUPLED = profile_space(SPACE, coupled_sigma())
RUNG = COUPLED.ladder.bottom[0]
EPS = float(np.finfo(float).eps)
COEFFICIENTS = (0.0, 0.1, 0.3, 0.45, 0.5, 0.7)
CRITERION_8_D0 = (6.0, 4.0)  # d(x0, f(x0)) of criterion 8
PERRON_D0 = (20.0, 20.0)  # on the eigenvector of lu + lv: the quotient is lu + lv


def _matrix_lam(lu: float, lv: float) -> LambdaSequence:
    return replace(_coupled_lam(lu, lv), matrix=np.array([[lu, lv], [lv, lu]]))


def _literal(elements: tuple, budget: int) -> tuple:
    """The decision, witness and window of the window check on the first
    2*budget terms."""
    trace = MTrace(elements[: 2 * budget], budget)
    return cauchy_series_window_report(trace, COUPLED.ladder, COUPLED.monoid)


def _seeds(lam: LambdaSequence) -> list:
    """Criterion 8's d0, PERRON_D0 and, for a contraction, d0s whose literal
    sum from start 5 lies a few ulps from the rung or inside the eq band."""
    seeds = [CRITERION_8_D0, PERRON_D0]
    if lam.matrix.sum(axis=1).max() < 1.0:
        for base in ((1.0, 1.0), (1.0, 0.25)):
            unit = lambda_product_trace(lam, base, 800).elements
            scale = RUNG / sum(term[0] for term in unit[4:]) if unit[4][0] else 0.0
            for factor in (1 - 3 * EPS, 1 - EPS, 1.0, 1 + EPS, 1 + 3 * EPS, 1 - 5e-7, 1 + 5e-7):
                seeds.append((base[0] * scale * factor, base[1] * scale * factor))
    return seeds


@pytest.mark.parametrize("lu, lv", list(itertools.product(COEFFICIENTS, repeat=2)))
def test_geometric_witness_on_tuples_is_the_literal_one(lu, lv):
    lam = _matrix_lam(lu, lv)
    for d0 in _seeds(lam):
        elements = lambda_product_trace(lam, d0, 800).elements
        _, n, _ = _literal(elements, 400)
        for budget in sorted({1, 400, *([n - 1, n] if n else [])} - {0}):
            found = _geometric_witness(lam, d0, COUPLED.ladder, COUPLED.monoid, budget)
            assert found[:3] == _literal(elements, budget), (d0, budget)
            if d0 == PERRON_D0 and lu + lv < 1.0 and budget == 400:
                assert found[3] is not None
            if found[3] is None:
                continue
            # the proven bound on the series from every start up to term K
            # dominates the literal suffix sum of 2*budget terms
            k, tail = found[3]
            literal = np.array(elements[: 2 * budget])
            suffixes = np.vstack([np.cumsum(literal[::-1], axis=0)[::-1], np.zeros(2)])
            bound = tail.copy()
            assert np.all(bound >= suffixes[k]), (d0, budget)
            for start in range(k, 0, -1):
                bound += literal[start - 1]
                assert np.all(bound >= suffixes[start - 1]), (d0, budget, start)


def test_geometric_witness_on_tuples_falls_back():
    ladder, spec = COUPLED.ladder, COUPLED.monoid
    for lu, lv in ((0.5, 0.5), (0.7, 0.3), (0.7, 0.7)):  # lu + lv >= 1
        lam = _matrix_lam(lu, lv)
        found = _geometric_witness(lam, CRITERION_8_D0, ladder, spec, 400)
        assert found[3] is None
        assert found[:3] == _literal(lambda_product_trace(lam, CRITERION_8_D0, 800).elements, 400)
    # a term that is not finite ends the check there
    for d0 in ((math.nan, 4.0), (6.0, math.nan)):
        decision, witness, (n0, n1, term), settled = _geometric_witness(_matrix_lam(0.3, 0.2), d0, ladder, spec, 400)
        assert (decision, witness, n0, n1, settled) == (Decision.NOT_NULL_WITHIN, None, 1, 1, None)
        assert all(map(math.isnan, term))


def _counting_series(monkeypatch) -> dict:
    """Count the literal traces and the operator applications of the tail decision."""
    seen = dict(literal=0, applied=0, terms=None)
    literal, geometric = engine.lambda_product_trace, engine._geometric_witness

    def counted_literal(*args, **kwargs):
        seen["literal"] += 1
        return literal(*args, **kwargs)

    def counted_geometric(lam, *args):
        def op_at(n):
            def apply(v):
                seen["applied"] += 1
                return lam.op_at(n)(v)

            return apply

        found = geometric(replace(lam, op_at=op_at), *args)
        seen["terms"] = found[3] and found[3][0]
        return found

    monkeypatch.setattr(engine, "lambda_product_trace", counted_literal)
    monkeypatch.setattr(engine, "_geometric_witness", counted_geometric)
    return seen


def test_criterion_8_decides_its_series_from_the_tail(monkeypatch):
    seen = _counting_series(monkeypatch)
    f = lambda u, v: 0.3 * u - 0.2 * v + 1.0
    rep = coupled_fixed_point(SPACE, f, -10.0, 10.0, _matrix_lam(0.3, 0.2), budget=400)
    assert rep.status is SolveStatus.CERTIFIED
    assert "composed-product series is Cauchy within budget (witness N=24)" in rep.diagnostics
    assert seen["literal"] == 0
    assert seen["applied"] <= seen["terms"] + 1
    plain = coupled_fixed_point(SPACE, f, -10.0, 10.0, _coupled_lam(0.3, 0.2), budget=400)
    assert seen["literal"] == 1
    assert (plain.fixed_point, plain.diagnostics) == (rep.fixed_point, rep.diagnostics)


def test_tail_decision_needs_a_monoid_that_adds_entries(monkeypatch):
    # a matrix-marked lam over a carrier whose combine is max (an ultrametric
    # monoid on the nonnegative reals) must take the literal window check
    seen = _counting_series(monkeypatch)
    called = []
    geometric = engine._geometric_witness
    monkeypatch.setattr(engine, "_geometric_witness", lambda *a: called.append(1) or geometric(*a))
    ultra = replace(SPACE, monoid=replace(SPACE.monoid, combine=max))
    f = lambda u, v: 0.3 * u - 0.2 * v + 1.0
    coupled_fixed_point(ultra, f, -10.0, 10.0, _matrix_lam(0.3, 0.2), budget=400)
    assert (called, seen["literal"]) == ([], 1)
    coupled_fixed_point(SPACE, f, -10.0, 10.0, _matrix_lam(0.3, 0.2), budget=400)
    assert (called, seen["literal"]) == ([1], 1)

"""Iteration drivers: hypothesis audits, certification, and lambda products."""
import math
from dataclasses import replace

import pytest

from monofix import (
    CaristiData,
    Decision,
    LambdaSequence,
    MapSpec,
    MeirKeelerData,
    SolveStatus,
    cauchy_series_check,
    dyadic_ladder,
    is_null_trace,
    lambda_product_trace,
    next_rung_choice,
    picard_iterate,
    solve_caristi,
    solve_meir_keeler,
    solve_monotone,
    solve_parametrized,
    solve_sequential,
    solve_with_driver,
    verify_fixed_point,
)
from monofix import engine
from monofix.catalog import default_sample_pairs, get_map, get_space, real_nonneg_monoid
from monofix.engine import CLI_DRIVER_NAMES

SPACE = get_space("real_abs").space
HALVING = get_map("halving")
BOTTOM = SPACE.ladder.bottom


def test_picard_affine_matches_closed_form():
    f = MapSpec(apply=lambda x: x / 2 + 1)
    trace = picard_iterate(SPACE, f, 0.0, budget=50)
    # closed form oracle: x_n = 2 (1 - 2^-n), exact in dyadic floats
    for n, p in enumerate(trace.points):
        assert p == 2.0 * (1.0 - 2.0 ** -n)
    assert abs(trace.points[-1] - 2.0) < 1e-5


def test_picard_identity_stops_immediately():
    f = MapSpec(apply=lambda x: x)
    trace = picard_iterate(SPACE, f, 3.0, budget=50)
    assert trace.points == (3.0, 3.0)
    assert trace.consec.elements == (0.0,)
    assert trace.stopped_early


def test_picard_divergent_uses_full_budget():
    f = MapSpec(apply=lambda x: x + 1)
    trace = picard_iterate(SPACE, f, 0.0, budget=10)
    assert len(trace.points) == 11
    assert not trace.stopped_early


def test_picard_records_the_violated_condition():
    f = MapSpec(apply=lambda x: x / 2 + 1)
    trace = picard_iterate(
        SPACE, f, 0.0, budget=50, step_check=lambda k, cur, nxt, d: "too_far" if k == 2 else None
    )
    assert trace.violated == "too_far"
    assert trace.flags == ("ok", "ok", "violated:too_far")
    assert len(trace.points) == 4 and trace.stopped_early
    assert picard_iterate(SPACE, f, 0.0, budget=50).violated is None


def test_verify_fixed_point():
    f = MapSpec(apply=lambda x: x / 2 + 1)
    residual, below = verify_fixed_point(SPACE, f, 2.0)
    assert residual == 0.0 and below
    residual, below = verify_fixed_point(SPACE, f, 2.1)
    assert abs(residual - 0.05) < 1e-12
    assert below == (residual < BOTTOM)


def test_verify_fixed_point_dislocated_residual_reported_honestly():
    entry = get_space("dislocated_max")
    f = MapSpec(apply=lambda x: x)
    residual, below = verify_fixed_point(entry.space, f, 2.0)
    # self-distance is the point itself; the flag must report it honestly
    assert residual == 2.0 and not below


# ---------------------------------------------------------------------------
# Meir-Keeler


def test_meir_keeler_halving_certifies():
    rep = solve_meir_keeler(
        SPACE,
        MapSpec(apply=HALVING.fn),
        HALVING.meir_keeler,
        8.0,
        list(HALVING.sample_pairs),
        budget=200,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert abs(rep.fixed_point) < BOTTOM
    assert rep.residual_below_rung


def test_meir_keeler_expansion_violates():
    entry = get_map("increment")
    rep = solve_meir_keeler(
        SPACE,
        MapSpec(apply=entry.fn),
        entry.meir_keeler,
        0.0,
        list(entry.sample_pairs),
        budget=50,
    )
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.condition == "epsilon_delta_contraction"


def test_meir_keeler_identity_violates_on_rung_sized_pair():
    entry = get_map("identity")
    # the sample pairs include (0, rung) for every rung; identity keeps the
    # distance at the rung, never strictly below it
    rep = solve_meir_keeler(
        SPACE,
        MapSpec(apply=entry.fn),
        entry.meir_keeler,
        5.0,
        list(entry.sample_pairs),
        budget=50,
    )
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED


def test_meir_keeler_rejects_non_dominating_zeta():
    bad = MeirKeelerData(
        delta_of=next_rung_choice(SPACE.ladder), zeta=lambda a, b: min(a, b) / 2
    )
    with pytest.raises(ValueError):
        solve_meir_keeler(SPACE, MapSpec(apply=HALVING.fn), bad, 1.0, [(0.0, 1.0)], 10)


def test_meir_keeler_non_expansiveness_of_certified_map():
    # certified maps shrink every sampled pair below each rung it starts under
    import random

    rng = random.Random(21)
    for eps in SPACE.ladder.rungs:
        for _ in range(50):
            x = rng.uniform(-2, 2)
            y = x + rng.uniform(-1, 1) * eps
            if SPACE.monoid.strictly_below(SPACE.distance(x, y), eps):
                fx, fy = HALVING.fn(x), HALVING.fn(y)
                assert SPACE.monoid.strictly_below(SPACE.distance(fx, fy), eps)


def test_meir_keeler_midpoint_oracle_diagnostics():
    rep = solve_meir_keeler(
        SPACE,
        MapSpec(apply=HALVING.fn),
        HALVING.meir_keeler,
        8.0,
        list(HALVING.sample_pairs),
        budget=200,
        midpoint_oracle=lambda x, y, a, b: (x + y) / 2,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert any("midpoint" in d for d in rep.diagnostics)


# pairs at k quarters of the bottom rung, k = 1..8: distances below 1, 2 and 3
# bottom rungs, and seven of them strictly below bottom + bottom
QUARTER_PAIRS = [(0.0, k * BOTTOM / 4) for k in range(1, 9)]


@pytest.mark.parametrize(
    "oracle, note",
    [
        (lambda x, y, a, b: (x + y) / 2, "midpoint condition sampled: 7 ok, 0 failing"),
        (lambda x, y, a, b: None, "midpoint condition sampled: 0 ok, 7 failing"),
    ],
)
def test_meir_keeler_uniqueness_notes_on_quarter_pairs(oracle, note):
    rep = solve_meir_keeler(
        SPACE, MapSpec(apply=HALVING.fn), HALVING.meir_keeler, 8.0, QUARTER_PAIRS, 200, oracle
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert rep.diagnostics[1:] == (
        "rung-addition reachability holds on sampled pairs (max multiple 3)",
        note,
    )


# ---------------------------------------------------------------------------
# Caristi


def test_caristi_halving_certifies():
    rep = solve_caristi(SPACE, MapSpec(apply=HALVING.fn), HALVING.caristi, 8.0, 200)
    assert rep.status is SolveStatus.CERTIFIED
    assert abs(rep.fixed_point) < BOTTOM
    # oracle at any x > 0: x/2 + 2 (x/2) = 3x/2 <= 2x
    assert 1.5 * 8.0 <= 2 * 8.0


def test_caristi_weak_potential_violates_at_step_zero():
    weak = CaristiData(potential=lambda x: abs(x) / 4, eta=lambda a: a)
    # oracle at x0 = 1: 1/2 + 1/8 > 1/4
    assert 0.5 + 0.125 > 0.25
    rep = solve_caristi(SPACE, MapSpec(apply=HALVING.fn), weak, 1.0, 50)
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.step == 0
    assert rep.violation.condition == "potential_descent"


def test_caristi_fixed_seed_certifies_in_zero_iterations():
    rep = solve_caristi(SPACE, MapSpec(apply=HALVING.fn), HALVING.caristi, 0.0, 50)
    assert rep.status is SolveStatus.CERTIFIED
    assert rep.iterations == 0
    assert rep.residual == 0.0


def test_caristi_requires_weierstrass_capability():
    entry = get_space("uniform_pseudometric{8}")
    cd = CaristiData(potential=lambda x: entry.space.monoid.identity, eta=lambda a: a)
    with pytest.raises(ValueError):
        solve_caristi(entry.space, MapSpec(apply=lambda x: x), cd, 0, 10)


# ---------------------------------------------------------------------------
# sequential


def test_sequential_geometric_series_certifies():
    rep = solve_sequential(SPACE, MapSpec(apply=HALVING.fn), HALVING.lam, 8.0, "series", 200)
    assert rep.status is SolveStatus.CERTIFIED
    assert abs(rep.fixed_point) < BOTTOM


def test_order_check_evaluates_a_shared_operator_once(monkeypatch):
    calls = []

    def op(t):
        calls.append(t)
        return 0.5 * t

    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(engine, "lambda_product_trace", stop)
    shared = LambdaSequence.constant(op)
    distinct = LambdaSequence(op_at=lambda n: (lambda t: op(t)), commuting=True)
    # four ordered pairs, two applications each, per distinct operator
    for lam, applied in ((shared, 8), (distinct, 24)):
        calls.clear()
        with pytest.raises(Stop):
            solve_sequential(SPACE, MapSpec(apply=HALVING.fn), lam, 8.0, "series", 200)
        assert len(calls) == applied


@pytest.mark.parametrize("mode", ["series", "orbit_bounded"])
def test_sequential_applies_the_map_to_x0_once(mode):
    # the d0 step is the first step of every orbit from x0: taken once, it
    # leaves one application per step and one for the residual
    seen = []

    def halve(x):
        seen.append(x)
        return HALVING.fn(x)

    rep = solve_sequential(SPACE, MapSpec(apply=halve), HALVING.lam, 8.0, mode, 200)
    assert rep.status is SolveStatus.CERTIFIED
    assert seen.count(8.0) == 1
    if mode == "series":
        assert len(seen) == rep.iterations + 1


def test_sequential_orbit_bounded_certifies():
    rep = solve_sequential(
        SPACE, MapSpec(apply=HALVING.fn), HALVING.lam, 8.0, "orbit_bounded", 200
    )
    assert rep.status is SolveStatus.CERTIFIED


def test_sequential_quadratic_rate_passes_series_mode():
    import dataclasses

    coarse = dataclasses.replace(SPACE, ladder=dyadic_ladder(4))
    lam = LambdaSequence(
        op_at=lambda n: (lambda t, n=n: (n / (n + 1)) ** 2 * t), commuting=True
    )

    def f(x):
        # orbit from 1 is 1/(n+1)^2, whose consecutive gaps shrink at least
        # as fast as the quadratic rate sequence
        return x / (1.0 + math.sqrt(x)) ** 2

    orbit = [1.0]
    for _ in range(6):
        orbit.append(f(orbit[-1]))
    for n, v in enumerate(orbit):
        assert abs(v - 1.0 / (n + 1) ** 2) < 1e-9

    rep = solve_sequential(coarse, MapSpec(apply=f), lam, 1.0, "series", 400)
    assert rep.status is SolveStatus.CERTIFIED


def test_sequential_linear_rate_fails_series_mode_within_budget():
    lam = LambdaSequence(
        op_at=lambda n: (lambda t, n=n: (n / (n + 1)) * t), commuting=True
    )
    rep = solve_sequential(SPACE, MapSpec(apply=HALVING.fn), lam, 8.0, "series", 2000)
    assert rep.status is SolveStatus.BUDGET_EXHAUSTED
    assert any("window" in d for d in rep.diagnostics)


def test_sequential_contraction_step_violation():
    lam = LambdaSequence.constant(lambda t: t / 4)  # claims a faster rate than x/2 delivers
    rep = solve_sequential(SPACE, MapSpec(apply=HALVING.fn), lam, 8.0, "series", 100)
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.condition == "graduated_contraction"
    assert rep.violation.witness == "d(x_1, x_2)=2.0 escapes the step operator bound"


@pytest.mark.parametrize(
    "condition, witness",
    [("non_finite_iterate", "x_3=inf is not finite"), ("own_check", "d(x_2, x_3)=inf")],
)
def test_sequential_step_witness_follows_the_condition(condition, witness):
    # the orbit 8, 4, 2, inf: halving until it falls below 3; a condition
    # of the caller's own is witnessed by the step's distance
    f = MapSpec(apply=lambda x: x / 2.0 if x >= 3.0 else math.inf)
    check = lambda _k, _cur, nxt: None if math.isfinite(nxt) else condition
    rep = solve_sequential(SPACE, f, HALVING.lam, 8.0, "series", 100, extra_step_check=check)
    assert (rep.violation.step, rep.violation.condition) == (2, condition)
    assert rep.violation.witness == witness


@pytest.mark.parametrize("driver", ["sequential", "monotone", "caristi"])
def test_each_step_is_checked_and_measured_once(driver):
    # halving takes 26 steps: one distance per step, the seed step's
    # measured by the driver, and one for the residual
    calls, seed_checks = [], []
    counted = replace(SPACE, distance=lambda x, y: calls.append((x, y)) or SPACE.distance(x, y))
    f = MapSpec(apply=HALVING.fn, order_leq=lambda a, b: a <= b)
    x0 = HALVING.x0_for(driver)
    if driver == "caristi":
        rep = solve_caristi(counted, f, HALVING.caristi, x0, 200)
    else:
        check = lambda k, _cur, _nxt: seed_checks.append(k) if k == 0 else None
        solve = solve_sequential if driver == "sequential" else solve_monotone
        rep = solve(counted, f, HALVING.lam, x0, "series", 200, extra_step_check=check)
        assert seed_checks == [0]
    assert (rep.status, rep.iterations) == (SolveStatus.CERTIFIED, 26)
    assert len(calls) == 27 and len(set(calls)) == 27


def test_each_hypothesis_quantity_is_evaluated_once(monkeypatch):
    # Meir-Keeler on halving: one d(x, y) and one d(f(x), f(y)) per sampled
    # pair (every pair meets some rung's premise), the multiples 2..64 of the
    # bottom rung composed once, and one distance and application per orbit
    # step; the zeta precheck measures on the uncounted space
    calls, applied, combined = [], [], []
    counted = replace(
        SPACE,
        distance=lambda x, y: calls.append((x, y)) or SPACE.distance(x, y),
        monoid=replace(SPACE.monoid, combine=lambda a, b: combined.append(a) or a + b),
    )
    f = MapSpec(apply=lambda x: applied.append(x) or HALVING.fn(x), order_leq=lambda a, b: a <= b)
    precheck = engine.check_zeta_triangle
    monkeypatch.setattr(engine, "check_zeta_triangle", lambda _s, z, t: precheck(SPACE, z, t))
    pairs = list(HALVING.sample_pairs)
    rep = solve_meir_keeler(counted, f, HALVING.meir_keeler, 8.0, pairs, 200, lambda x, y, a, b: (x + y) / 2)
    assert rep.status is SolveStatus.CERTIFIED
    pts = rep.trace.points
    images = [(HALVING.fn(x), HALVING.fn(y)) for x, y in pairs]
    assert sorted(calls) == sorted(pairs + images + list(zip(pts, pts[1:] + (HALVING.fn(pts[-1]),))))
    assert sorted(applied) == sorted([p for pair in pairs for p in pair] + list(pts))
    assert len(combined) == 63
    # Caristi: one potential per orbit point; monotone: one order check per step
    potentials, orders = [], []
    cd = replace(HALVING.caristi, potential=lambda x: potentials.append(x) or HALVING.caristi.potential(x))
    rep = solve_caristi(SPACE, MapSpec(apply=HALVING.fn), cd, 8.0, 200)
    assert rep.iterations == 26 and potentials == list(rep.trace.points)
    f = MapSpec(apply=HALVING.fn, order_leq=lambda a, b: orders.append((a, b)) or a <= b)
    rep = solve_monotone(SPACE, f, HALVING.lam, -8.0, "series", 200)
    assert rep.iterations == 26 and orders == list(zip(rep.trace.points, rep.trace.points[1:]))


def test_sequential_unbounded_orbit_violates():
    lam = LambdaSequence.constant(lambda t: t / 2)
    rep = solve_sequential(SPACE, MapSpec(apply=lambda x: x + 1), lam, 0.0, "orbit_bounded", 60)
    # the probe orbit grows linearly; a bound exists in the reals, so the
    # product-at-bound check is what rejects it
    assert rep.status in (SolveStatus.BUDGET_EXHAUSTED, SolveStatus.HYPOTHESIS_VIOLATED)


def test_sequential_second_seed_uniqueness_diagnostics():
    rep = solve_sequential(
        SPACE, MapSpec(apply=HALVING.fn), HALVING.lam, 8.0, "series", 200, second_seed=-3.0
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert any("second-seed" in d for d in rep.diagnostics)


# ---------------------------------------------------------------------------
# monotone


def test_monotone_affine_certifies():
    entry = get_map("affine_to_two")
    rep = solve_monotone(
        SPACE,
        MapSpec(apply=entry.fn, order_leq=lambda a, b: a <= b),
        entry.lam,
        0.0,
        "series",
        200,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert abs(rep.fixed_point - 2.0) < BOTTOM
    assert any("totally ordered" in d for d in rep.diagnostics)


def test_monotone_applies_the_map_to_x0_once():
    entry = get_map("affine_to_two")
    seen = []

    def step(x):
        seen.append(x)
        return entry.fn(x)

    rep = solve_monotone(SPACE, MapSpec(apply=step, order_leq=lambda a, b: a <= b), entry.lam, 0.0, "series", 200)
    assert rep.status is SolveStatus.CERTIFIED
    assert seen.count(0.0) == 1
    assert len(seen) == rep.iterations + 1


def test_monotone_seed_above_fixed_point_violates():
    entry = get_map("affine_to_two")
    # oracle: f(5) = 3.5 < 5
    assert entry.fn(5.0) < 5.0
    rep = solve_monotone(
        SPACE,
        MapSpec(apply=entry.fn, order_leq=lambda a, b: a <= b),
        entry.lam,
        5.0,
        "series",
        200,
    )
    assert rep.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert rep.violation.step == 0
    assert rep.violation.condition == "seed_order"


def test_monotone_chain_violation_names_the_unordered_points():
    # the orbit 0, 1, 0.5: d(x_1, x_2) = 0.5 is within lambda(d0) = 0.5, so
    # only the order fails
    f = MapSpec(apply=lambda x: x + 1.0 if x < 1.0 else 0.5, order_leq=lambda a, b: a <= b)
    rep = solve_monotone(SPACE, f, get_map("affine_to_two").lam, 0.0, "series", 200)
    assert rep.to_text().splitlines()[1] == (
        "violation step=1 condition=chain_monotonicity x_1=1.0 is not below x_2=0.5"
    )


def test_monotone_identity_certifies_trivially():
    entry = get_map("identity")
    rep = solve_monotone(
        SPACE,
        MapSpec(apply=entry.fn, order_leq=lambda a, b: a <= b),
        entry.lam,
        5.0,
        "series",
        50,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert rep.iterations == 0


def test_monotone_requires_order_and_regularity():
    entry = get_map("halving")
    with pytest.raises(ValueError):
        solve_monotone(SPACE, MapSpec(apply=entry.fn), entry.lam, -8.0, "series", 50)
    import dataclasses

    irregular = dataclasses.replace(SPACE, regular_order=False)
    with pytest.raises(ValueError):
        solve_monotone(
            irregular,
            MapSpec(apply=entry.fn, order_leq=lambda a, b: a <= b),
            entry.lam,
            -8.0,
            "series",
            50,
        )


def test_monotone_supremum_uniqueness_diagnostics():
    entry = get_map("halving")
    rep = solve_monotone(
        SPACE,
        MapSpec(apply=entry.fn, order_leq=lambda a, b: a <= b),
        entry.lam,
        -8.0,
        "series",
        200,
        second_seed=4.0,
        point_sup=max,
    )
    assert rep.status is SolveStatus.CERTIFIED
    assert any("supremum-seeded" in d for d in rep.diagnostics)


# ---------------------------------------------------------------------------
# parametrized families


def test_parametrized_affine_family():
    family = lambda omega, x: x / 2 + omega
    result = solve_parametrized(
        family, [0.0, 1.0, 2.0], "sequential", SPACE, 0.0, 200,
        mode="series",
        lam=LambdaSequence.constant(lambda t: t / 2),
        admissible=lambda table: all(
            table[a] <= table[b] for a, b in zip(sorted(table), sorted(table)[1:])
        ),
    )
    # closed form oracle: fixed point is 2 omega
    for omega, rep in result.reports.items():
        assert rep.status is SolveStatus.CERTIFIED
        assert abs(rep.fixed_point - 2 * omega) < BOTTOM
    assert result.admissible is True


def test_parametrized_takes_x0_of_the_parameter():
    # each row starts at its own fixed point 2 omega, so none iterates
    family = lambda omega, x: x / 2 + omega
    lam = LambdaSequence.constant(lambda t: t / 2)
    result = solve_parametrized(family, [0.0, 1.0, 2.0], "sequential", SPACE, lambda omega: 2 * omega, 50, lam=lam)
    for omega, rep in result.reports.items():
        assert (rep.status, rep.fixed_point, rep.iterations) == (SolveStatus.CERTIFIED, 2 * omega, 0)
    assert result.admissible is None and result.diagnostics == ()


def test_parametrized_isolates_failures():
    def family(omega, x):
        return x + 1 if omega == 1 else x / 2

    result = solve_parametrized(
        family, [0, 1, 2], "sequential", SPACE, 4.0, 100,
        mode="series", lam=LambdaSequence.constant(lambda t: t / 2),
    )
    assert result.reports[0].status is SolveStatus.CERTIFIED
    assert result.reports[2].status is SolveStatus.CERTIFIED
    assert result.reports[1].status is not SolveStatus.CERTIFIED


def _scaling_data():
    # x -> omega x with omega <= 1/2 contracts by at least one half and
    # descends along the potential 2|x|; the fixed point is 0 for every omega
    ladder = SPACE.ladder
    return dict(
        lam=LambdaSequence.constant(lambda t: t / 2),
        caristi=CaristiData(potential=lambda x: 2.0 * abs(x), eta=lambda a: a),
        meir_keeler=MeirKeelerData(delta_of=next_rung_choice(ladder), zeta=SPACE.monoid.combine),
        sample_pairs=default_sample_pairs(ladder),
    )


@pytest.mark.parametrize("driver", ["sequential", "caristi", "meir_keeler", "meir-keeler"])
def test_parametrized_each_driver_certifies(driver):
    family = lambda omega, x: omega * x
    result = solve_parametrized(family, [0.25, 0.5], driver, SPACE, 4.0, 200, **_scaling_data())
    for rep in result.reports.values():
        assert rep.status is SolveStatus.CERTIFIED, rep.to_text()
        assert abs(rep.fixed_point) < BOTTOM and rep.iterations > 0


@pytest.mark.parametrize(
    "driver, message",
    [("newton", "unknown driver 'newton'"), ("monotone", "needs a point order")],
)
def test_parametrized_rejects_driver_before_any_row(driver, message):
    calls = []

    def family(omega, x):
        calls.append(omega)
        return x / 2

    with pytest.raises(ValueError, match=message):
        solve_parametrized(family, [0.0, 1.0], driver, SPACE, 4.0, 200, **_scaling_data())
    assert calls == []


@pytest.mark.parametrize(
    "driver, field",
    [("sequential", "lam"), ("caristi", "caristi"), ("meir_keeler", "meir_keeler"), ("monotone", "lam")],
)
def test_driver_without_its_datum_is_rejected_before_solving(driver, field):
    calls = []

    def family(omega, x):
        calls.append(omega)
        return x / 2

    message = f"driver '{driver}' needs {field}"
    f = MapSpec(apply=lambda x: family(None, x), order_leq=lambda a, b: a <= b)
    data = {**_scaling_data(), field: None}
    with pytest.raises(ValueError, match=message):
        solve_with_driver(driver, SPACE, f, 4.0, 200, **data)
    if driver != "monotone":
        with pytest.raises(ValueError, match=message):
            solve_parametrized(family, [0.25, 0.5], driver, SPACE, 4.0, 200, **data)
        del data[field]  # a datum left out is missing as well
        with pytest.raises(ValueError, match=message):
            solve_parametrized(family, [0.25, 0.5], driver, SPACE, 4.0, 200, **data)
    assert calls == []


def test_solve_with_driver_names():
    assert CLI_DRIVER_NAMES == ("meir-keeler", "caristi", "sequential", "monotone")
    f = MapSpec(apply=HALVING.fn, order_leq=lambda a, b: a <= b)
    for driver in CLI_DRIVER_NAMES:
        rep = solve_with_driver(
            driver,
            SPACE,
            f,
            HALVING.x0_for(driver),
            200,
            lam=HALVING.lam,
            caristi=HALVING.caristi,
            meir_keeler=HALVING.meir_keeler,
            sample_pairs=HALVING.sample_pairs,
        )
        assert rep.status is SolveStatus.CERTIFIED and abs(rep.fixed_point) < BOTTOM
    with pytest.raises(ValueError, match="unknown driver 'banach'"):
        solve_with_driver("banach", SPACE, f, 1.0, 10)


# ---------------------------------------------------------------------------
# lambda product traces


def test_lambda_products_constant_half():
    lam = LambdaSequence.constant(lambda t: t / 2)
    trace = lambda_product_trace(lam, 1.0, 6)
    assert trace.elements == (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)


def test_lambda_products_linear_rate_closed_form():
    lam = LambdaSequence(op_at=lambda n: (lambda t, n=n: (n / (n + 1)) * t), commuting=True)
    trace = lambda_product_trace(lam, 1.0, 12)
    for n, v in enumerate(trace.elements, start=1):
        assert abs(v - 1.0 / (n + 1)) < 1e-12


def test_lambda_products_quadratic_rate_closed_form():
    lam = LambdaSequence(
        op_at=lambda n: (lambda t, n=n: (n / (n + 1)) ** 2 * t), commuting=True
    )
    trace = lambda_product_trace(lam, 1.0, 12)
    for n, v in enumerate(trace.elements, start=1):
        assert abs(v - 1.0 / (n + 1) ** 2) < 1e-12


def test_lambda_products_nonchecking_literal_order():
    # non-commuting operators expose the composition order: first operator is
    # applied last
    ops = {1: lambda t: t + 1.0, 2: lambda t: 2.0 * t}
    lam = LambdaSequence(op_at=lambda n: ops[n])
    trace = lambda_product_trace(lam, 3.0, 2)
    # product at n=2 is op1(op2(alpha)) = 2*3 + 1
    assert trace.elements[1] == 7.0
    assert trace.elements[0] == 4.0


def test_lambda_discrimination_between_rates():
    monoid = real_nonneg_monoid()
    ladder = dyadic_ladder(4)
    budget = 10_000
    lam_lin = LambdaSequence(
        op_at=lambda n: (lambda t, n=n: (n / (n + 1)) * t), commuting=True
    )
    lam_sq = LambdaSequence(
        op_at=lambda n: (lambda t, n=n: (n / (n + 1)) ** 2 * t), commuting=True
    )
    t_lin = lambda_product_trace(lam_lin, 1.0, 2 * budget, budget=budget)
    t_sq = lambda_product_trace(lam_sq, 1.0, 2 * budget, budget=budget)
    assert is_null_trace(t_lin, ladder, monoid) is Decision.NULL
    assert cauchy_series_check(t_lin, ladder, monoid) is Decision.NOT_NULL_WITHIN
    assert cauchy_series_check(t_sq, ladder, monoid) is Decision.NULL


# ---------------------------------------------------------------------------
# cross-driver invariants


def test_contraction_rate_sanity_exact_domination():
    c, b = 0.5, 1.0
    f = MapSpec(apply=lambda x: c * x + b)
    trace = picard_iterate(SPACE, f, 0.0, budget=30)
    lam = LambdaSequence.constant(lambda t: c * t)
    d01 = SPACE.distance(trace.points[0], trace.points[1])
    products = lambda_product_trace(lam, d01, len(trace.consec.elements))
    # consec[k] equals the k-th composed product of the rate applied to d01,
    # exactly in dyadic arithmetic
    for k in range(1, len(trace.consec.elements)):
        assert trace.consec.elements[k] == products.elements[k - 1]


def test_driver_agreement_on_halving():
    reports = [
        solve_sequential(SPACE, MapSpec(apply=HALVING.fn), HALVING.lam, 8.0, "series", 200),
        solve_caristi(SPACE, MapSpec(apply=HALVING.fn), HALVING.caristi, 8.0, 200),
        solve_meir_keeler(
            SPACE, MapSpec(apply=HALVING.fn), HALVING.meir_keeler, 8.0,
            list(HALVING.sample_pairs), 200,
        ),
        solve_monotone(
            SPACE, MapSpec(apply=HALVING.fn, order_leq=lambda a, b: a <= b),
            HALVING.lam, -8.0, "series", 200,
        ),
    ]
    for rep in reports:
        assert rep.status is SolveStatus.CERTIFIED
        assert rep.residual_below_rung
    points = [r.fixed_point for r in reports]
    for p in points:
        for q in points:
            assert SPACE.monoid.strictly_below(SPACE.distance(p, q), BOTTOM)


def test_certified_report_reproducible_by_verify():
    rep = solve_sequential(SPACE, MapSpec(apply=HALVING.fn), HALVING.lam, 8.0, "series", 200)
    residual, below = verify_fixed_point(SPACE, MapSpec(apply=HALVING.fn), rep.fixed_point)
    assert below == rep.residual_below_rung
    assert residual == rep.residual


def test_sequential_rejects_non_monotone_operator():
    lam = LambdaSequence.constant(lambda t: 1.0 - t)
    with pytest.raises(ValueError):
        solve_sequential(SPACE, MapSpec(apply=HALVING.fn), lam, 8.0, "series", 50)

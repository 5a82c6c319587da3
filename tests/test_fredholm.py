"""Quadrature grid, iterated kernels, certificates, and the integral solver."""
from dataclasses import replace

import numpy as np
import pytest

from monofix import (
    CertificateNotConvergent,
    CertificateVerdict,
    Grid,
    InvalidKernel,
    KernelSpec,
    SolveStatus,
    certify_convergence,
    grid_ladder,
    iterate_kernel,
    lambda_apply,
    residual,
    solve_fredholm,
)
from monofix import MTrace, fredholm
from monofix._rng import child_rng
from monofix.fredholm import DiscreteKernel, grid_function_monoid, kernel_matrix
from monofix.monoid import cauchy_series_window_report


def constant_kernel(c: float) -> KernelSpec:
    return KernelSpec(
        Q=lambda t, s: c + 0.0 * t * s,
        g=lambda t, s, x: c * x + 0.0 * t * s,
        f=lambda t: 1.0 + 0.0 * t,
    )


TS = KernelSpec(Q=lambda t, s: t * s, g=lambda t, s, x: t * s * x, f=lambda t: t)


def test_grid_trapezoid_weights_sum_to_measure():
    grid = Grid.trapezoid(0.0, 2.0, 21)
    assert abs(float(np.sum(grid.weights)) - 2.0) < 1e-12
    assert np.all(np.diff(grid.nodes) > 0)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.0, 0.0, 1.0]), weights=np.ones(3))
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        Grid.trapezoid(0.0, 1.0, 1)


def test_iterate_kernel_constant_powers():
    grid = Grid.trapezoid(0.0, 1.0, 31)
    q3 = iterate_kernel(constant_kernel(0.7), grid, 3)
    # constants integrate exactly whenever the weights sum to one
    assert np.allclose(q3, 0.7**3, rtol=0, atol=1e-12)


def test_iterate_kernel_product_ts_analytic():
    grid = Grid.trapezoid(0.0, 1.0, 201)
    q2 = iterate_kernel(TS, grid, 2)
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    # analytic oracle: integral of (t u)(u s) du over [0,1] is t s / 3
    assert np.max(np.abs(q2 - t * s / 3.0)) < 1e-4


def test_iterate_kernel_first_is_sampled_kernel():
    grid = Grid.trapezoid(0.0, 1.0, 11)
    q1 = iterate_kernel(TS, grid, 1)
    assert np.allclose(q1, grid.nodes[:, None] * grid.nodes[None, :])


def test_lambda_apply_examples():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    ones = np.ones(len(grid))
    out = lambda_apply(constant_kernel(1.0), grid, ones)
    assert np.allclose(out, 1.0)
    out = lambda_apply(TS, grid, grid.nodes.copy())
    # analytic oracle: integral of s^2 ds = 1/3
    assert np.max(np.abs(out - grid.nodes / 3.0)) < 1e-4
    assert np.allclose(lambda_apply(TS, grid, np.zeros(len(grid))), 0.0)


def test_lambda_apply_dimension_mismatch():
    grid = Grid.trapezoid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        lambda_apply(TS, grid, np.zeros(7))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_contracting_constant():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    cert = certify_convergence(constant_kernel(0.5), grid, grid_ladder(51), 400)
    assert cert.verdict is CertificateVerdict.CERTIFIED
    assert abs(cert.spectral_radius - 0.5) < 1e-3
    # increments are the geometric sequence 0.5^n
    assert abs(cert.sup_increments[2] - 0.125) < 1e-12


def test_certificate_expanding_constant():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    cert = certify_convergence(constant_kernel(1.1), grid, grid_ladder(51), 400)
    assert cert.verdict is CertificateVerdict.NOT_CERTIFIED_WITHIN
    assert abs(cert.spectral_radius - 1.1) < 1e-3


def test_certificate_product_ts():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    cert = certify_convergence(TS, grid, grid_ladder(101), 400)
    assert cert.verdict is CertificateVerdict.CERTIFIED
    # rank-one kernel: the only nonzero eigenvalue is the integral of s^2
    assert abs(cert.spectral_radius - 1.0 / 3.0) < 1e-3


def test_certificate_overflow_flag():
    grid = Grid.trapezoid(0.0, 1.0, 21)
    cert = certify_convergence(constant_kernel(4.0), grid, grid_ladder(21), 400)
    assert cert.overflow
    assert cert.verdict is CertificateVerdict.NOT_CERTIFIED_WITHIN


def spectral_battery() -> list[KernelSpec]:
    """Ten linear kernels spanning spectral radii 0.2 .. 1.3."""
    kernels = [constant_kernel(c) for c in (0.2, 0.3, 0.45, 0.6, 0.7, 0.9, 1.05, 1.1)]
    kernels.append(
        KernelSpec(Q=lambda t, s: 2.4 * t * s, g=lambda t, s, x: 2.4 * t * s * x, f=lambda t: t)
    )
    kernels.append(
        KernelSpec(Q=lambda t, s: 3.9 * t * s, g=lambda t, s, x: 3.9 * t * s * x, f=lambda t: t)
    )
    return kernels


def test_certificate_spectral_agreement_battery():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    ladder = grid_ladder(51)
    for k in spectral_battery():
        cert = certify_convergence(k, grid, ladder, 800)
        assert (cert.verdict is CertificateVerdict.CERTIFIED) == (
            cert.spectral_radius < 1.0
        ), f"disagreement at spectral radius {cert.spectral_radius}"


def dense_spectral_radius(k: KernelSpec, grid: Grid) -> float:
    """Reference: every eigenvalue of the weighted kernel matrix, O(m^3)."""
    weighted = kernel_matrix(k, grid) * grid.weights[None, :]
    return float(np.max(np.abs(np.linalg.eigvals(weighted))))


EXP_KERNEL = KernelSpec(
    Q=lambda t, s: np.exp(-np.abs(t - s)),
    g=lambda t, s, x: np.exp(-np.abs(t - s)) * x,
    f=lambda t: t,
)


@pytest.mark.parametrize(
    "k, m",
    [(k, 51) for k in spectral_battery()] + [(TS, 101), (TS, 401), (EXP_KERNEL, 101)],
)
def test_spectral_bracket_contains_dense_eigenvalue(k, m):
    grid = Grid.trapezoid(0.0, 1.0, m)
    cert = certify_convergence(k, grid, grid_ladder(m), 800)
    lo, hi = cert.spectral_bracket
    rho = dense_spectral_radius(k, grid)
    assert lo <= rho <= hi
    # every kernel here has a dominant eigenvalue the iterates settle on
    assert hi / lo - 1.0 < 1e-9
    assert type(cert.spectral_radius) is float and cert.spectral_radius == hi


def test_spectral_bracket_of_zero_kernel():
    k = KernelSpec(Q=lambda t, s: 0.0 * t * s, g=lambda t, s, x: 0.0 * x, f=lambda t: t)
    grid = Grid.trapezoid(0.0, 1.0, 21)
    cert = certify_convergence(k, grid, grid_ladder(21), 800)
    assert cert.spectral_bracket == (0.0, 0.0)
    assert cert.verdict is CertificateVerdict.CERTIFIED
    assert cert.sup_increments == (0.0,) * 800


def test_kernel_assembly_rejects_bad_data():
    grid = Grid.trapezoid(0.0, 1.0, 11)
    cases = [
        (KernelSpec(Q=lambda t, s: 0.1 / t + 0.0 * s, g=TS.g, f=TS.f), "Q", "not finite"),
        (KernelSpec(Q=lambda t, s: (t - 0.5) * s, g=TS.g, f=TS.f), "Q", "negative"),
        (KernelSpec(Q=TS.Q, g=TS.g, f=lambda t: np.log(t)), "f", "not finite"),
    ]
    for k, part, what in cases:
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=what) as err:
            solve_fredholm(k, grid)
        assert isinstance(err.value, InvalidKernel) and err.value.part == part


def test_solve_assembles_the_kernel_once(monkeypatch):
    calls = []

    def counting(k, grid):
        calls.append(len(grid))
        return kernel_matrix(k, grid)

    monkeypatch.setattr(fredholm, "kernel_matrix", counting)
    x, report, _ = solve_fredholm(TS, Grid.trapezoid(0.0, 1.0, 51))
    assert report.status is SolveStatus.CERTIFIED
    assert calls == [51]


def reference_bracket(weighted: np.ndarray, iterates: np.ndarray) -> tuple[float, float]:
    """The Collatz-Wielandt bracket over all consecutive pairs at once."""
    live = np.any(weighted != 0.0, axis=1)
    if not live.any():
        return 0.0, 0.0
    iterates = iterates[:, live]
    x, y = iterates[:-1], iterates[1:]
    usable = np.all(x >= np.finfo(float).tiny, axis=1) & np.all(np.isfinite(y), axis=1)
    if not usable.any():
        return 0.0, float("inf")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotients = y / x
    lo = float(np.max(np.min(quotients, axis=1)[usable]))
    hi = float(np.min(np.max(quotients, axis=1)[usable]))
    slack = (weighted.shape[1] + 2) * float(np.finfo(float).eps)
    return lo * (1.0 - slack), hi * (1.0 + slack)


def reference_certificate(k: KernelSpec, grid: Grid, n_max: int) -> dict:
    """The certificate term by term, one increment array per term, with the
    per-element monoid path: the loop the block computation replaced.
    Returns the certificate's fields and the number of matvecs made."""
    operator = DiscreteKernel.assemble(k, grid)
    weighted = operator.weighted
    v = operator.integrated
    increments = []
    partial = np.zeros(len(grid))
    sup_inc = []
    sup_part = []
    overflow = False
    matvecs = 0
    for _ in range(n_max):
        increments.append(v)
        partial = partial + v
        sup_inc.append(float(np.max(np.abs(v))))
        sup_part.append(float(np.max(np.abs(partial))))
        if not np.isfinite(sup_part[-1]) or sup_part[-1] > fredholm.OVERFLOW_LIMIT:
            overflow = True
            break
        if sup_inc[-1] != 0.0:
            v = weighted @ v
            matvecs += 1

    per_element = replace(grid_function_monoid(len(grid)), elementwise=False)
    budget = max(1, n_max // 2)
    trace = MTrace(elements=tuple(increments), budget=budget)
    _, witness, _ = cauchy_series_window_report(trace, grid_ladder(len(grid)), per_element)

    cutoff = min(budget, len(increments)) - 1
    tail = np.zeros(len(grid))
    for inc in increments[cutoff:]:
        tail = tail + inc
    return dict(
        partial_sums=partial,
        sup_increments=tuple(sup_inc),
        sup_partials=tuple(sup_part),
        tail_window_max=float(np.max(np.abs(tail))),
        spectral_bracket=reference_bracket(weighted, np.array(increments)),
        witness_index=witness,
        overflow=overflow,
        matvecs=matvecs,
    )


ZERO_KERNEL = KernelSpec(Q=lambda t, s: 0.0 * t * s, g=lambda t, s, x: 0.0 * x, f=lambda t: t)


@pytest.mark.parametrize(
    "k, m, terms",
    [
        (TS, 101, 800),
        (TS, 401, 800),
        (constant_kernel(0.3), 101, 800),
        (constant_kernel(0.9), 101, 800),
        (EXP_KERNEL, 101, 800),
        (ZERO_KERNEL, 101, 800),
        (constant_kernel(1.1), 101, 265),
        # overflows at the first term; the terms computed past it overflow
        # the float range and must be discarded without a warning
        (constant_kernel(1e200), 101, 1),
    ],
)
def test_certificate_matches_term_by_term_reference(k, m, terms, monkeypatch):
    grid = Grid.trapezoid(0.0, 1.0, m)
    want = reference_certificate(k, grid, 800)
    matvecs = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *a, **kw: matvecs.append(1) or dot(*a, **kw))
    cert = certify_convergence(k, grid, grid_ladder(m), 800)
    monkeypatch.undo()

    assert len(cert.sup_increments) == terms
    assert np.array_equal(cert.partial_sums, want["partial_sums"])
    for field in (
        "sup_increments",
        "sup_partials",
        "tail_window_max",
        "spectral_bracket",
        "witness_index",
        "overflow",
    ):
        assert getattr(cert, field) == want[field], field
    if want["overflow"]:
        # cut at the first overflowing term, at most one block of rows past it
        assert want["matvecs"] <= len(matvecs) <= want["matvecs"] + fredholm.BLOCK_ROWS
    else:
        # no matvec after the first exactly zero increment, nor after the
        # last term (the loop made one there and discarded it)
        assert len(matvecs) == min(want["matvecs"], terms - 1)


def test_certificate_critical_constant_not_certified():
    # at spectral radius one the increments never decay; the series check
    # must refuse regardless of eigenvalue rounding
    grid = Grid.trapezoid(0.0, 1.0, 51)
    cert = certify_convergence(constant_kernel(1.0), grid, grid_ladder(51), 800)
    assert cert.verdict is CertificateVerdict.NOT_CERTIFIED_WITHIN


# ---------------------------------------------------------------------------
# solver


def test_solve_constant_half_reaches_two():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    x, report, cert = solve_fredholm(constant_kernel(0.5), grid)
    assert report.status is SolveStatus.CERTIFIED
    assert cert.verdict is CertificateVerdict.CERTIFIED
    # closed form oracle: x = 1 + 0.5 x gives x = 2; constants are exact
    assert np.max(np.abs(x - 2.0)) < 1e-6


def test_solve_product_ts_analytic():
    grid = Grid.trapezoid(0.0, 1.0, 401)
    x, report, cert = solve_fredholm(TS, grid)
    assert report.status is SolveStatus.CERTIFIED
    # analytic oracle: x(t) = t + t * integral(s x(s)) has solution 3t/2
    assert np.max(np.abs(x - 1.5 * grid.nodes)) < 1e-4


def test_solve_zero_integrand_returns_inhomogeneity():
    k = KernelSpec(Q=lambda t, s: 0.0 * t * s, g=lambda t, s, x: 0.0 * t * s * x, f=lambda t: np.cos(t))
    grid = Grid.trapezoid(0.0, 1.0, 41)
    x, report, cert = solve_fredholm(k, grid)
    assert report.status is SolveStatus.CERTIFIED
    assert report.iterations <= 1
    assert np.allclose(x, np.cos(grid.nodes))


def test_solve_refuses_divergent_kernel_without_force():
    grid = Grid.trapezoid(0.0, 1.0, 41)
    with pytest.raises(CertificateNotConvergent) as err:
        solve_fredholm(constant_kernel(1.1), grid)
    assert err.value.certificate.verdict is CertificateVerdict.NOT_CERTIFIED_WITHIN


def test_solve_forced_past_certificate_reports_it():
    grid = Grid.trapezoid(0.0, 1.0, 41)
    x, report, cert = solve_fredholm(constant_kernel(1.1), grid, force=True)
    assert report.status is not SolveStatus.CERTIFIED
    assert any("forced past" in d for d in report.diagnostics)


def test_solve_catches_lying_majorant():
    k = KernelSpec(
        Q=lambda t, s: 0.0 * t * s,  # claims no sensitivity to x
        g=lambda t, s, x: 0.5 * x + 0.0 * t * s,
        f=lambda t: 1.0 + 0.0 * t,
    )
    grid = Grid.trapezoid(0.0, 1.0, 21)
    x, report, cert = solve_fredholm(k, grid)
    assert x is None
    assert report.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert report.violation.condition == "kernel_majorant"


def test_solve_catches_nan_kernel_in_majorant_audit():
    # g is NaN for x > 0: the inequality |g(x) - g(y)| <= Q|x - y| cannot
    # hold there, so the first trial with x > 0 or y > 0 is the witness
    k = KernelSpec(
        Q=lambda t, s: 0.3 * t * s,
        g=lambda t, s, x: np.where(np.asarray(x) > 0, np.nan, 0.3 * t * s * x),
        f=lambda t: 1.0 + 0.0 * t,
    )
    grid = Grid.trapezoid(0.0, 1.0, 21)
    rng = child_rng(5, "majorant-audit")
    x = y = -1.0
    while x <= 0 and y <= 0:
        t, s = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        x, y = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
    sol, report, cert = solve_fredholm(k, grid, seed=5)
    assert sol is None and cert.verdict is CertificateVerdict.CERTIFIED
    assert report.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert report.violation.condition == "kernel_majorant"
    assert report.violation.witness.startswith(
        f"majorant inequality fails at t={t!r} s={s!r} x={x!r} y={y!r}: |g(t,s,x)-g(t,s,y)|=nan"
    )


# ---------------------------------------------------------------------------
# residual


def test_residual_exact_solution_is_zero():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    assert residual(constant_kernel(0.5), grid, np.full(len(grid), 2.0)) < 1e-12


def test_residual_of_inhomogeneity_candidate():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    x = grid.nodes.copy()  # candidate x = f for the ts problem
    r = residual(TS, grid, x)
    # oracle: defect is t * integral(s^2 ds) = t/3, sup over the grid = 1/3
    assert abs(r - 1.0 / 3.0) < 1e-3


def test_residual_perturbation_bounded_by_lipschitz():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    x, _, _ = solve_fredholm(TS, grid)
    eps = 1e-3
    r = residual(TS, grid, x + eps)
    # triangle oracle: residual grows at most by eps * (1 + sup_t integral Q)
    lip = float(np.max((grid.nodes[:, None] * grid.nodes[None, :]) @ grid.weights))
    assert r <= eps * (1.0 + lip) + residual(TS, grid, x) + 1e-12


# ---------------------------------------------------------------------------
# invariants


def test_quadrature_halving_reduces_error_fourfold():
    errors = {}
    for m in (101, 201):
        grid = Grid.trapezoid(0.0, 1.0, m)
        x, report, _ = solve_fredholm(TS, grid)
        assert report.status is SolveStatus.CERTIFIED
        errors[m] = float(np.max(np.abs(x - 1.5 * grid.nodes)))
    ratio = errors[101] / errors[201]
    assert 3.0 < ratio < 5.5, f"observed ratio {ratio}"


def test_contraction_audit_nodewise_domination():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    x, report, _ = solve_fredholm(TS, grid)
    pts = report.trace.points
    kmat = (grid.nodes[:, None] * grid.nodes[None, :]) * grid.weights[None, :]
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        lhs = np.abs(c - b)
        rhs = kmat @ np.abs(b - a)
        assert np.all(lhs <= rhs + 1e-12)


def test_iterated_kernel_matches_repeated_lambda_apply():
    grid = Grid.trapezoid(0.0, 1.0, 101)
    ones = np.ones(len(grid))
    for n in (1, 2, 5, 8):
        qn_w = iterate_kernel(TS, grid, n) @ grid.weights
        v = ones.copy()
        for _ in range(n):
            v = lambda_apply(TS, grid, v)
        denom = np.maximum(np.abs(v), 1e-30)
        assert float(np.max(np.abs(qn_w - v) / denom)) <= 1e-10


def test_certificate_tail_window_below_bottom_rung_when_certified():
    grid = Grid.trapezoid(0.0, 1.0, 51)
    ladder = grid_ladder(51)
    cert = certify_convergence(constant_kernel(0.5), grid, ladder, 400)
    assert cert.verdict is CertificateVerdict.CERTIFIED
    assert cert.tail_window_max < float(ladder.bottom[0])

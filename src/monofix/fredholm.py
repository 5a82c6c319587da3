"""Quadrature-discretized Fredholm solver with an iterated-kernel certificate.

The unknown lives on a quadrature grid; the integral operator becomes a
weighted matrix.  Before iterating, the solver certifies convergence by
checking that the series of integrated iterated kernels is Cauchy on the
grid.  The weighted kernel matrix W is nonnegative, so the iterates of that
series also bracket its spectral radius (Collatz-Wielandt bounds); the
bracket is recorded as an independent cross-check but never decides the
verdict.  The discretized operator is assembled once per solve and shared by
the certificate and the Picard loop, which runs in the grid-function monoid
with the pointwise order: the per-step distance is a function on the grid,
deliberately not collapsed to one number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np

from ._rng import child_rng, uniforms
from ._util import ratio_bounds
from .engine import LambdaSequence, MapSpec, SolveReport, _violated, solve_sequential
from .monoid import MonoidSpec, MTrace, TestLadder, cauchy_series_window_report, dyadic_ladder
from .reporting import Decision
from .spaces import DistanceSpaceSpec, SpaceKind

OVERFLOW_LIMIT = 1e12
# A solve holds two m x m float arrays, W and the Picard loop's work array:
# 1 GiB at this many nodes.
MAX_NODES = 8192
# The certificate holds two (terms, m) float arrays at a time, the increments
# and its work array or the window report's suffix sums: 2 GiB at MAX_NODES.
MAX_CERTIFICATE_TERMS = 16384


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes and weights on an interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def trapezoid(cls, a: float, b: float, m: int) -> "Grid":
        """Composite trapezoid rule with m nodes on [a, b]."""
        if m < 2:
            raise ValueError("trapezoid rule needs at least 2 nodes")
        nodes = np.linspace(a, b, m)
        h = (b - a) / (m - 1)
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2
        return cls(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class KernelSpec:
    """Problem data: majorant Q(t,s) >= 0, integrand g(t,s,x), inhomogeneity f(t).

    All three callables must broadcast over numpy arrays and be pointwise:
    each value may depend only on its own t, s (and x), because Q and g are
    evaluated on row blocks of the node grid and on arrays of sampled
    points.  An entry of an array value of Q or g must equal the value of
    the scalar call at its point, bit for bit: the majorant audit reports
    its failures from the arrays.  The built-in kernels and the expression
    sub-language are.
    """

    Q: Callable[[Any, Any], Any]
    g: Callable[[Any, Any, Any], Any]
    f: Callable[[Any], Any]


class CertificateVerdict(str, Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED_WITHIN = "not_certified_within"


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Evidence about the series of integrated iterated kernels.

    `sup_increments[n]` is the sup norm of the n-th integrated iterated
    kernel on the grid, `sup_partials[n]` the sup norm of the partial sum,
    `partial_sums` the final nodewise partial-sum vector.  The verdict comes
    from the Cauchy-series check alone.  `spectral_bracket` (lo, hi) is the
    independent oracle, recorded regardless of the verdict: lo <= rho(W) <= hi
    for the weighted kernel matrix W, from the Collatz-Wielandt quotients of
    the `spectral_bracket_pairs` usable pairs of consecutive increments.  It
    is (0, 0) when W vanishes (no pair is taken) and (0, inf) when no pair
    was usable.
    """

    partial_sums: np.ndarray
    sup_increments: tuple[float, ...]
    sup_partials: tuple[float, ...]
    tail_window_max: float
    spectral_bracket: tuple[float, float]
    spectral_bracket_pairs: int
    verdict: CertificateVerdict
    overflow: bool
    witness_index: Optional[int]

    @property
    def spectral_radius(self) -> float:
        """The upper end of the spectral bracket."""
        return self.spectral_bracket[1]


class CertificateNotConvergent(RuntimeError):
    """Raised when solving is refused because the certificate did not pass."""

    def __init__(self, certificate: ConvergenceCertificate):
        super().__init__(
            "iterated-kernel series not certified within budget "
            f"(spectral radius oracle {certificate.spectral_radius:.6g}); "
            "pass force=True to iterate anyway"
        )
        self.certificate = certificate


class InvalidKernel(ValueError):
    """Kernel data that does not define a finite nonnegative operator.

    `part` names the offending datum: "Q" for the majorant, "g" for the
    kernel, "f" for the inhomogeneity.
    """

    def __init__(self, part: str, message: str):
        super().__init__(message)
        self.part = part


def _first_bad(values: np.ndarray, bad: np.ndarray) -> tuple:
    """The index and value of the first bad entry (the first entry if none)."""
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return index, values[index].item()


def _real(part: str, what: str, values: Any, *nodes: np.ndarray, real_valued: bool = False) -> Any:
    """`values`, `what` sampled at the nodes (t, then s), unless complex: a
    float array would drop the imaginary part, so that raises InvalidKernel.
    With `real_valued`, complex values whose imaginary parts are all 0 give
    their real parts."""
    if np.iscomplexobj(values):
        if real_valued and not np.imag(values).any():
            return np.real(values)
        sample, *at = np.broadcast_arrays(values, *nodes)
        index, value = _first_bad(sample, sample.imag != 0)
        where = ", ".join(f"{name}={float(x[index])!r}" for name, x in zip("ts", at))
        raise InvalidKernel(part, f"{what} is not real at {where}: {value!r}")
    return values


# Entries per row block of the node grid (one row where a row is longer).
GRID_BLOCK = 4096


def _fill_grid(out: np.ndarray, fn: Callable, grid: Grid, *x: np.ndarray) -> np.ndarray:
    """out[i, j] = fn(t_i, s_j, x[j]) at the nodes (fn(t_i, s_j) without x),
    one row block at a time, so temporaries stay small; returns out."""
    nodes = grid.nodes
    s = nodes[None, :]
    rest = tuple(v[None, :] for v in x)
    rows = max(1, GRID_BLOCK // len(nodes))
    for start in range(0, len(nodes), rows):
        out[start : start + rows] = fn(nodes[start : start + rows, None], s, *rest)
    return out


def _real_g(k: KernelSpec) -> Callable:
    """k.g, raising InvalidKernel where a value has an imaginary part."""
    return lambda t, s, x: _real("g", "g(t, s, x)", k.g(t, s, x), t, s, real_valued=True)


def kernel_matrix(k: KernelSpec, grid: Grid) -> np.ndarray:
    """Q sampled at the nodes, Q[i, j] = Q(t_i, s_j).

    Raises InvalidKernel unless every entry is finite and nonnegative: the
    certificate and its spectral bracket hold only for such a matrix.
    """
    m = len(grid)
    q = _fill_grid(
        np.empty((m, m)), lambda t, s: _real("Q", "majorant Q(t, s)", k.Q(t, s), t, s), grid
    )
    if not (q.min() >= 0.0 and q.max() < math.inf):  # a NaN fails both
        for bad, what in ((~np.isfinite(q), "not finite"), (q < 0, "negative")):
            if bad.any():
                (i, j), value = _first_bad(q, bad)
                raise InvalidKernel(
                    "Q",
                    f"majorant Q(t, s) is {what} at t={float(grid.nodes[i])!r}, "
                    f"s={float(grid.nodes[j])!r}: {value!r}",
                )
    return q


@dataclass(frozen=True)
class DiscreteKernel:
    """The problem assembled on a grid, once per solve.

    `weighted` is W = Q diag(w), the matrix of the linear majorant operator;
    `integrated` is Q w, the first integrated iterated kernel; `f` is the
    inhomogeneity at the nodes.
    """

    weighted: np.ndarray
    integrated: np.ndarray
    f: np.ndarray

    @classmethod
    def assemble(cls, k: KernelSpec, grid: Grid) -> "DiscreteKernel":
        """Sample and validate Q and f, raising InvalidKernel on bad data; Q
        is sampled into one m x m array, then scaled in place into W."""
        q = kernel_matrix(k, grid)
        f = _real("f", "f(t)", k.f(grid.nodes), grid.nodes)
        f = np.asarray(f, dtype=float) * np.ones(len(grid))
        bad = ~np.isfinite(f)
        if bad.any():
            (i,), value = _first_bad(f, bad)
            raise InvalidKernel("f", f"f(t) is not finite at t={float(grid.nodes[i])!r}: {value!r}")
        integrated = q @ grid.weights
        q *= grid.weights
        return cls(weighted=q, integrated=integrated, f=f)


def grid_function_monoid(m: int) -> MonoidSpec:
    """Pointwise addition and order on real functions over m grid nodes."""
    descr = f"grid functions on {m} nodes (pointwise + and <=)"
    return MonoidSpec.real_entrywise(descr, np.zeros(m))


def grid_ladder(m: int, depth: int = 20) -> TestLadder:
    """Constant grid functions at the heights of `dyadic_ladder(depth)`."""
    return TestLadder(tuple(np.full(m, h) for h in dyadic_ladder(depth).rungs))


def grid_space(grid: Grid, ladder: TestLadder) -> DistanceSpaceSpec:
    m = len(grid)
    monoid = grid_function_monoid(m)
    return DistanceSpaceSpec(
        point_descr=f"real grid functions on {m} nodes",
        distance=lambda x, y: np.abs(x - y),
        kind=SpaceKind.DISTANCE,
        monoid=monoid,
        ladder=ladder,
        point_eq=lambda x, y: bool(np.array_equal(x, y)),
        weierstrass_capable=True,
        regular_order=True,
        co_regular_order=True,
    )


def certify_convergence(
    k: KernelSpec,
    grid: Grid,
    ladder: TestLadder,
    n_max: int,
    *,
    operator: Optional[DiscreteKernel] = None,
) -> ConvergenceCertificate:
    """Accumulate the integrated iterated kernels and check the series.

    First the matvec chain fills the rows of one (n_max, m) block with the
    increments, each W times the one before.  They are nonnegative (Q is
    validated nonnegative and finite, the weights are nonnegative), so the
    chain stops on a row's largest entry, read by `argmax`: at 0 the row is
    exactly zero and the remaining rows are copies of it; not finite or
    above OVERFLOW_LIMIT, the row gets no matvec, since its partial sum is
    at least as large and the series is cut there or earlier.

    Then one pass over the filled rows, with one work array of their size
    that is released before the Cauchy check, computes
      - the partial sums, added left to right onto +0.0 as a term-by-term
        loop adds them, so every value is the same to the bit, and the sup
        norms of the sums and of the increments;
      - the overflow cut, with the overflow flag set, at the first partial
        sum that is not finite or exceeds OVERFLOW_LIMIT;
      - the tail window, the terms from min(budget, n) - 1 on, added the
        same way;
      - the Collatz-Wielandt quotients of the consecutive pairs up to the
        cut: for x > 0, min_i (Wx)_i / x_i <= rho(W) <= max_i (Wx)_i / x_i,
        widened for rounding by `ratio_bounds`, and the tightest over all
        usable pairs are kept.
    The quotients drop the rows where W vanishes identically: W is block
    triangular with a zero block there, so the rest keeps its nonzero
    spectrum, and every increment is exactly zero on those rows (each entry
    sums the products that make the zero row of W).  When W vanishes no
    pair is taken.  The increment trace carries a witness budget of
    n_max // 2 so that the evidence extends past any accepted witness; the
    grid-function monoid checks it as one array.  `operator` is k assembled
    on the grid, when the caller already has it; otherwise it is assembled
    here (raising InvalidKernel on bad kernel data).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if operator is None:
        operator = DiscreteKernel.assemble(k, grid)
    weighted = operator.weighted
    m = len(grid)
    dead = ~weighted.any(axis=1)
    block = np.empty((n_max, m))
    block[0] = operator.integrated
    budget = max(1, n_max // 2)
    filled = 1
    # Overflow is detected from the partial sums and reported by the flag;
    # terms computed past the first overflowing one are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        while filled < n_max:
            prev = block[filled - 1]
            top = prev[prev.argmax()]
            if not top <= OVERFLOW_LIMIT:  # a NaN included
                break
            if top == 0:
                block[filled:] = prev
                filled = n_max
                break
            np.dot(weighted, prev, out=block[filled])
            filled += 1

        rows, work = block[:filled], np.empty((filled, m))
        sup_inc = np.abs(rows, out=work).max(axis=1)
        np.add(rows[0], 0.0, out=work[0])
        work[1:] = rows[1:]
        np.add.accumulate(work, axis=0, out=work)
        sup_part = work.max(axis=1)  # the sums are +0.0 or more
        bad = np.flatnonzero(~np.isfinite(sup_part) | (sup_part > OVERFLOW_LIMIT))
        overflow = bool(bad.size)
        n = int(bad[0]) + 1 if overflow else filled
        partial = work[n - 1].copy()

        cutoff = min(budget, n) - 1
        window = work[: n - cutoff]
        np.add(rows[cutoff], 0.0, out=window[0])
        window[1:] = rows[cutoff + 1 : n]
        np.add.accumulate(window, axis=0, out=window)
        tail_window_max = float(np.max(np.abs(window[-1])))

        low, high, pairs = -math.inf, math.inf, 0
        if n > 1 and not dead.all():
            lo, hi, usable = ratio_bounds(rows[: n - 1], rows[1:n], dead, work[: n - 1])
            low = float(lo.max(initial=-math.inf, where=usable))
            high = float(hi.min(initial=math.inf, where=usable))
            pairs = int(np.count_nonzero(usable))
        del work, window  # released before the window report's suffix sums
    bracket = (low, high) if pairs else (0.0, 0.0 if dead.all() else math.inf)

    trace = MTrace(elements=block[:n], budget=budget)
    decision, witness, _ = cauchy_series_window_report(trace, ladder, grid_function_monoid(m))
    certified = decision is Decision.NULL and not overflow

    return ConvergenceCertificate(
        partial_sums=partial,
        sup_increments=tuple(sup_inc[:n].tolist()),
        sup_partials=tuple(sup_part[:n].tolist()),
        tail_window_max=tail_window_max,
        spectral_bracket=bracket,
        spectral_bracket_pairs=pairs,
        verdict=CertificateVerdict.CERTIFIED
        if certified
        else CertificateVerdict.NOT_CERTIFIED_WITHIN,
        overflow=overflow,
        witness_index=witness,
    )


def residual(k: KernelSpec, grid: Grid, x: np.ndarray) -> float:
    """Sup-norm defect of x against the integral equation."""
    x = np.asarray(x, dtype=float)
    m = len(grid)
    gmat = _fill_grid(np.empty((m, m)), _real_g(k), grid, x)
    f = _real("f", "f(t)", k.f(grid.nodes), grid.nodes)
    rhs = np.asarray(f, dtype=float) * np.ones(m) + gmat @ grid.weights
    return float(np.max(np.abs(x - rhs)))


def _audit_majorant(k: KernelSpec, grid: Grid, seed: int, trials: int = 400) -> Optional[str]:
    """|g(t,s,x) - g(t,s,y)| <= Q(t,s)|x - y| at `trials` sampled points.

    Each trial draws t, s, x, y as four `rng.uniform` calls would; all are
    drawn at once (`uniforms`) and Q and g are evaluated once on the arrays,
    whose entries are those of scalar calls (`KernelSpec`).  The first
    failing trial is rendered from its entries of the arrays, as a loop of
    scalar trials renders it.  A complex g raises InvalidKernel, naming the
    first sampled (t, s) with an imaginary part.
    """
    rng = child_rng(seed, "majorant-audit")
    low = np.array([grid.nodes[0], grid.nodes[0], -4.0, -4.0])
    high = np.array([grid.nodes[-1], grid.nodes[-1], 4.0, 4.0])
    draws = low + (high - low) * uniforms(rng, 4 * trials).reshape(trials, 4)
    t, s, x, y = np.ascontiguousarray(draws.T)
    # NaN and overflow are verdicts here, not warnings
    with np.errstate(all="ignore"):
        g = _real_g(k)
        lhs = np.abs(np.asarray(g(t, s, x), dtype=float) - g(t, s, y))
        bound = np.asarray(k.Q(t, s), dtype=float) * np.abs(x - y)
        # negated, so that a NaN on either side fails the audit
        failing = np.flatnonzero(~(lhs <= bound + 1e-9 * (1.0 + bound)))
    if not failing.size:
        return None
    i = failing[0]  # a Q or g constant in its arguments gives a 0-d array
    t, s, x, y, lhs, bound = (float(a[i]) for a in np.broadcast_arrays(t, s, x, y, lhs, bound))
    return (
        f"majorant inequality fails at t={t!r} s={s!r} x={x!r} y={y!r}: "
        f"|g(t,s,x)-g(t,s,y)|={lhs!r} > Q(t,s)|x-y|={bound!r}"
    )


def solve_fredholm(
    k: KernelSpec,
    grid: Grid,
    ladder: Optional[TestLadder] = None,
    budget: int = 200,
    certificate_budget: int = 800,
    force: bool = False,
    seed: int = 0,
) -> tuple[Optional[np.ndarray], SolveReport, ConvergenceCertificate]:
    """Solve x(t) = f(t) + integral of g(t, s, x(s)) on the grid.

    Refuses (raising CertificateNotConvergent) when the iterated-kernel
    certificate does not pass, unless `force` is set, in which case the
    override is recorded in the report.  The Picard loop runs through the
    sequential driver with the constant linear majorant operator, marked as
    the nonnegative matrix W so that the driver decides its composed-product
    series from a proven geometric tail.  An iterate that is not finite,
    the first one included, ends the solve as HYPOTHESIS_VIOLATED with
    condition non_finite_iterate.  Every application of the integral
    operator refills one m x m work array with g, row block by row block.
    """
    if ladder is None:
        ladder = grid_ladder(len(grid))
    operator = DiscreteKernel.assemble(k, grid)
    certificate = certify_convergence(k, grid, ladder, certificate_budget, operator=operator)
    diagnostics: list[str] = []
    if certificate.verdict is not CertificateVerdict.CERTIFIED:
        if not force:
            raise CertificateNotConvergent(certificate)
        diagnostics.append(
            "forced past a failing convergence certificate "
            f"(spectral radius oracle {certificate.spectral_radius:.6g})"
        )

    issue = _audit_majorant(k, grid, seed)
    if issue is not None:
        return None, _violated(None, -1, "kernel_majorant", issue, diagnostics), certificate

    space = grid_space(grid, ladder)
    fvec, weighted, m = operator.f, operator.weighted, len(grid)
    work, g = np.empty((m, m)), _real_g(k)

    def apply(x: np.ndarray) -> np.ndarray:
        # one matvec on the whole array: how BLAS splits it sets its bytes
        return fvec + _fill_grid(work, g, grid, x) @ grid.weights

    def finite(_k: int, _cur: np.ndarray, nxt: np.ndarray) -> Optional[str]:
        return None if np.isfinite(nxt).all() else "non_finite_iterate"

    fmap = MapSpec(apply=apply)
    lam = LambdaSequence.constant(lambda v: weighted @ v, matrix=weighted)
    report = solve_sequential(
        space, fmap, lam, fvec.copy(), mode="series", budget=budget, extra_step_check=finite
    )
    if diagnostics:
        report = replace(report, diagnostics=tuple(diagnostics) + report.diagnostics)
    return report.fixed_point, report, certificate

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

from ._rng import child_rng
from ._util import close_eq
from .engine import (
    HypothesisViolation,
    LambdaSequence,
    MapSpec,
    SolveReport,
    SolveStatus,
    solve_sequential,
)
from .monoid import MonoidSpec, MTrace, TestLadder, cauchy_series_window_report
from .reporting import Decision
from .spaces import DistanceSpaceSpec, SpaceKind

OVERFLOW_LIMIT = 1e12


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

    All three callables must broadcast over numpy arrays; the built-in kernels
    and the expression sub-language do.
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
    consecutive increments.  It is (0, 0) when W vanishes and (0, inf) when
    no increment was usable.
    """

    partial_sums: np.ndarray
    sup_increments: tuple[float, ...]
    sup_partials: tuple[float, ...]
    tail_window_max: float
    spectral_bracket: tuple[float, float]
    verdict: CertificateVerdict
    overflow: bool = False
    witness_index: Optional[int] = None

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

    `part` names the offending datum: "Q" for the majorant, "f" for the
    inhomogeneity.
    """

    def __init__(self, part: str, message: str):
        super().__init__(message)
        self.part = part


def _first_bad(values: np.ndarray, bad: np.ndarray) -> tuple:
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return index, float(values[index])


def _square(values: Any, m: int) -> np.ndarray:
    """Values sampled on the m x m node grid as a float array of that shape.

    Callables that ignore t or s return a broadcastable shape; only those
    are copied out to the full square.
    """
    a = np.asarray(values, dtype=float)
    return a if a.shape == (m, m) else np.broadcast_to(a, (m, m)).copy()


def kernel_matrix(k: KernelSpec, grid: Grid) -> np.ndarray:
    """Q sampled at the nodes, Q[i, j] = Q(t_i, s_j).

    Raises InvalidKernel unless every entry is finite and nonnegative: the
    certificate and its spectral bracket hold only for such a matrix.
    """
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    q = _square(k.Q(t, s), len(grid))
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
        """Sample and validate Q and f; raises InvalidKernel on bad data."""
        q1 = kernel_matrix(k, grid)
        f = np.asarray(k.f(grid.nodes), dtype=float) * np.ones(len(grid))
        bad = ~np.isfinite(f)
        if bad.any():
            (i,), value = _first_bad(f, bad)
            raise InvalidKernel("f", f"f(t) is not finite at t={float(grid.nodes[i])!r}: {value!r}")
        return cls(weighted=q1 * grid.weights[None, :], integrated=q1 @ grid.weights, f=f)


def iterate_kernel(k: KernelSpec, grid: Grid, n: int) -> np.ndarray:
    """The n-th iterated kernel on the grid: Q_1 is Q sampled at the nodes,
    Q_n = Q_{n-1} diag(w) Q_1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    q1 = kernel_matrix(k, grid)
    out = q1
    for _ in range(n - 1):
        out = (out * grid.weights[None, :]) @ q1
    return out


def lambda_apply(k: KernelSpec, grid: Grid, x: np.ndarray) -> np.ndarray:
    """The linear majorant operator: t -> sum_j w_j Q(t, s_j) x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != grid.nodes.shape:
        raise ValueError(f"grid function has shape {x.shape}, grid has {grid.nodes.shape}")
    return (kernel_matrix(k, grid) * grid.weights[None, :]) @ x


def grid_function_monoid(m: int) -> MonoidSpec:
    """Pointwise addition and order on real functions over m grid nodes."""
    return MonoidSpec(
        carrier_descr=f"grid functions on {m} nodes (pointwise + and <=)",
        combine=lambda a, b: a + b,
        identity=np.zeros(m),
        leq=lambda a, b: bool(np.all(a <= b)),
        sup=np.maximum,
        eq=close_eq(),
        elementwise=True,
    )


def grid_ladder(m: int, depth: int = 20) -> TestLadder:
    """Constant grid functions at dyadic heights 1/2 .. 2**-depth."""
    rungs = tuple(np.full(m, 2.0 ** -(i + 1)) for i in range(depth))
    witnesses = tuple(i + 1 if i + 1 < depth else None for i in range(depth))
    return TestLadder(rungs=rungs, halving_witness=witnesses)


def grid_space(grid: Grid, ladder: Optional[TestLadder] = None) -> DistanceSpaceSpec:
    m = len(grid)
    monoid = grid_function_monoid(m)
    return DistanceSpaceSpec(
        point_descr=f"real grid functions on {m} nodes",
        distance=lambda x, y: np.abs(x - y),
        kind=SpaceKind.DISTANCE,
        monoid=monoid,
        ladder=ladder if ladder is not None else grid_ladder(m),
        point_eq=lambda x, y: bool(np.array_equal(x, y)),
        weierstrass_capable=True,
        regular_order=True,
        co_regular_order=True,
    )


# Rows of the increment block that the certificate and its spectral bracket
# take at a time.  A series that overflows is cut at its first overflowing
# term, after computing at most this many increments past it.
BLOCK_ROWS = 64


def _spectral_bracket(
    weighted: np.ndarray, increments: np.ndarray, scratch: np.ndarray
) -> tuple[float, float]:
    """Collatz-Wielandt bounds on the spectral radius of W >= 0.

    `increments` holds consecutive iterates x, Wx, W^2 x, ... as rows.  For
    x > 0, min_i (Wx)_i / x_i <= rho(W) <= max_i (Wx)_i / x_i.  Each pair
    of consecutive increments (x, Wx) gives such bounds; the tightest over
    all usable pairs are kept.  Rows where W vanishes identically are
    dropped: W is block triangular with a zero block there, so the rest keeps
    its nonzero spectrum, and every increment is exactly zero on those rows
    (each entry sums the products that make the zero row of W).  A pair is
    usable when x is at least the smallest normal float on the live rows and
    Wx is finite there.  The bounds are widened by (m + 2) eps, relative, to
    cover the rounding of the m-term dot products and of the quotient.  The
    pairs are taken BLOCK_ROWS at a time; their quotients go to `scratch`
    (BLOCK_ROWS x m), with the dropped rows masked by +-inf rather than
    copied out.
    """
    live = np.any(weighted != 0.0, axis=1)
    if not live.any():
        return 0.0, 0.0
    dead = ~live
    lows, highs = [], []
    for start in range(0, len(increments) - 1, BLOCK_ROWS):
        y = increments[start + 1 : start + 1 + BLOCK_ROWS]
        x = increments[start : start + len(y)]
        usable = np.all((x >= np.finfo(float).tiny) | dead, axis=1)
        usable &= np.all(np.isfinite(y) | dead, axis=1)
        quotients = scratch[: len(y)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(y, x, out=quotients)
        quotients[:, dead] = math.inf
        lows.append(np.min(quotients, axis=1)[usable])
        quotients[:, dead] = -math.inf
        highs.append(np.max(quotients, axis=1)[usable])
    if not any(len(low) for low in lows):
        return 0.0, math.inf
    lo = float(np.max(np.concatenate(lows)))
    hi = float(np.min(np.concatenate(highs)))
    slack = (weighted.shape[1] + 2) * float(np.finfo(float).eps)
    return lo * (1.0 - slack), hi * (1.0 + slack)


def _running_sums(rows: np.ndarray, carry: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = carry + rows[0] + ... + rows[k], added left to right, the
    additions of `carry = carry + row` row by row; returns out[:len(rows)]."""
    sums = out[: len(rows)]
    np.add(carry, rows[0], out=sums[0])
    sums[1:] = rows[1:]
    return np.add.accumulate(sums, axis=0, out=sums)


def certify_convergence(
    k: KernelSpec,
    grid: Grid,
    ladder: TestLadder,
    n_max: int,
    *,
    operator: Optional[DiscreteKernel] = None,
) -> ConvergenceCertificate:
    """Accumulate the integrated iterated kernels and check the series.

    The increments are the rows of one (n_max, m) block, filled BLOCK_ROWS
    rows at a time by the matvec chain W v; once an increment is exactly
    zero, the rest are copies of it (W is finite).  After each such group of
    rows come its partial sums and sup norms, with the additions of a
    term-by-term loop in the same order, so every value is the same to the
    bit.  Partial sums overflowing the float range (or OVERFLOW_LIMIT) abort
    with the overflow flag set, at the first overflowing term.  The
    increment trace carries a witness budget of n_max // 2 so that the
    evidence extends past any accepted witness; the grid-function monoid
    checks it as one array.  `operator` is k assembled on the grid, when the
    caller already has it; otherwise it is assembled here (raising
    InvalidKernel on bad kernel data).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if operator is None:
        operator = DiscreteKernel.assemble(k, grid)
    weighted = operator.weighted
    m = len(grid)
    block = np.empty((n_max, m))
    block[0] = operator.integrated
    sup_inc = np.empty(n_max)
    sup_part = np.empty(n_max)
    sums = np.empty((BLOCK_ROWS, m))
    scratch = np.empty((BLOCK_ROWS, m))
    partial = np.zeros(m)
    n = n_max
    overflow = False
    filled = 1
    # Overflow is detected from the partial sums and reported by the flag;
    # terms computed past the first overflowing one are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_max, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_max)
            while filled < stop:
                prev = block[filled - 1]
                if np.count_nonzero(prev):
                    np.dot(weighted, prev, out=block[filled])
                    filled += 1
                else:
                    block[filled:] = prev
                    filled = n_max
            rows = block[start:stop]
            running = _running_sums(rows, partial, sums)
            np.max(np.abs(rows, out=scratch[: len(rows)]), axis=1, out=sup_inc[start:stop])
            np.max(np.abs(running, out=scratch[: len(rows)]), axis=1, out=sup_part[start:stop])
            chunk = sup_part[start:stop]
            bad = np.flatnonzero(~np.isfinite(chunk) | (chunk > OVERFLOW_LIMIT))
            if bad.size:
                n = start + int(bad[0]) + 1
                overflow = True
                partial = running[bad[0]].copy()
                break
            partial = running[-1].copy()
    increments = block[:n]

    budget = max(1, n_max // 2)
    trace = MTrace(elements=increments, budget=budget)
    decision, witness, _ = cauchy_series_window_report(trace, ladder, grid_function_monoid(m))
    certified = decision is Decision.NULL and not overflow

    cutoff = min(budget, n) - 1
    tail = np.zeros(m)
    for start in range(cutoff, n, BLOCK_ROWS):
        tail = _running_sums(increments[start : start + BLOCK_ROWS], tail, sums)[-1].copy()
    tail_window_max = float(np.max(np.abs(tail)))

    return ConvergenceCertificate(
        partial_sums=partial,
        sup_increments=tuple(sup_inc[:n].tolist()),
        sup_partials=tuple(sup_part[:n].tolist()),
        tail_window_max=tail_window_max,
        spectral_bracket=_spectral_bracket(weighted, increments, scratch),
        verdict=CertificateVerdict.CERTIFIED
        if certified
        else CertificateVerdict.NOT_CERTIFIED_WITHIN,
        overflow=overflow,
        witness_index=witness,
    )


def residual(k: KernelSpec, grid: Grid, x: np.ndarray) -> float:
    """Sup-norm defect of x against the integral equation."""
    x = np.asarray(x, dtype=float)
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    gmat = _square(k.g(t, s, x[None, :]), len(grid))
    rhs = np.asarray(k.f(grid.nodes), dtype=float) * np.ones(len(grid)) + gmat @ grid.weights
    return float(np.max(np.abs(x - rhs)))


def _audit_majorant(k: KernelSpec, grid: Grid, seed: int, trials: int = 400) -> Optional[str]:
    rng = child_rng(seed, "majorant-audit")
    lo, hi = float(grid.nodes[0]), float(grid.nodes[-1])
    for _ in range(trials):
        t = rng.uniform(lo, hi)
        s = rng.uniform(lo, hi)
        x = rng.uniform(-4.0, 4.0)
        y = rng.uniform(-4.0, 4.0)
        lhs = abs(float(k.g(t, s, x)) - float(k.g(t, s, y)))
        bound = float(k.Q(t, s)) * abs(x - y)
        if lhs > bound + 1e-9 * (1.0 + bound):
            return (
                f"majorant inequality fails at t={t!r} s={s!r} x={x!r} y={y!r}: "
                f"|g(t,s,x)-g(t,s,y)|={lhs!r} > Q(t,s)|x-y|={bound!r}"
            )
    return None


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
    sequential driver with the constant linear majorant operator.
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
        report = SolveReport(
            status=SolveStatus.HYPOTHESIS_VIOLATED,
            diagnostics=tuple(diagnostics),
            violation=HypothesisViolation(
                step=-1, condition="kernel_majorant", witness=issue
            ),
        )
        return None, report, certificate

    space = grid_space(grid, ladder)
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    fvec, weighted, m = operator.f, operator.weighted, len(grid)

    def apply(x: np.ndarray) -> np.ndarray:
        return fvec + _square(k.g(t, s, x[None, :]), m) @ grid.weights

    fmap = MapSpec(apply=apply, description="Fredholm integral operator")
    lam = LambdaSequence.constant(
        lambda v: weighted @ v, description="linear majorant operator"
    )
    report = solve_sequential(space, fmap, lam, fvec.copy(), mode="series", budget=budget)
    if diagnostics:
        report = replace(report, diagnostics=tuple(diagnostics) + report.diagnostics)
    return report.fixed_point, report, certificate

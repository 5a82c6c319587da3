"""Iteration drivers that verify their own hypotheses along the orbit.

Each driver runs the same loop (apply the map, measure the consecutive
distance, stop once the orbit is quiet) while auditing the contraction
hypothesis it was given.  The theorems behind the drivers quantify over all
points; the drivers verify what is checkable at desk scale, so a Certified
status always means "certified with sampled hypotheses": the residual
distance at the accepted point is strictly below the bottom rung, and no
sampled or orbit-local check failed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ._util import below_rows, close_band, first_below, format_value, generic_eq, ratio_bounds
from .monoid import (
    MonoidSpec,
    MTrace,
    TestLadder,
    cauchy_series_window_report,
    is_bounded,
    is_null_trace,
)
from .reporting import Decision
from .spaces import DistanceSpaceSpec, ZetaSpec, check_zeta_triangle


class SolveStatus(str, Enum):
    CERTIFIED = "certified"
    HYPOTHESIS_VIOLATED = "hypothesis_violated"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class MapSpec:
    apply: Callable[[Any], Any]
    order_leq: Optional[Callable[[Any, Any], bool]] = None


@dataclass(frozen=True)
class IterationTrace:
    """An orbit prefix: points, consecutive distances, per-step flags, and the
    condition a step check reported violated on the last step, if any."""

    points: tuple
    consec: MTrace
    flags: tuple[str, ...]
    stopped_early: bool = False
    violated: Optional[str] = None

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class HypothesisViolation:
    step: int
    condition: str
    witness: str = ""


@dataclass(frozen=True)
class SolveReport:
    """The outcome of a solve; the defaults describe a report with no point."""

    status: SolveStatus
    fixed_point: Optional[Any] = None
    residual: Optional[Any] = None
    residual_below_rung: bool = False
    iterations: int = 0
    diagnostics: tuple[str, ...] = ()
    violation: Optional[HypothesisViolation] = None
    trace: Optional[IterationTrace] = None

    def to_text(self) -> str:
        lines = [f"status={self.status.value}"]
        if self.violation is not None:
            v = self.violation
            lines.append(f"violation step={v.step} condition={v.condition} {v.witness}")
        lines.append(f"iterations={self.iterations}")
        if self.fixed_point is not None:
            lines.append(f"fixed_point={format_value(self.fixed_point)}")
        if self.residual is not None:
            lines.append(f"residual={format_value(self.residual)}")
            lines.append(f"residual_below_bottom_rung={self.residual_below_rung}")
        for d in self.diagnostics:
            lines.append(f"note: {d}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LambdaSequence:
    """A sequence of non-decreasing operators on the positive cone.

    `op_at(n)` is the n-th operator (1-based).  `commuting` asserts that the
    operators commute pairwise under composition (true for scalar multiples),
    which unlocks the incremental evaluation of composed products; otherwise
    products are computed literally in outermost-first order.  `matrix`, when
    set, asserts that every operator is v -> matrix @ v for this one finite
    nonnegative matrix; over a monoid that adds float vectors entry by entry,
    `solve_sequential` then decides the composed-product series with
    `_geometric_witness`, from a proven geometric tail where one settles it.
    """

    op_at: Callable[[int], Callable[[Any], Any]]
    commuting: bool = False
    matrix: Optional[np.ndarray] = None

    @classmethod
    def constant(
        cls, op: Callable[[Any], Any], matrix: Optional[np.ndarray] = None
    ) -> "LambdaSequence":
        return cls(op_at=lambda n: op, commuting=True, matrix=matrix)


@dataclass(frozen=True)
class CaristiData:
    """Potential-descent data: eta(d(x, f(x))) + potential(f(x)) <= potential(x)."""

    potential: Callable[[Any], Any]
    eta: Callable[[Any], Any]


@dataclass(frozen=True)
class MeirKeelerData:
    """Epsilon-delta contraction data over the ladder rungs.

    `delta_of` picks, for each rung epsilon, the rung delta used in the
    contraction premise; `zeta` combines two distances and must dominate both
    of its rung arguments.
    """

    delta_of: Callable[[Any], Any]
    zeta: Callable[[Any, Any], Any]


def next_rung_choice(ladder: TestLadder) -> Callable[[Any], Any]:
    """The standard delta choice: the rung one step below (bottom maps to itself)."""

    def pick(eps: Any) -> Any:
        for i, r in enumerate(ladder.rungs):
            if r is eps or generic_eq(r, eps):
                return ladder.rungs[min(i + 1, len(ladder.rungs) - 1)]
        raise ValueError("epsilon is not a ladder rung")

    return pick


# ---------------------------------------------------------------------------
# Orbit iteration

# the run of consecutive distances strictly below the bottom rung that stops an orbit
STOP_WINDOW = 3


def picard_iterate(
    space: DistanceSpaceSpec,
    f: MapSpec,
    x0: Any,
    budget: int,
    step_check: Optional[Callable[[int, Any, Any, Any], Optional[str]]] = None,
) -> IterationTrace:
    """Iterate x -> f(x) at most `budget` times.

    Stops early when the point repeats exactly or once the consecutive
    distance has stayed strictly below the bottom rung for `STOP_WINDOW`
    steps in a row.  `step_check(k, x_k, x_{k+1}, d(x_k, x_{k+1}))` may
    return the name of a violated condition; iteration stops there and the
    flag records it.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    m = space.monoid
    bottom = space.ladder.bottom
    points = [x0]
    consec: list[Any] = []
    flags: list[str] = []
    quiet = 0
    stopped = False
    violated = None
    for k in range(budget):
        cur = points[-1]
        nxt = f.apply(cur)
        d = space.distance(cur, nxt)
        points.append(nxt)
        consec.append(d)
        if step_check is not None:
            violated = step_check(k, cur, nxt, d)
            if violated is not None:
                flags.append(f"violated:{violated}")
                stopped = True
                break
        flags.append("ok")
        if space.point_eq(cur, nxt):
            stopped = True
            break
        if m.strictly_below(d, bottom):
            quiet += 1
            if quiet >= STOP_WINDOW:
                stopped = True
                break
        else:
            quiet = 0
    return IterationTrace(
        points=tuple(points),
        consec=MTrace(elements=tuple(consec), budget=budget),
        flags=tuple(flags),
        stopped_early=stopped,
        violated=violated,
    )


def verify_fixed_point(
    space: DistanceSpaceSpec, f: MapSpec, candidate: Any
) -> tuple[Any, bool]:
    """Residual distance d(candidate, f(candidate)) and whether it is strictly
    below the bottom rung."""
    residual = space.distance(candidate, f.apply(candidate))
    return residual, space.monoid.strictly_below(residual, space.ladder.bottom)


def _certify(
    space: DistanceSpaceSpec,
    f: MapSpec,
    trace: IterationTrace,
    diagnostics: list[str],
) -> SolveReport:
    candidate = trace.points[-1]
    residual, below = verify_fixed_point(space, f, candidate)
    iterations = len(trace.points) - 1
    if iterations == 1 and space.point_eq(trace.points[0], trace.points[1]):
        iterations = 0
        candidate = trace.points[0]
    status = SolveStatus.CERTIFIED if below else SolveStatus.BUDGET_EXHAUSTED
    if not below:
        diagnostics = diagnostics + [
            "residual is not strictly below the bottom rung; enlarge the budget "
            "or coarsen the ladder"
        ]
    return SolveReport(
        status=status,
        fixed_point=candidate,
        residual=residual,
        residual_below_rung=below,
        iterations=iterations,
        diagnostics=tuple(diagnostics),
        trace=trace,
    )


def _violated(
    trace: Optional[IterationTrace],
    step: int,
    condition: str,
    witness: str,
    diagnostics: Sequence[str],
) -> SolveReport:
    """A HYPOTHESIS_VIOLATED report; with no trace, after 0 iterations."""
    return SolveReport(
        status=SolveStatus.HYPOTHESIS_VIOLATED,
        iterations=0 if trace is None else max(len(trace.points) - 1, 0),
        diagnostics=tuple(diagnostics),
        violation=HypothesisViolation(step=step, condition=condition, witness=witness),
        trace=trace,
    )


def _exhausted(diagnostics: Sequence[str], trace: Optional[IterationTrace] = None) -> SolveReport:
    """A BUDGET_EXHAUSTED report with no candidate fixed point."""
    return SolveReport(SolveStatus.BUDGET_EXHAUSTED, diagnostics=tuple(diagnostics), trace=trace)


def _step_violated(
    trace: IterationTrace, witness: Callable[[IterationTrace, int], str], diagnostics: Sequence[str]
) -> SolveReport:
    """The report of a trace whose step check failed its last step;
    `witness(trace, step)` renders that step."""
    step = len(trace.flags) - 1
    return _violated(trace, step, trace.violated, witness(trace, step), diagnostics)


def _seed_trace(
    x0: Any, x1: Any, d0: Any, budget: int, violated: Optional[str] = None
) -> IterationTrace:
    """The one-step trace (x0, x1), flagged and stopped when the check of
    that step reported `violated`."""
    flags = () if violated is None else (f"violated:{violated}",)
    return IterationTrace((x0, x1), MTrace((d0,), budget), flags, violated is not None, violated)


def _noted(report: SolveReport, note: str) -> SolveReport:
    """The report with `note` appended to its diagnostics."""
    return replace(report, diagnostics=report.diagnostics + (note,))


# ---------------------------------------------------------------------------
# Meir-Keeler driver


def solve_meir_keeler(
    space: DistanceSpaceSpec,
    f: MapSpec,
    mk: MeirKeelerData,
    x0: Any,
    sample_pairs: Sequence[tuple],
    budget: int,
    midpoint_oracle: Optional[Callable[[Any, Any, Any, Any], Optional[Any]]] = None,
) -> SolveReport:
    """Epsilon-delta contraction driver.

    Verifies, on every ladder rung and every sampled pair, that
    d(x,y) <= zeta(delta, eps) implies d(f(x), f(y)) strictly below eps,
    then iterates and certifies the residual.  Uniqueness evidence (the
    rung-addition reachability of sampled pairs, and the midpoint condition
    when an oracle is supplied) is reported as diagnostics.  Each sampled
    pair is measured once, and mapped and measured again at most once, so
    f and the distance must be deterministic.
    """
    m = space.monoid
    ladder = space.ladder
    diagnostics: list[str] = []

    for eps in ladder.rungs:
        for delta in ladder.rungs:
            z = mk.zeta(eps, delta)
            if not (m.leq(eps, z) and m.leq(delta, z)):
                raise ValueError(
                    "zeta does not dominate its rung arguments: "
                    f"zeta({format_value(eps)},{format_value(delta)})={format_value(z)}"
                )

    pre_points: list = []
    for pair in sample_pairs:
        for p in pair:
            if len(pre_points) >= 12:
                break
            if not any(space.point_eq(p, q) for q in pre_points):
                pre_points.append(p)
    triples = list(itertools.islice(itertools.permutations(pre_points, 3), 256))
    if triples:
        zres = check_zeta_triangle(
            space, ZetaSpec(phi=lambda a: a, zeta=mk.zeta), triples
        )
        if not zres.ok:
            raise ValueError(
                "space fails the zeta triangle precheck: "
                + zres.failures[0].render()
            )

    dxys = [space.distance(x, y) for x, y in sample_pairs]
    dffs: list = [None] * len(sample_pairs)  # d(f(x), f(y)), measured on first use
    # The bottom rung is the ladder's truncation point: no rung below it can
    # serve as its delta, so the sampled audit covers every rung above it
    # (all of a single-rung ladder).
    audit_rungs = ladder.rungs[:-1] if len(ladder.rungs) > 1 else ladder.rungs
    for ri, eps in enumerate(audit_rungs):
        bound = mk.zeta(mk.delta_of(eps), eps)
        for i, ((x, y), dxy) in enumerate(zip(sample_pairs, dxys)):
            if m.leq(dxy, bound):
                if dffs[i] is None:
                    dffs[i] = space.distance(f.apply(x), f.apply(y))
                if not m.strictly_below(dffs[i], eps):
                    return _violated(
                        trace=IterationTrace((x0,), MTrace((), budget), ()),
                        step=-1,
                        condition="epsilon_delta_contraction",
                        witness=(
                            f"pair ({format_value(x)}, {format_value(y)}) with "
                            f"d={format_value(dxy)} <= zeta(delta,eps)={format_value(bound)} "
                            f"maps to d={format_value(dffs[i])} not strictly below rung {ri}"
                        ),
                        diagnostics=diagnostics,
                    )
    diagnostics.append(
        f"epsilon-delta contraction verified on {len(sample_pairs)} sampled pairs "
        f"and {len(audit_rungs)} rungs"
    )

    trace = picard_iterate(space, f, x0, budget)

    bottom = ladder.bottom
    # n * bottom for n = 1..64
    multiples = list(itertools.accumulate(itertools.repeat(bottom, 64), m.combine))
    reach = [
        next((n for n, acc in enumerate(multiples, 1) if m.strictly_below(dxy, acc)), 0)
        for dxy in dxys[:64]
    ]
    if 0 in reach:
        diagnostics.append(
            f"rung-addition reachability failed for {reach.count(0)} sampled pairs; "
            "uniqueness evidence incomplete"
        )
    else:
        diagnostics.append(
            f"rung-addition reachability holds on sampled pairs (max multiple {max(reach, default=0)})"
        )
    if midpoint_oracle is not None:
        ok = bad = 0
        alpha = beta = bottom
        for (x, y), dxy in zip(sample_pairs[:32], dxys):
            if m.strictly_below(dxy, multiples[1]):  # alpha + beta
                z = midpoint_oracle(x, y, alpha, beta)
                if z is not None and m.strictly_below(
                    space.distance(x, z), alpha
                ) and m.strictly_below(space.distance(z, y), beta):
                    ok += 1
                else:
                    bad += 1
        diagnostics.append(f"midpoint condition sampled: {ok} ok, {bad} failing")
    else:
        diagnostics.append("midpoint oracle not supplied; uniqueness diagnostics skipped")

    return _certify(space, f, trace, diagnostics)


# ---------------------------------------------------------------------------
# Caristi driver


def solve_caristi(
    space: DistanceSpaceSpec,
    f: MapSpec,
    cd: CaristiData,
    x0: Any,
    budget: int,
) -> SolveReport:
    """Potential-descent driver.

    Requires a Weierstrass-capable space (declared in the catalog).  At every
    orbit step verifies the descent inequality and the prefix bound
    eta(sum of consecutive distances) <= potential(x0), then certifies the
    residual at the orbit limit.
    """
    if not space.weierstrass_capable:
        raise ValueError(
            "space is not declared Weierstrass-capable; the potential-descent "
            "argument does not apply"
        )
    m = space.monoid
    diagnostics: list[str] = []
    phi0 = cd.potential(x0)
    # the prefix sum, and the potential of the current point
    running = {"sum": m.identity, "phi": phi0}

    def check(k: int, cur: Any, nxt: Any, d: Any) -> Optional[str]:
        phi = cd.potential(nxt)
        if not m.leq(m.combine(cd.eta(d), phi), running["phi"]):
            return "potential_descent"
        running["sum"], running["phi"] = m.combine(running["sum"], d), phi
        if not m.leq(cd.eta(running["sum"]), phi0):
            return "summability_bound"
        return None

    trace = picard_iterate(space, f, x0, budget, step_check=check)
    if trace.violated is not None:
        at = lambda t, k: f"at point {format_value(t.points[k])}"
        return _step_violated(trace, at, diagnostics)

    consec = trace.consec.elements
    semi_ok = all(
        m.leq(cd.eta(m.combine(a, b)), m.combine(cd.eta(a), cd.eta(b)))
        for a, b in zip(consec, consec[1:])
    )
    diagnostics.append(
        "eta semi-additivity "
        + ("holds" if semi_ok else "FAILS")
        + f" on {max(len(consec) - 1, 0)} orbit pairs"
    )
    diagnostics.append(
        "prefix sums bounded through eta by potential(x0); boundedness reflection "
        "audited on orbit prefixes only"
    )
    return _certify(space, f, trace, diagnostics)


# ---------------------------------------------------------------------------
# Sequential contraction driver


def lambda_product_trace(
    lam: LambdaSequence, alpha: Any, n_max: int, budget: Optional[int] = None
) -> MTrace:
    """Trace of composed products applied to alpha, first operator outermost.

    For commuting operator sequences the products are evaluated incrementally
    (innermost-first equals outermost-first); otherwise each prefix product is
    evaluated literally, which costs O(n_max^2) operator applications.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = []
    if lam.commuting:
        acc = alpha
        for n in range(1, n_max + 1):
            acc = lam.op_at(n)(acc)
            out.append(acc)
    else:
        for n in range(1, n_max + 1):
            v = alpha
            for i in range(n, 0, -1):
                v = lam.op_at(i)(v)
            out.append(v)
    return MTrace(elements=tuple(out), budget=n_max if budget is None else budget)


def _geometric_witness(
    lam: LambdaSequence, d0: Any, ladder: TestLadder, spec: MonoidSpec, budget: int
) -> tuple[Decision, Optional[int], Optional[tuple], Optional[tuple[int, np.ndarray]]]:
    """The decision, witness and offending window of the composed-product
    series of a matrix sequence, as `cauchy_series_window_report` gives them
    on the literal 2*budget-term trace, and (K, tail) when a proven
    geometric tail settled them at term K, else None.

    The monoid must add, order and compare float vectors entry by entry (+,
    <= and close_eq, as `solve_sequential` checks), so that its
    `strictly_below` is `below_rows`.  The terms v_n = W^n d0
    (W = lam.matrix) come one at a time from `lam.op_at(n)` on the
    carrier's own values, arrays or tuples, and are read with `np.asarray`
    (no copy of an array).
    After term K, the widened quotient h of (v_{K-1}, v_K) (`ratio_bounds`,
    v_0 = d0; its widening covers the m-term sums of a tuple operator too)
    gives W v_{K-1} <= h v_{K-1}, so v_{K+j} <= h^j v_K for W >= 0, and when
    h < 1 the terms after K sum to at most tail = v_K h / (1 - h); an
    exactly zero v_K has an exactly zero tail.  Start N is then the witness
    when
      - the right fold of v_K, ..., v_N onto `tail` is strictly below the
        bottom rung, and
      - N - 1 is ruled out: the right fold of v_K, ..., v_{N-1} alone is
        not strictly below it.
    The window check of `cauchy_series_window_report` folds its suffix sums
    in the same order from term 2*budget, so with K <= 2*budget its sum from
    N - 1 is at least the second fold and its sum from N at most the first:
    the witness is the literal one.

    The starts ruled out form a prefix that only grows with K, and only the
    start after it, the candidate, can be the witness.  Each term first
    meets scalar bounds: the quotient q at one watched entry is at most h,
    so every entry of `tail` is at least v_K q / (1 - q); a term above the
    rung at the watched entry rules out every start up to it; and every
    entry of the candidate's suffix lies between the least and the largest
    entry it had at the last exact check, plus bounds on the least and the
    largest entry of each term since (from the last usable quotients lo and
    h: lo^j v_K <= v_{K+j} <= h^j v_K).  Only a term these bounds, with a
    1e-9 relative margin for rounding, cannot exclude is checked exactly:
    its suffix sums after the ruled-out prefix move the prefix on, and the
    quotient is taken only if the new candidate can still pass.  So the
    check stops at the first K that settles the witness, and most terms
    cost one matvec and a few scalars.

    The tail stops trying when a term is not finite, a usable quotient is
    not below 1 (NaN included), every start up to the budget is ruled out,
    or its exact checks would sum more than 2*budget rows, as many as the
    window's.  The terms up to 2*budget are then finished with the same
    `lam.op_at` calls, each computed once, and the window check decides.
    A term that is not finite ends the check as NOT_NULL_WITHIN with the
    window of that term alone: every suffix sum from a start up to it holds
    it, and it makes the next term not finite at every entry.
    """
    bottom = np.asarray(ladder.bottom, dtype=float)
    value, v = d0, np.asarray(d0, dtype=float)  # the last term, as computed and as an array
    dead = ~lam.matrix.any(axis=1)
    scratch = np.empty((1, len(v)))
    margin = 1.0 + 1e-9
    band = close_band(bottom)  # below it, close_eq tells a sum from the rung
    floor, ceil = float(band.min()) / margin, float(band.max()) * margin
    terms: list = []  # as computed: arrays or tuples
    ruled = 0  # every start N <= ruled is ruled out
    summed = 0  # rows the exact checks' suffix sums have taken
    watch, base = 0, 0.0  # the candidate's suffix at the watched entry
    low, high = 0.0, math.inf  # bounds on every entry of the candidate's suffix
    least, top, lo, hi = 0.0, math.inf, 0.0, 1.0  # bounds on the entries of a term; quotients

    def hopeless() -> bool:
        """Whether the bounds rule out settling the witness at this term."""
        if not q < 1.0:
            return False
        c = q / (1.0 - q)
        tail_lo, rung = y * c, float(bottom[watch]) * margin
        return tail_lo > rung or (high < floor and (base + tail_lo > rung or low + least * c >= ceil))

    for k in range(1, 2 * budget + 1):
        prev, value = v, lam.op_at(k)(value)
        v = np.asarray(value, dtype=float)
        terms.append(value)
        if k == 1:
            watch = int(v.argmax())
        x, y = float(prev[watch]), float(v[watch])
        if not math.isfinite(y):
            break
        least, top = least * lo, top * hi
        base, low, high = base + y, low + least, high + top
        if y > bottom[watch]:  # so is every suffix that holds v_K
            ruled, base, low, high = k, 0.0, 0.0, 0.0
        if ruled >= budget:
            break
        q = y / x if x > 0.0 else 0.0
        if hopeless():
            continue
        if not np.isfinite(v).all():
            break
        window = terms[ruled:][::-1]  # v_K, ..., v_{ruled+1}
        summed += len(window)
        if summed > 2 * budget:
            break
        if window:
            sums = np.cumsum(np.array(window, dtype=float), axis=0)[::-1]
            first = first_below(sums, bottom)
            ruled += len(sums) if first is None else first
            if ruled >= budget:
                break
            suffix = np.zeros_like(v) if first is None else sums[first]
            base, low, high = float(suffix[watch]), float(suffix.min()), float(suffix.max())
        if math.isinf(top) or not hopeless():  # the first quotient seeds the term bounds
            if v.any():
                pair = ratio_bounds(prev[None], v[None], dead, scratch)
                if not pair[2][0]:
                    continue
                lo, hi = float(pair[0][0]), float(pair[1][0])
                if not hi < 1.0:
                    break
            least, top = float(v.min()), float(v.max())
        if hopeless():
            continue
        tail = v * (hi / (1.0 - hi)) if top > 0.0 else v
        bound = tail.copy()
        for term in window[: k - ruled]:
            bound += term
        if below_rows(bound, bottom):
            return Decision.NULL, ruled + 1, None, (k, tail)
        if ruled < k:  # watch the entry of the candidate's bound nearest its rung
            watch = int(np.argmax(bound - bottom))
            base = float(suffix[watch])
    while len(terms) < 2 * budget and np.isfinite(v).all():
        value = lam.op_at(len(terms) + 1)(value)
        v = np.asarray(value, dtype=float)
        terms.append(value)
    bad = next((n for n, term in enumerate(terms, 1) if not np.isfinite(term).all()), None)
    if bad is not None:
        return Decision.NOT_NULL_WITHIN, None, (bad, bad, terms[bad - 1]), None
    return (*cauchy_series_window_report(MTrace(tuple(terms), budget), ladder, spec), None)


SEQ_MODES = ("series", "orbit_bounded")


def _step_witness(trace: IterationTrace, step: int) -> str:
    """What the violated condition says of the step (x_k, x_k+1); the
    distance of that step for a condition of the caller's own."""
    condition, points = trace.violated, trace.points
    if condition == "chain_monotonicity":
        x, y = format_value(points[step]), format_value(points[step + 1])
        return f"x_{step}={x} is not below x_{step + 1}={y}"
    if condition == "non_finite_iterate":
        return f"x_{step + 1}={format_value(points[step + 1])} is not finite"
    d = f"d(x_{step}, x_{step + 1})={format_value(trace.consec.elements[step])}"
    return f"{d} escapes the step operator bound" if condition == "graduated_contraction" else d


def solve_sequential(
    space: DistanceSpaceSpec,
    f: MapSpec,
    lam: LambdaSequence,
    x0: Any,
    mode: str,
    budget: int,
    second_seed: Optional[Any] = None,
    extra_step_check: Optional[Callable[[int, Any, Any], Optional[str]]] = None,
) -> SolveReport:
    """Orbitwise contraction driver through a sequence of monotone operators.

    mode="series": requires the composed-product trace applied to d(x0, f(x0))
    to pass the Cauchy-series check (witness within `budget`, evidence to
    2*budget); each step is audited against
    d(x_n, x_{n+1}) <= lam_n(d(x_{n-1}, x_n)).  When `lam.matrix` is set over
    an elementwise monoid of float vectors (arrays or tuples),
    `_geometric_witness` is the one decider of the series: it stops at the
    first term whose geometric tail bound settles the literal witness, and
    otherwise finishes the literal check on the terms it computed.  Any
    other series is decided on `lambda_product_trace`.
    mode="orbit_bounded": requires a constructible bound on sampled orbit pair
    distances and a null composed-product trace at that bound; the stepwise
    existential contraction is witness-searched and reported as diagnostics.
    `extra_step_check` runs once on every step, the seed step (x0, f(x0))
    first, before its distance is used.  f is applied to x0 and that step is
    measured once: the orbits from x0 reuse both, so f and the distance must
    be deterministic.
    """
    if mode not in SEQ_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = space.monoid
    ladder = space.ladder
    diagnostics: list[str] = []
    apply, distance = f.apply, space.distance
    x1 = apply(x0)
    d0 = distance(x0, x1)
    # every orbit from x0 starts with this step: take and measure it once
    f = replace(f, apply=lambda x: x1 if x is x0 else apply(x))
    space = replace(space, distance=lambda x, y: d0 if x is x0 and y is x1 else distance(x, y))
    violated = extra_step_check(0, x0, x1) if extra_step_check is not None else None
    if violated is not None:
        return _step_violated(_seed_trace(x0, x1, d0, budget, violated), _step_witness, diagnostics)

    ordered_pairs = [
        (ladder.bottom, m.combine(ladder.bottom, ladder.bottom)),
        (ladder.bottom, m.combine(d0, ladder.bottom)),
        (d0, m.combine(d0, ladder.bottom)),
        (d0, m.combine(d0, d0)),
    ]
    checked: list = []
    for n in (1, 2, 3):
        op = lam.op_at(n)
        if any(op is seen for seen in checked):
            continue
        checked.append(op)
        for lo, hi in ordered_pairs:
            a, b = op(lo), op(hi)
            if not (m.leq(a, b) or m.eq(a, b)):
                raise ValueError(
                    f"step operator {n} is not order-preserving on sampled pairs"
                )

    if mode == "series":
        if m.eq(d0, m.identity):
            diagnostics.append("seed is already fixed; series check trivial")
        else:
            # the tail bound needs float vectors: entrywise +, <= and close_eq
            if lam.matrix is not None and m.elementwise and not isinstance(m.identity, float):
                decision, witness, offending, _ = _geometric_witness(lam, d0, ladder, m, budget)
            else:
                ptrace = lambda_product_trace(lam, d0, 2 * budget, budget=budget)
                decision, witness, offending = cauchy_series_window_report(ptrace, ladder, m)
            if decision is not Decision.NULL:  # a trace of 2*budget >= 1 terms has a window
                n0, n1, s = offending
                diagnostics.append(
                    f"window [{n0},{n1}] of the composed-product series sums to "
                    f"{format_value(s)}, not strictly below the bottom rung"
                )
                return _exhausted(diagnostics)
            diagnostics.append(
                f"composed-product series is Cauchy within budget (witness N={witness})"
            )
    else:
        probe = picard_iterate(space, f, x0, min(budget, 48))
        pts = probe.points[: min(len(probe.points), 24)]
        dists = [
            space.distance(a, b) for a, b in itertools.combinations(pts, 2)
        ] or [d0]
        bound = is_bounded(dists, m)
        if bound is None:
            return _violated(
                probe,
                step=-1,
                condition="orbit_bounded",
                witness="no common upper bound found for sampled orbit pair distances",
                diagnostics=diagnostics,
            )
        diagnostics.append(f"orbit pair distances bounded by {format_value(bound)}")
        if not m.eq(bound, m.identity):
            ptrace = lambda_product_trace(lam, bound, 2 * budget, budget=budget)
            if is_null_trace(ptrace, ladder, m) is not Decision.NULL:
                diagnostics.append(
                    "composed products applied to the orbit bound do not become null "
                    "within budget"
                )
                return _exhausted(diagnostics, probe)
            diagnostics.append("composed products at the orbit bound are null within budget")

    prev_d = {"d": None}

    def series_check(k: int, cur: Any, nxt: Any, d: Any) -> Optional[str]:
        if extra_step_check is not None and k > 0:  # the seed step is checked above
            issue = extra_step_check(k, cur, nxt)
            if issue is not None:
                return issue
        if mode == "series" and prev_d["d"] is not None:
            allowed = lam.op_at(k)(prev_d["d"])
            if not (m.leq(d, allowed) or m.eq(d, allowed)):
                return "graduated_contraction"
        prev_d["d"] = d
        return None

    trace = picard_iterate(space, f, x0, budget, step_check=series_check)
    if trace.violated is not None:
        return _step_violated(trace, _step_witness, diagnostics)

    if mode == "orbit_bounded":
        pts = trace.points
        witnessed = 0
        missing = 0
        for n in (1, 2, min(4, len(pts) - 1)):
            if n < 1 or n + 1 >= len(pts):
                continue
            x, y = pts[n], pts[min(n + 1, len(pts) - 1)]
            target = space.distance(x, y)
            found = any(
                m.leq(target, lam.op_at(n)(space.distance(a, b)))
                for a, b in itertools.combinations(pts[n - 1 :], 2)
            )
            witnessed += int(found)
            missing += int(not found)
        diagnostics.append(
            f"stepwise contraction witnesses found for {witnessed} sampled tail pairs"
            + (f", {missing} not witnessed within the computed prefix" if missing else "")
        )

    report = _certify(space, f, trace, diagnostics)

    if second_seed is not None and report.status is SolveStatus.CERTIFIED:
        other = picard_iterate(space, f, second_seed, budget)
        cross = [
            space.distance(a, b)
            for a, b in zip(trace.points[-4:], other.points[-4:])
        ]
        cross_bound = is_bounded(cross, m)
        agree = m.strictly_below(
            space.distance(report.fixed_point, other.points[-1]), ladder.bottom
        )
        report = _noted(
            report,
            "second-seed orbit "
            + ("agrees within the bottom rung" if agree else "DISAGREES")
            + (
                f"; cross distances bounded by {format_value(cross_bound)}"
                if cross_bound is not None
                else "; cross distances admit no constructed bound"
            ),
        )
    return report


# ---------------------------------------------------------------------------
# Monotone driver


def solve_monotone(
    space: DistanceSpaceSpec,
    f: MapSpec,
    lam: LambdaSequence,
    x0: Any,
    mode: str,
    budget: int,
    second_seed: Optional[Any] = None,
    point_sup: Optional[Callable[[Any, Any], Any]] = None,
    extra_step_check: Optional[Callable[[int, Any, Any], Optional[str]]] = None,
) -> SolveReport:
    """Order-monotone driver: checks the seed inequality x0 <= f(x0) and chain
    monotonicity at every step, then runs the sequential machinery.

    With a point supremum and a second seed, uniqueness evidence comes from
    iterating from the supremum of the two candidates.  `extra_step_check`
    runs as in `solve_sequential`, on the seed step before the seed
    inequality and on every step before chain monotonicity.
    """
    if f.order_leq is None:
        raise ValueError("monotone driver needs a MapSpec with order_leq")
    if not space.regular_order:
        raise ValueError(
            "space is not declared order-regular; monotone convergence does not apply"
        )
    leq = f.order_leq
    fx0 = f.apply(x0)
    issue = extra_step_check(0, x0, fx0) if extra_step_check is not None else None
    if issue is not None or not leq(x0, fx0):
        seed = _seed_trace(x0, fx0, space.distance(x0, fx0), budget, issue)
        if issue is not None:
            return _step_violated(seed, lambda t, k: f"f(x0)={format_value(fx0)}", ())
        witness = f"x0={format_value(x0)} is not below f(x0)={format_value(fx0)}"
        return _violated(seed, 0, "seed_order", witness, ())

    def chain_check(k: int, cur: Any, nxt: Any) -> Optional[str]:
        if k == 0:  # the seed step is checked above
            return None
        issue = extra_step_check(k, cur, nxt) if extra_step_check is not None else None
        if issue is None and not leq(cur, nxt):
            return "chain_monotonicity"
        return issue

    # the seed step is taken: solve_sequential reads it from this map
    seeded = replace(f, apply=lambda x: fx0 if x is x0 else f.apply(x))
    report = solve_sequential(space, seeded, lam, x0, mode, budget, extra_step_check=chain_check)

    if report.status is SolveStatus.CERTIFIED:
        # the seed check and chain_check ordered every step of a certified orbit
        report = _noted(report, "orbit chain totally ordered")
        if second_seed is not None and point_sup is not None:
            top = point_sup(report.fixed_point, second_seed)
            probe = picard_iterate(space, f, top, budget)
            agree = space.monoid.strictly_below(
                space.distance(report.fixed_point, probe.points[-1]), space.ladder.bottom
            )
            report = _noted(
                report,
                "supremum-seeded orbit "
                + ("reaches the same fixed point" if agree else "reaches a DIFFERENT point"),
            )
    return report


# ---------------------------------------------------------------------------
# Driver dispatch

# The drivers by library name.  The command line spells meir_keeler as
# meir-keeler; both spellings work.
_DRIVER_NAMES = ("meir_keeler", "caristi", "sequential", "monotone")
CLI_DRIVER_NAMES = tuple(name.replace("_", "-") for name in _DRIVER_NAMES)


def _checked_driver(name: str, data: Mapping[str, Any]) -> str:
    """The library name of a driver name.  Raises ValueError for an unknown
    name and when the datum that driver reads is missing from `data` or None."""
    key = name.replace("-", "_")
    if key not in _DRIVER_NAMES:
        raise ValueError(f"unknown driver {name!r}; expected one of {', '.join(_DRIVER_NAMES)}")
    needed = key if key in ("caristi", "meir_keeler") else "lam"
    if data.get(needed) is None:
        raise ValueError(f"driver {name!r} needs {needed}, which was not given")
    return key


def solve_with_driver(
    driver: str,
    space: DistanceSpaceSpec,
    f: MapSpec,
    x0: Any,
    budget: int,
    *,
    lam: Optional[LambdaSequence] = None,
    mode: str = "series",
    caristi: Optional[CaristiData] = None,
    meir_keeler: Optional[MeirKeelerData] = None,
    sample_pairs: Sequence[tuple] = (),
) -> SolveReport:
    """Run the named driver on the data it reads: `lam` and `mode` (sequential,
    monotone), `caristi`, or `meir_keeler` and `sample_pairs`.  An unknown
    driver name, or a missing `lam`, `caristi` or `meir_keeler` for the
    driver that reads it, raises ValueError."""
    key = _checked_driver(driver, {"lam": lam, "caristi": caristi, "meir_keeler": meir_keeler})
    if key == "meir_keeler":
        return solve_meir_keeler(space, f, meir_keeler, x0, list(sample_pairs), budget)
    if key == "caristi":
        return solve_caristi(space, f, caristi, x0, budget)
    solve = solve_sequential if key == "sequential" else solve_monotone
    return solve(space, f, lam, x0, mode, budget)


# ---------------------------------------------------------------------------
# Parametrized families


@dataclass(frozen=True)
class ParamResult:
    reports: dict
    admissible: Optional[bool]
    diagnostics: tuple[str, ...] = ()


def solve_parametrized(
    family: Callable[[Any, Any], Any],
    omegas: Sequence[Any],
    driver: str,
    space: DistanceSpaceSpec,
    x0: Any,
    budget: int,
    *,
    admissible: Optional[Callable[[Mapping[Any, Any]], bool]] = None,
    **driver_data: Any,
) -> ParamResult:
    """Solve x = family(omega, x) for each parameter value independently.

    Each row runs `solve_with_driver(driver, space, f, x0, budget,
    **driver_data)`; `driver` is sequential, caristi or meir_keeler
    (meir-keeler also works), and `x0` may be a point or a callable of the
    parameter.  Per-parameter failures are isolated into their own reports.
    When every row certifies, the admissibility predicate (if any) is
    evaluated on the assembled parameter -> fixed point table.  An unknown
    driver, the monotone driver (it needs a point order, which a family
    does not carry), or a driver whose datum (`lam`, `caristi` or
    `meir_keeler`) is missing raises ValueError before any row is solved.
    """
    if _checked_driver(driver, driver_data) == "monotone":
        raise ValueError("the monotone driver needs a point order; a family has none")
    reports: dict = {}
    for omega in omegas:
        fmap = MapSpec(apply=lambda x, _o=omega: family(_o, x))
        start = x0(omega) if callable(x0) else x0
        try:
            rep = solve_with_driver(driver, space, fmap, start, budget, **driver_data)
        except ValueError as exc:
            rep = _violated(None, -1, "precondition", "", [f"precondition failed: {exc}"])
        reports[omega] = rep

    verdict = None
    diagnostics: list[str] = []
    if admissible is not None:
        if all(r.status is SolveStatus.CERTIFIED for r in reports.values()):
            table = {o: r.fixed_point for o, r in reports.items()}
            verdict = bool(admissible(table))
            diagnostics.append(f"admissibility predicate: {verdict}")
        else:
            diagnostics.append(
                "admissibility not evaluated: some rows failed to certify"
            )
    return ParamResult(
        reports=reports, admissible=verdict, diagnostics=tuple(diagnostics)
    )

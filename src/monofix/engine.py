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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Sequence

from ._util import format_value, generic_eq
from .monoid import (
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
    description: str = ""


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
    products are computed literally in outermost-first order.
    """

    op_at: Callable[[int], Callable[[Any], Any]]
    commuting: bool = False
    description: str = ""

    @classmethod
    def constant(cls, op: Callable[[Any], Any], description: str = "") -> "LambdaSequence":
        return cls(op_at=lambda n: op, commuting=True, description=description)


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


def picard_iterate(
    space: DistanceSpaceSpec,
    f: MapSpec,
    x0: Any,
    budget: int,
    stop_window: int = 3,
    step_check: Optional[Callable[[int, Any, Any], Optional[str]]] = None,
) -> IterationTrace:
    """Iterate x -> f(x) at most `budget` times.

    Stops early when the point repeats exactly or once the consecutive
    distance has stayed strictly below the bottom rung for `stop_window`
    steps in a row.  `step_check(k, x_k, x_{k+1})` may return the name of a
    violated condition; iteration stops there and the flag records it.
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
            violated = step_check(k, cur, nxt)
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
            if quiet >= stop_window:
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
    trace: IterationTrace, step: int, condition: str, witness: str, diagnostics: list[str]
) -> SolveReport:
    return SolveReport(
        status=SolveStatus.HYPOTHESIS_VIOLATED,
        iterations=max(len(trace.points) - 1, 0),
        diagnostics=tuple(diagnostics),
        violation=HypothesisViolation(step=step, condition=condition, witness=witness),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Meir-Keeler driver


def solve_meir_keeler(
    space: DistanceSpaceSpec,
    f: MapSpec,
    mk: MeirKeelerData,
    x0: Any,
    sample_pairs: Sequence[tuple],
    budget: int,
    stop_window: int = 3,
    midpoint_oracle: Optional[Callable[[Any, Any, Any, Any], Optional[Any]]] = None,
) -> SolveReport:
    """Epsilon-delta contraction driver.

    Verifies, on every ladder rung and every sampled pair, that
    d(x,y) <= zeta(delta, eps) implies d(f(x), f(y)) strictly below eps,
    then iterates and certifies the residual.  Uniqueness evidence (the
    rung-addition reachability of sampled pairs, and the midpoint condition
    when an oracle is supplied) is reported as diagnostics.
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
    triples = list(itertools.permutations(pre_points, 3))[:256]
    if triples:
        zres = check_zeta_triangle(
            space, ZetaSpec(phi=lambda a: a, zeta=mk.zeta), triples
        )
        if not zres.ok:
            raise ValueError(
                "space fails the zeta triangle precheck: "
                + zres.failures[0].render()
            )

    # The bottom rung is the ladder's truncation point: no rung below it can
    # serve as its delta, so the sampled audit covers every rung above it
    # (all of a single-rung ladder).
    audit_rungs = ladder.rungs[:-1] if len(ladder.rungs) > 1 else ladder.rungs
    for ri, eps in enumerate(audit_rungs):
        delta = mk.delta_of(eps)
        bound = mk.zeta(delta, eps)
        for x, y in sample_pairs:
            dxy = space.distance(x, y)
            if m.leq(dxy, bound):
                dff = space.distance(f.apply(x), f.apply(y))
                if not m.strictly_below(dff, eps):
                    return _violated(
                        trace=IterationTrace((x0,), MTrace((), budget), ()),
                        step=-1,
                        condition="epsilon_delta_contraction",
                        witness=(
                            f"pair ({format_value(x)}, {format_value(y)}) with "
                            f"d={format_value(dxy)} <= zeta(delta,eps)={format_value(bound)} "
                            f"maps to d={format_value(dff)} not strictly below rung {ri}"
                        ),
                        diagnostics=diagnostics,
                    )
    diagnostics.append(
        f"epsilon-delta contraction verified on {len(sample_pairs)} sampled pairs "
        f"and {len(audit_rungs)} rungs"
    )

    trace = picard_iterate(space, f, x0, budget, stop_window)

    bottom = ladder.bottom
    reach_max = 0
    reach_fail = 0
    for x, y in sample_pairs[:64]:
        dxy = space.distance(x, y)
        acc = bottom
        n = 1
        while n <= 64 and not m.strictly_below(dxy, acc):
            acc = m.combine(acc, bottom)
            n += 1
        if n > 64:
            reach_fail += 1
        else:
            reach_max = max(reach_max, n)
    if reach_fail:
        diagnostics.append(
            f"rung-addition reachability failed for {reach_fail} sampled pairs; "
            "uniqueness evidence incomplete"
        )
    else:
        diagnostics.append(
            f"rung-addition reachability holds on sampled pairs (max multiple {reach_max})"
        )
    if midpoint_oracle is not None:
        ok = 0
        bad = 0
        alpha = beta = bottom
        for x, y in sample_pairs[:32]:
            if m.strictly_below(space.distance(x, y), m.combine(alpha, beta)):
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
    stop_window: int = 3,
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
    running = {"sum": m.identity}

    def check(k: int, cur: Any, nxt: Any) -> Optional[str]:
        d = space.distance(cur, nxt)
        lhs = m.combine(cd.eta(d), cd.potential(nxt))
        if not m.leq(lhs, cd.potential(cur)):
            return "potential_descent"
        running["sum"] = m.combine(running["sum"], d)
        if not m.leq(cd.eta(running["sum"]), phi0):
            return "summability_bound"
        return None

    trace = picard_iterate(space, f, x0, budget, stop_window, step_check=check)
    if trace.violated is not None:
        step = len(trace.flags) - 1
        return _violated(
            trace,
            step=step,
            condition=trace.violated,
            witness=f"at point {format_value(trace.points[step])}",
            diagnostics=diagnostics,
        )

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


SEQ_MODES = ("series", "orbit_bounded")


def solve_sequential(
    space: DistanceSpaceSpec,
    f: MapSpec,
    lam: LambdaSequence,
    x0: Any,
    mode: str,
    budget: int,
    stop_window: int = 3,
    second_seed: Optional[Any] = None,
    extra_step_check: Optional[Callable[[int, Any, Any], Optional[str]]] = None,
) -> SolveReport:
    """Orbitwise contraction driver through a sequence of monotone operators.

    mode="series": requires the composed-product trace applied to d(x0, f(x0))
    to pass the Cauchy-series check (witness within `budget`, evidence to
    2*budget); each step is audited against
    d(x_n, x_{n+1}) <= lam_n(d(x_{n-1}, x_n)).
    mode="orbit_bounded": requires a constructible bound on sampled orbit pair
    distances and a null composed-product trace at that bound; the stepwise
    existential contraction is witness-searched and reported as diagnostics.
    """
    if mode not in SEQ_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = space.monoid
    ladder = space.ladder
    diagnostics: list[str] = []
    d0 = space.distance(x0, f.apply(x0))
    horizon = 2 * budget

    ordered_pairs = [
        (ladder.bottom, m.combine(ladder.bottom, ladder.bottom)),
        (ladder.bottom, m.combine(d0, ladder.bottom)),
        (d0, m.combine(d0, ladder.bottom)),
        (d0, m.combine(d0, d0)),
    ]
    for n in (1, 2, 3):
        op = lam.op_at(n)
        for lo, hi in ordered_pairs:
            if not (m.leq(op(lo), op(hi)) or m.eq(op(lo), op(hi))):
                raise ValueError(
                    f"step operator {n} is not order-preserving on sampled pairs"
                )

    if mode == "series":
        if m.eq(d0, m.identity):
            diagnostics.append("seed is already fixed; series check trivial")
        else:
            ptrace = lambda_product_trace(lam, d0, horizon, budget=budget)
            decision, witness, offending = cauchy_series_window_report(
                ptrace, ladder, m
            )
            if decision is not Decision.NULL:
                detail = ""
                if offending is not None:
                    n0, n1, s = offending
                    detail = (
                        f"window [{n0},{n1}] of the composed-product series sums to "
                        f"{format_value(s)}, not strictly below the bottom rung"
                    )
                diagnostics.append(detail or "composed-product series check failed")
                return SolveReport(
                    status=SolveStatus.BUDGET_EXHAUSTED, diagnostics=tuple(diagnostics)
                )
            diagnostics.append(
                f"composed-product series is Cauchy within budget (witness N={witness})"
            )
    else:
        probe = picard_iterate(space, f, x0, min(budget, 48), stop_window)
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
            ptrace = lambda_product_trace(lam, bound, horizon, budget=budget)
            if is_null_trace(ptrace, ladder, m) is not Decision.NULL:
                diagnostics.append(
                    "composed products applied to the orbit bound do not become null "
                    "within budget"
                )
                return SolveReport(
                    status=SolveStatus.BUDGET_EXHAUSTED,
                    diagnostics=tuple(diagnostics),
                    trace=probe,
                )
            diagnostics.append("composed products at the orbit bound are null within budget")

    prev_d = {"d": None}

    def series_check(k: int, cur: Any, nxt: Any) -> Optional[str]:
        if extra_step_check is not None:
            issue = extra_step_check(k, cur, nxt)
            if issue is not None:
                return issue
        d = space.distance(cur, nxt)
        if mode == "series" and prev_d["d"] is not None:
            allowed = lam.op_at(k)(prev_d["d"])
            if not (m.leq(d, allowed) or m.eq(d, allowed)):
                return "graduated_contraction"
        prev_d["d"] = d
        return None

    trace = picard_iterate(space, f, x0, budget, stop_window, step_check=series_check)
    if trace.violated is not None:
        step = len(trace.flags) - 1
        return _violated(
            trace,
            step=step,
            condition=trace.violated,
            witness=(
                f"d(x_{step}, x_{step + 1})={format_value(trace.consec.elements[step])} "
                "escapes the step operator bound"
            ),
            diagnostics=diagnostics,
        )

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
        other = picard_iterate(space, f, second_seed, budget, stop_window)
        cross = [
            space.distance(a, b)
            for a, b in zip(trace.points[-4:], other.points[-4:])
        ]
        cross_bound = is_bounded(cross, m)
        agree = m.strictly_below(
            space.distance(report.fixed_point, other.points[-1]), ladder.bottom
        )
        extra = list(report.diagnostics)
        extra.append(
            "second-seed orbit "
            + ("agrees within the bottom rung" if agree else "DISAGREES")
            + (
                f"; cross distances bounded by {format_value(cross_bound)}"
                if cross_bound is not None
                else "; cross distances admit no constructed bound"
            )
        )
        report = replace(report, diagnostics=tuple(extra))
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
    stop_window: int = 3,
    second_seed: Optional[Any] = None,
    point_sup: Optional[Callable[[Any, Any], Any]] = None,
) -> SolveReport:
    """Order-monotone driver: checks the seed inequality x0 <= f(x0) and chain
    monotonicity at every step, then runs the sequential machinery.

    With a point supremum and a second seed, uniqueness evidence comes from
    iterating from the supremum of the two candidates.
    """
    if f.order_leq is None:
        raise ValueError("monotone driver needs a MapSpec with order_leq")
    if not space.regular_order:
        raise ValueError(
            "space is not declared order-regular; monotone convergence does not apply"
        )
    leq = f.order_leq
    fx0 = f.apply(x0)
    if not leq(x0, fx0):
        return _violated(
            IterationTrace((x0, fx0), MTrace((space.distance(x0, fx0),), budget), ()),
            step=0,
            condition="seed_order",
            witness=f"x0={format_value(x0)} is not below f(x0)={format_value(fx0)}",
            diagnostics=[],
        )

    def chain_check(k: int, cur: Any, nxt: Any) -> Optional[str]:
        if not leq(cur, nxt):
            return "chain_monotonicity"
        return None

    report = solve_sequential(
        space,
        f,
        lam,
        x0,
        mode,
        budget,
        stop_window,
        second_seed=None,
        extra_step_check=chain_check,
    )

    if report.status is SolveStatus.CERTIFIED and report.trace is not None:
        pts = report.trace.points
        ordered = all(leq(a, b) for a, b in zip(pts, pts[1:]))
        extra = list(report.diagnostics)
        extra.append("orbit chain totally ordered" if ordered else "orbit chain NOT ordered")
        if second_seed is not None and point_sup is not None:
            top = point_sup(report.fixed_point, second_seed)
            probe = picard_iterate(space, f, top, budget, stop_window)
            agree = space.monoid.strictly_below(
                space.distance(report.fixed_point, probe.points[-1]), space.ladder.bottom
            )
            extra.append(
                "supremum-seeded orbit "
                + ("reaches the same fixed point" if agree else "reaches a DIFFERENT point")
            )
        report = replace(report, diagnostics=tuple(extra))
    return report


# ---------------------------------------------------------------------------
# Driver dispatch

# Adapters by library name, each with the datum it cannot run without.  Each
# looks its driver up in this module when called, so a wrapper installed on
# the module attribute sees the call.
_DRIVERS: dict[str, tuple[str, Callable[..., SolveReport]]] = {
    "meir_keeler": (
        "meir_keeler",
        lambda space, f, x0, budget, data: solve_meir_keeler(
            space, f, data["meir_keeler"], x0, list(data["sample_pairs"]), budget
        ),
    ),
    "caristi": (
        "caristi",
        lambda space, f, x0, budget, data: solve_caristi(space, f, data["caristi"], x0, budget),
    ),
    "sequential": (
        "lam",
        lambda space, f, x0, budget, data: solve_sequential(
            space, f, data["lam"], x0, data["mode"], budget
        ),
    ),
    "monotone": (
        "lam",
        lambda space, f, x0, budget, data: solve_monotone(
            space, f, data["lam"], x0, data["mode"], budget
        ),
    ),
}

# The command line spells meir_keeler as meir-keeler; both spellings work.
CLI_DRIVER_NAMES = tuple(name.replace("_", "-") for name in _DRIVERS)


def _driver_key(name: str, data: Mapping[str, Any]) -> str:
    """The table key of a driver name.  Raises ValueError for an unknown name
    and when `data` lacks the datum that driver reads."""
    key = name.replace("-", "_")
    if key not in _DRIVERS:
        raise ValueError(f"unknown driver {name!r}; expected one of {', '.join(_DRIVERS)}")
    needed = _DRIVERS[key][0]
    if data[needed] is None:
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
    data = dict(
        lam=lam, mode=mode, caristi=caristi, meir_keeler=meir_keeler, sample_pairs=sample_pairs
    )
    return _DRIVERS[_driver_key(driver, data)][1](space, f, x0, budget, data)


# ---------------------------------------------------------------------------
# Parametrized families


@dataclass(frozen=True)
class ParamConfig:
    """How to solve each member of a parametrized family.

    `driver` is sequential, caristi or meir_keeler (meir-keeler also works);
    the data fields feed that driver, as in `solve_with_driver`.  The
    monotone driver is not available here: it needs a point order, which a
    ParamConfig does not carry.  `x0` may be a point or a callable of the
    parameter.  `admissible` is an optional predicate over the assembled
    parameter -> fixed point table.
    """

    space: DistanceSpaceSpec
    driver: str = "sequential"
    x0: Any = None
    budget: int = 200
    mode: str = "series"
    lam: Optional[LambdaSequence] = None
    caristi: Optional[CaristiData] = None
    meir_keeler: Optional[MeirKeelerData] = None
    sample_pairs: tuple = ()
    admissible: Optional[Callable[[Mapping[Any, Any]], bool]] = None


@dataclass(frozen=True)
class ParamResult:
    reports: dict
    admissible: Optional[bool]
    diagnostics: tuple[str, ...] = ()


def solve_parametrized(
    family: Callable[[Any, Any], Any],
    omegas: Sequence[Any],
    config: ParamConfig,
) -> ParamResult:
    """Solve x = family(omega, x) for each parameter value independently.

    Per-parameter failures are isolated into their own reports.  When every
    row certifies, the admissibility predicate (if any) is evaluated on the
    assembled fixed-point table.  An unknown driver, the monotone driver, or
    a driver whose datum (`lam`, `caristi` or `meir_keeler`) is missing
    raises ValueError before any row is solved.
    """
    data = dict(
        lam=config.lam,
        mode=config.mode,
        caristi=config.caristi,
        meir_keeler=config.meir_keeler,
        sample_pairs=config.sample_pairs,
    )
    if _driver_key(config.driver, data) == "monotone":
        raise ValueError("the monotone driver needs a point order; ParamConfig has none")
    reports: dict = {}
    for omega in omegas:
        fmap = MapSpec(apply=lambda x, _o=omega: family(_o, x), description=f"omega={omega}")
        x0 = config.x0(omega) if callable(config.x0) else config.x0
        try:
            rep = solve_with_driver(config.driver, config.space, fmap, x0, config.budget, **data)
        except ValueError as exc:
            rep = SolveReport(
                status=SolveStatus.HYPOTHESIS_VIOLATED,
                diagnostics=(f"precondition failed: {exc}",),
                violation=HypothesisViolation(step=-1, condition="precondition"),
            )
        reports[omega] = rep

    admissible = None
    diagnostics: list[str] = []
    if config.admissible is not None:
        if all(r.status is SolveStatus.CERTIFIED for r in reports.values()):
            table = {o: r.fixed_point for o, r in reports.items()}
            admissible = bool(config.admissible(table))
            diagnostics.append(f"admissibility predicate: {admissible}")
        else:
            diagnostics.append(
                "admissibility not evaluated: some rows failed to certify"
            )
    return ParamResult(
        reports=reports, admissible=admissible, diagnostics=tuple(diagnostics)
    )

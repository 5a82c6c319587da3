"""Monoid-valued distance spaces, convergence detectors, and falsifiers.

A `DistanceSpaceSpec` couples a point carrier with a symmetric positive
distance into a partially ordered monoid, a declared kind (dislocated,
distance, or pseudo), and a test ladder.  Detectors reduce sequence questions
to trace decisions; falsifiers search for counterexamples to the
Frechet-Wilson chain properties and are one-sided: they can prove violation,
never satisfaction.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from ._rng import FIRST_ALONE, child_rng, choice_indices, first_occurrences
from ._util import below_rows, close_rows, format_value, generic_eq, leq_rows
from .monoid import (
    RELATIONAL,
    MonoidSpec,
    MTrace,
    TestLadder,
    _rows,
    _tail_decision,
    cauchy_series_check,
    is_null_trace,
)
from .reporting import CheckResult, Counterexample, Decision, ValidationReport


class SpaceKind(str, Enum):
    DISLOCATED = "dislocated"
    DISTANCE = "distance"
    PSEUDO = "pseudo"


# Rank used when combining spaces: a product can only promise the weakest
# guarantee among its factors.
_KIND_RANK = {SpaceKind.PSEUDO: 0, SpaceKind.DISLOCATED: 1, SpaceKind.DISTANCE: 2}


@dataclass(frozen=True)
class DistanceSpaceSpec:
    """A point carrier with a symmetric monoid-valued distance.

    The capability flags are catalog declarations, not derived facts:
    `weierstrass_capable` marks (monoid, ladder) pairs where bounded partial
    sums force Cauchy series, and `regular_order`/`co_regular_order` mark
    spaces whose convergence respects a point order from below/above.

    `distance` and `point_eq` must be deterministic: the validators decide
    each distinct draw once and give its repeats the same verdict, and over
    a relational monoid equal distances get one verdict.
    """

    point_descr: str
    distance: Callable[[Any, Any], Any]
    kind: SpaceKind
    monoid: MonoidSpec
    ladder: TestLadder
    point_eq: Callable[[Any, Any], bool] = generic_eq
    weierstrass_capable: bool = False
    regular_order: bool = False
    co_regular_order: bool = False


@dataclass(frozen=True)
class ZetaSpec:
    """A relaxed triangle combiner: phi(d(x,y)) <= zeta(d(x,z), d(z,y)).

    `zeta` must send pairs of null traces to null traces and `phi` must
    reflect null traces; both are checked on a finite battery by
    `validate_zeta`, not proven.  Both must be deterministic: over a
    relational monoid equal distances get one verdict.
    """

    phi: Callable[[Any], Any]
    zeta: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class PointTrace:
    """A finite orbit prefix with its derived consecutive-distance trace."""

    points: tuple
    consec: MTrace

    @classmethod
    def from_points(
        cls, space: DistanceSpaceSpec, points: Sequence[Any], budget: Optional[int] = None
    ) -> "PointTrace":
        points = tuple(points)
        if not points:
            raise ValueError("point trace needs at least one point")
        consec = tuple(
            space.distance(points[i], points[i + 1]) for i in range(len(points) - 1)
        )
        b = budget if budget is not None else max(len(points), 1)
        return cls(points=points, consec=MTrace(elements=consec, budget=b))

    @property
    def budget(self) -> int:
        return self.consec.budget

    def __len__(self) -> int:
        return len(self.points)


def validate_space(
    space: DistanceSpaceSpec,
    samples: Sequence[Any],
    trials: int,
    seed: int = 0,
) -> ValidationReport:
    """Sampled audit of symmetry, positivity, and the declared kind axioms.

    A sampled check's trial takes the points that `rng.choice(samples)`
    would pick, two per trial for the pair checks and one for
    `equal_implies_zero`.  Every ordered pair of samples is measured once
    per call, in row order, and each check is one boolean table over those
    distances: on stacked rows over an elementwise monoid, else one `eq` or
    `is_positive` per entry, with `point_eq` only where a distance equals
    the identity.  Each check draws the indices of all its trials at once
    (`choice_indices`), fails on the first trial whose draw indexes a False
    entry, and leaves `rng` where the per-trial loop would stop: after the
    failing trial, or after the last.  So the draws, verdicts and
    counterexamples are those of the per-trial loop.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not samples:
        raise ValueError("samples must be non-empty")
    rng = child_rng(seed, "validate_space")
    samples = list(samples)
    n, m = len(samples), space.monoid
    d = [space.distance(x, y) for x in samples for y in samples]  # d[i * n + j] = d(x_i, x_j)
    if m.elementwise:
        rows, identity = _rows(d).reshape(n, n, -1), _rows([m.identity])
        symmetric, positive = close_rows(rows, rows.swapaxes(0, 1)), leq_rows(identity, rows)
        zero = close_rows(rows, identity)
    else:
        table = lambda f, *args: np.fromiter(map(f, *args), bool, n * n).reshape(n, n)
        symmetric = table(m.eq, d, [d[j * n + i] for i in range(n) for j in range(n)])
        positive, zero = table(m.is_positive, d), table(m.eq, d, itertools.repeat(m.identity))
    checks: list[CheckResult] = []

    def sampled(name: str, ok: np.ndarray, issue: Callable[..., str]) -> None:
        k = ok.ndim  # points per trial
        idx, settle = choice_indices(rng, n, trials * k)
        bad = np.flatnonzero(~ok[tuple(idx.reshape(trials, k).T)])
        t = int(bad[0]) + 1 if bad.size else trials
        settle(t * k)
        text = issue(*idx[(t - 1) * k : t * k].tolist()) if bad.size else None
        checks.append(CheckResult(name, not bad.size, trials=t, counterexample=text))

    text = lambda i: format_value(samples[i])
    sampled("symmetry", symmetric, lambda i, j: f"d({text(i)},{text(j)}) != d({text(j)},{text(i)})")
    sampled("positivity", positive, lambda i, j: f"d({text(i)},{text(j)}) outside the positive cone")
    if space.kind in (SpaceKind.DISLOCATED, SpaceKind.DISTANCE):
        implies_equal = ~zero
        for i, j in zip(*np.nonzero(zero)):
            implies_equal[i, j] = space.point_eq(samples[i], samples[j])
        sampled("zero_implies_equal", implies_equal, lambda i, j: f"d=identity for distinct {text(i)}, {text(j)}")
    if space.kind in (SpaceKind.PSEUDO, SpaceKind.DISTANCE):
        sampled("equal_implies_zero", zero.diagonal(), lambda i: f"d(x,x) != identity for x={text(i)}")
    if space.kind is SpaceKind.DISLOCATED:
        picked = rng.choices(range(n), k=min(trials, 256))
        dislocated = int(np.count_nonzero(~zero.diagonal()[picked]))
        detail = f"{dislocated} sampled points with d(x,x) != identity"
        checks.append(CheckResult("dislocation_observed", True, trials=len(picked), detail=detail))
    return ValidationReport(subject=space.point_descr, checks=tuple(checks))


def _triangle_check(
    space: DistanceSpaceSpec,
    name: str,
    labels: tuple[str, str],
    sides: Callable[[Any, Any, Any], tuple],
    triples: Iterable[tuple],
) -> ValidationReport:
    """The check `name` of lhs <= rhs, (lhs, rhs) = sides(x, y, z), on the
    given triples; the first failing triple is the counterexample, its two
    sides rendered under `labels`.  Over a relational monoid equal distances
    get one verdict: each distinct (d(x,y), d(x,z), d(z,y)) is decided on
    the first triple to measure it, as in `first_occurrences`."""
    m, d = space.monoid, space.distance
    first: Optional[dict] = {} if m.relational else None  # distance triple -> its first count
    count, cex = 0, None
    for count, (x, y, z) in enumerate(triples, 1):
        if first is not None and first.setdefault((d(x, y), d(x, z), d(z, y)), count) != count:
            continue
        lhs, rhs = sides(x, y, z)
        # m.eq breaks rounding-noise ties in float carriers; exact carriers
        # have exact eq, so nothing is forgiven there
        if not (m.leq(lhs, rhs) or m.eq(lhs, rhs)):
            cex = (
                f"x={format_value(x)} y={format_value(y)} z={format_value(z)} "
                f"{labels[0]}={format_value(lhs)} {labels[1]}={format_value(rhs)}"
            )
            break
    return ValidationReport(space.point_descr, (CheckResult(name, cex is None, count, cex),))


def check_triangle(space: DistanceSpaceSpec, triples: Iterable[tuple]) -> ValidationReport:
    """Check d(x,y) <= d(x,z) + d(z,y) on the given triples."""
    d, combine = space.distance, space.monoid.combine
    return _triangle_check(
        space, "triangle", ("d(x,y)", "d(x,z)+d(z,y)"),
        lambda x, y, z: (d(x, y), combine(d(x, z), d(z, y))), triples,
    )


def check_zeta_triangle(
    space: DistanceSpaceSpec, zspec: ZetaSpec, triples: Iterable[tuple]
) -> ValidationReport:
    """Check phi(d(x,y)) <= zeta(d(x,z), d(z,y)) on the given triples."""
    d, phi, zeta = space.distance, zspec.phi, zspec.zeta
    return _triangle_check(
        space, "zeta_triangle", ("phi(d(x,y))", "zeta"),
        lambda x, y, z: (phi(d(x, y)), zeta(d(x, z), d(z, y))), triples,
    )


def validate_zeta(
    monoid: MonoidSpec,
    ladder: TestLadder,
    zspec: ZetaSpec,
    null_battery: Sequence[MTrace],
    notnull_battery: Sequence[MTrace],
) -> ValidationReport:
    """Battery check of the combiner contracts.

    zeta must map pairs of null traces to null traces; phi must reflect null
    traces, which on finite evidence is checked contrapositively: traces that
    are not null must not become null under phi.
    """
    checks: list[CheckResult] = []
    bad = None
    pairs = list(itertools.product(null_battery, null_battery))
    for a, b in pairs:
        n = min(len(a), len(b))
        t = MTrace(
            elements=tuple(zspec.zeta(x, y) for x, y in zip(a.elements, b.elements)),
            budget=min(a.budget, b.budget, n),
        )
        if is_null_trace(t, ladder, monoid) is not Decision.NULL:
            bad = t
            break
    checks.append(
        CheckResult(
            "zeta_preserves_null",
            bad is None,
            trials=len(pairs),
            counterexample=None if bad is None else "zeta image of null traces is not null",
        )
    )
    bad = None
    for t in notnull_battery:
        img = MTrace(elements=tuple(zspec.phi(x) for x in t.elements), budget=t.budget)
        if is_null_trace(img, ladder, monoid) is Decision.NULL:
            bad = t
            break
    checks.append(
        CheckResult(
            "phi_reflects_null",
            bad is None,
            trials=len(notnull_battery),
            counterexample=None
            if bad is None
            else "phi maps a non-null trace onto a null trace",
        )
    )
    return ValidationReport(subject="zeta/phi combiner", checks=tuple(checks))


# ---------------------------------------------------------------------------
# Sequence detectors


def converges_to(space: DistanceSpaceSpec, trace: PointTrace, limit: Any) -> Decision:
    """NULL iff the distances to the limit fall and stay below the bottom rung."""
    dists = tuple(space.distance(p, limit) for p in trace.points)
    return is_null_trace(
        MTrace(elements=dists, budget=trace.budget), space.ladder, space.monoid
    )


def is_cauchy_sequence(space: DistanceSpaceSpec, trace: PointTrace) -> Decision:
    """NULL iff beyond some start index within budget all strict pairs are
    strictly below the bottom rung.

    The pairs (i, j), i < j, fall into rows by i; a row is bad when one of
    its pairs is not strictly below the rung.  NULL means no bad row, or the
    last one at index min(n - 3, budget - 2) or earlier, so only the rows
    after that index are tested: from the last row up, each row stopping at
    its first bad pair and the scan at the first bad row.  A budget below 1
    admits no start index: NOT_NULL_WITHIN, with no pair tested.
    """
    pts = trace.points
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    m = space.monoid
    bottom = space.ladder.bottom

    def row_is_bad(i: int) -> bool:
        return any(
            not m.strictly_below(space.distance(pts[i], pts[j]), bottom) for j in range(i + 1, n)
        )

    return _tail_decision(row_is_bad, n - 1, n, trace.budget)


def is_cw_sequence(space: DistanceSpaceSpec, trace: PointTrace) -> Decision:
    """NULL iff the consecutive-distance series is a Cauchy series."""
    if len(trace.points) < 2:
        raise ValueError("need at least two points")
    return cauchy_series_check(trace.consec, space.ladder, space.monoid)


# ---------------------------------------------------------------------------
# Frechet-Wilson falsifiers

FW_LEVELS = ("weak", "standard", "strong")


@dataclass(frozen=True)
class FWSampler:
    """A keyed sampler: `draw(rng)`, which makes the random calls and returns
    a small hashable key, and `build(key)`, the candidate.

    It may also give its candidates' stacked form, which lets
    `falsify_frechet_wilson` screen its trials in bulk:
    - `stack(rng, count)`: the keys of `count` calls of `draw`, drawn at
      once and leaving `rng` as those calls would, as `rows(i, j)`, the
      stacked candidates of keys i to j - 1, and `key(i)`, key i; or, for
      keys that repeat, `rows` of the distinct keys, `key(i)` and `row_of`,
      each key's row.  A strong chain is its points, continued past its
      length to one width, and the lengths.  A weak or standard candidate is
      its three sequences as columns of one width (weak's z as a column);
      every column is a column of the candidate, its last included as the
      last, and the width is at least 2 when the candidate's length is.
    - `distance(a, b)`: rows of floats, each a point or the float code of
      one; the space's distance on float arrays, entry for entry bit for
      bit what it gives on the points.  The space's monoid must be
      elementwise over floats.
    - `points`: rows of indices into `points`, a finite carrier, at the
      weak and standard levels.  The space's distance and monoid must be
      defined on every pair of its points.
    """

    draw: Callable[[random.Random], Any]
    build: Callable[[Any], Any]
    stack: Optional[Callable[[random.Random, int], tuple]] = None
    distance: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    points: Optional[tuple] = None

    def __call__(self, rng: random.Random) -> Any:
        return self.build(self.draw(rng))


def _float_cone(distance: Callable, m: MonoidSpec, bottom: float) -> Callable:
    """`_screen`'s cone from a distance on float arrays."""

    def cone(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = distance(us, vs)
        return m.identity <= d.min(axis=1), below_rows(d[:, -1:], bottom)  # a NaN minimum is not

    return cone


def _table_cone(space: DistanceSpaceSpec, points: tuple, bottom: Any) -> Callable:
    """`_screen`'s cone on rows of indices into `points`: point x point
    tables of `is_positive` and `strictly_below(., bottom)` of the distance,
    which the scalar loop decides for the same distances."""
    m = space.monoid
    dists = [[space.distance(p, q) for q in points] for p in points]
    positive = np.array([[m.is_positive(x) for x in row] for row in dists], dtype=bool)
    below = np.array([[m.strictly_below(x, bottom) for x in row] for row in dists], dtype=bool)
    return lambda us, vs: (positive[us, vs].all(axis=1), below[us[:, -1], vs[:, -1]])


def _screen(rows: tuple, cone: Callable) -> np.ndarray:
    """The weak or standard trials of a stacked chunk on which the scalar
    loop of `falsify_frechet_wilson` would not `continue`: a counterexample,
    or a distance outside the positive cone of a trace it decides.
    `cone(us, vs)` gives, per trial, whether the distances between the
    sequences us and vs are all in the positive cone, and whether the last
    is strictly below the bottom rung."""
    heads, middles, tails = rows
    flags = np.zeros(len(heads), dtype=bool)
    if heads.shape[1] < 2:
        return flags
    live = ~flags  # every trace decided so far is null
    with np.errstate(all="ignore"):
        for i, (us, vs) in enumerate(((heads, middles), (middles, tails), (heads, tails))):
            if not live.any():
                break
            positive, below = cone(us, vs)
            null = positive & below
            flags |= live & ~(positive if i < 2 else null)
            live &= null
    return flags


def _screen_chains(rows: tuple, distance: Callable, m: MonoidSpec, ladder: TestLadder) -> np.ndarray:
    """The strong trials of a stacked chunk of float chains on which the
    scalar loop would not `continue`: the counterexamples."""
    points, lengths = rows
    k = np.arange(len(lengths))
    with np.errstate(all="ignore"):
        steps = distance(points[:, :-1], points[:, 1:])
        # m.fold from the identity: column j holds the sum of the first j steps
        sums = np.cumsum(np.column_stack((np.full(len(k), m.identity), steps)), axis=1)
        total = sums[k, lengths - 1]
        endpoint = distance(points[:, 0], points[k, lengths - 1])
        # every rung, a row each, as the scalar scan: a ladder need not descend
        rungs = np.asarray(ladder.rungs)[:, None]
        above = ~below_rows(endpoint[:, None, None], rungs).all(axis=1)
        return (lengths >= 2) & below_rows(total[:, None], ladder.bottom) & above


# The first `FIRST_ALONE` trials are decided one by one.  Then the keys are
# drawn at once up to the next multiple of 1024 trials, and screened in
# chunks that end at multiples of 256 trials: 256 weak or standard
# candidates of 48 points make 96 KiB arrays.
_DRAWN, _CHUNK = 1024, 256


def _screened(
    sampler: FWSampler, rng: random.Random, trials: int, screen: Callable[[tuple], np.ndarray]
) -> Iterable[tuple[int, Any]]:
    """(trial, candidate) for each of the first trials and each later trial
    that `screen` flags in its chunk, in order."""
    done = min(FIRST_ALONE, trials)
    for trial in range(done):
        yield trial, sampler(rng)
    while done < trials:
        drawn = min(_DRAWN - done % _DRAWN, trials - done)
        rows, key, *row_of = sampler.stack(rng, drawn)
        # rows of the distinct keys are screened at once, and a trial flagged with its key
        flags = screen(rows)[row_of[0]] if row_of else None
        for start in range(-(done % _CHUNK), drawn, _CHUNK):
            lo, hi = max(start, 0), min(start + _CHUNK, drawn)
            for i in lo + np.flatnonzero(flags[lo:hi] if row_of else screen(rows(lo, hi))):
                yield done + int(i), sampler.build(key(int(i)))
        done += drawn


def _screen_of(space: DistanceSpaceSpec, level: str, sampler: Any) -> Optional[Callable]:
    """The screen of a stacked chunk of the sampler's trials, or None: over
    a finite carrier at the weak and standard levels, or over an elementwise
    float monoid."""
    if not isinstance(sampler, FWSampler) or sampler.stack is None:
        return None
    m, ladder = space.monoid, space.ladder
    if sampler.points is not None and level != "strong":
        cone = _table_cone(space, sampler.points, ladder.bottom)
    elif sampler.distance is not None and m.elementwise and isinstance(m.identity, float):
        if level == "strong":
            return lambda rows: _screen_chains(rows, sampler.distance, m, ladder)
        cone = _float_cone(sampler.distance, m, ladder.bottom)
    else:
        return None
    return lambda rows: _screen(rows, cone)


def falsify_frechet_wilson(
    space: DistanceSpaceSpec,
    level: str,
    sampler: Callable[[random.Random], Any],
    trials: int,
    seed: int = 0,
) -> Optional[Counterexample]:
    """Search for a counterexample to the chosen Frechet-Wilson property.

    strong: the sampler yields finite chains x_1..x_n; a witness is a chain
    whose consecutive-distance sum is strictly below the bottom rung while
    the endpoint distance fails to sit strictly below some rung.
    weak: the sampler yields (xs, ys, z); standard: (xs, zs, ys).  A witness
    is a sampled prefix where the two premise traces are null but the
    conclusion trace is decisively not null.  The distances of a trace are
    computed only when every trace before it is null: the second premise's
    after a null first premise, the conclusion's after a null second one.

    An `FWSampler` with a stacked form over an elementwise float monoid, or
    over a finite carrier at the weak and standard levels, is screened in
    chunks (`_screened`), and only the trials the screen flags are built
    and decided.  Any other `FWSampler`'s key is decided once, on
    the first trial to draw it (`first_occurrences`); any other sampler's
    candidate, on every trial.  The loop below is the only one to decide a
    candidate, so the verdict, its trial and its message are those of
    deciding every trial.

    Returns None when no counterexample was found, which is evidence, not
    proof, that the property holds.
    """
    if level not in FW_LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = space.monoid
    ladder = space.ladder
    bottom = ladder.bottom
    d = space.distance
    null = lambda xs: is_null_trace(MTrace(xs, len(xs)), ladder, m) is Decision.NULL
    rng = child_rng(seed, f"fw-{level}")
    screen = _screen_of(space, level, sampler)
    if screen is not None:
        candidates = _screened(sampler, rng, trials, screen)
    elif isinstance(sampler, FWSampler):
        keys = first_occurrences(sampler.draw(rng) for _ in range(trials))
        candidates = ((trial, sampler.build(key)) for trial, key in keys)
    else:
        candidates = enumerate(sampler(rng) for _ in range(trials))

    for trial, cand in candidates:
        if level == "strong":
            chain = tuple(cand)
            if len(chain) < 2:
                continue
            total = m.fold(map(d, chain, chain[1:]))
            if not m.strictly_below(total, bottom):
                continue
            endpoint = d(chain[0], chain[-1])
            above = (i for i, eps in enumerate(ladder.rungs) if not m.strictly_below(endpoint, eps))
            rung_idx = next(above, None)
            if rung_idx is not None:
                return Counterexample(
                    kind="fw-strong",
                    points=chain,
                    rung_index=rung_idx,
                    distances=(total, endpoint),
                    detail=(
                        f"sum of consecutive distances {format_value(total)} is below the "
                        f"bottom rung but d(x_1,x_n)={format_value(endpoint)} is not below "
                        f"rung {rung_idx} ({format_value(ladder.rungs[rung_idx])}); "
                        f"found on trial {trial}"
                    ),
                )
        else:
            # both levels reduce to: two premise traces through a middle
            # sequence, one conclusion trace between the outer sequences
            if level == "weak":
                seq_x, seq_y, z_point = cand
                heads, middles = tuple(seq_x), tuple(seq_y)
                tails = (z_point,) * len(heads)
            else:
                heads, middles, tails = (tuple(seq) for seq in cand)
            n = min(len(heads), len(middles), len(tails))
            if n < 2:
                continue
            heads, middles, tails = heads[:n], middles[:n], tails[:n]
            # each trace has budget n, so it is NULL or NOT_NULL_WITHIN
            if not null(tuple(map(d, heads, middles))):
                continue
            if not null(tuple(map(d, middles, tails))):
                continue
            concl = tuple(map(d, heads, tails))
            if not null(concl):
                return Counterexample(
                    kind=f"fw-{level}",
                    points=(heads, middles, tails),
                    rung_index=len(ladder.rungs) - 1,
                    distances=(concl[-1],),
                    detail=(
                        "premise traces are null but the conclusion trace stays above "
                        f"the bottom rung; found on trial {trial}"
                    ),
                )
    return None


# ---------------------------------------------------------------------------
# Entourage spaces over the relation monoid


def diagonal(points: Iterable[Any]) -> frozenset:
    return frozenset((p, p) for p in points)


def full_relation(points: Iterable[Any]) -> frozenset:
    pts = list(points)
    return frozenset((a, b) for a in pts for b in pts)


def relation_monoid(points: Sequence[Any], identity: Optional[frozenset] = None) -> MonoidSpec:
    """The composition monoid of relations over a finite point set, ordered by
    inclusion, with union as the supremum.

    The identity defaults to the diagonal; passing a larger reflexive kernel
    (all pairs a pseudometric cannot separate) keeps the identity axiom valid
    on kernel-saturated relations.
    """
    ident = diagonal(points) if identity is None else frozenset(identity)
    combine, leq, eq, sup = RELATIONAL
    descr = f"relations on {len(points)} points (compose, ordered by inclusion)"
    return MonoidSpec(descr, combine, ident, leq, sup, eq)


def entourage_distance(base: Sequence[frozenset], x: Any, y: Any) -> frozenset:
    """Intersection of all base relations containing (x, y).

    The empty intersection (no base relation contains the pair) is the full
    relation, the top of the inclusion order.
    """
    if not base:
        raise ValueError("base must be non-empty")
    members = [r for r in base if (x, y) in r]
    if not members:
        universe = {p for r in base for pair in r for p in pair}
        return full_relation(universe)
    return frozenset.intersection(*members)


def make_uniform_from_pseudometric(
    points: Sequence[Any],
    rho: Callable[[Any, Any], float],
    thresholds: Sequence[float],
) -> tuple[DistanceSpaceSpec, TestLadder]:
    """Build an entourage space from a pseudometric's sublevel relations.

    The base relations are {(x,y): rho(x,y) <= r}; the ladder is the base
    ordered by threshold, with rungs equal to the identity dropped (rungs must
    be strictly positive) and duplicates collapsed.  Thresholds must descend
    and each must be at most half its predecessor so that composition of a
    rung with itself lands inside the rung above.
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("points must be non-empty")
    for i in range(1, len(thresholds)):
        if not thresholds[i] < thresholds[i - 1]:
            raise ValueError("thresholds must be strictly descending")
        if thresholds[i] > thresholds[i - 1] / 2:
            raise ValueError(
                f"threshold {thresholds[i]} exceeds half of {thresholds[i - 1]}; "
                "the halving property would fail"
            )
    for a in pts:
        if rho(a, a) != 0:
            raise ValueError(f"rho({a!r},{a!r}) != 0")
    for a in pts:
        for b in pts:
            if rho(a, b) != rho(b, a):
                raise ValueError(f"rho is not symmetric at ({a!r}, {b!r})")

    def sublevel(r: float) -> frozenset:
        return frozenset((a, b) for a in pts for b in pts if rho(a, b) <= r)

    base = [sublevel(r) for r in thresholds]
    kernel = frozenset((a, b) for a in pts for b in pts if rho(a, b) == 0)
    monoid = relation_monoid(pts, identity=kernel)

    # the base descends, so equal relations are neighbours; the first is kept
    rungs = list(dict.fromkeys(rel for rel in base if rel != kernel))
    if not rungs:
        raise ValueError("all sublevel relations equal the kernel; no usable rungs")
    ladder = TestLadder.build(monoid, rungs)

    table = {a: {b: entourage_distance(base, a, b) for b in pts} for a in pts}
    separating = kernel == diagonal(pts)
    if base[-1] == kernel:
        kind = SpaceKind.DISTANCE if separating else SpaceKind.PSEUDO
    else:
        kind = SpaceKind.DISLOCATED

    space = DistanceSpaceSpec(
        point_descr=f"{len(pts)}-point entourage space over a pseudometric base",
        distance=lambda a, b: table[a][b],
        kind=kind,
        monoid=monoid,
        ladder=ladder,
    )
    return space, ladder


# ---------------------------------------------------------------------------
# Space combinators


def _shared_monoid(spaces: Sequence[DistanceSpaceSpec]) -> MonoidSpec:
    first = spaces[0].monoid
    for s in spaces[1:]:
        if s.monoid is not first and s.monoid.carrier_descr != first.carrier_descr:
            raise ValueError("factors must share one monoid for sigma/vee products")
    return first


def _weakest_kind(spaces: Sequence[DistanceSpaceSpec]) -> SpaceKind:
    return min((s.kind for s in spaces), key=lambda k: _KIND_RANK[k])


# f(x, y) without a Python frame per call where the interpreter has operator.call
_call = getattr(operator, "call", lambda f, *args: f(*args))


def product_monoid(factors: Sequence[MonoidSpec]) -> MonoidSpec:
    """Coordinatewise product of monoids on tuples, by the factors' callables.
    A product of elementwise float monoids is elementwise itself."""
    factors = tuple(factors)
    descr = "product(" + ", ".join(m.carrier_descr for m in factors) + ")"
    identity = tuple(m.identity for m in factors)
    if all(m.elementwise and isinstance(m.identity, float) for m in factors):
        return MonoidSpec.real_entrywise(descr, identity)
    combines, leqs, eqs, sups = (
        tuple(getattr(m, op) for m in factors) for op in ("combine", "leq", "eq", "sup")
    )

    def combine(a: tuple, b: tuple) -> tuple:
        return tuple(map(_call, combines, a, b))

    def leq(a: tuple, b: tuple) -> bool:
        return all(map(_call, leqs, a, b))

    def eq(a: tuple, b: tuple) -> bool:
        return all(map(_call, eqs, a, b))

    sup = None
    if all(s is not None for s in sups):

        def sup(a: tuple, b: tuple) -> tuple:  # noqa: F811
            return tuple(map(_call, sups, a, b))

    return MonoidSpec(descr, combine, identity, leq, sup, eq)


def product_ladder(ladders: Sequence[TestLadder], monoid: MonoidSpec) -> TestLadder:
    depth = min(len(l.rungs) for l in ladders)
    rungs = [tuple(l.rungs[i] for l in ladders) for i in range(depth)]
    return TestLadder.build(monoid, rungs)


def product_space(spaces: Sequence[DistanceSpaceSpec], mode: str) -> DistanceSpaceSpec:
    """Combine finitely many spaces over a tuple carrier.

    sigma sums the factor distances, vee takes their supremum (requires the
    Riesz property), and coordinatewise moves to the product monoid with the
    product ladder.
    """
    if not spaces:
        raise ValueError("need at least one factor")
    coordinatewise = mode == "coordinatewise"
    if coordinatewise:
        m = product_monoid([s.monoid for s in spaces])
        ladder, fold = product_ladder([s.ladder for s in spaces], m), tuple
    elif mode in ("sigma", "vee"):
        m, ladder = _shared_monoid(spaces), spaces[0].ladder
        if mode == "vee" and m.sup is None:
            raise ValueError("vee product needs a supremum on the shared monoid")
        fold = m.fold if mode == "sigma" else lambda parts: functools.reduce(m.sup, parts)
    else:
        raise ValueError(f"unknown product mode {mode!r}")

    def dist(a: tuple, b: tuple) -> Any:
        return fold(s.distance(x, y) for s, x, y in zip(spaces, a, b))

    def point_eq(a: tuple, b: tuple) -> bool:
        return all(s.point_eq(x, y) for s, x, y in zip(spaces, a, b))

    return DistanceSpaceSpec(
        point_descr=f"{mode}-product(" + " x ".join(s.point_descr for s in spaces) + ")",
        distance=dist,
        kind=_weakest_kind(spaces),
        monoid=m,
        ladder=ladder,
        point_eq=point_eq,
        weierstrass_capable=all(s.weierstrass_capable for s in spaces),
        regular_order=coordinatewise and all(s.regular_order for s in spaces),
        co_regular_order=coordinatewise and all(s.co_regular_order for s in spaces),
    )


def gauge_space(
    pseudo_spaces: Sequence[DistanceSpaceSpec], samples: Sequence[Any]
) -> DistanceSpaceSpec:
    """Bundle pseudo-distances on one carrier into a product-monoid distance:
    the coordinatewise product of the factors, read on its diagonal.

    The result is declared a distance space only when the sampled separation
    condition holds (some factor separates every sampled distinct pair);
    otherwise it stays pseudo.
    """
    product = product_space(pseudo_spaces, "coordinatewise")
    k = len(pseudo_spaces)
    separating = samples and all(
        pseudo_spaces[0].point_eq(x, y)
        or not all(s.monoid.eq(s.distance(x, y), s.monoid.identity) for s in pseudo_spaces)
        for x, y in itertools.combinations(samples, 2)
    )
    return replace(
        product,
        point_descr=f"gauge({pseudo_spaces[0].point_descr}; {k} factors)",
        distance=lambda x, y: product.distance((x,) * k, (y,) * k),
        kind=SpaceKind.DISTANCE if separating else SpaceKind.PSEUDO,
        point_eq=pseudo_spaces[0].point_eq,
    )

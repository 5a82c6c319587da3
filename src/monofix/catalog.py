"""Named built-in monoids, spaces, and maps selectable from config and tests.

Names accept an optional brace parameter, e.g. ``omega_counterexample{128}``
or ``grid_function{8}``.  Deliberately broken instances carry a ``broken_``
prefix and exist so that the validators have something to catch.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ._rng import WordBlock, child_rng, replay, uniforms
from .engine import CaristiData, LambdaSequence, MeirKeelerData, next_rung_choice
from .fredholm import grid_function_monoid, grid_ladder
from .monoid import MonoidSpec, TestLadder, dyadic_ladder
from ._util import close_eq
from .spaces import (
    DistanceSpaceSpec,
    FWSampler,
    SpaceKind,
    full_relation,
    make_uniform_from_pseudometric,
    product_ladder,
    product_monoid,
    product_space,
    gauge_space,
    relation_monoid,
    diagonal,
)


@dataclass(frozen=True)
class MonoidEntry:
    name: str
    spec: MonoidSpec
    ladder: TestLadder
    samples: tuple
    broken: bool = False


@dataclass(frozen=True)
class SpaceEntry:
    name: str
    space: DistanceSpaceSpec
    samples: tuple
    fw_sampler: Optional[Callable[[str], Callable[[random.Random], Any]]] = None
    finite_carrier: Optional[tuple] = None
    broken: bool = False


@dataclass(frozen=True)
class MapEntry:
    name: str
    space: DistanceSpaceSpec
    fn: Callable[[float], float]
    descr: str
    x0_default: float
    monotone_x0: float
    meir_keeler: MeirKeelerData
    caristi: CaristiData
    lam: LambdaSequence
    sample_pairs: tuple

    def x0_for(self, driver: str) -> float:
        """The default seed: the monotone driver starts below the fixed point."""
        return self.monotone_x0 if driver == "monotone" else self.x0_default


# The largest brace parameters: the dimension of a vector carrier, the
# points of a finite carrier.
MAX_DIM, MAX_POINTS = 4096, 64


def _parse_name(name: str, plain: Sequence[str]) -> tuple[str, Optional[str]]:
    """The base name and brace parameter; a parameter on a name in `plain`
    is a KeyError, as an unknown name is."""
    if "{" in name and name.endswith("}"):
        base, arg = name[:-1].split("{", 1)
        if base in plain:
            raise KeyError(f"{name!r}: {base} takes no parameter")
        return base, arg
    return name, None


def _int_param(name: str, arg: Optional[str], default: int, low: int, high: int) -> int:
    """The integer brace parameter of a catalog name, from low to high."""
    if arg is None:
        return default
    try:
        value = int(arg)
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise KeyError(f"{name!r}: the parameter must be an integer from {low} to {high}")
    return value


# ---------------------------------------------------------------------------
# Monoids


def real_nonneg_monoid() -> MonoidSpec:
    return MonoidSpec.real_entrywise("nonnegative reals (+, 0, <=)", 0.0)


_HIER_POINTS = tuple(range(8))


def hierarchical_rho(a: int, b: int) -> float:
    """An eight-point ultrametric: distance by the deepest shared block."""
    if a == b:
        return 0.0
    if a // 4 != b // 4:
        return 1.0
    if a // 2 != b // 2:
        return 0.5
    return 0.25


def _relation_samples(points: Sequence[int]) -> tuple:
    delta = diagonal(points)

    def sublevel(r: float) -> frozenset:
        return frozenset(
            (a, b) for a in points for b in points if hierarchical_rho(a, b) <= r
        )

    rng = child_rng(0, "relation-samples")
    extras = []
    for _ in range(5):
        pairs = set(delta)
        for a in points:
            for b in points:
                if a < b and rng.random() < 0.18:
                    pairs.add((a, b))
                    pairs.add((b, a))
        extras.append(frozenset(pairs))
    return (delta, sublevel(0.25), sublevel(0.5), sublevel(1.0), *extras)


def get_monoid(name: str) -> MonoidEntry:
    base, arg = _parse_name(name, ("real_nonneg", "broken_subtraction"))
    if base == "real_nonneg":
        return MonoidEntry(
            name=name,
            spec=real_nonneg_monoid(),
            ladder=dyadic_ladder(20),
            samples=(0.0, 1.0, 2.5, 0.25, 1.0 / 3.0, 0.7, 5.0, 0.001, 12.0, 0.0625),
        )
    if base == "real_vector":
        dim = _int_param(name, arg, 3, 1, MAX_DIM)
        spec = MonoidSpec.real_entrywise(f"real {dim}-vectors (pointwise + and <=)", np.zeros(dim))
        rng = child_rng(0, f"real_vector{dim}-samples")
        samples = [np.zeros(dim), np.ones(dim), np.arange(dim, dtype=float)]
        samples += list(_uniform(0.0, 3.0, uniforms(rng, 7 * dim)).reshape(7, dim))
        return MonoidEntry(name=name, spec=spec, ladder=grid_ladder(dim), samples=tuple(samples))
    if base == "grid_function":
        m = _int_param(name, arg, 8, 1, MAX_DIM)
        spec = grid_function_monoid(m)
        rng = child_rng(0, f"grid_function{m}-samples")
        samples = [np.zeros(m), np.full(m, 0.5), np.linspace(0, 1, m)]
        samples += list(_uniform(0.0, 2.0, uniforms(rng, 7 * m)).reshape(7, m))
        return MonoidEntry(name=name, spec=spec, ladder=grid_ladder(m), samples=tuple(samples))
    if base == "relation":
        pts = tuple(range(_int_param(name, arg, 8, 2, MAX_POINTS)))
        spec = relation_monoid(pts)
        if pts == _HIER_POINTS:
            samples = _relation_samples(pts)
            rungs = [s for s in (samples[3], samples[2], samples[1]) if s != spec.identity]
        else:
            delta = diagonal(pts)
            full = full_relation(pts)
            samples = (delta, full)
            rungs = [full]
        ladder = TestLadder.build(spec, rungs)
        return MonoidEntry(name=name, spec=spec, ladder=ladder, samples=tuple(samples))
    if base == "product":
        if arg == "":
            raise KeyError(f"{name!r}: need at least one factor")
        parts = [get_monoid(p.strip()) for p in ("real_nonneg,real_nonneg" if arg is None else arg).split(",")]
        spec = product_monoid([p.spec for p in parts])
        ladder = product_ladder([p.ladder for p in parts], spec)
        combos = list(itertools.product(*[p.samples[:4] for p in parts]))
        return MonoidEntry(name=name, spec=spec, ladder=ladder, samples=tuple(combos))
    if base == "broken_subtraction":
        spec = MonoidSpec(
            carrier_descr="reals with subtraction (deliberately not a monoid)",
            combine=lambda a, b: a - b,
            identity=0.0,
            leq=operator.le,
            eq=close_eq,
        )
        return MonoidEntry(
            name=name,
            spec=spec,
            ladder=dyadic_ladder(4),
            samples=(0.0, 1.0, 2.0, 3.0, 2.5),
            broken=True,
        )
    raise KeyError(f"unknown monoid {name!r}")


MONOID_NAMES = (
    "real_nonneg",
    "real_vector{3}",
    "grid_function{8}",
    "relation{8}",
    "product{real_nonneg,real_nonneg}",
    "broken_subtraction",
)


# ---------------------------------------------------------------------------
# Spaces


def snowflake_distance(x: float, y: float) -> float:
    d = abs(x - y)
    return d if d <= 1.0 else d * d


def _snowflake_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = abs(x - y)
    return np.where(d <= 1.0, d, d * d)


# float (i + 1) ** 2, exact below 2**53: amp / _SQUARES[i] == amp / (i + 1) ** 2
_SQUARES = tuple(float((i + 1) ** 2) for i in range(48))
_SQUARES_ROW = np.array(_SQUARES)
# the step counts 0..31 of a strong chain of at most 32 points
_STEPS_ROW = np.arange(32, dtype=float)


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """`rng.uniform(a, b)` for the `random()` values u: a + (b - a) * u."""
    return a + (b - a) * u


def _real_fw_sampler(space: DistanceSpaceSpec, distance: Callable, nonneg: bool = False):
    """The real-line samplers: keyed, with the stacked form that `distance`,
    the space's distance on float arrays, completes.  Keys: strong
    (n, a, sign, h), weak and standard (z, amp); their stacked draws give
    the same floats from the same words (`_rng.replay`, `_rng.uniforms`)."""
    bottom = space.ladder.rungs[-1]
    low = 0.0 if nonneg else -2.0

    def factory(level: str) -> FWSampler:
        if level == "strong":

            def draw(rng: random.Random) -> tuple:
                n = rng.randint(2, 32)
                if rng.random() < 0.5:
                    h = rng.uniform(0.0, 2.0 * bottom / n)
                else:
                    h = rng.uniform(0.0, 1.2 * math.sqrt(bottom / n))
                a = rng.uniform(low, 2.0)
                sign = 1.0 if nonneg or rng.random() < 0.5 else -1.0
                return n, a, sign, h

            def build(key: tuple) -> list:
                n, a, sign, h = key
                return [a + sign * i * h for i in range(n)]

            def stack(rng: random.Random, count: int) -> tuple:
                # draw's words: randint(2, 32), 2 + _randbelow(31), then
                # three or four random() of two words each
                fixed = 6 if nonneg else 8
                block, p = replay(rng, count, fixed + 2, lambda block, p: block.kept(31, p) + 1 + fixed)
                at = block.kept(31, p)
                n = block.value(31, at).astype(int) + 2
                # the sign's random() is past the trial when nonneg, and unused
                coin, u, ua, us = block.random(at[:, None] + np.arange(1, 9, 2)).T
                width = n.astype(float)
                h = _uniform(0.0, np.where(coin < 0.5, 2.0 * bottom / width, 1.2 * np.sqrt(bottom / width)), u)
                a = _uniform(low, 2.0, ua)
                sign = np.ones(count) if nonneg else np.where(us < 0.5, 1.0, -1.0)
                # each chain continued to 32 points
                rows = lambda i, j: (a[i:j, None] + sign[i:j, None] * _STEPS_ROW * h[i:j, None], n[i:j])
                return rows, lambda i: (int(n[i]), float(a[i]), float(sign[i]), float(h[i]))

            return FWSampler(draw, build, stack, distance)

        def draw(rng: random.Random) -> tuple:
            return rng.uniform(low, 2.0), rng.uniform(0.1, 1.0)

        def build(key: tuple):
            z, amp = key
            qs = [amp / sq for sq in _SQUARES]
            xs = [z + q for q in qs]
            ys = [z - q for q in qs]
            if nonneg:
                xs = [abs(v) for v in xs]
                ys = [abs(v) for v in ys]
            if level == "weak":
                return xs, ys, z
            # amp / (2 * sq) == (amp / sq) / 2: halving a float is exact
            return xs, [z + q / 2 for q in qs], ys

        def stack(rng: random.Random, count: int) -> tuple:
            u = uniforms(rng, 2 * count)
            zs, amps = _uniform(low, 2.0, u[0::2, None]), _uniform(0.1, 1.0, u[1::2, None])

            def rows(i: int, j: int) -> tuple:
                z, qs = zs[i:j], amps[i:j] / _SQUARES_ROW
                xs, ys = z + qs, z - qs
                if nonneg:
                    xs, ys = abs(xs), abs(ys)
                return (xs, ys, z) if level == "weak" else (xs, z + qs / 2, ys)

            return rows, lambda i: (float(zs[i, 0]), float(amps[i, 0]))

        return FWSampler(draw, build, stack, distance)

    return factory


# The longest chain of the finite-carrier samplers.
_MAX_CHAIN = 6


def _finite_fw_sampler(pts: tuple):
    """The samplers of a finite carrier: a chain of 2 to 6 points, keyed by
    the chain, and by a point z unless the level is strong.  A weak or
    standard candidate repeats the chain (and its reverse) eight times, so
    the last six of its columns hold every column and the last; its stacked
    form is those columns, as indices into `pts`."""

    def factory(level: str) -> FWSampler:
        def draw(r: random.Random):
            n = r.randint(2, _MAX_CHAIN)
            chain = tuple(r.choice(pts) for _ in range(n))
            return chain if level == "strong" else (chain, r.choice(pts))

        def build(key):
            if level == "strong":
                return list(key)
            chain, z = key
            xs = list(chain) * 8
            ys = list(reversed(chain)) * 8
            if level == "weak":
                return xs, ys, z
            return xs, [z] * len(xs), ys

        if level == "strong":
            return FWSampler(draw, build)

        def chain_of(block: WordBlock, p: np.ndarray) -> tuple:
            """n, and the first word of the chain's choices, for trials from
            p: randint(2, 6) is 2 + _randbelow(5), then n + 1 choice(pts),
            the chain's and z's."""
            at = block.kept(_MAX_CHAIN - 1, p)
            return block.value(_MAX_CHAIN - 1, at) + 2, at + 1

        def end(block: WordBlock, p: np.ndarray) -> np.ndarray:
            n, first = chain_of(block, p)
            return block.kept(len(pts), first, n) + 1

        def stack(rng: random.Random, count: int) -> tuple:
            block, p = replay(rng, count, 12, end)
            n, first = chain_of(block, p)
            # the chain at columns 0 to n - 1, z at column n
            values = block.value(len(pts), block.kept(len(pts), first[:, None], np.arange(_MAX_CHAIN + 1)))
            z = values[np.arange(count), n]
            # the last columns of each candidate, of each chain repeat
            last = (np.arange(_MAX_CHAIN) - _MAX_CHAIN) % n[:, None]
            xs = np.take_along_axis(values, last, 1)
            ys = np.take_along_axis(values, n[:, None] - 1 - last, 1)
            zs = z[:, None]

            def rows(i: int, j: int) -> tuple:
                return (xs[i:j], ys[i:j], zs[i:j]) if level == "weak" else (xs[i:j], zs[i:j], ys[i:j])

            return rows, lambda i: (tuple(pts[j] for j in values[i, : n[i]].tolist()), pts[int(z[i])])

        return FWSampler(draw, build, stack, points=pts)

    return factory


def omega_distance(x: tuple, y: tuple) -> float:
    if x == y:
        return 0.0
    kx, ky = x[0], y[0]
    if kx == ky:  # distinct naturals, or distinct marked points
        return 1.0
    # a natural's index decides, else the marked point's (the other is "inf")
    return 1.0 / (x[1] if kx == "n" or ky == "inf" else y[1]) ** 2


def omega_space(n_max: int) -> DistanceSpaceSpec:
    """Naturals, a parallel copy of marked points, and one point at infinity.

    Distinct naturals sit at distance one from each other while both copies
    converge quadratically to the infinity point, so the interleaved walk has
    a summable consecutive-distance series without ever being Cauchy.
    """
    return DistanceSpaceSpec(
        point_descr=f"omega interleaving space (n<={n_max})",
        distance=omega_distance,
        kind=SpaceKind.DISTANCE,
        monoid=real_nonneg_monoid(),
        ladder=dyadic_ladder(4),
    )


def interleaved_sequence(length: int) -> list[tuple]:
    """The canonical walk 1, w1, 2, w2, ... of the requested length."""
    out = []
    k = 1
    while len(out) < length:
        out.append(("n", k))
        if len(out) < length:
            out.append(("w", k))
        k += 1
    return out


def _omega_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`omega_distance`, bit for bit, on float codes of the points (n_k: k,
    w_k: -k, inf: 0): 1.0 / k**2 of the natural's index, else the marked point's."""
    k = np.where(a > 0, a, np.where(b > 0, b, -(a + b)))
    with np.errstate(divide="ignore"):  # k is 0 only at (inf, inf), where a == b
        return np.where(a == b, 0.0, np.where(a * b > 0, 1.0, 1.0 / (k * k)))


def _omega_fw_sampler(n_max: int):
    """Keyed: a chain by k, a weak draw by (start, coin), a standard one by
    start.  The weak and standard stacked form is a row per distinct key of
    min(64, n_max - 1) points (any start), coded as `_omega_distances` reads them."""
    top = max(1, n_max - 65)
    steps = np.arange(min(64, n_max - 1), dtype=float)

    def factory(level: str) -> FWSampler:
        if level == "strong":
            return FWSampler(
                lambda rng: rng.randint(2, n_max - 1), lambda k: [("n", k), ("w", k), ("n", k + 1)]
            )
        weak = level == "weak"

        def draw(rng: random.Random):
            start = rng.randint(1, top)
            return (start, rng.random() < 0.5) if weak else start

        def build(key):
            start, coin = key if level == "weak" else (key, True)
            n = min(64, n_max - start)
            xs = [("n", start + i) for i in range(n)]
            zs = [("w", start + i) for i in range(n)] if coin else [("inf",)] * n
            if level == "weak":
                return xs, zs, ("inf",)
            return xs, zs, [("n", start + i + 1) for i in range(n)]

        def stack(rng: random.Random, count: int) -> tuple:
            # draw's words: randint(1, top) is 1 + _randbelow(top), then weak's random() of two
            tail = 2 if weak else 0
            block, p = replay(rng, count, 1 + tail, lambda block, p: block.kept(top, p) + 1 + tail)
            at = block.kept(top, p)
            starts = block.value(top, at).astype(int) + 1
            coins = block.random(at + 1) < 0.5 if weak else np.ones(count, dtype=bool)
            keys, row_of = np.unique(2 * starts + coins, return_inverse=True)
            xs = keys[:, None] // 2 + steps
            zs = np.where(keys[:, None] % 2 == 1, -xs, 0.0)
            rows = (xs, zs, np.zeros((len(keys), 1)) if weak else xs + 1)
            return rows, lambda i: (int(starts[i]), bool(coins[i])) if weak else int(starts[i]), row_of

        return FWSampler(draw, build, stack, _omega_distances)

    return factory


# Spaces on the reals: the distance on floats and on float arrays (the same
# float operations entry for entry), kind, dyadic ladder depth, description,
# samples.  `np.float_power` calls the C library's pow on each entry, as `**`
# on a float does; `np.power(d, 2.0)` squares, which differs from it in the
# last bit on about 0.1 % of floats.
_REAL_SPACES = {
    "real_abs": (
        lambda x, y: abs(x - y), lambda x, y: abs(x - y), SpaceKind.DISTANCE, 20, "reals with |x-y|",
        (-2.0, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 3.25, -1.25, 0.0625),
    ),
    "snowflake": (
        snowflake_distance, _snowflake_distances, SpaceKind.DISTANCE, 4,
        "reals with |x-y| below one and (x-y)^2 above",
        (-2.0, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 3.25),
    ),
    "squared": (
        lambda x, y: (x - y) ** 2, lambda x, y: np.float_power(x - y, 2.0), SpaceKind.DISTANCE, 4,
        "reals with (x-y)^2",
        (-2.0, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 3.25),
    ),
    "dislocated_max": (
        lambda x, y: max(x, y), np.maximum, SpaceKind.DISLOCATED, 4, "nonnegative reals with max(x, y)",
        (0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 3.0),
    ),
}


def get_space(name: str) -> SpaceEntry:
    base, arg = _parse_name(
        name, ("real_abs", "snowflake", "squared", "dislocated_max", "broken_pseudo_as_distance")
    )
    if base in _REAL_SPACES:
        distance, array_distance, kind, depth, descr, samples = _REAL_SPACES[base]
        metric = kind is SpaceKind.DISTANCE  # else dislocated_max, on the nonnegative reals
        space = DistanceSpaceSpec(
            point_descr=descr,
            distance=distance,
            kind=kind,
            monoid=real_nonneg_monoid(),
            ladder=dyadic_ladder(depth),
            weierstrass_capable=metric,
            regular_order=metric,
            co_regular_order=metric,
        )
        fw_sampler = _real_fw_sampler(space, array_distance, nonneg=not metric)
        return SpaceEntry(name=name, space=space, samples=samples, fw_sampler=fw_sampler)
    if base == "omega_counterexample":
        n_max = _int_param(name, arg, 128, 3, 10**6)
        space = omega_space(n_max)
        samples = [("inf",)]
        for k in (1, 2, 3, 5, 8, 13, min(21, n_max), n_max):
            samples += [("n", k), ("w", k)]
        return SpaceEntry(
            name=name,
            space=space,
            samples=tuple(samples),
            fw_sampler=_omega_fw_sampler(n_max),
        )
    if base == "uniform_pseudometric":
        pts = tuple(range(_int_param(name, arg, 8, 2, MAX_POINTS)))
        space, _ladder = make_uniform_from_pseudometric(
            pts, hierarchical_rho, [1.0, 0.5, 0.25, 0.125]
        )
        return SpaceEntry(
            name=name,
            space=space,
            samples=tuple(pts),
            fw_sampler=_finite_fw_sampler(pts),
            finite_carrier=tuple(pts),
        )
    if base == "gauge":
        scales = [1.0, 0.5, 2.0, 0.25, 4.0]
        scales = scales[: _int_param(name, arg, 3, 1, len(scales))]
        real_abs = get_space("real_abs").space
        factors = [
            replace(
                real_abs,
                point_descr=f"reals with {c}|x-y|",
                distance=(lambda c_: lambda x, y: c_ * abs(x - y))(c),
                kind=SpaceKind.PSEUDO,
            )
            for c in scales
        ]
        samples = (-2.0, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0)
        space = gauge_space(factors, samples=samples)
        return SpaceEntry(name=name, space=space, samples=samples)
    if base == "product":
        parts = ("real_abs,real_abs,sigma" if arg is None else arg).split(",")
        mode = parts[-1].strip()
        factor_entries = [get_space(p.strip()) for p in parts[:-1]]
        try:
            space = product_space([e.space for e in factor_entries], mode=mode)
        except ValueError as exc:
            raise KeyError(f"{name!r}: {exc}")
        combos = tuple(
            itertools.islice(
                itertools.product(*[e.samples[:4] for e in factor_entries]), 16
            )
        )
        return SpaceEntry(name=name, space=space, samples=combos)
    if base == "broken_pseudo_as_distance":
        space = DistanceSpaceSpec(
            point_descr="plane with the first-coordinate distance, wrongly declared a distance",
            distance=lambda x, y: abs(x[0] - y[0]),
            kind=SpaceKind.DISTANCE,
            monoid=real_nonneg_monoid(),
            ladder=dyadic_ladder(4),
        )
        samples = tuple((a, b) for a in (0.0, 1.0, 2.0) for b in (0.0, 1.0, 3.0))
        return SpaceEntry(name=name, space=space, samples=samples, broken=True)
    raise KeyError(f"unknown space {name!r}")


SPACE_NAMES = (
    "real_abs",
    "snowflake",
    "squared",
    "dislocated_max",
    "omega_counterexample{128}",
    "uniform_pseudometric{8}",
    "gauge{3}",
    "product{real_abs,real_abs,sigma}",
    "broken_pseudo_as_distance",
)


# ---------------------------------------------------------------------------
# Named maps for the map solver


def default_sample_pairs(ladder: TestLadder) -> tuple:
    pairs = []
    for r in ladder.rungs:
        pairs.append((0.0, r))
        pairs.append((-r, 0.4 * r))
        pairs.append((0.17, 0.17 + 1.4 * r))
    return tuple(pairs)


def get_map(name: str) -> MapEntry:
    halve = LambdaSequence.constant(lambda t: t / 2.0)
    maps = {
        # name: map, description, x0_default, monotone_x0, Caristi potential,
        # step operators of the sequential and monotone drivers
        "halving": (lambda x: x / 2.0, "x -> x/2", 8.0, -8.0, lambda x: 2.0 * abs(x), halve),
        "affine_to_two": (
            lambda x: x / 2.0 + 1.0, "x -> x/2 + 1", 0.0, 0.0, lambda x: 2.0 * abs(x - 2.0), halve
        ),
        "increment": (lambda x: x + 1.0, "x -> x + 1", 0.0, 0.0, abs, halve),
        "identity": (lambda x: x, "x -> x", 5.0, 5.0, abs, LambdaSequence.constant(lambda t: t)),
    }
    if name not in maps:
        raise KeyError(f"unknown map {name!r}")
    fn, descr, x0, monotone_x0, potential, lam = maps[name]
    space = get_space("real_abs").space
    return MapEntry(
        name=name,
        space=space,
        fn=fn,
        descr=descr,
        x0_default=x0,
        monotone_x0=monotone_x0,
        meir_keeler=MeirKeelerData(
            delta_of=next_rung_choice(space.ladder), zeta=space.monoid.combine
        ),
        caristi=CaristiData(potential=potential, eta=lambda a: a),
        lam=lam,
        sample_pairs=default_sample_pairs(space.ladder),
    )


MAP_NAMES = ("halving", "affine_to_two", "increment", "identity")

"""Multiple fixed points on finite-index profile spaces with a mixed order.

A profile assigns a point of the base space to every index.  A reindexing map
sigma turns a function of profiles into a self-map of profiles; its fixed
profiles are the multiple fixed points.  The mixed order flips the base order
on the indices flagged by P, which is what makes coupled (increasing in one
slot, decreasing in the other) problems monotone.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .engine import LambdaSequence, MapSpec, SolveReport, solve_monotone
from .spaces import DistanceSpaceSpec, product_space


@dataclass(frozen=True)
class SigmaSpec:
    """A finite index set with a reindexing map and a polarity flag per index."""

    index_set: tuple
    sigma: Callable[[Any, Any], Any]
    polarity: Callable[[Any], int]

    def position(self, alpha: Any) -> int:
        return self.index_set.index(alpha)


@dataclass(frozen=True)
class ProfilePoint:
    """A total assignment index -> point, stored in index-set order."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)


def sigma_lift(
    s: SigmaSpec, f: Callable[[Callable[[Any], Any]], Any]
) -> Callable[[ProfilePoint], ProfilePoint]:
    """Lift f, a function of profiles, to a self-map of profiles:
    the alpha coordinate of the image is f applied to beta -> x(sigma(alpha, beta))."""

    def lifted(x: ProfilePoint) -> ProfilePoint:
        def coord(alpha: Any) -> Any:
            return f(lambda beta: x.values[s.position(s.sigma(alpha, beta))])

        return ProfilePoint(values=tuple(coord(a) for a in s.index_set))

    return lifted


def p_order_leq(
    s: SigmaSpec,
    x: ProfilePoint,
    y: ProfilePoint,
    base_leq: Callable[[Any, Any], bool],
) -> bool:
    """The mixed order: ascending on polarity-0 indices, descending on polarity-1."""
    for i, alpha in enumerate(s.index_set):
        a, b = x.values[i], y.values[i]
        if s.polarity(alpha) == 0:
            if not base_leq(a, b):
                return False
        else:
            if not base_leq(b, a):
                return False
    return True


def profile_space(space_y: DistanceSpaceSpec, s: SigmaSpec) -> DistanceSpaceSpec:
    """The coordinatewise product space over profiles, one factor per index."""
    factors = [space_y] * len(s.index_set)
    base = product_space(factors, mode="coordinatewise")

    def dist(x: ProfilePoint, y: ProfilePoint) -> tuple:
        return base.distance(x.values, y.values)

    def peq(x: ProfilePoint, y: ProfilePoint) -> bool:
        return base.point_eq(x.values, y.values)

    descr = f"profiles over {base.point_descr}"
    return replace(base, point_descr=descr, distance=dist, point_eq=peq)


def _non_finite(_k: int, _cur: ProfilePoint, nxt: ProfilePoint) -> Optional[str]:
    """The step check of the Fredholm solve, on the float coordinates of a profile."""
    bad = any(isinstance(v, float) and not math.isfinite(v) for v in nxt.values)
    return "non_finite_iterate" if bad else None


def solve_multiple_fixed_point(
    space_y: DistanceSpaceSpec,
    s: SigmaSpec,
    f: Callable[[Callable[[Any], Any]], Any],
    x0: ProfilePoint,
    lam: LambdaSequence,
    budget: int,
) -> SolveReport:
    """Find a profile fixed under the lift of f, driving the monotone solver
    over the profile product space with the mixed order of `<=`.

    Requires the base space to be declared both order-regular and
    co-order-regular: the mixed order reads the base order upward on some
    coordinates and downward on others.  A coordinate that raises
    ArithmeticError is NaN; as in the Fredholm solve, an iterate with a
    float coordinate that is not finite ends it with non_finite_iterate.
    """
    if not (space_y.regular_order and space_y.co_regular_order):
        raise ValueError(
            "base space must be declared regular and co-regular for the mixed order"
        )
    pspace = profile_space(space_y, s)

    def coordinate(view: Callable[[Any], Any]) -> Any:
        try:
            return f(view)
        except ArithmeticError:
            return math.nan

    lifted = sigma_lift(s, coordinate)
    fmap = MapSpec(apply=lifted, order_leq=lambda x, y: p_order_leq(s, x, y, operator.le))
    return solve_monotone(pspace, fmap, lam, x0, "series", budget, extra_step_check=_non_finite)


def coupled_fixed_point(
    space_y: DistanceSpaceSpec,
    f: Callable[[Any, Any], Any],
    x0: Any,
    y0: Any,
    lam: LambdaSequence,
    budget: int,
) -> SolveReport:
    """Two-index convenience wrapper: the swap reindexing with mixed polarity.

    Finds (u, v) with u = f(u, v) and v = f(v, u), iterating from the profile
    (x0, y0)."""
    s = coupled_sigma()
    return solve_multiple_fixed_point(
        space_y,
        s,
        lambda view: f(view(1), view(2)),
        ProfilePoint(values=(x0, y0)),
        lam,
        budget,
    )


def coupled_sigma() -> SigmaSpec:
    """Index set {1, 2}; index 1 reads profiles as-is, index 2 swaps them."""

    def sigma(alpha: Any, beta: Any) -> Any:
        if alpha == 1:
            return beta
        return 2 if beta == 1 else 1

    return SigmaSpec(index_set=(1, 2), sigma=sigma, polarity=lambda a: 0 if a == 1 else 1)

"""Orientation-preserving piecewise-affine expanding circle maps.

A map of degree k is described by its k branch breakpoints (the preimages
of the fixed point, the first of which *is* the fixed point) together with
one positive slope per branch.  Each branch is affine in the lift and wraps
the circle exactly once, so the branch lengths are the reciprocals of the
slopes.  Inverse branches, the expansion constant K and the Lipschitz
constant C are all exact for this class.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .circle import EPS, reduce, reduce_many

_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class ExpandingMap:
    """Piecewise-affine expanding circle map of degree k >= 2.

    ``breaks[0]`` is the fixed point a0; ``breaks`` lists T^{-1}(a0) in
    counterclockwise order starting from a0.  ``slopes[i]`` is the
    derivative on the branch [breaks[i], breaks[i+1]).
    """

    breaks: tuple
    slopes: tuple

    def __post_init__(self):
        k = len(self.breaks)
        if k < 2:
            raise ValueError("expanding maps must have degree >= 2")
        if len(self.slopes) != k:
            raise ValueError("need one slope per branch")
        if min(self.slopes) <= 1.0:
            raise ValueError("map is not expanding: need all slopes > 1")
        a0 = self.breaks[0]
        lifted = [a0 + reduce(b - a0) for b in self.breaks]
        if any(lifted[i + 1] - lifted[i] <= EPS for i in range(k - 1)):
            raise ValueError("branch breakpoints must be strictly increasing")
        for i in range(k):
            hi = lifted[i + 1] if i + 1 < k else a0 + 1.0
            if abs(self.slopes[i] * (hi - lifted[i]) - 1.0) > _CLOSURE_TOL:
                raise ValueError(
                    "branch %d does not wrap the circle exactly once" % i)
        object.__setattr__(self, "_lifted", tuple(lifted))

    @property
    def degree(self) -> int:
        return len(self.breaks)

    @property
    def expansion_constant(self) -> float:
        """K in the expansion inequality d(Tx,Ty) >= K d(x,y)."""
        return min(self.slopes)

    @property
    def lipschitz_constant(self) -> float:
        """C in the Lipschitz inequality d(Tx,Ty) <= C d(x,y)."""
        return max(self.slopes)

    @property
    def fixed_point(self) -> float:
        return self.breaks[0]

    def branch_index(self, x: float) -> int:
        """Index i with x in the half-open branch interval [a_i, a_{i+1})."""
        u = self._lifted[0] + reduce(x - self._lifted[0])
        i = bisect.bisect_right(self._lifted, u) - 1
        return max(i, 0)

    def slope_at(self, x: float) -> float:
        return self.slopes[self.branch_index(x)]

    def apply(self, x: float) -> float:
        a0 = self._lifted[0]
        i = self.branch_index(x)
        u = a0 + reduce(x - a0)
        return reduce(a0 + self.slopes[i] * (u - self._lifted[i]))

    def apply_many(self, xs) -> np.ndarray:
        """``apply`` on an array of points."""
        lifted = np.asarray(self._lifted)
        u = lifted[0] + reduce_many(np.asarray(xs, dtype=float) - lifted[0])
        i = np.maximum(lifted.searchsorted(u, "right") - 1, 0)
        slopes = np.asarray(self.slopes)
        return reduce_many(lifted[0] + slopes[i] * (u - lifted[i]))

    def orbit(self, x: float, n: int) -> List[float]:
        """Forward orbit x, T(x), ..., T^{n-1}(x)."""
        out = [reduce(x)]
        for _ in range(n - 1):
            out.append(self.apply(out[-1]))
        return out

    def inverse_branch(self, i: int, x: float) -> float:
        """The unique preimage of x in the branch interval [a_i, a_{i+1})."""
        if not 0 <= i < self.degree:
            raise IndexError(f"branch index {i} out of range")
        a0 = self._lifted[0]
        return reduce(self._lifted[i] + reduce(x - a0) / self.slopes[i])

    def preimages(self, x: float) -> List[float]:
        return [self.inverse_branch(i, x) for i in range(self.degree)]

    def is_linear(self) -> bool:
        """True iff this is the map x -> kx mod 1."""
        k = self.degree
        return (self.fixed_point == 0.0
                and all(s == k for s in self.slopes)
                and all(abs(self.breaks[i] - i / k) <= EPS for i in range(k)))

    def winding(self, left: float, right: float) -> float:
        """Total expansion of the positively oriented arc [left, right],
        i.e. the length of its image counted with multiplicity."""
        a0 = self._lifted[0]
        u = a0 + reduce(left - a0)
        length = reduce(right - left)
        if length == 0.0 and left != right:
            length = 1.0
        total = 0.0
        remaining = length
        i = self.branch_index(left)
        pos = u
        while remaining > 0:
            hi = self._lifted[i + 1] if i + 1 < self.degree else a0 + 1.0
            step = min(remaining, hi - pos)
            total += self.slopes[i] * step
            remaining -= step
            pos += step
            i += 1
            if i == self.degree:
                i = 0
                pos -= 1.0
        return total


def make_linear_map(k: int) -> ExpandingMap:
    """The map T_k(x) = kx mod 1."""
    if k < 2:
        raise ValueError("degree must be at least 2")
    return ExpandingMap(tuple(i / k for i in range(k)), (float(k),) * k)


def map_from_slopes(slopes: Sequence[float],
                    fixed_point: float = 0.0) -> ExpandingMap:
    """Piecewise-affine map with the given branch slopes.

    The branch lengths 1/slope_i must sum to 1; the breakpoints are derived
    by accumulating them from the fixed point.
    """
    total = sum(1.0 / s for s in slopes)
    if abs(total - 1.0) > _CLOSURE_TOL:
        raise ValueError("reciprocal slopes must sum to 1, got %.17g" % total)
    breaks = [reduce(fixed_point)]
    for s in slopes[:-1]:
        breaks.append(reduce(breaks[-1] + 1.0 / s))
    return ExpandingMap(tuple(breaks), tuple(float(s) for s in slopes))


#: cap on sum_{n <= max_period} k^n, the numerators ``periodic_orbits``
#: walks; 10^6 walks take about a second
MAX_ORBIT_WORK = 10 ** 6


def periodic_orbits(T: ExpandingMap, max_period: int) -> List[List[Fraction]]:
    """All periodic orbits of period <= max_period, as exact rationals.

    Only available for the linear maps T_k, whose period-n points are the
    fractions j/(k^n - 1).  Each numerator j is walked through
    j -> k j mod (k^n - 1); it starts an orbit of period n when the walk
    returns to j after exactly n steps without dropping below j, so every
    orbit is listed once, from its smallest point, by period and then by
    that point.  Raises ValueError when sum_{n <= max_period} k^n exceeds
    MAX_ORBIT_WORK.
    """
    if not T.is_linear():
        raise ValueError("exact periodic orbits need an integer-slope "
                         "linear map")
    if max_period > 16:
        raise ValueError("max_period capped at 16")
    k = T.degree
    work = sum(k ** n for n in range(1, max_period + 1))
    if work > MAX_ORBIT_WORK:
        raise ValueError(f"periodic orbits of T_{k} up to period "
                         f"{max_period} need {work} steps, more than the cap "
                         f"of {MAX_ORBIT_WORK}")
    orbits: List[List[Fraction]] = []
    for n in range(1, max_period + 1):
        den = k ** n - 1
        for j in range(den):
            walk = [j]
            y = k * j % den
            while y > j:
                walk.append(y)
                y = k * y % den
            if y == j and len(walk) == n:
                orbits.append([Fraction(y, den) for y in walk])
    return orbits

"""Orientation-preserving piecewise-affine expanding circle maps.

A map of degree k is described by its k branch breakpoints (the preimages
of the fixed point, the first of which *is* the fixed point) together with
one positive slope per branch.  Each branch is affine in the lift and wraps
the circle exactly once, so the branch lengths are the reciprocals of the
slopes.  Inverse branches, the expansion constant K and the Lipschitz
constant C are all exact for this class.

All branch geometry goes through one monotone lift F: R -> R of the map,
affine with slope s_i on branch i, with F(a_i) = i at the lifted breaks
a_0 < ... < a_{k-1} < a_0 + 1 and F(u + 1) = F(u) + k.  The image of an
arc [u, v] winds F(v) - F(u) times round the circle, the arc from u whose
image winds w times ends at F^-1(F(u) + w), and the arc crosses a branch
break wherever (F(u), F(v)) contains an integer.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .circle import EPS, reduce, reduce_many, wrap_many


def _rational(x: float) -> Fraction:
    """x as ``ExpandingMap.exact`` reads it; ValueError unless finite."""
    if not math.isfinite(x):
        raise ValueError(f"map data must be finite, got {x!r}")
    binary = Fraction(x)
    r = binary.limit_denominator(2 ** 20)
    return r if float(r) == x else binary


@dataclass(frozen=True)
class ExpandingMap:
    """Piecewise-affine expanding circle map of degree k >= 2.

    ``breaks[0]`` is the fixed point a0; ``breaks`` lists T^{-1}(a0) in
    counterclockwise order starting from a0.  ``slopes[i]`` is the
    derivative on the branch [breaks[i], breaks[i+1]).  ``exact`` is the
    map's one exact model: the lifted breaks in [a_0, a_0 + 1) and the
    slopes as ``Fraction``s, each float x read as the nearest rational of
    denominator at most 2^20 where that rounds to x (i/k and k for T_k),
    else as x's binary value.  Every branch closes on it, s_i (a_{i+1} -
    a_i) = 1 with a_k = a_0 + 1, or the map is rejected.
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
        a = [_rational(b) for b in self.breaks]
        a = [a[0] + (b - a[0]) % 1 for b in a] + [a[0] + 1]
        s = [_rational(v) for v in self.slopes]
        for i in range(k):
            if s[i] * (a[i + 1] - a[i]) != 1:
                raise ValueError(
                    "branch %d does not wrap the circle exactly once" % i)
        object.__setattr__(self, "exact", (tuple(a[:k]), tuple(s)))
        object.__setattr__(self, "_lifted", tuple(lifted))
        object.__setattr__(self, "_lifted_array", np.array(lifted))
        object.__setattr__(self, "_slope_array",
                           np.array(self.slopes, dtype=float))

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
        lifted = self._lifted
        u = lifted[0] + reduce(x - lifted[0])
        i = max(bisect.bisect_right(lifted, u) - 1, 0)
        return reduce(lifted[0] + self.slopes[i] * (u - lifted[i]))

    def apply_many(self, xs) -> np.ndarray:
        """``apply`` on an array of points; ValueError on non-finite
        points, which the first reduction checks: the image of finite
        points is finite."""
        lifted, slopes = self._lifted_array, self._slope_array
        u = lifted[0] + reduce_many(np.asarray(xs, dtype=float) - lifted[0])
        i = lifted[1:].searchsorted(u, "right")
        return wrap_many(lifted[0] + slopes[i] * (u - lifted[i]))

    def inverse_branch(self, i: int, x: float) -> float:
        """The unique preimage of x in the branch interval [a_i, a_{i+1})."""
        if not 0 <= i < self.degree:
            raise IndexError(f"branch index {i} out of range")
        a0 = self._lifted[0]
        return reduce(self._lifted[i] + reduce(x - a0) / self.slopes[i])

    def is_linear(self) -> bool:
        """True iff this is the map x -> kx mod 1, on the exact model."""
        k = self.degree
        return self.exact == (tuple(Fraction(i, k) for i in range(k)),
                              (k,) * k)

    def lift(self, us) -> np.ndarray:
        """F on an array of real points: with t whole turns past a_0 and
        u - t in branch i, F(u) = i + kt + s_i (u - t - a_i)."""
        lifted, slopes = self._lifted_array, self._slope_array
        w = np.subtract(us, self._lifted[0])
        turns = np.floor(w)
        # the representative of u in [a_0, a_0 + 1), lifted as ``apply``
        # lifts
        v = self._lifted[0] + (w - turns)
        i = lifted[1:].searchsorted(v, "right")
        return (i + self.degree * turns) + slopes[i] * (v - lifted[i])

    def lift_inverse(self, ys) -> np.ndarray:
        """F^-1 on an array: the real points u with F(u) = y."""
        ys = np.asarray(ys, dtype=float)
        n = np.floor(ys)
        turns, i = np.divmod(n.astype(int), self.degree)
        return self._lifted_array[i] + (ys - n) / self._slope_array[i] + turns

    def winding(self, left, right):
        """Total expansion of the positively oriented arc [left, right],
        i.e. the length of its image counted with multiplicity,
        F(left + length) - F(left); k for a full turn (right one turn
        past left).  Arrays of ends give an array of windings."""
        left = np.asarray(left, dtype=float)
        length = reduce_many(np.subtract(right, left))
        length[(length == 0.0) & (left != right)] = 1.0
        ends = self.lift(np.array([left, left + length]))
        total = ends[1] - ends[0]
        return float(total) if total.ndim == 0 else total


def make_linear_map(k: int) -> ExpandingMap:
    """The map T_k(x) = kx mod 1."""
    if k < 2:
        raise ValueError("degree must be at least 2")
    return ExpandingMap(tuple(i / k for i in range(k)), (float(k),) * k)


def map_from_slopes(slopes: Sequence[float],
                    fixed_point: float = 0.0) -> ExpandingMap:
    """Piecewise-affine map with the given branch slopes: the breaks sum
    the lengths 1/slope_i from the fixed point in ``Fraction``s, as
    ``exact`` reads the data, each rounded once.  Unless the lengths sum
    to 1 the last branch does not close, and ValueError is raised, as it
    is unless every slope is > 1."""
    if any(v <= 1 for v in slopes):
        raise ValueError("map is not expanding: need all slopes > 1")
    breaks = [_rational(reduce(fixed_point))]
    for v in slopes[:-1]:
        breaks.append(breaks[-1] + 1 / _rational(v))
    return ExpandingMap(tuple(float(b % 1) for b in breaks),
                        tuple(float(v) for v in slopes))


#: cap on sum_{n <= max_period} k^n, the numerators ``periodic_orbits``
#: walks; 10^6 walks take about a second
MAX_ORBIT_WORK = 10 ** 6
#: largest period ``periodic_orbits`` lists
MAX_PERIOD = 16


def check_periodic_orbits(T: ExpandingMap, max_period: int) -> None:
    """Raise ValueError unless ``periodic_orbits(T, max_period)`` can run:
    T linear, max_period <= MAX_PERIOD and sum_{n <= max_period} k^n <=
    MAX_ORBIT_WORK.  It walks no orbit, so callers check before any work."""
    if not T.is_linear():
        raise ValueError("exact periodic orbits need an integer-slope "
                         "linear map")
    if max_period > MAX_PERIOD:
        raise ValueError(f"max_period capped at {MAX_PERIOD}")
    k = T.degree
    work = sum(k ** n for n in range(1, max_period + 1))
    if work > MAX_ORBIT_WORK:
        raise ValueError(f"periodic orbits of T_{k} up to period "
                         f"{max_period} need {work} steps, more than the cap "
                         f"of {MAX_ORBIT_WORK}")


def orbit_walks(T: ExpandingMap, max_period: int):
    """Per period n <= max_period, den = k^n - 1 and the numerators of its
    orbits, one int64 column per orbit and a row per step.  The period-n
    points of T_k are the j/(k^n - 1), and row i of the walk holds j k^i
    mod den for every j: one (n, den) array, reduced in place.  j starts
    an orbit when rows 1..n-1 exceed row 0; its walk returns to j at step
    n, as k^n = 1 mod den.  So each orbit comes once, from its smallest
    point, in order of that point.  Raises ValueError where
    ``check_periodic_orbits`` does."""
    check_periodic_orbits(T, max_period)
    k = T.degree
    for n in range(1, max_period + 1):
        den = k ** n - 1
        walk = np.multiply.outer(k ** np.arange(n), np.arange(den))
        walk %= den
        orbits = walk[:, (walk[1:] > walk[0]).all(axis=0)]
        # freed before the next period's walk, which is twice as large
        del walk
        yield den, orbits


def periodic_orbits(T: ExpandingMap, max_period: int) -> List[List[Fraction]]:
    """All periodic orbits of period <= max_period of the linear map T_k,
    as exact rationals: the columns of ``orbit_walks``, raising as it does."""
    return [[Fraction(y, den) for y in orbit.tolist()]
            for den, walk in orbit_walks(T, max_period) for orbit in walk.T]

"""Arithmetic on the circle R/Z: points, oriented arcs, and on arrays the
exact arc tests and the cells between points.

Points are plain floats in [0, 1).  An endpoint tolerance EPS is used for
the coincidence tests of flower geometry, which are stable because every
quantity computed downstream is continuous in arc endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: global endpoint coincidence tolerance
EPS = 1e-12


def reduce(x: float) -> float:
    """Reduce a real number mod 1 into [0, 1)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot reduce non-finite value {x!r}")
    r = x % 1.0
    # x % 1.0 can round up to exactly 1.0 for tiny negative x
    if r >= 1.0:
        r -= 1.0
    return r


def reduce_many(xs) -> np.ndarray:
    """``reduce`` on an array: same values, same ValueError on non-finite
    entries."""
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("cannot reduce non-finite values")
    # x - floor(x) rounds like x % 1.0, and to 1.0 where that does too
    r = xs - np.floor(xs)
    return np.where(r >= 1.0, 0.0, r)


def distance(x: float, y: float) -> float:
    """Shortest distance on the circle, in [0, 1/2]."""
    d = abs(reduce(x) - reduce(y))
    return min(d, 1.0 - d)


def distance_many(xs, ys) -> np.ndarray:
    """``distance`` on arrays (broadcast): same values, same ValueError on
    non-finite entries."""
    d = np.abs(reduce_many(xs) - reduce_many(ys))
    return np.minimum(d, 1.0 - d)


def lift(base: float, x: float) -> float:
    """Representative of x in the half-open interval [base, base+1)."""
    return base + reduce(x - base)


@dataclass(frozen=True)
class Arc:
    """Positively oriented closed arc [left, right] on the circle.

    left == right denotes a degenerate single-point arc, never the full
    circle.
    """

    left: float
    right: float

    def __post_init__(self):
        object.__setattr__(self, "left", reduce(self.left))
        object.__setattr__(self, "right", reduce(self.right))

    @property
    def length(self) -> float:
        if self.left == self.right:
            return 0.0
        return reduce(self.right - self.left)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        """True iff x lies in the closed arc, up to endpoint tolerance tol."""
        if tol < 0:
            raise ValueError("tol must be >= 0")
        off = reduce(reduce(x) - self.left)
        return off <= self.length + tol or off >= 1.0 - tol

    def midpoint(self) -> float:
        return reduce(self.left + self.length / 2.0)

    def complement(self) -> "Arc":
        """The complementary-orientation closed arc [right, left]."""
        return Arc(self.right, self.left)


def in_closed_arcs(xs, left, length) -> np.ndarray:
    """``Arc.contains`` on arrays (broadcast): True where the reduced point
    lies in the closed arc from the reduced ``left`` of that ``length``.
    A difference of reduced points lies in (-1, 1), where adding 1 below 0
    reduces it; a sum that rounds to 1.0 is the left end."""
    off = xs - left
    off += off < 0.0
    return (off <= length) | (off >= 1.0)


def arc_indicator(xs, arc: Arc, closed: bool = True) -> np.ndarray:
    """``Arc.contains`` at the reduced points xs, or, for the open arc,
    that less the two ends."""
    inside = in_closed_arcs(xs, arc.left, arc.length)
    return inside if closed else inside & (xs != arc.left) & (xs != arc.right)


def cells(xs) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct reduced points xs and the midpoints of the
    cyclic cells from each point to the next, the last through 0 (a whole
    turn for one point).  A step function that jumps only at the points is
    known everywhere from its values at both."""
    pts = np.unique(xs)
    nxt = np.roll(pts, -1)
    return pts, ((pts + nxt + np.where(nxt <= pts, 1.0, 0.0)) / 2.0) % 1.0


class StepFunction:
    """An integer step function that jumps at most at the sorted distinct
    points ``breakpoints``, held exactly as its ``values`` at
    ``cells(breakpoints)``: at each point, then on the cell after each.
    The library checks the characteristic identity on plain arrays; this
    class stays while ``perfbench/spans.py`` wraps ``add`` and ``equal``."""

    def __init__(self, breakpoints, values):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=np.int64)

    @classmethod
    def indicator(cls, arc: Arc, closed: bool = True) -> "StepFunction":
        """The indicator of the closed arc, or of the open one."""
        pts = np.unique([arc.left, arc.right])
        return cls(pts, arc_indicator(np.concatenate(cells(pts)), arc, closed))

    def eval_many(self, xs) -> np.ndarray:
        """The values at the reduced points xs."""
        n = len(self.breakpoints)
        i = (np.searchsorted(self.breakpoints, xs, "right") - 1) % n
        return np.where(self.breakpoints[i] == xs, self.values[i],
                        self.values[n + i])

    def add(self, other: "StepFunction", sign: int = 1) -> "StepFunction":
        """self + sign * other, on the union of the breakpoints."""
        pts = np.union1d(self.breakpoints, other.breakpoints)
        x = np.concatenate(cells(pts))
        return StepFunction(pts, self.eval_many(x) + sign * other.eval_many(x))

    def equal(self, other: "StepFunction") -> bool:
        """Exact equality everywhere, at the breakpoints too."""
        return not self.add(other, -1).values.any()

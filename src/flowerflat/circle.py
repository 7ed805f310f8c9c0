"""Arithmetic on the circle R/Z: points, oriented arcs, integer step functions.

Points are plain floats in [0, 1).  An endpoint tolerance EPS is used for
all coincidence tests; every quantity computed downstream is continuous in
arc endpoints, so tolerance comparisons are stable.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    if not np.all(np.isfinite(xs)):
        raise ValueError("cannot reduce non-finite values")
    # x - floor(x) rounds like x % 1.0, and to 1.0 where that does too
    r = xs - np.floor(xs)
    return np.where(r >= 1.0, 0.0, r)


def distance(x: float, y: float) -> float:
    """Shortest distance on the circle, in [0, 1/2]."""
    d = abs(reduce(x) - reduce(y))
    return min(d, 1.0 - d)


def lift(base: float, x: float) -> float:
    """Representative of x in the half-open interval [base, base+1)."""
    return base + reduce(x - base)


class CyclicOrder:
    """Linear order on the circle with `base` as unique minimum."""

    def __init__(self, base: float):
        self.base = reduce(base)

    def key(self, x: float) -> float:
        return lift(self.base, x)

    def less(self, u: float, v: float) -> bool:
        return self.key(u) < self.key(v)


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


def arc_contains(a: Arc, x: float, tol: float = 0.0) -> bool:
    return a.contains(x, tol)


def _same_point(u: float, v: float) -> bool:
    return distance(u, v) <= EPS


class StepFunction:
    """Integer-valued step function with finitely many breakpoints.

    ``gaps[i]`` is the value on the open arc (breakpoints[i], breakpoints[i+1])
    (cyclically), and ``points[i]`` is the value at breakpoints[i] itself, so
    closed-arc indicators are represented exactly at their endpoints.
    A function with no breakpoints is the constant ``gaps[0]``.
    """

    __slots__ = ("breakpoints", "gaps", "points")

    def __init__(self, breakpoints: Sequence[float], gaps: Sequence[int],
                 points: Sequence[int]):
        bps = [reduce(b) for b in breakpoints]
        if bps:
            order = sorted(range(len(bps)), key=lambda i: bps[i])
            bps = [bps[i] for i in order]
            gv = [int(gaps[i]) for i in order]
            pv = [int(points[i]) for i in order]
        else:
            gv = [int(gaps[0])]
            pv = []
        m = len(bps)
        # canonical form: drop breakpoints carrying no information
        if m:
            keep = [i for i in range(m)
                    if not (pv[i] == gv[i] == gv[(i - 1) % m])]
            if keep:
                bps = [bps[i] for i in keep]
                gv = [gv[i] for i in keep]
                pv = [pv[i] for i in keep]
            else:
                bps, gv, pv = [], [gv[0]], []
        self.breakpoints = tuple(bps)
        self.gaps = tuple(gv)
        self.points = tuple(pv)

    @classmethod
    def constant(cls, value: int) -> "StepFunction":
        return cls([], [value], [])

    @classmethod
    def indicator(cls, arc: Arc) -> "StepFunction":
        """Characteristic function of a closed arc (1 at both endpoints)."""
        if _same_point(arc.left, arc.right) and arc.length < 0.5:
            return cls([arc.left], [0], [1])
        # breakpoints sorted; the gap starting at `left` carries value 1
        if arc.left < arc.right:
            return cls([arc.left, arc.right], [1, 0], [1, 1])
        return cls([arc.right, arc.left], [0, 1], [1, 1])

    @classmethod
    def indicator_open(cls, arc: Arc) -> "StepFunction":
        """Characteristic function of an open arc (0 at both endpoints)."""
        if _same_point(arc.left, arc.right) and arc.length < 0.5:
            return cls.constant(0)
        if arc.left < arc.right:
            return cls([arc.left, arc.right], [1, 0], [0, 0])
        return cls([arc.right, arc.left], [0, 1], [0, 0])

    def eval(self, x: float) -> int:
        bps = self.breakpoints
        if not bps:
            return self.gaps[0]
        x = reduce(x)
        m = len(bps)
        i = bisect.bisect_right(bps, x)
        # candidates for point coincidence: neighbours (with wrap)
        for j in (i - 1, i % m):
            if distance(x, bps[j]) <= EPS:
                return self.points[j]
        return self.gaps[(i - 1) % m]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized gap-value evaluation (point values are ignored)."""
        bps = self.breakpoints
        if not bps:
            return np.full(len(xs), self.gaps[0], dtype=np.int64)
        idx = (np.searchsorted(np.asarray(bps), np.asarray(xs), side="right")
               - 1) % len(bps)
        return np.asarray(self.gaps, dtype=np.int64)[idx]

    def _merged_breakpoints(self, other: "StepFunction") -> list:
        merged: list = []
        for b in sorted(self.breakpoints + other.breakpoints):
            if not merged or not _same_point(merged[-1], b):
                merged.append(b)
        if len(merged) > 1 and _same_point(merged[0], merged[-1]):
            merged.pop()
        return merged

    def add(self, other: "StepFunction", sign: int = 1) -> "StepFunction":
        """Pointwise self + sign*other, including at breakpoints."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        bps = self._merged_breakpoints(other)
        if not bps:
            return StepFunction.constant(self.gaps[0] + sign * other.gaps[0])
        m = len(bps)
        pv = [self.eval(b) + sign * other.eval(b) for b in bps]
        gv = []
        for i in range(m):
            gap = reduce(bps[(i + 1) % m] - bps[i]) or 1.0
            mid = reduce(bps[i] + gap / 2.0)
            gv.append(self.eval(mid) + sign * other.eval(mid))
        return StepFunction(bps, gv, pv)

    def __add__(self, other):
        return self.add(other, 1)

    def __sub__(self, other):
        return self.add(other, -1)

    def equal(self, other: "StepFunction") -> bool:
        """Exact pointwise equality everywhere, including at breakpoints."""
        if len(self.breakpoints) != len(other.breakpoints):
            return False
        if not self.breakpoints:
            return self.gaps == other.gaps
        if self.gaps != other.gaps or self.points != other.points:
            return False
        return all(_same_point(a, b)
                   for a, b in zip(self.breakpoints, other.breakpoints))

    def integral(self) -> float:
        """Integral with respect to Lebesgue measure on the circle."""
        bps = self.breakpoints
        if not bps:
            return float(self.gaps[0])
        m = len(bps)
        total = 0.0
        for i in range(m):
            gap = reduce(bps[(i + 1) % m] - bps[i]) or 1.0
            total += self.gaps[i] * gap
        return total

    def __repr__(self):
        if not self.breakpoints:
            return f"StepFunction(const={self.gaps[0]})"
        return (f"StepFunction(breakpoints={self.breakpoints}, "
                f"gaps={self.gaps}, points={self.points})")


def step_add(f: StepFunction, g: StepFunction, sign: int = 1) -> StepFunction:
    return f.add(g, sign)


def step_equal(f: StepFunction, g: StepFunction) -> bool:
    return f.equal(g)


def step_sum(indicators: Iterable[StepFunction]) -> StepFunction:
    """Sum of a (possibly empty) collection of step functions."""
    total = StepFunction.constant(0)
    for s in indicators:
        total = total.add(s)
    return total

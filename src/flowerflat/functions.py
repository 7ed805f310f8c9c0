"""Lipschitz function models on the circle.

Two concrete classes are provided: continuous piecewise-linear functions
and trigonometric polynomials.  Both evaluate exactly, on one point or on
an array, and carry their Lipschitz constant: integrals of f' against
step functions reduce to finite sums of f-values, so no quadrature ever
enters.
"""
from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

import numpy as np

from .circle import EPS, reduce, reduce_many
from .dynamics import ExpandingMap

_CLOSURE_TOL = 1e-9


def _merged_pieces(points, slope_at) -> Tuple[List[float], List[float]]:
    """The sorted points, less each one within EPS of the one before and
    a last one within EPS of the first a turn on, and ``slope_at`` the
    midpoint of each gap from one to the next."""
    bps: List[float] = []
    for b in sorted(points):
        if not bps or b - bps[-1] > EPS:
            bps.append(b)
    if len(bps) > 1 and (bps[0] + 1.0) - bps[-1] <= EPS:
        bps.pop()
    gaps = [(bps[(i + 1) % len(bps)] - b) % 1.0 or 1.0
            for i, b in enumerate(bps)]
    return bps, [slope_at(reduce(b + g / 2.0)) for b, g in zip(bps, gaps)]


class PiecewiseLinear:
    """Continuous piecewise-linear function on the circle.

    ``slopes[i]`` applies on the gap (breakpoints[i], breakpoints[i+1])
    (cyclically); ``anchor_value`` is the value at breakpoints[0].  The
    closure condition sum(slope * gap) = 0 is checked and then enforced
    exactly by re-deriving the final slope, so increments over full cycles
    vanish identically.
    """

    def __init__(self, breakpoints: Sequence[float], slopes: Sequence[float],
                 anchor_value: float = 0.0):
        if len(breakpoints) != len(slopes) or not breakpoints:
            raise ValueError("need one slope per breakpoint gap")
        bps = [reduce(b) for b in breakpoints]
        order = sorted(range(len(bps)), key=lambda i: bps[i])
        bps = [bps[i] for i in order]
        sl = [float(slopes[i]) for i in order]
        if any(bps[i + 1] - bps[i] <= EPS for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        m = len(bps)
        lifted = bps + [bps[0] + 1.0]
        lens = [lifted[i + 1] - lifted[i] for i in range(m)]
        total = sum(s * g for s, g in zip(sl, lens))
        scale = 1.0 + sum(abs(s) * g for s, g in zip(sl, lens))
        if abs(total) > _CLOSURE_TOL * scale:
            raise ValueError("slopes do not close up around the circle "
                             "(defect %.3g)" % total)
        sl[-1] -= total / lens[-1]
        values = [float(anchor_value)]
        for i in range(m - 1):
            values.append(values[-1] + sl[i] * lens[i])
        self.breakpoints = tuple(bps)
        self.slopes = tuple(sl)
        self.anchor_value = float(anchor_value)
        self._lifted = tuple(lifted)
        self._values = tuple(values)
        self._table = (np.array(lifted[:m]), np.array(values), np.array(sl))

    @classmethod
    def from_points(cls, points: Sequence[float],
                    values: Sequence[float]) -> "PiecewiseLinear":
        """Interpolate the given (point, value) pairs linearly in between."""
        if len(points) != len(values) or len(points) < 2:
            raise ValueError("need at least two interpolation points")
        pts = [reduce(p) for p in points]
        order = sorted(range(len(pts)), key=lambda i: pts[i])
        pts = [pts[i] for i in order]
        vals = [float(values[i]) for i in order]
        m = len(pts)
        slopes = []
        for i in range(m):
            gap = (pts[(i + 1) % m] - pts[i]) % 1.0 or 1.0
            slopes.append((vals[(i + 1) % m] - vals[i]) / gap)
        return cls(pts, slopes, vals[0])

    def eval(self, x: float) -> float:
        u = self._lifted[0] + reduce(x - self._lifted[0])
        i = bisect.bisect_right(self._lifted, u) - 1
        i = min(max(i, 0), len(self.slopes) - 1)
        return self._values[i] + self.slopes[i] * (u - self._lifted[i])

    def eval_many(self, xs) -> np.ndarray:
        """``eval`` on an array of points, elementwise and of the same
        shape."""
        lifted, values, slopes = self._table
        u = lifted[0] + reduce_many(np.asarray(xs, dtype=float) - lifted[0])
        i = lifted.searchsorted(u, "right") - 1
        return values[i] + slopes[i] * (u - lifted[i])

    def slope_at(self, x: float) -> float:
        u = self._lifted[0] + reduce(x - self._lifted[0])
        i = bisect.bisect_right(self._lifted, u) - 1
        return self.slopes[min(max(i, 0), len(self.slopes) - 1)]

    def lipschitz_constant(self) -> float:
        return max(abs(s) for s in self.slopes)

    def add(self, other: "PiecewiseLinear",
            sign: float = 1.0) -> "PiecewiseLinear":
        """self + sign*other as a new piecewise-linear function."""
        bps, slopes = _merged_pieces(
            self.breakpoints + other.breakpoints,
            lambda x: self.slope_at(x) + sign * other.slope_at(x))
        anchor = self.eval(bps[0]) + sign * other.eval(bps[0])
        return PiecewiseLinear(bps, slopes, anchor)

    def shift(self, constant: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.breakpoints, self.slopes,
                               self.anchor_value + constant)


class TrigPolynomial:
    """f(x) = const + sum_j (cos_coeffs[j] cos 2pi(j+1)x
    + sin_coeffs[j] sin 2pi(j+1)x)."""

    def __init__(self, cos_coeffs: Sequence[float] = (),
                 sin_coeffs: Sequence[float] = (), constant: float = 0.0):
        n = max(len(cos_coeffs), len(sin_coeffs))
        self.cos_coeffs = tuple(list(cos_coeffs) + [0.0] * (n - len(cos_coeffs)))
        self.sin_coeffs = tuple(list(sin_coeffs) + [0.0] * (n - len(sin_coeffs)))
        self.constant = float(constant)

    def eval(self, x: float) -> float:
        total = self.constant
        for j, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs),
                                   start=1):
            t = 2.0 * math.pi * j * x
            total += a * math.cos(t) + b * math.sin(t)
        return total

    def eval_many(self, xs) -> np.ndarray:
        """``eval`` on an array of points, elementwise and of the same
        shape."""
        xs = np.asarray(xs, dtype=float)
        total = np.full(xs.shape, self.constant)
        for j, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs),
                                   start=1):
            t = 2.0 * math.pi * j * xs
            total += a * np.cos(t) + b * np.sin(t)
        return total

    def lipschitz_constant(self) -> float:
        return 2.0 * math.pi * sum(
            j * (abs(a) + abs(b))
            for j, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs),
                                       start=1))


def compose_with_map(psi: PiecewiseLinear,
                     T: ExpandingMap) -> PiecewiseLinear:
    """psi o T as a piecewise-linear function (breakpoints at the branch
    breaks and at all preimages of psi's breakpoints)."""
    pts = [reduce(b) for b in T.breaks] + [
        T.inverse_branch(i, s) for s in psi.breakpoints
        for i in range(T.degree)]
    bps, slopes = _merged_pieces(
        pts, lambda x: psi.slope_at(T.apply(x)) * T.slope_at(x))
    return PiecewiseLinear(bps, slopes, psi.eval(T.apply(bps[0])))


def demo_function(gamma: float) -> PiecewiseLinear:
    """Piecewise-linear function in normal form (max value 0) whose set of
    maxima is the first iterated-selector image of the 1-flower
    [gamma, gamma+1/2] for the doubling map.  Requires gamma in (0, 1/6)."""
    if not 0.0 < gamma < 1.0 / 6.0:
        raise ValueError("gamma must lie in (0, 1/6)")
    g = float(gamma)
    bps = [g, g / 2 + 0.25, g + 0.25, g / 2 + 0.5, g + 0.5, g + 0.75]
    slopes = [0.0, -2.0 / g, 2.0 / (0.5 - g), 0.0, -1.0, 1.0]
    return PiecewiseLinear(bps, slopes, 0.0)


def demo_potential(gamma: float) -> PiecewiseLinear:
    """The transfer function phi whose coboundary phi - phi o T_2 flattens
    demo_function(gamma) on [gamma, gamma+1/2]; anchored to 0 on the
    flower."""
    if not 0.0 < gamma < 1.0 / 6.0:
        raise ValueError("gamma must lie in (0, 1/6)")
    g = float(gamma)
    bps = [g, g + 0.5, 2 * g + 0.5]
    slopes = [0.0, -1.0 / g, 1.0 / (0.5 - g)]
    return PiecewiseLinear(bps, slopes, 0.0)

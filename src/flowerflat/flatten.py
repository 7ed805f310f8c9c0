"""Escape-time functions, flattening functionals and coboundaries.

A Lipschitz f can be flattened on a flower F exactly when, for every
discontinuity x of the selector, the integral of f' against the
escape-time density e_x = sum_n chi(tau^n I_x) vanishes.  All integrals
here are exact finite sums of f-values over the iterated-selector images;
the only approximation is the truncation of the geometric tail, which
carries a rigorous uniform bound reported with every value.

The functionals push the arc I_x through the selector piece by piece.
The transfer function phi is evaluated in closed form instead: with a the
anchor and tau right-continuous,

    phi(x) = sum_{n=1..N} [f(tau^n x) - f(tau^n a)] - sum_{c in (a, x]} J_c,

where c runs over the selector's jump ledger (the points T^m d of the
discontinuities d whose chains stay in the flower) and J_c is the jump of
sum_n f o tau^n at c.  All points move through the selector's tau table
together, one level at a time.  phi is exact up to rounding for the
truncated sum, whose distance from the full series is at most
``Coboundary.error_bound`` = Lip(f) K^-(N+1) / (1 - 1/K) everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .circle import Arc, EPS, StepFunction, reduce, reduce_many, step_sum
from .flower import Discontinuity, Flower, PreImageSelector


def tail_bound(K: float, N: int, base_length: float = 1.0) -> float:
    """L1 bound on sum_{n>N} of the iterated-image lengths."""
    return base_length * K ** (-(N + 1)) / (1.0 - 1.0 / K)


def default_depth(lipschitz: float, K: float, target: float = 1e-10) -> int:
    """Smallest N whose truncation certificate drops below ``target``."""
    N = 0
    while lipschitz * tail_bound(K, N) > target:
        N += 1
        if N > 10000:
            raise ValueError("tail bound does not reach target")
    return N


@dataclass
class EscapeFunction:
    """Truncated escape-time density e_x^(N) = sum_{n<=N} chi(tau^n I_x)."""

    terms: List[List[Arc]]
    truncation_depth: int
    tail_bound_l1: float

    def to_step(self) -> StepFunction:
        return step_sum(StepFunction.indicator(a)
                        for level in self.terms for a in level)

    def eval_int(self, t: float, tol: float = 0.0) -> int:
        return sum(a.contains(t, tol)
                   for level in self.terms for a in level)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (arc endpoints resolved to the closed side)."""
        starts, ends = [], []
        for level in self.terms:
            for a in level:
                if a.left <= a.right:
                    starts.append(a.left)
                    ends.append(a.right)
                else:
                    starts.extend((a.left, 0.0))
                    ends.extend((1.0, a.right))
        starts = np.sort(np.asarray(starts))
        ends = np.sort(np.asarray(ends))
        xs = np.asarray(xs)
        return (np.searchsorted(starts, xs, side="right")
                - np.searchsorted(ends, xs, side="left"))


def escape_function(sel: PreImageSelector, disc: Discontinuity,
                    N: int) -> EscapeFunction:
    if N < 0:
        raise ValueError("N must be >= 0")
    K = sel.flower.map.expansion_constant
    levels = sel.push_levels(disc.I, N)
    return EscapeFunction(levels, N, tail_bound(K, N, disc.I.length))


def escape_time_direct(F: Flower, t: float, cap: int = 1000):
    """First exit time of the forward orbit from a 1-flower, or None if the
    orbit stays inside for ``cap`` steps."""
    if F.p != 1:
        raise ValueError("escape time is defined for 1-flowers")
    x = reduce(t)
    for n in range(cap):
        if not F.petals[0].contains(x):
            return n
        x = F.map.apply(x)
    return None


def functional(sel: PreImageSelector, disc: Discontinuity, f,
               N: int) -> Tuple[float, float]:
    """Truncated flattening functional: integral of f' against e_x.

    Returns (value, error_bound); the bound is the rigorous geometric-tail
    certificate, uniform over all flowers with the same map.
    """
    value = 0.0
    arcs = [(disc.I.left, disc.I.right)]
    for n in range(N + 1):
        if n > 0:
            arcs = sel.push_once(arcs)
        value += sum(f.eval(r) - f.eval(l) for l, r in arcs)
    K = sel.flower.map.expansion_constant
    err = f.lipschitz_constant() * tail_bound(K, N, disc.I.length)
    return value, err


def functional_dual(sel: PreImageSelector, disc: Discontinuity, f,
                    N: int) -> Tuple[float, float]:
    """Same functional computed over the complementary arc J_x."""
    value = 0.0
    arcs = [(disc.J.left, disc.J.right)]
    for n in range(N + 1):
        if n > 0:
            arcs = sel.push_once(arcs)
        value += sum(f.eval(r) - f.eval(l) for l, r in arcs)
    K = sel.flower.map.expansion_constant
    err = f.lipschitz_constant() * tail_bound(K, N, disc.J.length)
    return value, err


def one_sided(points: np.ndarray, d) -> Tuple[np.ndarray, np.ndarray]:
    """The one-sided decision at a discontinuity point d: (near, right),
    where ``near`` marks the points within EPS of d on the circle and
    ``right`` the points at or past d, which take the right limit of tau
    there.  Arrays broadcast."""
    e = points - d
    e = np.where(e > 0.5, e - 1.0, np.where(e < -0.5, e + 1.0, e))
    return np.abs(e) <= EPS, e >= 0.0


class Coboundary:
    """Truncated transfer function phi with phi' = sum_{n=1..N} (f o tau^n)'.

    phi is anchored to 0 at ``anchor`` and carries a uniform truncation
    certificate ``error_bound``; the flattening coboundary is
    g = phi - phi o T.  phi is evaluated in the closed form given in the
    module docstring.
    """

    def __init__(self, sel: PreImageSelector, f, depth: int,
                 anchor: float = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.selector = sel
        self.f = f
        self.depth = depth
        self.anchor = (sel.flower.petals[0].left if anchor is None
                       else reduce(anchor))
        K = sel.flower.map.expansion_constant
        self.error_bound = f.lipschitz_constant() * tail_bound(K, depth)
        self._ledger_arrays = None

    def _ledger(self) -> Tuple[np.ndarray, ...]:
        """Arrays (m, d, c, tail_right, tail_left) over the selector's jump
        ledger: the chain point c, its level m and the discontinuity
        d = tau^m(c), with the sums of f over levels m+1..N of the orbit
        of a point just past c and just before it,

            tail_right = sum_{i<N-m} f(tau_R^i y),
            tail_left = sum_{i<N-m} f(tau_L^i y'),

        where y = tau_R(d) and y' = tau_L(d) are the petal endpoints at d.
        sum_n f o tau^n jumps by tail_right - tail_left at c."""
        if self._ledger_arrays is None:
            sel, f, N = self.selector, self.f, self.depth
            disc = np.asarray(sel.discontinuity_points)
            right, left = [disc], [disc]
            for _ in range(N):
                right.append(sel.tau_many(right[-1], "right"))
                left.append(sel.tau_many(left[-1], "left"))
            zero = np.zeros((1, len(disc)))
            sums_right = np.cumsum(np.vstack([zero, f.eval_many(right[1:])]),
                                   axis=0)
            sums_left = np.cumsum(np.vstack([zero, f.eval_many(left[1:])]),
                                  axis=0)
            j, m, c = (np.array(col) for col in zip(*sel.jump_ledger(N)))
            self._ledger_arrays = (m, disc[j], c, sums_right[N - m, j],
                                   sums_left[N - m, j])
        return self._ledger_arrays

    def eval_many(self, xs: Sequence[float]) -> np.ndarray:
        """phi at many points by the closed form, all points pushed
        through the selector together one level at a time.  Raises
        ValueError on non-finite points."""
        xs = reduce_many(xs)
        a = self.anchor
        orbit = np.append(xs, a)
        m, d, c, tail_right, tail_left = self._ledger()
        # past[k, i]: is point i at or past chain point k?
        past = c[:, None] <= orbit
        total = np.zeros(len(orbit))
        live = np.ones(len(orbit), dtype=bool)
        for n in range(self.depth):
            for k in np.nonzero(m == n)[0]:
                # A point whose orbit lies within EPS of d is decided by the
                # side of d it lies on, which a comparison with the
                # forward-iterated c can contradict by rounding errors that
                # grow like K^n.  Its later orbit is the exact one-sided
                # orbit of d: iterating on could round onto d again where
                # that orbit returns to it, and pick the other side.
                near, side = one_sided(orbit, d[k])
                near &= live
                side = side[near]
                past[k, near] = side
                total[near] += np.where(side, tail_right[k], tail_left[k])
                live[near] = False
            orbit = self.selector.tau_many(orbit)
            total += np.where(live, self.f.eval_many(orbit), 0.0)
        after_anchor = ~past[:, -1:]
        past = past[:, :-1]
        inside = np.where(xs >= a, after_anchor & past, after_anchor | past)
        return total[:-1] - total[-1] - (tail_right - tail_left) @ inside

    def eval(self, x: float) -> float:
        return float(self.eval_many([x])[0])

    def coboundary_many(self, xs: Sequence[float]) -> np.ndarray:
        """g = phi - phi o T at many points (error bound: 2*error_bound)."""
        xs = reduce_many(xs)
        images = self.selector.flower.map.apply_many(xs)
        vals = self.eval_many(np.concatenate([xs, images]))
        n = len(xs)
        return vals[:n] - vals[n:]


def build_coboundary(sel: PreImageSelector, f, N: int,
                     anchor: float = None) -> Coboundary:
    return Coboundary(sel, f, N, anchor)


def flattened_values(f, cob: Coboundary, points: Sequence[float]
                     ) -> np.ndarray:
    """(f + phi - phi o T) at the given points."""
    return f.eval_many(points) + cob.coboundary_many(points)


def petal_samples(F: Flower, samples_per_petal: int) -> List[float]:
    pts = []
    for petal in F.petals:
        for t in np.linspace(0.0, petal.length, samples_per_petal):
            pts.append(reduce(petal.left + t))
    return pts


def is_flat(f, cob: Coboundary, F: Flower, samples: int = 64,
            tol: float = 1e-8) -> Tuple[bool, float, float]:
    """Check that f + phi - phi o T is constant on the flower.

    Returns (flat, witnessed_constant, max_deviation); ``flat`` is true
    when the deviation stays below tol plus the truncation certificates.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per petal")
    pts = petal_samples(F, samples)
    vals = flattened_values(f, cob, pts)
    constant = float(np.mean(vals))
    max_dev = float(np.max(np.abs(vals - constant)))
    certified = tol + 4.0 * cob.error_bound
    return max_dev <= certified, constant, max_dev


def normal_form_check(f, alpha_estimate: float, samples: int = 4096,
                      tol: float = 1e-9) -> bool:
    """True iff max f <= alpha_estimate + tol on a sample grid refined by
    the function's own breakpoints (if any)."""
    grid = [i / samples for i in range(samples)]
    grid.extend(getattr(f, "breakpoints", ()))
    top = max(f.eval(x) for x in grid)
    return top <= alpha_estimate + tol

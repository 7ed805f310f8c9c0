"""Pre-Sturmian equation solving and Sturmian measure estimation.

The 1-flowers of an orientation-preserving expanding map form a circle
family F_gamma; a Lipschitz function f can be flattened on F_gamma exactly
when Phi(gamma) = integral of f' against the escape-time density of
F_gamma vanishes.  Phi is continuous in gamma, so roots are located by a
scan plus bisection; plateaus of (near-)zeros signal periodic Sturmian
measures.  A brute-force periodic-orbit oracle provides the independent
cross-check on maximizing measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circle import Arc, EPS, distance, lift, reduce
from .dynamics import ExpandingMap, periodic_orbits
from .flatten import escape_function, functional, tail_bound
from .flower import (Flower, PreImageSelector, _walk_forward, one_flower,
                     selector)


class NoSignChange(RuntimeError):
    """Raised when the scan finds neither a sign change nor a plateau."""

    def __init__(self, phi_min: float, phi_max: float):
        super().__init__(
            "no zero of the flattening functional found "
            f"(scan range [{phi_min:.6g}, {phi_max:.6g}])")
        self.phi_min = phi_min
        self.phi_max = phi_max


@dataclass(frozen=True)
class OneFlowerFamily:
    """The family of 1-flowers [gamma, b(gamma)], parametrized by the left
    endpoint; b(gamma) is the point whose image winds exactly once."""

    map: ExpandingMap

    def flower(self, gamma: float) -> Flower:
        return one_flower(self.map, gamma)

    def right_endpoint(self, gamma: float) -> float:
        return _walk_forward(self.map, reduce(gamma), 1.0)

    def gamma_with_right_endpoint(self, b: float) -> float:
        """The parameter whose flower ends at b (exact for affine maps)."""
        T = self.map
        lo, hi = 0.0, 1.0
        target = reduce(b)
        # winding from b backwards: invert by monotone bisection on gamma
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = reduce(target - mid)
            w = T.winding(g, target)
            if w < 1.0:
                lo = mid
            else:
                hi = mid
        return reduce(target - 0.5 * (lo + hi))


def _off_degenerate(family: OneFlowerFamily, gamma: float) -> float:
    """Nudge gamma off the finite set of parameters where a petal endpoint
    coincides with a branch break.  There the selector's jump
    classification is ambiguous and the computed functional can be off by
    O(1); Phi is continuous in gamma, so a 2e-9 shift changes the true
    value by at most Lip(f) * O(1e-9)."""
    breaks = family.map.breaks
    for _ in range(4):
        ends = (gamma, family.right_endpoint(gamma))
        if all(distance(e, b) > 1e-9 for e in ends for b in breaks):
            return gamma
        gamma = reduce(gamma + 2e-9)
    return gamma


def phi_of_gamma(family: OneFlowerFamily, f, gamma: float,
                 N: int) -> Tuple[float, float]:
    """The pre-Sturmian functional Phi(gamma) with its truncation bound."""
    F = family.flower(_off_degenerate(family, gamma))
    sel = selector(F)
    disc = sel.discontinuities()[0]
    return functional(sel, disc, f, N)


def scan(family: OneFlowerFamily, f, grid_size: int,
         N: int) -> List[Tuple[float, float, float]]:
    """Phi on a uniform gamma grid, as (gamma, phi, error_bound) rows."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    gammas = [i / grid_size for i in range(grid_size)]
    results = [phi_of_gamma(family, f, g, N) for g in gammas]
    return [(g, v, e) for g, (v, e) in zip(gammas, results)]


@dataclass(frozen=True)
class ZeroInterval:
    """A maximal parameter interval on which Phi crosses or sits at zero.

    Plateau intervals (gamma_low < gamma_high beyond the resolution)
    signal periodic Sturmian measures.
    """

    gamma_low: float
    gamma_high: float
    phi_low: float
    phi_high: float
    resolution: float

    @property
    def midpoint(self) -> float:
        width = reduce(self.gamma_high - self.gamma_low)
        return reduce(self.gamma_low + width / 2.0)

    @property
    def is_plateau(self) -> bool:
        return reduce(self.gamma_high - self.gamma_low) > 2.0 * self.resolution


def _bisect_root(family: OneFlowerFamily, f, N: int, lo: float, flo: float,
                 hi: float, fhi: float, resolution: float
                 ) -> Tuple[float, float, float, float]:
    """Shrink a sign-change bracket [lo, hi] (lifted, hi may exceed 1)."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        fmid, _ = phi_of_gamma(family, f, reduce(mid), N)
        if fmid == 0.0:
            return mid, fmid, mid, fmid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, flo, hi, fhi


def solve_pre_sturmian(family: OneFlowerFamily, f, N: int,
                       resolution: float = 1e-10, grid_size: int = 512,
                       plateau_tol: Optional[float] = None
                       ) -> List[ZeroInterval]:
    """All zero intervals of Phi: bisected sign changes plus plateaus.

    Raises NoSignChange when the scan shows neither.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    rows = scan(family, f, grid_size, N)
    err = rows[0][2]
    if plateau_tol is None:
        plateau_tol = max(1e-9, 2.0 * err)
    phis = [v for _, v, _ in rows]
    m = len(rows)
    small = [abs(v) <= plateau_tol for v in phis]
    intervals: List[ZeroInterval] = []

    if all(small):
        return [ZeroInterval(0.0, (m - 1) / m, phis[0], phis[-1], resolution)]

    # plateau runs of >= 3 consecutive small values (cyclic)
    in_plateau = [False] * m
    start = next(i for i in range(m) if not small[i])
    i = start
    while True:
        i = (i + 1) % m
        if small[i]:
            j = i
            run = 0
            while small[j % m]:
                run += 1
                j += 1
            if run >= 3:
                for t in range(i, i + run):
                    in_plateau[t % m] = True
                intervals.append(ZeroInterval(
                    rows[i][0], rows[(i + run - 1) % m][0],
                    phis[i], phis[(i + run - 1) % m], resolution))
            i = (j - 1) % m
        if i == start or (i + 1) % m == start:
            break

    # transversal sign changes outside plateaus
    for i in range(m):
        j = (i + 1) % m
        if in_plateau[i] or in_plateau[j]:
            continue
        a, b = phis[i], phis[j]
        if a == 0.0 or b == 0.0 or (a < 0) == (b < 0):
            continue
        lo = rows[i][0]
        hi = lo + 1.0 / m
        glo, flo, ghi, fhi = _bisect_root(family, f, N, lo, a, hi, b,
                                          resolution)
        intervals.append(ZeroInterval(reduce(glo), reduce(ghi), flo, fhi,
                                      resolution))
    if not intervals:
        raise NoSignChange(min(phis), max(phis))
    return intervals


@dataclass
class SturmianEstimate:
    """Numerical description of the unique invariant measure on a 1-flower."""

    flower: Flower
    support_arcs: List[Arc]
    empirical_points: List[float]
    integral_of_f: float
    coding_frequencies: List[float]
    periodic: Optional[List[Fraction]] = None
    period: Optional[int] = None


def _detect_cycle(sel: PreImageSelector, x: float, max_steps: int,
                  tol: float = 1e-9, max_period: int = 256):
    """Follow the selector orbit and report (period, last point) as soon as
    some iterate returns within tol of an earlier one, else None.

    Detection runs online, without a burn-in: orbits attracted to a cycle
    on the petal boundary can be knocked off it by rounding after ~50
    steps, so the cycle must be caught while the contraction is still in
    progress.
    """
    history = [x]
    for _ in range(max_steps):
        x = sel.tau(x)
        history.append(x)
        limit = min(len(history) - 1, max_period)
        for q in range(1, limit + 1):
            if distance(history[-1], history[-1 - q]) <= tol:
                return q, history[-q:]
    return None


def _verify_rational_cycle(F: Flower, pts: Sequence[float], tol: float = 1e-6
                           ) -> Optional[List[Fraction]]:
    """Snap a floating cycle of a linear map to j/(k^q - 1) and certify it:
    exact dynamics must cycle through the snapped points in order and every
    point must lie in the (closed) flower.  Returns None when the snap or
    the certificate fails."""
    T = F.map
    if not T.is_linear():
        return None
    k, q = T.degree, len(pts)
    den = k ** q - 1
    exact = []
    for p in pts:
        frac = Fraction(round(p * den), den) % 1
        if distance(float(frac), p) > tol:
            return None
        exact.append(frac)
    petal = F.petals[0]
    # the selector orbit runs backwards in time: T maps each point to the
    # previous one
    for i, fr in enumerate(exact):
        if (k * fr) % 1 != exact[i - 1]:
            return None
        if not petal.contains(float(fr), tol=1e-9):
            return None
    return exact


def sturmian_estimate(F: Flower, f, burn_in: int = 1000,
                      length: int = 100000, depth: int = 40
                      ) -> SturmianEstimate:
    """Estimate the Sturmian measure of a 1-flower.

    The support is approximated by the iterated selector images of the
    flower; the integral of f and the branch-coding frequencies come from
    a selector orbit, replaced by the exact rational cycle whenever the
    orbit is detected to be periodic.
    """
    if F.p != 1:
        raise ValueError("Sturmian estimation needs a 1-flower")
    if burn_in < 1 or length < 1:
        raise ValueError("burn_in and length must be >= 1")
    sel = selector(F)
    T = F.map
    k = T.degree
    support = sel.push_arc(F.petals[0], depth)
    x = F.petals[0].midpoint()
    cycle = _detect_cycle(sel, x, max_steps=min(burn_in + length, 4096))
    if cycle is not None:
        q, pts = cycle
        exact = _verify_rational_cycle(F, pts)
        if exact is not None:
            pts = [float(fr) for fr in exact]
            branches = [T.branch_index(p) for p in pts]
            counts = [branches.count(b) for b in range(k)]
            integral = sum(f.eval(p) for p in pts) / q
            return SturmianEstimate(
                flower=F, support_arcs=support, empirical_points=pts,
                integral_of_f=integral,
                coding_frequencies=[c / q for c in counts],
                periodic=exact, period=q)
        x = pts[-1]
    else:
        for _ in range(burn_in):
            x = sel.tau(x)
    counts = [0] * k
    total = 0.0
    sample: List[float] = []
    keep_every = max(1, length // 1000)
    for i in range(length):
        nxt = sel.tau(x)
        counts[T.branch_index(nxt)] += 1
        total += f.eval(nxt)
        if i % keep_every == 0:
            sample.append(nxt)
        x = nxt
    return SturmianEstimate(
        flower=F, support_arcs=support, empirical_points=sample,
        integral_of_f=total / length,
        coding_frequencies=[c / length for c in counts],
        periodic=None, period=None)


def support_extremes(est: SturmianEstimate) -> Tuple[float, float]:
    """(leftmost, rightmost) points of the support, relative to the order
    based at the flower's left endpoint."""
    a = est.flower.petals[0].left
    left = min(lift(a, arc.left) for arc in est.support_arcs)
    right = max(lift(a, arc.right) for arc in est.support_arcs)
    return reduce(left), reduce(right)


def sign_conditions(family: OneFlowerFamily, f, est: SturmianEstimate,
                    N: int) -> Tuple[float, float, bool]:
    """Evaluate Phi at the two bracket flowers of the Sturmian support.

    The flower ending at the rightmost support point must give Phi >= 0,
    the one starting at the leftmost support point Phi <= 0 (both up to
    the truncation certificate) when f is in normal form with a Sturmian
    maximizing measure.
    """
    leftmost, rightmost = support_extremes(est)
    gamma_minus = family.gamma_with_right_endpoint(rightmost)
    gamma_plus = leftmost
    phi_minus, err_minus = phi_of_gamma(family, f, gamma_minus, N)
    phi_plus, err_plus = phi_of_gamma(family, f, gamma_plus, N)
    consistent = (phi_minus >= -err_minus) and (phi_plus <= err_plus)
    return phi_minus, phi_plus, consistent


def orbit_oracle(T: ExpandingMap, f, max_period: int
                 ) -> Tuple[float, List[Fraction]]:
    """Best periodic-orbit average of f: a lower bound for the maximum
    ergodic average, exact over all orbits of period <= max_period."""
    best = -math.inf
    best_orbit: List[Fraction] = []
    for orbit in periodic_orbits(T, max_period):
        avg = sum(f.eval(float(p)) for p in orbit) / len(orbit)
        if avg > best:
            best = avg
            best_orbit = orbit
    return best, best_orbit


def rank_test(F: Flower, N: int = 15, grid: int = 512,
              threshold: float = 1e-8) -> Tuple[int, int]:
    """Numerical rank of the p escape densities together with the constant
    function; the codimension statement predicts rank p + 1."""
    sel = selector(F)
    discs = sel.discontinuities()
    escapes = [escape_function(sel, d, N) for d in discs]
    cuts = set()
    for e in escapes:
        for level in e.terms:
            for arc in level:
                cuts.add(arc.left)
                cuts.add(arc.right)
    for petal in F.petals:
        cuts.add(petal.left)
        cuts.add(petal.right)
    cuts.update(i / grid for i in range(grid))
    pts = np.sort(np.asarray(list(cuts)))
    mids = ((pts + np.roll(pts, -1) + np.where(
        np.roll(pts, -1) < pts, 1.0, 0.0)) / 2.0) % 1.0
    rows = [e.eval_many(mids).astype(float) for e in escapes]
    rows.append(np.ones_like(mids))
    M = np.vstack(rows)
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    M = M / np.where(norms == 0, 1.0, norms)
    svals = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(svals > threshold)), F.p


def branch_one_frequency_scan(k: int, gammas: Sequence[float],
                              burn_in: int = 1000, length: int = 100000
                              ) -> np.ndarray:
    """Frequency of inverse-branch 1 along the selector orbit of the
    1-flower [gamma, gamma+1/k] of the linear degree-k map, vectorized
    over the whole gamma grid at once."""
    G = np.asarray([reduce(g) for g in gammas])
    X = (G + 1.0 / (2 * k)) % 1.0
    counts = np.zeros(len(G))
    for step in range(burn_in + length):
        h = X / k
        o = (G - h) % 1.0
        j = np.ceil(k * o - 1e-9) % k
        X = h + j / k
        if step >= burn_in:
            counts += (j == 1)
    return counts / length

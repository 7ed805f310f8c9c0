"""Pre-Sturmian equation solving and Sturmian measure estimation.

The 1-flowers of an orientation-preserving expanding map form a circle
family F_gamma = [a, b] with a = gamma; a Lipschitz function f can be
flattened on F_gamma exactly when Phi(gamma) = integral of f' against the
escape-time density of F_gamma vanishes.  Phi is the flattening
functional of the flower's one discontinuity, the closed form of
``flatten.transfer`` with anchor a, at the right end b:

    Phi(gamma) = f(b) - f(a) + sum_{n=1..N} [f(tau^n b) - f(tau^n a)]
                 - sum_{c in (a, b]} J_c,

for a whole array of gammas at once: every flower is one row of
``flower.SelectorTable.one_flowers``, and ``transfer`` pushes all of them
together, one level at a time.  Each value carries the truncation
certificate Lip(f) K^-(N+1) len(F_gamma) / (1 - 1/K) of
``flatten.functional``.

Phi is continuous in gamma, so roots are located by a scan of a uniform
grid plus a multisection of every sign change, all brackets in one batch
per round; plateaus of (near-)zeros signal periodic Sturmian measures.
A brute-force periodic-orbit oracle provides the independent cross-check
on maximizing measures.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circle import (Arc, cells, distance, distance_many, lift, reduce,
                     reduce_many)
from .dynamics import ExpandingMap, periodic_orbits
# ``functional`` is re-exported for callers of ``solve.functional``, such as
# the span recorder in perfbench/spans.py, which patches it here
from .flatten import escape_counts, functional, tail_bound, transfer
from .flower import (Flower, PreImageSelector, SelectorTable, arc_end,
                     one_flower, selector)

#: interior points per bracket and round of the root multisection
MULTISECTION_POINTS = 63
#: ``_detect_cycle`` takes an iterate within CYCLE_TOL of one of the
#: CYCLE_MAX_PERIOD before it to close a cycle
CYCLE_TOL, CYCLE_MAX_PERIOD = 1e-9, 256
#: largest distance of a cycle point from its snap to j/(k^q - 1)
SNAP_TOL = 1e-6
#: steps per block of ``branch_one_frequency_scan``, which looks for a
#: repeated state, and so a cycle of at most this length, at block ends
FREQUENCY_BLOCK = 64


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
        return float(arc_end(self.map, reduce(gamma), 1.0))

    def gamma_with_right_endpoint(self, b: float) -> float:
        """The parameter whose flower ends at b: the start of the arc that
        ends at b and whose image winds once, F^-1(F(b) - 1)."""
        return float(arc_end(self.map, reduce(b), -1.0))


def _off_degenerate(family: OneFlowerFamily, gammas: np.ndarray
                    ) -> np.ndarray:
    """Nudge each gamma off the finite set of parameters where a petal
    endpoint coincides with a branch break.  There the selector's jump
    classification is ambiguous and the computed functional can be off by
    O(1); Phi is continuous in gamma, so a 2e-9 shift changes the true
    value by at most Lip(f) * O(1e-9).  At most four shifts are made."""
    T = family.map
    breaks = np.asarray(T.breaks)
    gammas = gammas.copy()
    for _ in range(4):
        ends = np.stack([gammas, arc_end(T, gammas, 1.0)])
        bad = (distance_many(ends[..., None], breaks) <= 1e-9).any(axis=(0, 2))
        if not bad.any():
            break
        gammas[bad] = reduce_many(gammas[bad] + 2e-9)
    return gammas


def phi_of_gammas(family: OneFlowerFamily, f, gammas: Sequence[float],
                  N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-Sturmian functional Phi at every gamma, with its truncation
    bounds: f(b) - f(a) plus ``flatten.transfer`` from a to b on the
    table of the 1-flowers [a, b] (see the module docstring)."""
    T = family.map
    table = SelectorTable.one_flowers(
        T, _off_degenerate(family, reduce_many(gammas)))
    a, b = table.left, table.right
    value = f.eval_many(b) - f.eval_many(a) + transfer(table, f, N, a, b)
    K = T.expansion_constant
    return value[:, 0], f.lipschitz_constant() * tail_bound(
        K, N, table.length[:, 0])


def phi_of_gamma(family: OneFlowerFamily, f, gamma: float,
                 N: int) -> Tuple[float, float]:
    """The pre-Sturmian functional Phi(gamma) with its truncation bound."""
    values, bounds = phi_of_gammas(family, f, [gamma], N)
    return float(values[0]), float(bounds[0])


def scan(family: OneFlowerFamily, f, grid_size: int,
         N: int) -> List[Tuple[float, float, float]]:
    """Phi on a uniform gamma grid, as (gamma, phi, error_bound) rows."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    gammas = [i / grid_size for i in range(grid_size)]
    values, bounds = phi_of_gammas(family, f, gammas, N)
    return list(zip(gammas, values.tolist(), bounds.tolist()))


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


def _multisect_roots(family: OneFlowerFamily, f, N: int, lo, flo, hi, fhi,
                     resolution: float) -> Tuple[np.ndarray, ...]:
    """Shrink sign-change brackets [lo, hi] (lifted, hi may exceed 1) to
    width <= resolution, all brackets together.

    Each round evaluates Phi at MULTISECTION_POINTS equally spaced interior
    points of every open bracket in one ``phi_of_gammas`` call.  A bracket
    keeps its leftmost sub-bracket that ends on an exact zero, which closes
    it to that point, or that has a sign change.
    """
    lo, flo, hi, fhi = (np.array(v, dtype=float) for v in (lo, flo, hi, fhi))
    steps = np.arange(MULTISECTION_POINTS + 2) / (MULTISECTION_POINTS + 1)
    while True:
        open_ = np.nonzero(hi - lo > resolution)[0]
        if len(open_) == 0:
            return lo, flo, hi, fhi
        xs = lo[open_, None] + (hi - lo)[open_, None] * steps
        xs[:, -1] = hi[open_]
        values, _ = phi_of_gammas(family, f,
                                  reduce_many(xs[:, 1:-1]).ravel(), N)
        ys = np.hstack([flo[open_, None],
                        values.reshape(len(open_), -1), fhi[open_, None]])
        hit = (ys[:, 1:] == 0.0) | ((ys[:, 1:] < 0) != (ys[:, :-1] < 0))
        j = hit.argmax(axis=1)
        rows = np.arange(len(open_))
        zero = ys[rows, j + 1] == 0.0
        lo[open_] = np.where(zero, xs[rows, j + 1], xs[rows, j])
        flo[open_] = np.where(zero, 0.0, ys[rows, j])
        hi[open_] = xs[rows, j + 1]
        fhi[open_] = ys[rows, j + 1]


def solve_pre_sturmian(family: OneFlowerFamily, f, N: int,
                       resolution: float = 1e-10, grid_size: int = 512
                       ) -> List[ZeroInterval]:
    """All zero intervals of Phi: plateaus, exact zeros on the grid and
    multisected sign changes.

    Raises NoSignChange when the scan shows none of them, and ValueError
    unless the resolution is finite and positive.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive")
    rows = scan(family, f, grid_size, N)
    plateau_tol = max(1e-9, 2.0 * rows[0][2])
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

    # outside plateaus, in grid order: exact zeros on the grid, and sign
    # changes between neighbours, which are multisected together
    zeros = [i for i in range(m) if phis[i] == 0.0 and not in_plateau[i]]
    cells = [i for i in range(m)
             if not (in_plateau[i] or in_plateau[(i + 1) % m])
             and phis[i] != 0.0 and phis[(i + 1) % m] != 0.0
             and (phis[i] < 0) != (phis[(i + 1) % m] < 0)]
    lo, flo, hi, fhi = _multisect_roots(
        family, f, N, [rows[i][0] for i in cells], [phis[i] for i in cells],
        [rows[i][0] + 1.0 / m for i in cells],
        [phis[(i + 1) % m] for i in cells], resolution)
    found = [(i, 0, ZeroInterval(rows[i][0], rows[i][0], 0.0, 0.0,
                                 resolution)) for i in zeros]
    found += [(i, 1, ZeroInterval(reduce(float(lo[n])), reduce(float(hi[n])),
                                  float(flo[n]), float(fhi[n]), resolution))
              for n, i in enumerate(cells)]
    intervals.extend(zi for _, _, zi in sorted(found, key=lambda t: t[:2]))
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


def _detect_cycle(sel: PreImageSelector, x: float, max_steps: int):
    """Follow the selector orbit and report (period, last point) as soon as
    some iterate returns within CYCLE_TOL of an earlier one, else None.

    Detection runs online, without a burn-in: orbits attracted to a cycle
    on the petal boundary can be knocked off it by rounding after ~50
    steps, so the cycle must be caught while the contraction is still in
    progress.
    """
    history = [x]
    for _ in range(max_steps):
        x = sel.tau(x)
        history.append(x)
        limit = min(len(history) - 1, CYCLE_MAX_PERIOD)
        for q in range(1, limit + 1):
            if distance(history[-1], history[-1 - q]) <= CYCLE_TOL:
                return q, history[-q:]
    return None


def _verify_rational_cycle(F: Flower, pts: Sequence[float]
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
        if distance(float(frac), p) > SNAP_TOL:
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


def integer_rank(M) -> int:
    """The exact rank of an integer matrix: columns equal to their left
    neighbour dropped, then fraction-free elimination on Python ints, one
    numpy step per pivot.  Every entry after a step is a minor of M, so
    each division is exact and nothing overflows (Bareiss 1968)."""
    M = np.asarray(M)
    if M.shape[1] > 1:
        M = M[:, np.r_[True, (M[:, 1:] != M[:, :-1]).any(axis=0)]]
    A = M.astype(object)
    rank, pivot = 0, 1
    for c in range(A.shape[1]):
        if rank == len(A):
            break
        nonzero = np.flatnonzero(A[rank:, c] != 0)
        if not len(nonzero):
            continue
        A[[rank, rank + nonzero[0]]] = A[[rank + nonzero[0], rank]]
        below, row = A[rank + 1:], A[rank]
        below[:, c + 1:] = (row[c] * below[:, c + 1:]
                            - below[:, c:c + 1] * row[c + 1:]) // pivot
        pivot, rank = row[c], rank + 1
    return rank


def rank_test(F: Flower, N: int = 15, grid: int = 512) -> Tuple[int, int]:
    """Exact rank of the p escape densities together with the constant
    function; the codimension statement predicts rank p + 1.

    The densities are sampled at the midpoints of the cells cut at the
    petal endpoints, at their one-sided selector orbits to depth N (where
    the arcs tau^n I_x end) and at a uniform grid.  Their integer counts
    and a row of ones form the matrix whose ``integer_rank`` is returned,
    with p.  Raises ValueError for N < 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    sel = selector(F)
    ends = np.array(F.boundary())
    cuts = [ends, np.arange(grid) / grid]
    right = left = ends
    for _ in range(N):
        right = sel.tau_many(right, "right")
        left = sel.tau_many(left, "left")
        cuts += [right, left]
    _, mids = cells(np.concatenate(cuts))
    counts = escape_counts(F, [d.I for d in sel.discontinuities()], mids, N)
    return integer_rank(np.vstack([counts, np.ones_like(mids, int)])), F.p


def _cycle_hits(cum: np.ndarray, s: np.ndarray, lam: np.ndarray,
                n) -> np.ndarray:
    """Branch-1 steps among the first n steps of each column's cycle: block
    steps s .. s + lam - 1 repeated, with cum[i] the hits before step i."""
    col = np.arange(len(s))
    return ((n // lam) * (cum[s + lam, col] - cum[s, col])
            + cum[s + n % lam, col] - cum[s, col])


def branch_one_frequency_scan(k: int, gammas: Sequence[float],
                              burn_in: int = 1000, length: int = 100000
                              ) -> np.ndarray:
    """Frequency of inverse-branch 1 along the selector orbit of the
    1-flower [gamma, gamma+1/k] of the linear degree-k map, over the
    `length` steps after the first `burn_in`, vectorized over the whole
    gamma grid at once.

    The next state depends only on the state, so once a row's float state
    equals one it held lam steps before, its branches repeat with period
    lam for ever, and the rest of its count is read off that cycle.  The
    rows run in blocks of FREQUENCY_BLOCK steps; at each block end a row
    whose state repeats one of the block settles and leaves the batch.
    The result is bitwise that of following every orbit to the end.
    Raises ValueError unless k >= 2, burn_in >= 0 and length >= 1 are
    integers."""
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
               for n in (k, burn_in, length)):
        raise ValueError("k, burn_in and length must be integers")
    if k < 2 or burn_in < 0 or length < 1:
        raise ValueError("need k >= 2, burn_in >= 0 and length >= 1")
    G = np.asarray([reduce(g) for g in gammas])
    X = (G + 1.0 / (2 * k)) % 1.0
    total = burn_in + length
    counts = np.zeros(len(G), dtype=np.int64)
    rows = np.arange(len(G))
    start = 0
    while start < total and len(rows):
        m = min(FREQUENCY_BLOCK, total - start)
        g = G[rows]
        # states[i] is the state after start + i steps, and hits[i] marks
        # branch 1 on the step from states[i] to states[i + 1]
        states = np.empty((m + 1, len(rows)))
        hits = np.empty((m, len(rows)), dtype=bool)
        states[0] = X
        for i in range(m):
            h = states[i] / k
            o = (g - h) % 1.0
            j = np.ceil(k * o - 1e-9) % k
            states[i + 1] = h + j / k
            hits[i] = j == 1
        counts[rows] += hits[max(burn_in - start, 0):].sum(axis=0)
        start += m
        # the latest s < m with states[s] == states[m] closes a cycle of
        # lam = m - s steps that starts at global step start - lam
        same = states[:m] == states[m]
        settled = same.any(axis=0)
        s = m - 1 - np.argmax(same[::-1, settled], axis=0)
        lam = m - s
        cum = np.zeros((m + 1, len(s)), dtype=np.int64)
        np.cumsum(hits[:, settled], axis=0, out=cum[1:])
        counts[rows[settled]] += (
            _cycle_hits(cum, s, lam, total - start + lam)
            - _cycle_hits(cum, s, lam, max(start, burn_in) - start + lam))
        rows = rows[~settled]
        X = states[m, ~settled]
    return counts / length

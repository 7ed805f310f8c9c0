"""Pre-Sturmian equation solving and Sturmian measure estimation.

The 1-flowers of an orientation-preserving expanding map T form a circle
family F_gamma = ``one_flower(T, gamma)`` = [a, b] with a = gamma, so the
functions here take T itself.  A Lipschitz function f can be flattened on
F_gamma exactly when Phi(gamma) = integral of f' against the
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

The selector orbits of ``sturmian_estimate`` and of the staircase run in
one loop, ``_orbit_blocks``, which stops each at its first exact float
cycle; the estimate certifies that cycle as a T-cycle in ``Fraction``s.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circle import Arc, cells, distance_many, lift, reduce, reduce_many
from .dynamics import ExpandingMap, orbit_walks
# ``functional`` is re-exported for callers of ``solve.functional``, such as
# the span recorder in perfbench/spans.py, which patches it here
from .flatten import escape_counts, functional, tail_bound, transfer
from .flower import Flower, SelectorTable, arc_end, selector

#: most interior points per bracket and round of ``_multisect_roots``
MULTISECTION_POINTS = 63
#: steps per block of ``_orbit_blocks``, which looks for a repeated
#: state, and so a cycle of at most this length, at block ends
FREQUENCY_BLOCK = 64


class NoSignChange(RuntimeError):
    """Raised when the scan finds neither a sign change nor a plateau."""

    def __init__(self, phi_min: float, phi_max: float):
        super().__init__(
            "no zero of the flattening functional found "
            f"(scan range [{phi_min:.6g}, {phi_max:.6g}])")
        self.phi_min = phi_min
        self.phi_max = phi_max


def _off_degenerate(T: ExpandingMap, gammas: np.ndarray) -> np.ndarray:
    """Nudge each gamma off the finite set of parameters where a petal
    endpoint coincides with a branch break.  There the selector's jump
    classification is ambiguous and the computed functional can be off by
    O(1); Phi is continuous in gamma, so a 2e-9 shift changes the true
    value by at most Lip(f) * O(1e-9).  At most four shifts are made."""
    breaks = np.asarray(T.breaks)
    gammas = gammas.copy()
    for _ in range(4):
        ends = np.stack([gammas, arc_end(T, gammas, 1.0)])
        bad = (distance_many(ends[..., None], breaks) <= 1e-9).any(axis=(0, 2))
        if not bad.any():
            break
        gammas[bad] = reduce_many(gammas[bad] + 2e-9)
    return gammas


def phi_of_gammas(T: ExpandingMap, f, gammas: Sequence[float],
                  N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-Sturmian functional Phi at every gamma, with its truncation
    bounds: f(b) - f(a) plus ``flatten.transfer`` from a to b on the
    table of the 1-flowers [a, b] (see the module docstring).  No gammas
    give two empty arrays; raises ValueError for N < 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    gammas = reduce_many(gammas)
    if not len(gammas):
        return np.empty(0), np.empty(0)
    table = SelectorTable.one_flowers(T, _off_degenerate(T, gammas))
    a, b = table.left, table.right
    value = f.eval_many(b) - f.eval_many(a) + transfer(table, f, N, a, b)
    K = T.expansion_constant
    return value[:, 0], f.lipschitz_constant() * tail_bound(
        K, N, table.length[:, 0])


def phi_of_gamma(T: ExpandingMap, f, gamma: float,
                 N: int) -> Tuple[float, float]:
    """The pre-Sturmian functional Phi(gamma) with its truncation bound."""
    values, bounds = phi_of_gammas(T, f, [gamma], N)
    return float(values[0]), float(bounds[0])


def scan(T: ExpandingMap, f, grid_size: int,
         N: int) -> List[Tuple[float, float, float]]:
    """Phi on a uniform gamma grid, as (gamma, phi, error_bound) rows."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    gammas = [i / grid_size for i in range(grid_size)]
    values, bounds = phi_of_gammas(T, f, gammas, N)
    return list(zip(gammas, values.tolist(), bounds.tolist()))


@dataclass(frozen=True)
class ZeroInterval:
    """A maximal parameter interval on which Phi crosses or sits at zero.

    Plateau intervals (wider than twice the resolution, and than two ulps
    of gamma_high) signal periodic Sturmian measures.
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
        return reduce(self.gamma_high - self.gamma_low) > 2.0 * max(
            self.resolution, math.ulp(self.gamma_high))


def _multisect_roots(T: ExpandingMap, f, N: int, lo, flo, hi, fhi,
                     resolution: float) -> Tuple[np.ndarray, ...]:
    """Shrink sign-change brackets [lo, hi] (lifted, hi may exceed 1) to
    width <= resolution, or to no float inside, all brackets together.

    Each round cuts every open bracket into s equal sub-brackets, with Phi
    at their s - 1 inner ends in one ``phi_of_gammas`` call, and keeps the
    leftmost that ends on an exact zero (closing to that point) or has a
    sign change.  A round costs about as much for 28 points as for 63, so
    R is the fewest rounds of at most MULTISECTION_POINTS + 1 that take
    the widest open bracket to the resolution (or one ulp of hi), and s
    the fewest with s^R >= r, r aimed two ulps short for the rounding.
    """
    lo, flo, hi, fhi = (np.array(v, dtype=float) for v in (lo, flo, hi, fhi))
    n = MULTISECTION_POINTS + 1
    while True:
        open_ = np.nonzero((hi - lo > resolution)
                           & (np.nextafter(lo, np.inf) < hi))[0]
        if len(open_) == 0:
            return lo, flo, hi, fhi
        w, ulp = (hi - lo)[open_], np.spacing(hi[open_])
        r = (w / np.maximum(resolution + 2 * ulp, ulp)).max()
        rounds = 1
        while n ** rounds < r:
            rounds += 1
        r = (w / np.maximum(resolution - 2 * ulp, ulp)).max()
        s = min(n, max(2, math.ceil(r ** (1 / rounds))))
        xs = lo[open_, None] + w[:, None] * (np.arange(s + 1) / s)
        xs[:, -1] = hi[open_]
        values, _ = phi_of_gammas(T, f, reduce_many(xs[:, 1:-1]).ravel(), N)
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


def solve_pre_sturmian(T: ExpandingMap, f, N: int,
                       resolution: float = 1e-10, grid_size: int = 512
                       ) -> List[ZeroInterval]:
    """All zero intervals of Phi: plateaus, exact zeros on the grid and
    multisected sign changes.

    Raises NoSignChange when the scan shows none of them, and ValueError
    unless the resolution is finite and positive.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive")
    rows = scan(T, f, grid_size, N)
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
        T, f, N, [rows[i][0] for i in cells], [phis[i] for i in cells],
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
    integral_of_f: float
    coding_frequencies: List[float]
    periodic: Optional[List[Fraction]] = None
    period: Optional[int] = None


def _exact_cycle(F: Flower, pts: List[float]) -> Optional[List[Fraction]]:
    """The exact T-cycle that the float selector cycle ``pts`` (each point
    tau of the one before, cyclically) follows, from its smallest point,
    if it lies in the closed petal within 1e-9, else None.  It is the
    fixed point of the inverse branches that ``pts`` takes, composed, and
    its images, on the map's exact data: the breaks i/k of a linear map,
    else the stored floats.  On the lifted circle [a_0, a_0 + 1) inverse
    branch b is u -> a_b + (u - a_0) / s_b, so the composition is affine."""
    T, k = F.map, F.map.degree
    if T.is_linear():
        a, s = [Fraction(i, k) for i in range(k)], [Fraction(k)] * k
    else:
        a0 = Fraction(T.fixed_point)
        a = [a0 + (Fraction(b) - a0) % 1 for b in T.breaks]
        s = [Fraction(v) for v in T.slopes]
    branches = [T.branch_index(x) for x in pts[1:] + pts[:1]]
    scale, u = Fraction(1), Fraction(0)
    for b in branches:
        scale, u = scale / s[b], a[b] + (u - a[0]) / s[b]
    u /= 1 - scale
    cycle = []
    for b in branches:
        u = a[b] + (u - a[0]) / s[b]
        cycle.append(u % 1)

    def image(z):
        u = a[0] + (z - a[0]) % 1
        b = sum(x <= u for x in a[1:])
        return (a[0] + s[b] * (u - a[b])) % 1

    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i] if all(
        image(z) == cycle[j - 1] and F.petals[0].contains(float(z), tol=1e-9)
        for j, z in enumerate(cycle)) else None


def sturmian_estimate(F: Flower, f, burn_in: int = 1000,
                      length: int = 100000, depth: int = 40
                      ) -> SturmianEstimate:
    """Estimate the Sturmian measure of a 1-flower, its one invariant
    measure (Bullett and Sentenac 1994).

    The right-limit and the left-limit selector orbits of the petal
    midpoint run in ``_orbit_blocks`` for at most burn_in + length steps.
    At the first block end where one has settled, the shorter cycle (the
    right-limit one on a tie) goes to ``_exact_cycle``; a certified cycle
    is the measure.  Else the integral of f and the branch-coding
    frequencies are averages over the `length` steps after the first
    `burn_in` of the right-limit orbit, summed as it runs.  The support is
    the iterated selector images of the flower.  Raises ValueError unless
    F is a 1-flower and burn_in and length are integers >= 1.
    """
    if F.p != 1:
        raise ValueError("Sturmian estimation needs a 1-flower")
    if not (_integers(burn_in, length) and burn_in >= 1 and length >= 1):
        raise ValueError("burn_in and length must be integers >= 1")
    sel = selector(F)
    T, table, total = F.map, sel.table, burn_in + length
    k = T.degree
    support = sel.push_arc(F.petals[0], depth)

    def step(x, left):
        # Python floats and bools: tau_many is fastest on scalars
        return [table.tau_many(y, side)
                for y, side in zip(x.tolist(), left.tolist())], None

    mid, exact = np.full(2, F.petals[0].midpoint()), None
    sums = np.zeros(k + 1)
    for start, rows, states, _, lam in _orbit_blocks(
            step, mid, np.array([False, True]), total):
        # the first cycle to settle, while both rows run, is the one tried
        if lam.any() and len(rows) == 2:
            r = np.argmin(np.where(lam > 0, lam, total + 1))
            exact = _exact_cycle(F, states[-1 - lam[r]:-1, r].tolist())
            if exact is not None:
                break
        if rows[0]:
            break
        # the window of the right-limit orbit, row 0, until it settles; a
        # block that ends by burn_in adds nothing unless row 0 settled in it
        if start + len(states) - 1 <= burn_in and not lam[0]:
            continue
        y = states[1:, :1]
        weights = np.concatenate([T.branch_many(y)[..., None] == np.arange(k),
                                  f.eval_many(y)[..., None]], axis=2)
        sums += _window_sums(weights, start, lam[:1], burn_in, total)[0]
    if exact is not None:
        pts = [float(z) for z in exact]
        branches = [T.branch_index(p) for p in pts]
        return SturmianEstimate(
            F, support, sum(f.eval(p) for p in pts) / len(pts),
            [branches.count(b) / len(pts) for b in range(k)], exact, len(pts))
    return SturmianEstimate(F, support, float(sums[k] / length),
                            (sums[:k] / length).tolist())


def support_extremes(est: SturmianEstimate) -> Tuple[float, float]:
    """(leftmost, rightmost) points of the support, relative to the order
    based at the flower's left endpoint."""
    a = est.flower.petals[0].left
    left = min(lift(a, arc.left) for arc in est.support_arcs)
    right = max(lift(a, arc.right) for arc in est.support_arcs)
    return reduce(left), reduce(right)


def sign_conditions(T: ExpandingMap, f, est: SturmianEstimate,
                    N: int) -> Tuple[float, float, bool]:
    """Evaluate Phi at the two bracket flowers of the Sturmian support.

    The flower ending at the rightmost support point must give Phi >= 0,
    the one starting at the leftmost support point Phi <= 0 (both up to
    the truncation certificate) when f is in normal form with a Sturmian
    maximizing measure.
    """
    leftmost, rightmost = support_extremes(est)
    # the flower ending at b starts at F^-1(F(b) - 1)
    gamma_minus = float(arc_end(T, reduce(rightmost), -1.0))
    phi_minus, err_minus = phi_of_gamma(T, f, gamma_minus, N)
    phi_plus, err_plus = phi_of_gamma(T, f, leftmost, N)
    consistent = (phi_minus >= -err_minus) and (phi_plus <= err_plus)
    return phi_minus, phi_plus, consistent


def orbit_oracle(T: ExpandingMap, f, max_period: int
                 ) -> Tuple[float, List[Fraction]]:
    """Best periodic-orbit average of f: a lower bound for the maximum
    ergodic average, exact over all orbits of period <= max_period; the
    first of ``periodic_orbits`` with the largest.  f is evaluated on the
    ``orbit_walks`` numerators over den, each exact in float64, so the
    quotient is float(Fraction(y, den)); an orbit is summed point by
    point from 0.0, as ``sum`` sums from int 0."""
    averages, orbits = [], []
    for den, walk in orbit_walks(T, max_period):
        sums = np.zeros(walk.shape[1])
        for values in f.eval_many(walk / den):
            sums += values
        averages.extend((sums / len(walk)).tolist())
        orbits.extend((den, orbit) for orbit in walk.T)
    if not orbits:
        return -math.inf, []
    i = int(np.argmax(averages))
    den, orbit = orbits[i]
    return averages[i], [Fraction(y, den) for y in orbit.tolist()]


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
    orbits, left = np.array([ends, ends]), np.array([[False], [True]])
    for _ in range(N):
        orbits = sel.table.tau_many(orbits, left)
        cuts.extend(orbits)
    _, mids = cells(np.concatenate(cuts))
    counts = escape_counts(F, [d.I for d in sel.discontinuities()], mids, N)
    return integer_rank(np.vstack([counts, np.ones_like(mids, int)])), F.p


def _integers(*ns) -> bool:
    return all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
               for n in ns)


def _orbit_blocks(step, X: np.ndarray, P: np.ndarray, total: int):
    """Follow the orbits of rows with states X and parameters P for
    ``total`` steps, in blocks of FREQUENCY_BLOCK steps; ``step(x, p)``
    gives the next states of the running rows and a mark of the step.
    After each block of m steps yield (start, rows, states, marks, lam):
    its first step, the rows that ran, their states at block steps 0 .. m,
    the m marks, and per row the length lam of the cycle it closed, or 0.
    The next state depends only on the state, so a row whose state at the
    block end bitwise repeats one of the block repeats its last lam states
    and marks for ever: it settles and leaves the batch."""
    rows, start = np.arange(len(X)), 0
    while start < total and len(rows):
        m = min(FREQUENCY_BLOCK, total - start)
        p = P[rows]
        states = np.empty((m + 1, len(rows)))
        states[0] = X
        marks = []
        for i in range(m):
            states[i + 1], mark = step(states[i], p)
            marks.append(mark)
        # the latest s < m with states[s] == states[m] closes a cycle of
        # lam = m - s steps
        same = states[:m] == states[m]
        lam = np.where(same.any(axis=0), 1 + np.argmax(same[::-1], axis=0), 0)
        yield start, rows, states, marks, lam
        start += m
        rows, X = rows[lam == 0], states[m, lam == 0]


def _window_sums(W: np.ndarray, start: int, lam: np.ndarray, burn_in: int,
                 total: int) -> np.ndarray:
    """The weights W (m, rows, d) of the steps start .. start + m - 1 of a
    block of ``_orbit_blocks``, summed per row over the window steps
    burn_in .. total - 1.  A row that settled (lam > 0) repeats the block's
    last lam weights for ever, so it adds every later window step too."""
    m, end = len(W), start + len(W)
    sums = W[max(burn_in - start, 0):].sum(axis=0)
    done = np.flatnonzero(lam)
    if not len(done):
        return sums
    lam, col = lam[done], np.arange(len(done))
    cum = np.zeros((m + 1, len(done), W.shape[2]), dtype=sums.dtype)
    np.cumsum(W[:, done], axis=0, out=cum[1:])

    def cycle(n):  # the first n weights from block step m - lam on
        return ((n // lam)[:, None] * (cum[m, col] - cum[m - lam, col])
                + cum[m - lam + n % lam, col] - cum[m - lam, col])

    sums[done] += (cycle(total - end + lam)
                   - cycle(max(end, burn_in) - end + lam))
    return sums


def branch_one_frequency_scan(k: int, gammas: Sequence[float],
                              burn_in: int = 1000, length: int = 100000
                              ) -> np.ndarray:
    """Frequency of inverse-branch 1 along the selector orbit of the
    1-flower [gamma, gamma+1/k] of the linear degree-k map, over the
    `length` steps after the first `burn_in`, vectorized over the whole
    gamma grid at once.

    The rows run in ``_orbit_blocks``, and once a row settles the rest of
    its count is read off its cycle, so the result is bitwise that of
    following every orbit to the end.  Raises ValueError unless k >= 2,
    burn_in >= 0 and length >= 1 are integers."""
    if not (_integers(k, burn_in, length)
            and k >= 2 and burn_in >= 0 and length >= 1):
        raise ValueError("need integers k >= 2, burn_in >= 0, length >= 1")
    G = np.asarray([reduce(g) for g in gammas])

    def step(x, g):
        h = x / k
        j = np.ceil(k * ((g - h) % 1.0) - 1e-9) % k
        return h + j / k, j == 1

    total = burn_in + length
    counts = np.zeros(len(G), dtype=np.int64)
    for start, rows, _, hits, lam in _orbit_blocks(
            step, (G + 1.0 / (2 * k)) % 1.0, G, total):
        counts[rows] += _window_sums(np.array(hits)[..., None], start, lam,
                                     burn_in, total)[:, 0]
    return counts / length

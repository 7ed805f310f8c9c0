"""Pre-Sturmian equation solving and Sturmian measure estimation.

The 1-flowers of an orientation-preserving expanding map T form a circle
family F_gamma = ``one_flower(T, gamma)`` = [a, b] with a = gamma.  A
Lipschitz f can be flattened on F_gamma exactly when Phi(gamma), the
integral of f' against the escape-time density of F_gamma, vanishes.
Phi is the functional of the flower's one discontinuity, the closed form
of ``flatten.transfer`` with anchor a, at the right end b:

    Phi(gamma) = f(b) - f(a) + sum_{n=1..N} [f(tau^n b) - f(tau^n a)]
                 - sum_{c in (a, b]} J_c,

for many gammas at once, with the certificate Lip(f) K^-(N+1)
len(F_gamma) / (1 - 1/K) of ``flatten.functional``.  Phi is continuous:
its roots are found by a scan of a grid and a refinement of every sign
change (``_multisect_roots``), all brackets in one call per round;
plateaus of (near-)zeros signal periodic Sturmian measures.  A
periodic-orbit oracle cross-checks maximizing measures.

Outside rows near a root or on a plateau, the solver reads only signs, so
it scans at depth n = min(N, SHALLOW_DEPTH).  As |Phi_n - Phi| <= err_n
and |Phi_N - Phi| <= err_N, a row keeps its shallow value when

    |Phi_n| > err_n + err_N + plateau_tol + rho,

rho a bound on the rounding of both values: then Phi_N has its sign and
|Phi_N| > plateau_tol, so every sign the solver compares is that of a
scan at depth N.  err_N is ``phi_of_gammas``'s own expression, so the
plateau tolerance, twice err_N at gamma = 0, is the same float.  The
other rows are classified on their shallow values, provisionally.  Zero
intervals are pairs of grid rows, their values taken by row index: the
first refinement round's call takes at depth N each row not yet known
there that is provisional or a bracket end, or the grid when the scan
shows no interval.  Where a provisional row classifies otherwise at
depth N, the grid is classified again and the round retaken, so the
reports are those of a classification at depth N.  The ``scan``
command keeps depth N.

rho = m gamma_{2m} S, gamma_k = k u / (1 - k u), u = 2^-53, bounds the
rounding (Higham 2002, section 4.2; README.md derives it): m = (n + 1)(n
+ 2) + (N + 1)(N + 2) counts the f-values one row sums at both depths,
and S = |f(0)| + Lip(f)/2 >= sup |f|; about 5.5e-10 S at N = 37, n = 8.
The decisions at the selector's discontinuities are not rounding: where
the closed form is off by O(1), near some periodic parameters, a
certified sign may be wrong, as a scan at depth N would be.

The one invariant measure of a 1-flower is a T-cycle coded by a
mechanical word.  ``sturmian_estimate`` and the staircase find it by an
exact Stern-Brocot descent, ``_plateau``, in ``Fraction``s on the map's
exact model ``T.exact``: the construction is the certificate.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circle import Arc, cells, distance_many, lift, reduce, reduce_many
from .dynamics import ExpandingMap, make_linear_map, orbit_walks
# ``functional`` is re-exported for callers of ``solve.functional``, such as
# the span recorder in perfbench/spans.py, which patches it here
from .flatten import escape_counts, functional, tail_bound, transfer
from .flower import Flower, SelectorTable, arc_end, selector

#: most interior points per bracket and round of ``_multisect_roots``
MULTISECTION_POINTS = 63
#: depth of the scan of ``solve_pre_sturmian``, whose rows of uncertified
#: sign are taken again at the full depth in the first refinement round
SHALLOW_DEPTH = 8


class NoSignChange(RuntimeError):
    """Raised when the scan finds neither a sign change nor a plateau."""

    def __init__(self, phi_min: float, phi_max: float):
        super().__init__(
            "no zero of the flattening functional found "
            f"(scan range [{phi_min:.6g}, {phi_max:.6g}])")
        self.phi_min = phi_min
        self.phi_max = phi_max


def _one_flowers(T: ExpandingMap, gammas: np.ndarray) -> SelectorTable:
    """The table of the 1-flowers at the reduced gammas, each nudged off
    the finite set of parameters where a petal endpoint coincides with a
    branch break.  There the selector's jump classification is ambiguous
    and the computed functional can be off by O(1); Phi is continuous in
    gamma, so a 2e-9 shift changes the true value by at most Lip(f) *
    O(1e-9).  At most four shifts are made, and the ends of the last are
    not checked.  The table is ``SelectorTable.one_flowers`` of the nudged
    gammas, built on the petal ends that the checks computed."""
    breaks = np.asarray(T.breaks)
    gammas = gammas.copy()
    ends = arc_end(T, gammas, 1.0)
    for _ in range(4):
        bad = (distance_many(np.stack([gammas, ends])[..., None], breaks)
               <= 1e-9).any(axis=(0, 2))
        if not bad.any():
            break
        gammas[bad] = reduce_many(gammas[bad] + 2e-9)
        ends[bad] = arc_end(T, gammas[bad], 1.0)
    return SelectorTable(T, gammas[:, None], ends[:, None])


def phi_of_gammas(T: ExpandingMap, f, gammas: Sequence[float],
                  N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-Sturmian functional Phi at every gamma, with its truncation
    bounds: f(b) - f(a) plus ``flatten.transfer`` from a to b on the
    table of the 1-flowers [a, b] (see the module docstring).  No gammas
    give two empty arrays; raises ValueError for N < 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    table = _one_flowers(T, reduce_many(gammas))
    return _phi(table, f, N), _bounds(table, f, N)


def _phi(table: SelectorTable, f, N: int) -> np.ndarray:
    """Phi at depth N on each 1-flower [a, b] of the table."""
    return (f.eval_many(table.right) - f.eval_many(table.left)
            + transfer(table, f, N, table.left, table.right))[:, 0]


def _bounds(table: SelectorTable, f, N: int) -> np.ndarray:
    """The truncation bound of Phi at depth N on each 1-flower [a, b]."""
    return f.lipschitz_constant() * tail_bound(
        table.map.expansion_constant, N, table.length[:, 0])


def _rounding_bound(f, n: int, N: int) -> float:
    """rho of the module docstring, for one row at depths n and N."""
    m = (n + 1) * (n + 2) + (N + 1) * (N + 2)
    u = 2.0 ** -53
    sup = abs(f.eval(0.0)) + f.lipschitz_constant() / 2.0
    return m * (2 * m * u / (1.0 - 2 * m * u)) * sup


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


def _multisect_roots(T: ExpandingMap, f, N: int, brackets,
                     resolution: float, rows, settle
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Shrink sign-change brackets, a (k, 2) array of lifted gammas lo, hi
    (hi may exceed 1), to width <= resolution, or to no float inside, all
    brackets together; return them with Phi at their ends, or None.

    Each round takes Phi at points of every open bracket in one call, and
    each keeps the leftmost sub-bracket that ends on an exact zero
    (closing to that point) or has a sign change.  The first call also
    takes the gammas ``rows`` and hands their values to ``settle``, which
    returns None, ending the multisection with None, or two (k, 2) arrays
    of values at the bracket ends: the first chooses the sub-bracket of
    the first round, the second is kept, reported and interpolated
    through.  R is the fewest rounds of at most MULTISECTION_POINTS + 1
    sub-brackets that take the widest bracket to the resolution (or one
    ulp of hi).  A uniform round cuts a bracket into the fewest s parts
    with s^R >= r, r aimed two ulps short.  After one, while R >= 2, a
    bracket takes p -+ d 8^j out to its ends, d = 0.45 res - 1 ulp > 1
    ulp, p its root by inverse cubic interpolation through the 4 values
    nearest its sign change, clamped into it: it closes if p is within d
    of the root.  The points lo + w i / t, t = w / (64^(R-1) res) rounded
    up, keep it within R - 1 more rounds.  A miss takes a uniform round
    next.
    """
    brackets = np.array(brackets, dtype=float)
    lo, hi = brackets.T
    n = MULTISECTION_POINTS + 1
    # x and y of the 4 values nearest each sign change, after a uniform round
    fit, fitted = np.zeros((len(lo), 2, 4)), np.zeros(len(lo), dtype=bool)
    while True:
        open_ = np.flatnonzero((hi - lo > resolution)
                               & (np.nextafter(lo, np.inf) < hi))
        if not (len(open_) or settle):
            return brackets, ends
        l, h = lo[open_, None], hi[open_, None]
        w, ulp = h - l, np.spacing(h)
        r = (w / (resolution + 2 * ulp)).max(initial=0.0)
        rounds = next(R for R in range(1, 200) if n ** R >= r)
        r = (w / np.maximum(resolution - 2 * ulp, ulp)).max(initial=0.0)
        s = min(n, max(2, math.ceil(r ** (1 / rounds))))
        # n + 1 columns a row, the last ones padded with hi
        xs = np.repeat(h, n + 1, axis=1)
        xs[:, :s] = l + w * (np.arange(s) / s)
        cols = np.full(len(open_), max(s + 1, 4))
        d = 0.45 * resolution - ulp
        pick = fitted[open_] & (rounds >= 2) & (d > ulp)[:, 0]
        if pick.any():
            x, y = fit[open_[pick], 0], fit[open_[pick], 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(np.eye(4, dtype=bool), 1.0, y[:, None, :]
                                   / (y[:, None, :] - y[:, :, None]))
                p = (x * weights.prod(axis=2)).sum(axis=1, keepdims=True)
            a, b, wp, d = l[pick], h[pick], w[pick], d[pick]
            p = np.clip(np.where(np.isfinite(p), p, (a + b) / 2), a, b)
            k = math.ceil(math.log((wp / d).max(), 8))
            t = math.ceil((wp / (n ** (rounds - 1) * resolution)).max())
            pick[pick] = 1 + 2 * k + t <= MULTISECTION_POINTS
            if pick.any():
                spread = d * 8.0 ** np.arange(k + 1)
                xs[pick, 1:] = b
                xs[pick, 1:2 * k + t + 2] = np.sort(np.clip(np.hstack([
                    p - spread, p + spread, a + wp * (np.arange(1, t) / t)]),
                    a, b), axis=1)
                cols[pick] = 2 * k + t + 3
        inside = (xs > l) & (xs < h)
        m = inside.sum()
        taken = np.concatenate([xs[inside], rows])
        values = phi_of_gammas(T, f, taken, N)[0] if len(taken) else taken
        if settle:
            settled = settle(values[m:])
            if settled is None:
                return None
            choose, ends = settled
            settle, rows = None, rows[:0]
        # the values at xs, with the end values that choose and those kept
        cs, ys = (np.where(xs <= l, v[open_, :1], v[open_, 1:])
                  for v in (choose, ends))
        cs[inside] = ys[inside] = values[:m]
        hit = (cs[:, 1:] == 0.0) | ((cs[:, 1:] < 0) != (cs[:, :-1] < 0))
        choose = ends
        j = hit.argmax(axis=1)
        (x0, x1), (y0, y1) = (np.take_along_axis(v, j[:, None] + [0, 1], 1).T
                              for v in (xs, ys))
        zero = y1 == 0.0
        lo[open_], hi[open_] = np.where(zero, x1, x0), x1
        ends[open_, 0], ends[open_, 1] = np.where(zero, 0, y0), y1
        near = np.clip(j - 1, 0, cols - 4)[:, None, None] + np.arange(4)
        fit[open_] = np.take_along_axis(np.stack([xs, ys], 1), near, 2)
        fitted[open_] = ~pick


def _certified_scan(T: ExpandingMap, f, grid_size: int, N: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The scan of ``solve_pre_sturmian``: the grid gammas, Phi at each at
    depth n = min(N, SHALLOW_DEPTH), the rows that keep that value at
    depth N and the plateau tolerance.  A row keeps its shallow value
    where |Phi_n| > err_n + err_N + plateau_tol + rho; then Phi_N has its
    sign and is no plateau value (module docstring).  Below depth N, the
    value of every other row is provisional."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if N < 0:
        raise ValueError("N must be >= 0")
    gammas = np.arange(grid_size) / grid_size
    table = _one_flowers(T, gammas)
    n = min(N, SHALLOW_DEPTH)
    phis, errors = _phi(table, f, n), _bounds(table, f, n)
    bounds = _bounds(table, f, N)
    plateau_tol = max(1e-9, 2.0 * float(bounds[0]))
    if N <= SHALLOW_DEPTH:
        return gammas, phis, np.zeros(grid_size, dtype=bool), plateau_tol
    shallow = np.abs(phis) > (errors + bounds + plateau_tol
                              + _rounding_bound(f, SHALLOW_DEPTH, N))
    return gammas, phis, shallow, plateau_tol


def _classify(phis: np.ndarray, plateau_tol: float
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The zero intervals of ``solve_pre_sturmian`` as (k, 2) arrays of
    grid rows: the first and the last row of each plateau, and (i, i) at
    each exact zero and (i, i + 1) at each cell whose rows change sign,
    in grid order.  A plateau is a run of >= 3 consecutive small rows
    (cyclic), |Phi| <= plateau_tol, or every row when all are small;
    zeros and sign changes lie outside the plateaus."""
    m = len(phis)
    small = np.abs(phis) <= plateau_tol
    if small.all():
        return np.array([[0, m - 1]]), np.zeros((0, 2), dtype=int)

    # plateau runs in grid order from the first row that is not small,
    # where no run can wrap
    start = int(np.argmin(small))
    edges = np.diff(np.roll(small, -start), prepend=False, append=False)
    first, stop = np.flatnonzero(edges).reshape(-1, 2).T
    plateau = stop - first >= 3
    first, stop = first[plateau], stop[plateau]
    marks = np.zeros(m + 1, dtype=int)
    marks[first], marks[stop] = 1, -1
    in_plateau = np.roll(np.cumsum(marks[:-1]) > 0, start)
    after = np.roll(phis, -1)
    change = (~(in_plateau | np.roll(in_plateau, -1)) & (phis != 0.0)
              & (after != 0.0) & ((phis < 0) != (after < 0)))
    low = np.flatnonzero(((phis == 0.0) & ~in_plateau) | change)
    return (np.column_stack([first, stop - 1]) + start) % m, np.column_stack(
        [low, low + change[low]])


def solve_pre_sturmian(T: ExpandingMap, f, N: int,
                       resolution: float = 1e-10, grid_size: int = 512
                       ) -> List[ZeroInterval]:
    """All zero intervals of Phi: plateaus, and exact zeros on the grid
    and sign changes refined together by ``_multisect_roots``, each found
    by ``_classify`` as a pair of grid rows.  The scan runs at depth n =
    min(N, SHALLOW_DEPTH) and keeps a row's value where the certificate of
    the module docstring fixes its sign.  Every other row is classified
    on its shallow value, provisionally.  The first call at depth N, that
    of the first round, takes each row not yet known at depth N that is
    provisional or a bracket end, or every one when the scan shows no
    interval.  Where a provisional row classifies otherwise there (its
    sign, an exact zero or the plateau tolerance), the grid is classified
    again, certified rows on their shallow values, and the first round
    retaken.  Raises NoSignChange when the scan shows no interval, with
    the least and the greatest value of a scan at depth N, and ValueError
    unless the resolution is finite and positive.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive")
    gammas, phis, shallow, plateau_tol = _certified_scan(T, f, grid_size, N)
    m = len(gammas)
    depth_n, known = phis.copy(), np.full(m, N <= SHALLOW_DEPTH)
    while True:
        plateaus, brackets = _classify(phis, plateau_tol)
        ends = brackets % m
        need = ~shallow if len(plateaus) + len(ends) else np.ones(m, bool)
        need[ends] = True
        take, guess = need & ~known, ~(shallow | known)

        def settle(values):
            """Phi at depth N on the rows taken; the end values that choose
            and those kept, or None if a provisional row reclassifies."""
            depth_n[take], known[take] = values, True
            was = phis[guess]
            phis[guess] = deep = depth_n[guess]
            if ((np.sign(deep) * np.sign(was) < 1) | (
                    (np.abs(deep) <= plateau_tol)
                    != (np.abs(was) <= plateau_tol))).any():
                return None
            return phis[ends], depth_n[ends]

        roots = _multisect_roots(T, f, N, brackets / m, resolution,
                                 gammas[take], settle)
        if roots is not None:
            break

    lifted, at_ends = roots
    intervals = [ZeroInterval(reduce(lo), reduce(hi), flo, fhi, resolution)
                 for (lo, hi), (flo, fhi) in zip(
                     np.vstack([gammas[plateaus], lifted]).tolist(),
                     np.vstack([phis[plateaus], at_ends]).tolist())]
    if not intervals:
        values = depth_n.tolist()
        raise NoSignChange(min(values), max(values))
    return intervals


@dataclass
class SturmianEstimate:
    """The unique invariant measure on a 1-flower, an exact T-cycle."""

    flower: Flower
    support_arcs: List[Arc]
    integral_of_f: float
    coding_frequencies: List[float]
    periodic: List[Fraction]
    period: int


def _compose(m, n):
    """The affine map u -> A u + B of m after n, each an (A, B) pair."""
    return m[0] * n[0], m[0] * n[1] + m[1]


def _fixed_point(A: Fraction, B: Fraction) -> Tuple[int, int]:
    """B / (1 - A), the fixed point of u -> A u + B, A < 1, as (u, v)."""
    return (B.numerator * A.denominator,
            B.denominator * (A.denominator - A.numerator))


def _plateau(T: ExpandingMap, gamma: float, nodes: dict
             ) -> Tuple[int, int, int, Fraction]:
    """The Sturmian cycle O of the 1-flower from gamma, as (i, p, q, z), on
    the exact lifted breaks a and slopes s of ``T.exact``.  The flower
    [gamma, F^-1(F(gamma) + 1)] meets branches i and i + 1 (mod k), the
    letters 0 and 1.  The cycle of rotation number p/q is coded by the
    mechanical word of p/q, and the flower carries it exactly when gamma
    lies in its plateau: gamma <= min O and F(gamma) + 1 >=
    F(max O) (Bullett and Sentenac 1994; Lothaire 2002, ch. 2).  min O is
    coded by the lower Christoffel word and max O by the upper one, so
    each is the fixed point of the composed inverse branches u -> a_b +
    (u - a_0) / s_b of its word, an affine map of [a_0, a_0 + 1].  The
    plateaus are ordered as p/q, so the search descends the Stern-Brocot
    tree from 0/1 and 1/1, one mediant per step.  The lower word of a
    mediant is that of its left parent and then that of its right one
    (the upper words in the other order), so each step composes two
    cached maps.  A p/q strictly between 0 and 1 is reached in s - 1
    steps, s the sum of its partial quotients, which is at most q.
    ``nodes`` keeps for the next call the maps and plateau ends of each
    node (i, p, q), and under i the (p, q) found last, which is tried
    first.  z is min O as a point of [a_0, a_0 + 1]."""
    a, s = T.exact
    k, a0 = len(a), a[0]
    g = a0 + (Fraction(gamma) - a0) % 1
    i = sum(x <= g for x in a[1:])
    top = i + 1 + s[i] * (g - a[i])  # F(gamma) + 1
    (gn, gd), (tn, td) = g.as_integer_ratio(), top.as_integer_ratio()

    def side(pq, maps) -> int:
        """-1, 0 or 1 as gamma lies left of, on or right of the plateau of
        pq = (p, q), whose (lower, upper) word maps ``maps()`` gives."""
        key = (i,) + pq
        if key not in nodes:
            lower, upper = maps()
            c = int(pq[0] > 0)  # the letter of max O
            b = (i + c) % k
            # min O = u / v and max O = x / y, the fixed points of the lower
            # and upper maps; kept are min O and F(max O) = i + c + s_b (x /
            # y - a_b) as integer pairs, v > 0, compared by cross-multiplying
            (u, v), (x, y) = _fixed_point(*lower), _fixed_point(*upper)
            (sn, sd), (an, ad) = (r.as_integer_ratio() for r in (s[b], a[b]))
            nodes[key] = (lower, upper, (u, v), (
                (i + c) * sd * ad * y + sn * (ad * x - an * y), sd * ad * y))
        _, _, (u, v), (x, y) = nodes[key]
        if pq == (1, 1) and i == k - 1:
            u += v  # the fixed point of the word 1 on branch 0, a turn up
        return (gn * v > u * gd) - (tn * y < x * td)

    def descend():
        L, R = (0, 1), (1, 1)
        for pq in (L, R):
            b = (i + pq[0]) % k
            m = (1 / s[b], a[b] - a0 / s[b])
            if side(pq, lambda: (m, m)) == 0:
                return pq
        while True:
            # gamma lies between the plateaus of L and R, so in the subtree
            # of their mediant
            (lower_l, upper_l), (lower_r, upper_r) = (nodes[(i,) + L][:2],
                                                      nodes[(i,) + R][:2])
            pq = (L[0] + R[0], L[1] + R[1])
            t = side(pq, lambda: (_compose(lower_l, lower_r),
                                  _compose(upper_r, upper_l)))
            if t == 0:
                return pq
            L, R = (pq, R) if t > 0 else (L, pq)

    pq = nodes.get(i)  # the plateau the last call found on branches i, i + 1
    if pq is None or side(pq, None):
        pq = nodes[i] = descend()
    return (i,) + pq + (Fraction(*nodes[(i,) + pq][2]),)


def _cycle(T: ExpandingMap, i: int, p: int, q: int,
           z: Fraction) -> List[Fraction]:
    """The points of the cycle of ``_plateau``, reduced to [0, 1), from
    the smallest, in selector order (each point the preimage of the one
    before): the T-orbit of min O, whose branches are the letters of the
    lower mechanical word of p/q, in reverse."""
    a, s = T.exact
    k, a0 = len(a), a[0]
    orbit = []
    for j in range(q):
        b = (i + (j + 1) * p // q - j * p // q) % k
        orbit.append(z % 1)
        z = a0 + s[b] * (z - a[b])
    orbit.reverse()
    j = orbit.index(min(orbit))
    return orbit[j:] + orbit[:j]


def _coding(k: int, i: int, p: int, q: int, last: bool) -> List[float]:
    """The branch frequencies of the cycle (i, p, q) of ``_plateau``, off
    its word: q - p letters 0 on branch i, p letters 1 on branch i + 1
    mod k.  The fixed point a_0, the cycle (k - 1, 0, 1), lies on the
    break between branches k - 1 and 0, and counts on branch k - 1 where
    ``last`` is set, else on branch 0: the estimate counts it on branch 0,
    the staircase on the branch of the petal midpoint gamma + 1/(2k)."""
    if i == k - 1 and p == 0 and not last:
        p = 1
    counts = [0] * k
    counts[i], counts[(i + 1) % k] = q - p, p
    return [c / q for c in counts]


def sturmian_estimate(F: Flower, f, depth: int = 40) -> SturmianEstimate:
    """The Sturmian measure of a 1-flower, its one invariant measure
    (Bullett and Sentenac 1994): the exact T-cycle that ``_plateau``
    finds, from its smallest point, in selector order, with the average
    of f on its points rounded to floats and the branch frequencies of
    its word (``_coding``).  The support is tau^depth of the petal.
    Raises ValueError unless F is a 1-flower."""
    if F.p != 1:
        raise ValueError("Sturmian estimation needs a 1-flower")
    T = F.map
    i, p, q, z = _plateau(T, F.petals[0].left, {})
    exact = _cycle(T, i, p, q, z)
    return SturmianEstimate(
        F, selector(F).push_arc(F.petals[0], depth),
        sum(f.eval(float(x)) for x in exact) / q,
        _coding(T.degree, i, p, q, False), exact, q)


def support_extremes(est: SturmianEstimate) -> Tuple[float, float]:
    """(leftmost, rightmost) points of the support, relative to the order
    based at the flower's left endpoint."""
    a = est.flower.petals[0].left
    left = min(lift(a, arc.left) for arc in est.support_arcs)
    right = max(lift(a, arc.right) for arc in est.support_arcs)
    return reduce(left), reduce(right)


def sign_conditions(T: ExpandingMap, f, est: SturmianEstimate,
                    N: int) -> Tuple[float, float, bool]:
    """Phi at the two bracket flowers of the Sturmian support: the flower
    ending at its rightmost point must give Phi >= 0, the one starting at
    its leftmost point Phi <= 0 (up to the truncation certificate) when f
    is in normal form with a Sturmian maximizing measure."""
    leftmost, rightmost = support_extremes(est)
    # the flower ending at b starts at F^-1(F(b) - 1)
    gamma_minus = float(arc_end(T, reduce(rightmost), -1.0))
    phi_minus, err_minus = phi_of_gamma(T, f, gamma_minus, N)
    phi_plus, err_plus = phi_of_gamma(T, f, leftmost, N)
    consistent = (phi_minus >= -err_minus) and (phi_plus <= err_plus)
    return phi_minus, phi_plus, consistent


def orbit_averages(T: ExpandingMap, f, max_period: int
                   ) -> Tuple[List[Tuple[int, np.ndarray]], List[float]]:
    """Every orbit of ``orbit_walks`` of period <= max_period, as den and
    its numerators, with the average of f on it.  f is evaluated once, on
    the numerators over den of every period, each exact in float64, so
    the quotient is float(Fraction(y, den)); an orbit is summed point by
    point from +0.0, as ``sum`` sums from int 0."""
    walks = list(orbit_walks(T, max_period))
    values = f.eval_many(np.concatenate(
        [np.empty(0)] + [(walk / den).ravel() for den, walk in walks]))
    orbits, averages, at = [], [], 0
    for den, walk in walks:
        sums = np.zeros(walk.shape[1])
        for row in values[at:at + walk.size].reshape(walk.shape):
            sums += row
        at += walk.size
        averages.extend((sums / len(walk)).tolist())
        orbits.extend((den, orbit) for orbit in walk.T)
    return orbits, averages


def orbit_oracle(T: ExpandingMap, f, max_period: int
                 ) -> Tuple[float, List[Fraction]]:
    """Best periodic-orbit average of f: a lower bound for the maximum
    ergodic average, exact over all orbits of period <= max_period; the
    first of ``orbit_averages`` with the largest."""
    orbits, averages = orbit_averages(T, f, max_period)
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
    function, and p; the codimension statement predicts rank p + 1.  The
    densities are sampled at the midpoints of the cells cut at the petal
    endpoints, at their one-sided selector orbits to depth N (where the
    arcs tau^n I_x end) and at a uniform grid.  Raises ValueError for N <
    0."""
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


def branch_one_frequency_scan(k: int, gammas: Sequence[float],
                              burn_in: int = 1000, length: int = 100000
                              ) -> np.ndarray:
    """Frequency of branch 1 on the Sturmian cycle of the 1-flower [gamma,
    gamma + 1/k] of the linear degree-k map, the devil's staircase over
    the family: the ``_coding`` of the ``_plateau`` of each gamma, one
    node cache for the whole grid.  burn_in and length, the window of the
    orbit walk this replaced, no longer change the value; they stay,
    checked, until the benchmark that passes them stops doing so.  Raises
    ValueError unless k >= 2, burn_in >= 0 and length >= 1 are integers."""
    if not (_integers(k, burn_in, length)
            and k >= 2 and burn_in >= 0 and length >= 1):
        raise ValueError("need integers k >= 2, burn_in >= 0, length >= 1")
    T, half = make_linear_map(k), 1 - Fraction(1, 2 * k)
    nodes, freqs = {}, []
    for gamma in gammas:
        g = reduce(gamma)
        i, p, q, _ = _plateau(T, g, nodes)
        # the midpoint, on branch k - 1 below half, decides only at p = 0
        freqs.append(_coding(k, i, p, q, p > 0 or g < half)[1])
    return np.array(freqs)

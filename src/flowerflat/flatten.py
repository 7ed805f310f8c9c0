"""Escape-time functions, flattening functionals and coboundaries.

A Lipschitz f can be flattened on a flower F exactly when, for every
discontinuity x of the selector, the integral of f' against the
escape-time density e_x = sum_n chi(tau^n I_x) vanishes.  All integrals
here are exact finite sums of f-values over the iterated-selector images;
the only approximation is the truncation of the geometric tail, which
carries a rigorous uniform bound reported with every value.

Every such integral comes from one closed form, the transfer function phi.
With a the anchor and tau right-continuous,

    phi(x) = sum_{n=1..N} [f(tau^n x) - f(tau^n a)] - sum_{c in (a, x]} J_c,

where c runs over the selector's jump ledger (the points T^m d of the
discontinuities d whose orbits stay in the flower) and J_c is the jump of
sum_n f o tau^n at c.  ``transfer`` is the one kernel for it: all points
of all flowers of a ``flower.SelectorTable`` move through the table
together, one level at a time.  ``functional`` and ``Coboundary`` call it
on a selector's one-row table, ``solve.phi_of_gammas`` on the table of a
family of 1-flowers.  phi is exact up to rounding for the truncated sum,
whose distance from the full series is at most ``Coboundary.error_bound``
= Lip(f) K^-(N+1) / (1 - 1/K) everywhere.  The functional of
I_x = [l, r] is f(r) - f(l) + phi(r) with anchor l.

The density itself is counted on forward orbits: tau^n I_x is the set of
points t with t, ..., T^(n-1) t in F and T^n t in I_x.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .circle import Arc, in_closed_arcs, reduce, reduce_many
from .flower import (Discontinuity, Flower, PreImageSelector, SelectorTable,
                     one_sided)

#: points per petal on which ``is_flat`` samples the flattened function
FLAT_SAMPLES = 64
#: size of the sample grid of ``normal_form_check``, and its tolerance
NORMAL_FORM_SAMPLES, NORMAL_FORM_TOL = 4096, 1e-9


def tail_bound(K: float, N: int, base_length: float = 1.0) -> float:
    """L1 bound on sum_{n>N} of the iterated-image lengths."""
    return base_length * K ** (-(N + 1)) / (1.0 - 1.0 / K)


def default_depth(lipschitz: float, K: float, target: float = 1e-10) -> int:
    """Smallest N >= 1 whose truncation certificate drops below ``target``."""
    N = 1
    while lipschitz * tail_bound(K, N) > target:
        N += 1
        if N > 10000:
            raise ValueError("tail bound does not reach target")
    return N


def escape_counts(F: Flower, arcs: Sequence[Arc], xs, N: int
                  ) -> np.ndarray:
    """The truncated escape densities of the arcs at the points xs, as an
    integer array of shape (len(arcs), len(xs)):

        e(t) = #{0 <= n <= N : t, ..., T^(n-1) t in F and T^n t in arc},

    all arcs counted on one forward orbit of the points, which is followed
    only while it stays in F.  Arcs are closed, tested as ``Arc.contains``
    tests them, one arc a row against the points as columns."""
    def rows(arcs):
        return (np.array([[arc.left] for arc in arcs]),
                np.array([[arc.length] for arc in arcs]))

    arc_rows, petal_rows = rows(arcs), rows(F.petals)
    x = reduce_many(xs)
    counts = np.zeros((len(arcs), len(x)), dtype=np.int64)
    alive = np.arange(len(x))
    for n in range(N + 1):
        counts[:, alive] += in_closed_arcs(x, *arc_rows)
        if n < N:
            stay = in_closed_arcs(x, *petal_rows).any(axis=0)
            alive = alive[stay]
            x = F.map.apply_many(x[stay])
    return counts


@dataclass
class EscapeFunction:
    """Truncated escape-time density e_x^(N) = sum_{n<=N} chi(tau^n I_x) of
    the arc I_x of a flower, evaluated on forward orbits."""

    flower: Flower
    arc: Arc
    truncation_depth: int
    tail_bound_l1: float

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return escape_counts(self.flower, [self.arc], xs,
                             self.truncation_depth)[0]


def escape_function(sel: PreImageSelector, disc: Discontinuity,
                    N: int) -> EscapeFunction:
    """The ``EscapeFunction`` of the arc I_x of ``disc``, a wrapper of
    ``escape_counts`` that stays only because the benchmark workloads in
    perfbench/workloads.py call it.  Raises ValueError for N < 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    K = sel.flower.map.expansion_constant
    return EscapeFunction(sel.flower, disc.I, N,
                          tail_bound(K, N, disc.I.length))


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
    """Truncated flattening functional: integral of f' against e_x, the
    closed form f(r) - f(l) + phi(r) with phi anchored at l, [l, r] = I_x.

    Returns (value, error_bound); the bound is the rigorous geometric-tail
    certificate, uniform over all flowers with the same map.  phi(r) with
    anchor l comes from one ``transfer`` call for every arc I_x of the
    selector, which the selector's table keeps for the last f and N
    (``SelectorTable.arcs``); an arc not kept, such as a complementary
    J_x, joins that call.
    """
    l, r = disc.I.left, disc.I.right
    value = f.eval(r) - f.eval(l)
    if N > 0:
        table = sel.table
        kept_f, kept_n, phis = table.arcs
        if kept_f is not f or kept_n != N or (l, r) not in phis:
            arcs = list(dict.fromkeys([(d.I.left, d.I.right)
                                       for d in sel.discontinuities()]
                                      + [(l, r)]))
            u, v = np.array(arcs).T[:, None]
            table.arcs = (f, N, dict(zip(
                arcs, transfer(table, f, N, u, v)[0].tolist())))
        value += table.arcs[2][(l, r)]
    K = sel.flower.map.expansion_constant
    err = f.lipschitz_constant() * tail_bound(K, N, disc.I.length)
    return value, err


def transfer(table: SelectorTable, f, N: int, u, v) -> np.ndarray:
    """phi(v) - phi(u) for every flower g of the table, the closed form of
    the module docstring with anchor u, at reduced points v of shape
    (G, M) against u of shape (G, 1) or (G, M).

    The jump at a ledger point c = T^m d is the difference of the tails
    sum_{i<N-m} f(tau_R^i y) and sum_{i<N-m} f(tau_L^i y') over the orbits
    of the petal ends y = tau_R(d) and y' = tau_L(d).  A point whose
    level-m orbit lies within EPS of d is decided by the side of d it lies
    on (``flower.one_sided``, the selector's one rule there), which a
    comparison with the forward-iterated c can contradict by rounding
    errors that grow like K^m.  Its later orbit is the exact one-sided
    orbit of d, so it takes that tail and stops: iterating on could round
    onto d again where that orbit returns to it.

    Each level is one ``tau_many`` step.  Unless the table keeps the tails
    of f and N (``SelectorTable.sums``), the right and the left orbit of
    the discontinuity points ride along as 2p more columns, whose running
    sums of f give each ledger entry its tails at level N - m.  A point
    takes at most one tail and adds nothing after it, so the tails are
    added after the loop; the sums start at +0.0, which adding f never
    makes -0.0.  A level skips the decisions that no live point is near.
    """
    v, u = np.asarray(v, dtype=float), np.asarray(u, dtype=float)
    M, W = v.shape[1], v.shape[1] + u.shape[1]
    g, j, m, c = table.ledger(N)
    K, p = len(g), table.disc.shape[1]
    cols = [v, u]
    kept_f, kept_n, tails = table.sums
    fused = kept_f is not f or kept_n != N
    if fused:
        # the right tails, the left tails and 0.0, the tail of no jump
        tails = np.zeros(2 * K + 1)
        cols += [table.disc, table.disc]
    points = np.concatenate(cols, axis=1)
    left = np.arange(points.shape[1]) >= W + p if fused else False
    total = np.zeros(points.shape)
    alive = np.ones(points.shape, dtype=bool)
    pick = np.full((len(v), W), 2 * K)
    past = c[:, None] <= points[g, :W]
    # one-sided decisions only at the (level, discontinuity) of some jump,
    # and tails read at the level N - m of each: the ledger sorted by
    # level and then discontinuity, cut into slices
    key = m * p + j
    order = np.argsort(key, kind="stable")
    key = key[order]
    heads = np.flatnonzero(key != np.concatenate(([-1], key[:-1])))
    jumps = {}
    for h, e in zip(heads.tolist(), heads[1:].tolist() + [K]):
        n, jj = divmod(int(key[h]), p)
        jumps.setdefault(n, []).append((jj, order[h:e]))
    for n in range(N):
        for jj, k in jumps.get(n, ()):
            at = g[k]
            x, d = points[at, :W], table.disc[at, jj, None]
            near = one_sided(x, d, side=False) & alive[at, :W]
            if not near.any():
                continue
            side = one_sided(x, d)[1]
            past[k] = np.where(near, side, past[k])
            pick[at] = np.where(near, np.where(side, k[:, None],
                                               K + k[:, None]), pick[at])
            alive[at, :W] &= ~near
        points = table.tau_many(points, left)
        np.add(total, f.eval_many(points), out=total, where=alive)
        if fused:
            for jj, k in jumps.get(N - 1 - n, ()):
                tails[[k, K + k]] = total[g[k], [[W + jj], [W + p + jj]]]
    if fused:
        table.sums = (f, N, tails)
    total[:, :W] += tails[pick]
    after_anchor, past = ~past[:, M:], past[:, :M]
    inside = np.where(v[g] >= u[g], after_anchor & past,
                      after_anchor | past)
    drop = np.zeros(v.shape)
    np.add.at(drop, g, (tails[:K] - tails[K:2 * K])[:, None] * inside)
    return total[:, :M] - total[:, M:W] - drop


class Coboundary:
    """Truncated transfer function phi with phi' = sum_{n=1..N} (f o tau^n)'.

    phi is anchored to 0 at ``anchor``, the left end of the first petal,
    and carries a uniform truncation certificate ``error_bound``; the
    flattening coboundary is g = phi - phi o T.  phi is evaluated by
    ``transfer`` on the selector's one-row table; ``transfer`` itself
    gives phi(v) - phi(u) for any other anchor u.
    """

    def __init__(self, sel: PreImageSelector, f, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.selector = sel
        self.f = f
        self.depth = depth
        self.anchor = sel.flower.petals[0].left
        K = sel.flower.map.expansion_constant
        self.error_bound = f.lipschitz_constant() * tail_bound(K, depth)

    def eval_many(self, xs: Sequence[float]) -> np.ndarray:
        """phi at many points.  Raises ValueError on non-finite points."""
        return transfer(self.selector.table, self.f, self.depth,
                        [[self.anchor]], reduce_many(xs)[None, :])[0]

    def coboundary_many(self, xs: Sequence[float]) -> np.ndarray:
        """g = phi - phi o T at many points (error bound: 2*error_bound)."""
        xs = reduce_many(xs)
        images = self.selector.flower.map.apply_many(xs)
        vals = self.eval_many(np.concatenate([xs, images]))
        n = len(xs)
        return vals[:n] - vals[n:]


def build_coboundary(sel: PreImageSelector, f, N: int) -> Coboundary:
    """``Coboundary(sel, f, N)``; it stays only because the benchmark
    workloads in perfbench/workloads.py call it."""
    return Coboundary(sel, f, N)


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


def is_flat(f, cob: Coboundary, F: Flower,
            tol: float = 1e-8) -> Tuple[bool, float, float]:
    """Check that f + phi - phi o T is constant on the flower.

    Returns (flat, witnessed_constant, max_deviation); ``flat`` is true
    when the deviation stays below tol plus the truncation certificates.
    """
    pts = petal_samples(F, FLAT_SAMPLES)
    vals = flattened_values(f, cob, pts)
    constant = float(np.mean(vals))
    max_dev = float(np.max(np.abs(vals - constant)))
    certified = tol + 4.0 * cob.error_bound
    return max_dev <= certified, constant, max_dev


def normal_form_check(f, alpha_estimate: float) -> bool:
    """True iff max f <= alpha_estimate + NORMAL_FORM_TOL on a sample grid
    refined by the function's own breakpoints (if any)."""
    grid = [i / NORMAL_FORM_SAMPLES for i in range(NORMAL_FORM_SAMPLES)]
    grid.extend(getattr(f, "breakpoints", ()))
    top = max(f.eval(x) for x in grid)
    return top <= alpha_estimate + NORMAL_FORM_TOL

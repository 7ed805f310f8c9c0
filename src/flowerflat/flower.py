"""Flowers, pre-image selectors and their discontinuity combinatorics.

A p-flower is a union of p disjoint closed petals whose images under the
map tile the circle.  A pre-image selector picks, for every point of the
circle, its unique preimage inside the flower; it has exactly p jump
discontinuities, located at the images of the petal endpoints.  A
``SelectorTable`` holds the selectors of many flowers as rows of affine
pieces, for pushing arrays of points through all of them at once.

Petal geometry comes from the lift F of the map (``dynamics``): the arc
from l whose image winds w times ends at F^-1(F(l) + w) (``arc_end``),
and a petal is cut where (F(l), F(r)) contains an integer, at a branch
break.  A petal's image winds at most once, so it is cut at most once:
every petal is one or two affine pieces of tau, and the selectors of
one flower and of a whole family come from the one ``SelectorTable``
constructor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .circle import (EPS, Arc, arc_indicator, cells, distance, in_closed_arcs,
                     lift, reduce, reduce_many)
from .dynamics import ExpandingMap

_IMAGE_TOL = 1e-9
_LEAST = math.ulp(0.0)


class FlowerError(ValueError):
    pass


class DegeneratePetal(FlowerError):
    pass


class OverlappingPetals(FlowerError):
    pass


class CoverageGap(FlowerError):
    pass


class ImagesOverlap(FlowerError):
    pass


class BoundaryAtBranchBreak(FlowerError):
    """Petal endpoint coincides with a branch breakpoint of the map."""


class SamplingFailed(FlowerError):
    """``random_flower`` found no valid flower within its attempts."""


@dataclass(frozen=True)
class Flower:
    """Validated p-flower: disjoint closed petals with tiling images."""

    petals: Tuple[Arc, ...]
    map: ExpandingMap

    @property
    def p(self) -> int:
        return len(self.petals)

    def contains(self, x: float) -> bool:
        for petal in self.petals:
            if petal.contains(x):
                return True
        return False

    def boundary(self) -> List[float]:
        pts: List[float] = []
        for petal in self.petals:
            pts.extend((petal.left, petal.right))
        return sorted(pts)


def validate_flower(petals: Sequence[Arc], T: ExpandingMap,
                    allow_break_endpoints: bool = False) -> Flower:
    """Check the flower axioms and return a validated Flower.

    Raises DegeneratePetal, BoundaryAtBranchBreak, OverlappingPetals,
    CoverageGap or ImagesOverlap.  Petal endpoints sitting exactly on a
    branch breakpoint make the jump types ambiguous and are rejected
    unless ``allow_break_endpoints`` is set (the selector itself stays
    well defined, so continuous families may pass through such flowers).
    """
    if not petals:
        raise DegeneratePetal("a flower needs at least one petal")
    petals = tuple(Arc(p.left, p.right) if isinstance(p, Arc) else Arc(*p)
                   for p in petals)
    for petal in petals:
        if petal.length <= EPS or petal.length >= 1.0 - EPS:
            raise DegeneratePetal(f"petal {petal} has no valid interior")
        if allow_break_endpoints:
            continue
        for endpoint in (petal.left, petal.right):
            if any(distance(endpoint, b) <= EPS for b in T.breaks):
                raise BoundaryAtBranchBreak(
                    f"petal endpoint {endpoint} sits on a branch breakpoint")
    order = sorted(range(len(petals)), key=lambda i: petals[i].left)
    petals = tuple(petals[i] for i in order)
    for i, petal in enumerate(petals):
        nxt = petals[(i + 1) % len(petals)]
        gap_to_next = reduce(nxt.left - petal.left) or 1.0
        if petal.length >= gap_to_next - EPS:
            raise OverlappingPetals(f"petals {petal} and {nxt} intersect")

    windings = T.winding([p.left for p in petals],
                         [p.right for p in petals]).tolist()
    total = sum(windings)
    if total < 1.0 - _IMAGE_TOL:
        raise CoverageGap(
            "petal images cover only %.17g of the circle" % total)
    if total > 1.0 + _IMAGE_TOL:
        raise ImagesOverlap(
            "petal images cover %.17g > 1 of the circle" % total)
    starts = [T.apply(p.left) for p in petals]
    img_order = sorted(range(len(petals)), key=lambda i: starts[i])
    for a, b in zip(img_order, img_order[1:] + img_order[:1]):
        end_a = reduce(starts[a] + windings[a])
        if distance(end_a, starts[b]) > _IMAGE_TOL:
            raise ImagesOverlap(
                "petal images do not tile the circle (mismatch at %.17g)"
                % end_a)
    return Flower(petals, T)


@dataclass(frozen=True)
class Discontinuity:
    """One jump of a pre-image selector.

    ``y`` is the right limit (a petal left endpoint), ``y_prime`` the left
    limit (a petal right endpoint); ``I``/``J`` are the two complementary
    closed arcs between them, oriented as dictated by the order based at
    the reference endpoint y1; ``in_A`` records the orientation class.
    """

    x: float
    type_pair: Tuple[int, int]
    y: float
    y_prime: float
    I: Arc
    J: Arc
    in_A: bool


class PreImageSelector:
    """A pre-image selector tau for a flower: right-continuous, taking at
    each discontinuity point the petal left endpoint there."""

    def __init__(self, flower: Flower):
        self.flower = flower
        T = flower.map
        starts = [T.apply(p.left) for p in flower.petals]
        order = sorted(range(len(starts)), key=starts.__getitem__)
        self._disc = [starts[i] for i in order]          # sorted D_F
        # the petal whose image starts at each discontinuity point, and the
        # one whose image ends there: the images tile the circle in order
        self._owner = order
        self._end_owner = order[-1:] + order[:-1]
        self._table = None

    @property
    def discontinuity_points(self) -> List[float]:
        return list(self._disc)

    def tau(self, x: float) -> float:
        """The selected preimage of x, ``tau_many`` of the one-row table:
        at a discontinuity point its right limit, the petal left endpoint
        there."""
        return float(self.table.tau_many(np.array(reduce(x))))

    def discontinuities(self) -> List[Discontinuity]:
        """The p discontinuities with their I/J arcs and A-membership."""
        T = self.flower.map
        petals = self.flower.petals
        x1 = min(self._disc)
        y1 = petals[self._owner[self._disc.index(x1)]].left
        out = []
        for i, d in enumerate(self._disc):
            y = petals[self._owner[i]].left
            yp = petals[self._end_owner[i]].right
            type_pair = (T.branch_index(yp), T.branch_index(y))
            in_a = lift(y1, y) <= lift(y1, yp)
            I = Arc(y, yp) if in_a else Arc(yp, y)
            out.append(Discontinuity(x=d, type_pair=type_pair, y=y,
                                     y_prime=yp, I=I, J=I.complement(),
                                     in_A=in_a))
        return out

    def characteristic_identity(self):
        """(lhs, rhs, equal) of the characteristic identity, which holds
        for every valid flower:

            chi(F) = sum_{x in A} chi(I_x) - sum_{x not in A} chi(I_x open).

        Both sides are integer step functions that jump only at the 2p
        petal endpoints, which are the ends of the arcs I_x bitwise, so
        they are compared exactly as int64 arrays of their values at
        ``cells(F.boundary())``: the sorted petal endpoints, then the
        midpoints of the cells between them.
        """
        xs = np.concatenate(cells(self.flower.boundary()))
        lhs = sum(arc_indicator(xs, petal) for petal in self.flower.petals)
        rhs = sum((1 if d.in_A else -1) * arc_indicator(xs, d.I, d.in_A)
                  for d in self.discontinuities())
        return lhs, rhs, bool((lhs == rhs).all())

    # -- iterated images ---------------------------------------------------

    def push_once(self, arcs: List[Tuple[float, float]]
                  ) -> List[Tuple[float, float]]:
        """tau of a union of closed arcs, given as (left, right) pairs.

        Every arc is cut at the discontinuity points strictly inside it,
        and each piece's left end is mapped by the right limit of tau and
        its right end by the left limit.  tau contracts, so an image longer
        than its arc comes from float ends that crossed (true length below
        one ulp): it becomes a point, and a point stays a point.
        """
        us, vs = [], []
        for l, r in arcs:
            length = reduce(r - l)
            cuts = sorted((d for d in self._disc
                           if 0.0 < reduce(d - l) < length),
                          key=lambda d: reduce(d - l))
            ends = [l, *cuts, r]
            us += ends[:-1]
            vs += ends[1:]
        lefts, rights = self.table.tau_many(
            np.array([us, vs]), np.array([[False], [True]])).tolist()
        return [(y, y if u == v or reduce(z - y) > reduce(v - u) else z)
                for u, v, y, z in zip(us, vs, lefts, rights)]

    def push_arc(self, J: Arc, n: int) -> List[Arc]:
        """The set tau^n(J) as a union of closed arcs, n ``push_once``
        levels.  Arcs touching at endpoints are kept separate, so the
        total length is at most K^-n len(J)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        arcs = [(J.left, J.right)]
        for _ in range(n):
            arcs = self.push_once(arcs)
        return [Arc(l, r) for l, r in arcs]

    # -- vectorized selector orbits ----------------------------------------

    @property
    def table(self) -> "SelectorTable":
        """This selector as a one-row ``SelectorTable``, built on first
        use, so selectors that never map a point skip it."""
        if self._table is None:
            petals = self.flower.petals
            self._table = SelectorTable(
                self.flower.map, np.array([[p.left for p in petals]]),
                np.array([[p.right for p in petals]]))
        return self._table


def selector(F: Flower) -> PreImageSelector:
    return PreImageSelector(F)


def arc_end(T: ExpandingMap, start, winding) -> np.ndarray:
    """The reduced end F^-1(F(start) + winding) of the arc from ``start``
    whose image winds ``winding`` times round the circle (the start of
    the arc that ends at ``start`` for a negative winding), on arrays."""
    return reduce_many(T.lift_inverse(T.lift(start) + winding))


def one_sided(points: np.ndarray, d, side: bool = True):
    """The selector's one decision at a discontinuity point d, on reduced
    points: (near, right), or ``near`` alone without ``side``.  ``near``
    marks the points within EPS of d on the circle, which count as d;
    ``right`` those at or past d, which take tau's right limit there.
    With a = |x - d|, the distance is min(a, 1 - a), and the short way
    round crosses 0/1 where a > 1/2; 1 - a is exact there, so this is the
    decision on x - d wrapped into [-1/2, 1/2].  Arrays broadcast."""
    e = points - d
    a = np.abs(e)
    near = np.minimum(a, 1.0 - a) <= EPS
    return (near, (e >= 0.0) != (a > 0.5)) if side else near


def one_flower(T: ExpandingMap, gamma: float) -> Flower:
    """The 1-flower whose petal starts at gamma (image winds exactly once)."""
    a = reduce(gamma)
    b = float(arc_end(T, a, 1.0))
    return validate_flower([Arc(a, b)], T, allow_break_endpoints=True)


class SelectorTable:
    """The pre-image selectors of G p-flowers of one map, one row per
    flower, for pushing points through all of them in one numpy step.

    The table is built from the petals, arrays ``left`` and ``right``
    of shape (G, p); ``length`` and ``disc`` (the p sorted discontinuity
    points) have that shape too.  The affine pieces of each tau are
    arrays (start, preimage of the start, slope, preimage length) of
    shape (G, P) sorted by start in each row; a row with fewer pieces is
    padded with start +inf, which no reduced point reaches, so the count
    of ``tau_many`` never selects it.  The forward data of the
    closed form in ``flatten.transfer``, the jump ``ledger``, is built on
    first use and kept for the last depth asked.
    """

    def __init__(self, T: ExpandingMap, left: np.ndarray, right: np.ndarray):
        self.map = T
        self.left, self.right = left, right
        # ``Arc.length``: the difference of two reduced points lies in
        # (-1, 1), where x + (x < 0) reduces it exactly (short of a petal
        # one turn long)
        self.length = right - left
        self.length += self.length < 0.0
        starts = T.apply_many(left)
        self.disc = np.sort(starts, axis=1)
        # A petal's image winds at most once, so the petal crosses at most
        # one break: the first past its left end, where F reaches the next
        # integer m.  The head piece runs up to it; the tail piece past it,
        # kept when longer than EPS, starts where the head's image ends.
        m = np.floor(T.lift(left)).astype(int) + 1
        brk = T.lift_inverse(m)
        head = np.minimum(self.length, brk - left)
        tail = self.length - head
        slopes = np.asarray(T.slopes, dtype=float)
        head_slope = slopes[(m - 1) % T.degree]
        # both lie in [0, 2), where x - (x >= 1) reduces exactly
        tail_start = starts + head_slope * head
        tail_start -= tail_start >= 1.0
        tail_start[tail <= EPS] = np.inf
        pieces = np.concatenate([
            np.array([starts, left, head_slope, head]),
            np.array([tail_start, brk - (brk >= 1.0), slopes[m % T.degree],
                      tail])], axis=2)
        rows = np.arange(len(left))[:, None]
        pieces = pieces[:, rows, np.argsort(pieces[0], axis=1, kind="stable")]
        last = (pieces[0] < np.inf).sum(axis=1) - 1
        # a one-row table keeps its row unpacked, without the padding, for
        # ``searchsorted``; many rows gather the four columns at once from a
        # flat table at row * (P + 1) + the count of the row's starts at or
        # below the point, where column 0 of each row repeats its last piece
        self._row = (tuple(pieces[:, 0, :last[0] + 1])
                     if len(left) == 1 else None)
        if self._row is None:
            wrapped = np.concatenate([pieces[:, rows, last[:, None]], pieces],
                                     axis=2)
            self._starts = wrapped[0, :, 1:].T
            self._flat = wrapped.reshape(4, -1)
            self._base = rows * wrapped.shape[2]
        self._ledger = (None, None)
        #: (f, n, jump tails) that ``flatten.transfer`` keeps for the last
        #: f and depth, so a selector's functionals and coboundary share them
        self.sums = (None, None, None)
        #: (f, n, {(l, r): phi(r) - phi(l)}) that ``flatten.functional``
        #: keeps for the last f and depth, for the arcs [l, r] of one call
        self.arcs = (None, None, {})

    @classmethod
    def one_flowers(cls, T: ExpandingMap, lefts) -> "SelectorTable":
        """The selectors of the 1-flowers [a, b] with the given left
        endpoints a.  Row g is ``selector(one_flower(T, a[g])).table``,
        built by the same constructor from the same petal ends, so the
        two agree bitwise."""
        a = reduce_many(lefts)[:, None]
        return cls(T, a, arc_end(T, a, 1.0))

    def tau_many(self, xs: np.ndarray, left=False) -> np.ndarray:
        """tau of flower g on the reduced points xs[g] (any shape for a
        one-row table): its right limit (the petal left endpoint) at a
        discontinuity point, or its left limit (the petal right endpoint)
        where ``left``, a bool or a bool mask broadcasting against xs, is
        set; no endpoint tolerance is applied.  The left limit at x takes
        the piece of the right limit at nextafter(x, -inf), as #starts < x
        = #starts <= nextafter(x, -inf), so one search serves both: one
        ``searchsorted`` for one row, and for many one compare-and-add per
        start column.  A count of i is piece i - 1, and a count of 0, below
        every start, is column 0 of the row in the flat table, a copy of
        its last piece, which wraps."""
        q = xs if left is False else np.where(left, np.nextafter(xs, -np.inf),
                                              xs)
        if self._row is not None:
            starts, bases, slopes, lengths = self._row
            j = starts.searchsorted(q, "right") - 1
            starts, bases, slopes, lengths = (starts[j], bases[j], slopes[j],
                                              lengths[j])
        else:
            x = q.reshape(len(self._base), -1 if q.size else 0)
            first, *rest = self._starts
            j = self._base + (first[:, None] <= x)
            for start in rest:
                j += start[:, None] <= x
            starts, bases, slopes, lengths = self._flat.take(
                j.reshape(q.shape), axis=1)
        off = xs - starts
        # a point below every start wraps a full turn, and so does the left
        # limit at the start of a row's one piece: off <= 0 there, which on
        # floats is off < the least positive float
        off += off < left * _LEAST
        y = bases + np.minimum(off / slopes, lengths)
        return y - (y >= 1.0)

    def ledger(self, n: int) -> Tuple[np.ndarray, ...]:
        """The jump ledger to depth n: arrays (g, j, m, c) of the flower,
        the discontinuity, the level and the point c = T^m d of the
        discontinuity d = disc[g, j], ordered by g, j and m.

        tau^(m+1) and every later iterate jump at c = T^m d, because tau^m
        is continuous at c and maps it to d.  That holds while d, ...,
        T^(m-1) d lie in the flower, so a chain is live up to its first
        point outside.  It also stops before a point within EPS of a
        discontinuity point (``one_sided``): the chain from there is that
        point's own, and each point is listed once.  One walk applies T to
        the live entries only, a level at a time, and ends when none is
        left."""
        if self._ledger[0] != n:
            g, j = np.nonzero(np.ones(self.disc.shape, dtype=bool))
            c = self.disc[g, j]
            levels = [(g[:0], j[:0], g[:0], c[:0])]  # empty at depth 0
            for m in range(n):
                if m:
                    # Flower.contains on reduced points, and the near half
                    # of ``one_sided``: the ledger needs no side
                    inside = in_closed_arcs(c[:, None], self.left[g],
                                            self.length[g]).any(axis=1)
                    nxt = self.map.apply_many(c)
                    on = inside & ~one_sided(nxt[:, None], self.disc[g],
                                             side=False).any(axis=1)
                    g, j, c = g[on], j[on], nxt[on]
                    if not len(g):
                        break
                levels.append((g, j, np.full_like(g, m), c))
            g, j, m, c = (np.concatenate(x) for x in zip(*levels))
            order = np.lexsort((m, j, g))
            self._ledger = (n, (g[order], j[order], m[order], c[order]))
        return self._ledger[1]


def random_flower(T: ExpandingMap, p: int, rng) -> Flower:
    """Random valid p-flower, built by choosing p discontinuity points and
    one preimage chain per image arc."""
    if p < 1:
        raise ValueError("p must be >= 1")
    k = T.degree
    if k == 2 and p % 2 == 0:
        # the 2p boundary preimages of D_F come in antipodal pairs, which
        # for even p forces F = F + 1/2 and hence overlapping petal images
        raise ValueError("degree-2 maps admit no flower with an even "
                         "number of petals")
    margin = 0.02
    # the p gaps between the discontinuity points sum to 1 and each must
    # be at least margin wide, and the gap that holds the fixed point at
    # least twice that: no draw can pass unless (p + 1) margin < 1
    if (p + 1) * margin >= 1.0:
        raise SamplingFailed(f"no {p}-flower keeps its discontinuity points "
                             f"{margin} apart and off the fixed point")
    for _ in range(1000):
        d = sorted(rng.uniform(0.0, 1.0) for _ in range(p))
        if p > 1 and min((reduce(d[(i + 1) % p] - d[i]) or 1.0)
                         for i in range(p)) < margin:
            continue
        if any(distance(x, T.fixed_point) < margin for x in d):
            continue
        choices = [rng.randrange(k) for _ in range(p)]
        lefts = [T.inverse_branch(choices[i], d[i]) for i in range(p)]
        image_lens = [reduce(d[(i + 1) % p] - d[i]) or 1.0 for i in range(p)]
        rights = arc_end(T, lefts, image_lens).tolist()
        petals = [Arc(l, r) for l, r in zip(lefts, rights)]
        # reject draws whose petals merge or collide
        try:
            return validate_flower(petals, T)
        except FlowerError:
            continue
    raise SamplingFailed(f"no valid {p}-flower found in 1000 attempts")

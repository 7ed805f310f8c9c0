"""Flowers, pre-image selectors and their discontinuity combinatorics.

A p-flower is a union of p disjoint closed petals whose images under the
map tile the circle.  A pre-image selector picks, for every point of the
circle, its unique preimage inside the flower; it has exactly p jump
discontinuities, located at the images of the petal endpoints.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .circle import (EPS, Arc, CyclicOrder, StepFunction, distance, reduce,
                     reduce_many, step_sum)
from .dynamics import ExpandingMap

_IMAGE_TOL = 1e-9


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


def _petal_pieces(T: ExpandingMap, petal: Arc):
    """Split a petal at the branch breaks it crosses.

    Returns (pieces, winding) where each piece is
    (image_offset, left_endpoint, length, slope): the sub-arc starting at
    ``left_endpoint`` lies in a single branch and its image starts at
    ``image_offset`` past the image of the petal's left endpoint.
    """
    a0 = T.fixed_point
    lifted = T._lifted
    u = a0 + reduce(petal.left - a0)
    remaining = petal.length
    i = T.branch_index(petal.left)
    pos = u
    offset = 0.0
    pieces = []
    while remaining > EPS:
        hi = lifted[i + 1] if i + 1 < T.degree else a0 + 1.0
        step = min(remaining, hi - pos)
        pieces.append((offset, reduce(pos), step, T.slopes[i]))
        offset += T.slopes[i] * step
        remaining -= step
        pos += step
        i += 1
        if i == T.degree:
            i = 0
            pos -= 1.0
    return pieces, offset


@dataclass(frozen=True)
class Flower:
    """Validated p-flower: disjoint closed petals with tiling images."""

    petals: Tuple[Arc, ...]
    map: ExpandingMap

    @property
    def p(self) -> int:
        return len(self.petals)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(petal.contains(x, tol) for petal in self.petals)

    def characteristic(self) -> StepFunction:
        return step_sum(StepFunction.indicator(p) for p in self.petals)

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

    windings = [T.winding(p.left, p.right) for p in petals]
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
        petals = flower.petals
        data = [_petal_pieces(T, p) for p in petals]
        starts = [T.apply(p.left) for p in petals]
        order = sorted(range(len(petals)), key=lambda i: starts[i])
        self._disc = [starts[i] for i in order]          # sorted D_F
        self._owner = [order[j] for j in range(len(order))]
        self._pieces = [data[i][0] for i in range(len(petals))]
        self._winding = [data[i][1] for i in range(len(petals))]
        # petal whose image *ends* at each discontinuity point
        self._end_owner = []
        for d in self._disc:
            ends = [(i, reduce(starts[i] + self._winding[i]))
                    for i in range(len(petals))]
            match = min(ends, key=lambda t: distance(t[1], d))
            self._end_owner.append(match[0])
        self._table = None
        disc = np.array(self._disc)
        self._orbits = ([disc], [disc])
        self._ledger, self._ledger_depth = [], 0

    @property
    def discontinuity_points(self) -> List[float]:
        return list(self._disc)

    def _image_index(self, x: float) -> int:
        i = bisect.bisect_right(self._disc, reduce(x)) - 1
        return i % len(self._disc)

    def _invert_offset(self, petal_idx: int, offset: float) -> float:
        """Preimage at the given image offset inside the numbered petal."""
        pieces = self._pieces[petal_idx]
        for piece_off, left, length, slope in reversed(pieces):
            if offset >= piece_off - EPS:
                t = min(max((offset - piece_off) / slope, 0.0), length)
                return reduce(left + t)
        return self.flower.petals[petal_idx].left

    def _invert(self, image_idx: int, x: float) -> float:
        """Preimage of x inside the petal whose image starts at D[image_idx]."""
        petal_idx = self._owner[image_idx]
        offset = reduce(x - self._disc[image_idx])
        w = self._winding[petal_idx]
        if offset > w:
            # x fell outside the image arc by rounding; snap to the nearer end
            offset = 0.0 if offset > (1.0 + w) / 2.0 else w
        return self._invert_offset(petal_idx, offset)

    def _jump_value(self, disc_idx: int, side: str) -> float:
        if side == "right":
            return self.flower.petals[self._owner[disc_idx]].left
        return self.flower.petals[self._end_owner[disc_idx]].right

    def tau(self, x: float, side: str = "right") -> float:
        """The selected preimage of x.  Within EPS of a discontinuity point
        tau takes its right limit (the petal left endpoint there), or its
        left limit (the petal right endpoint) with ``side='left'``."""
        x = reduce(x)
        for i, d in enumerate(self._disc):
            if distance(x, d) <= EPS:
                return self._jump_value(i, side)
        return self._invert(self._image_index(x), x)

    def discontinuities(self) -> List[Discontinuity]:
        """The p discontinuities with their I/J arcs and A-membership."""
        T = self.flower.map
        petals = self.flower.petals
        x1 = min(self._disc)
        y1 = petals[self._owner[self._disc.index(x1)]].left
        order = CyclicOrder(y1)
        out = []
        for i, d in enumerate(self._disc):
            y = petals[self._owner[i]].left
            yp = petals[self._end_owner[i]].right
            type_pair = (T.branch_index(yp), T.branch_index(y))
            in_a = order.key(y) <= order.key(yp)
            I = Arc(y, yp) if in_a else Arc(yp, y)
            out.append(Discontinuity(x=d, type_pair=type_pair, y=y,
                                     y_prime=yp, I=I, J=I.complement(),
                                     in_A=in_a))
        return out

    def characteristic_identity(self):
        """(chi(F), signed sum of chi(I_x), equal?) -- the identity holds
        for every valid flower.

        The signed sum is upper semi-continuous, so the positively counted
        arcs enter as closed indicators and the negatively counted ones as
        open indicators.
        """
        lhs = self.flower.characteristic()
        rhs = StepFunction.constant(0)
        for disc in self.discontinuities():
            if disc.in_A:
                rhs = rhs.add(StepFunction.indicator(disc.I), 1)
            else:
                rhs = rhs.add(StepFunction.indicator_open(disc.I), -1)
        return lhs, rhs, lhs.equal(rhs)

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
        lefts = self.tau_many(np.array(us), "right").tolist()
        rights = self.tau_many(np.array(vs), "left").tolist()
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

    def discontinuity_set(self, n: int) -> List[float]:
        """All discontinuity points of tau^n (the jump ledger's points)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return sorted({c for _, _, c in self.jump_ledger(n)})

    # -- vectorized selector orbits ----------------------------------------

    def _tau_table(self) -> Tuple[np.ndarray, ...]:
        """The affine pieces of tau sorted by their image-side start:
        arrays (start, preimage of the start, slope, preimage length).
        Built on first use, so selectors that never call ``tau_many``
        skip it."""
        if self._table is None:
            rows = sorted((reduce(d + off), left, slope, length)
                          for j, d in enumerate(self._disc)
                          for off, left, length, slope
                          in self._pieces[self._owner[j]])
            self._table = tuple(np.array(col) for col in zip(*rows))
        return self._table

    def tau_many(self, xs: np.ndarray, side: str = "right") -> np.ndarray:
        """tau on an array of reduced points: one ``searchsorted`` in the
        tau table plus one affine map.

        At a discontinuity point tau takes its right limit (the petal left
        endpoint) with ``side='right'`` and its left limit (the petal right
        endpoint) with ``side='left'``; no endpoint tolerance is applied.
        """
        starts, bases, slopes, lengths = self._tau_table()
        j = np.searchsorted(starts, xs, side=side) - 1
        off = xs - starts[j]
        # j = -1 picks the last piece, whose image wraps through 0; its
        # left limit at its own start is the end of a full turn
        off += (off <= 0.0) if side == "left" else (off < 0.0)
        y = bases[j] + np.minimum(off / slopes[j], lengths[j])
        return y - (y >= 1.0)

    def disc_orbits(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The right and the left orbit of the discontinuity points to
        depth n: arrays of shape (n + 1, p) with rows tau_R^i d and
        tau_L^i d.  Built on first use and extended when a deeper n is
        asked for."""
        right, left = self._orbits
        while len(right) <= n:
            right.append(self.tau_many(right[-1], "right"))
            left.append(self.tau_many(left[-1], "left"))
        return np.array(right[:n + 1]), np.array(left[:n + 1])

    def jump_ledger(self, n: int) -> List[Tuple[int, int, float]]:
        """The jumps of tau, ..., tau^n as (j, m, c): tau^(m+1) and every
        later iterate jump at c = T^m(d_j), d_j the j-th discontinuity
        point, because tau^m is continuous at c and maps it to d_j.

        That holds while d_j, ..., T^(m-1) d_j lie in the flower, so a
        chain stops after its first point outside.  It also stops before
        a point that is itself a discontinuity point: the chain from there
        is that point's own, and each point is listed once.  The deepest
        ledger asked for is kept, and shallower ones are cut from it.
        """
        if n > self._ledger_depth:
            T = self.flower.map
            ledger = []
            for j, d in enumerate(self._disc):
                c = d
                for m in range(n):
                    ledger.append((j, m, c))
                    if not self.flower.contains(c):
                        break
                    c = T.apply(c)
                    if any(distance(c, e) <= EPS for e in self._disc):
                        break
            self._ledger, self._ledger_depth = ledger, n
        return [entry for entry in self._ledger if entry[1] < n]


def selector(F: Flower) -> PreImageSelector:
    return PreImageSelector(F)


def _walk_forward(T: ExpandingMap, start: float, image_length: float) -> float:
    """Endpoint of the arc starting at ``start`` whose image has the given
    length (exact accumulation over the affine branch pieces)."""
    a0 = T.fixed_point
    lifted = T._lifted
    i = T.branch_index(start)
    pos = a0 + reduce(start - a0)
    remaining = image_length
    while True:
        hi = lifted[i + 1] if i + 1 < T.degree else a0 + 1.0
        capacity = T.slopes[i] * (hi - pos)
        if remaining <= capacity:
            return reduce(pos + remaining / T.slopes[i])
        remaining -= capacity
        pos = hi
        i += 1
        if i == T.degree:
            i = 0
            pos -= 1.0


def one_flower(T: ExpandingMap, gamma: float) -> Flower:
    """The 1-flower whose petal starts at gamma (image winds exactly once)."""
    a = reduce(gamma)
    b = _walk_forward(T, a, 1.0)
    return validate_flower([Arc(a, b)], T, allow_break_endpoints=True)


def _branch_walk_start(T: ExpandingMap, starts: np.ndarray):
    """Lifted start points and their branch indices, as ``_walk_forward``
    and ``_petal_pieces`` compute them, on arrays."""
    lifted = np.asarray(T._lifted)
    pos = lifted[0] + reduce_many(starts - lifted[0])
    i = np.maximum(np.searchsorted(lifted, pos, side="right") - 1, 0)
    return pos, i


def _branch_walk_step(T: ExpandingMap, pos: np.ndarray, i: np.ndarray):
    """The end of branch i, and the next (pos, i) of a walk that has
    reached it, wrapping past the last branch as the scalar walks do."""
    lifted = np.asarray(T._lifted)
    k = T.degree
    hi = np.where(i + 1 < k, lifted[np.minimum(i + 1, k - 1)],
                  lifted[0] + 1.0)
    wrap = i + 1 == k
    return hi, wrap, np.where(wrap, 0, i + 1)


def _walk_forward_many(T: ExpandingMap, starts: np.ndarray,
                       image_length: float) -> np.ndarray:
    """``_walk_forward`` on an array of start points, with the same float
    operations, so each endpoint equals the scalar one bitwise."""
    slopes = np.asarray(T.slopes)
    pos, i = _branch_walk_start(T, starts)
    remaining = np.full(pos.shape, float(image_length))
    out = np.empty_like(pos)
    todo = np.ones(pos.shape, dtype=bool)
    while todo.any():
        hi, wrap, nxt = _branch_walk_step(T, pos, i)
        capacity = slopes[i] * (hi - pos)
        done = todo & (remaining <= capacity)
        out[done] = reduce_many(pos[done] + remaining[done] / slopes[i[done]])
        todo &= ~done
        remaining = remaining - capacity
        pos = np.where(wrap, hi - 1.0, hi)
        i = nxt
    return out


class OneFlowerSelectors:
    """The pre-image selectors of the 1-flowers [a, b] with the given left
    endpoints a, one row per flower, for pushing points through all of
    them in one numpy step.

    Row g is the tau table of ``selector(one_flower(T, a[g]))``, built with
    the same float operations, so ``tau_many`` agrees bitwise with that
    selector's ``tau_many``.  Rows have one piece per branch the petal
    crosses; unused slots carry the start +inf and are never selected.
    """

    def __init__(self, T: ExpandingMap, lefts):
        a = reduce_many(lefts)
        b = _walk_forward_many(T, a, 1.0)
        self.left, self.right = a, b
        self.length = reduce_many(b - a)
        self.disc = T.apply_many(a)
        # the pieces of each petal, as in _petal_pieces
        slopes = np.asarray(T.slopes)
        pos, i = _branch_walk_start(T, a)
        remaining = self.length.copy()
        offset = np.zeros_like(a)
        live = remaining > EPS
        columns = []
        while live.any():
            hi, wrap, nxt = _branch_walk_step(T, pos, i)
            step = np.minimum(remaining, hi - pos)
            columns.append((np.where(live, reduce_many(self.disc + offset),
                                     np.inf),
                            reduce_many(pos), slopes[i], step))
            offset = offset + slopes[i] * step
            remaining = remaining - step
            pos = pos + step
            pos = np.where(wrap, pos - 1.0, pos)
            i = nxt
            live &= remaining > EPS
        starts, bases, piece_slopes, lengths = (
            np.stack(col, axis=1) for col in zip(*columns))
        rows = np.arange(len(a))[:, None]
        order = np.argsort(starts, axis=1)
        self._table = tuple(col[rows, order]
                            for col in (starts, bases, piece_slopes, lengths))
        self._last = (starts < np.inf).sum(axis=1) - 1

    def tau_many(self, xs: np.ndarray, side="right") -> np.ndarray:
        """tau of flower g on the points xs[g] (shape (G,) or (G, P)),
        with ``PreImageSelector.tau_many``'s one-sided limits; ``side`` is
        'right', 'left' or an array of them that broadcasts to xs.  The
        piece is found by counting the row's starts below each point (or
        at it, for the right limit), an exact comparison."""
        starts, bases, slopes, lengths = self._table
        rows = np.arange(len(starts))[:, None]
        x = xs.reshape(len(starts), -1)
        left = np.broadcast_to(np.asarray(side) == "left",
                               xs.shape).reshape(x.shape)
        row_starts = starts[:, None, :]
        below = np.where(left[..., None], row_starts < x[..., None],
                         row_starts <= x[..., None])
        j = below.sum(axis=2) - 1
        # j = -1 picks the last piece, whose image wraps through 0
        j = np.where(j < 0, self._last[:, None], j)
        off = x - starts[rows, j]
        off += np.where(left, off <= 0.0, off < 0.0)
        y = bases[rows, j] + np.minimum(off / slopes[rows, j],
                                        lengths[rows, j])
        return (y - (y >= 1.0)).reshape(xs.shape)

    def contains(self, xs: np.ndarray) -> np.ndarray:
        """``Flower.contains`` for flower g at the point xs[g]."""
        return reduce_many(reduce_many(xs) - self.left) <= self.length


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
    for _ in range(1000):
        d = sorted(rng.uniform(0.0, 1.0) for _ in range(p))
        if p > 1 and min((reduce(d[(i + 1) % p] - d[i]) or 1.0)
                         for i in range(p)) < margin:
            continue
        if any(distance(x, T.fixed_point) < margin for x in d):
            continue
        choices = [rng.randrange(k) for _ in range(p)]
        petals = []
        for i in range(p):
            image_len = (reduce(d[(i + 1) % p] - d[i]) or 1.0)
            left = T.inverse_branch(choices[i], d[i])
            right = _walk_forward(T, left, image_len)
            petals.append(Arc(left, right))
        # reject chains that merge adjacent petals or collide
        try:
            return validate_flower(petals, T)
        except FlowerError:
            continue
    raise SamplingFailed(f"no valid {p}-flower found in 1000 attempts")

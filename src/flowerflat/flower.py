"""Flowers, pre-image selectors and their discontinuity combinatorics.

A p-flower is a union of p disjoint closed petals whose images under the
map tile the circle.  A pre-image selector picks, for every point of the
circle, its unique preimage inside the flower; it has exactly p jump
discontinuities, located at the images of the petal endpoints.  A
``SelectorTable`` holds the selectors of many flowers as rows of affine
pieces, for pushing arrays of points through all of them at once.
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
        return sorted(set(self.table.ledger(n)[3].tolist()))

    # -- vectorized selector orbits ----------------------------------------

    @property
    def table(self) -> "SelectorTable":
        """This selector as a one-row ``SelectorTable``, built on first
        use, so selectors that never push arrays of points skip it."""
        if self._table is None:
            pieces = sorted((reduce(d + off), left, slope, length)
                            for j, d in enumerate(self._disc)
                            for off, left, length, slope
                            in self._pieces[self._owner[j]])
            petals = [(p.left, p.right, p.length) for p in self.flower.petals]
            self._table = SelectorTable(
                self.flower.map, [np.array([col]) for col in zip(*pieces)],
                np.array([self._disc]),
                [np.array([col]) for col in zip(*petals)])
        return self._table

    def tau_many(self, xs: np.ndarray, side: str = "right") -> np.ndarray:
        """tau on an array of reduced points, with one-sided limits at the
        discontinuity points (``SelectorTable.tau_many``)."""
        return self.table.tau_many(xs, side)

    def jump_ledger(self, n: int) -> List[Tuple[int, int, float]]:
        """The jumps of tau, ..., tau^n as (j, m, c): tau^(m+1) and every
        later iterate jump at c = T^m(d_j), d_j the j-th discontinuity
        point, because tau^m is continuous at c and maps it to d_j: the
        table's ``ledger``, by j and then m.
        """
        _, j, m, c = self.table.ledger(n)
        return list(zip(j.tolist(), m.tolist(), c.tolist()))


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


class SelectorTable:
    """The pre-image selectors of G p-flowers of one map, one row per
    flower, for pushing points through all of them in one numpy step.

    ``pieces`` are the affine pieces of each tau, arrays (start, preimage
    of the start, slope, preimage length) of shape (G, P) sorted by start
    in each row; a row with fewer pieces is padded with start +inf, never
    selected.  ``disc`` (the p sorted discontinuity points) and the petals
    (``left``, ``right``, ``length``) have shape (G, p).  The data of the
    closed form in ``flatten.transfer`` (``orbits``, ``chains`` and their
    ``ledger``, and the ``sums`` of the last f) is built on first use.
    """

    def __init__(self, T: ExpandingMap, pieces, disc: np.ndarray, petals):
        self._pieces = pieces
        self._last = (pieces[0] < np.inf).sum(axis=1) - 1
        # a one-row table keeps its row unpacked for ``searchsorted``
        self._row = ((pieces[0][0], pieces[1][0], pieces[2][0], pieces[3][0])
                     if len(disc) == 1 else None)
        self.map = T
        self.disc = disc
        self.left, self.right, self.length = petals
        self._orbits = (disc[None], disc[None])
        self._chain = [disc]
        self._live = [np.ones(disc.shape, dtype=bool)]
        self._ledger, self._sums = (None, None), (None, None, None)

    @classmethod
    def one_flowers(cls, T: ExpandingMap, lefts) -> "SelectorTable":
        """The selectors of the 1-flowers [a, b] with the given left
        endpoints a.  Row g is ``selector(one_flower(T, a[g])).table``,
        built with the same float operations, so the two agree bitwise."""
        a = reduce_many(lefts)
        b = _walk_forward_many(T, a, 1.0)
        length = reduce_many(b - a)
        disc = T.apply_many(a)
        # the pieces of each petal, as in _petal_pieces
        slopes = np.asarray(T.slopes)
        pos, i = _branch_walk_start(T, a)
        remaining = length.copy()
        offset = np.zeros_like(a)
        live = remaining > EPS
        columns = []
        while live.any():
            hi, wrap, nxt = _branch_walk_step(T, pos, i)
            step = np.minimum(remaining, hi - pos)
            columns.append((np.where(live, reduce_many(disc + offset),
                                     np.inf),
                            reduce_many(pos), slopes[i], step))
            offset = offset + slopes[i] * step
            remaining = remaining - step
            pos = pos + step
            pos = np.where(wrap, pos - 1.0, pos)
            i = nxt
            live &= remaining > EPS
        pieces = [np.stack(col, axis=1) for col in zip(*columns)]
        order = np.argsort(pieces[0], axis=1)
        return cls(T, [np.take_along_axis(col, order, 1) for col in pieces],
                   disc[:, None], (a[:, None], b[:, None], length[:, None]))

    def tau_many(self, xs: np.ndarray, side: str = "right") -> np.ndarray:
        """tau of flower g on the reduced points xs[g] (any shape for a
        one-row table), with its right limit (the petal left endpoint) at
        a discontinuity point, or its left limit (the petal right endpoint)
        with ``side='left'``; no endpoint tolerance is applied.  One row
        finds the piece with one ``searchsorted``, many rows by counting
        the row's starts below each point (or at it, for the right limit).
        A point below every start takes the last piece, which wraps."""
        left = side == "left"
        if self._row is not None:
            starts, bases, slopes, lengths = self._row
            j = starts.searchsorted(xs, side) - 1
            starts, bases, slopes, lengths = (starts[j], bases[j], slopes[j],
                                              lengths[j])
        else:
            x = xs.reshape(len(self._last), -1)
            row_starts = self._pieces[0][:, None, :]
            below = (row_starts < x[..., None] if left
                     else row_starts <= x[..., None])
            j = below.sum(axis=2) - 1
            j = np.where(j < 0, self._last[:, None], j)
            rows = np.arange(len(j))[:, None]
            starts, bases, slopes, lengths = (col[rows, j].reshape(xs.shape)
                                              for col in self._pieces)
        off = xs - starts
        # the left limit at a piece's own start is the end of the piece
        # before it, a full turn on for the last one
        off += (off <= 0.0) if left else (off < 0.0)
        y = bases + np.minimum(off / slopes, lengths)
        return y - (y >= 1.0)

    def orbits(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The right and the left orbit of the discontinuity points to
        depth n: arrays of shape (n + 1, G, p) with rows tau_R^i d and
        tau_L^i d."""
        known = len(self._orbits[0])
        if known <= n:
            more = np.empty((n + 1 - known,) + self.disc.shape)
            self._orbits = tuple(np.concatenate([o, more])
                                 for o in self._orbits)
            for i in range(known, n + 1):
                for orbit, side in zip(self._orbits, ("right", "left")):
                    orbit[i] = self.tau_many(orbit[i - 1], side)
        right, left = self._orbits
        return right[:n + 1], left[:n + 1]

    def chains(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The jump-ledger chains to depth n: arrays (c, live) of shape
        (n, G, p), c[m] = T^m d while the entry is live, that is, in the
        ledger, and the chain's last live point after that.

        tau^(m+1) and every later iterate jump at c = T^m d, because tau^m
        is continuous at c and maps it to d.  That holds while d, ...,
        T^(m-1) d lie in the flower, so a chain is live up to its first
        point outside.  It also stops before a point within EPS of a
        discontinuity point: the chain from there is that point's own, and
        each point is listed once.
        """
        chain, live = self._chain, self._live
        while len(chain) < n and live[-1].any():
            c = chain[-1]
            # Flower.contains and circle.distance, on reduced points
            off = c[:, :, None] - self.left[:, None, :]
            off += off < 0.0
            inside = (off <= self.length[:, None, :]) | (off >= 1.0)
            nxt = self.map.apply_many(c)
            e = np.abs(nxt[:, :, None] - self.disc[:, None, :])
            near = np.minimum(e, 1.0 - e) <= EPS
            on = live[-1] & inside.any(axis=2) & ~near.any(axis=2)
            chain.append(np.where(on, nxt, c))
            live.append(on)
        # past the end of every chain nothing changes
        chain += chain[-1:] * (n - len(chain))
        live += live[-1:] * (n - len(live))
        shape = (n,) + self.disc.shape
        return (np.array(chain[:n]).reshape(shape),
                np.array(live[:n]).reshape(shape))

    def ledger(self, n: int) -> Tuple[np.ndarray, ...]:
        """The live entries of ``chains(n)``: arrays (g, j, m, c) of the
        flower, the discontinuity, the level and the chain point, by g, j
        and m.  The last ledger asked for is kept."""
        if self._ledger[0] != n:
            c, live = self.chains(n)
            g, j, m = np.nonzero(live.transpose(1, 2, 0))
            self._ledger = (n, (g, j, m, c[m, g, j]))
        return self._ledger[1]

    def sums(self, f, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The sums of f over levels 1..i of the right and of the left
        orbit of the discontinuity points, i = 0..n: arrays of shape
        (n + 1, G, p).  The last f and n asked for are kept, so the
        functionals and the coboundary of one selector share them."""
        if self._sums[0] is not f or self._sums[1] != n:
            sums = tuple(f.eval_many(orbit) for orbit in self.orbits(n))
            for s in sums:
                s[0] = 0.0
                np.cumsum(s, axis=0, out=s)
            self._sums = (f, n, sums)
        return self._sums[2]


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

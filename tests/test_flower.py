"""Flowers, their validation, and pre-image selectors."""
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flowerflat.circle import EPS, Arc, cells, distance, reduce
from flowerflat.dynamics import make_linear_map, map_from_slopes
from flowerflat.flatten import transfer
from flowerflat.flower import (BoundaryAtBranchBreak, DegeneratePetal,
                               FlowerError, OverlappingPetals, SamplingFailed,
                               SelectorTable, one_flower, one_sided,
                               random_flower, selector, validate_flower)
from flowerflat.functions import PiecewiseLinear, TrigPolynomial
from flowerflat.solve import sturmian_estimate

T2 = make_linear_map(2)


class TestValidation:
    def test_semicircle_valid(self):
        F = validate_flower([Arc(0.25, 0.75)], T2)
        assert F.p == 1
        assert F.petals[0] == Arc(0.25, 0.75)

    def test_shifted_semicircle_valid(self):
        F = validate_flower([Arc(0.1, 0.6)], T2)
        assert F.p == 1

    def test_short_arc_rejected(self):
        with pytest.raises(FlowerError):
            validate_flower([Arc(0.1, 0.4)], T2)

    def test_degenerate_petal_rejected(self):
        with pytest.raises(DegeneratePetal):
            validate_flower([Arc(0.3, 0.3)], T2)

    def test_overlapping_petals_rejected(self):
        with pytest.raises(OverlappingPetals):
            validate_flower([Arc(0.1, 0.6), Arc(0.55, 0.9)], T2)

    def test_endpoint_on_branch_break_rejected_by_default(self):
        with pytest.raises(BoundaryAtBranchBreak):
            validate_flower([Arc(0.0, 0.5)], T2)

    def test_endpoint_on_branch_break_opt_in(self):
        F = validate_flower([Arc(0.0, 0.5)], T2,
                            allow_break_endpoints=True)
        assert F.p == 1

    def test_contains_and_characteristic(self):
        F = validate_flower([Arc(0.25, 0.75)], T2)
        assert F.contains(0.5)
        assert not F.contains(0.1)
        assert F.boundary() == [0.25, 0.75]
        # chi(F) at 1/4, 3/4 and the cell midpoints 1/2 and 0
        chi, _, _ = selector(F).characteristic_identity()
        assert chi.tolist() == [1, 1, 1, 0]


class TestOneFlower:
    def test_doubling_family(self):
        F = one_flower(T2, 0.25)
        assert F.petals[0].left == 0.25
        assert F.petals[0].right == pytest.approx(0.75, abs=1e-12)

    def test_family_allows_break_endpoints(self):
        F = one_flower(T2, 0.5)
        assert F.petals[0].left == 0.5

    def test_uneven_map_petal_length(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        F = one_flower(T, 0.05)
        # the image must wind exactly once
        assert T.winding(F.petals[0].left, F.petals[0].right) == \
            pytest.approx(1.0, abs=1e-9)


class TestRandomFlower:
    def test_valid_samples(self):
        rng = random.Random(5)
        for k, p in ((2, 3), (3, 2), (4, 4)):
            F = random_flower(make_linear_map(k), p, rng)
            assert F.p == p

    def test_degree_two_even_petal_count_impossible(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            random_flower(T2, 2, rng)

    def test_gives_up_with_a_flower_error(self):
        with pytest.raises(SamplingFailed):
            random_flower(make_linear_map(3), 61, random.Random(5))

    def test_gives_up_before_drawing_when_no_spacing_fits(self):
        # p points 0.02 apart and off the fixed point need (p + 1) 0.02 < 1
        rng = random.Random(5)
        state = rng.getstate()
        for p in (49, 10 ** 7):
            with pytest.raises(SamplingFailed):
                random_flower(make_linear_map(3), p, rng)
        assert rng.getstate() == state


def _neighbourhood(ds):
    """Rows of 15 reduced points around each d: d, d +- k ulps for k <= 4,
    then d + EPS, one ulp in and one ulp out, and the same for d - EPS."""
    rows = []
    for d in ds:
        pts, up, down = [d], d, d
        for _ in range(4):
            up, down = math.nextafter(up, 2.0), math.nextafter(down, -1.0)
            pts += [up, down]
        for x in (d + EPS, d - EPS):
            pts += [x, math.nextafter(x, d), math.nextafter(x, x + x - d)]
        rows.append([reduce(x) for x in pts])
    return np.array(rows)


class TestOneSided:
    """``one_sided``, the one rule at a discontinuity point, against the
    scalar ``circle.distance`` and the side of d taken exactly."""

    @staticmethod
    def _past(x, d):
        e = Fraction(x) - Fraction(d)
        return e - round(e) >= 0

    def _check(self, xs, d):
        near, right = one_sided(xs, d)
        assert near.tolist() == [distance(x, d) <= EPS for x in xs]
        assert right[near].tolist() == [self._past(x, d) for x in xs[near]]
        assert one_sided(xs, d, side=False).tobytes() == near.tobytes()
        return near

    def test_neighbourhood_of_d(self):
        rng = random.Random(25)
        ds = [rng.random() for _ in range(200)] + [0.5, 0.25, 1 / 3, 2 / 3]
        for d, xs in zip(ds, _neighbourhood(ds)):
            near = self._check(xs, d)
            assert near[:9].all() and near[[10, 13]].all()
            assert not near[[11, 14]].any()

    def test_across_zero(self):
        # d and x on either side of 0/1, within EPS and just outside
        edge = [0.0, 5e-324, 1e-300, EPS / 2, EPS, 2 * EPS, 0.5,
                1.0 - 2.0 ** -53, 1.0 - EPS / 2, 1.0 - EPS, 1.0 - 2 * EPS]
        edge += [math.nextafter(x, 2.0) for x in edge[3:5]]
        edge += [math.nextafter(x, -1.0) for x in edge[8:10]]
        xs = np.array(edge)
        for d in edge:
            near = self._check(xs, d)
            assert near[edge.index(d)]
        # from 0: 2 EPS, 1/2, 1 - 2 EPS, and the floats past EPS and 1 - EPS
        assert np.flatnonzero(~self._check(xs, 0.0)).tolist() == \
            [5, 6, 10, 12, 14]


class TestSelector:
    def setup_method(self):
        self.F = validate_flower([Arc(0.25, 0.75)], T2)
        self.sel = selector(self.F)

    def test_tau_values(self):
        assert self.sel.tau(0.3) == pytest.approx(0.65, abs=1e-15)
        assert self.sel.tau(0.6) == pytest.approx(0.3, abs=1e-15)

    def test_tau_lands_in_flower(self):
        for x in (0.05, 0.3, 0.49, 0.51, 0.9):
            assert self.F.contains(self.sel.tau(x))
            assert T2.apply(self.sel.tau(x)) == pytest.approx(x, abs=1e-12)

    def test_discontinuity_structure(self):
        assert self.sel.discontinuity_points == [0.5]
        d = self.sel.discontinuities()[0]
        assert d.x == 0.5
        assert d.type_pair == (1, 0)
        assert d.y == 0.25
        assert d.y_prime == 0.75
        assert d.I == Arc(0.25, 0.75)
        assert d.in_A

    def test_one_sided_limits(self):
        # tau takes the right limit at d, the table either one
        d = self.sel.discontinuities()[0]
        assert self.sel.tau(d.x) == pytest.approx(0.25, abs=1e-9)
        table = self.sel.table
        assert table.tau_many(np.array([d.x]), left=True) == \
            pytest.approx([0.75], abs=1e-9)
        assert table.tau_many(np.array([d.x])) == \
            pytest.approx([0.25], abs=1e-9)

    def test_push_arc_one_step(self):
        arcs = self.sel.push_arc(Arc(0.25, 0.75), 1)
        assert sorted((a.left, a.right) for a in arcs) == \
            pytest.approx([(0.25, 0.375), (0.625, 0.75)], abs=1e-12)

    def test_pushed_lengths_contract(self):
        arcs = self.sel.push_arc(Arc(0.25, 0.75), 3)
        assert sum(a.length for a in arcs) == pytest.approx(1 / 16, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1 / 2, 1 / 8, 5 / 8])
    @pytest.mark.parametrize("n", [30, 40])
    def test_push_arc_contracts_on_periodic_left_ends(self, gamma, n):
        # the left end is periodic under T3, so tau^n of the petal has an
        # arc at it whose true length is 3^-n
        F = one_flower(make_linear_map(3), gamma)
        arcs = selector(F).push_arc(F.petals[0], n)
        assert arcs
        assert max(a.length for a in arcs) <= 1e-14

    def test_discontinuity_set(self):
        # the ledger's points are the discontinuity points of tau^2
        points = self.sel.table.ledger(2)[3]
        assert sorted(set(points.tolist())) == \
            pytest.approx([0.0, 0.5], abs=1e-12)

    def test_jump_ledger_entries(self):
        def jumps(sel, n):
            _, j, m, c = sel.table.ledger(n)
            return list(zip(j.tolist(), m.tolist(), c.tolist()))

        # 0.5 lies in the petal, so the chain goes on to T(0.5) = 0, which
        # lies outside and ends it
        assert jumps(self.sel, 5) == [(0, 0, 0.5), (0, 1, 0.0)]
        assert jumps(self.sel, 1) == [(0, 0, 0.5)]
        # the chain 1/3, 2/3 returns to the discontinuity 1/3 and stops
        # before it
        sel = selector(validate_flower([Arc(1 / 6, 2 / 3)], T2))
        assert jumps(sel, 5) == [(0, 0, 1 / 3), (0, 1, 2 / 3)]

    def test_tau_many_matches_tau_with_one_sided_limits(self):
        # tau is the right limit of the one-row table bitwise everywhere,
        # at each discontinuity point and in its EPS neighbourhood too; the
        # left limit agrees except at d, where the two limits of the table
        # are the petal ends of the discontinuity
        rng = random.Random(9)
        maps = [make_linear_map(k) for k in (2, 3, 4)] + [
            map_from_slopes([2.0, 4.0, 4.0]),
            map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)]
        for T, p in zip(maps * 2, (3, 2, 1, 2, 3, 1, 1, 3, 1, 1)):
            sel = selector(random_flower(T, p, rng))
            table = sel.table
            ds = np.array(sel.discontinuity_points)
            xs = np.concatenate([[rng.random() for _ in range(4000)],
                                 _neighbourhood(ds).ravel()])
            assert table.tau_many(xs).tolist() == [sel.tau(x) for x in xs]
            off = ~np.isin(xs, ds)
            assert table.tau_many(xs[off], True).tolist() == \
                [sel.tau(x) for x in xs[off]]
            assert table.tau_many(ds) == pytest.approx(
                [d.y for d in sel.discontinuities()], abs=1e-13)
            assert table.tau_many(ds, left=True) == pytest.approx(
                [d.y_prime for d in sel.discontinuities()], abs=1e-13)

    def test_tau_many_left_limit_of_a_single_piece(self):
        # one petal inside one branch: its image wraps the whole circle
        table = selector(one_flower(make_linear_map(3), 0.0)).table
        assert table.tau_many(np.array([0.0])).tolist() == [0.0]
        assert table.tau_many(np.array([0.0]), left=True) == \
            pytest.approx([1 / 3], abs=1e-15)

    def test_characteristic_identity(self):
        # at 1/4, 3/4 and the cell midpoints 1/2 and 0
        lhs, rhs, equal = self.sel.characteristic_identity()
        assert equal
        assert lhs.dtype == rhs.dtype == np.int64
        assert lhs.tolist() == rhs.tolist() == [1, 1, 1, 0]


TRIG = TrigPolynomial([0.3, -0.7], [0.5])
PWL = PiecewiseLinear([0.1, 0.45, 0.8], [1.0, -2.0, 7.0 / 6.0])
MAPS = [T2, make_linear_map(3), make_linear_map(4),
        map_from_slopes([2.0, 4.0, 4.0]),
        map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)]


class TestSelectorTable:
    @staticmethod
    def _assert_rows_bitwise(table, rows, xs, N):
        """tau_many on both sides, the ledger and the transfer from the
        first petal's left end of every row of the table equal those of the
        row's own one-row table, bitwise."""
        taus = {left: table.tau_many(xs, left) for left in (False, True)}
        ledger = table.ledger(N)
        u, v = table.left[:, :1], np.column_stack([table.right, xs])
        phis = {f: transfer(table, f, N, u, v) for f in (TRIG, PWL)}
        for g, row in enumerate(rows):
            for name in ("disc", "left", "right", "length"):
                assert np.array_equal(getattr(table, name)[g],
                                      getattr(row, name)[0])
            for left, tau in taus.items():
                assert np.array_equal(tau[g], row.tau_many(xs[g], left))
            at = ledger[0] == g
            for got, want in zip(ledger[1:], row.ledger(N)[1:]):
                assert np.array_equal(got[at], want)
            for f, phi in phis.items():
                assert phi[g].tobytes() == transfer(
                    row, f, N, u[g:g + 1], v[g:g + 1])[0].tobytes()

    def test_empty_table(self):
        """A table of no flowers pushes no points, on either side, and
        its transfer is empty."""
        table = SelectorTable.one_flowers(T2, [])
        for left in (False, True):
            for shape in ((0,), (0, 3)):
                pushed = table.tau_many(np.empty(shape), left)
                assert pushed.shape == shape and pushed.dtype == float
        assert transfer(table, TRIG, 10, table.left,
                        table.right).shape == (0, 1)

    @pytest.mark.parametrize("T", [
        T2, make_linear_map(3), map_from_slopes([2.0, 4.0, 4.0]),
        map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)])
    def test_rows_equal_the_selectors_bitwise(self, T):
        rng = np.random.default_rng(5)
        breaks = np.asarray(T.breaks)
        gammas = np.concatenate([
            np.arange(64) / 64, rng.random(64),
            np.nextafter(breaks, 1.0), np.nextafter(breaks, 0.0)]) % 1.0
        table = SelectorTable.one_flowers(T, gammas)
        rows = []
        for g, gamma in enumerate(gammas):
            F = one_flower(T, gamma)
            sel = selector(F)
            assert (table.left[g, 0], table.right[g, 0],
                    table.length[g, 0]) == \
                (F.petals[0].left, F.petals[0].right, F.petals[0].length)
            assert table.disc[g, 0] == sel.discontinuity_points[0]
            rows.append(sel.table)
        xs = np.column_stack([table.disc, table.left, table.right,
                              rng.random((len(gammas), 3))])
        self._assert_rows_bitwise(table, rows, xs, 40)

    @pytest.mark.parametrize("T", [
        make_linear_map(3), make_linear_map(4),
        map_from_slopes([2.0, 4.0, 4.0]),
        map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)])
    def test_rows_of_p_flowers_equal_their_selectors_bitwise(self, T):
        # a table of several 3-flowers, whose rows are padded to the
        # longest, against each flower's own one-row table
        rng = random.Random(13)
        flowers = [random_flower(T, 3, rng) for _ in range(6)]
        table = SelectorTable(
            T, np.array([[q.left for q in F.petals] for F in flowers]),
            np.array([[q.right for q in F.petals] for F in flowers]))
        xs = np.column_stack([table.disc, table.left, table.right,
                              np.random.default_rng(2).random((6, 20))])
        rows = [selector(F).table for F in flowers]
        self._assert_rows_bitwise(table, rows, xs, 30)
        for F, row in zip(flowers, rows):
            # the one petal whose image passes the fixed point is cut at
            # its branch break, the others are not cut
            assert len(row._row[0]) <= F.p + 1

    @staticmethod
    def _walked_ledger(flowers, n):
        """The ledger of a table whose rows are the flowers, walked point by
        point: for each discontinuity point d, the points T^m d with m < n
        while d, ..., T^(m-1) d lie in the flower and T^m d lies farther
        than EPS from every discontinuity point, by ``T.apply``,
        ``Flower.contains`` and ``circle.distance``."""
        entries = []
        for g, F in enumerate(flowers):
            disc = selector(F).discontinuity_points
            for j, c in enumerate(disc):
                for m in range(n):
                    if m:
                        if not F.contains(c):
                            break
                        c = F.map.apply(c)
                        if any(distance(c, d) <= EPS for d in disc):
                            break
                    entries.append((g, j, m, c))
        return entries

    @pytest.mark.parametrize("T", MAPS[:4])
    def test_ledger_is_the_walk_of_each_discontinuity(self, T):
        """Bitwise, on random p-flowers and on a table of 1-flowers from
        the grid, periodic points, the floats next to the breaks and the
        smallest points of cycles of period about 20, where the orbits of
        the discontinuity points follow the cycle."""
        rng = random.Random(17)
        flowers = [random_flower(T, p, rng) for p in (1, 2, 3, 4) * 2
                   if T.degree > 2 or p % 2]
        breaks = np.asarray(T.breaks)
        cycles = [float(sturmian_estimate(one_flower(T, b - 2.0 ** -20),
                                          TRIG, 0).periodic[0])
                  for b in breaks]
        gammas = np.concatenate([
            np.arange(32) / 32, [1 / 3, 2 / 3, 1 / 7, 0.2, 0.7], cycles,
            np.nextafter(breaks, 1.0), np.nextafter(breaks, 0.0)]) % 1.0
        cases = [(selector(F).table, [F]) for F in flowers] + [
            (SelectorTable.one_flowers(T, gammas),
             [one_flower(T, gamma) for gamma in gammas])]
        levels = set()
        for n in (0, 1, 8, 40):
            for table, rows in cases:
                g, j, m, c = table.ledger(n)
                assert [x.dtype for x in (g, j, m, c)] == [np.intp] * 3 + [
                    np.float64]
                walked = self._walked_ledger(rows, n)
                assert list(zip(g.tolist(), j.tolist(), m.tolist(),
                                c.tolist())) == walked
                levels.update(m.tolist())
        assert max(levels) >= 8

    def test_depths_asked_in_turn_equal_fresh_tables(self):
        # the table keeps the ledger of the last depth asked for only
        T = make_linear_map(3)
        gammas = np.arange(16) / 16
        table = SelectorTable.one_flowers(T, gammas)
        for N in (40, 18, 40, 0):
            fresh = SelectorTable.one_flowers(T, gammas)
            for g, w in zip(table.ledger(N), fresh.ledger(N)):
                assert np.array_equal(g, w)
            assert table.ledger(N)[0] is table.ledger(N)[0]

    @pytest.mark.parametrize("T", MAPS)
    def test_kept_tails_give_the_transfer_of_a_fresh_table(self, T):
        # a table that keeps the tails of f and N pushes only the points,
        # and its transfer equals, bitwise, that of a fresh table, which
        # pushes the orbits of the discontinuity points along; another f
        # or depth in between replaces the tails
        gammas = np.random.default_rng(8).random(24)
        table = SelectorTable.one_flowers(T, gammas)
        u = table.left
        v = np.column_stack([table.right, np.random.default_rng(9).random(
            (len(gammas), 5))])
        widths = []

        def counted(xs, left=False):
            widths.append(xs.shape[1])
            return SelectorTable.tau_many(table, xs, left)

        table.tau_many = counted
        for f, N, kept in ((TRIG, 30, False), (TRIG, 30, True),
                           (PWL, 30, False), (TRIG, 18, False),
                           (TRIG, 30, False), (TRIG, 30, True)):
            widths.clear()
            got = transfer(table, f, N, u, v)
            assert widths == [v.shape[1] + 1 + 2 * (not kept)] * N
            assert table.sums[:2] == (f, N)
            fresh = SelectorTable.one_flowers(T, gammas)
            assert got.tobytes() == transfer(fresh, f, N, u, v).tobytes()


def _points_at_the_pieces(row):
    """Every piece start and discontinuity point of a one-row table, and
    the floats next to them on either side, reduced."""
    pts = np.concatenate([row._row[0], row.disc[0]])
    pts = np.concatenate([pts, np.nextafter(pts, 2.0), np.nextafter(pts, -1.0)])
    return pts[(pts >= 0.0) & (pts < 1.0)]


class TestTauManyMask:
    @staticmethod
    def _assert_mask(table, xs, seed):
        """tau_many with a random mask equals, elementwise and bitwise,
        the right limit where it is off and the left limit where it is
        on; a mask that is all off or all on equals the bool."""
        mask = np.random.default_rng(seed).random(xs.shape) < 0.5
        right, left = table.tau_many(xs), table.tau_many(xs, left=True)
        got = table.tau_many(xs, mask)
        assert got.tobytes() == np.where(mask, left, right).tobytes()
        for flag, want in ((False, right), (True, left)):
            assert table.tau_many(xs, np.full(xs.shape, flag)).tobytes() == \
                want.tobytes()
        return right, left

    @pytest.mark.parametrize("T", MAPS)
    def test_one_row_and_many_rows(self, T):
        rng = random.Random(21)
        flowers = [random_flower(T, 3, rng) for _ in range(4)] + [
            one_flower(T, g) for g in (0.0, 0.3, rng.random())]
        rows = [selector(F).table for F in flowers]
        pts = [_points_at_the_pieces(row) for row in rows]
        width = max(len(x) for x in pts)
        xs = np.array([np.pad(x, (0, width - len(x)), constant_values=0.5)
                       for x in pts])
        for g, row in enumerate(rows):
            self._assert_mask(row, pts[g], g)
        for part in (slice(0, 4), slice(4, 7)):
            Fs = flowers[part]
            table = SelectorTable(
                T, np.array([[q.left for q in F.petals] for F in Fs]),
                np.array([[q.right for q in F.petals] for F in Fs]))
            right, left = self._assert_mask(table, xs[part], 99)
            for g, row in enumerate(rows[part]):
                assert right[g].tobytes() == row.tau_many(xs[part][g]).tobytes()
                assert left[g].tobytes() == \
                    row.tau_many(xs[part][g], left=True).tobytes()

    def test_single_piece_wraps_on_both_row_paths(self):
        # one petal inside one branch: its image wraps the whole circle,
        # so the left limit at the piece's start is its end, a turn on
        T = make_linear_map(3)
        for table in (selector(one_flower(T, 0.0)).table,
                      SelectorTable.one_flowers(T, [0.0, 0.0])):
            xs = np.zeros((len(table.left), 2))
            got = table.tau_many(xs, np.array([False, True]))
            assert got[:, 0].tolist() == [0.0] * len(xs)
            assert got[:, 1] == pytest.approx([1 / 3] * len(xs), abs=1e-15)


class TestCharacteristicIdentityRandom:
    def test_holds_on_random_flowers(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.choice([2, 3, 4])
            p = rng.randint(1, 4)
            if k == 2 and p % 2 == 0:
                p += 1
            F = random_flower(make_linear_map(k), p, rng)
            _, _, equal = selector(F).characteristic_identity()
            assert equal

    @staticmethod
    def _flowers(seed, count, min_p=1):
        """Random flowers of T2, T3, T4 and S244 with p in [min_p, 4]."""
        rng = random.Random(seed)
        maps = [make_linear_map(k) for k in (2, 3, 4)] + [
            map_from_slopes([2.0, 4.0, 4.0])]
        for _ in range(count):
            T = rng.choice(maps)
            p = rng.randint(min_p, 4)
            if T.degree == 2 and p % 2 == 0:
                p += 1
            yield random_flower(T, p, rng), rng

    @staticmethod
    def _oracle(sel, x):
        """Both sides of the identity at x from ``Arc.contains``, an open
        arc holding the points of the closed one other than its ends."""
        lhs = sum(petal.contains(x) for petal in sel.flower.petals)
        rhs = 0
        for disc in sel.discontinuities():
            inside = disc.I.contains(x)
            if disc.in_A:
                rhs += inside
            else:
                rhs -= inside and x not in (disc.I.left, disc.I.right)
        return lhs, rhs

    def test_matches_the_scalar_oracle(self):
        # at every sample point; and at random points, where both sides
        # take the value of the cell the point lies in
        for F, rng in self._flowers(12, 60):
            sel = selector(F)
            lhs, rhs, equal = sel.characteristic_identity()
            pts, mids = cells(F.boundary())
            xs = np.concatenate([pts, mids]).tolist()
            assert list(zip(lhs.tolist(), rhs.tolist())) == \
                [self._oracle(sel, x) for x in xs]
            assert equal
            for x in (rng.random() for _ in range(50)):
                if x in xs:
                    continue
                cell = (np.searchsorted(pts, x) - 1) % len(pts)
                assert self._oracle(sel, x) == \
                    (lhs[len(pts) + cell], rhs[len(pts) + cell])

    def test_mutations_break_the_identity(self):
        # flipping one discontinuity's A-membership, or dropping its arc
        for F, _ in self._flowers(13, 20, min_p=2):
            sel = selector(F)
            discs = sel.discontinuities()
            for i, disc in enumerate(discs):
                flipped = dataclasses.replace(disc, in_A=not disc.in_A)
                for mutant in (discs[:i] + [flipped] + discs[i + 1:],
                               discs[:i] + discs[i + 1:]):
                    sel.discontinuities = lambda: mutant
                    assert not sel.characteristic_identity()[2]

"""Flowers, their validation, and pre-image selectors."""
import dataclasses
import random

import numpy as np
import pytest

from flowerflat.circle import EPS, Arc, cells
from flowerflat.dynamics import make_linear_map, map_from_slopes
from flowerflat.flower import (BoundaryAtBranchBreak, DegeneratePetal,
                               FlowerError, OverlappingPetals, SamplingFailed,
                               SelectorTable, one_flower, random_flower,
                               selector, validate_flower)

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


class TestSelector:
    def setup_method(self):
        self.F = validate_flower([Arc(0.25, 0.75)], T2)
        self.sel = selector(self.F)

    def test_tau_values(self):
        assert self.sel.tau(0.3) == pytest.approx(0.65, abs=1e-15)
        assert self.sel.tau(0.6) == pytest.approx(0.3, abs=1e-15)

    def test_tau_lands_in_flower(self):
        for x in (0.05, 0.3, 0.49, 0.51, 0.9):
            assert self.F.contains(self.sel.tau(x), tol=1e-12)
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
        d = self.sel.discontinuities()[0]
        assert self.sel.tau(d.x, "left") == pytest.approx(0.75, abs=1e-9)
        assert self.sel.tau(d.x, "right") == pytest.approx(0.25, abs=1e-9)

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
        assert self.sel.discontinuity_set(2) == \
            pytest.approx([0.0, 0.5], abs=1e-12)

    def test_jump_ledger_chains(self):
        # 0.5 lies in the petal, so the chain goes on to T(0.5) = 0, which
        # lies outside and ends it
        assert self.sel.jump_ledger(5) == [(0, 0, 0.5), (0, 1, 0.0)]
        assert self.sel.jump_ledger(1) == [(0, 0, 0.5)]
        # the chain 1/3, 2/3 returns to the discontinuity 1/3 and stops
        # before it
        sel = selector(validate_flower([Arc(1 / 6, 2 / 3)], T2))
        assert sel.jump_ledger(5) == [(0, 0, 1 / 3), (0, 1, 2 / 3)]

    def test_tau_many_matches_tau_with_one_sided_limits(self):
        # bitwise away from the discontinuity points, where tau snaps to
        # a petal end within EPS
        rng = random.Random(9)
        maps = [make_linear_map(k) for k in (2, 3, 4)] + [
            map_from_slopes([2.0, 4.0, 4.0]),
            map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)]
        for T, p in zip(maps * 2, (3, 2, 1, 2, 3, 1, 1, 3, 1, 1)):
            sel = selector(random_flower(T, p, rng))
            xs = np.array([rng.random() for _ in range(4000)])
            ds = np.array(sel.discontinuity_points)
            far = np.abs((xs[:, None] - ds + 0.5) % 1.0 - 0.5) > EPS
            xs = xs[far.all(axis=1)]
            for side in ("right", "left"):
                assert sel.tau_many(xs, side).tolist() == \
                    [sel.tau(x, side) for x in xs]
                assert sel.tau_many(ds, side) == pytest.approx(
                    [sel.tau(d, side) for d in ds], abs=1e-13)

    def test_tau_many_left_limit_of_a_single_piece(self):
        # one petal inside one branch: its image wraps the whole circle
        sel = selector(one_flower(make_linear_map(3), 0.0))
        assert sel.tau_many(np.array([0.0]), "right").tolist() == [0.0]
        assert sel.tau_many(np.array([0.0]), "left") == \
            pytest.approx([1 / 3], abs=1e-15)

    def test_characteristic_identity(self):
        # at 1/4, 3/4 and the cell midpoints 1/2 and 0
        lhs, rhs, equal = self.sel.characteristic_identity()
        assert equal
        assert lhs.dtype == rhs.dtype == np.int64
        assert lhs.tolist() == rhs.tolist() == [1, 1, 1, 0]


class TestSelectorTable:
    @pytest.mark.parametrize("T", [
        T2, make_linear_map(3), map_from_slopes([2.0, 4.0, 4.0]),
        map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)])
    def test_rows_equal_the_selectors_bitwise(self, T):
        rng = np.random.default_rng(5)
        breaks = np.asarray(T.breaks)
        gammas = np.concatenate([
            np.arange(64) / 64, rng.random(64),
            np.nextafter(breaks, 1.0), np.nextafter(breaks, 0.0)]) % 1.0
        N = 40
        table = SelectorTable.one_flowers(T, gammas)
        xs = np.column_stack([table.disc, table.left, table.right,
                              rng.random((len(gammas), 3))])
        taus = {side: table.tau_many(xs, side) for side in ("right", "left")}
        ledger = (*table.orbits(N), *table.chains(N))
        for g, gamma in enumerate(gammas):
            F = one_flower(T, gamma)
            sel = selector(F)
            row = sel.table
            assert (table.left[g, 0], table.right[g, 0],
                    table.length[g, 0]) == \
                (F.petals[0].left, F.petals[0].right, F.petals[0].length)
            assert table.disc[g, 0] == sel.discontinuity_points[0]
            for side, tau in taus.items():
                assert np.array_equal(tau[g], row.tau_many(xs[g], side))
            for got, want in zip(ledger, (*row.orbits(N), *row.chains(N))):
                assert np.array_equal(got[:, g], want[:, 0])

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
        N = 30
        xs = np.column_stack([table.disc, table.left, table.right,
                              np.random.default_rng(2).random((6, 20))])
        taus = {side: table.tau_many(xs, side) for side in ("right", "left")}
        ledger = (*table.orbits(N), *table.chains(N))
        for g, F in enumerate(flowers):
            row = selector(F).table
            for name in ("disc", "left", "right", "length"):
                assert np.array_equal(getattr(table, name)[g],
                                      getattr(row, name)[0])
            for side, tau in taus.items():
                assert np.array_equal(tau[g], row.tau_many(xs[g], side))
            for got, want in zip(ledger, (*row.orbits(N), *row.chains(N))):
                assert np.array_equal(got[:, g], want[:, 0])
            # the one petal whose image passes the fixed point is cut at
            # its branch break, the others are not cut
            assert len(row._row[0]) <= F.p + 1


    def test_depths_asked_in_turn_equal_fresh_tables(self):
        # the table keeps the data of the last depth asked for only
        T = make_linear_map(3)
        gammas = np.arange(16) / 16
        table = SelectorTable.one_flowers(T, gammas)
        for N in (40, 18, 40, 0):
            fresh = SelectorTable.one_flowers(T, gammas)
            got = (*table.orbits(N), *table.chains(N), *table.ledger(N))
            want = (*fresh.orbits(N), *fresh.chains(N), *fresh.ledger(N))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert table.orbits(N)[0] is table.orbits(N)[0]


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

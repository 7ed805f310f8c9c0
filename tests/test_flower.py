"""Flowers, their validation, and pre-image selectors."""
import random

import numpy as np
import pytest

from flowerflat.circle import Arc
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
        chi = F.characteristic()
        assert chi.eval(0.5) == 1
        assert chi.eval(0.25) == 1
        assert chi.eval(0.1) == 0
        assert F.boundary() == [0.25, 0.75]


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
        rng = random.Random(9)
        for k, p in ((2, 3), (3, 2), (4, 1)):
            sel = selector(random_flower(make_linear_map(k), p, rng))
            xs = np.array([rng.random() for _ in range(300)])
            for side in ("right", "left"):
                assert sel.tau_many(xs, side) == pytest.approx(
                    [sel.tau(x, side) for x in xs], abs=1e-13)
                ds = np.array(sel.discontinuity_points)
                assert sel.tau_many(ds, side) == pytest.approx(
                    [sel.tau(d, side) for d in ds], abs=1e-13)

    def test_tau_many_left_limit_of_a_single_piece(self):
        # one petal inside one branch: its image wraps the whole circle
        sel = selector(one_flower(make_linear_map(3), 0.0))
        assert sel.tau_many(np.array([0.0]), "right").tolist() == [0.0]
        assert sel.tau_many(np.array([0.0]), "left") == \
            pytest.approx([1 / 3], abs=1e-15)

    def test_characteristic_identity(self):
        lhs, rhs, equal = self.sel.characteristic_identity()
        assert equal
        assert lhs.eval(0.25) == rhs.eval(0.25) == 1


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

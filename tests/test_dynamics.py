"""Piecewise-affine expanding circle maps and their exact periodic orbits."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flowerflat.dynamics import (ExpandingMap, make_linear_map,
                                 map_from_slopes, periodic_orbits)

from exact_oracle import walked_orbits


class TestLinearMaps:
    def test_doubling_values(self):
        T = make_linear_map(2)
        assert T.apply(0.3) == pytest.approx(0.6, abs=1e-15)
        assert T.apply(0.6) == pytest.approx(0.2, abs=1e-15)
        assert T.apply(0.5) == 0.0
        assert T.apply(0.0) == 0.0

    def test_degree_four(self):
        T = make_linear_map(4)
        assert T.apply(0.3) == pytest.approx(0.2, abs=1e-15)
        assert T.degree == 4

    def test_constants(self):
        T = make_linear_map(2)
        assert T.expansion_constant == 2.0
        assert T.lipschitz_constant == 2.0
        assert T.fixed_point == 0.0
        assert T.is_linear()

    def test_apply_many_matches_apply(self):
        rng = random.Random(2)
        for T in (make_linear_map(3), map_from_slopes([2.0, 4.0, 4.0], 0.3)):
            xs = [rng.random() for _ in range(200)] + list(T.breaks)
            xs += [np.nextafter(b, -1.0) % 1.0 for b in T.breaks]
            assert T.apply_many(xs).tolist() == [T.apply(x) for x in xs]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_apply_many_rejects_non_finite_points(self, bad):
        # the one check is on the points; their images are finite
        for T in (make_linear_map(3), map_from_slopes([2.0, 4.0, 4.0], 0.3)):
            with pytest.raises(ValueError, match="non-finite"):
                T.apply_many([0.25, bad])

    def test_branch_index(self):
        T = make_linear_map(2)
        assert T.branch_index(0.3) == 0
        assert T.branch_index(0.7) == 1
        assert T.branch_index(0.5) == 1

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            make_linear_map(1)


class TestMapFromSlopes:
    def test_reciprocal_slopes_must_close_up(self):
        with pytest.raises(ValueError):
            map_from_slopes([3.0, 2.0, 2.0])

    @pytest.mark.parametrize("slopes", [[0.0, 2.0], [2.0, 0.0]])
    def test_zero_slope_rejected(self, slopes):
        with pytest.raises(ValueError, match="not expanding"):
            map_from_slopes(slopes)

    def test_valid_uneven_map(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        assert T.degree == 3
        assert T.expansion_constant == 2.0
        assert T.lipschitz_constant == 4.0
        assert not T.is_linear()
        # branch lengths 1/2, 1/4, 1/4 from the fixed point 0
        assert T.breaks == T._lifted == (0.0, 0.5, 0.75)
        assert T._lifted_array.tolist() == [0.0, 0.5, 0.75]
        assert T.slopes == (2.0, 4.0, 4.0)
        assert T._slope_array.tolist() == [2.0, 4.0, 4.0]
        assert T.apply(0.25) == pytest.approx(0.5, abs=1e-14)
        assert T.apply(0.625) == pytest.approx(0.5, abs=1e-14)

    def test_each_branch_wraps_once(self):
        T = map_from_slopes([2.0, 4.0, 4.0], fixed_point=0.3)
        for i in range(T.degree):
            left = T.breaks[i]
            right = T.breaks[(i + 1) % T.degree]
            assert T.winding(left, right) == pytest.approx(1.0, abs=1e-9)


class TestExactModel:
    """``exact``: the lifted breaks and slopes as Fractions, each float read
    as the nearest rational of denominator <= 2^20 that rounds to it."""

    def test_hand_written_maps(self):
        assert make_linear_map(2).exact == (
            (Fraction(0), Fraction(1, 2)), (2, 2))
        assert make_linear_map(3).exact == (
            (Fraction(0), Fraction(1, 3), Fraction(2, 3)), (3, 3, 3))
        assert map_from_slopes([2.0, 4.0, 4.0]).exact == (
            (Fraction(0), Fraction(1, 2), Fraction(3, 4)), (2, 4, 4))

    @pytest.mark.parametrize("k", list(range(2, 13)) + [97, 1000])
    def test_linear_maps(self, k):
        """i/k and k, with the float data of T_k as it was: breaks, lifted
        breaks and slopes i/k and k, bit for bit."""
        T = make_linear_map(k)
        assert T.exact == (tuple(Fraction(i, k) for i in range(k)), (k,) * k)
        assert T.is_linear()
        breaks = [(i / k).hex() for i in range(k)]
        assert [x.hex() for x in T.breaks] == breaks
        assert [x.hex() for x in T._lifted] == breaks
        assert [x.hex() for x in T._lifted_array.tolist()] == breaks
        assert T.slopes == (float(k),) * k
        assert T._slope_array.tolist() == [float(k)] * k
        assert T._slope_array.dtype == T._lifted_array.dtype == np.float64

    @pytest.mark.parametrize("breaks, slopes", [
        ((0.0, 0.5 + 1e-13), (2.0, 2.0)),
        ((0.1, 0.43333333333333335, 0.7666666666666666), (3.0, 3.0, 3.0))])
    def test_branches_that_do_not_close(self, breaks, slopes):
        with pytest.raises(ValueError, match="does not wrap"):
            ExpandingMap(breaks, slopes)

    def test_breaks_from_slopes_close(self):
        """Accumulated in Fractions, each break rounded once."""
        T = map_from_slopes([3.0, 3.0, 3.0], fixed_point=0.1)
        assert T.breaks == (0.1, 0.43333333333333335, 0.7666666666666667)
        assert T.exact[0] == (Fraction(1, 10), Fraction(13, 30),
                              Fraction(23, 30))
        assert not T.is_linear()
        T = map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)
        assert T.breaks == (0.3, 0.55, 0.05)
        assert T.exact == ((Fraction(3, 10), Fraction(11, 20),
                            Fraction(21, 20)), (4, 2, 4))

    @pytest.mark.parametrize("slopes", [[2.0, float("inf")],
                                        [float("nan"), 2.0]])
    def test_non_finite_slopes(self, slopes):
        with pytest.raises(ValueError):
            map_from_slopes(slopes)
        with pytest.raises(ValueError):
            ExpandingMap((0.0, 0.5), tuple(slopes))


class TestLift:
    MAPS = [make_linear_map(2), make_linear_map(3),
            map_from_slopes([2.0, 4.0, 4.0]),
            map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)]

    @pytest.mark.parametrize("T", MAPS)
    def test_integers_at_the_lifted_breaks(self, T):
        k = T.degree
        lifted = np.array(T._lifted)
        for turns in (-1, 0, 1):
            assert T.lift(lifted + turns).tolist() == \
                [i + k * turns for i in range(k)]
        assert T.lift_inverse(np.arange(-k, 2 * k)).tolist() == \
            np.concatenate([lifted - 1, lifted, lifted + 1]).tolist()

    @pytest.mark.parametrize("T", MAPS)
    def test_equivariant_monotone_and_inverted(self, T):
        rng = np.random.default_rng(4)
        u = np.sort(rng.uniform(-1.0, 2.0, 2000))
        y = T.lift(u)
        assert np.all(np.diff(y) >= 0.0)
        assert T.lift(u + 1.0) == pytest.approx(y + T.degree, abs=1e-14)
        assert T.lift_inverse(y) == pytest.approx(u, abs=1e-15)
        # the circle image is the fractional part of F past the fixed point
        x = u % 1.0
        assert np.allclose((T.fixed_point + T.lift(x)) % 1.0,
                           T.apply_many(x), rtol=0.0, atol=1e-14)

    def test_winding_of_arrays_and_of_a_full_turn(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        assert T.winding([0.25, 0.5], [0.5, 0.75]) == \
            pytest.approx([0.5, 1.0], abs=1e-15)
        assert T.winding(0.3, 0.3) == 0.0
        assert T.winding(0.3, 1.3) == pytest.approx(3.0, abs=1e-15)


class TestInverseBranches:
    def test_doubling_preimages(self):
        T = make_linear_map(2)
        assert T.inverse_branch(0, 0.6) == pytest.approx(0.3, abs=1e-15)
        assert T.inverse_branch(1, 0.6) == pytest.approx(0.8, abs=1e-15)
        pre = [T.inverse_branch(i, 0.6) for i in range(T.degree)]
        assert len(pre) == 2
        for y in pre:
            assert T.apply(y) == pytest.approx(0.6, abs=1e-14)

    def test_inverse_is_right_inverse_for_uneven_map(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        for x in (0.05, 0.37, 0.61, 0.93):
            for i in range(T.degree):
                assert T.apply(T.inverse_branch(i, x)) == \
                    pytest.approx(x, abs=1e-12)

    def test_bad_branch_index(self):
        T = make_linear_map(2)
        with pytest.raises(IndexError):
            T.inverse_branch(2, 0.5)


class TestOrbits:
    def test_orbit_length_and_values(self):
        T = make_linear_map(2)
        orb = [0.1]
        for _ in range(3):
            orb.append(T.apply(orb[-1]))
        assert orb == pytest.approx([0.1, 0.2, 0.4, 0.8], abs=1e-15)


def _fraction_orbits(k, max_period):
    """Periodic orbits of T_k by enumerating every Fraction j/(k^n - 1)
    and skipping the points of orbits already listed."""
    seen = set()
    orbits = []
    for n in range(1, max_period + 1):
        den = k ** n - 1
        for j in range(den):
            x = Fraction(j, den)
            if x in seen:
                continue
            orbit = [x]
            y = (k * x) % 1
            while y != x:
                orbit.append(y)
                y = (k * y) % 1
            seen.update(orbit)
            if len(orbit) == n:
                orbits.append(orbit)
    return orbits


class TestPeriodicOrbits:
    def test_fixed_points(self):
        T = make_linear_map(2)
        orbits = periodic_orbits(T, 1)
        assert orbits == [[Fraction(0)]]

    def test_period_two(self):
        T = make_linear_map(2)
        orbits = periodic_orbits(T, 2)
        assert [Fraction(1, 3), Fraction(2, 3)] in orbits
        assert len(orbits) == 2

    def test_exact_period_three_count(self):
        T = make_linear_map(2)
        exactly_three = [o for o in periodic_orbits(T, 3) if len(o) == 3]
        assert len(exactly_three) == 2

    def test_orbits_verified_by_exact_arithmetic(self):
        T = make_linear_map(3)
        for orbit in periodic_orbits(T, 4):
            for i, x in enumerate(orbit):
                assert (3 * x) % 1 == orbit[(i + 1) % len(orbit)]

    @pytest.mark.parametrize("k, max_period", [(2, 8), (3, 5), (4, 4)])
    def test_matches_fraction_enumeration(self, k, max_period):
        assert periodic_orbits(make_linear_map(k), max_period) == \
            _fraction_orbits(k, max_period)

    @pytest.mark.parametrize("k, max_period", [(2, 16), (3, 8), (4, 6),
                                               (10, 3), (2, 0)])
    def test_matches_the_walk_one_numerator_at_a_time(self, k, max_period):
        """Up to MAX_PERIOD on T2: the numpy walk lists the orbits of the
        Python loop, in its order, point for point."""
        assert periodic_orbits(make_linear_map(k), max_period) == \
            walked_orbits(k, max_period)

    @pytest.mark.parametrize("k, max_period", [(3, 13), (1000, 2)])
    def test_work_guard(self, k, max_period):
        with pytest.raises(ValueError, match="cap"):
            periodic_orbits(make_linear_map(k), max_period)

    def test_nonlinear_map_rejected(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        with pytest.raises(ValueError):
            periodic_orbits(T, 3)

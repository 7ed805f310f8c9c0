"""Piecewise-affine expanding circle maps and their exact periodic orbits."""
import random
from fractions import Fraction

import numpy as np
import pytest

from flowerflat.dynamics import (ExpandingMap, make_linear_map,
                                 map_from_slopes, periodic_orbits)


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

    def test_valid_uneven_map(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        assert T.degree == 3
        assert T.expansion_constant == 2.0
        assert T.lipschitz_constant == 4.0
        assert not T.is_linear()
        # branch lengths 1/2, 1/4, 1/4 from the fixed point 0
        assert T.breaks == (0.0, 0.5, 0.75)
        assert T.apply(0.25) == pytest.approx(0.5, abs=1e-14)
        assert T.apply(0.625) == pytest.approx(0.5, abs=1e-14)

    def test_each_branch_wraps_once(self):
        T = map_from_slopes([2.0, 4.0, 4.0], fixed_point=0.3)
        for i in range(T.degree):
            left = T.breaks[i]
            right = T.breaks[(i + 1) % T.degree]
            assert T.winding(left, right) == pytest.approx(1.0, abs=1e-9)


class TestInverseBranches:
    def test_doubling_preimages(self):
        T = make_linear_map(2)
        assert T.inverse_branch(0, 0.6) == pytest.approx(0.3, abs=1e-15)
        assert T.inverse_branch(1, 0.6) == pytest.approx(0.8, abs=1e-15)
        pre = T.preimages(0.6)
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
        orb = T.orbit(0.1, 4)
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

    @pytest.mark.parametrize("k, max_period", [(3, 13), (1000, 2)])
    def test_work_guard(self, k, max_period):
        with pytest.raises(ValueError, match="cap"):
            periodic_orbits(make_linear_map(k), max_period)

    def test_nonlinear_map_rejected(self):
        T = map_from_slopes([2.0, 4.0, 4.0])
        with pytest.raises(ValueError):
            periodic_orbits(T, 3)

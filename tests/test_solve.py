"""Pre-Sturmian equation solving, Sturmian estimation, and rank tests."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import flowerflat.solve as solve_mod
from flowerflat.circle import Arc
from flowerflat.dynamics import make_linear_map, map_from_slopes
from flowerflat.flatten import default_depth
from flowerflat.flower import one_flower, random_flower, validate_flower
from flowerflat.functions import PiecewiseLinear, TrigPolynomial, demo_function
from flowerflat.solve import (NoSignChange, OneFlowerFamily,
                              branch_one_frequency_scan, orbit_oracle,
                              phi_of_gamma, rank_test, scan, sign_conditions,
                              solve_pre_sturmian, sturmian_estimate,
                              support_extremes)

T2 = make_linear_map(2)
FAM = OneFlowerFamily(T2)
COS = TrigPolynomial(cos_coeffs=[1.0])


class TestOneFlowerFamily:
    def test_doubling_endpoints(self):
        assert FAM.right_endpoint(0.25) == pytest.approx(0.75, abs=1e-12)
        assert FAM.gamma_with_right_endpoint(0.75) == \
            pytest.approx(0.25, abs=1e-9)
        assert FAM.gamma_with_right_endpoint(0.0) == \
            pytest.approx(0.5, abs=1e-9)

    def test_flower_is_valid(self):
        F = FAM.flower(0.3)
        assert F.p == 1
        assert F.petals[0].left == pytest.approx(0.3)

    def test_uneven_map_inversion_round_trip(self):
        fam = OneFlowerFamily(map_from_slopes([2.0, 4.0, 4.0]))
        for g in (0.07, 0.33, 0.81):
            b = fam.right_endpoint(g)
            assert fam.gamma_with_right_endpoint(b) == \
                pytest.approx(g, abs=1e-9)


class TestPhiOfGamma:
    def test_even_function_at_symmetric_flower(self):
        v, err = phi_of_gamma(FAM, COS, 0.75, 40)
        assert abs(v) <= 1e-13
        assert err > 0

    def test_continuity_along_the_family(self):
        rows = scan(FAM, COS, 256, 40)
        phis = [r[1] for r in rows]
        diffs = [abs(phis[(i + 1) % 256] - phis[i]) for i in range(256)]
        assert max(diffs) < 0.2

    def test_scan_shape_and_certificates(self):
        rows = scan(FAM, COS, 64, 30)
        assert len(rows) == 64
        assert [r[0] for r in rows] == [i / 64 for i in range(64)]
        bounds = [r[2] for r in rows]
        assert max(bounds) == pytest.approx(min(bounds), rel=1e-12)
        assert rows[0][2] > 0


class TestSolvePreSturmian:
    def test_cosine_roots(self):
        N = default_depth(COS.lipschitz_constant(), 2.0, 1e-12)
        intervals = solve_pre_sturmian(FAM, COS, N, resolution=1e-12,
                                       grid_size=512)
        assert len(intervals) == 2
        mids = sorted(zi.midpoint for zi in intervals)
        assert mids[0] == pytest.approx(0.25, abs=1e-6)
        assert mids[1] == pytest.approx(0.75, abs=1e-6)

    def test_demo_function_root_at_gamma(self):
        g = 0.1
        f = demo_function(g)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        intervals = solve_pre_sturmian(FAM, f, N, resolution=1e-10,
                                       grid_size=512)
        assert any(zi.gamma_low - 1e-8 <= g <= zi.gamma_high + 1e-8
                   for zi in intervals)

    def test_constant_function_full_plateau(self):
        intervals = solve_pre_sturmian(FAM, TrigPolynomial(), 10,
                                       resolution=1e-9, grid_size=64)
        assert len(intervals) == 1
        assert intervals[0].is_plateau
        width = (intervals[0].gamma_high - intervals[0].gamma_low) % 1.0
        assert width >= 1.0 - 2 / 64

    def test_no_sign_change_raised(self, monkeypatch):
        monkeypatch.setattr(solve_mod, "phi_of_gamma",
                            lambda family, f, g, N: (1.0, 1e-12))
        with pytest.raises(NoSignChange) as info:
            solve_pre_sturmian(FAM, COS, 10, resolution=1e-9, grid_size=32)
        assert info.value.phi_min == 1.0
        assert info.value.phi_max == 1.0


class TestSturmianEstimate:
    def test_fixed_point_support(self):
        est = sturmian_estimate(one_flower(T2, 0.5), demo_function(0.1),
                                200, 1000)
        assert est.periodic == [Fraction(0)]
        assert est.period == 1
        assert est.coding_frequencies == [1.0, 0.0]

    def test_period_two_support(self):
        est = sturmian_estimate(validate_flower([Arc(1 / 6, 2 / 3)], T2),
                                demo_function(0.1), 200, 1000)
        assert est.periodic == [Fraction(1, 3), Fraction(2, 3)]
        assert est.period == 2
        assert est.coding_frequencies == [0.5, 0.5]

    def test_support_extremes(self):
        est = sturmian_estimate(validate_flower([Arc(1 / 6, 2 / 3)], T2),
                                demo_function(0.1), 200, 1000)
        lo, hi = support_extremes(est)
        assert lo == pytest.approx(1 / 3, abs=1e-6)
        assert hi == pytest.approx(2 / 3, abs=1e-6)

    def test_integral_matches_exact_orbit_average(self):
        f = demo_function(0.1)
        est = sturmian_estimate(validate_flower([Arc(1 / 6, 2 / 3)], T2), f,
                                200, 1000)
        exact = (f.eval(1 / 3) + f.eval(2 / 3)) / 2
        assert est.integral_of_f == pytest.approx(exact, abs=1e-12)

    def test_multi_petal_rejected(self):
        rng = random.Random(9)
        F = random_flower(make_linear_map(3), 2, rng)
        with pytest.raises(ValueError):
            sturmian_estimate(F, COS, 100, 1000)


class TestSignConditions:
    def test_cosine_bracket(self):
        N = default_depth(COS.lipschitz_constant(), 2.0, 1e-12)
        est = sturmian_estimate(FAM.flower(0.75), COS, 200, 2000, depth=N)
        phi_minus, phi_plus, consistent = sign_conditions(FAM, COS, est, N)
        assert consistent

    def test_demo_function_brackets_strict(self):
        g = 0.1
        f = demo_function(g)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        intervals = solve_pre_sturmian(FAM, f, N, resolution=1e-10,
                                       grid_size=512)
        best = None
        for zi in intervals:
            est = sturmian_estimate(FAM.flower(zi.midpoint), f, 200, 2000,
                                    depth=N)
            if best is None or est.integral_of_f > best.integral_of_f:
                best = est
        phi_minus, phi_plus, consistent = sign_conditions(FAM, f, best, N)
        assert consistent
        assert phi_minus > 0
        assert phi_plus < 0


class TestOrbitOracle:
    def test_cosine(self):
        alpha, orbit = orbit_oracle(T2, COS, 8)
        assert alpha == 1.0
        assert orbit == [Fraction(0)]

    def test_demo_functions_have_zero_maximum_average(self):
        for g, period in ((0.05, 4), (0.10, 3), (0.15, 5)):
            alpha, orbit = orbit_oracle(T2, demo_function(g), 8)
            assert abs(alpha) <= 1e-12
            assert len(orbit) == period


class TestRankTest:
    def test_semicircle(self):
        assert rank_test(one_flower(T2, 0.25)) == (2, 1)

    def test_random_flowers(self):
        rng = random.Random(21)
        for k, p in ((3, 2), (4, 3), (2, 3)):
            F = random_flower(make_linear_map(k), p, rng)
            rank, got_p = rank_test(F)
            assert got_p == p
            assert rank == p + 1


class TestBranchOneFrequency:
    def test_frozen_values(self):
        freqs = branch_one_frequency_scan(2, [0.75, 0.25, 0.1], 1000, 20000)
        assert freqs[0] == pytest.approx(0.0, abs=1e-3)
        assert freqs[1] == pytest.approx(0.5, abs=1e-3)
        assert freqs[2] == pytest.approx(1 / 3, abs=1e-3)

    def test_monotone_over_a_window(self):
        gammas = [(0.75 + i / 64) % 1.0 for i in range(64)]
        freqs = branch_one_frequency_scan(2, gammas, 500, 20000)
        assert float(np.min(np.diff(freqs))) >= -2e-3

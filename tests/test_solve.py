"""Pre-Sturmian equation solving, Sturmian estimation, and rank tests."""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowerflat.solve as solve_mod
from flowerflat.circle import Arc, distance, reduce
from flowerflat.dynamics import make_linear_map, map_from_slopes
from flowerflat.flatten import default_depth, functional, tail_bound
from flowerflat.flower import (one_flower, random_flower, selector,
                               validate_flower)
from flowerflat.functions import PiecewiseLinear, TrigPolynomial, demo_function
from flowerflat.solve import (NoSignChange, OneFlowerFamily, ZeroInterval,
                              branch_one_frequency_scan, orbit_oracle,
                              integer_rank, phi_of_gamma, phi_of_gammas,
                              rank_test, scan, sign_conditions,
                              solve_pre_sturmian, sturmian_estimate,
                              support_extremes)

from arc_walk import walk_functional

T2 = make_linear_map(2)
T3 = make_linear_map(3)
S244 = map_from_slopes([2.0, 4.0, 4.0])
FAM = OneFlowerFamily(T2)
COS = TrigPolynomial(cos_coeffs=[1.0])


def reference_phi(family, f, gamma, N):
    """Phi(gamma) by the arc walk on one flower, with its truncation
    bound, after the scalar nudge off parameters whose petal ends sit on a
    branch break: the per-gamma path that ``phi_of_gammas`` replaced."""
    for _ in range(4):
        ends = (gamma, family.right_endpoint(gamma))
        if all(distance(e, b) > 1e-9 for e in ends for b in family.map.breaks):
            break
        gamma = reduce(gamma + 2e-9)
    F = family.flower(gamma)
    K = family.map.expansion_constant
    return (walk_functional(selector(F), F.petals[0], f, N),
            f.lipschitz_constant() * tail_bound(K, N, F.petals[0].length))


def reference_frequency_scan(k, gammas, burn_in=1000, length=100000):
    """The branch-1 frequency by following every orbit to the end: the
    recurrence that ``branch_one_frequency_scan`` stops at exact cycles."""
    G = np.asarray([reduce(g) for g in gammas])
    X = (G + 1.0 / (2 * k)) % 1.0
    counts = np.zeros(len(G))
    for step in range(burn_in + length):
        h = X / k
        o = (G - h) % 1.0
        j = np.ceil(k * o - 1e-9) % k
        X = h + j / k
        if step >= burn_in:
            counts += (j == 1)
    return counts / length


def staircase_grid(seed, size=256):
    """One period of the T2 1-flower family from the frequency-0 plateau
    at 3/4, shifted by a seeded offset below half a cell."""
    u = random.Random(seed).uniform(0.0, 0.5)
    return [(0.75 + (i + u) / size) % 1.0 for i in range(size)]


@st.composite
def _family_cases(draw):
    """A map (T2, T3 or slopes (2,4,4)), a trig or pwl f, a depth, and
    gammas at grid points, within 1e-9 of branch breaks, at periodic
    points (1/2 is a fixed point of T3, 2/3 one of the (2,4,4) map) and
    at random."""
    T = draw(st.sampled_from([T2, T3, S244]))
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        f = TrigPolynomial(draw(st.lists(unit, min_size=1, max_size=2)),
                           draw(st.lists(unit, max_size=2)))
    else:
        pts = draw(st.lists(st.floats(0.0, 0.999), min_size=2, max_size=5,
                            unique_by=lambda x: round(x, 2)))
        f = PiecewiseLinear.from_points(pts, draw(st.lists(
            unit, min_size=len(pts), max_size=len(pts))))
    # Up to depth 18 no arc of the walk gets shorter than EPS.  Deeper,
    # on flowers whose left end is periodic (T3 at 1/2), the walk's
    # endpoint tolerance puts the whole petal back into the sum; see
    # test_periodic_anchor_beyond_the_walk.
    N = draw(st.integers(1, 18))
    gamma = st.one_of(
        st.integers(0, 511).map(lambda i: i / 512),
        st.builds(lambda b, e: reduce(b + e), st.sampled_from(T.breaks),
                  st.floats(-1e-9, 1e-9)),
        st.sampled_from([1 / 3, 2 / 3, 1 / 7, 1 / 2]),
        st.floats(0.0, 1.0, exclude_max=True))
    return OneFlowerFamily(T), f, N, draw(st.lists(gamma, min_size=1,
                                                   max_size=12))


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

    @pytest.mark.parametrize("T", [
        T2, T3, S244, map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)])
    def test_endpoint_round_trips(self, T):
        fam = OneFlowerFamily(T)
        rng = random.Random(8)
        points = [i / 512 for i in range(512)]
        points += [rng.random() for _ in range(512)]
        for x in points:
            b = fam.right_endpoint(fam.gamma_with_right_endpoint(x))
            assert distance(b, x) <= 1e-15
            g = fam.gamma_with_right_endpoint(fam.right_endpoint(x))
            assert distance(g, x) <= 1e-15


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


class TestPhiOfGammas:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_family_cases())
    def test_matches_reference_walk(self, case):
        family, f, N, gammas = case
        values, bounds = phi_of_gammas(family, f, gammas, N)
        want = [reference_phi(family, f, g, N) for g in gammas]
        assert values == pytest.approx([v for v, _ in want], abs=1e-11)
        assert bounds.tolist() == [e for _, e in want]

    @pytest.mark.parametrize("T, gamma", [
        (T2, 7 / 15), (T2, 11 / 31), (T3, 1 / 8), (T3, 5 / 8), (T3, 2 / 13),
        (S244, 9 / 31)])
    def test_orbit_of_a_petal_end_returns_to_the_discontinuity(self, T,
                                                              gamma):
        # there the value is set by the one-sided decision within EPS of d
        family = OneFlowerFamily(T)
        for f in (TrigPolynomial([0.3, -0.7], [0.5]),
                  PiecewiseLinear.from_points([0.1, 0.45, 0.8],
                                              [0.3, -0.5, 0.9])):
            assert phi_of_gamma(family, f, gamma, 18) == pytest.approx(
                reference_phi(family, f, gamma, 18), abs=1e-11)

    @pytest.mark.parametrize("T", [T2, T3, S244])
    def test_equals_the_functional_of_each_flower(self, T):
        # one kernel: the batched rows and the one-row table of each
        # flower's own selector take the same float operations
        gammas = np.random.default_rng(17).random(200)
        f = TrigPolynomial([0.3, -0.7], [0.5])
        values, _ = phi_of_gammas(OneFlowerFamily(T), f, gammas, 40)
        for g, value in zip(gammas, values):
            sel = selector(one_flower(T, g))
            want, _ = functional(sel, sel.discontinuities()[0], f, 40)
            assert value == pytest.approx(want, abs=1e-15)

    def test_periodic_anchor_beyond_the_walk(self):
        # T3's 1-flower [1/2, 5/6] starts at a fixed point, which is also
        # its discontinuity: tau^n(5/6) = 1/2 + 3^-(n+1), tau^n(1/2) = 1/2
        f = PiecewiseLinear.from_points([0.1, 0.45, 0.8], [0.3, -0.5, 0.9])
        N = 40
        want = sum(f.eval(0.5 + 3.0 ** -(n + 1)) - f.eval(0.5)
                   for n in range(N + 1))
        value, _ = phi_of_gamma(OneFlowerFamily(T3), f, 0.5, N)
        assert value == pytest.approx(want, abs=1e-13)


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
        monkeypatch.setattr(solve_mod, "phi_of_gammas",
                            lambda family, f, gs, N: (np.ones(len(gs)),
                                                      np.full(len(gs), 1e-12)))
        with pytest.raises(NoSignChange) as info:
            solve_pre_sturmian(FAM, COS, 10, resolution=1e-9, grid_size=32)
        assert info.value.phi_min == 1.0
        assert info.value.phi_max == 1.0


    def test_exact_zero_on_the_grid_reported(self, monkeypatch):
        # grid values +, +, 0, -, ..., - with an exact zero at 1/8, and a
        # sign change between 3/4 and 13/16 at 0.78
        def phi(family, f, gammas, N):
            gammas = np.asarray(gammas)
            return (np.where(gammas < 0.5, 0.125 - gammas, gammas - 0.78),
                    np.full(len(gammas), 1e-12))
        monkeypatch.setattr(solve_mod, "phi_of_gammas", phi)
        intervals = solve_pre_sturmian(FAM, COS, 10, resolution=1e-10,
                                       grid_size=16)
        assert len(intervals) == 2
        assert intervals[0] == ZeroInterval(0.125, 0.125, 0.0, 0.0, 1e-10)
        root = intervals[1]
        assert root.gamma_low < 0.78 < root.gamma_high
        assert root.gamma_high - root.gamma_low <= 1e-10
        assert root.phi_low < 0.0 < root.phi_high
        for zi in intervals:
            assert {type(v) for v in (zi.gamma_low, zi.gamma_high,
                                      zi.phi_low, zi.phi_high)} == {float}
            assert type(zi.is_plateau) is bool

    @pytest.mark.parametrize("resolution", [0.0, -1e-10, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            solve_pre_sturmian(FAM, COS, 10, resolution=resolution,
                               grid_size=16)


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

    def test_negative_depth_rejected(self):
        # with N < 0 no density would be counted, and the rank would be 1
        with pytest.raises(ValueError):
            rank_test(one_flower(T2, 0.25), N=-1)

    def test_random_flowers(self):
        rng = random.Random(21)
        for k, p in ((3, 2), (4, 3), (2, 3)):
            F = random_flower(make_linear_map(k), p, rng)
            rank, got_p = rank_test(F)
            assert got_p == p
            assert rank == p + 1


def _fraction_rank(M):
    """Rank by Gaussian elimination in exact rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][c] / rows[rank][c]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestIntegerRank:
    def test_unit_determinant_near_one_billion(self):
        # det = 10^18 - (10^18 - 1) = 1, where the singular values of the
        # row-normalised matrix are 1.41 and 6.5e-17
        M = [[10**9, 10**9 + 1], [10**9 - 1, 10**9]]
        assert integer_rank(M) == 2

    def test_dependent_rows(self):
        M = np.array([[1, 2, 0, 5], [3, -1, 4, 0], [0, 0, 0, 0]])
        M[2] = 2 * M[0] - 3 * M[1]
        assert integer_rank(M) == 2
        assert integer_rank(M.T) == 2

    def test_zero_and_empty(self):
        assert integer_rank(np.zeros((3, 4), dtype=int)) == 0
        assert integer_rank(np.zeros((3, 0), dtype=int)) == 0
        assert integer_rank(np.eye(4, dtype=int)) == 4

    def test_duplicated_columns_keep_the_rank(self):
        rng = np.random.default_rng(3)
        for rank in (1, 2, 3):
            M = rng.integers(-5, 6, (4, rank)) @ rng.integers(-5, 6,
                                                               (rank, 7))
            want = integer_rank(M)
            assert want == _fraction_rank(M)
            assert integer_rank(np.repeat(M, 3, axis=1)) == want
            cols = M[:, rng.integers(0, 7, 30)]
            assert integer_rank(cols) == _fraction_rank(cols)

    def test_depth_1000_counts_match_fraction_elimination(self):
        # escape counts at depth 1000 reach 1001; on the six rows of a
        # 5-flower, the minors that Bareiss elimination keeps pass 2^63
        rng = np.random.default_rng(4)
        for rows, rank in ((6, 6), (6, 4), (5, 3), (3, 3)):
            basis = rng.integers(0, 1002, (rank, 40))
            mix = rng.integers(0, 4, (rows, rank))
            M = mix @ basis
            assert integer_rank(M) == _fraction_rank(M)


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

    @pytest.mark.parametrize("k, burn_in, length", [
        (1, 10, 10), (0, 10, 10), (2.5, 10, 10), (True, 10, 10),
        (2, -5, 10), (2, 0.5, 10), (2, 10, 0), (2, 10, -1), (2, 10, 10.0)])
    def test_invalid_arguments_rejected(self, k, burn_in, length):
        with pytest.raises(ValueError):
            branch_one_frequency_scan(k, [0.1], burn_in, length)


class TestFrequencyCycleExit:
    """``branch_one_frequency_scan`` stops each orbit at its first exact
    float cycle; the frequencies are bitwise those of the full orbits."""

    @staticmethod
    def assert_bitwise(k, gammas, burn_in, length):
        got = branch_one_frequency_scan(k, gammas, burn_in, length)
        want = reference_frequency_scan(k, gammas, burn_in, length)
        assert np.array_equal(got, want)

    def test_criterion_9_grid(self):
        self.assert_bitwise(2, [(0.75 + i / 512) % 1.0 for i in range(512)],
                            1000, 100000)

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_staircase_grids(self, seed):
        self.assert_bitwise(2, staircase_grid(seed), 1000, 20000)

    @pytest.mark.parametrize("k", [3, 4])
    def test_higher_degree(self, k):
        rng = random.Random(k)
        gammas = [i / 64 for i in range(64)] + [rng.random()
                                                for _ in range(64)]
        self.assert_bitwise(k, gammas, 500, 5000)

    @pytest.mark.parametrize("burn_in, length", [
        (0, 3000), (1000, 5000), (2000, 1500), (5, 1), (0, 1), (3, 10),
        (1000, 40), (0, 63), (0, 64), (0, 65), (64, 64), (63, 129)])
    def test_special_parameters(self, burn_in, length):
        """Parameters on the fixed point 0 and its preimages, plateau
        centres and ends, with burn-ins before and past the settling
        step (up to about 1075 steps) and runs shorter than one block."""
        gammas = [0.0, 0.5, 0.75, 0.25, 1 / 3, 2 / 3, 1 / 7, 0.1]
        gammas += [c + e for c in (1 / 3, 2 / 3, 0.25, 0.5)
                   for e in (-1e-12, 1e-12)]
        gammas += staircase_grid(5, 32)
        self.assert_bitwise(2, gammas, burn_in, length)

    def test_rows_unsettled_at_the_end(self):
        """Rows drawn to 0 descend through the subnormals for about 1074
        steps, so none of them settles in a run of 300."""
        gammas = [0.75 + i / 2048 for i in range(64)] + [0.1, 1 / 3]
        self.assert_bitwise(2, gammas, 100, 200)

    def test_cycles_longer_than_a_block(self, monkeypatch):
        """With blocks of 4 steps only cycles of length <= 4 are seen, and
        the other rows follow their orbits to the end."""
        monkeypatch.setattr(solve_mod, "FREQUENCY_BLOCK", 4)
        self.assert_bitwise(2, staircase_grid(8, 64), 30, 1500)

    def test_memory_does_not_grow_with_length(self):
        """The criterion 9 scan keeps at most one block of states: its
        traced peak stays below 2 MB and does not rise with the length."""
        gammas = [(0.75 + i / 512) % 1.0 for i in range(512)]
        peaks = []
        for length in (100000, 1000000):
            tracemalloc.start()
            try:
                branch_one_frequency_scan(2, gammas, 1000, length)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2_000_000
        assert peaks[1] <= peaks[0] + 4096

"""Pre-Sturmian equation solving, Sturmian estimation, and rank tests."""
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowerflat.solve as solve_mod
from flowerflat import cli, dynamics
from flowerflat.circle import Arc, distance, reduce, reduce_many
from flowerflat.dynamics import (ExpandingMap, check_periodic_orbits,
                                 make_linear_map, map_from_slopes,
                                 orbit_walks, periodic_orbits)
from flowerflat.flatten import default_depth, functional, tail_bound
from flowerflat.flower import (SelectorTable, arc_end, one_flower,
                               random_flower, selector, validate_flower)
from flowerflat.functions import PiecewiseLinear, TrigPolynomial, demo_function
from flowerflat.solve import (NoSignChange, ZeroInterval,
                              branch_one_frequency_scan, orbit_averages,
                              orbit_oracle,
                              integer_rank, phi_of_gamma, phi_of_gammas,
                              rank_test, scan, sign_conditions,
                              solve_pre_sturmian, sturmian_estimate,
                              support_extremes)

from arc_walk import walk_functional
from exact_oracle import walked_orbits

T2 = make_linear_map(2)
T3 = make_linear_map(3)
T4 = make_linear_map(4)
S244 = map_from_slopes([2.0, 4.0, 4.0])
#: branches of lengths 1/2, 1/4, ..., 2^-29 and 2^-29: the breaks next to 1
#: lie closer than a nudge of ``_one_flowers``
T30 = map_from_slopes([2.0 ** i for i in range(1, 30)] + [2.0 ** 29])
COS = TrigPolynomial(cos_coeffs=[1.0])
TRIG2 = TrigPolynomial(cos_coeffs=[0.3, -0.7], sin_coeffs=[0.5])
PWL = PiecewiseLinear.from_points([0.1, 0.35, 0.6, 0.8], [0.4, -0.3, 0.2, 0.5])
#: a pwl f whose Phi on T3 the closed form misses by O(1) at depths 34 to
#: 43 next to the periodic parameter 5/8 (ROADMAP item 1)
PWL_T3 = PiecewiseLinear.from_points(
    [0.12029676534470035, 0.6138295178630903, 0.9166647343043762,
     0.9752356400104673],
    [-0.3354042324241362, -0.5238864767555811, 0.750773546663331,
     -0.31671086723230846])
#: cos 2 pi x scaled so far down that around its roots on T2 its values
#: lie below the plateau tolerance 1e-9: plateaus in ``solve_pre_sturmian``
FAINT = TrigPolynomial(cos_coeffs=[3e-9])
#: an f whose truncation bounds lie far below the plateau tolerance 1e-9,
#: for the fakes of ``phi_of_gammas``, which ignore f
TINY = TrigPolynomial(cos_coeffs=[1e-12])


def fake_phi(monkeypatch, calls, N, phi, shift):
    """Patch ``_phi`` and ``_bounds``, through which ``phi_of_gammas`` and
    the scan take Phi on a table of flowers, left un-nudged, to give
    phi(gamma) at depth N, and phi(gamma) + shift with the bound 2 |shift|
    at every other depth.  Each ``_phi`` call is logged in calls as
    (number of gammas, depth, made by a multisection round); the list
    returned gets the gammas of each call."""
    points, rounds = [], []
    multisect = solve_mod._multisect_roots

    def in_rounds(*args):
        rounds.append(True)
        try:
            return multisect(*args)
        finally:
            rounds.pop()

    def bound(g, depth):
        return np.full(len(g), 1e-12 if depth == N else 2 * abs(shift))

    def fake(table, f, depth):
        g = table.left[:, 0]
        calls.append((len(g), depth, bool(rounds)))
        points.append(g.tolist())
        return phi(g) if depth == N else phi(g) + shift

    monkeypatch.setattr(solve_mod, "_multisect_roots", in_rounds)
    monkeypatch.setattr(solve_mod, "_one_flowers", SelectorTable.one_flowers)
    monkeypatch.setattr(solve_mod, "_phi", fake)
    monkeypatch.setattr(solve_mod, "_bounds", lambda table, f, depth: bound(
        table.left[:, 0], depth))
    return points


def s244_exact(z):
    """S244 on an exact rational point of [0, 1): its branches are
    [0, 1/2), [1/2, 3/4) and [3/4, 1), with slopes 2, 4 and 4."""
    if z < Fraction(1, 2):
        return 2 * z % 1
    return 4 * (z - Fraction(1, 2)) % 1 if z < Fraction(3, 4) else 4 * z % 1


def right_end(T, gamma):
    """The right end of the 1-flower at gamma."""
    return one_flower(T, gamma).petals[0].right


def gamma_ending_at(T, b):
    """The parameter whose 1-flower ends at b, as ``sign_conditions``
    finds it: the start of the arc that ends at b and winds once."""
    return float(arc_end(T, reduce(b), -1.0))


def reference_phi(T, f, gamma, N):
    """Phi(gamma) by the arc walk on one flower, with its truncation
    bound, after the scalar nudge off parameters whose petal ends sit on a
    branch break: the per-gamma path that ``phi_of_gammas`` replaced."""
    for _ in range(4):
        ends = (gamma, right_end(T, gamma))
        if all(distance(e, b) > 1e-9 for e in ends for b in T.breaks):
            break
        gamma = reduce(gamma + 2e-9)
    F = one_flower(T, gamma)
    K = T.expansion_constant
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


# The Fraction descent that ``solve._plateau`` and ``solve._cycle`` ran
# before they took integer pairs, kept as their reference.


def reference_compose(m, n):
    """The affine map u -> A u + B of m after n, each an (A, B) pair."""
    return m[0] * n[0], m[0] * n[1] + m[1]


def reference_fixed_point(A, B):
    """B / (1 - A), the fixed point of u -> A u + B, A < 1, as (u, v)."""
    return (B.numerator * A.denominator,
            B.denominator * (A.denominator - A.numerator))


def reference_plateau(T, gamma, nodes):
    """The Sturmian cycle O of the 1-flower from gamma, as (i, p, q, z), on
    the exact lifted breaks a and slopes s of ``T.exact``.  The flower
    [gamma, F^-1(F(gamma) + 1)] meets branches i and i + 1 (mod k), the
    letters 0 and 1.  The cycle of rotation number p/q is coded by the
    mechanical word of p/q, and the flower carries it exactly when gamma
    lies in its plateau: gamma <= min O and F(gamma) + 1 >=
    F(max O) (Bullett and Sentenac 1994; Lothaire 2002, ch. 2).  min O is
    coded by the lower Christoffel word and max O by the upper one, so
    each is the fixed point of the composed inverse branches u -> a_b +
    (u - a_0) / s_b of its word, an affine map of [a_0, a_0 + 1].  The
    plateaus are ordered as p/q, so the search descends the Stern-Brocot
    tree from 0/1 and 1/1, one mediant per step.  The lower word of a
    mediant is that of its left parent and then that of its right one
    (the upper words in the other order), so each step composes two
    cached maps.  A p/q strictly between 0 and 1 is reached in s - 1
    steps, s the sum of its partial quotients, which is at most q.
    ``nodes`` keeps for the next call the maps and plateau ends of each
    node (i, p, q), and under i the (p, q) found last, which is tried
    first.  z is min O as a point of [a_0, a_0 + 1]."""
    a, s = T.exact
    k, a0 = len(a), a[0]
    g = a0 + (Fraction(gamma) - a0) % 1
    i = sum(x <= g for x in a[1:])
    top = i + 1 + s[i] * (g - a[i])  # F(gamma) + 1
    (gn, gd), (tn, td) = g.as_integer_ratio(), top.as_integer_ratio()

    def side(pq, maps):
        """-1, 0 or 1 as gamma lies left of, on or right of the plateau of
        pq = (p, q), whose (lower, upper) word maps ``maps()`` gives."""
        key = (i,) + pq
        if key not in nodes:
            lower, upper = maps()
            c = int(pq[0] > 0)  # the letter of max O
            b = (i + c) % k
            # min O = u / v and max O = x / y, the fixed points of the lower
            # and upper maps; kept are min O and F(max O) = i + c + s_b (x /
            # y - a_b) as integer pairs, v > 0, compared by cross-multiplying
            (u, v), (x, y) = (reference_fixed_point(*lower),
                              reference_fixed_point(*upper))
            (sn, sd), (an, ad) = (r.as_integer_ratio() for r in (s[b], a[b]))
            nodes[key] = (lower, upper, (u, v), (
                (i + c) * sd * ad * y + sn * (ad * x - an * y), sd * ad * y))
        _, _, (u, v), (x, y) = nodes[key]
        if pq == (1, 1) and i == k - 1:
            u += v  # the fixed point of the word 1 on branch 0, a turn up
        return (gn * v > u * gd) - (tn * y < x * td)

    def descend():
        L, R = (0, 1), (1, 1)
        for pq in (L, R):
            b = (i + pq[0]) % k
            m = (1 / s[b], a[b] - a0 / s[b])
            if side(pq, lambda: (m, m)) == 0:
                return pq
        while True:
            # gamma lies between the plateaus of L and R, so in the subtree
            # of their mediant
            (lower_l, upper_l), (lower_r, upper_r) = (nodes[(i,) + L][:2],
                                                      nodes[(i,) + R][:2])
            pq = (L[0] + R[0], L[1] + R[1])
            t = side(pq, lambda: (reference_compose(lower_l, lower_r),
                                  reference_compose(upper_r, upper_l)))
            if t == 0:
                return pq
            L, R = (pq, R) if t > 0 else (L, pq)

    pq = nodes.get(i)  # the plateau the last call found on branches i, i + 1
    if pq is None or side(pq, None):
        pq = nodes[i] = descend()
    return (i,) + pq + (Fraction(*nodes[(i,) + pq][2]),)


def reference_cycle(T, i, p, q, z):
    """The points of the cycle of ``reference_plateau``, reduced to [0,
    1), from the smallest, in selector order (each point the preimage of
    the one before): the T-orbit of min O, whose branches are the letters
    of the lower mechanical word of p/q, in reverse."""
    a, s = T.exact
    k, a0 = len(a), a[0]
    orbit = []
    for j in range(q):
        b = (i + (j + 1) * p // q - j * p // q) % k
        orbit.append(z % 1)
        z = a0 + s[b] * (z - a[b])
    orbit.reverse()
    j = orbit.index(min(orbit))
    return orbit[j:] + orbit[:j]


def reference_staircase(k, gammas):
    """``branch_one_frequency_scan`` on ``reference_plateau``, with the
    midpoint rule as a ``Fraction`` test: g < 1 - 1/(2k)."""
    T, half = make_linear_map(k), 1 - Fraction(1, 2 * k)
    nodes, freqs = {}, []
    for gamma in gammas:
        g = reduce(gamma)
        i, p, q, _ = reference_plateau(T, g, nodes)
        freqs.append(solve_mod._coding(k, i, p, q, p > 0 or g < half)[1])
    return np.array(freqs)


@st.composite
def _functions(draw):
    """A trig f of one or two terms or a pwl f of two to five points."""
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        return TrigPolynomial(draw(st.lists(unit, min_size=1, max_size=2)),
                              draw(st.lists(unit, max_size=2)))
    pts = draw(st.lists(st.floats(0.0, 0.999), min_size=2, max_size=5,
                        unique_by=lambda x: round(x, 2)))
    return PiecewiseLinear.from_points(pts, draw(st.lists(
        unit, min_size=len(pts), max_size=len(pts))))


@st.composite
def _family_cases(draw):
    """A map (T2, T3 or slopes (2,4,4)), a trig or pwl f, a depth, and
    gammas at grid points, within 1e-9 of branch breaks, at periodic
    points (1/2 is a fixed point of T3, 2/3 one of the (2,4,4) map) and
    at random."""
    T = draw(st.sampled_from([T2, T3, S244]))
    f = draw(_functions())
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
    return T, f, N, draw(st.lists(gamma, min_size=1, max_size=12))


class TestOneFlowerFamily:
    def test_doubling_endpoints(self):
        assert right_end(T2, 0.25) == pytest.approx(0.75, abs=1e-12)
        assert gamma_ending_at(T2, 0.75) == pytest.approx(0.25, abs=1e-9)
        assert gamma_ending_at(T2, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_flower_is_valid(self):
        F = one_flower(T2, 0.3)
        assert F.p == 1
        assert F.petals[0].left == pytest.approx(0.3)

    def test_uneven_map_inversion_round_trip(self):
        for g in (0.07, 0.33, 0.81):
            b = right_end(S244, g)
            assert gamma_ending_at(S244, b) == pytest.approx(g, abs=1e-9)

    @pytest.mark.parametrize("T", [
        T2, T3, S244, map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)])
    def test_endpoint_round_trips(self, T):
        rng = random.Random(8)
        points = [i / 512 for i in range(512)]
        points += [rng.random() for _ in range(512)]
        for x in points:
            b = right_end(T, gamma_ending_at(T, x))
            assert distance(b, x) <= 1e-15
            g = gamma_ending_at(T, right_end(T, x))
            assert distance(g, x) <= 1e-15


class TestPhiOfGamma:
    def test_even_function_at_symmetric_flower(self):
        v, err = phi_of_gamma(T2, COS, 0.75, 40)
        assert abs(v) <= 1e-13
        assert err > 0

    def test_continuity_along_the_family(self):
        rows = scan(T2, COS, 256, 40)
        phis = [r[1] for r in rows]
        diffs = [abs(phis[(i + 1) % 256] - phis[i]) for i in range(256)]
        assert max(diffs) < 0.2

    def test_scan_shape_and_certificates(self):
        rows = scan(T2, COS, 64, 30)
        assert len(rows) == 64
        assert [r[0] for r in rows] == [i / 64 for i in range(64)]
        bounds = [r[2] for r in rows]
        assert max(bounds) == pytest.approx(min(bounds), rel=1e-12)
        assert rows[0][2] > 0


class TestPhiOfGammas:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_family_cases())
    def test_matches_reference_walk(self, case):
        T, f, N, gammas = case
        values, bounds = phi_of_gammas(T, f, gammas, N)
        want = [reference_phi(T, f, g, N) for g in gammas]
        assert values == pytest.approx([v for v, _ in want], abs=1e-11)
        assert bounds.tolist() == [e for _, e in want]

    @pytest.mark.parametrize("T, gamma", [
        (T2, 7 / 15), (T2, 11 / 31), (T3, 1 / 8), (T3, 5 / 8), (T3, 2 / 13),
        (S244, 9 / 31)])
    def test_orbit_of_a_petal_end_returns_to_the_discontinuity(self, T,
                                                              gamma):
        # there the value is set by the one-sided decision within EPS of d
        for f in (TrigPolynomial([0.3, -0.7], [0.5]),
                  PiecewiseLinear.from_points([0.1, 0.45, 0.8],
                                              [0.3, -0.5, 0.9])):
            assert phi_of_gamma(T, f, gamma, 18) == pytest.approx(
                reference_phi(T, f, gamma, 18), abs=1e-11)

    @pytest.mark.parametrize("T", [T2, T3, S244])
    def test_equals_the_functional_of_each_flower(self, T):
        # one kernel: the batched rows and the one-row table of each
        # flower's own selector take the same float operations
        gammas = np.random.default_rng(17).random(200)
        f = TrigPolynomial([0.3, -0.7], [0.5])
        values, _ = phi_of_gammas(T, f, gammas, 40)
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
        value, _ = phi_of_gamma(T3, f, 0.5, N)
        assert value == pytest.approx(want, abs=1e-13)


    @pytest.mark.parametrize("T", [T2, T3, S244])
    def test_depth_zero_is_the_difference_of_the_ends(self, T):
        gammas = np.random.default_rng(4).random(100)
        b = arc_end(T, gammas, 1.0)
        for f in (TrigPolynomial([0.3, -0.7], [0.5]),
                  PiecewiseLinear.from_points([0.1, 0.45, 0.8],
                                              [0.3, -0.5, 0.9])):
            values, _ = phi_of_gammas(T, f, gammas, 0)
            assert values.tobytes() == \
                (f.eval_many(b) - f.eval_many(gammas)).tobytes()

    @pytest.mark.parametrize("T", [T2, T3, S244, T30])
    def test_nudged_table_is_one_flowers_of_the_nudged_gammas(self, T):
        """The table of nudged flowers takes the petal ends that the
        nudge's checks computed, and equals ``SelectorTable.one_flowers``
        of the nudged gammas bitwise: on a grid, on and next to the breaks
        and the gammas whose right end is a break, and on T30 next to 1,
        where breaks 2^-29 apart take four nudges, the last unchecked."""
        breaks = np.asarray(T.breaks)
        near = [-1e-9, -5e-10, 0.0, 5e-10]
        gammas = reduce_many(np.concatenate([
            np.arange(256) / 256, np.add.outer(breaks, near).ravel(),
            np.add.outer(arc_end(T, breaks, -1.0), near).ravel(),
            1.0 - np.arange(1, 2049) * 2.0 ** -38]))
        table = solve_mod._one_flowers(T, gammas)
        want = SelectorTable.one_flowers(T, table.left[:, 0])
        arrays = [name for name, x in vars(want).items()
                  if isinstance(x, np.ndarray)]
        assert {"left", "right", "length", "disc", "_flat"} <= set(arrays)
        for name in arrays:
            assert getattr(table, name).tobytes() == \
                getattr(want, name).tobytes()
        nudges = np.round((table.left[:, 0] - gammas) / 2e-9).max()
        assert (nudges == 4) if T is T30 else (0 < nudges < 4)

    def test_no_gammas(self):
        values, bounds = phi_of_gammas(T2, COS, [], 10)
        assert values.shape == bounds.shape == (0,)
        assert values.dtype == bounds.dtype == float
        assert phi_of_gammas(T3, COS, np.empty(0), 0)[0].shape == (0,)

    def test_negative_depth_rejected(self):
        for call in (lambda: phi_of_gammas(T2, COS, [0.1, 0.3], -1),
                     lambda: phi_of_gammas(T2, COS, [], -1),
                     lambda: phi_of_gamma(T2, COS, 0.1, -1),
                     lambda: scan(T2, COS, 16, -1),
                     lambda: solve_pre_sturmian(T2, COS, -2, grid_size=16)):
            with pytest.raises(ValueError, match="N must be >= 0"):
                call()


class TestSolvePreSturmian:
    def test_cosine_roots(self):
        N = default_depth(COS.lipschitz_constant(), 2.0, 1e-12)
        intervals = solve_pre_sturmian(T2, COS, N, resolution=1e-12,
                                       grid_size=512)
        assert len(intervals) == 2
        mids = sorted(zi.midpoint for zi in intervals)
        assert mids[0] == pytest.approx(0.25, abs=1e-6)
        assert mids[1] == pytest.approx(0.75, abs=1e-6)

    def test_demo_function_root_at_gamma(self):
        g = 0.1
        f = demo_function(g)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        intervals = solve_pre_sturmian(T2, f, N, resolution=1e-10,
                                       grid_size=512)
        assert any(zi.gamma_low - 1e-8 <= g <= zi.gamma_high + 1e-8
                   for zi in intervals)

    def test_constant_function_full_plateau(self):
        intervals = solve_pre_sturmian(T2, TrigPolynomial(), 10,
                                       resolution=1e-9, grid_size=64)
        assert len(intervals) == 1
        assert intervals[0].is_plateau
        width = (intervals[0].gamma_high - intervals[0].gamma_low) % 1.0
        assert width >= 1.0 - 2 / 64

    def test_no_sign_change_raised(self, monkeypatch):
        fake_phi(monkeypatch, [], 10, lambda g: np.ones(len(g)), 0.0)
        with pytest.raises(NoSignChange) as info:
            solve_pre_sturmian(T2, COS, 10, resolution=1e-9, grid_size=32)
        assert info.value.phi_min == 1.0
        assert info.value.phi_max == 1.0


    def test_exact_zero_on_the_grid_reported(self, monkeypatch):
        # grid values +, +, 0, -, ..., - with an exact zero at 1/8, and a
        # sign change between 3/4 and 13/16 at 0.78
        fake_phi(monkeypatch, [], 10, lambda g: np.where(
            g < 0.5, 0.125 - g, g - 0.78), 0.0)
        intervals = solve_pre_sturmian(T2, COS, 10, resolution=1e-10,
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

    @pytest.mark.parametrize("resolution, rows", [
        (1e-10, [60, 57, 18]), (1e-12, [74, 71, 24])])
    def test_rounds_sized_to_the_bracket(self, monkeypatch, resolution,
                                         rows):
        """After the 512-row scan at the shallow depth, the two sign
        changes of cos on T2 close in two rounds at depth 37.  The first is
        uniform, with as many points per bracket as 64 sub-brackets a round
        need (28 to 1e-10, 35 to 1e-12) and the two bracket ends that hold
        shallow values.  It first also takes the rows at the roots 1/4 and
        3/4, whose signs the scan left uncertified: Phi at 1/4 is 6.4e-16
        at depth 8 and -2.4e-16 at depth 37, which moves its sign change
        one cell down, so the round is retaken.  The retaken round takes
        one row fewer: the end of the other bracket, taken in the first
        call, is not taken again.  The second takes the stencil around each
        interpolated root, its spread and the points that keep the bracket
        within uniform rounds.  Each bracket ends at most the resolution
        wide, on a sign change or an exact zero."""
        calls = []
        phi = solve_mod._phi

        def counted(table, f, N):
            calls.append((len(table.left), N))
            return phi(table, f, N)

        monkeypatch.setattr(solve_mod, "_phi", counted)
        intervals = solve_pre_sturmian(T2, COS, 37, resolution=resolution,
                                       grid_size=512)
        assert calls == [(512, solve_mod.SHALLOW_DEPTH)] + [
            (n, 37) for n in rows]
        assert all(n <= 2 * solve_mod.MULTISECTION_POINTS + 4
                   for n, _ in calls[1:])
        assert len(intervals) == 2
        for zi in intervals:
            assert 0.0 <= zi.gamma_high - zi.gamma_low <= resolution
            assert (0.0 in (zi.phi_low, zi.phi_high)
                    or (zi.phi_low < 0) != (zi.phi_high < 0))

    def test_one_round_when_one_is_enough(self, monkeypatch):
        """Brackets that s <= 63 sub-brackets take to the resolution close
        in one round, whatever the rounding of the points: the rounds aim
        two ulps short of it.  The round also takes the bracket ends that
        hold shallow values, at most two per bracket, and the rows of
        uncertified sign; where one of those classifies otherwise at depth
        N, the round is retaken once, without them; a case none of whose
        rows needs that closes in exactly one round.  Before it comes the
        shallow scan alone; nothing after it."""
        calls, retook = [], [0]
        fake_phi(monkeypatch, calls, 10,
                 lambda g: (g - 0.1) * (g - 0.78), shift=1e-4)
        multisect = solve_mod._multisect_roots

        def counted(*args):
            roots = multisect(*args)
            retook[0] += roots is None
            return roots

        monkeypatch.setattr(solve_mod, "_multisect_roots", counted)
        retaken = 0
        for grid in (512, 16, 10, 7, 3):
            uncertified = (~solve_mod._certified_scan(T2, TINY, grid,
                                                      10)[2]).sum()
            for s in range(2, 64):
                calls.clear()
                retook[0] = 0
                solve_pre_sturmian(T2, TINY, 10, resolution=1 / grid / s,
                                   grid_size=grid)
                assert calls[0] == (grid, solve_mod.SHALLOW_DEPTH, False)
                rounds = [n for n, _, inside in calls if inside]
                assert retook[0] <= 1
                assert len(rounds) == len(calls) - 1 == 1 + retook[0]
                assert calls[-1] == (rounds[-1], 10, True)
                assert rounds[0] <= 2 * s + 4 + uncertified
                assert rounds[-1] <= 2 * s + 4 + (not retook[0]) * (
                    uncertified)
                assert all(N == 10 for _, N, _ in calls[1:])
                retaken += retook[0]
        assert retaken

    def test_depth_n_calls_on_seeded_trig_functions(self, monkeypatch):
        """The depth-N calls of ``solve_pre_sturmian`` at the defaults on
        12 seeded two-term trig f on T2 and on T3, drawn as the ``solve``
        benchmark draws them: the rounds alone, the first of which also
        takes the scan rows of uncertified sign, and is retaken where one
        of them classifies otherwise; 55 in all and at most 4 an item,
        where a call of their own before the rounds took 65 and 5, and
        uniform rounds alone 131 and 6."""
        counts, phi, depth = [], solve_mod._phi, [None]

        def counted(table, f, N):
            counts[-1] += N == depth[0]
            return phi(table, f, N)

        monkeypatch.setattr(solve_mod, "_phi", counted)
        for k in (2, 3):
            for i in range(12):
                rng = random.Random(i)
                theta, amp, phase = (rng.random(), rng.uniform(0.02, 0.08),
                                     rng.random())
                f = TrigPolynomial(
                    cos_coeffs=[math.cos(2 * math.pi * theta),
                                amp * math.cos(2 * math.pi * phase)],
                    sin_coeffs=[math.sin(2 * math.pi * theta),
                                amp * math.sin(2 * math.pi * phase)])
                depth[0] = default_depth(f.lipschitz_constant(), k, 1e-10)
                counts.append(0)
                solve_pre_sturmian(make_linear_map(k), f, depth[0])
        assert (max(counts), sum(counts)) == (4, 55)

    def test_bracket_ends_are_grid_rows(self):
        """At resolution 1 no round runs, so each sign change is reported on
        the cell of its grid rows i and i + 1: its ends are the gammas i / m
        and (i + 1) / m, reduced, also on grids whose 1 / m is no float,
        and its values are those of a call of their own at depth N.  The
        plateaus, two cells wide or more, are left out."""
        cells = 0
        for T in (T2, T3, S244):
            for f in (COS, TRIG2):
                for m in (10, 100, 300):
                    for N in (8, 37):
                        for zi in solve_pre_sturmian(T, f, N, 1.0, m):
                            width = (zi.gamma_high - zi.gamma_low) % 1.0
                            if round(width * m) != 1:
                                continue
                            i = round(zi.gamma_low * m)
                            assert zi.gamma_low == i / m
                            assert zi.gamma_high == (i + 1) % m / m
                            assert (zi.phi_low < 0) != (zi.phi_high < 0)
                            assert phi_of_gammas(
                                T, f, [zi.gamma_low, zi.gamma_high],
                                N)[0].tolist() == [zi.phi_low, zi.phi_high]
                            cells += 1
        assert cells == 95

    @pytest.mark.parametrize("resolution", [1e-16, 1e-17, math.ulp(0.0)])
    def test_resolution_below_the_ulp(self, resolution):
        """A bracket closes when no float lies inside it: one ulp of 3/4
        is 1.1e-16, and the multisection ends there, on no plateau."""
        intervals = solve_pre_sturmian(T2, COS, 20, resolution=resolution,
                                       grid_size=64)
        assert [zi.gamma_low <= root <= zi.gamma_high
                for zi, root in zip(intervals, (0.25, 0.75))] == [True, True]
        for zi in intervals:
            assert np.nextafter(zi.gamma_low, 1.0) >= zi.gamma_high
            assert not zi.is_plateau

    @pytest.mark.parametrize("resolution", [0.0, -1e-10, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            solve_pre_sturmian(T2, COS, 10, resolution=resolution,
                               grid_size=16)


def solve_on_grid(monkeypatch, values, grid=None, calls=None):
    """``solve_pre_sturmian`` on a fake Phi through the given values at
    the points i / len(values), linear between them, on a grid of that
    many rows unless given: the scan reads the values as they are, and
    each sign change between values i and i + 1 has its one root where
    the line through them crosses zero.  calls logs the fake's calls."""
    m = len(values)
    fake_phi(monkeypatch, [] if calls is None else calls, 10,
             lambda g: np.interp(g, np.arange(m) / m, values, period=1.0),
             0.0)
    return solve_pre_sturmian(T2, TINY, 10, 1e-10, grid or m)


def plateau(values, i, j):
    """The plateau interval of the rows i to j of a 16-row grid."""
    return ZeroInterval(i / 16, j / 16, values[i], values[j], 1e-10)


def assert_root(zi, values, i):
    """zi is the bracket of the root between rows i and i + 1."""
    v, w = values[i], values[(i + 1) % len(values)]
    root = (i + v / (v - w)) / len(values)
    assert zi.gamma_low <= root <= zi.gamma_high
    assert zi.gamma_high - zi.gamma_low <= 1e-10 and not zi.is_plateau


class TestCyclicClassification:
    """The order of the reported intervals on a 16-row grid, where rows
    whose |Phi| is at most the plateau tolerance 1e-9 are small: the
    plateaus, runs of at least three small rows around the circle, in
    grid order from the first row that is not small; then the exact zeros
    and the sign changes outside them, in grid order."""

    def test_run_through_row_zero(self, monkeypatch):
        values = [1.0] * 16
        for i in (5, 6, 7, 14, 15, 0, 1):
            values[i] = 1e-10
        values[6] = -1e-10
        assert solve_on_grid(monkeypatch, values) == [
            plateau(values, 5, 7), plateau(values, 14, 1)]

    def test_run_from_row_zero_comes_last(self, monkeypatch):
        values = [1.0] * 16
        for i in (0, 1, 2, 8, 9, 10):
            values[i] = -2e-10
        intervals = solve_on_grid(monkeypatch, values)
        assert intervals == [plateau(values, 8, 10), plateau(values, 0, 2)]

    def test_two_small_rows_are_no_plateau(self, monkeypatch):
        """Two small rows of opposite signs give a sign change; three
        would give a plateau, which covers it."""
        values = [1.0] * 16
        values[4], values[5] = 1e-10, -1e-10
        values[6:12] = [-1.0] * 6
        first, second = solve_on_grid(monkeypatch, values)
        assert_root(first, values, 4)
        assert_root(second, values, 11)
        values[6] = 1e-10
        intervals = solve_on_grid(monkeypatch, values)
        assert intervals[0] == plateau(values, 4, 6)
        assert len(intervals) == 2
        assert_root(intervals[1], values, 11)

    def test_zeros_and_sign_changes_in_grid_order(self, monkeypatch):
        """An exact zero between two sign changes comes between them, and
        after a plateau later on the grid.  A zero and a sign change
        never share a row, since a sign change has no zero at its ends."""
        values = [1.0] * 16
        values[2:6] = [-1.0, -1.0, 0.0, -1.0]
        values[10:13] = [1e-10] * 3
        intervals = solve_on_grid(monkeypatch, values)
        assert intervals[0] == plateau(values, 10, 12)
        assert_root(intervals[1], values, 1)
        assert intervals[2] == ZeroInterval(0.25, 0.25, 0.0, 0.0, 1e-10)
        assert_root(intervals[3], values, 5)
        assert len(intervals) == 4

    def test_every_row_small(self, monkeypatch):
        values = [(-1) ** i * 1e-10 for i in range(16)]
        assert solve_on_grid(monkeypatch, values) == [
            ZeroInterval(0.0, 15 / 16, 1e-10, -1e-10, 1e-10)]


class TestInterpolatedRounds:
    def test_kinks_fall_back_to_uniform_rounds(self, monkeypatch):
        """On a grid of 16 rows, the fake of ``solve_on_grid`` through 64
        values over six decades bends three times inside each cell, its
        slopes jumping by up to 1e6.  Where a bend lies among the 4 values
        nearest a sign change, the inverse cubic misses the root, and the
        bracket goes on in uniform rounds.  Each still closes on a sign
        change around a root of the fake, in no more rounds than the 5
        that uniform ones take (64^4 < 2^-4 / 1e-10 <= 64^5): without the
        uniform points of the interpolation rounds, this takes 8."""
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.uniform(-3, 3, 64)
        after = np.roll(values, -1)
        i = np.flatnonzero((values < 0) != (after < 0))
        roots = (i + values[i] / (values[i] - after[i])) / 64
        calls = []
        intervals = solve_on_grid(monkeypatch, values, 16, calls)
        rounds = [n for n, _, inside in calls if inside]
        assert 2 < len(rounds) <= 5
        assert len(intervals) == 8
        for zi in intervals:
            width = (zi.gamma_high - zi.gamma_low) % 1.0
            assert width <= 1e-10 and (zi.phi_low < 0) != (zi.phi_high < 0)
            assert (((roots - zi.gamma_low) % 1.0 <= width + 1e-15)
                    | ((zi.gamma_low - roots) % 1.0 <= 1e-15)).any()


def _solved(T, f, N, resolution, grid, solve=solve_pre_sturmian):
    """The repr of ``solve_pre_sturmian``'s intervals, or of the values
    its NoSignChange reports, which tells -0.0 from 0.0."""
    try:
        return repr(solve(T, f, N, resolution, grid))
    except NoSignChange as exc:
        return repr((exc.phi_min, exc.phi_max))


def reference_solve(T, f, N, resolution=1e-10, grid_size=512):
    """``solve_pre_sturmian`` as it was while the scan took its rows of
    uncertified sign at depth N in a call of their own, before the first
    round, and classified the grid once: the redo-first flow, which the
    provisional classification must reproduce bitwise.  Its multisection
    is ``_multisect_roots`` whose first call takes the certified bracket
    ends alone, which choose on their shallow values and keep their
    depth-N values."""
    gammas, phis, shallow, plateau_tol = solve_mod._certified_scan(
        T, f, grid_size, N)
    if N > solve_mod.SHALLOW_DEPTH and not shallow.all():
        phis[~shallow] = phi_of_gammas(T, f, gammas[~shallow], N)[0]
    m = len(gammas)
    small = np.abs(phis) <= plateau_tol
    if small.all():
        return [ZeroInterval(0.0, (m - 1) / m, float(phis[0]),
                             float(phis[-1]), resolution)]

    # plateau runs of >= 3 consecutive small rows (cyclic), in grid order
    # from the first row that is not small, where no run can wrap
    start = int(np.argmin(small))
    edges = np.diff(np.roll(small, -start), prepend=False, append=False)
    first, stop = np.flatnonzero(edges).reshape(-1, 2).T
    plateau = stop - first >= 3
    first, stop = first[plateau], stop[plateau]
    marks = np.zeros(m + 1, dtype=int)
    marks[first], marks[stop] = 1, -1
    in_plateau = np.roll(np.cumsum(marks[:-1]) > 0, start)
    first, last = (first + start) % m, (stop - 1 + start) % m
    intervals = [ZeroInterval(float(gammas[i]), float(gammas[j]),
                              float(phis[i]), float(phis[j]), resolution)
                 for i, j in zip(first, last)]

    # outside plateaus, in grid order: exact zeros on the grid, and sign
    # changes between neighbours, which are refined together
    after = np.roll(phis, -1)
    zeros = np.flatnonzero((phis == 0.0) & ~in_plateau)
    cells = np.flatnonzero(~(in_plateau | np.roll(in_plateau, -1))
                           & (phis != 0.0) & (after != 0.0)
                           & ((phis < 0) != (after < 0)))
    ends = np.column_stack([cells, (cells + 1) % m])
    rows = np.flatnonzero(shallow & np.isin(np.arange(m), ends))
    deep = phis.copy()

    def settle(values):
        deep[rows] = values
        return phis[ends], deep[ends]

    (lo, hi), (flo, fhi) = (r.T for r in solve_mod._multisect_roots(
        T, f, N, np.column_stack([gammas[cells], gammas[cells] + 1.0 / m]),
        resolution, gammas[rows], settle))
    found = [ZeroInterval(float(gammas[i]), float(gammas[i]), 0.0, 0.0,
                          resolution) for i in zeros]
    found += [ZeroInterval(reduce(float(lo[n])), reduce(float(hi[n])),
                           float(flo[n]), float(fhi[n]), resolution)
              for n in range(len(cells))]
    order = np.argsort(np.concatenate([zeros, cells]))
    intervals += [found[n] for n in order]
    if not intervals:
        if shallow.any():
            phis = phi_of_gammas(T, f, gammas, N)[0]
        values = phis.tolist()
        raise NoSignChange(min(values), max(values))
    return intervals


class TestCertifiedScan:
    """The scan of ``solve_pre_sturmian`` at depth SHALLOW_DEPTH, whose
    rows of uncertified sign are taken again at depth N in the call of
    the first round."""

    @staticmethod
    def assert_certified_signs(T, f, N, grid):
        """The certified rows of the scan have the sign of Phi at depth N
        and lie beyond the plateau tolerance there."""
        gammas, phis, shallow, tol = solve_mod._certified_scan(T, f, grid,
                                                               N)
        deep, bounds = phi_of_gammas(T, f, gammas, N)
        phis = np.array(phis)
        assert tol == max(1e-9, 2.0 * bounds[0])
        assert (np.sign(phis[shallow]) == np.sign(deep[shallow])).all()
        assert (np.abs(deep[shallow]) > tol).all()
        assert phis.tobytes() == phi_of_gammas(
            T, f, gammas, solve_mod.SHALLOW_DEPTH)[0].tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(T=st.sampled_from([T2, T3, T4, S244]), f=_functions(),
           N=st.integers(solve_mod.SHALLOW_DEPTH + 1, 40),
           grid=st.sampled_from([64, 512]))
    def test_certified_rows_keep_their_sign_at_depth_n(self, T, f, N, grid):
        self.assert_certified_signs(T, f, N, grid)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the closed form "
                       "breaks near periodic parameters")
    def test_certified_row_next_to_a_periodic_parameter(self):
        """The row 5/8 of a 64-row grid on T3 with PWL_T3 is certified at
        0.2348 at the shallow depth, and reads -0.1738 at depth 43."""
        self.assert_certified_signs(T3, PWL_T3, 43, 64)

    @pytest.mark.parametrize("T", [T2, T3, S244])
    def test_truncation_bounds_are_phi_of_gammas_bounds(self, T):
        """The bounds of ``_bounds`` on the one table of nudged flowers that
        the scan builds are those of ``phi_of_gammas``, bitwise, at both
        depths: on the grid, next to the breaks, where the flowers are
        nudged, and at periodic points."""
        gammas = np.concatenate([np.arange(512) / 512,
                                 reduce_many(np.add.outer(
                                     T.breaks, [-1e-9, 0.0, 1e-10])).ravel(),
                                 [1 / 3, 2 / 3, 1 / 7]])
        table = solve_mod._one_flowers(T, gammas)
        for f in (COS, PWL):
            for N in (8, 37):
                assert solve_mod._bounds(table, f, N).tobytes() == \
                    phi_of_gammas(T, f, gammas, N)[1].tobytes()

    @pytest.mark.parametrize("T, f, N, resolution, grid", [
        (T2, FAINT, 37, 1e-10, 512),
        (T2, COS, 37, 1e-14, 512),
        (T3, PWL, 23, 1e-10, 512),
        (S244, TRIG2, 30, 1e-12, 128),
        (T4, PWL, 20, 1e-14, 64)])
    def test_reports_as_at_full_depth(self, monkeypatch, T, f, N,
                                      resolution, grid):
        shallow = _solved(T, f, N, resolution, grid)
        monkeypatch.setattr(solve_mod, "SHALLOW_DEPTH", N)
        assert shallow == _solved(T, f, N, resolution, grid)

    @pytest.mark.parametrize("N", [34, 43])
    @pytest.mark.parametrize("grid", [128, 512])
    def test_certified_rows_keep_their_shallow_values(self, N, grid):
        """On T3 with PWL_T3, the row 5/8 reads Phi = 0.70 at depth
        34 and -0.17 at depth 43, where depths up to 33 give about 0.2349:
        near this periodic parameter the closed form is off by O(1) (see
        the module docstring).  Its shallow value is certified, so it
        keeps it, and only the two true roots are reported; a scan at
        depth 43 reports a false root at 5/8."""
        intervals = solve_pre_sturmian(T3, PWL_T3, N, 1e-10, grid)
        assert len(intervals) == 2
        for zi, root in zip(intervals, (0.3220889625, 0.6271919092)):
            assert zi.gamma_low == pytest.approx(root, abs=1e-9)
            assert zi.gamma_high - zi.gamma_low <= 1e-10
            assert not zi.gamma_low <= 0.625 <= zi.gamma_high

    def test_plateaus_at_full_depth(self):
        """The first case above compares plateaus."""
        assert [zi.is_plateau for zi in solve_pre_sturmian(
            T2, FAINT, 37, 1e-10, 512)] == [True, True]

    def test_exact_zero_on_the_grid(self, monkeypatch):
        """0 at depth N and 1e-6 at the shallow depth: the row is not
        certified, so it is taken at depth N in the call of the first
        round, which its exact zero retakes, and reported as a zero."""
        calls = []
        points = fake_phi(monkeypatch, calls, 10, lambda g: g - 0.125, 1e-6)
        intervals = solve_pre_sturmian(T2, TINY, 10, 1e-10, 16)
        assert intervals[0] == ZeroInterval(0.125, 0.125, 0.0, 0.0, 1e-10)
        assert calls[0] == (16, solve_mod.SHALLOW_DEPTH, False)
        assert all(inside for _, _, inside in calls[1:])
        assert 0.125 in points[1]
        assert 0.125 not in sum(points[2:], [])

    def test_ends_that_never_move(self, monkeypatch):
        """The root 1e-14 past the grid point 1/4 leaves the low end of its
        bracket there, and the jump of the fake at 0 the high end of the
        last bracket: both ends held their shallow values, and report
        their values at depth N, taken in the call of the first round."""
        calls = []

        def phi(g):
            return 1e6 * (g - 0.25) - 1e-8

        points = fake_phi(monkeypatch, calls, 10, phi, 1e-12)
        first, last = solve_pre_sturmian(T2, TINY, 10, 1e-10, 16)
        assert first.gamma_low == 0.25 and first.phi_low == phi(0.25)
        assert first.phi_low != phi(0.25) + 1e-12
        assert last.gamma_high == 0.0 and last.phi_high == phi(0.0)
        assert calls[0] == (16, solve_mod.SHALLOW_DEPTH, False)
        assert all(inside for _, _, inside in calls[1:])
        assert {0.0, 0.25} <= set(points[1])
        assert not {0.0, 0.25} & set(sum(points[2:], []))

    def test_no_sign_change_reports_depth_n(self, monkeypatch):
        calls = []
        fake_phi(monkeypatch, calls, 10, lambda g: 1.0 + g, 1e-3)
        with pytest.raises(NoSignChange) as info:
            solve_pre_sturmian(T2, TINY, 10, 1e-10, 16)
        assert (info.value.phi_min, info.value.phi_max) == (1.0, 1.9375)
        assert calls == [(16, solve_mod.SHALLOW_DEPTH, False),
                         (16, 10, True)]

    def test_scan_command_keeps_depth_n(self, monkeypatch, tmp_path):
        depths = []

        def counted(T, f, gammas, N):
            depths.append(N)
            return phi_of_gammas(T, f, gammas, N)

        monkeypatch.setattr(solve_mod, "phi_of_gammas", counted)
        config = tmp_path / "config.json"
        config.write_text('{"function": {"type": "trig", "cos": [1.0]}}')
        assert cli.main(["scan", "--config", str(config), "--depth", "20",
                         "--grid", "16", "--out",
                         str(tmp_path / "scan.csv")]) == 0
        assert depths == [20]


def seeded_trig(k, i):
    """The i-th two-term trig f on T_k, drawn as the ``solve`` benchmark
    draws them, with its default depth."""
    rng = random.Random(i)
    theta, amp, phase = rng.random(), rng.uniform(0.02, 0.08), rng.random()
    f = TrigPolynomial(cos_coeffs=[math.cos(2 * math.pi * theta),
                                   amp * math.cos(2 * math.pi * phase)],
                       sin_coeffs=[math.sin(2 * math.pi * theta),
                                   amp * math.sin(2 * math.pi * phase)])
    return f, default_depth(f.lipschitz_constant(), k, 1e-10)


class TestProvisionalRows:
    """The scan rows of uncertified sign are classified on their shallow
    values and taken at depth N in the call of the first round.  The
    reports equal those of ``reference_solve`` bitwise, whether the round
    stands or is retaken, and no case takes more depth-N calls."""

    @staticmethod
    def both(monkeypatch, T, f, N, resolution=1e-10, grid=512):
        """(report, depth-N calls, rounds retaken) of each flow."""
        phi, multisect = solve_mod._phi, solve_mod._multisect_roots
        calls, retaken = [0], [0]

        def counted(table, f, depth):
            calls[0] += depth == N
            return phi(table, f, depth)

        def rounds(*args):
            roots = multisect(*args)
            retaken[0] += roots is None
            return roots

        monkeypatch.setattr(solve_mod, "_phi", counted)
        monkeypatch.setattr(solve_mod, "_multisect_roots", rounds)
        out = []
        for solve in (solve_pre_sturmian, reference_solve):
            calls[0] = retaken[0] = 0
            out.append((_solved(T, f, N, resolution, grid, solve),
                        calls[0], retaken[0]))
        monkeypatch.setattr(solve_mod, "_phi", phi)
        monkeypatch.setattr(solve_mod, "_multisect_roots", multisect)
        return out

    def test_seeded_trig_functions(self, monkeypatch):
        """The 24 f of ``test_depth_n_calls_on_seeded_trig_functions``."""
        saved = 0
        for k in (2, 3):
            for i in range(12):
                f, N = seeded_trig(k, i)
                (new, calls, _), (old, ref_calls, _) = self.both(
                    monkeypatch, make_linear_map(k), f, N)
                assert new == old
                assert calls <= ref_calls
                saved += ref_calls - calls
        assert saved == 10

    @pytest.mark.parametrize("f, retakes", [(COS, 1), (FAINT, 1)])
    def test_retaken_on_t2(self, monkeypatch, f, retakes):
        """cos on T2 at depth 37, whose row 1/4 reads 6.4e-16 at depth 8
        and -2.4e-16 at depth 37, and its faint copy, whose two roots are
        plateaus: the first round is retaken, as often as given."""
        (new, calls, retaken), (old, ref_calls, _) = self.both(
            monkeypatch, T2, f, 37)
        assert new == old and calls == ref_calls
        assert retaken == retakes

    def test_no_row_taken_twice(self, monkeypatch):
        """cos on T2 at depth 37 retakes the first round (see
        test_retaken_on_t2); no grid row is taken at depth N twice in the
        call, neither by the retaken round nor by the first."""
        taken = []

        def logged(T, f, gammas, N):
            taken.extend(np.asarray(gammas) * 512 % 512)
            return phi_of_gammas(T, f, gammas, N)

        monkeypatch.setattr(solve_mod, "phi_of_gammas", logged)
        solve_pre_sturmian(T2, COS, 37)
        rows = [x for x in taken if x == round(x)]
        assert len(rows) == len(set(rows)) > 0

    def test_demo_function(self, monkeypatch):
        f = demo_function(0.1)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        (new, calls, retaken), (old, ref_calls, _) = self.both(
            monkeypatch, T2, f, N)
        assert new == old and calls <= ref_calls

    @pytest.mark.parametrize("phi, shift, counts", [
        # the shallow sign of the rows 1/4 and 5/16 is wrong
        (lambda g: g - 0.3, 0.06, (6, 6, 1)),
        # the row 1/8 reads 1e-6 at the shallow depth, 0 at depth N
        (lambda g: g - 0.125, 1e-6, (6, 6, 1)),
        # the same, small at both depths
        (lambda g: g - 0.125, 1e-10, (6, 6, 1)),
        # the row 1/8 reads 0 at the shallow depth, 1e-10 at depth N
        (lambda g: g - 0.125 + 1e-10, -1e-10, (6, 6, 1)),
        # the rows next to 1/2 are small at depth N alone: a plateau
        (lambda g: np.where(np.abs(g - 0.5) < 0.1, 1e-10, g - 0.5), 1e-6,
         (6, 6, 1)),
        # shallow signs right: the round stands
        (lambda g: g - 0.3, 0.02, (5, 6, 0)),
        # every row small: one call, which stands
        (lambda g: 1e-10 * (1.5 + np.cos(2 * np.pi * g)), 5e-10, (1, 1, 0)),
        # every row small, of the other sign at depth N
        (lambda g: np.full(len(g), -1e-10), 5e-10, (1, 1, 1)),
        # no sign change: the grid at depth N, which stands
        (lambda g: 0.01 + g, 0.02, (1, 2, 0)),
        # no sign change at the shallow depth, two at depth N
        (lambda g: np.where(g == 0.0, -0.01, 0.01 + g), 0.02, (6, 6, 1))])
    def test_fakes(self, monkeypatch, phi, shift, counts):
        """``solve_pre_sturmian`` on fakes of Phi through ``fake_phi``,
        whose shallow values are shifted, on a grid of 16 rows; counts are
        the depth-N calls of each flow and the rounds retaken."""
        fake_phi(monkeypatch, [], 10, phi, shift)
        (new, calls, retaken), (old, ref_calls, _) = self.both(
            monkeypatch, T2, TINY, 10, grid=16)
        assert new == old
        assert (calls, ref_calls, retaken) == counts


    def test_certified_value_kept_where_the_grid_is_retaken(self,
                                                           monkeypatch):
        """A certified row keeps its shallow value for the classification,
        even where its depth-N value has the other sign, as near the
        periodic parameters where the closed form is off by O(1).  Here
        the scan shows no interval, so the first call takes the grid at
        depth N, where the provisional row 0 turns negative and the row
        1/2 too: the grid is classified again with row 0 at depth N and
        row 1/2 at its certified shallow value, which gives the two sign
        changes next to row 0 alone."""
        def deep(g):
            return np.where(g == 0.0, -0.01, np.where(g == 0.5, -1.0, 1 + g))

        fake_phi(monkeypatch, [], 10, deep, 0.01)
        phi = solve_mod._phi

        def shallow(table, f, depth):
            g = table.left[:, 0]
            return (phi(table, f, depth) if depth == 10
                    else np.where(g == 0.0, 0.01, 1.0 + g))

        monkeypatch.setattr(solve_mod, "_phi", shallow)
        (new, calls, retaken), (old, ref_calls, _) = self.both(
            monkeypatch, T2, TINY, 10, grid=16)
        assert new == old and (calls, ref_calls, retaken) == (6, 6, 1)
        assert new.count("ZeroInterval(") == 2


#: exact lifted breaks and slopes of T2, T3 and S244, whose fixed point is 0
EXACT_MAPS = {2: ([Fraction(0), Fraction(1, 2)], [2, 2]),
              3: ([Fraction(0), Fraction(1, 3), Fraction(2, 3)], [3, 3, 3]),
              "S244": ([Fraction(0), Fraction(1, 2), Fraction(3, 4)],
                       [2, 4, 4])}


def exact_lift(breaks, slopes, u):
    """F(u) on an exact real u, with F(breaks[i]) = i, F(u + 1) = F(u) + k."""
    turns = math.floor(u)
    v = u - turns
    i = max(j for j, b in enumerate(breaks) if b <= v)
    return i + len(breaks) * turns + slopes[i] * (v - breaks[i])


def exact_lift_inverse(breaks, slopes, y):
    n = math.floor(y)
    turns, i = divmod(n, len(breaks))
    return breaks[i] + (y - n) / slopes[i] + turns


def assert_carried(name, gamma, cycle):
    """The 1-flower from gamma carries ``cycle`` and so has it as its one
    invariant measure, checked in Fractions with no call to the library:
    the points, from the smallest, each T of the next (selector order),
    lie in [gamma, F^-1(F(gamma) + 1)], and the branches they take along
    the orbit spell a rotation of the lower mechanical word of p/q, with p
    of the q points on the upper of the flower's two branches."""
    breaks, slopes = EXACT_MAPS[name]
    g = Fraction(gamma)
    width = exact_lift_inverse(breaks, slopes,
                               exact_lift(breaks, slopes, g) + 1) - g
    assert cycle[0] == min(cycle)
    for j, z in enumerate(cycle):
        assert exact_lift(breaks, slopes, z) % 1 == cycle[j - 1]
        assert (z - g) % 1 <= width
    lower = math.floor(exact_lift(breaks, slopes, g))
    letters = "".join(
        str(int(exact_lift(breaks, slopes, g + (z - g) % 1) >= lower + 1))
        for z in cycle[:1] + cycle[:0:-1])
    p, q = letters.count("1"), len(letters)
    word = "".join(str((j + 1) * p // q - j * p // q) for j in range(q))
    assert word in letters + letters


def exact_branch(T, z):
    """The branch of T that holds the exact point z, on ``T.exact``: the
    fixed point a_0 counts on branch 0."""
    a, _ = T.exact
    u = a[0] + (z - a[0]) % 1
    return sum(x <= u for x in a[1:])


def near_breaks(T):
    """Each break of T, reduced, plus and minus 2^-e for e = 20 .. 59, and
    the floats either side of it."""
    gammas = []
    for b in T.breaks:
        gammas += [b + 2.0 ** -e * side for e in range(20, 60)
                   for side in (-1, 1)]
        gammas += [math.nextafter(b, -1.0), math.nextafter(b, 2.0)]
    return [reduce(g) for g in gammas]


class TestSturmianEstimate:
    def test_fixed_point_support(self):
        est = sturmian_estimate(one_flower(T2, 0.5), demo_function(0.1))
        assert est.periodic == [Fraction(0)]
        assert est.period == 1
        assert est.coding_frequencies == [1.0, 0.0]

    def test_period_two_support(self):
        est = sturmian_estimate(validate_flower([Arc(0.2, 0.7)], T2),
                                demo_function(0.1))
        assert est.periodic == [Fraction(1, 3), Fraction(2, 3)]
        assert est.period == 2
        assert est.coding_frequencies == [0.5, 0.5]

    def test_support_extremes(self):
        est = sturmian_estimate(validate_flower([Arc(0.2, 0.7)], T2),
                                demo_function(0.1))
        lo, hi = support_extremes(est)
        assert lo == pytest.approx(1 / 3, abs=1e-6)
        assert hi == pytest.approx(2 / 3, abs=1e-6)

    def test_integral_matches_exact_orbit_average(self):
        f = demo_function(0.1)
        est = sturmian_estimate(validate_flower([Arc(0.2, 0.7)], T2), f)
        exact = (f.eval(1 / 3) + f.eval(2 / 3)) / 2
        assert est.integral_of_f == pytest.approx(exact, abs=1e-12)

    def test_coding_of_a_cycle_next_to_a_break(self):
        """min O of the cycle (1, 32, 33) lies 6e-17 below the break 2/3
        of T3, and its float is 2/3, on branch 2: the coding is that of
        the word, 1 letter 0 on branch 1 and 32 letters 1 on branch 2."""
        est = sturmian_estimate(one_flower(T3, math.nextafter(2 / 3, 0.0)),
                                COS)
        assert est.periodic[0] == Fraction(3706040377703681,
                                           5559060566555522)
        assert float(est.periodic[0]) == 2 / 3
        assert est.coding_frequencies == [0.0, 1 / 33, 32 / 33]

    @pytest.mark.parametrize("T", [T2, T3, T4, S244])
    def test_coding_counts_the_exact_branches(self, T):
        """The coding is the share of the exact cycle points on each
        branch, next to every break, where the floats of the points can
        round onto a break."""
        for gamma in near_breaks(T):
            est = sturmian_estimate(one_flower(T, gamma), COS, 0)
            branches = [exact_branch(T, z) for z in est.periodic]
            assert est.coding_frequencies == [
                branches.count(b) / est.period for b in range(T.degree)]

    @pytest.mark.parametrize("gamma", [0.1, 0.37, 0.62, 0.9])
    def test_non_linear_map(self, gamma):
        """S244's cycles are certified too: the reported points form a
        cycle of S244's exact branches, in the closed petal."""
        f = TrigPolynomial([0.3, -0.7], [0.5])
        F = one_flower(S244, gamma)
        est = sturmian_estimate(F, f)
        pts = est.periodic
        assert pts is not None and est.period == len(pts)
        assert pts[0] == min(pts)
        petal = F.petals[0]
        for i, z in enumerate(pts):
            assert s244_exact(z) == pts[i - 1]
            assert petal.contains(float(z)) or min(
                distance(float(z), petal.left),
                distance(float(z), petal.right)) <= 1e-9
        branches = [exact_branch(S244, z) for z in pts]
        assert est.coding_frequencies == [branches.count(b) / len(pts)
                                          for b in range(3)]
        assert est.integral_of_f == pytest.approx(
            sum(f.eval(float(z)) for z in pts) / len(pts), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sturmian_orbits_on_their_plateaus(self, k):
        """Every periodic orbit of T_k of period <= 8 that lies in a closed
        arc [x_min, x_max] of length at most 1/k lies in every 1-flower
        [gamma, gamma + 1/k] with gamma on its plateau [x_max - 1/k,
        x_min], and is that flower's one invariant measure: the estimate
        at the plateau midpoint returns it, smallest point first, in
        selector order (each point the preimage of the one before)."""
        T = make_linear_map(k)
        checked = 0
        for orbit in periodic_orbits(T, 8):
            pts = sorted(orbit)
            gaps = [(pts[(i + 1) % len(pts)] - x) % 1 or 1
                    for i, x in enumerate(pts)]
            i = gaps.index(max(gaps))
            x_min, span = pts[(i + 1) % len(pts)], 1 - gaps[i]
            if span > Fraction(1, k):
                continue
            gamma = float(x_min - (Fraction(1, k) - span) / 2)
            est = sturmian_estimate(one_flower(T, gamma), COS)
            assert est.periodic == orbit[:1] + orbit[:0:-1]
            assert est.period == len(orbit)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("gamma", [2.0 ** -60, 1e-30, 1e-300, 5e-324])
    def test_flowers_at_the_fixed_point(self, gamma):
        """Near 0 the flower [gamma, gamma + 1/2] of T2 carries the cycle
        of 1/(2^q - 1), which fits in it exactly when 2^q - 1 <= 1/gamma
        <= 2 (2^q - 1).  A walk of float orbits found a 59-cycle at 2^-60
        that lies 1.5e-36 outside the flower, and no cycle at 1e-30."""
        q = 1
        while 2 * (2 ** q - 1) < 1 / Fraction(gamma):
            q += 1
        est = sturmian_estimate(one_flower(T2, gamma), COS)
        assert est.period == q == len(est.periodic)
        assert est.periodic[0] == Fraction(1, 2 ** q - 1)
        assert_carried(2, gamma, est.periodic)

    @pytest.mark.parametrize("name, gamma, period", [
        (2, 1 / 6, None), (3, 1 / 8, 2), (3, np.nextafter(1 / 8, 1), None),
        (3, 0.5, 1), (3, np.nextafter(0.5, 1), None),
        ("S244", 0.75, 1), ("S244", 0.0, 1),
        ("S244", 2 / 3, 1), ("S244", np.nextafter(2 / 3, 1), None)])
    def test_plateau_ends(self, name, gamma, period):
        """At the ends of plateaus, and one float past them: the T2 cycle
        {1/3, 2/3} has the plateau [1/6, 1/3], and float(1/6) lies just
        below it; the T3 cycle {1/8, 3/8} has [1/24, 1/8], the T3 fixed
        point 1/2 has [1/6, 1/2] and S244's fixed point 2/3 has [1/3, 2/3];
        S244's fixed point 0 has [3/4, 1], on a break.  One float past a
        plateau the cycle is a long one, certified the same way."""
        T = {2: T2, 3: T3, "S244": S244}[name]
        est = sturmian_estimate(one_flower(T, float(gamma)), COS)
        assert est.period == len(est.periodic)
        if period is not None:
            assert est.period == period
        assert_carried(name, float(gamma), est.periodic)

    def test_branches_short_of_a_turn(self):
        """Branch 1 of this map ends 4.75e-10 short of a whole turn, so the
        map has a fixed point near 1 that the circle map it names does not
        have; its branches do not close exactly, and it is rejected."""
        with pytest.raises(ValueError, match="branch 1 does not wrap"):
            ExpandingMap((0.0, 0.5), (2.0, 2.0000000019))

    def test_multi_petal_rejected(self):
        rng = random.Random(9)
        F = random_flower(make_linear_map(3), 2, rng)
        with pytest.raises(ValueError):
            sturmian_estimate(F, COS)


#: the maps of the reference tests of the exact descent
DESCENT_MAPS = [T2, T3, T4, S244,
                map_from_slopes([4.0, 2.0, 4.0], fixed_point=0.3)]


def descent_gammas(T, seed):
    """2000 seeded gammas, each lifted break of ``T.exact`` and the floats
    either side of it, and 0, 2^-60, 1e-30, 1e-300, 5e-324 and 1 - 2^-53."""
    rng = random.Random(seed)
    gammas = [rng.random() for _ in range(2000)]
    for b in T.exact[0]:
        b = float(b)
        gammas += [math.nextafter(b, -1.0), b, math.nextafter(b, 2.0)]
    return gammas + [0.0, 2.0 ** -60, 1e-30, 1e-300, 5e-324, 1 - 2.0 ** -53]


class TestIntegerDescent:
    """``_plateau`` and ``_cycle`` on integer pairs return the plateau, min O
    and the cycle of the ``Fraction`` descent they replaced."""

    @staticmethod
    def assert_same(T, gamma, nodes, reference_nodes):
        i, p, q, (u, v) = solve_mod._plateau(T, gamma, nodes)
        want = reference_plateau(T, gamma, reference_nodes)
        assert v > 0 and (i, p, q, Fraction(u, v)) == want
        assert solve_mod._cycle(T, i, p, q, (u, v)) == reference_cycle(
            T, *want)

    @pytest.mark.parametrize("T", DESCENT_MAPS)
    def test_fresh_caches(self, T):
        for gamma in descent_gammas(T, 30):
            self.assert_same(T, gamma, {}, {})

    @pytest.mark.parametrize("T", DESCENT_MAPS)
    def test_a_cache_shared_across_a_sorted_grid(self, T):
        nodes, reference_nodes = {}, {}
        for gamma in sorted(descent_gammas(T, 31)):
            self.assert_same(T, gamma, nodes, reference_nodes)


class TestSignConditions:
    def test_cosine_bracket(self):
        N = default_depth(COS.lipschitz_constant(), 2.0, 1e-12)
        est = sturmian_estimate(one_flower(T2, 0.75), COS, depth=N)
        phi_minus, phi_plus, consistent = sign_conditions(T2, COS, est, N)
        assert consistent

    def test_demo_function_brackets_strict(self):
        g = 0.1
        f = demo_function(g)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        intervals = solve_pre_sturmian(T2, f, N, resolution=1e-10,
                                       grid_size=512)
        best = None
        for zi in intervals:
            est = sturmian_estimate(one_flower(T2, zi.midpoint), f, depth=N)
            if best is None or est.integral_of_f > best.integral_of_f:
                best = est
        phi_minus, phi_plus, consistent = sign_conditions(T2, f, best, N)
        assert consistent
        assert phi_minus > 0
        assert phi_plus < 0


def _scalar_oracle(orbits, f):
    """The first orbit with the strictly largest average, each average a
    Python sum of scalar ``f.eval`` calls from int 0."""
    best, best_orbit = -math.inf, []
    for orbit in orbits:
        average = sum(f.eval(float(p)) for p in orbit) / len(orbit)
        if average > best:
            best, best_orbit = average, orbit
    return best, best_orbit


def reference_orbit_walks(T, max_period):
    """``dynamics.orbit_walks`` as it walked before the walk became one
    array: a list of n + 1 rows, each k times the last mod den, and the
    closing test row n == row 0."""
    check_periodic_orbits(T, max_period)
    k = T.degree
    for n in range(1, max_period + 1):
        den = k ** n - 1
        walk = [np.arange(den)]
        for _ in range(n):
            walk.append(k * walk[-1] % den)
        start = np.all([y > walk[0] for y in walk[1:n]]
                       + [walk[n] == walk[0]], axis=0)
        yield den, np.array([y[start] for y in walk[:n]])


def reference_orbit_averages(T, f, max_period):
    """``solve.orbit_averages`` as it averaged before f took all periods'
    points in one call: one ``eval_many`` per period."""
    orbits, averages = [], []
    for den, walk in reference_orbit_walks(T, max_period):
        sums = np.zeros(walk.shape[1])
        for values in f.eval_many(walk / den):
            sums += values
        averages.extend((sums / len(walk)).tolist())
        orbits.extend((den, orbit) for orbit in walk.T)
    return orbits, averages


class TestOrbitAverages:
    CASES = [(2, 16), (3, 10), (4, 8)]

    @pytest.mark.parametrize("k, max_period", CASES)
    def test_walks_equal_the_reference(self, k, max_period):
        T = make_linear_map(k)
        pairs = list(zip(orbit_walks(T, max_period),
                         reference_orbit_walks(T, max_period)))
        assert len(pairs) == max_period
        for (den, walk), (want_den, want) in pairs:
            assert den == want_den
            assert walk.dtype == want.dtype == np.int64
            assert np.array_equal(walk, want)

    @pytest.mark.parametrize("k, max_period", CASES)
    def test_averages_equal_the_reference_bitwise(self, k, max_period):
        """f takes all periods' points at once, and each orbit is summed
        from +0.0: -0.0 averages to 0.0, as before."""
        T = make_linear_map(k)
        for f in (TRIG2, PWL, TrigPolynomial(constant=-0.0)):
            orbits, averages = orbit_averages(T, f, max_period)
            want, want_averages = reference_orbit_averages(T, f, max_period)
            assert np.array(averages).tobytes() == \
                np.array(want_averages).tobytes()
            assert [(den, o.tolist()) for den, o in orbits] == \
                [(den, o.tolist()) for den, o in want]
        assert math.copysign(1.0, averages[0]) == 1.0

    @pytest.mark.parametrize("function", [None, {"type": "trig",
                                                 "cos": [0.3, -0.7],
                                                 "sin": [0.5]}])
    def test_orbits_report_equals_the_reference(self, tmp_path, monkeypatch,
                                                function):
        cfg = {"map": {"type": "linear", "k": 2}, "max_period": 12}
        if function:
            cfg["function"] = function
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        reports = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(dynamics, "orbit_walks",
                                    reference_orbit_walks)
                monkeypatch.setattr(cli, "orbit_averages",
                                    reference_orbit_averages)
            out = tmp_path / f"out{patch}.json"
            assert cli.main(["orbits", "--config", str(path),
                             "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_peak_memory_at_most_the_reference(self):
        """On T2 to period 16 the walk is reduced in place and freed before
        the next period's, and f takes the selected points only."""
        peaks = []
        for averages in (orbit_averages, reference_orbit_averages):
            tracemalloc.start()
            try:
                averages(T2, TRIG2, 16)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestOrbitOracle:
    @pytest.mark.parametrize("k, max_period", [(2, 12), (3, 8), (4, 6),
                                               (10, 5), (2, 1), (2, 0)])
    def test_bitwise_the_scalar_loop(self, k, max_period):
        """Averages and best orbit equal the scalar loop's bitwise, up to
        the MAX_ORBIT_WORK cap (T10 to period 5).  For the trig functions
        this needs numpy's cos and sin to round as math's do.  Constants
        tie every orbit, and -0.0 sums to 0.0 as from int 0."""
        orbits = walked_orbits(k, max_period)
        for f in (COS, TrigPolynomial([0.3, -0.7], [0.5, 0.2], 0.1),
                  demo_function(0.1), TrigPolynomial(constant=0.3),
                  TrigPolynomial(constant=-0.0)):
            alpha, orbit = orbit_oracle(make_linear_map(k), f, max_period)
            want, want_orbit = _scalar_oracle(orbits, f)
            assert (alpha.hex(), orbit) == (want.hex(), want_orbit)

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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_midpoint_rule_on_its_tie(self, k):
        """On the fixed point's plateau [1 - 1/k, 1) the petal midpoint
        decides the branch: the integer test 2k n < (2k - 1) d is the
        ``Fraction`` test g < 1 - 1/(2k), on the float nearest the tie and
        either side of it, on the plateau's ends and on uniform and seeded
        grids; for k = 2 also on criterion 9's grid and the staircase grids
        of seeds 3, 17 and 40.  On T2 the tie 3/4 is a float and reads 0,
        the float below it 1."""
        tie, end = 1 - 1 / (2 * k), 1 - 1 / k
        rng = random.Random(k)
        gammas = [x for c in (tie, end) for x in (
            math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
        gammas += [i / 256 for i in range(256)] + [
            rng.random() for _ in range(256)]
        if k == 2:
            gammas += [(0.75 + i / 512) % 1.0 for i in range(512)]
            gammas += [g for seed in (3, 17, 40) for g in staircase_grid(seed)]
        got = branch_one_frequency_scan(k, gammas)
        assert got.tobytes() == reference_staircase(k, gammas).tobytes()
        if k == 2:  # for k > 2 the tie is between branches k - 1 and 0
            assert got[:3].tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("k, burn_in, length", [
        (1, 10, 10), (0, 10, 10), (2.5, 10, 10), (True, 10, 10),
        (2, -5, 10), (2, 0.5, 10), (2, 10, 0), (2, 10, -1), (2, 10, 10.0)])
    def test_invalid_arguments_rejected(self, k, burn_in, length):
        with pytest.raises(ValueError):
            branch_one_frequency_scan(k, [0.1], burn_in, length)


#: the rows of the grids below where the window of the reference
#: recurrence is off the cycle by more than one count: at 0.5 the float
#: orbit of the recurrence crosses the break at the fixed point 0, and
#: within 1e-9 of the plateau ends 1/3 and 1/2 its branch tolerance picks
#: another cycle
OFF_THE_CYCLE = [0.5, 1 / 3 + 1e-12, 0.5 - 1e-12, 0.5 + 1e-12]


class TestFrequencyCycleExit:
    """``branch_one_frequency_scan`` gives the branch-1 share of each
    flower's cycle.  A mechanical word is balanced, so the count of any
    window of it is within one of its share: the independent reference,
    which counts a window of the orbit of each petal midpoint, is within
    1/length of it on every row but those of OFF_THE_CYCLE."""

    @staticmethod
    def assert_within_a_count(k, gammas, burn_in, length):
        got = branch_one_frequency_scan(k, gammas, burn_in, length)
        want = reference_frequency_scan(k, gammas, burn_in, length)
        off = [g for g, x, y in zip(gammas, got, want)
               if not abs(x - y) < 1 / length]
        assert set(off) <= set(OFF_THE_CYCLE)

    def test_criterion_9_grid(self):
        self.assert_within_a_count(
            2, [(0.75 + i / 512) % 1.0 for i in range(512)], 1000, 100000)

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_staircase_grids(self, seed):
        self.assert_within_a_count(2, staircase_grid(seed), 1000, 20000)

    @pytest.mark.parametrize("k", [3, 4])
    def test_higher_degree(self, k):
        rng = random.Random(k)
        gammas = [i / 64 for i in range(64)] + [rng.random()
                                                for _ in range(64)]
        self.assert_within_a_count(k, gammas, 500, 5000)

    @pytest.mark.parametrize("burn_in, length", [
        (0, 3000), (1000, 5000), (2000, 1500), (5, 1), (0, 1), (3, 10),
        (1000, 40), (0, 63), (0, 64), (0, 65), (64, 64), (63, 129)])
    def test_special_parameters(self, burn_in, length):
        """Parameters on the fixed point 0 and its preimages, plateau
        centres and ends, with burn-ins before and past the step where
        the reference reaches its cycle (up to about 1075 steps) and
        short runs."""
        gammas = [0.0, 0.5, 0.75, 0.25, 1 / 3, 2 / 3, 1 / 7, 0.1]
        gammas += [c + e for c in (1 / 3, 2 / 3, 0.25, 0.5)
                   for e in (-1e-12, 1e-12)]
        gammas += staircase_grid(5, 32)
        self.assert_within_a_count(2, gammas, burn_in, length)

    def test_rows_unsettled_at_the_end(self):
        """Rows drawn to 0 descend through the subnormals for about 1074
        steps, so the reference counts a window before its orbits reach
        their cycles."""
        gammas = [0.75 + i / 2048 for i in range(64)] + [0.1, 1 / 3]
        self.assert_within_a_count(2, gammas, 100, 200)

    def test_rows_off_the_cycle(self):
        """On the rows of OFF_THE_CYCLE the staircase is the branch-1
        share of the cycle that lies in the flower [gamma, gamma + 1/2]
        exactly, by the plateau rule of
        ``test_sturmian_orbits_on_their_plateaus``, with the fixed point 0
        coded by the branch of the petal midpoint gamma + 1/4."""
        got = branch_one_frequency_scan(2, OFF_THE_CYCLE)
        for gamma, freq in zip(OFF_THE_CYCLE, got):
            cycle = sturmian_estimate(one_flower(T2, gamma), COS).periodic
            assert_carried(2, gamma, cycle)
            ones = [z >= Fraction(1, 2) for z in cycle]
            if cycle == [0]:
                ones = [T2.branch_index(gamma + 0.25) == 1]
            assert freq == sum(ones) / len(cycle)

    def test_memory_does_not_grow_with_length(self):
        """No orbit is walked: the criterion 9 scan's traced peak stays
        below 2 MB and does not rise with the length."""
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

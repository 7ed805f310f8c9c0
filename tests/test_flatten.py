"""Escape-time densities, flattening functionals, and coboundaries."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowerflat.circle import EPS, Arc, StepFunction, lift, reduce
from flowerflat.dynamics import make_linear_map, map_from_slopes
from flowerflat.flatten import (build_coboundary, default_depth,
                                escape_function, escape_time_direct,
                                flattened_values, functional,
                                functional_dual, is_flat, normal_form_check,
                                petal_samples, tail_bound)
from flowerflat.flower import (one_flower, random_flower, selector,
                               validate_flower)
from flowerflat.functions import (PiecewiseLinear, TrigPolynomial,
                                  compose_with_map, demo_function)

T2 = make_linear_map(2)
T3 = make_linear_map(3)
S244 = map_from_slopes([2.0, 4.0, 4.0])


def reference_phi(cob, xs):
    """phi by the arc walk: from the anchor along the sorted points, each
    segment is pushed through the selector level by level and the
    f-increments of the pieces are summed.  Independent of the closed
    form in ``Coboundary.eval_many``."""
    f, push = cob.f, cob.selector.push_once

    def segment_integral(u, v):
        total = 0.0
        arcs = [(u, v)]
        for _ in range(cob.depth):
            arcs = push(arcs)
            total += sum(f.eval(r) - f.eval(l) for l, r in arcs)
        return total

    base = cob.anchor
    lifted = sorted((lift(base, x), i) for i, x in enumerate(xs))
    out = np.empty(len(lifted))
    pos = base
    acc = 0.0
    for u, i in lifted:
        if u - pos > EPS:
            acc += segment_integral(reduce(pos), reduce(u))
            pos = u
        out[i] = acc
    return out


def _semicircle():
    F = validate_flower([Arc(0.25, 0.75)], T2)
    sel = selector(F)
    return F, sel, sel.discontinuities()[0]


class TestTailBound:
    def test_depth_zero(self):
        assert tail_bound(2.0, 0) == 1.0
        assert tail_bound(2.0, 0, 0.5) == 0.5

    def test_geometric_decay(self):
        assert tail_bound(2.0, 5) == pytest.approx(tail_bound(2.0, 4) / 2)

    def test_default_depth_meets_target(self):
        for lip in (1.0, 20.0):
            for target in (1e-8, 1e-12):
                N = default_depth(lip, 2.0, target)
                assert lip * tail_bound(2.0, N) <= target
                assert lip * tail_bound(2.0, N - 1) > target


class TestEscapeFunction:
    def test_depth_zero_is_flower_indicator(self):
        F, sel, disc = _semicircle()
        e = escape_function(sel, disc, 0)
        assert e.to_step().equal(StepFunction.indicator(Arc(0.25, 0.75)))

    def test_frozen_values(self):
        F, sel, disc = _semicircle()
        e = escape_function(sel, disc, 20)
        assert e.to_step().eval(0.3) == 2
        assert e.to_step().eval(0.2) == 0
        assert e.eval_int(0.3) == 2

    def test_matches_direct_escape_times(self):
        F, sel, disc = _semicircle()
        N = 25
        e = escape_function(sel, disc, N)
        rng = random.Random(3)
        xs = np.array([rng.uniform(0.0, 1.0) for _ in range(2000)])
        got = e.eval_many(xs)
        for x, v in zip(xs, got):
            d = escape_time_direct(F, float(x), cap=N + 1)
            want = N + 1 if d is None else min(d, N + 1)
            assert int(v) == want

    def test_l1_tail_certificate(self):
        F, sel, disc = _semicircle()
        e = escape_function(sel, disc, 10)
        assert e.tail_bound_l1 == pytest.approx(tail_bound(2.0, 10, 0.5))


class TestEscapeTimeDirect:
    def test_frozen_values(self):
        F = validate_flower([Arc(0.25, 0.75)], T2)
        assert escape_time_direct(F, 0.0) == 0
        assert escape_time_direct(F, 0.5) == 1
        assert escape_time_direct(F, 0.3) == 2

    def test_fixed_point_never_escapes(self):
        F = validate_flower([Arc(1 / 3 - 0.05, 5 / 6 - 0.05)], T2)
        assert escape_time_direct(F, 1 / 3, cap=50) is None


class TestFunctional:
    def test_constant_function_gives_zero(self):
        F, sel, disc = _semicircle()
        f = TrigPolynomial()
        value, err = functional(sel, disc, f, 20)
        assert value == 0.0
        assert err == 0.0

    def test_even_function_on_symmetric_flower(self):
        F = one_flower(T2, 0.75)
        sel = selector(F)
        disc = sel.discontinuities()[0]
        value, err = functional(sel, disc, TrigPolynomial(cos_coeffs=[1.0]),
                                40)
        assert abs(value) <= 1e-13
        assert err > 0

    def test_dual_functional_vanishes_for_one_flowers(self):
        # on a 1-flower the pushes of the complementary arc telescope, so
        # the dual functional is zero up to its truncation certificate
        f = PiecewiseLinear.from_points([0.13, 0.41, 0.77], [0.9, -0.4, 0.3])
        for g in (0.25, 0.1, 0.6):
            F = one_flower(T2, g)
            sel = selector(F)
            disc = sel.discontinuities()[0]
            vd, ed = functional_dual(sel, disc, f, 45)
            assert abs(vd) <= ed + 1e-12

    def test_error_bound_scales_with_lipschitz(self):
        F, sel, disc = _semicircle()
        _, e1 = functional(sel, disc, TrigPolynomial(cos_coeffs=[1.0]), 10)
        _, e2 = functional(sel, disc, TrigPolynomial(cos_coeffs=[2.0]), 10)
        assert e2 == pytest.approx(2 * e1)


class TestCoboundary:
    def test_anchored_at_zero(self):
        F, sel, disc = _semicircle()
        cob = build_coboundary(sel, TrigPolynomial(cos_coeffs=[1.0]), 30)
        assert cob.eval(cob.anchor) == 0.0

    def test_eval_consistency(self):
        F, sel, disc = _semicircle()
        cob = build_coboundary(sel, TrigPolynomial(cos_coeffs=[1.0]), 30)
        xs = [0.05, 0.3, 0.55, 0.8]
        batch = cob.eval_many(xs)
        for x, v in zip(xs, batch):
            assert cob.eval(x) == pytest.approx(float(v), abs=1e-12)

    def test_error_bound_decays_with_depth(self):
        F, sel, disc = _semicircle()
        f = TrigPolynomial(cos_coeffs=[1.0])
        b1 = build_coboundary(sel, f, 10).error_bound
        b2 = build_coboundary(sel, f, 20).error_bound
        assert b2 < b1 / 500

    def test_flattens_exact_coboundary(self):
        # f = psi o T - psi has zero ergodic averages; the reconstructed
        # phi must flatten it to the constant 0 on any flower
        T = map_from_slopes([2.0, 4.0, 4.0])
        psi = PiecewiseLinear.from_points([0.15, 0.45, 0.85],
                                          [0.4, -0.1, 0.25])
        f = compose_with_map(psi, T).add(psi, sign=-1.0)
        F = one_flower(T, 0.3)
        sel = selector(F)
        depth = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        cob = build_coboundary(sel, f, depth)
        flat, constant, max_dev = is_flat(f, cob, F)
        assert flat
        assert constant == pytest.approx(0.0, abs=1e-8)


def _ulps(x, k):
    """x moved by k units in the last place, reduced to [0, 1)."""
    step = np.inf if k > 0 else -np.inf
    for _ in range(abs(k)):
        x = np.nextafter(x, step)
    return reduce(float(x))


@st.composite
def _kernel_cases(draw):
    """A flower of T2, T3 or slopes (2,4,4) with p <= 3, a Lipschitz f, a
    depth, and points at discontinuities and their chain points (+-k ulp),
    at petal endpoints and their images, and at random."""
    T = draw(st.sampled_from([T2, T3, S244]))
    p = draw(st.sampled_from([1, 3] if T is T2 else [1, 2, 3]))
    F = random_flower(T, p, random.Random(draw(st.integers(0, 2**32))))
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        f = TrigPolynomial(draw(st.lists(unit, min_size=1, max_size=2)),
                           draw(st.lists(unit, max_size=2)))
    else:
        pts = draw(st.lists(st.floats(0.0, 0.999), min_size=2, max_size=5,
                            unique_by=lambda x: round(x, 2)))
        f = PiecewiseLinear.from_points(pts, draw(st.lists(
            unit, min_size=len(pts), max_size=len(pts))))
    sel = selector(F)
    depth = draw(st.integers(1, 30))
    ks = st.integers(-3, 3)
    xs = []
    for c in sel.discontinuity_set(min(depth, 4)):
        xs += [_ulps(c, draw(ks)) for _ in range(2)]
    for petal in F.petals:
        for y in (petal.left, petal.right):
            xs += [y, T.apply(y), _ulps(T.apply(y), draw(ks))]
    xs += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    return build_coboundary(sel, f, depth), xs


class TestCoboundaryKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_kernel_cases())
    def test_matches_reference_walk(self, case):
        cob, xs = case
        got = cob.eval_many(xs)
        # one point at a time: in a batch the walk starts each segment at
        # the previous point, and after a point 1 ulp below a
        # discontinuity its EPS tolerances shifted every later value by up
        # to 2e-9
        want = [reference_phi(cob, [x])[0] for x in xs]
        assert got == pytest.approx(want, abs=1e-11)
        assert cob.eval(cob.anchor) == 0.0

    @pytest.mark.parametrize("T, petal", [
        # the petal starts at the fixed point, which is also the
        # discontinuity and the anchor
        (T3, (0.0, 1 / 3)),
        # the discontinuity 1/3 has period 2 and its chain ends on the
        # petal's right endpoint
        (T2, (1 / 6, 2 / 3)),
    ])
    def test_flattens_exact_coboundary_on_degenerate_flowers(self, T, petal):
        psi = PiecewiseLinear.from_points([0.15, 0.45, 0.85],
                                          [0.4, -0.1, 0.25])
        f = compose_with_map(psi, T).add(psi, sign=-1.0)
        F = validate_flower([Arc(*petal)], T, allow_break_endpoints=True)
        depth = default_depth(f.lipschitz_constant(), T.expansion_constant,
                              1e-11)
        cob = build_coboundary(selector(F), f, depth)
        flat, constant, max_dev = is_flat(f, cob, F)
        assert flat
        assert max_dev <= 1e-11

    def test_rejects_non_finite_points(self):
        F, sel, disc = _semicircle()
        cob = build_coboundary(sel, TrigPolynomial(cos_coeffs=[1.0]), 20)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                cob.eval_many([0.3, bad])
            with pytest.raises(ValueError):
                cob.coboundary_many([bad])


class TestIsFlat:
    def test_demo_function_is_flat_on_its_flower(self):
        g = 0.1
        f = demo_function(g)
        F = one_flower(T2, g)
        depth = default_depth(f.lipschitz_constant(), 2.0, 2.5e-11)
        cob = build_coboundary(selector(F), f, depth)
        flat, constant, max_dev = is_flat(f, cob, F)
        assert flat
        assert constant == pytest.approx(0.0, abs=1e-10)
        assert max_dev <= 1e-10

    def test_cosine_not_flat_on_generic_flower(self):
        f = TrigPolynomial(cos_coeffs=[1.0])
        F = validate_flower([Arc(0.26, 0.76)], T2)
        depth = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        cob = build_coboundary(selector(F), f, depth)
        flat, _, max_dev = is_flat(f, cob, F)
        assert not flat
        assert max_dev > 1e-3


class TestPetalSamples:
    def test_count_and_membership(self):
        F = one_flower(T2, 0.25)
        pts = petal_samples(F, 17)
        assert len(pts) == 17
        assert all(F.contains(x, tol=1e-12) for x in pts)


class TestNormalFormCheck:
    def test_cosine(self):
        f = TrigPolynomial(cos_coeffs=[1.0])
        assert normal_form_check(f, 1.0)
        assert not normal_form_check(f, 0.5)

    def test_demo_function_normal_form_at_zero(self):
        assert normal_form_check(demo_function(0.1), 0.0)

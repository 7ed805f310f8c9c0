"""Piecewise-linear and trigonometric test functions on the circle."""
import math
import random

import numpy as np
import pytest

from flowerflat.dynamics import make_linear_map
from flowerflat.functions import (PiecewiseLinear, TrigPolynomial,
                                  compose_with_map, demo_function,
                                  demo_potential)


class TestPiecewiseLinear:
    def test_from_points_interpolates(self):
        f = PiecewiseLinear.from_points([0.0, 0.25, 0.5], [0.0, 1.0, 0.0])
        assert f.eval(0.0) == pytest.approx(0.0)
        assert f.eval(0.25) == pytest.approx(1.0)
        assert f.eval(0.125) == pytest.approx(0.5)
        # linear back down to 0 at 0.5, then flat-free wrap back to 0.0
        assert f.eval(0.375) == pytest.approx(0.5)

    def test_periodicity(self):
        f = PiecewiseLinear.from_points([0.1, 0.4, 0.7], [0.3, -0.2, 0.5])
        assert f.eval(0.05) == pytest.approx(f.eval(1.05), abs=1e-12)
        assert f.eval(1.2) - f.eval(0.2) == pytest.approx(0.0, abs=1e-12)

    def test_increment_telescopes(self):
        # the increments over consecutive arcs round the circle sum to 0
        f = PiecewiseLinear.from_points([0.1, 0.4, 0.7], [0.3, -0.2, 0.5])
        a, b, c = 0.15, 0.55, 0.95
        steps = [f.eval(b) - f.eval(a), f.eval(c) - f.eval(b),
                 f.eval(a + 1.0) - f.eval(c)]
        assert sum(steps) == pytest.approx(0.0, abs=1e-12)

    def test_lipschitz_constant(self):
        f = PiecewiseLinear.from_points([0.0, 0.5], [0.0, 1.0])
        assert f.lipschitz_constant() == pytest.approx(2.0)

    def test_add_and_shift(self):
        f = PiecewiseLinear.from_points([0.0, 0.5], [0.0, 1.0])
        g = f.add(f, sign=-1.0)
        assert g.eval(0.3) == pytest.approx(0.0, abs=1e-12)
        h = f.shift(2.5)
        assert h.eval(0.25) == pytest.approx(f.eval(0.25) + 2.5, abs=1e-12)

    def test_eval_many_matches_eval(self):
        f = PiecewiseLinear.from_points([0.1, 0.4, 0.7], [0.3, -0.2, 0.5])
        rng = random.Random(4)
        xs = [rng.uniform(-2.0, 2.0) for _ in range(200)]
        xs += list(f.breakpoints) + [1.0, -1e-18, 0.0]
        got = f.eval_many(np.reshape(xs, (2, -1)))
        assert got.shape == (2, len(xs) // 2)
        assert got.ravel().tolist() == [f.eval(x) for x in xs]


class TestTrigPolynomial:
    def test_cosine_values(self):
        f = TrigPolynomial(cos_coeffs=[1.0])
        assert f.eval(0.0) == pytest.approx(1.0)
        assert f.eval(0.5) == pytest.approx(-1.0)
        assert f.eval(0.25) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_increment_vanishes(self):
        f = TrigPolynomial(cos_coeffs=[1.0])
        assert f.eval(0.25) - f.eval(0.75) == pytest.approx(0.0, abs=1e-15)

    def test_lipschitz_constant(self):
        f = TrigPolynomial(cos_coeffs=[1.0])
        assert f.lipschitz_constant() == pytest.approx(2 * math.pi)
        g = TrigPolynomial(cos_coeffs=[0.0, 1.0])
        assert g.lipschitz_constant() == pytest.approx(4 * math.pi)

    def test_eval_many_matches_eval(self):
        f = TrigPolynomial([0.4, -0.3], [0.2, 0.0, 0.1], constant=-0.5)
        rng = random.Random(6)
        xs = np.array([rng.uniform(-1.0, 2.0) for _ in range(200)])
        assert f.eval_many(xs) == pytest.approx([f.eval(x) for x in xs],
                                                abs=1e-14)
        assert TrigPolynomial().eval_many(xs).tolist() == [0.0] * 200


class TestComposeWithMap:
    def test_matches_pointwise_composition(self):
        T = make_linear_map(2)
        psi = PiecewiseLinear.from_points([0.1, 0.45, 0.8], [0.2, -0.3, 0.6])
        comp = compose_with_map(psi, T)
        for x in (0.05, 0.2, 0.48, 0.51, 0.73, 0.97):
            assert comp.eval(x) == pytest.approx(psi.eval(T.apply(x)),
                                                 abs=1e-12)

    def test_lipschitz_scales_by_slope(self):
        T = make_linear_map(3)
        psi = PiecewiseLinear.from_points([0.0, 0.5], [0.0, 1.0])
        comp = compose_with_map(psi, T)
        assert comp.lipschitz_constant() == pytest.approx(6.0)


class TestDemoFunction:
    def test_frozen_values(self):
        f = demo_function(0.1)
        assert f.eval(0.35) == pytest.approx(-1.0, abs=1e-12)
        assert f.eval(0.1) == pytest.approx(0.0, abs=1e-12)
        assert f.eval(0.85) == pytest.approx(-0.25, abs=1e-12)
        assert f.eval(0.35) - f.eval(0.3) == pytest.approx(-1.0, abs=1e-12)
        assert f.lipschitz_constant() == pytest.approx(20.0)

    def test_nonpositive_and_zero_on_flower_boundary(self):
        f = demo_function(0.1)
        for i in range(1000):
            assert f.eval(i / 1000) <= 1e-12
        assert f.eval(0.1) == pytest.approx(0.0, abs=1e-12)
        assert f.eval(0.6) == pytest.approx(0.0, abs=1e-12)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            demo_function(0.2)
        with pytest.raises(ValueError):
            demo_function(0.0)


class TestDemoPotential:
    def test_continuous_and_periodic(self):
        psi = demo_potential(0.1)
        assert psi.eval(0.0) == pytest.approx(psi.eval(1.0), abs=1e-12)

    def test_lipschitz(self):
        psi = demo_potential(0.1)
        assert psi.lipschitz_constant() == pytest.approx(10.0)

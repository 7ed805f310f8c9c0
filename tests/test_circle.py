"""Circle arithmetic: points, arcs, and integer step functions."""
import math

import pytest

import numpy as np

from flowerflat.circle import (Arc, CyclicOrder, EPS, StepFunction, distance,
                               lift, reduce, reduce_many, step_add,
                               step_equal, step_sum)


class TestReduce:
    def test_basic(self):
        assert reduce(1.25) == 0.25
        assert reduce(-0.1) == pytest.approx(0.9, abs=1e-15)
        assert reduce(0.0) == 0.0
        assert reduce(1.0) == 0.0
        assert reduce(-3.75) == 0.25

    def test_half_open_range(self):
        for x in (-1e-18, 1.0 - 1e-17, 5.5, -2.25):
            assert 0.0 <= reduce(x) < 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reduce(float("nan"))
        with pytest.raises(ValueError):
            reduce(float("inf"))

    def test_many_matches_scalar(self):
        xs = [1.25, -0.1, 0.0, 1.0, -3.75, -1e-18, 1.0 - 1e-17, -2.25,
              0.3, -0.7]
        assert reduce_many(xs).tolist() == [reduce(x) for x in xs]

    def test_many_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                reduce_many(np.array([0.5, bad]))


class TestDistanceAndLift:
    def test_distance_wraps(self):
        assert distance(0.9, 0.1) == pytest.approx(0.2, abs=1e-15)
        assert distance(0.25, 0.75) == pytest.approx(0.5, abs=1e-15)
        assert distance(0.3, 0.3) == 0.0

    def test_distance_max_half(self):
        assert distance(0.0, 0.5) == 0.5

    def test_lift(self):
        assert lift(0.5, 0.25) == 1.25
        assert lift(0.0, 0.75) == 0.75
        assert lift(0.9, 0.9) == 0.9


class TestCyclicOrder:
    def test_base_is_minimum(self):
        order = CyclicOrder(0.5)
        assert order.less(0.75, 0.25)
        assert not order.less(0.25, 0.75)
        assert order.key(0.5) == 0.5
        assert order.key(0.25) == 1.25


class TestArc:
    def test_contains_plain(self):
        a = Arc(0.25, 0.75)
        assert a.contains(0.5)
        assert a.contains(0.25)
        assert a.contains(0.75)
        assert not a.contains(0.2)
        assert not a.contains(0.8)

    def test_contains_wrapping(self):
        a = Arc(0.75, 0.25)
        assert a.contains(0.0)
        assert a.contains(0.9)
        assert not a.contains(0.5)

    def test_length_and_midpoint(self):
        assert Arc(0.25, 0.75).length == 0.5
        assert Arc(0.75, 0.25).length == pytest.approx(0.5, abs=1e-15)
        assert Arc(0.75, 0.25).midpoint() == pytest.approx(0.0, abs=1e-15)
        assert Arc(0.25, 0.75).midpoint() == 0.5

    def test_degenerate(self):
        a = Arc(0.3, 0.3)
        assert a.length == 0.0
        assert a.contains(0.3)
        assert not a.contains(0.31)

    def test_complement(self):
        a = Arc(0.25, 0.75).complement()
        assert a.left == 0.75 and a.right == 0.25


class TestStepFunction:
    def test_constant(self):
        s = StepFunction.constant(3)
        assert s.eval(0.1) == 3
        assert s.integral() == 3.0

    def test_indicator_closed_endpoints(self):
        s = StepFunction.indicator(Arc(0.25, 0.75))
        assert s.eval(0.25) == 1
        assert s.eval(0.75) == 1
        assert s.eval(0.5) == 1
        assert s.eval(0.2) == 0

    def test_indicator_open_endpoints(self):
        s = StepFunction.indicator_open(Arc(0.25, 0.75))
        assert s.eval(0.25) == 0
        assert s.eval(0.75) == 0
        assert s.eval(0.5) == 1
        assert s.eval(0.2) == 0

    def test_add_overlapping_indicators(self):
        s = step_add(StepFunction.indicator(Arc(0.0, 0.5)),
                     StepFunction.indicator(Arc(0.25, 0.75)))
        assert s.breakpoints == (0.0, 0.25, 0.5, 0.75)
        assert s.gaps == (1, 2, 1, 0)
        assert s.points == (1, 2, 2, 1)

    def test_subtract_self_is_zero(self):
        chi = StepFunction.indicator(Arc(0.25, 0.75))
        z = step_add(chi, chi, sign=-1)
        assert z.eval(0.75) == 0
        assert z.eval(0.5) == 0
        assert step_equal(z, StepFunction.constant(0))

    def test_closed_and_open_differ(self):
        closed = StepFunction.indicator(Arc(0.25, 0.75))
        opened = StepFunction.indicator_open(Arc(0.25, 0.75))
        assert not step_equal(closed, opened)

    def test_integral_is_length(self):
        assert StepFunction.indicator(Arc(0.25, 0.75)).integral() == \
            pytest.approx(0.5, abs=1e-15)
        assert StepFunction.indicator(Arc(0.9, 0.1)).integral() == \
            pytest.approx(0.2, abs=1e-15)

    def test_step_sum(self):
        parts = [StepFunction.indicator(Arc(i / 4, i / 4 + 0.25))
                 for i in range(4)]
        total = step_sum(parts)
        # interiors covered once, shared endpoints counted twice
        assert total.eval(0.1) == 1
        assert total.eval(0.25) == 2

    def test_eval_many_matches_eval_off_breakpoints(self):
        import numpy as np
        s = step_add(StepFunction.indicator(Arc(0.1, 0.4)),
                     StepFunction.indicator(Arc(0.3, 0.8)))
        xs = np.linspace(0.05, 0.95, 37)
        got = s.eval_many(xs)
        assert all(int(v) == s.eval(float(x)) for x, v in zip(xs, got))

    def test_wrapping_indicator(self):
        s = StepFunction.indicator(Arc(0.75, 0.25))
        assert s.eval(0.0) == 1
        assert s.eval(0.5) == 0
        assert s.eval(0.75) == 1

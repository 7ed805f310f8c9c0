"""Circle arithmetic: points, arcs, the arc tests on arrays, the cells of a
point set, and integer step functions."""
import random

import pytest

import numpy as np

from flowerflat.circle import (Arc, StepFunction, arc_indicator, cells,
                               distance, in_closed_arcs, lift, reduce,
                               reduce_many)


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

    def test_lift_base_is_minimum(self):
        # the order of the circle cut at the base, which sorts the ends of
        # the arcs I_x of a selector's discontinuities
        assert lift(0.5, 0.75) < lift(0.5, 0.25)
        assert lift(0.5, 0.5) == 0.5
        assert min(lift(0.5, x / 8) for x in range(8)) == 0.5


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


class TestInClosedArcs:
    def test_matches_arc_contains(self):
        # random arcs, at their ends, one ulp either side of them, and at
        # random points, with the arcs broadcast as rows
        rng = random.Random(5)
        arcs = [Arc(rng.random(), rng.random()) for _ in range(50)]
        arcs += [Arc(0.3, 0.3), Arc(0.0, 0.5), Arc(0.5, 0.0)]
        xs = [rng.random() for _ in range(200)] + [0.0]
        for arc in arcs:
            for end in (arc.left, arc.right):
                xs += [end, np.nextafter(end, 2.0),
                       reduce(float(np.nextafter(end, -1.0)))]
        got = in_closed_arcs(np.array(xs),
                             np.array([[a.left] for a in arcs]),
                             np.array([[a.length] for a in arcs]))
        assert got.tolist() == [[a.contains(x) for x in xs] for a in arcs]

    def test_open_arc_lacks_its_ends(self):
        xs = np.array([0.25, 0.75, 0.5, 0.2, 0.0])
        assert arc_indicator(xs, Arc(0.25, 0.75)).tolist() == \
            [True, True, True, False, False]
        assert arc_indicator(xs, Arc(0.25, 0.75), closed=False).tolist() == \
            [False, False, True, False, False]
        assert arc_indicator(xs, Arc(0.75, 0.25), closed=False).tolist() == \
            [False, False, False, True, True]


class TestCells:
    def test_points_and_midpoints(self):
        pts, mids = cells([0.75, 0.25, 0.75, 0.25])
        assert pts.tolist() == [0.25, 0.75]
        assert mids.tolist() == [0.5, 0.0]

    def test_single_point_is_a_whole_turn(self):
        pts, mids = cells([0.3])
        assert pts.tolist() == [0.3]
        assert mids.tolist() == [0.8]

    def test_midpoints_lie_inside_their_cells(self):
        rng = random.Random(7)
        pts, mids = cells([rng.random() for _ in range(100)])
        off, gap = reduce_many(mids - pts), reduce_many(np.roll(pts, -1) - pts)
        assert np.all((0.0 < off) & (off < gap))
        assert off == pytest.approx(gap / 2.0, abs=1e-15)

    def test_quarters_count_twice_at_shared_ends(self):
        arcs = [Arc(i / 4, i / 4 + 0.25) for i in range(4)]
        pts, mids = cells([a.left for a in arcs])
        for xs, want in ((pts, 2), (mids, 1)):
            total = sum(in_closed_arcs(xs, a.left, a.length).astype(int)
                        for a in arcs)
            assert total.tolist() == [want] * 4


class TestStepFunction:
    def test_indicator_closed_endpoints(self):
        s = StepFunction.indicator(Arc(0.25, 0.75))
        assert s.eval_many(np.array([0.25, 0.75, 0.5, 0.2])).tolist() == \
            [1, 1, 1, 0]

    def test_indicator_open_endpoints(self):
        s = StepFunction.indicator(Arc(0.25, 0.75), closed=False)
        assert s.eval_many(np.array([0.25, 0.75, 0.5, 0.2])).tolist() == \
            [0, 0, 1, 0]

    def test_add_overlapping_indicators(self):
        s = StepFunction.indicator(Arc(0.0, 0.5)).add(
            StepFunction.indicator(Arc(0.25, 0.75)))
        assert s.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.75]
        # at the breakpoints, then on the cells after them
        assert s.values.tolist() == [1, 2, 2, 1, 1, 2, 1, 0]

    def test_subtract_self_is_zero(self):
        chi = StepFunction.indicator(Arc(0.25, 0.75))
        z = chi.add(chi, sign=-1)
        assert z.values.tolist() == [0, 0, 0, 0]
        assert z.equal(chi.add(chi, sign=-1))
        assert not z.equal(chi)

    def test_closed_and_open_differ(self):
        closed = StepFunction.indicator(Arc(0.25, 0.75))
        opened = StepFunction.indicator(Arc(0.25, 0.75), closed=False)
        assert not closed.equal(opened)
        assert closed.equal(StepFunction.indicator(Arc(0.25, 0.75)))

    def test_eval_many_matches_arc_contains(self):
        # a sum of closed arcs at random points and at every breakpoint
        rng = random.Random(17)
        arcs = [Arc(rng.random(), rng.random()) for _ in range(6)]
        s = StepFunction.indicator(arcs[0])
        for arc in arcs[1:]:
            s = s.add(StepFunction.indicator(arc))
        xs = [rng.random() for _ in range(300)] + s.breakpoints.tolist()
        assert s.eval_many(np.array(xs)).tolist() == \
            [sum(a.contains(x) for a in arcs) for x in xs]

    def test_wrapping_indicator(self):
        s = StepFunction.indicator(Arc(0.75, 0.25))
        assert s.eval_many(np.array([0.0, 0.5, 0.75, 0.25])).tolist() == \
            [1, 0, 1, 1]

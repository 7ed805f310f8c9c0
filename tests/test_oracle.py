"""The closed form against the exact rational push of ``exact_oracle``:
``phi_of_gammas``, ``functional`` and the ``Coboundary`` on the 1-flowers
[a, a + 1/k] of T2, T3 and T4, at depths beyond the arc walk's reach."""
import numpy as np
import pytest

from flowerflat.dynamics import make_linear_map
from flowerflat.flatten import Coboundary, functional
from flowerflat.flower import one_flower, selector
from flowerflat.functions import PiecewiseLinear, TrigPolynomial
from flowerflat.solve import (OneFlowerFamily, _off_degenerate, phi_of_gamma,
                              phi_of_gammas)

from exact_oracle import exact_phi

COS = TrigPolynomial(cos_coeffs=[1.0])
FUNCTIONS = [COS, TrigPolynomial([0.3, -0.7], [0.5]),
             PiecewiseLinear.from_points([0.1, 0.45, 0.8], [0.3, -0.5, 0.9])]


def _one_flower_values(T, gamma, pairs):
    """``functional`` and f(b) - f(a) + phi(b), phi anchored at a, on the
    1-flower [a, b] at gamma, for every (f, N) in ``pairs``."""
    F = one_flower(T, gamma)
    sel = selector(F)
    disc = sel.discontinuities()[0]
    a, b = F.petals[0].left, F.petals[0].right
    return [(functional(sel, disc, f, N)[0],
             f.eval(b) - f.eval(a) + Coboundary(sel, f, N, anchor=a).eval(b))
            for f, N in pairs]


@pytest.mark.parametrize("k, depths", [(2, [24, 40, 60]), (4, [24, 40, 60]),
                                       (3, [24, 30])])
def test_closed_form_matches_the_exact_push(k, depths):
    # every 16th point of the scan grid i/512, moved off the branch breaks
    # as phi_of_gammas moves it; on T3 these are periodic parameters
    T = make_linear_map(k)
    family = OneFlowerFamily(T)
    gammas = _off_degenerate(family, np.arange(0, 512, 16) / 512)
    exact = np.array([exact_phi(k, g, FUNCTIONS, depths) for g in gammas])
    for i, f in enumerate(FUNCTIONS):
        for j, N in enumerate(depths):
            values, _ = phi_of_gammas(family, f, gammas, N)
            assert values == pytest.approx(exact[:, i, j], abs=1e-12)
    pairs = [(f, N) for f in FUNCTIONS for N in depths]
    for g, want in zip(gammas, exact.reshape(len(gammas), -1)):
        got = np.array(_one_flower_values(T, g, pairs))
        assert got == pytest.approx(np.column_stack([want, want]), abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the closed form "
                   "breaks at and near periodic parameters")
@pytest.mark.parametrize("k, gamma, N", [
    (3, 1 / 8, 40), (3, 5 / 8, 40), (3, 17 / 26, 24), (2, 1 / 30, 60),
    (2, 0.16666666666656665, 24)])
def test_periodic_parameters(k, gamma, N):
    # returned: -4.187, 4.187, 2e-10, -7.326 and 1.6e-7; exact: -2.3201,
    # 2.3201, 2.0200, -3.6685 and -1.6111.  1/6 - 1e-13 is not periodic,
    # but its orbit follows the cycle of 1/6 until rounding has the float
    # orbits land on their discontinuity
    T = make_linear_map(k)
    want = exact_phi(k, gamma, [COS], [N])[0][0]
    assert phi_of_gamma(OneFlowerFamily(T), COS, gamma, N)[0] == \
        pytest.approx(want, abs=1e-12)
    assert _one_flower_values(T, gamma, [(COS, N)]) == pytest.approx(
        [(want, want)], abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the closed form "
                   "breaks where the right end is the fixed point")
def test_flower_ending_at_the_fixed_point():
    # T2's 1-flower [1/2, 0] ends on a branch break, where phi_of_gammas
    # evaluates a nudged flower; ``functional`` gives 6.7889 at depth 60,
    # twice the exact 3.3946
    T2 = make_linear_map(2)
    want = exact_phi(2, 0.5, [COS], [60])[0][0]
    assert _one_flower_values(T2, 0.5, [(COS, 60)]) == pytest.approx(
        [(want, want)], abs=1e-12)

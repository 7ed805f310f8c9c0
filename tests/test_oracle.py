"""The closed form against the exact rational push of ``exact_oracle``:
``phi_of_gammas``, ``functional`` and the ``Coboundary`` on the 1-flowers
[a, a + 1/k] of T2, T3 and T4, at depths beyond the arc walk's reach."""
from fractions import Fraction

import numpy as np
import pytest

from flowerflat.dynamics import make_linear_map
from flowerflat.flatten import Coboundary, functional
from flowerflat.flower import one_flower, selector
from flowerflat.functions import PiecewiseLinear, TrigPolynomial
from flowerflat.solve import _off_degenerate, phi_of_gamma, phi_of_gammas

from exact_oracle import exact_phi

COS = TrigPolynomial(cos_coeffs=[1.0])
FUNCTIONS = [COS, TrigPolynomial([0.3, -0.7], [0.5]),
             PiecewiseLinear.from_points([0.1, 0.45, 0.8], [0.3, -0.5, 0.9])]


def _one_flower_values(T, gamma, pairs):
    """``functional`` and f(b) - f(a) + phi(b), phi of the ``Coboundary``,
    which is anchored at a, on the 1-flower [a, b] at gamma, for every
    (f, N) in ``pairs``."""
    F = one_flower(T, gamma)
    sel = selector(F)
    disc = sel.discontinuities()[0]
    a, b = F.petals[0].left, F.petals[0].right
    out = []
    for f, N in pairs:
        cob = Coboundary(sel, f, N)
        assert cob.anchor == a
        out.append((functional(sel, disc, f, N)[0],
                    f.eval(b) - f.eval(a) + cob.eval_many([b])[0]))
    return out


@pytest.mark.parametrize("k, depths", [(2, [24, 40, 60]), (4, [24, 40, 60]),
                                       (3, [24, 30])])
def test_closed_form_matches_the_exact_push(k, depths):
    # every 16th point of the scan grid i/512, moved off the branch breaks
    # as phi_of_gammas moves it; on T3 these are periodic parameters
    T = make_linear_map(k)
    gammas = _off_degenerate(T, np.arange(0, 512, 16) / 512)
    exact = np.array([exact_phi(k, g, FUNCTIONS, depths) for g in gammas])
    for i, f in enumerate(FUNCTIONS):
        for j, N in enumerate(depths):
            values, _ = phi_of_gammas(T, f, gammas, N)
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
    assert phi_of_gamma(T, COS, gamma, N)[0] == \
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


#: rationals j/q where the closed form is known to miss the exact value
#: with f = cos 2 pi x (ROADMAP item 1); by map and depth
_T3_40 = {"1/26", "20/39", "7/13", "17/26",
          "1/24", "1/8", "5/39", "2/13", "1/6", "5/8"}
_T4_40 = {"1/12", "1/15", "2/5", "7/20"}
KNOWN_DEFECTS = {
    (2, 24): set(), (2, 40): set(),
    (2, 60): {"1/14", "1/15", "1/30", "1/31", "1/6", "1/7", "11/31",
              "13/30", "15/31", "5/14", "5/31", "7/15"},
    (3, 24): {"1/26", "20/39", "7/13", "17/26"},
    (3, 40): _T3_40, (3, 60): _T3_40,
    (4, 24): {"2/5", "7/20"}, (4, 40): _T4_40, (4, 60): _T4_40,
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rational_sweep(k):
    # all 489 rationals j/q in (0, 1) with q <= 40, moved off the branch
    # breaks as phi_of_gammas moves them; a value may only leave the set
    # of known defects, and the set only shrink
    depths = (24, 40, 60)
    rationals = sorted({Fraction(j, q) for q in range(2, 41)
                        for j in range(1, q)})
    T = make_linear_map(k)
    gammas = _off_degenerate(T, np.array([float(r) for r in rationals]))
    exact = np.array([exact_phi(k, g, [COS], depths)[0] for g in gammas])
    for j, N in enumerate(depths):
        values, _ = phi_of_gammas(T, COS, gammas, N)
        wrong = np.abs(values - exact[:, j]) > 1e-12
        assert {str(rationals[i]) for i in np.nonzero(wrong)[0]} <= \
            KNOWN_DEFECTS[k, N]

"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion; tolerances and
runtime budgets are pinned.  Oracles are independent of the code paths
they check: direct forward-orbit escape times, exact rational periodic
orbits, exact coboundary potentials, and brute-force periodic-orbit
averages.
"""
import math
import random
import time

import numpy as np
import pytest

from flowerflat import (Arc, make_linear_map, map_from_slopes, one_flower,
                        random_flower, selector, validate_flower)
from flowerflat.flatten import (Coboundary, default_depth, escape_function,
                                escape_time_direct, flattened_values,
                                functional, is_flat, petal_samples)
from flowerflat.functions import (PiecewiseLinear, TrigPolynomial,
                                  compose_with_map, demo_function,
                                  demo_potential)
from flowerflat.solve import (branch_one_frequency_scan, orbit_oracle,
                              rank_test, sign_conditions, solve_pre_sturmian,
                              sturmian_estimate)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _odd_p(k, p):
    if k == 2 and p % 2 == 0:
        return p + 1
    return p


def _random_map(rng):
    k = rng.choice([2, 3, 4])
    return make_linear_map(k)


def _best_estimate(T, f, intervals, N):
    best = None
    for zi in intervals:
        est = sturmian_estimate(one_flower(T, zi.midpoint), f, depth=N)
        if best is None or est.integral_of_f > best.integral_of_f:
            best = est
    return best


def test_criterion_1_demo_flattening():
    """The demo function becomes constant on its flower after adding the
    coboundary, and the constant matches the closed form."""
    T = make_linear_map(2)
    worst_dev = 0.0
    worst_val = 0.0
    worst_time = 0.0
    for g in (0.05, 0.10, 0.15):
        t0 = time.monotonic()
        f = demo_function(g)
        F = one_flower(T, g)
        depth = default_depth(f.lipschitz_constant(), 2.0, 2.5e-11)
        cob = Coboundary(selector(F), f, depth)
        vals = flattened_values(f, cob, petal_samples(F, 1000))
        dev = float(np.max(vals) - np.min(vals))
        # on the flower the flattened function sits at its ergodic maximum
        # 0; at the exterior probe gamma + 3/4 it takes a closed-form value
        exterior = flattened_values(f, cob, [(g + 0.75) % 1.0])[0]
        formula = 0.25 - g / (1.0 - 2.0 * g)
        val_err = max(abs(float(np.mean(vals))), abs(exterior - formula))
        worst_dev = max(worst_dev, dev)
        worst_val = max(worst_val, val_err)
        worst_time = max(worst_time, time.monotonic() - t0)
    ok = worst_dev <= 1e-10 and worst_val <= 1e-10 and worst_time <= 1.0
    _report(1, ok, f"max deviation {worst_dev:.2e}, constant error "
                   f"{worst_val:.2e}, slowest case {worst_time:.2f}s "
                   f"(budgets 1e-10 / 1e-10 / 1s)")


def test_criterion_2_coboundary_matches_exact_potential():
    """The truncated transfer function agrees with the closed-form
    potential up to an additive constant, within its own certificate."""
    T = make_linear_map(2)
    worst = 0.0
    t0 = time.monotonic()
    for g in (0.05, 0.10, 0.15):
        f = demo_function(g)
        psi = demo_potential(g)
        F = one_flower(T, g)
        depth = default_depth(f.lipschitz_constant(), 2.0, 2.5e-11)
        cob = Coboundary(selector(F), f, depth)
        xs = [i / 512 for i in range(512)]
        diffs = cob.eval_many(xs) - np.array([psi.eval(x) for x in xs])
        spread = float(np.max(diffs) - np.min(diffs))
        assert spread <= 2.0 * cob.error_bound + 1e-13
        worst = max(worst, spread)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 5.0
    _report(2, ok, f"max spread around the constant {worst:.2e} over 512 "
                   f"points, 3 parameters in {elapsed:.2f}s (budget 5s)")


def test_criterion_3_characteristic_identity():
    """chi(F) equals the signed sum of discontinuity-arc indicators for
    500 random flowers."""
    rng = random.Random(31)
    t0 = time.monotonic()
    failures = 0
    for _ in range(500):
        T = _random_map(rng)
        p = _odd_p(T.degree, rng.randint(1, 5))
        F = random_flower(T, p, rng)
        _, _, equal = selector(F).characteristic_identity()
        failures += not equal
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= 10.0
    _report(3, ok, f"{failures}/500 identity failures in {elapsed:.2f}s "
                   f"(budgets 0 / 10s)")


def test_criterion_4_escape_oracle():
    """Truncated escape-time values agree with direct forward-orbit exit
    times at 10^4 random points on each of 200 random 1-flowers."""
    rng = random.Random(47)
    N = 30
    t0 = time.monotonic()
    mismatches = 0
    total = 0
    for _ in range(200):
        T = _random_map(rng)
        F = one_flower(T, rng.uniform(0.0, 1.0))
        sel = selector(F)
        e = escape_function(sel, sel.discontinuities()[0], N)
        xs = np.array([rng.uniform(0.0, 1.0) for _ in range(10000)])
        got = e.eval_many(xs)
        for x, v in zip(xs, got):
            d = escape_time_direct(F, float(x), cap=N + 1)
            want = N + 1 if d is None else min(d, N + 1)
            mismatches += int(v) != want
            total += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed <= 30.0
    _report(4, ok, f"{mismatches}/{total} oracle mismatches in "
                   f"{elapsed:.2f}s (budgets 0 / 30s)")


def test_criterion_5_round_trip():
    """Functions built as constant + coboundary + flower-vanishing part are
    certified flat with the correct constant recovered."""
    rng = random.Random(59)
    t0 = time.monotonic()
    bad = 0
    for _ in range(100):
        T = _random_map(rng)
        p = _odd_p(T.degree, rng.randint(1, 3))
        F = random_flower(T, p, rng)
        # random potential psi with well-separated breakpoints
        while True:
            pts = sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(2, 5)))
            gaps = [(pts[(i + 1) % len(pts)] - pts[i]) % 1.0 or 1.0
                    for i in range(len(pts))]
            if min(gaps) > 1e-3:
                break
        psi = PiecewiseLinear.from_points(
            pts, [rng.uniform(-1.0, 1.0) for _ in pts])
        # h vanishes on the flower: zero at petal endpoints, free at gap
        # midpoints
        hx, hv = [], []
        for petal in F.petals:
            hx.extend((petal.left, petal.right))
            hv.extend((0.0, 0.0))
        rights = sorted(petal.right for petal in F.petals)
        lefts = sorted(petal.left for petal in F.petals)
        for r in rights:
            nxt = min((l for l in lefts if l > r), default=lefts[0])
            gap = (nxt - r) % 1.0 or 1.0
            hx.append((r + gap / 2.0) % 1.0)
            hv.append(rng.uniform(0.0, 1.0))
        order = sorted(range(len(hx)), key=lambda j: hx[j])
        h = PiecewiseLinear.from_points([hx[j] for j in order],
                                        [hv[j] for j in order])
        c = rng.uniform(-2.0, 2.0)
        f = (compose_with_map(psi, T).add(psi, sign=-1.0).add(h).shift(c))
        sel = selector(F)
        depth = default_depth(f.lipschitz_constant(),
                              T.expansion_constant, 1e-11)
        for disc in sel.discontinuities():
            value, err = functional(sel, disc, f, depth)
            if abs(value) > err + 1e-10:
                bad += 1
        cob = Coboundary(sel, f, depth)
        flat, constant, _ = is_flat(f, cob, F)
        if not flat or abs(constant - c) > 1e-8:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed <= 60.0
    _report(5, ok, f"{bad}/100 round-trip failures in {elapsed:.2f}s "
                   f"(budgets 0 / 60s)")


def test_criterion_6_rank():
    """The p escape densities plus the constant function have numerical
    rank exactly p + 1 on 200 random flowers."""
    rng = random.Random(71)
    t0 = time.monotonic()
    bad = 0
    for _ in range(200):
        T = _random_map(rng)
        p = _odd_p(T.degree, rng.randint(1, 4))
        F = random_flower(T, p, rng)
        rank, expected_p = rank_test(F)
        bad += rank != expected_p + 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed <= 60.0
    _report(6, ok, f"{bad}/200 rank mismatches in {elapsed:.2f}s "
                   f"(budgets 0 / 60s)")


def test_criterion_7_solver_vs_orbit_oracle():
    """For 32 rotated cosines the solver's best Sturmian estimate matches
    the brute-force best periodic average."""
    T = make_linear_map(2)
    t0 = time.monotonic()
    bad = 0
    theta0_contains = False
    for i in range(32):
        theta = i / 32
        f = TrigPolynomial(cos_coeffs=[math.cos(2 * math.pi * theta)],
                           sin_coeffs=[math.sin(2 * math.pi * theta)])
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-12)
        intervals = solve_pre_sturmian(T, f, N, resolution=1e-12,
                                       grid_size=512)
        if not intervals:
            bad += 1
            continue
        best = _best_estimate(T, f, intervals, N)
        alpha, _ = orbit_oracle(T, f, 10)
        diff = abs(best.integral_of_f - alpha)
        tol = 1e-10 if best.periodic is not None else 1e-6
        bad += diff > tol
        if i == 0:
            res = 1e-12
            theta0_contains = any(
                zi.gamma_low - res <= 0.75 <= zi.gamma_high + res
                for zi in intervals)
    elapsed = time.monotonic() - t0
    ok = bad == 0 and theta0_contains and elapsed <= 300.0
    _report(7, ok, f"{bad}/32 oracle mismatches, gamma=3/4 located for the "
                   f"plain cosine: {theta0_contains}, {elapsed:.1f}s "
                   f"(budget 300s)")


def test_criterion_8_sign_conditions():
    """The bracket flowers of the solved Sturmian support have consistent
    functional signs for the demo functions."""
    T = make_linear_map(2)
    t0 = time.monotonic()
    ok = True
    for g in (0.05, 0.10, 0.15):
        f = demo_function(g)
        N = default_depth(f.lipschitz_constant(), 2.0, 1e-11)
        intervals = solve_pre_sturmian(T, f, N, resolution=1e-10,
                                       grid_size=512)
        best = _best_estimate(T, f, intervals, N)
        phi_minus, phi_plus, consistent = sign_conditions(T, f, best, N)
        ok = ok and consistent and phi_minus > 0.0 and phi_plus < 0.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 10.0
    _report(8, ok, f"sign brackets consistent for 3 demo parameters in "
                   f"{elapsed:.2f}s (budget 10s)")


def test_criterion_9_frequency_staircase():
    """The branch-1 coding frequency is a monotone staircase from 0 to 1
    over one period of the 1-flower family of the doubling map."""
    t0 = time.monotonic()
    gammas = [(0.75 + i / 512) % 1.0 for i in range(512)]
    freqs = branch_one_frequency_scan(2, gammas, 1000, 100000)
    steps = np.diff(freqs)
    worst_backstep = float(np.min(steps)) if len(steps) else 0.0
    elapsed = time.monotonic() - t0
    ok = (freqs[0] <= 1e-3 and freqs[-1] >= 0.99
          and worst_backstep >= -2e-4 and elapsed <= 120.0)
    _report(9, ok, f"frequency range [{freqs[0]:.4f}, {freqs[-1]:.4f}], "
                   f"worst backward step {worst_backstep:.1e} "
                   f"(tolerance 2e-4), {elapsed:.1f}s (budget 120s)")

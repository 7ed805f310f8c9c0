"""Independent oracles for the benchmark items.

Each check returns True only when the item's output is right.  They run
outside the timed interval and use closed forms, exact rational periodic
orbits of the doubling map and direct forward orbits, never the code path
that produced the output.
"""
from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from flowerflat import flatten


def demo_ok(gamma: float, values) -> bool:
    """Flattened demo function: 0 on the flower within 1e-10, and the
    closed form 1/4 - gamma/(1 - 2 gamma) at the exterior probe gamma+3/4
    (the last value)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return False
    deviation = float(np.max(np.abs(values[:-1])))
    formula = 0.25 - gamma / (1.0 - 2.0 * gamma)
    return deviation <= 1e-10 and abs(values[-1] - formula) <= 1e-10


def round_trip_ok(c: float, funcs, values, flat) -> bool:
    """f = c + psi o T - psi + h: every functional within its certificate,
    is_flat true and the recovered constant within 1e-8 of c."""
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        return False
    if any(abs(value) > err + 1e-10 for value, err in funcs):
        return False
    is_flat, constant, _ = flat
    return bool(is_flat) and abs(constant - c) <= 1e-8


def _trig(cos: Sequence[float], sin: Sequence[float], x: float) -> float:
    return sum(a * math.cos(2.0 * math.pi * j * x)
               + b * math.sin(2.0 * math.pi * j * x)
               for j, (a, b) in enumerate(zip(cos, sin), start=1))


def best_periodic_average(cos, sin, max_period: int) -> float:
    """Best average of the trig polynomial over the periodic orbits of the
    doubling map with period <= max_period.  The period-n points are
    j/(2^n - 1); each cycle is walked in integers and visited once, from
    its smallest numerator."""
    best = -math.inf
    for n in range(1, max_period + 1):
        den = 2 ** n - 1
        for j in range(den):
            cycle = [j]
            y = (2 * j) % den
            while y != j:
                if y < j:
                    break
                cycle.append(y)
                y = (2 * y) % den
            else:
                if len(cycle) == n:
                    avg = sum(_trig(cos, sin, m / den) for m in cycle) / n
                    best = max(best, avg)
    return best


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def solve_ok(exit_code, out_path: str, cos, sin, max_period: int) -> bool:
    """Exit 0, strict JSON without NaN, and the best Sturmian integral at
    least the best periodic average (equal to it when the certified period
    is <= max_period)."""
    if exit_code != 0:
        return False
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            report = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError):
        return False
    alpha = best_periodic_average(cos, sin, max_period)
    if abs(report["oracle"]["best_average"] - alpha) > 1e-12:
        return False
    sturmian = report["best_interval"]["sturmian"]
    integral = sturmian["integral"]
    if integral < alpha - 1e-10:
        return False
    period = sturmian["period"]
    if period is not None and period <= max_period:
        return abs(integral - alpha) <= 1e-10
    return True


def staircase_ok(freqs) -> bool:
    """Branch-1 frequency over one period: from <= 1e-3 up to >= 0.99 with
    no backward step below -2e-4."""
    freqs = np.asarray(freqs, dtype=float)
    if len(freqs) < 2 or not np.all(np.isfinite(freqs)):
        return False
    return (freqs[0] <= 1e-3 and freqs[-1] >= 0.99
            and float(np.min(np.diff(freqs))) >= -2e-4)


def _escape_count(F, arc, t: float, depth: int) -> int:
    """Number of n <= depth with t, ..., T^(n-1) t in F and T^n t in arc:
    the forward-orbit value of sum_n chi(tau^n arc) at t."""
    T = F.map
    x = t
    count = 0
    for _ in range(depth + 1):
        if arc.contains(x):
            count += 1
        if not F.contains(x):
            break
        x = T.apply(x)
    return count


def escape_ok(F, disc, escape, points, depth: int) -> bool:
    """The escape density agrees with the forward orbit at the points.

    For a 1-flower the arc is the petal and the density is the exit time,
    given by the library's escape_time_direct; for more petals the orbit
    count above is used."""
    got = escape.eval_many(np.asarray(points))
    for t, value in zip(points, got):
        if F.p == 1:
            exit_time = flatten.escape_time_direct(F, t, cap=depth + 1)
            want = depth + 1 if exit_time is None else min(exit_time,
                                                           depth + 1)
        else:
            want = _escape_count(F, disc.I, t, depth)
        if int(value) != want:
            return False
    return True


def flower_ok(F, rank, identity, escapes, points, depth: int) -> bool:
    """rank p + 1, the characteristic identity, and every escape density
    against the forward orbit."""
    got_rank, p = rank
    if p != F.p or got_rank != F.p + 1:
        return False
    if not identity[2]:
        return False
    return all(escape_ok(F, disc, esc, points, depth)
               for disc, esc in escapes)

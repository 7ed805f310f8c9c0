"""The EPS arc walk: a float reference for the closed forms, tests only.

Arcs are pushed through a pre-image selector piece by piece, split at the
discontinuity points with the endpoint tolerance EPS, and the flattening
functional sums the f-increments of the pieces level by level.  It is
independent of the selector-orbit kernel in ``flatten`` and ``solve``.

Depth limits: up to depth 18 no arc of the walk gets shorter than EPS.
Deeper, an arc shorter than EPS snaps back to the whole petal: on flowers
whose left end is periodic (T3's 1-flower at 1/2, 1/8 or 5/8) the walk
doubles the functional from depth 26 on.  A segment that starts 1 ulp
below a discontinuity shifts every later value of a batched phi walk by up
to 2e-9, so phi references are taken one point at a time.
"""
import numpy as np

from flowerflat.circle import EPS, reduce


def push_once(sel, arcs):
    """Apply tau to a disjoint union of closed arcs (as (left, right)
    pairs), splitting at the discontinuity points."""
    out = []
    for l, r in arcs:
        length = reduce(r - l)
        if length == 0.0 and l != r:
            length = 1.0
        cuts = [d for d in sel._disc
                if EPS < reduce(d - l) < length - EPS]
        cuts.sort(key=lambda d: reduce(d - l))
        endpoints = [l] + cuts + [r]
        for u, v in zip(endpoints, endpoints[1:]):
            sub_len = reduce(v - u)
            mid = reduce(u + sub_len / 2.0)
            j = sel._image_index(mid)
            petal_idx = sel._owner[j]
            w = sel._winding[petal_idx]
            # endpoint offsets are ambiguous at the image-arc ends: the
            # left endpoint of a sub-arc resolves to the start of the
            # arc, the right endpoint to its end
            off_u = reduce(u - sel._disc[j])
            if off_u >= w:
                off_u = 0.0 if off_u > (1.0 + w) / 2.0 else w
            off_v = reduce(v - sel._disc[j])
            if off_v <= EPS or off_v >= w:
                off_v = w
            out.append((sel._invert_offset(petal_idx, off_u),
                        sel._invert_offset(petal_idx, off_v)))
    return out


def walk_functional(sel, arc, f, N):
    """The truncated flattening functional of an arc: the sum over
    n <= N of the f-increments of the pieces of tau^n(arc)."""
    value = 0.0
    arcs = [(arc.left, arc.right)]
    for n in range(N + 1):
        if n > 0:
            arcs = push_once(sel, arcs)
        value += sum(f.eval(r) - f.eval(l) for l, r in arcs)
    return value


def walk_escape_counts(sel, arc, N, xs):
    """sum_{n<=N} chi(tau^n arc) at the points xs, counted from the
    walk's arcs (arc endpoints resolved to the closed side)."""
    starts, ends = [], []
    arcs = [(arc.left, arc.right)]
    for n in range(N + 1):
        if n > 0:
            arcs = push_once(sel, arcs)
        for l, r in arcs:
            if l <= r:
                starts.append(l)
                ends.append(r)
            else:
                starts.extend((l, 0.0))
                ends.extend((1.0, r))
    starts = np.sort(np.asarray(starts))
    ends = np.sort(np.asarray(ends))
    xs = np.asarray(xs)
    return (np.searchsorted(starts, xs, side="right")
            - np.searchsorted(ends, xs, side="left"))

"""Exact rational reference for the 1-flowers of the linear maps T_k.

The selector of the 1-flower [a, a + 1/k] of T_k maps x to
a + ((x - ka) mod 1)/k and jumps only at d = ka, where it takes the right
limit a.  An arc [l, l + L] without d inside maps to [tau(l), tau(l) + L/k]
(a right end at d goes to a + 1/k, the left limit), so the arcs of
tau^n [a, a + 1/k] are pushed here in exact ``Fraction`` arithmetic,
splitting only at d.  Any float gamma is an exact rational, so the
reference takes any float gamma, however close to a periodic parameter.
"""
from fractions import Fraction


def exact_phi(k, gamma, fs, depths):
    """Phi(gamma) = sum_{n=0..N} sum over the arcs [l, r] of tau^n [a, b]
    of f(r) - f(l), for every f in ``fs`` and every N in ``depths``: a
    list of rows, one per f, of the values at the depths."""
    a = Fraction(gamma) % 1
    d = (k * a) % 1
    arcs = [(a, Fraction(1, k))]  # (left end, length)
    levels = []  # per level, the float ends of its arcs
    for n in range(max(depths) + 1):
        levels.append([(float(l), float((l + L) % 1)) for l, L in arcs])
        pieces = []
        for l, L in arcs:
            cut = (d - l) % 1
            pieces += [(l, cut), (d, L - cut)] if 0 < cut < L else [(l, L)]
        arcs = [((a + ((l - k * a) % 1) / k) % 1, L / k) for l, L in pieces]
    rows = []
    for f in fs:
        sums = [sum(f.eval(r) - f.eval(l) for l, r in level)
                for level in levels]
        rows.append([sum(sums[:N + 1]) for N in depths])
    return rows

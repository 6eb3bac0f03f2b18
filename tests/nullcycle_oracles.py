"""Test oracles that check the package and that no command needs.

Pytest puts this directory on sys.path, so test modules import these by
plain module name.
"""

from fractions import Fraction

from serregraph.core import SerreGraph, require_regular
from serregraph.treewalk import tables_for


def sampler_distribution(g: SerreGraph, root: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """The sampler's induced distribution, computed symbolically by walking
    every branch and multiplying exact step probabilities."""
    d = require_regular(g)
    if n % 2:
        raise ValueError("nullcycles have even length")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u = tables_for(d, max(n, 2)).u
    dst, inv = g.dst, g.inv
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(v, stack, prefix, prob):
        j = len(prefix)
        m = n - j
        if m == 0:
            out[tuple(prefix)] = prob
            return
        k = len(stack)
        total = u[m][k]
        if k == 0:
            w = Fraction(u[m - 1][1], total)
            for e in g.out_edges(v):
                rec(dst[e], stack + [e], prefix + [e], prob * w)
        else:
            back = inv[stack[-1]]
            pdown = Fraction(u[m - 1][k - 1], total)
            if pdown:
                rec(dst[back], stack[:-1], prefix + [back], prob * pdown)
            wup = Fraction(u[m - 1][k + 1], total)
            if wup:
                for e in g.out_edges(v):
                    if e != back:
                        rec(dst[e], stack + [e], prefix + [e], prob * wup)

    rec(root, [], [], Fraction(1))
    return out

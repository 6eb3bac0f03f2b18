"""Exact comparison helpers.

Inequality verdicts must never flip because of floating-point drift. The
helpers here compare exact rationals, squaring away the single square root
that appears in 2*sqrt(d-1)/d.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rho_squared(d: int) -> Fraction:
    """Square of 2*sqrt(d-1)/d as an exact rational."""
    if d < 1:
        raise ValueError("degree must be positive")
    return Fraction(4 * (d - 1), d * d)


def rho_tree(d: int) -> float:
    """2*sqrt(d-1)/d in float."""
    return 2.0 * math.sqrt(d - 1) / d


def cmp_ratio_bound(r: Fraction, coef: Fraction, d: int, n: int) -> int:
    """Sign of r - coef * rho^n * n^(-3/2), exactly.

    r and coef must be nonnegative. Both sides are nonnegative, so comparing
    squares is equivalent: sign(r^2 * n^3 - coef^2 * rho^(2n)).
    """
    if r < 0 or coef < 0:
        raise ValueError("both quantities must be nonnegative")
    lhs = r * r * n ** 3
    rhs = coef * coef * rho_squared(d) ** n
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def frac_str(q: Fraction) -> str:
    """Stable decimal-free rendering, "p/q" or "p" for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

"""Counts of nontrivial closed walks and essential-girth profiles.

A "nontrivial k-cycle" here is a rooted, directed closed k-walk whose
classification (see nullcycles.classify_cycle) is nontrivial: some directed
edge is traversed a different number of times than its reverse, or a
half-loop is traversed at all. Rooted-directed counting makes the density
gamma(G, k) equal to the vertex average of the per-root counts by
construction; unrooted conventions would differ by a factor up to 2k.

Every count is exact, and the census is linear in |G| for fixed k. It
counts the unbalanced closed walks core._unbalanced_words yields at each
root, and the walker behind it never leaves the radius-floor(k/2) ball of its
root: a walk that has taken s steps is at most s from the root and must get
back in the k - s left. One a-priori check, dmax^k <= ENUM_BUDGET, bounds
the walker at every root; past it the census raises. A root with tree radius
t(v) >= floor(k/2) (core.tree_radius) counts 0 with no walk enumerated: its
closed k-walks stay in a tree ball, where they are balanced. The
essential-girth profile is the histogram of t: its count at r is
#{v : t(v) >= r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import SerreGraph, _unbalanced_words, tree_radius
from .exact import frac_str

ENUM_BUDGET = 10 ** 8


def _check_budget(g: SerreGraph, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    dmax = max(g.degrees, default=0)
    if dmax ** k > ENUM_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {dmax}^{k} > {ENUM_BUDGET} "
                         "= census.ENUM_BUDGET")


def _count(g: SerreGraph, v: int, k: int) -> int:
    # _check_budget bounds the enumeration a priori, so the walker runs uncapped
    return sum(1 for _ in _unbalanced_words(g, v, k, math.inf))


def gamma_k(g: SerreGraph, v: int, k: int) -> int:
    """Number of nontrivial closed k-walks starting at v (exact enumeration)."""
    _check_budget(g, k)
    return _count(g, v, k)


@dataclass(frozen=True)
class CycleCensus:
    k: int
    per_vertex: tuple[int, ...]
    total: int
    density: Fraction

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "total": self.total,
            "density": float(self.density),
            "density_exact": frac_str(self.density),
            "max_per_vertex": max(self.per_vertex),
            "min_per_vertex": min(self.per_vertex),
        }


def cycle_census(g: SerreGraph, k: int) -> CycleCensus:
    _check_budget(g, k)
    if not g.nv:
        raise ValueError("graph has no vertices")
    per = tuple(_count(g, v, k) for v in range(g.nv))
    total = sum(per)
    return CycleCensus(k=k, per_vertex=per, total=total, density=Fraction(total, g.nv))


# -- essential girth --------------------------------------------------------------


@dataclass(frozen=True)
class EssentialGirthProfile:
    """Fraction of vertices whose radius-r ball is a loop-free tree, r=1..rmax.

    The profile is expected to stay near 1 up to radius
    bounds.essential_girth_beta(d) * log(log|G|).
    """

    rmax: int
    tree_counts: tuple[int, ...]
    fractions: tuple[Fraction, ...]


def essential_girth_profile(g: SerreGraph, rmax: int) -> EssentialGirthProfile:
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    t = [tree_radius(g, v, rmax) for v in range(g.nv)]
    counts = [sum(x >= r for x in t) for r in range(1, rmax + 1)]
    fracs = tuple(Fraction(c, g.nv) for c in counts)
    return EssentialGirthProfile(rmax=rmax, tree_counts=tuple(counts), fractions=fracs)

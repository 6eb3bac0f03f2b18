"""Counts of nontrivial closed walks and essential-girth profiles.

A "nontrivial k-cycle" here is a rooted, directed closed k-walk whose
classification (see nullcycles.classify_cycle) is nontrivial: some directed
edge is traversed a different number of times than its reverse, or a
half-loop is traversed at all. Rooted-directed counting makes the density
gamma(G, k) equal to the vertex average of the per-root counts by
construction; unrooted conventions would differ by a factor up to 2k.

The census is linear in |G| for fixed k. It counts the unbalanced closed
walks core._unbalanced_words yields at each root, and the walker behind it
never leaves the radius-floor(k/2) ball of its root: a walk that has taken s
steps is at most s from the root and must get back in the k - s left. The
degree budget is checked once per census rather than once per root, and
bounds the walker a priori. A root with tree radius t(v) >= floor(k/2)
(core.tree_radius) counts 0 with no walk enumerated: its closed k-walks stay
in a tree ball, where they are balanced. The essential-girth profile is the
histogram of t: its count at r is #{v : t(v) >= r}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import SerreGraph, _check_vertex, _unbalanced_edge, _unbalanced_words, tree_radius
from .exact import frac_str

ENUM_BUDGET = 10 ** 8


def _check_budget(g: SerreGraph, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    dmax = max(g.degrees, default=0)
    if dmax ** k > ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {dmax}^{k} > {ENUM_BUDGET}; "
            "use census.gamma_k_mc for a Monte Carlo estimate"
        )


def _count(g: SerreGraph, v: int, k: int) -> int:
    # _check_budget bounds the enumeration a priori, so the walker runs uncapped
    return sum(1 for _ in _unbalanced_words(g, v, k, math.inf))


def gamma_k(g: SerreGraph, v: int, k: int) -> int:
    """Number of nontrivial closed k-walks starting at v (exact enumeration)."""
    _check_budget(g, k)
    return _count(g, v, k)


def gamma_k_mc(g: SerreGraph, v: int, k: int, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of gamma_k for budgets enumeration cannot cover.

    Samples k-step walks from v, each step uniform over the current vertex's
    out-edges, and weights each nontrivial closed walk by the product of the
    out-degrees along it, its inverse probability (d^k on a d-regular graph).
    A root with no edges has no nontrivial closed walk and reads 0.0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_vertex(g, v)
    if not g.degree(v):
        return 0.0
    scale, dst = g.degree(v) ** k, g.dst
    rng = random.Random(seed)
    weight = 0
    for _ in range(samples):
        u, w = v, 1
        edges = []
        for _ in range(k):
            out = g.out_edges(u)
            e = rng.choice(out)
            w *= len(out)
            edges.append(e)
            u = dst[e]
        if u == v and _unbalanced_edge(g, edges) is not None:
            weight += w
    # one rounding, then the rescale: hits / samples * d^k bit for bit when d-regular
    return weight / (samples * scale) * scale


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

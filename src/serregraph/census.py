"""Counts of nontrivial closed walks and essential-girth profiles.

A "nontrivial k-cycle" here is a rooted, directed closed k-walk whose
classification (see nullcycles.classify_cycle) is nontrivial: some directed
edge is traversed a different number of times than its reverse, or a
half-loop is traversed at all. Rooted-directed counting makes the density
gamma(G, k) equal to the vertex average of the per-root counts by
construction; unrooted conventions would differ by a factor up to 2k.

The census is linear in |G| for fixed k: every vertex a counted walk can
enter lies within floor(k/2) of its root, since a walk that has taken s
steps is at most s from the root and must get back in the k - s left. So
the distance map each root's DFS prunes with is a BFS capped at that radius,
and the degree budget is checked once per census rather than once per root.
A root with tree radius t(v) >= floor(k/2) (core.tree_radius) counts 0 with
no DFS: its closed k-walks stay in a tree ball, where they are balanced. The
essential-girth profile is the histogram of t: its count at r is #{v : t(v) >= r}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import SerreGraph, distances_from, tree_radius, validate

ENUM_BUDGET = 10 ** 8


def _count_closed_nontrivial(g: SerreGraph, v: int, k: int) -> int:
    # DFS over k-step walks from v that can still return in time.
    # Balance state is maintained incrementally: `unbal` counts inverse
    # pairs with unequal traversal counts, `hl` counts half-loop steps.
    # The BFS stops at radius k // 2 and loses nothing: a step to w at step
    # s+1 is kept only if dist(w) <= k-s-1, and dist(w) <= s+1 always holds,
    # so every vertex the DFS enters has 2 dist(w) <= k. A vertex missing
    # from the capped map lies beyond k // 2 and would be pruned anyway.
    dist = distances_from(g, v, cap=k // 2)
    inv = g.inv
    counts: dict[int, int] = {}
    total = 0
    unbal = 0
    hl = 0

    def go(u: int, left: int) -> None:
        nonlocal total, unbal, hl
        if left == 0:
            if u == v and (unbal or hl):
                total += 1
            return
        for e in g.out_edges(u):
            w = g.dst[e]
            dw = dist.get(w)
            if dw is None or dw > left - 1:
                continue
            ei = inv[e]
            if ei == e:
                hl += 1
            else:
                key = min(e, ei)
                delta = 1 if e <= ei else -1
                before = counts.get(key, 0)
                counts[key] = before + delta
                unbal += (before + delta != 0) - (before != 0)
            go(w, left - 1)
            if ei == e:
                hl -= 1
            else:
                after = counts[key] - delta
                counts[key] = after
                unbal += (after != 0) - (after + delta != 0)
        return

    go(v, k)
    assert not counts or all(c == 0 for c in counts.values())
    return total


def _check_budget(g: SerreGraph, k: int, budget: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    dmax = max(g.degrees, default=0)
    if dmax ** k > budget:
        raise ValueError(
            f"enumeration budget exceeded: {dmax}^{k} > {budget}; "
            "use gamma_k_mc (CLI flag --mc) for a Monte Carlo estimate"
        )


def gamma_k(g: SerreGraph, v: int, k: int, budget: int = ENUM_BUDGET) -> int:
    """Number of nontrivial closed k-walks starting at v (exact enumeration)."""
    _check_budget(g, k, budget)
    return _count_closed_nontrivial(g, v, k)


def gamma_k_mc(g: SerreGraph, v: int, k: int, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of gamma_k for budgets enumeration cannot cover.

    Samples uniform k-step walks from v (d-regular, so d^k walks total) and
    rescales the hit fraction.
    """
    from .nullcycles import classify_cycle
    from .core import Walk

    d = g.degree(v)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        u = v
        edges = []
        for _ in range(k):
            e = rng.choice(g.out_edges(u))
            edges.append(e)
            u = g.dst[e]
        if u == v and not classify_cycle(g, Walk(v, tuple(edges))).trivial:
            hits += 1
    return hits / samples * d ** k


@dataclass(frozen=True)
class CycleCensus:
    k: int
    per_vertex: tuple[int, ...]
    total: int
    density: Fraction
    mean: Fraction

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "total": self.total,
            "density": float(self.density),
            "density_exact": f"{self.density.numerator}/{self.density.denominator}",
            "max_per_vertex": max(self.per_vertex),
            "min_per_vertex": min(self.per_vertex),
        }


def cycle_census(g: SerreGraph, k: int, budget: int = ENUM_BUDGET) -> CycleCensus:
    _check_budget(g, k, budget)
    per = tuple(0 if tree_radius(g, v, k // 2) == k // 2 else _count_closed_nontrivial(g, v, k)
                for v in range(g.nv))
    total = sum(per)
    density = Fraction(total, g.nv)
    return CycleCensus(k=k, per_vertex=per, total=total, density=density, mean=density)


# -- essential girth --------------------------------------------------------------


@dataclass(frozen=True)
class EssentialGirthProfile:
    """Fraction of vertices whose radius-r ball is a loop-free tree, r=1..rmax.

    beta and threshold describe the regime where the profile is expected to
    stay near 1: radius up to beta*log(log|G|) with beta = 1/(30 log(d-1)).
    Both are None when the graph is not regular of degree >= 3 or is too
    small for the iterated log.
    """

    rmax: int
    tree_counts: tuple[int, ...]
    fractions: tuple[Fraction, ...]
    beta: float | None
    threshold: float | None

    def to_dict(self) -> dict:
        return {
            "rmax": self.rmax,
            "fractions": [float(f) for f in self.fractions],
            "beta": self.beta,
            "threshold_radius": self.threshold,
        }


def essential_girth_beta(d: int) -> float:
    if d < 3:
        raise ValueError("d must be >= 3")
    return 1.0 / (30.0 * math.log(d - 1))


def essential_girth_profile(g: SerreGraph, rmax: int) -> EssentialGirthProfile:
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    t = [tree_radius(g, v, rmax) for v in range(g.nv)]
    counts = [sum(x >= r for x in t) for r in range(1, rmax + 1)]
    fracs = tuple(Fraction(c, g.nv) for c in counts)
    d = validate(g).regular_degree
    beta = threshold = None
    if d is not None and d >= 3:
        beta = essential_girth_beta(d)
        if g.nv >= 2 and math.log(g.nv) > 1.0:
            threshold = beta * math.log(math.log(g.nv))
    return EssentialGirthProfile(
        rmax=rmax,
        tree_counts=tuple(counts),
        fractions=fracs,
        beta=beta,
        threshold=threshold,
    )

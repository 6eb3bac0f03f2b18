"""Local-limit diagnostics and the random-regular experiment fleet.

Ties together three views of "looks like the d-regular tree": vanishing
cycle densities, pattern histograms concentrating on the tree pattern, and
the eigenvalue distribution approaching the Kesten-McKay measure. The
diagnostic report puts the three columns side by side; their joint monotone
trend on growing random graphs is the finite shadow of the equivalence.
tv_tree is 1 - #{v : t(v) >= r}/n (t from core.tree_radius): on a d-regular
graph a ball has the tree pattern exactly when it is a tree. bs_histogram is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .census import cycle_census
from .core import SerreGraph, from_edges, require_regular, tree_radius
from .exact import rho_tree
from .patterns import Pattern, pattern, tree_pattern
from .spectral import markov_spectrum

__all__ = [
    "PatternHistogram",
    "bs_histogram",
    "configuration_model",
    "planted_triangle_graph",
    "tree_pattern_tv",
    "km_density",
    "km_w1",
    "EkvivalensRow",
    "ekvivalens_diagnostic",
]

KM_GRID = 4001  # points of the [-1, 1] grid km_w1 integrates the CDF gap on


@dataclass
class PatternHistogram:
    radius: int
    freq: dict[Pattern, Fraction]

    def total(self) -> Fraction:
        return sum(self.freq.values(), Fraction(0))


def bs_histogram(g: SerreGraph, r: int) -> PatternHistogram:
    """Exact r-ball pattern frequencies over a full vertex sweep."""
    counts: dict[Pattern, int] = {}
    for v in range(g.nv):
        p = pattern(g, v, r)
        counts[p] = counts.get(p, 0) + 1
    freq = {p: Fraction(c, g.nv) for p, c in counts.items()}
    hist = PatternHistogram(radius=r, freq=freq)
    assert hist.total() == 1
    return hist


def tree_pattern_tv(hist: PatternHistogram, d: int) -> Fraction:
    """Total variation distance from the point mass at the tree pattern."""
    return 1 - hist.freq.get(tree_pattern(d, hist.radius), Fraction(0))


# -- random regular graphs ----------------------------------------------------


def configuration_model(d: int, n: int, seed: int = 0) -> SerreGraph:
    """Uniform perfect matching on d*n half-edges; multi-edges kept, a
    matched pair inside one vertex becomes a full loop (an inverse id pair)."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if (d * n) % 2:
        raise ValueError("d*n must be even")
    rng = np.random.default_rng(seed)
    # half-edges 2j and 2j+1 of the permutation are matched: edge 2j runs
    # from the vertex of the first to that of the second, 2j+1 back
    src = rng.permutation(d * n) // d
    dst = src.reshape(-1, 2)[:, ::-1].ravel()
    inv = np.arange(d * n) ^ 1
    return SerreGraph(n, src, dst, inv, name=f"cfg(d={d},n={n},seed={seed})")


def planted_triangle_graph(d: int, n: int, eps: float, seed: int = 0) -> SerreGraph:
    """Random d-regular graph with floor(eps*n) vertex-disjoint forced
    triangles; the remaining half-edges are matched uniformly."""
    if d < 3:
        raise ValueError("d must be >= 3")
    t = int(eps * n)
    if 3 * t > n:
        raise ValueError("eps too large: 3*floor(eps*n) exceeds n")
    stubs = []
    pairs = []
    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(n)]
    tri = perm[: 3 * t]
    for i in range(0, 3 * t, 3):
        a, b, c = tri[i], tri[i + 1], tri[i + 2]
        pairs += [(a, b), (b, c), (c, a)]
        stubs += [a, b, c] * (d - 2)
    for v in perm[3 * t :]:
        stubs += [v] * d
    if len(stubs) % 2:
        raise ValueError("d*n must be even")
    order = rng.permutation(len(stubs))
    for j in range(0, len(stubs), 2):
        pairs.append((stubs[int(order[j])], stubs[int(order[j + 1])]))
    return from_edges(n, pairs, name=f"planted(d={d},n={n},eps={eps},seed={seed})")


# -- Kesten-McKay comparison ---------------------------------------------------


def km_density(x, d: int):
    """Density of the spectral measure of the d-regular tree at x."""
    x = np.asarray(x, dtype=float)
    r2 = rho_tree(d) ** 2
    val = np.zeros_like(x)
    inside = (x * x < r2) & (np.abs(x) < 1.0)
    xi = x[inside]
    val[inside] = d / (2 * math.pi) * np.sqrt(r2 - xi * xi) / (1 - xi * xi)
    return val


def km_w1(eigenvalues, d: int) -> float:
    """Wasserstein-1 distance between an empirical eigenvalue distribution
    and the tree measure, as the integrated CDF gap on [-1, 1] sampled at
    KM_GRID points."""
    xs = np.linspace(-1.0, 1.0, KM_GRID)
    if d == 1:  # T_1 is K2: the measure (delta_-1 + delta_1)/2 has no density
        cdf_km = np.where(xs < 1.0, 0.5, 1.0)
    else:
        pdf = km_density(xs, d)
        cdf_km = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xs))])
        cdf_km = np.minimum(cdf_km / cdf_km[-1], 1.0)
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    cdf_g = np.searchsorted(ev, xs, side="right") / len(ev)
    return float(np.trapezoid(np.abs(cdf_g - cdf_km), xs))


# -- the three-column diagnostic ------------------------------------------------


@dataclass
class EkvivalensRow:
    label: str
    nv: int
    cycle_densities: tuple[Fraction, ...]
    tv_tree: Fraction
    w1_km: float


def ekvivalens_diagnostic(graphs, r: int, kmax: int, labels=None) -> list[EkvivalensRow]:
    """Per graph: nontrivial-cycle densities for k <= kmax, TV distance of
    the r-ball histogram from the tree point mass, and W1 distance of the
    eigenvalue distribution from the tree measure."""
    graphs = list(graphs)
    if labels is None:
        labels = [g.name or f"graph{i}" for i, g in enumerate(graphs)]
    rows = []
    for g, label in zip(graphs, labels):
        d = require_regular(g)
        dens = tuple(cycle_census(g, k).density for k in range(1, kmax + 1))
        tv = 1 - Fraction(sum(tree_radius(g, v, r) == r for v in range(g.nv)), g.nv)
        summ = markov_spectrum(g)
        rows.append(
            EkvivalensRow(
                label=label,
                nv=g.nv,
                cycle_densities=dens,
                tv_tree=tv,
                w1_km=km_w1(summ.eigenvalues, d),
            )
        )
    return rows

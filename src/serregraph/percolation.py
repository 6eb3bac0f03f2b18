"""Supercritical site percolation windows and cover sphere growth.

A window draws one seeded open mask and finds the connected cluster of the
central origin by a frontier-array BFS, level by level, numbering the
vertices in BFS discovery order. The ball of radius r about the origin is
then a prefix of the ids, and the window builds it as a SerreGraph on
demand; the whole cluster is the ball at the cluster's depth, built on first
read. The cluster's universal cover has sphere sizes equal to
non-backtracking path counts from the root, counted exactly by the
edge-indexed walk kernel of core. A path of length n <= nmax never leaves
the radius-nmax ball, so growth counts run on that ball alone; regularizing
with half-loops to degree 4 would not change them either, since half-loops
do not move in the cover. The tail of |S_n|^(1/n) is the finite stand-in
for the lower growth of the infinite cluster's cover.

The mask's uniforms are numpy's PCG64 stream seeded through SeedSequence,
the stream of np.random.Generator(np.random.PCG64(seed)).random, reproduced
bit for bit here in integer arithmetic: importing numpy.random would load
its extension modules and, through secrets and hashlib, OpenSSL. One stream
serves every p, so windows at one seed are coupled in p through shared
uniforms.

Finite windows clip the infinite cluster. Counts at radius n are unbiased
only while the metric ball stays off the window border, so every growth
estimate carries a boundary_clean flag instead of silently mixing clipped
and clean radii.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SerreGraph, _edge_arrays, _walk_inflows

__all__ = [
    "PercolationWindow",
    "percolate",
    "cover_sphere_sizes",
    "GrowthEstimate",
    "lower_growth_estimate",
    "window_growth",
]


@dataclass(frozen=True)
class PercolationWindow:
    """Open mask plus the origin cluster, kept as BFS-ordered lattice cells.

    cell_x and cell_y are the lattice coordinates of the cluster vertices,
    numbered in BFS order from the origin (vertex 0), and level_ends[r] is
    the number of them within cluster distance r, for r up to the cluster's
    depth (a single 0 when the origin is closed). ball(r) is the induced
    lattice subgraph on the first level_ends[r] vertices; cluster is the
    whole of it, built on first read and kept. border_distance is the
    cluster-metric distance from the origin to the nearest cluster vertex on
    the window edge, None when the cluster stays interior (then it is the
    whole lattice component, nothing was cut).
    """

    width: int
    height: int
    p: float
    seed: int
    open_mask: np.ndarray
    cluster_root: int
    cell_x: np.ndarray
    cell_y: np.ndarray
    border_distance: int | None
    level_ends: np.ndarray

    def ball(self, r: int) -> SerreGraph:
        """The cluster's ball of radius r about the origin, with the
        cluster's vertex ids and the cluster's relative edge order: each
        lattice edge once, from (x, y) to (x+1, y) and then to (x, y+1),
        followed by its inverse."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        nv = int(self.level_ends[min(r, self.level_ends.size - 1)])
        x, y = self.cell_x[:nv], self.cell_y[:nv]
        # ids on the window plus one closed row and column past its far edges;
        # nv marks a cell outside the ball
        ids = np.full((self.width + 1, self.height + 1), nv)
        ids[x, y] = np.arange(nv)
        ends = np.stack([ids[x + 1, y], ids[x, y + 1]], axis=1)
        has = ends < nv
        u = np.repeat(np.arange(nv), 2)[has.ravel()]
        w = ends[has]
        src = np.stack([u, w], axis=1).ravel()
        dst = np.stack([w, u], axis=1).ravel()
        inv = np.arange(src.size) ^ 1
        name = "cluster" if nv == self.cell_x.size else f"ball r={r}"
        return SerreGraph(nv, src, dst, inv, name=f"percolation-{name} p={self.p}")

    @cached_property
    def cluster(self) -> SerreGraph:
        """The whole origin cluster, built on first access and kept."""
        return self.ball(self.level_ends.size - 1)

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """(x, y) of each cluster vertex, built on first access and kept."""
        return tuple(zip(self.cell_x.tolist(), self.cell_y.tolist()))

    @property
    def cluster_size(self) -> int:
        return len(self.cell_x)

    @property
    def density(self) -> float:
        return len(self.cell_x) / (self.width * self.height)

    @property
    def reaches_boundary(self) -> bool:
        return self.border_distance is not None

    def boundary_clean(self, n: int) -> bool:
        """True when no radius-n count can feel the window cut."""
        return self.border_distance is None or n < self.border_distance


# numpy's SeedSequence hash constants and the PCG64 (128-bit LCG, XSL-RR
# output) multiplier, M. E. O'Neill, HMC-CS-2014-0905
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# lanes of the vectorized stream: draw i of the mask is lane i % _BLOCK
_BLOCK = 4096


def _pcg64_start(seed: int) -> tuple[int, int]:
    """(state, increment) of numpy's PCG64(SeedSequence(seed)) before its
    first draw: the 32-bit words of seed, least significant first, hashed
    into a pool of four words and expanded to a 128-bit seed and stream."""

    def hasher(const, mult):
        def hash32(value):
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16

        return hash32

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in words[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(word))
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    # word pairs make uint64s, low word first; the first uint64 of each 128-bit
    # number is its high half
    start = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 & _M128 | 1
    return ((inc + start) * _PCG_MULT + inc) & _M128, inc


def _jump(lo: np.ndarray, hi: np.ndarray, mult: int, incr: int):
    """s -> mult*s + incr mod 2**128 on every lane, s = hi*2**64 + lo in
    uint64 halves; top, the high word of lo times mult's low word, is built
    from 32-bit pieces."""
    c32, m32 = np.uint64(32), np.uint64(_M32)
    m_lo, m_hi = np.uint64(mult & _M64), np.uint64(mult >> 64)
    i_lo, i_hi = np.uint64(incr & _M64), np.uint64(incr >> 64)
    a0, a1, b0, b1 = lo & m32, lo >> c32, m_lo & m32, m_lo >> c32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> c32) + (p01 & m32) + (p10 & m32)
    top = a1 * b1 + (p01 >> c32) + (p10 >> c32) + (mid >> c32)
    new_lo = lo * m_lo + i_lo
    return new_lo, top + lo * m_hi + hi * m_lo + i_hi + (new_lo < i_lo)


def _open_mask(width: int, height: int, p: float, seed: int) -> np.ndarray:
    """The (width, height) bool mask of uniforms below p, uniform i being
    (x >> 11) * 2**-53 for the i-th 64-bit PCG64 output x, in C order.

    The lanes start as draw 0 and double by jumps until a block is full
    (mult, incr always jump by the lane count); each further block is one
    jump of every lane, so no (width, height) float array is built."""
    n = width * height
    state, inc = _pcg64_start(seed)
    state = (state * _PCG_MULT + inc) & _M128
    lo, hi = np.array([state & _M64], np.uint64), np.array([state >> 64], np.uint64)
    mult, incr = _PCG_MULT, inc
    while lo.size < min(n, _BLOCK):
        more_lo, more_hi = _jump(lo, hi, mult, incr)
        lo, hi = np.concatenate((lo, more_lo)), np.concatenate((hi, more_hi))
        mult, incr = mult * mult & _M128, incr * (mult + 1) & _M128
    limit = p * 2.0**53  # exact, and (x >> 11) < 2**53 converts exactly
    mask = np.empty(n, dtype=bool)
    for start in range(0, n, lo.size):
        if start:
            lo, hi = _jump(lo, hi, mult, incr)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        mask[start : start + lo.size] = (x >> np.uint64(11))[: n - start] < limit
    return mask.reshape(width, height)


def percolate(width: int, height: int, p: float, seed: int) -> PercolationWindow:
    """Seeded window, open i.i.d. with probability p, origin cluster by BFS.

    Cell (x, y) is open when draw x*height + y of numpy's SeedSequence(seed)
    -> PCG64 stream of uniforms is below p, bit for bit the mask of
    np.random.Generator(np.random.PCG64(seed)).random((width, height)) < p,
    drawn without numpy.random. One stream drives the whole mask, so windows
    at the same seed and growing p are coupled through shared uniforms:
    raising p only ever adds open vertices, and the cluster never shrinks.
    """
    if width < 1 or height < 1:
        raise ValueError("window must be at least 1x1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    mask = _open_mask(width, height, p, operator.index(seed))
    ox, oy = width // 2, height // 2

    if not mask[ox, oy]:
        no_cells = np.zeros(0, dtype=np.int64)
        return PercolationWindow(width, height, p, seed, mask, -1, no_cells, no_cells, None,
                                 np.zeros(1, dtype=np.int64))

    # frontier-array BFS on the mask padded with closed cells and flattened:
    # (x, y) is i = (x+1)*h + y+1; (x-1,y), (x+1,y), (x,y-1), (x,y+1) are i-h, i+h, i-1, i+1
    h = height + 2
    fresh = np.pad(mask, 1).ravel()  # open cells the BFS has not reached
    frontier = np.array([(ox + 1) * h + oy + 1])
    levels = []
    while frontier.size:
        fresh[frontier] = False
        levels.append(frontier)
        near = (frontier[:, None] + np.array([-h, h, -1, 1])).ravel()
        near = near[fresh[near]]
        # a FIFO queue discovers the new cells in the order of their first
        # proposal, which fixes the vertex ids
        _, first = np.unique(near, return_index=True)
        frontier = near[np.sort(first)]
    cells = np.concatenate(levels)
    x, y = cells // h - 1, cells % h - 1
    level_ends = np.cumsum([f.size for f in levels])

    # vertex ids follow BFS order, so the first border vertex is a nearest one
    on_border = (x == 0) | (x == width - 1) | (y == 0) | (y == height - 1)
    border = None
    if on_border.any():
        border = int(np.searchsorted(level_ends, on_border.argmax(), side="right"))
    return PercolationWindow(width, height, p, seed, mask, 0, x, y, border, level_ends)


def cover_sphere_sizes(g: SerreGraph, root: int, nmax: int) -> list[int]:
    """|S_n| of the universal cover for n <= nmax: non-backtracking paths.

    Cover vertices at distance n over the root's lift are exactly the
    reduced length-n paths out of the root. Half-loops are never stepped:
    they do not move in the cover, which keeps tree inputs and clusters
    regularized with half-loops on the same footing, so the count runs on
    the graph without them (on the graph's own arrays when it has none, as a
    percolation cluster never does). Counts are exact, in uint64 while the
    d(d-1)^(n-1) cap fits and in Python ints after that.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    edges = src, dst, inv = _edge_arrays(g)
    keep = inv != np.arange(g.ne)
    if not keep.all():
        renumber = np.cumsum(keep) - 1
        edges = (src[keep], dst[keep], renumber[inv[keep]])
    return [int(c.sum()) for c in _walk_inflows(g.nv, edges, root, nmax, reduced=True)]


def _log_big(x: int) -> float:
    bits = x.bit_length()
    if bits <= 1000:
        return math.log(x)
    shift = bits - 53
    return math.log(x >> shift) + shift * math.log(2)


@dataclass(frozen=True)
class GrowthEstimate:
    """Tail minimum of |S_n|^(1/n) as the finite proxy for lower growth,
    with the sphere sizes it was taken from."""

    value: float
    tail_start: int
    rates: tuple[float, ...]
    boundary_clean: bool
    sizes: tuple[int, ...]


def lower_growth_estimate(
    sizes, tail_fraction: float = 0.25, *, boundary_clean: bool = True
) -> GrowthEstimate:
    """min over the last ceil(tail_fraction * nmax) radii of |S_n|^(1/n).

    sizes[0] is |S_0| = 1 and takes no part; a sphere that died gives rate
    0, which then floors the estimate, as a truncated or thin cluster
    should.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need sphere sizes out to radius 1 at least")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    rates = tuple(
        math.exp(_log_big(s) / n) if s > 0 else 0.0
        for n, s in enumerate(sizes[1:], start=1)
    )
    nmax = len(rates)
    tail_start = nmax - math.ceil(tail_fraction * nmax) + 1
    value = min(rates[tail_start - 1 :])
    return GrowthEstimate(value, tail_start, rates, boundary_clean, tuple(sizes))


def window_growth(
    window: PercolationWindow, nmax: int, tail_fraction: float = 0.25
) -> GrowthEstimate:
    """Estimate the cover growth of the window's cluster.

    The count runs on the cluster's radius-nmax ball about the origin, which
    holds every path of length n <= nmax out of it, so the sphere sizes are
    the whole cluster's; the whole cluster is never built. Regularizing it
    to degree 4 with half-loops would leave every sphere size unchanged too.
    """
    if window.cluster_root < 0:
        raise ValueError("origin closed: empty cluster has no cover")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    sizes = cover_sphere_sizes(window.ball(nmax), window.cluster_root, nmax)
    return lower_growth_estimate(
        sizes, tail_fraction, boundary_clean=window.boundary_clean(nmax)
    )

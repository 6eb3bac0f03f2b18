"""Reference computations that check benchmark job outputs.

Nothing here imports serregraph: every value is recomputed from the
generated input files (or the window seed) with NumPy/SciPy, by routes that
differ from the library's where one exists: sparse ARPACK instead of dense
LAPACK, trace identities instead of the walk-enumerating census, an ndimage
labelling and a boolean wavefront instead of the percolation BFS, and
non-backtracking counts on the lattice grid instead of on the regularized
cluster's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy import ndimage


@dataclass(frozen=True)
class Graph:
    nv: int
    src: np.ndarray
    dst: np.ndarray
    inv: np.ndarray

    @property
    def ne(self) -> int:
        return len(self.src)

    def regular_degree(self) -> int:
        deg = np.bincount(self.src, minlength=self.nv)
        if not (deg == deg[0]).all():
            raise ValueError("reference graph is not regular")
        return int(deg[0])

    def adjacency(self) -> sp.csr_matrix:
        """A[u, v] = number of directed edges u -> v (float64, duplicates summed)."""
        ones = np.ones(self.ne)
        return sp.csr_matrix((ones, (self.src, self.dst)), shape=(self.nv, self.nv))


def read_sgf(path) -> Graph:
    """Minimal reader for the 'sgf 1 <nv> <ne>' / 'e <id> <src> <dst> <inv>' format."""
    rows = []
    nv = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "sgf":
                nv = int(parts[2])
            else:
                rows.append((int(parts[2]), int(parts[3]), int(parts[4])))
    if nv is None:
        raise ValueError(f"{path}: no sgf header")
    arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return Graph(nv, arr[:, 0], arr[:, 1], arr[:, 2])


# -- cycle counts by trace identities -------------------------------------------


def nontrivial_closed_totals(g: Graph) -> dict[int, int]:
    """Summed nontrivial closed k-walk counts for k = 1, 2, 3.

    Odd walks never cancel to the empty word, so every closed 3-walk counts;
    the only trivial 2-walks are e then inv(e) for e not a half-loop.
    """
    A = g.adjacency()
    half = int((g.inv == np.arange(g.ne)).sum())
    return {
        1: int((g.src == g.dst).sum()),
        2: int(round(A.multiply(A).sum())) - (g.ne - half),
        3: int(round((A @ A).multiply(A).sum())),
    }


def nontrivial_closed_at(g: Graph, v: int, k: int) -> int:
    """The same count at a single root v (k <= 3)."""
    A = g.adjacency()
    out = g.src == v
    if k == 1:
        return int((out & (g.dst == v)).sum())
    e = np.zeros(g.nv)
    e[v] = 1.0
    x = e
    for _ in range(k):
        x = A @ x
    closed = int(round(x[v]))
    if k == 2:
        half = int((out & (g.inv == np.arange(g.ne))).sum())
        return closed - (int(out.sum()) - half)
    if k == 3:
        return closed
    raise ValueError("trace identities cover k <= 3 only")


# -- spectra and return counts ----------------------------------------------------


def rho_lanczos(g: Graph) -> float:
    """Second largest distinct |eigenvalue| of A/d from ARPACK, residual-checked.

    Eigenvalues within 1e-8 of +-1 are the trivial ones (every component's
    constant vector, and its alternating twin when bipartite).
    """
    d = g.regular_degree()
    M = g.adjacency() / d
    vals, vecs = spl.eigsh(M, k=6, which="LM", v0=np.ones(g.nv), tol=0.0)
    resid = np.abs(M @ vecs - vecs * vals).max()
    if resid > 1e-10:
        raise ArithmeticError(f"reference eigensolve residual {resid:.2e}")
    cand = [abs(v) for v in vals if abs(abs(v) - 1.0) > 1e-8]
    return max(cand)


def even_diag_counts(g: Graph, ts) -> dict[int, np.ndarray]:
    """diag(A^(2t)) as squared column norms of A^t; exact while d^(2t) < 2^53."""
    A = g.adjacency()
    out = {}
    Y = np.eye(g.nv)
    for t in range(1, max(ts) + 1):
        Y = A @ Y
        if t in ts:
            out[t] = np.rint((Y * Y).sum(axis=0)).astype(np.int64)
    return out


def eigvalsh_markov(g: Graph) -> np.ndarray:
    d = g.regular_degree()
    return np.linalg.eigvalsh(g.adjacency().toarray() / d)


def closed_walk_counts(g: Graph, root: int, lengths) -> dict[int, int]:
    """Exact numbers of closed walks of each length at root, in Python ints."""
    d = g.regular_degree()
    # in-edges of w are the inverses of its out-edges, so x'[w] = sum over
    # the d out-neighbours of w of x[neighbour]
    order = np.argsort(g.src, kind="stable")
    nbr = g.dst[order].reshape(g.nv, d)
    want = set(lengths)
    x = np.zeros(g.nv, dtype=object)
    x[root] = 1
    out = {}
    for n in range(1, max(want) + 1):
        x = x[nbr].sum(axis=1)
        if n in want:
            out[n] = int(x[root])
    return out


# -- local limits ------------------------------------------------------------------


def tree_ball_vertices(g: Graph, r: int) -> int:
    """Number of vertices whose radius-r ball is the radius-r d-regular tree ball.

    The ball is that tree exactly when it has 1 + d sum_{i<r} (d-1)^i distinct
    vertices (no collisions while growing) and the induced edge multiset
    holds exactly one edge fewer than vertices (no loops, no chords).
    """
    d = g.regular_degree()
    A = g.adjacency()
    reach = sp.identity(g.nv, format="csr")
    step = reach
    for _ in range(r):
        step = step @ A
        reach = reach + step
    B = (reach > 0).astype(np.float64)
    nverts = np.asarray(B.sum(axis=1)).ravel()
    edge_ends = np.asarray((B @ A).multiply(B).sum(axis=1)).ravel()
    full = 1 + d * sum((d - 1) ** i for i in range(r))
    return int(((nverts == full) & (edge_ends == 2 * (full - 1))).sum())


def km_w1(eigenvalues, d: int, grid: int = 4001) -> tuple[float, float]:
    """W1 distance to the Kesten-McKay law on the grid the library documents,
    plus the tolerance that comparison needs.

    An eigenvalue that sits on a grid point up to rounding can land on either
    side of it in another eigensolve, which moves the trapezoid sum by
    dx / n; the tolerance allows that for every such eigenvalue.
    """
    xs = np.linspace(-1.0, 1.0, grid)
    dx = xs[1] - xs[0]
    r2 = 4.0 * (d - 1) / (d * d)
    pdf = np.zeros_like(xs)
    inside = (xs * xs < r2) & (np.abs(xs) < 1.0)
    xi = xs[inside]
    pdf[inside] = d / (2 * math.pi) * np.sqrt(r2 - xi * xi) / (1 - xi * xi)
    cdf_km = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * dx)])
    cdf_km = np.minimum(cdf_km / cdf_km[-1], 1.0)
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    cdf_g = np.searchsorted(ev, xs, side="right") / len(ev)
    gap = np.abs(cdf_g - cdf_km)
    w1 = float(dx * (gap.sum() - (gap[0] + gap[-1]) / 2))
    near = np.abs((ev + 1.0) / dx - np.rint((ev + 1.0) / dx)) * dx < 1e-9
    return w1, 1e-9 + dx / len(ev) * int(near.sum())


# -- percolation --------------------------------------------------------------------


def percolation_mask(size: int, p: float, seed: int) -> np.ndarray:
    """The window's open mask: one PCG64 stream, uniforms below p are open."""
    return np.random.Generator(np.random.PCG64(seed)).random((size, size)) < p


def cover_sphere_sizes(size: int, p: float, seed: int, nmax: int) -> list[int]:
    """|S_n| for n <= nmax in the universal cover of the origin's cluster:
    the non-backtracking lattice walks of length n from the origin, counted
    per (cell, arrival direction) on the window grid."""
    if 4 * 3 ** (nmax - 1) >= 2 ** 64:
        raise ValueError("counts would overflow uint64")
    open_ = percolation_mask(size, p, seed)
    o = size // 2
    start = np.zeros(open_.shape, dtype=np.uint64)
    start[o, o] = 1

    def shifted(a, direction):
        out = np.zeros_like(a)
        if direction == 0:
            out[1:] = a[:-1]
        elif direction == 1:
            out[:-1] = a[1:]
        elif direction == 2:
            out[:, 1:] = a[:, :-1]
        else:
            out[:, :-1] = a[:, 1:]
        return out * open_

    cur = [shifted(start, k) for k in range(4)]  # by arrival direction
    sizes = [1]
    for n in range(1, nmax + 1):
        sizes.append(int(sum(int(c.sum()) for c in cur)))
        total = cur[0] + cur[1] + cur[2] + cur[3]
        cur = [shifted(total - cur[k ^ 1], k) for k in range(4)]
    return sizes


def origin_cluster(size: int, p: float, seed: int) -> tuple[int, int | None]:
    """(cluster size, cluster-metric distance from the origin to the window
    edge or None) for the origin's 4-connected open cluster."""
    mask = percolation_mask(size, p, seed)
    o = size // 2
    if not mask[o, o]:
        return 0, None
    labels, _ = ndimage.label(mask)
    comp = labels == labels[o, o]
    seen = np.zeros_like(comp)
    seen[o, o] = True
    front = seen.copy()
    dist = 0
    while front.any():
        if front[0].any() or front[-1].any() or front[:, 0].any() or front[:, -1].any():
            return int(comp.sum()), dist
        grow = np.zeros_like(front)
        grow[1:] |= front[:-1]
        grow[:-1] |= front[1:]
        grow[:, 1:] |= front[:, :-1]
        grow[:, :-1] |= front[:, 1:]
        front = grow & comp & ~seen
        seen |= front
        dist += 1
    return int(comp.sum()), None

"""Spectra of the degree-normalized walk operator and cogrowth.

M = A/d acts on functions on vertices; a half-loop contributes 1/d to the
diagonal and a full loop pair 2/d. rho(G) is the second largest element of
the set of *distinct* absolute values of eigenvalues, so the trivial top
eigenvalue and, on bipartite graphs, its mirror at -1 are both excluded.

Eigensolves are dense symmetric (LAPACK); no sparse iterative solver is
used anywhere. The non-backtracking Perron value is taken from constant row
sums when the graph is regular (in that case the all-ones vector is an exact
positive eigenvector) and from shifted power iteration otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Ball,
    SerreGraph,
    _edge_arrays,
    _inflow,
    _step,
    _walk_inflows,
    adjacency,
    connected_components,
    require_regular,
    tree_radius,
)
from .exact import rho_tree
from .report import BoundReport, Hypothesis, report

ABS_CLUSTER_TOL = 1e-8
WINDOW_GUARD = 1e-9


def markov_matrix(g: SerreGraph) -> np.ndarray:
    d = require_regular(g)
    return adjacency(g).astype(np.float64) / d


def is_bipartite(g: SerreGraph) -> bool:
    color = {}
    for comp in connected_components(g):
        start = comp[0]
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for e in g.out_edges(v):
                w = g.dst[e]
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def distinct_abs_desc(eigenvalues, tol: float = ABS_CLUSTER_TOL) -> list[float]:
    """Cluster absolute values within tol; representatives, descending."""
    vals = sorted((abs(float(x)) for x in eigenvalues), reverse=True)
    reps = []
    for x in vals:
        if not reps or reps[-1] - x > tol:
            reps.append(x)
    return reps


@dataclass
class SpectralSummary:
    d: int
    eigenvalues: np.ndarray  # ascending, with multiplicities
    rho: float
    is_bipartite: bool
    ramanujan: bool
    weakly_ramanujan_mass: Fraction
    n_components: int


def weakly_ramanujan_mass(g: SerreGraph, residual: float = 0.0,
                          eigenvalues=None) -> Fraction:
    """Fraction of eigenvalues with |lambda| strictly inside the tree window.

    Strict means |lambda| < 2 sqrt(d-1)/d - residual (minus a 1e-9 guard so
    eigenvalues that are exactly on the edge, like the bipartite pair at
    d = 2, are never counted in by rounding).
    """
    d = require_regular(g)
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(markov_matrix(g))
    cut = rho_tree(d) - residual - WINDOW_GUARD
    count = int(np.count_nonzero(np.abs(eigenvalues) < cut))
    return Fraction(count, g.nv)


def markov_spectrum(g: SerreGraph, residual_check: bool = False) -> SpectralSummary:
    d = require_regular(g)
    M = markov_matrix(g)
    if residual_check:
        vals, vecs = np.linalg.eigh(M)
        res = np.abs(M @ vecs - vecs * vals).max()
        if res > 1e-10:
            raise ArithmeticError(f"eigensolve residual {res:.2e} > 1e-10")
    else:
        vals = np.linalg.eigvalsh(M)
    reps = distinct_abs_desc(vals)
    r = reps[1] if len(reps) > 1 else reps[0]
    return SpectralSummary(
        d=d,
        eigenvalues=vals,
        rho=float(r),
        is_bipartite=is_bipartite(g),
        ramanujan=bool(r <= rho_tree(d) + 1e-12),
        weakly_ramanujan_mass=weakly_ramanujan_mass(g, eigenvalues=vals),
        n_components=len(connected_components(g)),
    )


def rho(g: SerreGraph) -> float:
    d = require_regular(g)
    vals = np.linalg.eigvalsh(markov_matrix(g))
    reps = distinct_abs_desc(vals)
    return float(reps[1] if len(reps) > 1 else reps[0])


# -- spectral measures and walk DPs ----------------------------------------


@dataclass
class SpectralMeasure:
    points: np.ndarray
    weights: np.ndarray

    def moment(self, k: int) -> float:
        return float(np.sum(self.weights * self.points ** k))

    def mass(self, lo: float, hi: float) -> float:
        sel = (self.points >= lo) & (self.points <= hi)
        return float(self.weights[sel].sum())


def spectral_measure(g: SerreGraph, root: int | None = None) -> SpectralMeasure:
    """Eigenvalue distribution of M; rooted form weights by squared
    eigenvector coordinates at the root, so its k-th moment is p_{root,k}."""
    M = markov_matrix(g)
    if root is None:
        vals = np.linalg.eigvalsh(M)
        return SpectralMeasure(points=vals, weights=np.full(g.nv, 1.0 / g.nv))
    vals, vecs = np.linalg.eigh(M)
    return SpectralMeasure(points=vals, weights=vecs[root] ** 2)


def walk_counts(g: SerreGraph, o: int, nmax: int) -> list[list[int]]:
    """counts[n][v] = number of length-n walks o -> v, exact integers."""
    return [c.tolist() for c in _walk_inflows(g.nv, _edge_arrays(g), o, nmax, reduced=False)]


def return_probability_dp(g: SerreGraph, o: int, nmax: int) -> list[Fraction]:
    d = require_regular(g)
    counts = walk_counts(g, o, nmax)
    return [Fraction(counts[n][o], d ** n) for n in range(nmax + 1)]


def diag_power_counts(g: SerreGraph, t: int) -> np.ndarray:
    """diag(A^(2t)) exactly, as int64.

    Uses float64 BLAS: entries of A^t are bounded by d^t and the diagonal of
    A^(2t) by d^(2t), so everything stays below 2^53 when d^(2t) does; the
    row-sum-of-squares identity gives the even-power diagonal from A^t.
    """
    return diag_power_counts_batch(g, (t,))[t]


def diag_power_counts_batch(g: SerreGraph, ts) -> dict[int, np.ndarray]:
    """diag(A^(2t)) for each t in ts, sharing one matrix-power chain.

    Same exactness window as diag_power_counts; the chain costs one matmul
    per distinct power step instead of t matmuls per query.
    """
    d = require_regular(g)
    ts = sorted(set(int(t) for t in ts))
    if not ts or ts[0] < 1:
        raise ValueError("powers must be >= 1")
    if d ** (2 * ts[-1]) >= 2 ** 53:
        raise ValueError("counts would exceed exact float64 range")
    A = adjacency(g).astype(np.float64)
    memo = {1: A}

    def apow(k: int) -> np.ndarray:
        if k not in memo:
            if k % 2:
                memo[k] = apow(k - 1) @ A
            else:
                h = apow(k // 2)
                memo[k] = h @ h
        return memo[k]

    out = {}
    cur = apow(ts[0])
    out[ts[0]] = np.rint((cur * cur).sum(axis=1)).astype(np.int64)
    for prev, t in zip(ts, ts[1:]):
        cur = cur @ apow(t - prev)
        out[t] = np.rint((cur * cur).sum(axis=1)).astype(np.int64)
    return out


# -- hitting probabilities ---------------------------------------------------


def hitting_probabilities(g: SerreGraph, o: int, targets, nmax: int) -> list[Fraction]:
    d = require_regular(g)
    tset = set(targets)
    counts = walk_counts(g, o, nmax)
    return [
        Fraction(sum(counts[n][a] for a in tset), d ** n) for n in range(nmax + 1)
    ]


def hitting_bound_check(g: SerreGraph, o: int, targets, nmax: int) -> BoundReport:
    """p_n(o, A) <= sqrt(|A|) rho(G)^n + 2|A|/|G| for every n <= nmax.

    The walk side is exact; the margin reported is the worst over n.
    """
    d = require_regular(g)
    tset = set(targets)
    r = rho(g)
    probs = hitting_probabilities(g, o, tset, nmax)
    worst = math.inf
    worst_n = 0
    for n in range(nmax + 1):
        rhs = math.sqrt(len(tset)) * r ** n + 2 * len(tset) / g.nv
        m = rhs - float(probs[n])
        if m < worst:
            worst, worst_n = m, n
    hyps = (
        Hypothesis("connected", len(connected_components(g)) == 1, f"|G|={g.nv}"),
        Hypothesis("regular", True, f"d={d}"),
    )
    rep = report(
        f"hitting-bound o={o} |A|={len(tset)} nmax={nmax}",
        lhs=float(probs[worst_n]),
        rhs=math.sqrt(len(tset)) * r ** worst_n + 2 * len(tset) / g.nv,
        hypotheses=hyps,
        constants={"rho": r, "worst_n": worst_n},
        notes="lhs/rhs shown at the worst n; all n were checked",
    )
    rep.margin = worst
    return rep


# -- non-backtracking operator and cogrowth ---------------------------------


def hashimoto_matrix(g: SerreGraph) -> np.ndarray:
    """Dense edge-to-edge operator: B[e, f] = 1 iff f continues e without
    immediate reversal. Intended for small graphs; iteration is matrix-free."""
    if g.ne > 4000:
        raise ValueError("dense operator too large; use the matrix-free path")
    B = np.zeros((g.ne, g.ne), dtype=np.float64)
    for e in range(g.ne):
        for f in g.out_edges(g.dst[e]):
            if f != g.inv[e]:
                B[e, f] = 1.0
    return B


def _b_operator(g: SerreGraph):
    """x -> x B, with g's edge arrays built once: (x B)[f] sums x over the
    edges feeding f, which is the reduced walk step."""
    src, dst, inv = _edge_arrays(g)
    return lambda x: _step(x, _inflow(x, dst, g.nv), src, inv)


def _apply_b(g: SerreGraph, x: np.ndarray) -> np.ndarray:
    return _b_operator(g)(x)


def has_cycle(g: SerreGraph) -> bool:
    return any(tree_radius(g, c[0], g.nv) < g.nv for c in connected_components(g))


def nonbacktracking_closed_counts(g: SerreGraph, o: int, nmax: int) -> list[int]:
    """Exact counts of closed non-backtracking walks based at o, n = 0..nmax."""
    return [int(c[o]) for c in _walk_inflows(g.nv, _edge_arrays(g), o, nmax, reduced=True)]


@dataclass
class CogrowthSummary:
    alpha: float
    degenerate: bool
    method: str
    m: int | None = None
    rho_cover: float | None = None


def hashimoto_perron(g: SerreGraph, tol: float = 1e-10, max_iter: int = 100000) -> tuple[float, str]:
    """Perron value of the non-backtracking operator.

    Constant row sums (regular graphs) give the value exactly. Otherwise a
    power iteration on the shifted operator B + I, whose peripheral spectrum
    is a single real point, with a squared-operator fallback if the change
    criterion is still oscillating at the iteration cap.
    """
    if g.ne == 0:
        return 0.0, "empty"
    rowsums = {g.degree(g.dst[e]) - 1 for e in range(g.ne)}
    if len(rowsums) == 1:
        return float(rowsums.pop()), "row-sums"
    if not has_cycle(g):
        return 0.0, "acyclic"
    apply_b = _b_operator(g)
    x = np.ones(g.ne)
    est = 0.0
    for it in range(max_iter):
        y = apply_b(x) + x
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0, "nilpotent"
        new_est = nrm / np.linalg.norm(x)
        x = y / nrm
        if abs(new_est - est) <= tol * max(1.0, new_est):
            return new_est - 1.0, "power"
        est = new_est
    # squared-operator fallback for a stalled iteration
    x = np.ones(g.ne)
    est = 0.0
    for it in range(max_iter):
        y = apply_b(apply_b(x))
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0, "nilpotent"
        new_est = nrm / np.linalg.norm(x)
        x = y / nrm
        if abs(new_est - est) <= tol * max(1.0, new_est):
            return math.sqrt(new_est), "power-squared"
        est = new_est
    raise ArithmeticError("non-backtracking power iteration did not converge")


def grigorchuk_rho(m: int, alpha: float) -> float:
    """Spectral radius of the walk on the degree-m tree completion, from the
    cogrowth value alpha of the base."""
    if not 0 < alpha <= m - 1 + 1e-9:
        raise ValueError(f"need 0 < alpha <= m-1, got alpha={alpha}, m={m}")
    s = math.sqrt(m - 1.0)
    if alpha > s:
        return (s / m) * (alpha / s + s / alpha)
    return 2.0 * s / m


def nonbacktracking_cogrowth(g: SerreGraph, m: int | None = None) -> CogrowthSummary:
    if not has_cycle(g):
        out = CogrowthSummary(alpha=0.0, degenerate=True, method="acyclic")
    else:
        alpha, method = hashimoto_perron(g)
        out = CogrowthSummary(alpha=alpha, degenerate=False, method=method)
    if m is not None:
        if max(g.degrees, default=0) > m:
            raise ValueError("m below the maximum degree")
        out.m = m
        if out.degenerate:
            out.rho_cover = 2.0 * math.sqrt(m - 1.0) / m
        else:
            out.rho_cover = grigorchuk_rho(m, out.alpha)
    return out


@dataclass
class TreeMRamanujanReport:
    alpha: float
    m: int
    threshold: float  # alpha^2 + 1
    ramanujan: bool
    margin: float
    regular_d: int | None
    sufficient_m: int | None  # d^2 - 2d + 2 when the base is regular


def tree_m_ramanujan(g: SerreGraph, m: int) -> TreeMRamanujanReport:
    """The tree completion of degree m is Ramanujan iff m >= alpha(G)^2 + 1."""
    if max(g.degrees, default=0) > m:
        raise ValueError("m below the maximum degree")
    summ = nonbacktracking_cogrowth(g)
    threshold = summ.alpha ** 2 + 1.0
    degs = set(g.degrees)
    d = degs.pop() if len(degs) == 1 else None
    return TreeMRamanujanReport(
        alpha=summ.alpha,
        m=m,
        threshold=threshold,
        ramanujan=bool(m >= threshold),
        margin=m - threshold,
        regular_d=d,
        sufficient_m=(d * d - 2 * d + 2) if d is not None else None,
    )


# -- radial Rayleigh machine -------------------------------------------------


def radial_weight(d: int, n: int) -> float:
    """g(n) = (d + (d-2) n) / (d sqrt(d-1)^n); g(0) = 1 and
    (1/d)(g(n-1) + (d-1) g(n+1)) = (2 sqrt(d-1)/d) g(n)."""
    return (d + (d - 2) * n) / (d * math.sqrt(d - 1.0) ** n)


def radial_identity_residual(d: int, n: int) -> float:
    lhs = (radial_weight(d, n - 1) + (d - 1) * radial_weight(d, n + 1)) / d
    return abs(lhs - rho_tree(d) * radial_weight(d, n))


def rayleigh_lower_bound(b: Ball, d: int, R: int) -> float:
    """Rayleigh quotient of the radial test function cut at radius R.

    The ball must have radius at least R+1 so every vertex carrying weight
    has its full edge set present; unexplored edges beyond the ball lead to
    zero-weight territory and contribute nothing. The value is a lower bound
    on the spectral radius of the ambient graph's walk operator.
    """
    if b.radius < R + 1:
        raise ValueError(f"need a ball of radius >= {R + 1}, got {b.radius}")
    if abs(radial_weight(d, 0) - 1.0) > 1e-12:
        raise AssertionError("radial weight not normalized")
    g = b.graph
    f = [radial_weight(d, b.dist[v]) if b.dist[v] <= R else 0.0 for v in range(g.nv)]
    num = sum(f[g.src[e]] * f[g.dst[e]] for e in range(g.ne)) / d
    den = sum(x * x for x in f)
    return num / den

"""Spectra of the degree-normalized walk operator and cogrowth.

M = A/d acts on functions on vertices; a half-loop contributes 1/d to the
diagonal and a full loop pair 2/d. rho(G) is the second largest element of
the set of *distinct* absolute values of eigenvalues, so the trivial top
eigenvalue and, on bipartite graphs, its mirror at -1 are both excluded.

Eigensolves are dense symmetric (LAPACK); no sparse iterative solver is
used anywhere. The non-backtracking Perron value is taken from constant row
sums when the graph is regular (in that case the all-ones vector is an exact
positive eigenvector) and from shifted power iteration otherwise.

Cogrowth's "acyclic" means B is nilpotent, so the universal cover is a
forest. A half-loop does not stop that: it is its own reversal, so no
non-backtracking walk takes it twice in a row.
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
    distances_from,
    is_connected,
    require_regular,
)
from .exact import rho_tree
from .report import BoundReport, Hypothesis, report

ABS_CLUSTER_TOL = 1e-8
WINDOW_GUARD = 1e-9
# hashimoto_perron's power iteration: relative change that counts as
# converged, and the step cap of each of its two passes
POWER_TOL = 1e-10
POWER_MAX_ITER = 100000
# edge steps (nv * ne * t) diag_power_counts_batch may take
DIAG_STEP_BUDGET = 2 * 10 ** 9


def markov_matrix(g: SerreGraph) -> np.ndarray:
    d = require_regular(g)
    return adjacency(g).astype(np.float64) / d


def _parity_sweep(g: SerreGraph) -> tuple[bool, int]:
    """(bipartite, number of components) from one BFS sweep: no edge joins
    two vertices whose distances from their component's first vertex have
    equal parity; a loop of either kind is such an edge."""
    parity = [None] * g.nv
    comps = 0
    for v in range(g.nv):
        if parity[v] is None:
            comps += 1
            for w, k in distances_from(g, v).items():
                parity[w] = k & 1
    dst = g.dst
    bipartite = all(parity[dst[e]] != parity[v] for v in range(g.nv) for e in g.out_edges(v))
    return bipartite, comps


def distinct_abs_desc(eigenvalues) -> list[float]:
    """Cluster absolute values within ABS_CLUSTER_TOL; representatives,
    descending."""
    vals = sorted((abs(float(x)) for x in eigenvalues), reverse=True)
    reps = []
    for x in vals:
        if not reps or reps[-1] - x > ABS_CLUSTER_TOL:
            reps.append(x)
    return reps


def _rho_of(vals) -> float:
    """The second distinct |lambda|, or the only one."""
    reps = distinct_abs_desc(vals)
    return float(reps[1] if len(reps) > 1 else reps[0])


@dataclass
class SpectralSummary:
    d: int
    eigenvalues: np.ndarray  # ascending, with multiplicities
    rho: float
    is_bipartite: bool
    ramanujan: bool
    weakly_ramanujan_mass: Fraction
    n_components: int


def markov_spectrum(g: SerreGraph, residual_check: bool = False) -> SpectralSummary:
    """weakly_ramanujan_mass is the fraction of eigenvalues strictly inside the
    tree window, |lambda| < 2 sqrt(d-1)/d minus a 1e-9 guard: eigenvalues exactly
    on its edge, like the bipartite pair at d = 2, never count in by rounding."""
    d = require_regular(g)
    M = markov_matrix(g)
    if residual_check:
        vals, vecs = np.linalg.eigh(M)
        res = np.abs(M @ vecs - vecs * vals).max()
        if res > 1e-10:
            raise ArithmeticError(f"eigensolve residual {res:.2e} > 1e-10")
    else:
        vals = np.linalg.eigvalsh(M)
    r = _rho_of(vals)
    inside = int(np.count_nonzero(np.abs(vals) < rho_tree(d) - WINDOW_GUARD))
    bipartite, comps = _parity_sweep(g)
    return SpectralSummary(
        d=d,
        eigenvalues=vals,
        rho=r,
        is_bipartite=bipartite,
        ramanujan=bool(r <= rho_tree(d) + 1e-12),
        weakly_ramanujan_mass=Fraction(inside, g.nv),
        n_components=comps,
    )


def rho(g: SerreGraph) -> float:
    return _rho_of(np.linalg.eigvalsh(markov_matrix(g)))


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
    return hitting_probabilities(g, o, (o,), nmax)


def diag_power_counts_batch(g: SerreGraph, ts) -> dict[int, np.ndarray]:
    """Exact diag(A^(2t)) for each t in ts: diag(A^(2t))[o] = sum_w (A^t)[o, w]^2,
    with row o of A^t from one walk-kernel run per block of roots o.

    Squares are summed in uint64 while d^(2t) < 2^64, in Python ints past it;
    a diagonal is int64 while d^(2t) < 2^63, Python ints past it. The runs take
    nv * ne * max(ts) edge steps, at most DIAG_STEP_BUDGET.
    """
    d = require_regular(g)
    ts = sorted(set(int(t) for t in ts))
    if not ts or ts[0] < 1:
        raise ValueError("powers must be >= 1")
    steps = g.nv * g.ne * ts[-1]
    if steps > DIAG_STEP_BUDGET:
        raise ValueError(f"return diagonals need nv*ne*t = {steps} edge steps, "
                         f"over the budget of {DIAG_STEP_BUDGET}")
    edges = _edge_arrays(g)
    # up to 128 roots a run; (ne, block) count arrays of about 2^18 entries ran
    # fastest on cfg(3, n) for n = 512..4096
    block = min(128, max(1, 2 ** 18 // max(g.ne, 1)))
    parts = {t: [] for t in ts}
    for start in range(0, g.nv, block):
        roots = np.arange(start, min(start + block, g.nv))
        for t, inflow in enumerate(_walk_inflows(g.nv, edges, roots, ts[-1], reduced=False)):
            if t in parts:
                if d ** (2 * t) >= 2 ** 64:
                    inflow = inflow.astype(object)
                parts[t].append((inflow * inflow).sum(axis=0))
    return {t: np.concatenate(p).astype(np.int64 if d ** (2 * t) < 2 ** 63 else object)
            for t, p in parts.items()}


# -- hitting probabilities ---------------------------------------------------


def hitting_probabilities(g: SerreGraph, o: int, targets, nmax: int) -> list[Fraction]:
    d = require_regular(g)
    tset = set(targets)
    for v in sorted(tset):
        if not 0 <= v < g.nv:
            raise ValueError(f"target {v} is not a vertex (0..{g.nv - 1})")
    counts = walk_counts(g, o, nmax)
    return [
        Fraction(sum(counts[n][a] for a in tset), d ** n) for n in range(nmax + 1)
    ]


def hitting_bound_check(g: SerreGraph, o: int, targets, nmax: int, rho_value: float) -> BoundReport:
    """p_n(o, A) <= sqrt(|A|) rho(G)^n + 2|A|/|G| for every n <= nmax.

    The walk side is exact, rho(G) = rho_value; the margin reported is the worst over n.
    """
    d = require_regular(g)
    tset = set(targets)
    probs = hitting_probabilities(g, o, tset, nmax)
    worst = math.inf
    worst_n = 0
    for n in range(nmax + 1):
        rhs = math.sqrt(len(tset)) * rho_value ** n + 2 * len(tset) / g.nv
        m = rhs - float(probs[n])
        if m < worst:
            worst, worst_n = m, n
    hyps = (
        Hypothesis("connected", is_connected(g), f"|G|={g.nv}"),
        Hypothesis("regular", True, f"d={d}"),
    )
    rep = report(
        f"hitting-bound o={o} |A|={len(tset)} nmax={nmax}",
        lhs=float(probs[worst_n]),
        rhs=math.sqrt(len(tset)) * rho_value ** worst_n + 2 * len(tset) / g.nv,
        hypotheses=hyps,
        constants={"rho": rho_value, "worst_n": worst_n},
        notes="lhs/rhs shown at the worst n; all n were checked",
    )
    rep.margin = worst
    return rep


# -- non-backtracking operator and cogrowth ---------------------------------


def _b_operator(g: SerreGraph):
    """x -> x B, with g's edge arrays built once: (x B)[f] sums x over the
    edges feeding f, which is the reduced walk step."""
    src, dst, inv = _edge_arrays(g)
    return lambda x: _step(x, _inflow(x, dst, g.nv), src, inv)


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


def hashimoto_perron(g: SerreGraph) -> tuple[float, str]:
    """Perron value of the non-backtracking operator B and a tag for its route:
    "acyclic" when B is nilpotent (no edges included), value 0; "row-sums"
    when every edge has the same number of continuations, as on a regular
    graph; "power" from power iteration on the shifted operator B + I, whose
    peripheral spectrum is a single real point; "power-squared" from B^2 when
    the shifted pass's change criterion still oscillates at the cap.
    """
    apply_b = _b_operator(g)
    # live, the support of 1 B^n, shrinks until stable; it ends empty (the
    # loop's else) iff B is nilpotent
    live = np.ones(g.ne, dtype=bool)
    while live.any():
        nxt = apply_b(live.astype(np.float64)) > 0
        if np.array_equal(nxt, live):
            break
        live = nxt
    else:
        return 0.0, "acyclic"
    rowsums = {g.degree(w) - 1 for w in g.dst}
    if len(rowsums) == 1:
        return float(rowsums.pop()), "row-sums"
    passes = (
        (lambda x: apply_b(x) + x, lambda est: est - 1.0, "power"),
        (lambda x: apply_b(apply_b(x)), math.sqrt, "power-squared"),
    )
    for step, finish, tag in passes:
        x = np.ones(g.ne)
        est = 0.0
        for _ in range(POWER_MAX_ITER):
            y = step(x)
            nrm = np.linalg.norm(y)
            new_est = nrm / np.linalg.norm(x)
            x = y / nrm
            if abs(new_est - est) <= POWER_TOL * max(1.0, new_est):
                return finish(new_est), tag
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
    alpha, method = hashimoto_perron(g)
    out = CogrowthSummary(alpha=alpha, degenerate=method == "acyclic", method=method)
    if m is not None:
        if max(g.degrees, default=0) > m:
            raise ValueError("m below the maximum degree")
        out.m = m
        out.rho_cover = (2.0 * math.sqrt(m - 1.0) / m if out.degenerate
                         else grigorchuk_rho(m, out.alpha))
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
    num = sum(f[u] * f[w] for u, w in zip(g.src, g.dst)) / d
    den = sum(x * x for x in f)
    return num / den

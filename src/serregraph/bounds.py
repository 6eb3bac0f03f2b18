"""Explicit constants and inequality verdicts for the main estimates.

Every check returns a BoundReport: hypotheses, both sides, oriented margin.
A failed hypothesis makes the verdict "not applicable", never "fail"; a
genuine failed comparison on satisfied hypotheses is treated by the test
suite as build-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .census import cycle_census, gamma_k
from .core import SerreGraph, Walk, _edge_arrays, _walk_inflows, require_regular
from .exact import rho_tree
from .nullcycles import NullcycleSampler, _unbalanced_edge, chi_statistic, enumerate_nullcycles
from .report import BoundReport, Hypothesis, report, upper
from .spectral import diag_power_counts_batch, markov_spectrum
from .treewalk import tables_for

__all__ = [
    "nu_k",
    "c_k",
    "ell",
    "thm_main_finite",
    "thm_main_ramanujan",
    "thm_main_returns",
    "return_diagonals",
    "thm_43_lower",
    "lemma_visits_lower",
    "distance_gap",
    "distance_bound",
    "EssGirthBound",
    "ess_girth_bound",
]


def nu_k(d: int, k: int) -> int:
    """2*10^11 * 2^(4k) * (d-1)^(3k) * k, exact."""
    _check_dk(d, k)
    return 2 * 10 ** 11 * 2 ** (4 * k) * (d - 1) ** (3 * k) * k


def c_k(d: int, k: int) -> Fraction:
    """1/16 for k=1, (d-1)^(-k)/2 for k>=2, exact."""
    _check_dk(d, k)
    if k == 1:
        return Fraction(1, 16)
    return Fraction(1, 2 * (d - 1) ** k)


def ell(d: int, k: int) -> int:
    """6*10^8 * (4d-4)^k, exact."""
    _check_dk(d, k)
    return 6 * 10 ** 8 * (4 * d - 4) ** k


def _check_dk(d: int, k: int) -> None:
    if d < 3:
        raise ValueError("d must be >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")


def _logb(x: float, base: float) -> float:
    return math.log(x) / math.log(base)


def _rho_and_gamma(g, k, rho_value, gamma_mean):
    if rho_value is None:
        rho_value = markov_spectrum(g).rho
    if gamma_mean is None:
        gamma_mean = cycle_census(g, k).density
    return rho_value, gamma_mean


def thm_main_finite(
    g: SerreGraph,
    k: int,
    *,
    base: str = "d",
    rho_value: float | None = None,
    gamma_mean: Fraction | None = None,
    residual: float = 0.0,
) -> BoundReport:
    """rho(G)/rho(T_d) >= 1 + E gamma_k / nu_k - (1.5 log_b log_b |G| + 6)/log_b |G|.

    base="d" is the display as printed; base="d-1" is the variant the
    derivation actually produces (the printed form subtracts a larger term
    at these sizes, so it is the weaker inequality). Requires |G| >= 8d.
    rho_value/gamma_mean can be injected to share eigensolves across k.
    """
    d = require_regular(g)
    _check_dk(d, k)
    if base not in ("d", "d-1"):
        raise ValueError("base must be 'd' or 'd-1'")
    b = d if base == "d" else d - 1
    rho_value, gamma_mean = _rho_and_gamma(g, k, rho_value, gamma_mean)
    size_ok = Hypothesis("|G| >= 8d", g.nv >= 8 * d, f"|G|={g.nv}, 8d={8*d}")
    lg = _logb(g.nv, b)
    rhs = 1.0 + float(gamma_mean) / nu_k(d, k) - (1.5 * _logb(lg, b) + 6.0) / lg
    return report(
        f"main-finite-rho k={k}",
        lhs=rho_value / rho_tree(d),
        rhs=rhs,
        hypotheses=(size_ok,),
        constants={
            "nu_k": nu_k(d, k),
            "E gamma_k": gamma_mean,
            "rho": rho_value,
            "log_base": b,
        },
        tolerance=residual / rho_tree(d) + 1e-12,
    )


def thm_main_ramanujan(
    g: SerreGraph,
    k: int,
    *,
    base: str = "d",
    rho_value: float | None = None,
    gamma_mean: Fraction | None = None,
    residual: float = 0.0,
) -> BoundReport:
    """For Ramanujan graphs: E gamma_k <= nu_k (1.5 log_b log_b|G| + 6)/log_b|G|."""
    d = require_regular(g)
    _check_dk(d, k)
    b = d if base == "d" else d - 1
    rho_value, gamma_mean = _rho_and_gamma(g, k, rho_value, gamma_mean)
    size_ok = Hypothesis("|G| >= 8d", g.nv >= 8 * d, f"|G|={g.nv}")
    ram_ok = Hypothesis(
        "rho <= rho(T_d)",
        rho_value <= rho_tree(d) + residual + 1e-12,
        f"rho={rho_value:.8f}, rho(T_d)={rho_tree(d):.8f}",
    )
    lg = _logb(g.nv, b)
    bound = nu_k(d, k) * (1.5 * _logb(lg, b) + 6.0) / lg
    return upper(
        f"main-ramanujan-gamma k={k}",
        value=float(gamma_mean),
        bound=bound,
        hypotheses=(size_ok, ram_ok),
        constants={"nu_k": nu_k(d, k), "E gamma_k": gamma_mean, "log_base": b},
        tolerance=1e-12 * (1.0 + abs(bound)),
    )


def return_diagonals(g: SerreGraph, nks) -> dict:
    """Exact diag(A^nk) for each even nk in nks with d^nk < 2^53, from one
    shared matrix-power chain. Lengths outside that float64-exact window are
    left out; mean_log_return counts those with the walk kernel."""
    d = require_regular(g)
    fits = sorted({nk for nk in nks if nk % 2 == 0 and d ** nk < 2 ** 53})
    if not fits:
        return {}
    diag = diag_power_counts_batch(g, [nk // 2 for nk in fits])
    return {nk: diag[nk // 2] for nk in fits}


def _closed_walks(g: SerreGraph, o: int, nk: int) -> int:
    """Exact closed nk-walk count at o: the kernel run to its last row only."""
    for inflow in _walk_inflows(g.nv, _edge_arrays(g), o, nk, reduced=False):
        pass
    return int(inflow[o])


def mean_log_return(g: SerreGraph, nk: int, diag_counts=None) -> float:
    """Average over vertices of log p_nk(o,o), from exact walk counts."""
    d = require_regular(g)
    if nk % 2:
        raise ValueError("nk must be even")
    if diag_counts is None:
        diag_counts = return_diagonals(g, (nk,)).get(nk)
    if diag_counts is None:
        if g.nv * g.ne * nk <= 2 * 10 ** 7:
            diag_counts = [_closed_walks(g, o, nk) for o in range(g.nv)]
        else:
            raise ValueError("exact return diagonal out of budget for this size")
    total = 0.0
    for c in diag_counts:
        c = int(c)
        if c <= 0:
            raise ArithmeticError("even return count vanished; graph not d-regular?")
        total += math.log(c)
    return total / g.nv - nk * math.log(d)


def thm_main_returns(
    g: SerreGraph,
    n: int,
    k: int,
    *,
    gamma_mean: Fraction | None = None,
    diag_counts=None,
) -> BoundReport:
    """E log p_nk(o,o) >= nk log rho(T_d) - 1.5 log(nk) - 4 + nk E gamma_k / nu_k.

    Requires |G| >= (nk)^2 and n >= 4 (hypothesis-gated); odd nk is a
    parity error. The left side averages exact return counts over all roots.
    """
    d = require_regular(g)
    _check_dk(d, k)
    nk = n * k
    if nk % 2:
        raise ValueError("nk must be even")
    if gamma_mean is None:
        gamma_mean = cycle_census(g, k).density
    size_ok = Hypothesis("|G| >= (nk)^2", g.nv >= nk * nk, f"|G|={g.nv}, (nk)^2={nk*nk}")
    n_ok = Hypothesis("n >= 4", n >= 4, f"n={n}")
    lhs = mean_log_return(g, nk, diag_counts)
    rhs = (
        nk * math.log(rho_tree(d))
        - 1.5 * math.log(nk)
        - 4.0
        + nk * float(gamma_mean) / nu_k(d, k)
    )
    return report(
        f"main-returns n={n} k={k}",
        lhs=lhs,
        rhs=rhs,
        hypotheses=(size_ok, n_ok),
        constants={"nu_k": nu_k(d, k), "E gamma_k": gamma_mean, "nk": nk},
        tolerance=1e-9,
    )


# -- the chi display and the density-to-visits step -------------------------------


def thm_43_lower(
    g: SerreGraph,
    root: int,
    n: int,
    k: int,
    *,
    ell_value: int | None = None,
    samples: int = 20000,
    seed: int = 0,
    enum_budget: int = 2 * 10 ** 6,
) -> BoundReport:
    """#closed nk-walks at root >= (1/14) sum over nullcycles of exp(c_k chi/ell).

    Exact enumeration when d^(nk) fits the budget, otherwise a seeded
    Monte-Carlo average over uniform nullcycles with a 3-sigma tolerance.
    """
    d = require_regular(g)
    _check_dk(d, k)
    nk = n * k
    if nk % 2 or nk <= 0:
        raise ValueError("nk must be positive and even")
    lv = ell(d, k) if ell_value is None else ell_value
    ck = float(c_k(d, k))
    closed = _closed_walks(g, root, nk)
    ncount = tables_for(d, max(nk, 2)).u[nk][0]
    notes = ""
    if d ** nk <= enum_budget:
        total = 0.0
        for edges in enumerate_nullcycles(g, root, nk):
            w = Walk(root, edges)
            total += math.exp(ck * chi_statistic(g, w, k, lv) / lv)
        rhs = total / 14.0
        tol = 1e-9 * (1.0 + abs(rhs))
    else:
        s = NullcycleSampler(g, root, nk)
        vals = [
            math.exp(ck * chi_statistic(g, w, k, lv) / lv) for w in s.draws(samples, seed)
        ]
        mean = sum(vals) / samples
        var = sum((x - mean) ** 2 for x in vals) / (samples - 1)
        rhs = float(ncount) * mean / 14.0
        tol = float(ncount) * 3.0 * math.sqrt(var / samples) / 14.0
        notes = f"Monte Carlo, {samples} draws, tolerance is 3 sigma"
    return report(
        f"chi-exp-lower n={n} k={k}",
        lhs=float(closed),
        rhs=rhs,
        constants={"c_k": c_k(d, k), "ell": lv, "|N_nk|": int(ncount)},
        tolerance=tol,
        notes=notes,
    )


def _segment_indicator(g: SerreGraph, w: Walk, k: int, lv: int) -> int:
    vs = w.vertices(g)
    if vs[k] != vs[0]:
        return 0
    if _unbalanced_edge(g, w.edges[:k]) is None:
        return 0
    visits = sum(1 for v in vs if v == vs[0])
    return 1 if visits <= lv else 0


def lemma_visits_lower(
    g: SerreGraph,
    root: int,
    n: int,
    k: int,
    *,
    samples: int = 20000,
    seed: int = 0,
    enum_budget: int = 2 * 10 ** 6,
    rho_value: float | None = None,
) -> BoundReport:
    """Mean of chi_ell(w, 0, k) over uniform nullcycles of length n is at
    least gamma_k(root)/(30 (4d-4)^k), with ell = 6*10^8 (4d-4)^k.

    Hypotheses: rho(G) <= 19/20 and 2k+2 <= n <= sqrt|G|.
    rho_value can be injected to share one eigensolve across k.
    """
    d = require_regular(g)
    _check_dk(d, k)
    if n % 2 or n <= 0:
        raise ValueError("n must be positive and even")
    lv = ell(d, k)
    r = markov_spectrum(g).rho if rho_value is None else rho_value
    rho_ok = Hypothesis("rho <= 19/20", r <= 19 / 20, f"rho={r:.6f}")
    n_ok = Hypothesis(
        "2k+2 <= n <= sqrt|G|", 2 * k + 2 <= n <= math.isqrt(g.nv), f"n={n}, |G|={g.nv}"
    )
    gam = gamma_k(g, root, k)
    rhs = gam / (30.0 * (4 * d - 4) ** k)
    notes = ""
    if d ** n <= enum_budget:
        hits = 0
        walks = enumerate_nullcycles(g, root, n)
        for edges in walks:
            hits += _segment_indicator(g, Walk(root, edges), k, lv)
        lhs = hits / len(walks)
        tol = 1e-12
    else:
        s = NullcycleSampler(g, root, n)
        hits = sum(_segment_indicator(g, w, k, lv) for w in s.draws(samples, seed))
        p = hits / samples
        lhs = p
        tol = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / samples)
        notes = f"Monte Carlo, {samples} draws, tolerance is 3 sigma"
    return report(
        f"density-to-visits n={n} k={k}",
        lhs=lhs,
        rhs=rhs,
        hypotheses=(rho_ok, n_ok),
        constants={"gamma_k(root)": gam, "ell": lv},
        tolerance=tol,
        notes=notes,
    )


# -- distance-to-cycles and essential girth ----------------------------------------


def distance_gap(d: int, R: int, k: int) -> Fraction:
    """(d-2) / (d (d-1)^(2 floor(R + k/2 + 1))), exact."""
    _check_dk(d, k)
    if R < 0:
        raise ValueError("R must be >= 0")
    expo = 2 * (R + 1 + k // 2)
    return Fraction(d - 2, d * (d - 1) ** expo)


def distance_bound(d: int, R: int, k: int) -> float:
    """Spectral radius forced by having every vertex within R of a k-cycle."""
    return rho_tree(d) + float(distance_gap(d, R, k))


@dataclass(frozen=True)
class EssGirthBound:
    size: int
    d: int
    alpha: float
    beta: float
    eps: float
    beta_plus_eps_max: float
    radius: float
    envelope: float

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "alpha": self.alpha,
            "beta": self.beta,
            "eps": self.eps,
            "beta_plus_eps_max": self.beta_plus_eps_max,
            "radius": self.radius,
            "envelope": self.envelope,
        }


def ess_girth_bound(size: int, d: int, alpha: float, beta: float, eps: float) -> EssGirthBound:
    """Threshold data for the essential-girth statement: radius beta*loglog|G|
    and the (log|G|)^(-eps) envelope for the non-tree vertex proportion.

    Requires beta + eps < (alpha AND 1)/(6 log(d-1) + 8 log 2); the profile
    report displays the observed constant, no specific constant is asserted.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if size < 3:
        raise ValueError("size must be >= 3")
    if alpha <= 0 or beta <= 0 or eps <= 0:
        raise ValueError("alpha, beta, eps must be positive")
    cap = min(alpha, 1.0) / (6.0 * math.log(d - 1) + 8.0 * math.log(2))
    if not beta + eps < cap:
        raise ValueError(f"need beta + eps < {cap:.6g}, got {beta + eps:.6g}")
    return EssGirthBound(
        size=size,
        d=d,
        alpha=alpha,
        beta=beta,
        eps=eps,
        beta_plus_eps_max=cap,
        radius=beta * math.log(math.log(size)),
        envelope=math.log(size) ** (-eps),
    )


def constants_consistent(d: int, k: int) -> bool:
    """The chaining inequality c_k / (30 (4d-4)^k ell k) >= 1/nu_k, exact."""
    lhs = c_k(d, k) / (30 * (4 * d - 4) ** k * ell(d, k) * k)
    return lhs >= Fraction(1, nu_k(d, k))

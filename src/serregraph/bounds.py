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

from . import core
from .core import SerreGraph, _unbalanced_words, require_regular
from .exact import rho_tree
from .report import BoundReport, Hypothesis, report, upper
from .treewalk import nullcycle_count, tables_for

__all__ = [
    "nu_k",
    "c_k",
    "ell",
    "thm_main_finite",
    "thm_main_ramanujan",
    "thm_main_returns",
    "thm_43_lower",
    "lemma_visits_lower",
    "distance_gap",
    "distance_bound",
    "essential_girth_beta",
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


def thm_main_finite(
    g: SerreGraph, k: int, rho_value: float, gamma_mean: Fraction, *, base: str = "d"
) -> BoundReport:
    """rho(G)/rho(T_d) >= 1 + E gamma_k / nu_k - (1.5 log_b log_b |G| + 6)/log_b |G|.

    base="d" is the display as printed; base="d-1" is the variant the
    derivation actually produces (the printed form subtracts a larger term
    at these sizes, so it is the weaker inequality). Requires |G| >= 8d.
    """
    d = require_regular(g)
    _check_dk(d, k)
    if base not in ("d", "d-1"):
        raise ValueError("base must be 'd' or 'd-1'")
    b = d if base == "d" else d - 1
    size_ok = Hypothesis("|G| >= 8d", g.nv >= 8 * d, f"|G|={g.nv}, 8d={8*d}")
    lg = _logb(g.nv, b)
    # log_b log_b |G| is undefined on one vertex, where |G| >= 8d fails anyway
    rhs = (1.0 + float(gamma_mean) / nu_k(d, k) - (1.5 * _logb(lg, b) + 6.0) / lg
           if lg else math.nan)
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
        tolerance=1e-12,
    )


def thm_main_ramanujan(
    g: SerreGraph, k: int, rho_value: float, gamma_mean: Fraction
) -> BoundReport:
    """For Ramanujan graphs: E gamma_k <= nu_k (1.5 log_d log_d|G| + 6)/log_d|G|."""
    d = require_regular(g)
    _check_dk(d, k)
    size_ok = Hypothesis("|G| >= 8d", g.nv >= 8 * d, f"|G|={g.nv}")
    ram_ok = Hypothesis(
        "rho <= rho(T_d)",
        rho_value <= rho_tree(d) + 1e-12,
        f"rho={rho_value:.8f}, rho(T_d)={rho_tree(d):.8f}",
    )
    lg = _logb(g.nv, d)
    # log_d log_d |G| is undefined on one vertex, where |G| >= 8d fails anyway
    bound = nu_k(d, k) * (1.5 * _logb(lg, d) + 6.0) / lg if lg else math.nan
    return upper(
        f"main-ramanujan-gamma k={k}",
        value=float(gamma_mean),
        bound=bound,
        hypotheses=(size_ok, ram_ok),
        constants={"nu_k": nu_k(d, k), "E gamma_k": gamma_mean, "log_base": d},
        tolerance=1e-12 * (1.0 + abs(bound)),
    )


def mean_log_return(g: SerreGraph, nk: int, diag_counts) -> float:
    """Average over vertices of log p_nk(o,o) from the exact closed nk-walk
    counts diag_counts, one per vertex."""
    d = require_regular(g)
    if nk % 2:
        raise ValueError("nk must be even")
    total = 0.0
    for c in diag_counts:
        c = int(c)
        if c <= 0:
            raise ArithmeticError("even return count vanished; graph not d-regular?")
        total += math.log(c)
    return total / g.nv - nk * math.log(d)


def thm_main_returns(
    g: SerreGraph, n: int, k: int, gamma_mean: Fraction, diag_counts
) -> BoundReport:
    """E log p_nk(o,o) >= nk log rho(T_d) - 1.5 log(nk) - 4 + nk E gamma_k / nu_k.

    Requires |G| >= (nk)^2 and n >= 4 (hypothesis-gated); odd nk is a
    parity error, raised before any input is read. The left side averages
    the exact return counts diag_counts over all roots.
    """
    d = require_regular(g)
    _check_dk(d, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    nk = n * k
    if nk % 2:
        raise ValueError("nk must be even")
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


def thm_43_lower(g: SerreGraph, n: int, k: int, moment) -> BoundReport:
    """#closed nk-walks at the root >= (1/14) sum over nullcycles w of exp(c_k chi(w)/ell).

    moment is nullcycles.chi_moments' pair for this k: the closed nk-walk
    count at the root and the sum of chi over the |N_nk| nullcycles there,
    both exact. chi ignores its visit cap only while no vertex can be
    visited more than ell times; a walk has nk + 1 visits, so nk + 1 > ell
    raises. With t = c_k/ell and chi <= n, each exp(t chi) is
    1 + t chi + R_w with 0 <= R_w <= (tn)^2 e^(tn)/2, so the right side is
    (|N_nk| + t sum chi)/14 up to R <= |N_nk| (tn)^2 e^(tn)/28, which the
    tolerance carries with a 1e-9 relative allowance for rounding. No walk
    is drawn or enumerated. An odd nk is a parity error, raised before
    moment is read.
    """
    d = require_regular(g)
    _check_dk(d, k)
    nk = n * k
    if nk % 2 or nk <= 0:
        raise ValueError("nk must be positive and even")
    lv = ell(d, k)
    if nk + 1 > lv:
        raise ValueError(f"nk + 1 = {nk + 1} visits exceed ell = {lv}: chi would cap them")
    closed, chi_total = moment
    ncount = nullcycle_count(d, nk)
    t = c_k(d, k) / lv
    rhs = float((ncount + t * chi_total) / 14)
    tn = float(t * n)
    rest = float(ncount) * tn * tn * math.exp(tn) / 28.0
    return report(
        f"chi-exp-lower n={n} k={k}",
        lhs=float(closed),
        rhs=rhs,
        constants={"c_k": c_k(d, k), "ell": lv, "|N_nk|": int(ncount)},
        tolerance=rest + 1e-9 * (1.0 + abs(rhs)),
    )


def lemma_visits_lower(
    g: SerreGraph, root: int, n: int, k: int, rho_value: float, gamma_root: int
) -> BoundReport:
    """Mean of chi_ell(w, 0, k) over uniform nullcycles of length n is at least
    gamma_root/(30 (4d-4)^k), gamma_root = gamma_k(root), ell = 6*10^8 (4d-4)^k.

    Hypotheses: rho_value = rho(G) <= 19/20 and 2k+2 <= n <= sqrt|G|.

    The left side is exact. A walk of length n visits the root at most
    n + 1 < ell times, so chi_ell(w, 0, k) = 1 exactly when w opens with an
    unbalanced closed k-walk c at the root. The tree T_d has u[n-k][j]
    (n-k)-walks back to its root from distance j, so u[n-k][|c reduced|]
    nullcycles open with c, and the mean is the sum of those counts over the
    unbalanced closed k-walks c, divided by |N_n| = u[n][0]; it is 0 when
    n < k. That sum is the j = 0, root-only term of nullcycles.chi_moments,
    and it reads the same reduced words, from core._unbalanced_words, under
    the same cap of core.WALK_BUDGET walk prefixes.
    """
    d = require_regular(g)
    _check_dk(d, k)
    if n % 2 or n <= 0:
        raise ValueError("n must be positive and even")
    lv = ell(d, k)
    rho_ok = Hypothesis("rho <= 19/20", rho_value <= 19 / 20, f"rho={rho_value:.6f}")
    n_ok = Hypothesis(
        "2k+2 <= n <= sqrt|G|", 2 * k + 2 <= n <= math.isqrt(g.nv), f"n={n}, |G|={g.nv}"
    )
    rhs = gamma_root / (30.0 * (4 * d - 4) ** k)
    lhs = 0.0
    if n >= k:
        u = tables_for(d, n).u
        words = _unbalanced_words(g, root, k, core.WALK_BUDGET)
        lhs = sum(u[n - k][len(word)] for word in words) / u[n][0]
    return report(
        f"density-to-visits n={n} k={k}",
        lhs=lhs,
        rhs=rhs,
        hypotheses=(rho_ok, n_ok),
        constants={"gamma_k(root)": gamma_root, "ell": lv},
        tolerance=1e-12,
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


def essential_girth_beta(d: int) -> float:
    """1/(30 log(d-1)): tree balls are expected up to radius beta log log|G|."""
    if d < 3:
        raise ValueError("d must be >= 3")
    return 1.0 / (30.0 * math.log(d - 1))


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

"""Reduced words and norm estimates for walk operators on the fundamental
group.

A closed walk reduces to a word in edge ids (backtrack pairs cancel; a
half-loop is its own inverse, so repeating it cancels too). The walk
operator averaged over a set of conjugated excursions has a norm kappa that
the estimators below approach from beneath through even-power return
probabilities of the self-adjoint pair walk.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import (SerreGraph, Walk, _edge_arrays, _walk_inflows, _walk_words, reduce_word,
                   require_regular)
from .exact import rho_tree
from .report import BoundReport, BoundViolation, Hypothesis, report
from .treewalk import return_probability, tables_for

__all__ = [
    "homotopy_class",
    "KappaEstimate",
    "kappa_estimate",
    "PkDistribution",
    "p_k_distribution",
    "KappaStar",
    "kappa_star",
    "lemma_basic_check",
    "szep_tree_degenerate",
]

# p_k_distribution stops iterating in n once consecutive finite-n marginals
# are this close in total variation
TV_TOL = Fraction(1, 10 ** 8)
# kappa_estimate truncates its word DP past STATE_BUDGET reduced words
STATE_BUDGET = 200_000


def homotopy_class(g: SerreGraph, walk: Walk) -> tuple[int, ...]:
    """Fully reduced edge word of the walk; empty iff nullhomotopic."""
    walk.vertices(g)  # raises if the edge sequence is not a walk
    return reduce_word(g, walk.edges)


def _word_inv(g: SerreGraph, word) -> tuple[int, ...]:
    inv = g.inv
    return tuple(inv[e] for e in reversed(word))


def _word_mul(g: SerreGraph, a, b) -> tuple[int, ...]:
    # both inputs reduced: only the seam can cancel
    inv = g.inv
    i = len(a) - 1
    j = 0
    while i >= 0 and j < len(b) and b[j] == inv[a[i]]:
        i -= 1
        j += 1
    return tuple(a[: i + 1]) + tuple(b[j:])


def _flog(p) -> float:
    if isinstance(p, Fraction):
        return math.log(p.numerator) - math.log(p.denominator)
    return math.log(p)


@dataclass
class KappaEstimate:
    """Monotone lower estimates kappa_m = p_{2m}^(1/4m) of the walk-set norm.

    p_even[m-1] holds the 2m-step return probability of the self-adjoint
    pair walk, exact rationals unless method is "monte-carlo".
    """

    x: int
    y: int
    k: int
    p_even: list
    kappa: list[float]
    method: str
    truncated: bool = False
    stderr: list[float] | None = None
    notes: str = ""

    @property
    def achieved_m(self) -> int:
        return len(self.kappa)

    @property
    def last(self) -> float:
        return self.kappa[-1]

    def check_monotone(self) -> None:
        """kappa_m <= kappa_{m+1}, verified on the rationals by cross-powers."""
        if self.method == "monte-carlo":
            return
        for m in range(1, len(self.p_even)):
            a, b = self.p_even[m - 1], self.p_even[m]
            if not (0 < b <= 1 and 0 < a <= 1):
                raise BoundViolation(f"return probability out of range at m={m}")
            if a ** (m + 1) > b ** m:
                raise BoundViolation(f"kappa estimate decreased at m={m}")


def _radial_rank(cores) -> int | None:
    """Number of free letters if every reduced walk is a distinct single
    edge; None otherwise. Loop letters at one vertex never satisfy a
    relation, so the pair walk is then radially a tree walk."""
    if any(len(c) != 1 for c in cores):
        return None
    letters = [c[0] for c in cores]
    if len(set(letters)) != len(letters):
        return None
    return len(letters) if len(letters) >= 2 else None


def _word_dp(g: SerreGraph, step_p, max_len: int, m: int) -> list[Fraction]:
    """p_2j for j = 1..m, exact, from 2m pair steps on reduced words. A word
    longer than (2m - step) max_len cannot return by step 2m, nor by any
    earlier even step, so it is dropped; the pass stops before the first
    step that keeps more than STATE_BUDGET words."""
    state = {(): Fraction(1)}
    p_even: list[Fraction] = []
    for step in range(1, 2 * m + 1):
        new: dict[tuple[int, ...], Fraction] = {}
        cap = (2 * m - step) * max_len
        if cap == 0:
            # only the identity can still return: lone inverse lookup
            total = Fraction(0)
            for word, pr in state.items():
                q = step_p.get(_word_inv(g, word))
                if q is not None:
                    total += pr * q
            new[()] = total
        else:
            for word, pr in state.items():
                if len(word) - max_len > cap:
                    continue
                for a, q in step_p.items():
                    w2 = _word_mul(g, word, a)
                    if len(w2) > cap:
                        continue
                    new[w2] = new.get(w2, Fraction(0)) + pr * q
                if len(new) > STATE_BUDGET:
                    break  # the step is discarded below, so stop building it
        if len(new) > STATE_BUDGET:
            break
        state = new
        if step % 2 == 0:
            p_even.append(state.get((), Fraction(0)))
    return p_even


def kappa_estimate(
    g: SerreGraph,
    x: int,
    y: int,
    k: int,
    mmax: int,
    *,
    u_path=None,
    v_path=None,
    method: str = "auto",
    samples: int = 20000,
    seed: int = 0,
) -> KappaEstimate:
    """Estimate the norm of the averaged walk operator over W_k(x, y).

    A pair step w_a w_b^-1 is a closed word at x, so without paths the words
    are the reduced walks themselves. Optional u_path (some vertex to x) and
    v_path (y back to that vertex) conjugate every step by the same word,
    which leaves every return probability unchanged; tests verify that by
    passing a pair.

    method "auto" uses exact tree tables when the reduced walk set is a
    free symmetric letter set (loop bouquets), otherwise an exact rational
    DP over reduced words. State blowup past STATE_BUDGET truncates the
    sequence at the largest m whose own pass fits, which never falls as mmax
    grows, or raises naming method "mc" if m = 1 does not fit. method "mc"
    runs a seeded sampler instead; its kappa values carry stderr and no
    exactness.
    """
    if mmax < 1:
        raise ValueError("mmax must be >= 1")
    for name, v in (("x", x), ("y", y)):
        if not 0 <= v < g.nv:
            raise ValueError(f"{name} = {v} is not a vertex (0..{g.nv - 1})")
    W = [word for word, _ in _walk_words(g, x, y, k, core.WALK_BUDGET)]
    if not W:
        raise ValueError(f"no walks of length {k} from {x} to {y}")
    if (u_path is None) != (v_path is None):
        raise ValueError("provide both u_path and v_path or neither")
    u = v = ()
    if u_path is not None:
        u_path, v_path = tuple(u_path), tuple(v_path)
        base = g.src[u_path[0]] if u_path else x
        if u_path and Walk(base, u_path).vertices(g)[-1] != x:
            raise ValueError("u_path must end at x")
        if v_path:
            vs = Walk(g.src[v_path[0]], v_path).vertices(g)
            if vs[0] != y or vs[-1] != base:
                raise ValueError("v_path must run from y back to the basepoint")
        elif y != base:
            raise ValueError("empty v_path requires y == basepoint")
        u, v = reduce_word(g, u_path), reduce_word(g, v_path)

    if method not in ("auto", "exact", "mc"):
        raise ValueError("method must be auto, exact, or mc")

    if method == "auto" and x == y:
        rank = _radial_rank(W)
        if rank is not None:
            # pair walk = two steps of the uniform letter walk, whose
            # distance from the identity is a tree-walk radial chain
            tables_for(rank, 4 * mmax)  # one build; lookups below reuse it
            p = [return_probability(rank, 4 * m) for m in range(1, mmax + 1)]
            kap = [math.exp(_flog(pm) / (4 * m)) for m, pm in enumerate(p, start=1)]
            est = KappaEstimate(x, y, k, p, kap, "radial-tables")
            est.check_monotone()
            return est

    words = [_word_mul(g, _word_mul(g, u, w), v) for w in W]
    nw = len(words)

    if method == "mc":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = random.Random(seed)
        inv_words = [_word_inv(g, gw) for gw in words]
        hits = [0] * mmax
        for _ in range(samples):
            cur = ()
            for m in range(1, mmax + 1):
                for _half in range(2):
                    a = words[rng.randrange(nw)]
                    b = inv_words[rng.randrange(nw)]
                    cur = _word_mul(g, _word_mul(g, cur, a), b)
                if cur == ():
                    hits[m - 1] += 1
        p_hat = [h / samples for h in hits]
        kap = [p ** (1 / (4 * m)) if p > 0 else 0.0 for m, p in enumerate(p_hat, 1)]
        se = [math.sqrt(p * (1 - p) / samples) for p in p_hat]
        return KappaEstimate(
            x, y, k, p_hat, kap, "monte-carlo", stderr=se,
            notes=f"{samples} samples, seed {seed}",
        )

    alphabet = Counter()
    for gw in words:
        for gw2 in words:
            alphabet[_word_mul(g, gw, _word_inv(g, gw2))] += 1
    step_p = {w: Fraction(c, nw * nw) for w, c in alphabet.items()}
    max_len = max((len(w) for w in step_p), default=0)

    p_even = _word_dp(g, step_p, max_len, mmax)
    # a pass capped for a smaller m keeps fewer words; raise m from what the
    # long pass reached until a pass overflows, so the m reached never falls
    # as mmax grows
    while len(p_even) < mmax:
        more = _word_dp(g, step_p, max_len, len(p_even) + 1)
        if len(more) <= len(p_even):
            break
        p_even = more
    truncated = len(p_even) < mmax
    kap = [math.exp(_flog(pm) / (4 * m)) for m, pm in enumerate(p_even, start=1)]
    est = KappaEstimate(
        x, y, k, p_even, kap, "word-dp", truncated=truncated,
        notes=f"truncated at m={len(p_even)} by state budget" if truncated else "",
    )
    if not p_even:
        raise ValueError(f"the word DP passed fungroup.STATE_BUDGET = {STATE_BUDGET} reduced "
                         'words in one pair step; use method="mc" (--method mc) to sample')
    est.check_monotone()
    return est


# -- endpoint distribution of nullcycle segments -----------------------------------


@dataclass
class PkDistribution:
    """Where a uniform nullcycle of length n sits at time k, with the
    large-n limit.

    values holds the exact limit distribution; at_n holds the exact
    finite-n marginal reached by the iteration, kept for cross-checks.
    """

    o: int
    k: int
    n_reached: int
    values: dict[int, Fraction]
    at_n: dict[int, Fraction]
    stabilized: bool
    tv_last: Fraction


def _tv(a: dict[int, Fraction], b: dict[int, Fraction]) -> Fraction:
    """Total-variation distance of two distributions given as sparse dicts."""
    return sum(abs(a.get(x, Fraction(0)) - b.get(x, Fraction(0))) for x in set(a) | set(b)) / 2


def p_k_distribution(g: SerreGraph, o: int, k: int, nmax: int = 400) -> PkDistribution:
    """Exact time-k marginal of a uniform nullcycle, finite n and limit.

    Counts come from lifting to the covering tree: walks to a lift at
    distance j, times tree walks back, summed over backtrack-free j-walk
    counts into each vertex. The n -> infinity limit replaces the return
    legs with the radial weight (d + j(d-2))/d over 2^k (d-1)^((j+k)/2);
    j = k mod 2 keeps that exponent integral, so the limit is an exact
    rational too. The finite-n iteration approaches it at rate 1/n, so the
    consecutive-TV threshold TV_TOL is usually still unmet at nmax; the flag
    records that honestly while values carries the limit.
    """
    d = require_regular(g)
    if k < 0:
        raise ValueError("k must be >= 0")
    n0 = k + (k % 2)
    if nmax < n0:
        raise ValueError("nmax too small for this k")
    # u[k][j] for j <= k lies in the region of a bridge of length 2k
    t = tables_for(d, max(nmax, 2 * k, 2))
    # nb[j][x] = number of backtrack-free j-walks from o to x, exact
    nb = [c.tolist() for c in _walk_inflows(g.nv, _edge_arrays(g), o, k, reduced=True)]
    js = [j for j in range(k % 2, k + 1, 2) if t.u[k][j]]

    def dist_at(n: int) -> dict[int, Fraction]:
        den = t.u[n][0]
        vals = {}
        for x in range(g.nv):
            num = sum(nb[j][x] * t.u[k][j] * t.u[n - k][j] for j in js)
            if num:
                vals[x] = Fraction(num, den)
        if sum(vals.values()) != 1:
            raise BoundViolation("time-k nullcycle marginal does not sum to 1")
        return vals

    n = max(n0, 2)
    prev = dist_at(n)
    stabilized = False
    tv = Fraction(1)
    while n + 2 <= nmax:
        n += 2
        cur = dist_at(n)
        tv = _tv(cur, prev)
        prev = cur
        if tv < TV_TOL:
            stabilized = True
            break

    limit: dict[int, Fraction] = {}
    for x in range(g.nv):
        s = sum(
            Fraction(nb[j][x] * t.u[k][j] * (d + j * (d - 2)), d * (d - 1) ** ((j + k) // 2))
            for j in js
        )
        if s:
            limit[x] = s / 2 ** k
    if limit and sum(limit.values()) != 1:
        raise BoundViolation("limit marginal does not sum to 1")
    return PkDistribution(o, k, n, limit, prev, stabilized, tv)


# -- geometric-mean norm over segment endpoints --------------------------------------


@dataclass
class KappaStar:
    o: int
    k: int
    p_k: dict[int, Fraction]
    estimates: dict[int, KappaEstimate]
    value_sequence: list[float]
    diagnostic: BoundReport

    @property
    def value(self) -> float:
        return self.value_sequence[-1]


def kappa_star(g: SerreGraph, o: int, k: int, rho_value: float, mmax: int = 4) -> KappaStar:
    """Geometric mean of the endpoint norms weighted by the stabilized
    time-k nullcycle marginal, with the spectral-radius display.

    The display compares log rho(G) = log rho_value against log rho(T_d) -
    (1/k) log of the estimate. Finite graphs sit outside the statement's
    hypotheses and the right side over-estimates (the norms are approached
    from below), so the report is informational: a nonnegative margin would
    be evidence stronger than the statement, a negative one contradicts nothing.
    """
    d = require_regular(g)
    pk = p_k_distribution(g, o, k)
    ests = {x: kappa_estimate(g, o, x, k, mmax) for x in sorted(pk.values)}
    m_common = min(e.achieved_m for e in ests.values())
    seq = []
    for m in range(m_common):
        log_val = sum(float(q) * math.log(ests[x].kappa[m]) for x, q in pk.values.items())
        seq.append(math.exp(log_val))
    for a, b in zip(seq, seq[1:]):
        if a > b + 1e-12:
            raise BoundViolation("kappa-star sequence decreased")
    diag = report(
        f"kappa-star-display k={k}",
        lhs=math.log(rho_value),
        rhs=math.log(rho_tree(d)) - math.log(seq[-1]) / k,
        hypotheses=(
            Hypothesis(
                "infinite unimodular graph",
                False,
                "finite input: display is informational",
            ),
        ),
        constants={"kappa_star": seq[-1], "m": m_common, "rho": rho_value},
        notes="right side uses from-below norm estimates; see docstring",
    )
    return KappaStar(o, k, dict(pk.values), ests, seq, diag)


def lemma_basic_check(g: SerreGraph, o: int, x: int, w_path, k: int) -> BoundReport:
    """|W_k(o,x)| kappa_hat <= (d rho(T_d))^(k+|w|), verdict-grade since the
    norm estimate only lowers the left side; the companion count
    |W_k(o,x) w  intersect  nullhomotopic| <= |W_k| kappa_hat rides along in
    the constants as informational (the estimate can undershoot it).
    """
    d = require_regular(g)
    w_path = tuple(w_path)
    if Walk(x, w_path).vertices(g)[-1] != o:  # an empty path stays at x
        raise ValueError("w_path must run from x to o")
    est = kappa_estimate(g, o, x, k, mmax=6)  # the one enumeration of W_k(o,x)
    *_, into = _walk_inflows(g.nv, _edge_arrays(g), o, k, reduced=False)
    size = int(into[x])
    # w w_path is nullhomotopic iff the lift of w from o ends at the lift of
    # reversed w_path, j = |w_path reduced| tree steps away: u[k][j] walks on T_d
    j = len(reduce_word(g, w_path))
    closed_null = tables_for(d, 2 * k).u[k][j] if j <= k else 0
    lhs_mid = size * est.last
    bound = (d * rho_tree(d)) ** (k + len(w_path))
    left_ok = closed_null <= lhs_mid + 1e-12
    return report(
        f"walkset-norm-chain k={k} |w|={len(w_path)}",
        lhs=bound,
        rhs=lhs_mid,
        constants={
            "|W_k|": size,
            "kappa_hat": est.last,
            "m": est.achieved_m,
            "nullhomotopic closures": closed_null,
            "left inequality holds at kappa_hat": left_ok,
        },
        tolerance=1e-9 * (1.0 + bound),
        notes="pass means |W_k| kappa_hat <= (d rho(T_d))^(k+|w|); "
        "the closure count comparison is informational",
    )


def szep_tree_degenerate(d: int, nkmax: int = 64) -> BoundReport:
    """With trivial fundamental group every norm factor is 1, so the chain
    collapses to (d rho(T_d))^(nk) >= |N_nk|: exact integers for even nk.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if nkmax < 2:
        raise ValueError("nkmax must be >= 2")
    t = tables_for(d, nkmax)
    worst = None
    for nk in range(2, nkmax + 1, 2):
        lhs = 2 ** nk * (d - 1) ** (nk // 2)  # (2 sqrt(d-1))^nk
        rhs = t.u[nk][0]
        if lhs < rhs:
            raise BoundViolation(f"tree count chain failed at nk={nk}")
        ratio = Fraction(lhs, rhs)
        if worst is None or ratio < worst[1]:
            worst = (nk, ratio)
    nk, ratio = worst
    return report(
        f"szep-tree-degenerate d={d}",
        lhs=_flog(ratio),
        rhs=0.0,
        constants={"tightest nk": nk, "count ratio": float(ratio), "nkmax": nkmax},
        notes="log of the smallest bound/count ratio over even nk",
    )

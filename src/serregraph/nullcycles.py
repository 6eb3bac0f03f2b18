"""Nullcycles: closed walks whose lift to the universal cover returns.

Equivalently, walks whose edge word reduces to the empty word when adjacent
inverse pairs are erased. The sampler is exactly uniform: each step draws an
integer below the exact count of completions, so there is no floating-point
anywhere in the distribution. It serves the `nullcycle sample` command. The
verdicts in bounds read exact sums over all nullcycles instead, so no verdict
draws a walk: chi_moments weighs the reduced word of each unbalanced closed
k-walk, from core._unbalanced_words, with one non-backtracking kernel pass,
and bounds.lemma_visits_lower reads the same words at its root.
enumerate_nullcycles lists the nullcycles themselves, for cross-checks."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from . import core
from .core import (SerreGraph, Walk, _edge_arrays, _unbalanced_edge, _unbalanced_words,
                   _walk_inflows, require_regular)
from .report import BoundReport, BoundViolation, Hypothesis, upper
from .treewalk import bridge_distance_distribution, tables_for

# -- classification ----------------------------------------------------------


@dataclass
class CycleClassification:
    trivial: bool
    witness: int | None  # offending directed edge id when nontrivial


def classify_cycle(g: SerreGraph, walk: Walk) -> CycleClassification:
    """Balanced-traversal test.

    Trivial means: no half-loop is traversed, and every directed edge is
    traversed exactly as often as its inverse. Full loops take part in the
    balance like any other edge, so the pair (l, inv l) is trivial while
    (l, l) is not. A traversed half-loop is nontrivial by convention.
    """
    if not walk.is_closed(g):
        raise ValueError("classification is defined for closed walks only")
    witness = _unbalanced_edge(g, walk.edges)
    return CycleClassification(trivial=witness is None, witness=witness)


def enumerate_nullcycles(g: SerreGraph, root: int, n: int) -> list[tuple[int, ...]]:
    """All length-n nullcycles at root, as edge-id tuples. Exponential in n;
    meant for n <= 10 cross-checks."""
    if n % 2:
        return []
    dst, inv = g.dst, g.inv
    res: list[tuple[int, ...]] = []

    def rec(v, stack, prefix):
        if len(prefix) == n:
            if not stack:
                res.append(tuple(prefix))
            return
        if len(stack) > n - len(prefix):
            return
        for e in g.out_edges(v):
            if stack and e == inv[stack[-1]]:
                rec(dst[e], stack[:-1], prefix + [e])
            else:
                rec(dst[e], stack + [e], prefix + [e])

    rec(root, [], [])
    return res


def chi_moments(g: SerreGraph, root: int, n: int, ks) -> dict[int, tuple[int, int]]:
    """For each k in ks, the pair (closed nk-walks at root, sum of chi(w) over
    the length-nk nullcycles w at root), both exact, where chi(w) counts the
    aligned segments w[jk:(j+1)k] that are unbalanced closed walks (chi_statistic
    with a visit cap no walk reaches).

    Let N = nk, a = jk, b = N - a - k. Lifted to the covering tree, a
    nullcycle with an unbalanced closed segment c at v reads p c s: its
    length-a prefix ends at a lift p of v, a non-backtracking path from the
    root, and its suffix returns from p c reduced. With f_1..f_L the reduced
    word of c and m the overlap (how far p's tail cancels f_1 f_2 ...), that
    word has length |p| + L - 2m, so the sum is
    sum_j sum_c sum_r sum_m [A_m(r) - A_{m+1}(r)] u[a][r] u[b][r + L - 2m].
    A_0(r) = NB_r(o -> v) counts the non-backtracking r-paths from the root
    to v; for m >= 1, A_m(r) counts those ending in inv f_m .. inv f_1, that
    is NB_{r-m}(o -> dst f_m) less x_{r-m}(f_m), the paths whose last edge is
    f_m, from the pair recurrence x_s(f) = NB_{s-1}(src f) - x_{s-1}(inv f).
    Telescoping over m leaves one graph vector per shift L - 2m. Only
    r <= N/2 contributes, since r <= a and r <= b + k, and a vertex whose
    radius-floor(k/2) ball is a tree carries no unbalanced closed k-walk.

    The closed count is sum over w of (sum_r u[N/2][r] NB_r(o -> w))^2: a
    walk of length N/2 lifts to a tree walk from the root to a lift of w.
    One non-backtracking pass of the kernel, to depth max(nk)/2, serves
    every k.
    """
    d = require_regular(g)
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n * k <= 0 or n * k % 2:
            raise ValueError("nk must be positive and even")
    if not ks:
        return {}
    src, dst = g.src, g.dst
    top = max(n * k for k in ks) // 2
    u = tables_for(d, 2 * top).u
    # per k, the signed weight of each (shift, m, vertex for m = 0 or edge f_m)
    weights = {}
    for k in set(ks):
        w = weights[k] = Counter()
        for v in range(g.nv):
            for word, c in Counter(_unbalanced_words(g, v, k, core.WALK_BUDGET)).items():
                size = len(word)
                w[size, 0, v] += c
                for m, f in enumerate(word, 1):
                    w[size - 2 * m, m, f] += c
                    w[size - 2 * m + 2, m, f] -= c
    edges = {x for w in weights.values() for (_, m, x) in w if m}
    track = sorted({x for w in weights.values() for (_, m, x) in w if not m}
                   | {src[f] for f in edges} | {dst[f] for f in edges})
    nb = {v: [] for v in track}
    half = {k: n * k // 2 for k in ks}
    walks_to = {k: [0] * g.nv for k in ks}
    for r, inflow in enumerate(_walk_inflows(g.nv, _edge_arrays(g), root, top, reduced=True)):
        row = inflow.tolist()
        for v in track:
            nb[v].append(row[v])
        for k, t in half.items():
            if r <= t and u[t][r]:
                walks_to[k] = list(map(add, walks_to[k], map(mul, repeat(u[t][r]), row)))
    # B_f(s) = NB_s(o -> dst f) - x_s(f): the s-paths that inv f extends
    extend = {}
    for f in edges:
        into, out = nb[src[f]], nb[dst[f]]
        xf = xi = 0
        seq = extend[f] = []
        for s in range(top + 1):
            seq.append(out[s] - xf)
            xf, xi = into[s] - xi, out[s] - xf
    result = {}
    for k in ks:
        nk, rmax = n * k, half[k]
        shift: dict[int, list[int]] = {}
        for (delta, m, x), c in weights[k].items():
            if c:
                vec = shift.setdefault(delta, [0] * (rmax + 1))
                seq = nb[x] if not m else extend[x]
                for r in range(m, rmax + 1):
                    vec[r] += c * seq[r - m]
        chi = 0
        for j in range(n):
            a = j * k
            b = nk - a - k
            ua, ub = u[a], u[b]
            for delta, vec in shift.items():
                lo, hi = max(0, -delta), min(rmax, a, b - delta)
                lo += (lo - a) % 2
                if lo <= hi:
                    chi += sum(map(mul, map(mul, ua[lo:hi + 1:2], ub[lo + delta:hi + delta + 1:2]),
                                   vec[lo:hi + 1:2]))
        result[k] = (sum(c * c for c in walks_to[k]), chi)
    return result


# -- exact-uniform sampler ---------------------------------------------------


class NullcycleSampler:
    """Uniform sampler over length-n nullcycles at a root.

    State during a draw is the stack of directed edges not yet undone (the
    walk is at the head of its top edge); its depth is the distance of the
    walk's lift from the root's lift. With m steps left at depth k, the pop
    move has exactly u[m-1][k-1] completions and each of the other edges
    u[m-1][k+1], summing to u[m][k], so drawing an integer below u[m][k] and
    slicing it by those counts is exactly uniform.
    """

    def __init__(self, g: SerreGraph, root: int, n: int):
        if n % 2:
            raise ValueError("nullcycles have even length")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if not 0 <= root < g.nv:
            raise ValueError(f"root {root} is not a vertex (0..{g.nv - 1})")
        self.d = require_regular(g)
        self.g = g
        self.root = root
        self.n = n
        self.tables = tables_for(self.d, max(n, 2))
        # per directed edge e, the pushes after it: out-edges of dst[e] but inv[e]
        self._nonback = tuple(
            tuple(f for f in g.out_edges(v) if f != back) for v, back in zip(g.dst, g.inv)
        )

    def draws(self, count: int, seed):
        """Reproducible stream of walks; one RNG drives all count draws."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rng = random.Random(seed)
        for _ in range(count):
            yield self._draw(rng)

    def _draw(self, rng) -> Walk:
        # getrandbits by rejection, as randrange draws: the stream is the same
        getrandbits, u = rng.getrandbits, self.tables.u
        inv, nonback, out = self.g.inv, self._nonback, self.g.out_edges(self.root)
        stack: list[int] = []
        edges: list[int] = []
        for m in range(self.n, 0, -1):
            k = len(stack)
            total, nxt = u[m][k], u[m - 1]
            bits = total.bit_length()
            r = getrandbits(bits)
            while r >= total:
                if not total:
                    raise ValueError("empty range for randrange()")
                r = getrandbits(bits)
            if k == 0:
                e = out[r // nxt[1]]
                stack.append(e)
            else:
                top = stack[-1]
                wdown = nxt[k - 1]
                if r < wdown:
                    e = inv[top]
                    stack.pop()
                else:
                    e = nonback[top][(r - wdown) // nxt[k + 1]]
                    stack.append(e)
            edges.append(e)
        assert not stack
        return Walk(self.root, tuple(edges))


# -- chi ----------------------------------------------------------------------


def chi_statistic(g: SerreGraph, walk: Walk, k: int, ell: int) -> int:
    """Number of aligned length-k segments that are nontrivial cycles and
    whose base vertex is visited at most ell times by the whole walk.

    Visits are counted at every time 0..len(walk) inclusive, so the walk's
    base point picks up its wrap-around visit; the count includes the
    segment's own base time.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nk = len(walk.edges)
    if nk % k:
        raise ValueError("walk length must be divisible by k")
    vs = walk.vertices(g)
    visits: dict[int, int] = {}
    for v in vs:
        visits[v] = visits.get(v, 0) + 1
    total = 0
    for j in range(nk // k):
        a = j * k
        if vs[a] != vs[a + k]:
            continue
        if _unbalanced_edge(g, walk.edges[a : a + k]) is None:
            continue
        if visits[vs[a]] <= ell:
            total += 1
    return total


# -- expected visits -----------------------------------------------------------


def nonbacktracking_hit_fractions(g: SerreGraph, root: int, targets, nmax: int) -> list[Fraction]:
    """q_k(A): probability that a uniform non-backtracking k-step path from
    the root ends in A. Exact integer path counts over d (d-1)^(k-1); q_k is
    0 where no reduced k-path exists (d = 1, k >= 2)."""
    d = require_regular(g)
    hit = sorted(set(targets))
    for v in hit:
        if not 0 <= v < g.nv:
            raise ValueError(f"target {v} is not a vertex (0..{g.nv - 1})")
    out = []
    for k, c in enumerate(_walk_inflows(g.nv, _edge_arrays(g), root, nmax, reduced=True)):
        paths = d * (d - 1) ** (k - 1) if k else 1
        out.append(Fraction(int(c[hit].sum()), paths) if paths else Fraction(0))
    return out


@dataclass
class ExpectedVisits:
    value: Fraction
    reports: tuple[BoundReport, ...]


def expected_visits(g: SerreGraph, root: int, targets, n: int, rho_value: float) -> ExpectedVisits:
    """Exact expected number of times j in 0..n at which the uniform length-n
    nullcycle sits in the target set.

    Decomposition: condition on the lift's distance k at time j (bridge
    marginal), then the position in the graph is the endpoint of a uniform
    non-backtracking k-path from the root. Two crude upper bounds are
    evaluated when their hypotheses hold, rho(G) = rho_value; a failed
    hypothesis downgrades the report to not-applicable instead of raising.
    """
    d = require_regular(g)
    if n % 2:
        raise ValueError("n must be even")
    tset = set(targets)
    q = nonbacktracking_hit_fractions(g, root, tset, n)
    total = Fraction(0)
    for j in range(n + 1):
        marg = bridge_distance_distribution(d, j, n)
        total += sum((p * q[k] for k, p in enumerate(marg) if p), Fraction(0))
    size_ok = Hypothesis("n^2 <= |G|", n * n <= g.nv, f"n^2={n*n}, |G|={g.nv}")
    rho_ok = Hypothesis("rho <= 19/20", rho_value <= 19 / 20, f"rho={rho_value:.6f}")
    if rho_value < 1.0:
        general = 4e4 * len(tset) * (1.0 / (1.0 - rho_value) ** 2 + 72.0 * n * n / g.nv)
    else:
        general = math.inf
    rep1 = upper(
        "visit-bound general",
        value=float(total),
        bound=general,
        hypotheses=(size_ok,),
        constants={"|A|": len(tset), "rho": rho_value},
    )
    rep2 = upper(
        "visit-bound small-rho",
        value=float(total),
        bound=2e7 * len(tset),
        hypotheses=(size_ok, rho_ok),
        constants={"|A|": len(tset)},
    )
    return ExpectedVisits(value=total, reports=(rep1, rep2))


# -- parity lemma ---------------------------------------------------------------


def parity_probability(n: int, k: int, x) -> Fraction:
    """P(X == x mod 2) for X uniform over k-tuples of nonnegative integers
    with sum n. Zero when the pattern's odd count mismatches n's parity."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(x) != k:
        raise ValueError("pattern length must equal k")
    j = sum(1 for xi in x if xi % 2)
    if (n - j) % 2:
        return Fraction(0)
    p = Fraction(math.comb(n // 2 - j // 2 + k - 1, k - 1), math.comb(n + k - 1, k - 1))
    if j == 0:
        cap = math.exp(-1.0 / (4.0 / k + 2.0 / n))
        if float(p) > cap:
            raise BoundViolation(f"all-even parity mass {p} exceeds exp cap {cap}")
    else:
        if p > Fraction(1, 2):
            raise BoundViolation(f"parity mass {p} exceeds 1/2 at j={j}")
    return p


def _even_part_count(n: int, parts) -> int:
    """Number of compositions of n whose sum over each part is even.

    Convolution over parts: a part with s slots and even subtotal t admits
    C(t+s-1, s-1) fillings, independent across parts.
    """
    acc = [0] * (n + 1)
    acc[0] = 1
    for p in parts:
        s = len(p)
        new = [0] * (n + 1)
        for t in range(0, n + 1, 2):
            ways = math.comb(t + s - 1, s - 1)
            for base in range(n + 1 - t):
                if acc[base]:
                    new[base + t] += acc[base] * ways
        acc = new
    return acc[n]


@dataclass
class ParityPartitionResult:
    probability: float
    exact: Fraction
    bound: float
    n_parts: int
    max_part: int


def parity_partition_probability(n: int, parts) -> ParityPartitionResult:
    """P(every part-sum of X is even) for X uniform over compositions of n.

    Exact: the count of compositions whose part-sums are all even, from the
    convolution of _even_part_count (O(m n^2) big-int steps for m parts, no
    composition enumerated), over the C(n+k-1, k-1) compositions of n into k
    entries. The 14 exp(-(m ^ n/l)/14) cap is asserted.
    """
    parts = [tuple(p) for p in parts]
    if not parts or any(not p for p in parts):
        raise ValueError("parts must be nonempty")
    idx = sorted(i for p in parts for i in p)
    k = len(idx)
    if idx != list(range(k)):
        raise ValueError("parts must partition 0..k-1")
    if k < 2:
        raise ValueError("need at least two tuple entries")
    m = len(parts)
    ell = max(len(p) for p in parts)
    bound = 14.0 * math.exp(-min(m, n / ell) / 14.0)
    p = Fraction(_even_part_count(n, parts), math.comb(n + k - 1, k - 1))
    if float(p) > bound:
        raise BoundViolation(f"partition parity mass {p} exceeds cap {bound}")
    return ParityPartitionResult(probability=float(p), exact=p, bound=bound, n_parts=m,
                                 max_part=ell)

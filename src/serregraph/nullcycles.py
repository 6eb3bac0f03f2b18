"""Nullcycles: closed walks whose lift to the universal cover returns.

Equivalently, walks whose edge word reduces to the empty word when adjacent
inverse pairs are erased. The sampler is exactly uniform: each step draws an
integer below the exact count of completions, so there is no floating-point
anywhere in the distribution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SerreGraph, Walk, _edge_arrays, _walk_inflows, require_regular
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


def _unbalanced_edge(g: SerreGraph, edges) -> int | None:
    """classify_cycle's witness for a word known to be closed; None if trivial."""
    counts: dict[int, int] = {}
    for e in edges:
        if g.inv[e] == e:
            return e
        counts[e] = counts.get(e, 0) + 1
    for e, c in counts.items():
        if counts.get(g.inv[e], 0) != c:
            return e
    return None


def is_nullcycle(g: SerreGraph, walk: Walk) -> bool:
    """True when the edge word reduces to the empty word."""
    stack: list[int] = []
    v = walk.start
    for e in walk.edges:
        if g.src[e] != v:
            raise ValueError("broken walk")
        if stack and e == g.inv[stack[-1]]:
            stack.pop()
        else:
            stack.append(e)
        v = g.dst[e]
    return not stack


def enumerate_nullcycles(g: SerreGraph, root: int, n: int) -> list[tuple[int, ...]]:
    """All length-n nullcycles at root, as edge-id tuples. Exponential in n;
    meant for n <= 10 cross-checks."""
    if n % 2:
        return []
    res: list[tuple[int, ...]] = []

    def rec(v, stack, prefix):
        if len(prefix) == n:
            if not stack:
                res.append(tuple(prefix))
            return
        if len(stack) > n - len(prefix):
            return
        for e in g.out_edges(v):
            if stack and e == g.inv[stack[-1]]:
                rec(g.dst[e], stack[:-1], prefix + [e])
            else:
                rec(g.dst[e], stack + [e], prefix + [e])

    rec(root, [], [])
    return res


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
        self.d = require_regular(g)
        self.g = g
        self.root = root
        self.n = n
        self.tables = tables_for(self.d, max(n, 2))
        # per directed edge e, the pushes after it: out-edges of dst[e] but inv[e]
        self._nonback = tuple(
            tuple(f for f in g.out_edges(v) if f != back) for v, back in zip(g.dst, g.inv)
        )

    def sample(self, seed) -> Walk:
        return next(self.draws(1, seed))

    def draws(self, count: int, seed):
        """Reproducible stream of walks; one RNG drives all count draws."""
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


def sampler_distribution(g: SerreGraph, root: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """The sampler's induced distribution, computed symbolically by walking
    every branch and multiplying exact step probabilities."""
    d = require_regular(g)
    if n % 2:
        raise ValueError("nullcycles have even length")
    u = tables_for(d, max(n, 2)).u
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(v, stack, prefix, prob):
        j = len(prefix)
        m = n - j
        if m == 0:
            out[tuple(prefix)] = prob
            return
        k = len(stack)
        total = u[m][k]
        if k == 0:
            w = Fraction(u[m - 1][1], total)
            for e in g.out_edges(v):
                rec(g.dst[e], stack + [e], prefix + [e], prob * w)
        else:
            back = g.inv[stack[-1]]
            pdown = Fraction(u[m - 1][k - 1], total)
            if pdown:
                rec(g.dst[back], stack[:-1], prefix + [back], prob * pdown)
            wup = Fraction(u[m - 1][k + 1], total)
            if wup:
                for e in g.out_edges(v):
                    if e != back:
                        rec(g.dst[e], stack + [e], prefix + [e], prob * wup)

    rec(root, [], [], Fraction(1))
    return out


# -- chi ----------------------------------------------------------------------


def chi_statistic(g: SerreGraph, walk: Walk, k: int, ell: int) -> int:
    """Number of aligned length-k segments that are nontrivial cycles and
    whose base vertex is visited at most ell times by the whole walk.

    Visits are counted at every time 0..len(walk) inclusive, so the walk's
    base point picks up its wrap-around visit; the count includes the
    segment's own base time.
    """
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
    hit = [v for v in set(targets) if 0 <= v < g.nv]
    out = []
    for k, c in enumerate(_walk_inflows(g.nv, _edge_arrays(g), root, nmax, reduced=True)):
        paths = d * (d - 1) ** (k - 1) if k else 1
        out.append(Fraction(int(c[hit].sum()), paths) if paths else Fraction(0))
    return out


@dataclass
class ExpectedVisits:
    value: Fraction
    rho: float
    reports: tuple[BoundReport, ...]


def expected_visits(g: SerreGraph, root: int, targets, n: int) -> ExpectedVisits:
    """Exact expected number of times j in 0..n at which the uniform length-n
    nullcycle sits in the target set.

    Decomposition: condition on the lift's distance k at time j (bridge
    marginal), then the position in the graph is the endpoint of a uniform
    non-backtracking k-path from the root. Two crude upper bounds are
    evaluated when their hypotheses hold; a hypothesis failure downgrades the
    report to not-applicable instead of raising.
    """
    from .spectral import rho as rho_of  # local import to keep modules independent

    d = require_regular(g)
    if n % 2:
        raise ValueError("n must be even")
    tset = set(targets)
    q = nonbacktracking_hit_fractions(g, root, tset, n)
    total = Fraction(0)
    for j in range(n + 1):
        marg = bridge_distance_distribution(d, j, n)
        total += sum((p * q[k] for k, p in enumerate(marg) if p), Fraction(0))
    r = rho_of(g)
    size_ok = Hypothesis("n^2 <= |G|", n * n <= g.nv, f"n^2={n*n}, |G|={g.nv}")
    rho_ok = Hypothesis("rho <= 19/20", r <= 19 / 20, f"rho={r:.6f}")
    if r < 1.0:
        general = 4e4 * len(tset) * (1.0 / (1.0 - r) ** 2 + 72.0 * n * n / g.nv)
    else:
        general = math.inf
    rep1 = upper(
        "visit-bound general",
        value=float(total),
        bound=general,
        hypotheses=(size_ok,),
        constants={"|A|": len(tset), "rho": r},
    )
    rep2 = upper(
        "visit-bound small-rho",
        value=float(total),
        bound=2e7 * len(tset),
        hypotheses=(size_ok, rho_ok),
        constants={"|A|": len(tset)},
    )
    return ExpectedVisits(value=total, rho=r, reports=(rep1, rep2))


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


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n (oracle helper)."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


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
    exact: Fraction | None
    stderr: float | None
    bound: float
    n_parts: int
    max_part: int


def parity_partition_probability(
    n: int, parts, samples: int = 200000, seed: int = 0
) -> ParityPartitionResult:
    """P(every part-sum of X is even) for X uniform over compositions of n.

    Exact enumeration when the composition count is at most 10^7, Monte Carlo
    with reported standard error otherwise. The 14 exp(-(m ^ n/l)/14) cap is
    asserted, with 3 sigma slack in the sampled case.
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
    ncomp = math.comb(n + k - 1, k - 1)
    if ncomp <= 10 ** 7:
        p = Fraction(_even_part_count(n, parts), ncomp)
        if float(p) > bound:
            raise BoundViolation(f"partition parity mass {p} exceeds cap {bound}")
        return ParityPartitionResult(
            probability=float(p), exact=p, stderr=None, bound=bound,
            n_parts=m, max_part=ell,
        )
    rng = np.random.default_rng(seed)
    # uniform composition = gaps between a uniform (k-1)-subset of n+k-1 slots
    hits = 0
    batch = 20000
    done = 0
    want = samples
    part_masks = [np.array(p, dtype=np.int64) for p in parts]
    while done < want:
        b = min(batch, want - done)
        U = rng.random((b, n + k - 1))
        cuts = np.sort(np.argpartition(U, k - 2, axis=1)[:, : k - 1], axis=1)
        bounds = np.concatenate(
            [np.full((b, 1), -1, dtype=np.int64), cuts,
             np.full((b, 1), n + k - 1, dtype=np.int64)], axis=1
        )
        entries = np.diff(bounds, axis=1) - 1  # (b, k), sums to n
        ok = np.ones(b, dtype=bool)
        for mask in part_masks:
            ok &= entries[:, mask].sum(axis=1) % 2 == 0
        hits += int(ok.sum())
        done += b
    phat = hits / want
    se = math.sqrt(max(phat * (1 - phat), 1e-12) / want)
    if phat - 3 * se > bound:
        raise BoundViolation(f"partition parity estimate {phat} exceeds cap {bound}")
    return ParityPartitionResult(
        probability=phat, exact=None, stderr=se, bound=bound,
        n_parts=m, max_part=ell,
    )

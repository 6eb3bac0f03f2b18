"""Exact walk combinatorics on the d-regular tree and on Z.

Everything here is arbitrary-precision integer or exact rational; bound
comparisons are exact rational, floats appear only in reported margins and
in the explicitly approximate helpers (quadrature, large-length normalized
DP, Monte Carlo).

Core tables, for the infinite d-regular tree rooted at o:

  c[n][k]  number of length-n walks starting at o that end at distance k
  u[n][k]  number of length-n walks from a fixed vertex at distance k
           that end at o

They satisfy c[n][k] = u[n][k] * d * (d-1)^(k-1) for k >= 1 (the sphere at
distance k has d*(d-1)^(k-1) exchangeable vertices) and c[n][0] = u[n][0].
c[n][0] is also the number of nullcycles of length n at any vertex of any
d-regular graph, which is why every other module consumes these tables.
Tables live in memory only (tables_for). A build stores u; c comes from its
own DP on first access, and nullcycle counts read u[n][0] instead.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .exact import cmp_ratio_bound, rho_tree
from .report import BoundReport, BoundViolation, report

TABLE_FORMAT_VERSION = 1
DEFAULT_NMAX = 512


class TreeWalkTables:
    """Immutable walk-count tables for one degree d up to length nmax."""

    __slots__ = ("d", "nmax", "_c", "u")

    def __init__(self, d: int, nmax: int, _c=None):
        if d < 1:
            raise ValueError("degree must be >= 1")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        self.d = d
        self.nmax = nmax
        self._c = _c
        self.u = self._build_u(d, nmax)

    @property
    def c(self):
        if self._c is None:
            self._c = self._build_c(self.d, self.nmax)
        return self._c

    @staticmethod
    def _build_c(d, nmax):
        # c[n][k], row n has entries k = 0..nmax, zeros where unreachable
        width = nmax + 2  # one spare column so c[n-1][k+1] never indexes out
        rows = [[0] * width for _ in range(nmax + 1)]
        rows[0][0] = 1
        for n in range(1, nmax + 1):
            prev, cur = rows[n - 1], rows[n]
            cur[0] = prev[1]
            for k in range(1, n + 1):
                mult = d if k == 1 else d - 1
                cur[k] = mult * prev[k - 1] + prev[k + 1]
        return rows

    @staticmethod
    def _build_u(d, nmax):
        width = nmax + 2
        rows = [[0] * width for _ in range(nmax + 1)]
        rows[0][0] = 1
        for n in range(1, nmax + 1):
            prev, cur = rows[n - 1], rows[n]
            cur[0] = d * prev[1]
            for k in range(1, n + 1):
                cur[k] = prev[k - 1] + (d - 1) * prev[k + 1]
        return rows

    # -- persistence ------------------------------------------------------
    # unused by the package; kept while perfbench/tracer.py binds both by name

    def cache_key(self) -> str:
        return f"treewalk-d{self.d}-n{self.nmax}-v{TABLE_FORMAT_VERSION}"

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, self.cache_key() + ".txt")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{self.d} {self.nmax} {TABLE_FORMAT_VERSION}\n")
            for n in range(self.nmax + 1):
                fh.write(" ".join(str(x) for x in self.c[n][: n + 1]) + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, d, nmax, directory):
        path = os.path.join(directory, f"treewalk-d{d}-n{nmax}-v{TABLE_FORMAT_VERSION}.txt")
        with open(path) as fh:
            header = fh.readline().split()
            if [int(header[0]), int(header[1]), int(header[2])] != [d, nmax, TABLE_FORMAT_VERSION]:
                raise ValueError("cache header mismatch")
            width = nmax + 2
            rows = []
            for n in range(nmax + 1):
                vals = [int(tok) for tok in fh.readline().split()]
                if len(vals) != n + 1:
                    raise ValueError(f"row {n} has {len(vals)} entries")
                rows.append(vals + [0] * (width - len(vals)))
        return cls(d, nmax, _c=rows)


_MEMO: dict[int, TreeWalkTables] = {}


def tables_for(d: int, nmax: int) -> TreeWalkTables:
    """Shared tables, grown on demand; the biggest build per degree is kept
    in memory, nothing goes to disk, and c is derived on first access."""
    t = _MEMO.get(d)
    if t is not None and t.nmax >= nmax:
        return t
    t = TreeWalkTables(d, nmax)
    _MEMO[d] = t
    return t


# -- return probabilities -------------------------------------------------


def return_probability(d: int, n: int, allow_odd: bool = False) -> Fraction:
    """r_n = c[n][0] / d^n, the n-step return probability on the tree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        if allow_odd:
            return Fraction(0)
        raise ValueError("odd n has r_n = 0; pass allow_odd=True to get it")
    t = tables_for(d, n)
    return Fraction(t.u[n][0], d ** n)


def nullcycle_count(d: int, n: int) -> int:
    """|N_n| = c[n][0], the number of length-n nullcycles at a vertex."""
    if n % 2:
        return 0
    return tables_for(d, n).u[n][0]


def check_return_bounds(d: int, nmax: int) -> list[BoundReport]:
    """Two-sided bound (2/3) rho^n n^(-3/2) < r_n < 10 rho^n n^(-3/2).

    One report per even 0 < n <= nmax. Comparisons are exact (squared
    rationals), margins are reported as floats for readability.
    """
    if d < 3:
        raise ValueError("the two-sided bound needs d >= 3")
    t = tables_for(d, nmax)
    rho = rho_tree(d)
    out = []
    for n in range(2, nmax + 1, 2):
        r = Fraction(t.u[n][0], d ** n)
        lo_ok = cmp_ratio_bound(r, Fraction(2, 3), d, n) > 0
        hi_ok = cmp_ratio_bound(r, Fraction(10), d, n) < 0
        if not (lo_ok and hi_ok):
            raise BoundViolation(f"return bound failed at d={d}, n={n}: r_n={r}")
        scale = rho ** n * n ** -1.5
        rep = report(
            f"return-bounds d={d} n={n}",
            lhs=float(r),
            rhs=(2.0 / 3.0) * scale,
            constants={"lower_coef": Fraction(2, 3), "upper_coef": Fraction(10), "r_n": r},
            notes="pass means (2/3)rho^n n^-1.5 < r_n < 10 rho^n n^-1.5, checked exactly",
        )
        # oriented margin: distance to the nearer of the two exact bounds
        rep.margin = min(float(r) - (2.0 / 3.0) * scale, 10.0 * scale - float(r))
        out.append(rep)
    return out


def kesten_mckay_moment(d: int, n: int, tol: float = 1e-10) -> float:
    """n-th moment of the tree spectral density by adaptive quadrature.

    Substituting t = rho*sin(theta) removes the inverse-square-root edge
    singularity; the quadrature then reaches machine accuracy. Raises if the
    error estimate exceeds tol.
    """
    # imported here, its only use, so the CLI does not load scipy on every call
    from scipy import integrate

    if n % 2:
        raise ValueError("odd moments vanish; n must be even")
    if d < 2:
        raise ValueError("d must be >= 2")
    if n == 0:
        return 1.0
    if d == 2:
        # arcsine law on [-1, 1]
        f = lambda th: (1.0 / math.pi) * math.sin(th) ** n
    else:
        rho = rho_tree(d)

        def f(th):
            s = rho * math.sin(th)
            return (d / (2.0 * math.pi)) * (rho * math.cos(th)) ** 2 * s ** n / (1.0 - s * s)

    val, err = integrate.quad(f, -math.pi / 2, math.pi / 2, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200)
    if err > tol:
        raise RuntimeError(f"quadrature achieved only {err:.3e} > tol {tol:.3e}")
    return val


# -- excursions on Z -------------------------------------------------------


class ExcursionTables:
    """Counts of simple-walk paths on Z.

    w[n][k]      = C(n, (n+k)/2), paths 0 -> k in n steps (0 if unreachable)
    wplus[n][k]  = paths 0 -> k in n steps staying positive after time 0;
                   (k/n) * w[n][k] by the ballot theorem for k >= 1, and the
                   first-return count 2*w[n-2][0]/n for k = 0 (Catalan).
    """

    __slots__ = ("nmax", "kmax")

    def __init__(self, nmax: int, kmax: int | None = None):
        self.nmax = nmax
        self.kmax = nmax if kmax is None else kmax

    def w(self, n: int, k: int) -> int:
        if k < 0 or k > n or (n + k) % 2:
            return 0
        return math.comb(n, (n + k) // 2)

    def wplus(self, n: int, k: int) -> int:
        if n == 0:
            return 1 if k == 0 else 0
        if k == 0:
            if n % 2 or n < 2:
                return 0
            return 2 * math.comb(n - 2, (n - 2) // 2) // n
        if k > n or (n + k) % 2:
            return 0
        return k * math.comb(n, (n + k) // 2) // n


def excursion_visits_z(k: int, n: int) -> Fraction:
    """Expected visits to level k by the uniform positive excursion of length n.

    v_{k,n} = sum_m wplus[m][k] * wplus[n-m][k] / wplus[n][0]. The 64k bound
    is asserted exactly and its failure would be reported, not hidden.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    tabs = ExcursionTables(n)
    denom = tabs.wplus(n, 0)
    total = 0
    for m in range(k, n - k + 1):
        if (m + k) % 2:
            continue
        total += tabs.wplus(m, k) * tabs.wplus(n - m, k)
    v = Fraction(total, denom)
    if not v <= 64 * k:
        raise BoundViolation(f"excursion visit bound failed: v_{{{k},{n}}} = {v} > {64*k}")
    return v


# -- the tree bridge -------------------------------------------------------


def bridge_distance_distribution(d: int, j: int, n: int) -> list[Fraction]:
    """P(|X_j| = k) for the uniform nullcycle (bridge) of length n; k = 0..j.

    Splitting the bridge at time j: c[j][k] walks reach the sphere, each of
    the d*(d-1)^(k-1) sphere vertices is equally likely, and u[n-j][k] walks
    complete to the root, so P = c[j][k] * u[n-j][k] / c[n][0].
    """
    if n % 2 or not 0 <= j <= n:
        raise ValueError("need even n and 0 <= j <= n")
    t = tables_for(d, n)
    denom = t.u[n][0]
    kcap = min(j, n - j)
    out = []
    for k in range(j + 1):
        if k > kcap or (j + k) % 2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(t.c[j][k] * t.u[n - j][k], denom))
    return out


def bridge_visit_expectation(d: int, k: int, n: int) -> Fraction:
    """Exact expected number of times the length-n bridge sits at distance k.

    Asserts the bounds 2*10^4*k (k >= 1) and 301 (k = 0); these come from
    exact rationals, so a failure raises instead of passing silently.
    """
    if n % 2 or n < 0:
        raise ValueError("n must be even and >= 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    t = tables_for(d, n)
    denom = t.u[n][0]
    total = 0
    for j in range(n + 1):
        if (j + k) % 2 or k > min(j, n - j):
            continue
        total += t.c[j][k] * t.u[n - j][k]
    val = Fraction(total, denom)
    bound = 301 if k == 0 else 20000 * k
    if not val <= bound:
        raise BoundViolation(f"bridge visit bound failed: d={d} k={k} n={n} E={val} > {bound}")
    return val


def bridge_visit_mc(d: int, k: int, n: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the same expectation.

    Simulates only the distance chain, vectorized across samples; transition
    probabilities are float64 (bias ~1e-16, irrelevant at 3 sigma).
    """
    if n % 2:
        raise ValueError("n must be even")
    t = tables_for(d, n)
    # pup[j][x] = P(step up | at distance x after j steps)
    pup = np.zeros((n, n + 2))
    for j in range(n):
        m = n - j
        cap = min(j, n - j)
        for x in range(cap + 1):
            if (j + x) % 2:
                continue
            up = (d if x == 0 else d - 1) * t.u[m - 1][x + 1]
            pup[j, x] = up / t.u[m][x]
    rng = np.random.default_rng(np.random.PCG64(seed))
    x = np.zeros(samples, dtype=np.int64)
    visits = np.zeros(samples, dtype=np.int64)
    if k == 0:
        visits += 1
    for j in range(n):
        go_up = rng.random(samples) < pup[j, x]
        x = np.where(go_up, x + 1, x - 1)
        visits += x == k
    mean = visits.mean()
    se = visits.std(ddof=1) / math.sqrt(samples)
    return float(mean), float(se)


def infinite_bridge_ratio(d: int, dist: int) -> Fraction:
    """Limit as m -> infinity of finite_bridge_ratio(d, dist, m).

    p_m(x_plus, o) / p_m(x_minus, o) tends to h(|x|+1) / h(|x|-1), where
    h(x) = (1 + x(d-2)/d) (d-1)^(-x/2) is the rho-harmonic radial function
    of the d-regular tree (spectral.radial_weight). Returns
    (d+(d-2)(|x|+1)) / ((d-1)(d+(d-2)(|x|-1))) exactly; it is 1 at d = 2.
    The up/down transition-probability ratio of the bridge at |x| is d-1
    times this value. bridge_ratio_convergence reports the finite-length
    ratio next to it.
    """
    if dist < 1:
        raise ValueError("dist must be >= 1")
    num = d + (d - 2) * (dist + 1)
    den = (d - 1) * (d + (d - 2) * (dist - 1))
    return Fraction(num, den)


_BRIDGE_ROWS: dict[tuple[int, int], np.ndarray] = {}  # (d, m) -> read-only DP row


def finite_bridge_ratio(d: int, dist: int, m: int) -> float:
    """p_m(x_plus, o) / p_m(x_minus, o) with |x_plus| = dist+1, |x_minus| = dist-1.

    This is the ratio of the m-step return probabilities from the two
    neighbours of a vertex at distance dist, u[m][dist+1] / u[m][dist-1].
    The bridge's up/down transition-probability ratio at that vertex is d-1
    times it. The limit in m is infinite_bridge_ratio(d, dist); the error
    is of order 1/m.

    Exact rational (converted to float) when tables of size m are affordable;
    above 2048 a normalized float64 DP is used (accumulated relative error
    about m * 1e-16, far below any tolerance used on it). Its row at m serves
    every dist of one parity, and a memo of at most 64 rows keeps a run's
    rows at m-7..m: bridge_ratio_convergence asks for m = n-dist-1.
    """
    if dist < 1:
        raise ValueError("dist must be >= 1")
    if (m + dist + 1) % 2:
        raise ValueError("parity: m and dist+1 must have equal parity")
    if m <= 2048:
        t = tables_for(d, max(m, 2))
        num, den = t.u[m][dist + 1], t.u[m][dist - 1]
        if den == 0:
            raise ZeroDivisionError("unreachable configuration")
        return num / den
    if (d, m) not in _BRIDGE_ROWS:
        # row[x] proportional to u[j][x]; after j steps every entry past j
        # is 0, so the first j+2 entries are bit for bit the row of a run to j
        if len(_BRIDGE_ROWS) >= 64:
            _BRIDGE_ROWS.clear()
        row = np.zeros(m + 2)
        row[0] = 1.0
        for j in range(1, m + 1):
            nxt = np.empty_like(row)
            nxt[0] = d * row[1]
            nxt[1:-1] = row[:-2] + (d - 1) * row[2:]
            nxt[-1] = row[-2]
            nxt /= nxt.max()
            row = nxt
            if j > m - 8:
                _BRIDGE_ROWS[d, j] = row[: j + 2]
                _BRIDGE_ROWS[d, j].flags.writeable = False
    row = _BRIDGE_ROWS[d, m]
    return row[dist + 1] / row[dist - 1]


def bridge_ratio_convergence(d: int, dist: int, n: int) -> dict:
    """Finite-length ratio at remaining length m = n - dist - 1 vs its limit.

    Returns both values, the absolute error, and whether it is within 1e-6.
    """
    m = n - dist - 1
    if (m + dist + 1) % 2:
        m -= 1
    limit = infinite_bridge_ratio(d, dist)
    fin = finite_bridge_ratio(d, dist, m)
    err = abs(fin - float(limit))
    return {
        "d": d,
        "dist": dist,
        "m": m,
        "limit": limit,
        "finite": fin,
        "abs_error": err,
        "within_1e6": err <= 1e-6,
    }

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
Tables live in memory only (tables_for), one per degree, grown in place. A
build stores u; c is derived from u by that identity on first access, and
nullcycle counts read u[n][0] instead.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .exact import cmp_ratio_bound, rho_tree
from .report import BoundReport, BoundViolation, report

TABLE_FORMAT_VERSION = 1
KM_TOL = 1e-10  # largest quadrature error kesten_mckay_moment accepts


class TreeWalkTables:
    """Walk-count tables for one degree d up to length nmax.

    Rows n = 0..nmax have nmax + 2 entries (k = 0..nmax + 1, zeros where
    unreachable). tables_for grows a kept table in place; the rows that
    existed before keep their values, only gaining zero columns.
    """

    __slots__ = ("d", "nmax", "_c", "u")

    def __init__(self, d: int, nmax: int, _c=None):
        if d < 1:
            raise ValueError("degree must be >= 1")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        self.d = d
        self.nmax = 0
        self.u = [[1, 0]]
        self._grow(nmax)
        self._c = _c

    @property
    def c(self):
        if self._c is None:
            d = self.d
            mult = [1] + [d * (d - 1) ** (k - 1) for k in range(1, self.nmax + 2)]
            self._c = [[x * m for x, m in zip(row, mult)] for row in self.u]
        return self._c

    def _grow(self, nmax):
        """Extend u to length nmax: widen every row to nmax + 2 entries (the
        spare column keeps prev[k + 1] in range) and append the new rows."""
        d, width, rows = self.d, nmax + 2, self.u
        for row in rows:
            row.extend([0] * (width - len(row)))
        for n in range(self.nmax + 1, nmax + 1):
            prev, cur = rows[n - 1], [0] * width
            cur[0] = d * prev[1]
            # a walk changes its distance's parity every step: cur[k] = 0
            # whenever n - k is odd
            for k in range(2 - n % 2, n + 1, 2):
                cur[k] = prev[k - 1] + (d - 1) * prev[k + 1]
            rows.append(cur)
        self.nmax = nmax
        self._c = None

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
    """Shared tables, one per degree, kept in memory and grown in place on
    demand, so a sampler holding them keeps drawing the same walks; nothing
    goes to disk, and c is derived on first access."""
    t = _MEMO.get(d)
    if t is None:
        t = _MEMO[d] = TreeWalkTables(d, nmax)
    elif t.nmax < nmax:
        t._grow(nmax)
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


def kesten_mckay_moment(d: int, n: int) -> float:
    """n-th moment of the tree spectral density by adaptive quadrature.

    Substituting t = rho*sin(theta) removes the inverse-square-root edge
    singularity; the quadrature then reaches machine accuracy. Raises if the
    error estimate exceeds KM_TOL.
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

    val, err = integrate.quad(f, -math.pi / 2, math.pi / 2, epsabs=KM_TOL * 1e-2,
                              epsrel=KM_TOL * 1e-2, limit=200)
    if err > KM_TOL:
        raise RuntimeError(f"quadrature achieved only {err:.3e} > tol {KM_TOL:.3e}")
    return val


# -- excursions on Z -------------------------------------------------------


def z_paths(n: int, k: int) -> int:
    """Simple-walk paths 0 -> k on Z in n steps: C(n, (n+k)/2), 0 if unreachable."""
    if k < 0 or k > n or (n + k) % 2:
        return 0
    return math.comb(n, (n + k) // 2)


def z_positive_paths(n: int, k: int) -> int:
    """Simple-walk paths 0 -> k on Z in n steps staying positive after time 0:
    (k/n) z_paths(n, k) by the ballot theorem for k >= 1, and the first-return
    count 2 z_paths(n-2, 0)/n for k = 0 (Catalan)."""
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

    v_{k,n} = sum_m w+(m, k) w+(n-m, k) / w+(n, 0) with w+ = z_positive_paths.
    The 64k bound is asserted exactly and its failure would be reported, not
    hidden.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    denom = z_positive_paths(n, 0)
    total = 0
    for m in range(k, n - k + 1):
        if (m + k) % 2:
            continue
        total += z_positive_paths(m, k) * z_positive_paths(n - m, k)
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

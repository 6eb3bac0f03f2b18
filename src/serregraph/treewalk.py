"""Exact walk combinatorics on the d-regular tree and on Z.

Everything here is arbitrary-precision integer or exact rational; bound
comparisons are exact rational, and floats appear only in reported margins
and in the normalized float DP that finite_bridge_ratio runs past length
2048.

The one stored table, for the infinite d-regular tree rooted at o:

  u[n][k]  number of length-n walks from a fixed vertex at distance k
           that end at o

The sphere at distance k has sphere(d, k) = d*(d-1)^(k-1) exchangeable
vertices (1 at k = 0), so u[n][k] * sphere(d, k) counts the length-n walks
from o that end at distance k. u[n][0] is also the number of nullcycles of
length n at any vertex of any d-regular graph, which is why every other
module consumes these tables.

Tables live in memory only (tables_for), one per degree, grown in place.
A table of length N stores u on the bridge region only: row n holds
k = 0..N-n+1, every distance a walk with n steps left can be at inside a
length-N bridge, plus one spare. A read past a row raises IndexError, so a
caller that needs u[n][k] asks for a table of length at least n + k - 1.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

import numpy as np

from .exact import cmp_ratio_bound, rho_tree
from .report import BoundReport, BoundViolation, report

TABLE_FORMAT_VERSION = 2


def sphere(d: int, k: int) -> int:
    """Number of vertices at distance k from a vertex of the d-regular tree."""
    return d * (d - 1) ** (k - 1) if k else 1


class TreeWalkTables:
    """Walk-count tables for one degree d up to length nmax.

    Row n = 0..nmax has nmax - n + 2 entries (k = 0..nmax - n + 1), each
    exact, zeros included where k > n or n - k is odd. tables_for grows a
    kept table in place: every row gains the entries of the longer region
    and keeps the ones it had.
    """

    __slots__ = ("d", "nmax", "u")

    def __init__(self, d: int, nmax: int):
        if d < 1:
            raise ValueError("degree must be >= 1")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        self.d = d
        self.nmax = 0
        self.u = [[1, 0]]
        self._grow(nmax)

    def _grow(self, nmax):
        """Extend u to length nmax: widen row n to nmax - n + 2 entries,
        computing only the new ones, and append rows old nmax + 1..nmax.
        Row n - 1 is one entry wider than row n, so prev[k + 1] is in range."""
        d, rows, old = self.d, self.u, self.nmax
        rows[0].extend([0] * (nmax - old))
        for n in range(1, nmax + 1):
            prev, width = rows[n - 1], nmax - n + 2
            if n <= old:
                cur = rows[n]
                start = len(cur)
                cur.extend([0] * (width - start))
            else:
                cur, start = [0] * width, 0
                cur[0] = d * prev[1]
                rows.append(cur)
            # a walk changes its distance's parity every step: cur[k] = 0
            # whenever n - k is odd, and whenever k > n
            k0 = max(start, 1)
            k0 += (n - k0) % 2
            for k in range(k0, min(n, width - 1) + 1, 2):
                cur[k] = prev[k - 1] + (d - 1) * prev[k + 1]
        self.nmax = nmax

    # -- persistence ------------------------------------------------------
    # unused by the package; kept while perfbench/tracer.py binds both by name

    def _lines(self):
        """The file save writes: a header, then row n of u[n][k] * sphere(d, k)."""
        yield f"{self.d} {self.nmax} {TABLE_FORMAT_VERSION}\n"
        for row in self.u:
            yield " ".join(str(x * sphere(self.d, k)) for k, x in enumerate(row)) + "\n"

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        name = f"treewalk-d{self.d}-n{self.nmax}-v{TABLE_FORMAT_VERSION}.txt"
        path = os.path.join(directory, name)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.writelines(self._lines())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, d, nmax, directory):
        """Rebuild the table and compare the file with it line by line; any
        difference, a short header or a missing row included, raises ValueError."""
        path = os.path.join(directory, f"treewalk-d{d}-n{nmax}-v{TABLE_FORMAT_VERSION}.txt")
        with open(path) as fh:
            t = cls(d, nmax)
            for i, (want, got) in enumerate(itertools.zip_longest(t._lines(), fh), start=1):
                if got != want:
                    raise ValueError(f"{path}: line {i} differs from the rebuilt table")
        return t


_MEMO: dict[int, TreeWalkTables] = {}


def tables_for(d: int, nmax: int) -> TreeWalkTables:
    """Shared tables, one per degree, kept in memory and grown in place on
    demand, so a sampler holding them keeps drawing the same walks; nothing
    goes to disk.

    The table covers the bridge region of length at least nmax: row n holds
    k <= nmax - n + 1, and a read past it raises IndexError. A caller that
    reads u[n][k] outside a length-nmax bridge asks for length n + k - 1."""
    t = _MEMO.get(d)
    if t is None:
        t = _MEMO[d] = TreeWalkTables(d, nmax)
    elif t.nmax < nmax:
        t._grow(nmax)
    return t


# -- return probabilities -------------------------------------------------


def return_probability(d: int, n: int) -> Fraction:
    """r_n = u[n][0] / d^n, the n-step return probability on the tree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        raise ValueError("odd n has r_n = 0")
    t = tables_for(d, n)
    return Fraction(t.u[n][0], d ** n)


def nullcycle_count(d: int, n: int) -> int:
    """|N_n| = u[n][0], the number of length-n nullcycles at a vertex."""
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

    Splitting the bridge at time j: u[j][k] * sphere(d, k) walks reach the
    sphere, each of its vertices is equally likely, and u[n-j][k] walks
    complete to the root, so P = u[j][k] * sphere(d, k) * u[n-j][k] / u[n][0].
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
            out.append(Fraction(t.u[j][k] * sphere(d, k) * t.u[n - j][k], denom))
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
        total += t.u[j][k] * sphere(d, k) * t.u[n - j][k]
    val = Fraction(total, denom)
    bound = 301 if k == 0 else 20000 * k
    if not val <= bound:
        raise BoundViolation(f"bridge visit bound failed: d={d} k={k} n={n} E={val} > {bound}")
    return val


def infinite_bridge_ratio(d: int, dist: int) -> Fraction:
    """Limit as m -> infinity of finite_bridge_ratio(d, dist, m).

    p_m(x_plus, o) / p_m(x_minus, o) tends to h(|x|+1) / h(|x|-1), where
    h(x) = (1 + x(d-2)/d) (d-1)^(-x/2) is the rho-harmonic radial function
    of the d-regular tree (spectral.radial_weight). Returns
    (d+(d-2)(|x|+1)) / ((d-1)(d+(d-2)(|x|-1))) exactly; it is 1 at d = 2.
    The up/down transition-probability ratio of the bridge at |x| is d-1
    times this value.
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

    Exact rational (converted to float) from the tables up to m = 2048;
    above 2048 a normalized float64 DP is used (accumulated relative error
    about m * 1e-16, far below any tolerance used on it). Its row at m serves
    every dist of one parity, and a memo of at most 64 rows keeps a run's
    rows at m-7..m, the lengths m = n-dist-1 left after dist = 1..8 steps
    of a length-n bridge.
    """
    if dist < 1:
        raise ValueError("dist must be >= 1")
    if (m + dist + 1) % 2:
        raise ValueError("parity: m and dist+1 must have equal parity")
    if m <= 2048:
        if dist - 1 > m:
            raise ZeroDivisionError("unreachable configuration")
        # u[m][dist + 1] lies in the region of a bridge of length m + dist + 1
        t = tables_for(d, m + dist + 1)
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

"""Tree-walk tables against independent oracles.

The oracles never use the recursions under test: walk counts come from
propagating exact integer vectors on an explicitly built tree ball, and
excursion counts come from enumerating sign sequences.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serregraph import core
from serregraph import treewalk as tw
from serregraph.report import BoundViolation


def propagate(g, start, n):
    """Exact walk-count vector after n steps from start (Python ints)."""
    rows = [[g.dst[e] for e in g.out_edges(v)] for v in range(g.nv)]
    vec = [0] * g.nv
    vec[start] = 1
    for _ in range(n):
        new = [0] * g.nv
        for v, x in enumerate(vec):
            if x:
                for w in rows[v]:
                    new[w] += x
        vec = new
    return vec


def sphere_counts(d, n):
    """Oracle for u[n][k] * sphere(d, k): end-distance histogram of n-walks
    from the root."""
    g = core.tree_ball(d, n + 1).graph
    dist = core.distances_from(g, 0)
    vec = propagate(g, 0, n)
    hist = {}
    for v, x in enumerate(vec):
        if x:
            hist[dist[v]] = hist.get(dist[v], 0) + x
    return hist


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_c_table_matches_ball_propagation(d):
    # rows n <= 8 hold every k <= n in a table of length 16
    t = tw.tables_for(d, 16)
    for n in range(9):
        hist = sphere_counts(d, n)
        for k in range(n + 1):
            assert t.u[n][k] * tw.sphere(d, k) == hist.get(k, 0), (d, n, k)


@pytest.mark.parametrize("d", [3, 4])
def test_u_table_matches_ball_propagation(d):
    for k in range(5):
        for n in range(9):
            if (n + k) % 2:
                continue
            R = (n + k) // 2 + 1
            g = core.tree_ball(d, max(R, k)).graph
            dist = core.distances_from(g, 0)
            start = min(v for v, dv in dist.items() if dv == k)
            vec = propagate(g, start, n)
            t = tw.tables_for(d, n + k)  # u[n][k] is in a length-(n + k) bridge
            assert t.u[n][k] == vec[0], (d, n, k)


def test_row_sums_and_cross_identity():
    for d in (2, 3, 4, 6):
        # rows n <= 30 hold every k <= n in a table of length 60
        t = tw.tables_for(d, 60)
        for n in range(31):
            assert sum(x * tw.sphere(d, k) for k, x in enumerate(t.u[n])) == d ** n
            for k in range(1, n + 1):
                assert tw.sphere(d, k) == d * (d - 1) ** (k - 1)
            assert tw.sphere(d, 0) == 1


@given(d=st.integers(2, 7), n=st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_row_sum_property(d, n):
    t = tw.tables_for(d, 2 * n)
    assert sum(x * tw.sphere(d, k) for k, x in enumerate(t.u[n][: n + 2])) == d ** n


def test_frozen_return_probabilities():
    assert tw.return_probability(3, 2) == Fraction(1, 3)
    assert tw.return_probability(3, 4) == Fraction(5, 27)
    assert tw.return_probability(3, 0) == 1
    # d = 2 is the simple walk on Z
    for m in range(1, 10):
        assert tw.nullcycle_count(2, 2 * m) == math.comb(2 * m, m)
    assert tw.nullcycle_count(2, 7) == 0
    with pytest.raises(ValueError):
        tw.return_probability(3, 5)


def test_return_bounds_smoke():
    reps = tw.check_return_bounds(3, 60)
    assert len(reps) == 30
    assert all(r.verdict == "pass" for r in reps)
    assert all(r.margin > 0 for r in reps)
    with pytest.raises(ValueError):
        tw.check_return_bounds(2, 10)


# -- excursions -------------------------------------------------------------


def brute_positive_paths(n, k):
    """Paths 0 -> k in n steps with every partial sum after time 0 >= 1,
    except that for k = 0 the final step returns to 0 (a positive excursion)."""
    cnt = 0
    for steps in itertools.product((1, -1), repeat=n):
        s = 0
        ok = True
        for i, dx in enumerate(steps):
            s += dx
            limit = 1 if (i < n - 1 or k >= 1) else 0
            if s < limit:
                ok = False
                break
        if ok and s == k:
            cnt += 1
    return cnt


def test_wplus_matches_enumeration():
    for n in range(1, 13):
        for k in range(0, n + 1):
            assert tw.z_positive_paths(n, k) == brute_positive_paths(n, k), (n, k)


def test_w_matches_enumeration():
    for n in range(11):
        for k in range(0, n + 2):
            brute = sum(
                1
                for steps in itertools.product((1, -1), repeat=n)
                if sum(steps) == k
            )
            assert tw.z_paths(n, k) == brute


def brute_excursion_visits(k, n):
    num = 0
    den = 0
    for steps in itertools.product((1, -1), repeat=n):
        pos = list(itertools.accumulate(steps))
        if pos[-1] != 0 or min(pos[:-1]) < 1:
            continue
        den += 1
        num += sum(1 for p in pos[:-1] if p == k)
    return Fraction(num, den)


def test_excursion_visits_match_enumeration():
    for n in (2, 4, 6, 8, 10, 12):
        for k in (1, 2, 3):
            assert tw.excursion_visits_z(k, n) == brute_excursion_visits(k, n)


def test_excursion_visits_frozen_and_bounded():
    assert tw.excursion_visits_z(1, 2) == 1
    assert tw.excursion_visits_z(1, 4) == 2
    for k in (1, 2, 5, 10):
        for n in (50, 144, 400):
            v = tw.excursion_visits_z(k, n)  # raises BoundViolation if > 64k
            assert v <= 64 * k


# -- bridge -----------------------------------------------------------------


def brute_bridge_histograms(d, n):
    """Distance histogram of the uniform closed n-walk at every time j, by
    exact forward/backward propagation on an explicit ball."""
    g = core.tree_ball(d, n // 2 + 1).graph
    dist = core.distances_from(g, 0)
    fwd = [propagate(g, 0, j) for j in range(n + 1)]
    total = fwd[n][0]
    hists = []
    for j in range(n + 1):
        h = {}
        for v in range(g.nv):
            # walks v -> root equal walks root -> v by edge reversal
            w = fwd[j][v] * fwd[n - j][v]
            if w:
                h[dist[v]] = h.get(dist[v], 0) + w
        hists.append({k: Fraction(w, total) for k, w in h.items()})
    return hists


@pytest.mark.parametrize("d,n", [(3, 4), (3, 6), (4, 6), (4, 8)])
def test_bridge_distribution_matches_enumeration(d, n):
    hists = brute_bridge_histograms(d, n)
    for j in range(n + 1):
        got = tw.bridge_distance_distribution(d, j, n)
        for k in range(j + 1):
            assert got[k] == hists[j].get(k, Fraction(0)), (j, k)
        assert sum(got) == 1


@pytest.mark.parametrize("d,n", [(3, 6), (4, 6)])
def test_bridge_visits_match_enumeration(d, n):
    hists = brute_bridge_histograms(d, n)
    for k in range(n // 2 + 1):
        want = sum((h.get(k, Fraction(0)) for h in hists), Fraction(0))
        assert tw.bridge_visit_expectation(d, k, n) == want


def _bridge_row_dp(d, m):
    """The normalized float DP finite_bridge_ratio ran on every call."""
    row = np.zeros(m + 2)
    row[0] = 1.0
    for _ in range(m):
        nxt = np.empty_like(row)
        nxt[0] = d * row[1]
        nxt[1:-1] = row[:-2] + (d - 1) * row[2:]
        nxt[-1] = row[-2]
        nxt /= nxt.max()
        row = nxt
    return row


def test_memoized_bridge_rows_equal_a_fresh_dp():
    tw._BRIDGE_ROWS.clear()
    for d, m in ((3, 2060), (4, 2057)):
        # one run at m leaves the rows of m-7..m in the memo
        want = {x: tw.finite_bridge_ratio(d, x, m) for x in range(1 + m % 2, 40, 2)}
        assert {(d, j) for j in range(m - 7, m + 1)} <= set(tw._BRIDGE_ROWS)
        for j in range(m - 7, m + 1):
            fresh = _bridge_row_dp(d, j)
            row = tw._BRIDGE_ROWS[d, j]
            assert row.shape == fresh.shape and (row == fresh).all(), (d, j)
            with pytest.raises(ValueError):
                row[0] = 2.0
            for x in range(1 + j % 2, 40, 2):
                assert tw.finite_bridge_ratio(d, x, j) == fresh[x + 1] / fresh[x - 1]
            assert tw._BRIDGE_ROWS[d, j] is row  # served from the memo
        assert all(tw.finite_bridge_ratio(d, x, m) == r for x, r in want.items())
    # the memo stays bounded
    for m in range(2100, 2100 + 2 * 9 * 8, 8):
        tw.finite_bridge_ratio(3, 1, m)
    assert len(tw._BRIDGE_ROWS) <= 64


def test_bridge_visit_bounds_hold_midscale():
    for d in (3, 4):
        for n in (100, 200):
            assert tw.bridge_visit_expectation(d, 0, n) <= 301
            for k in (1, 3, 10):
                assert tw.bridge_visit_expectation(d, k, n) <= 20000 * k


# -- pinned ratio -----------------------------------------------------------


def test_finite_bridge_ratio_exact_small():
    # u[2][2] = 1, u[2][0] = d
    assert tw.finite_bridge_ratio(3, 1, 2) == pytest.approx(1 / 3)
    t = tw.tables_for(3, 40)
    assert tw.finite_bridge_ratio(3, 2, 11) == pytest.approx(t.u[11][3] / t.u[11][1])
    with pytest.raises(ValueError):
        tw.finite_bridge_ratio(3, 2, 10)


def test_finite_bridge_ratio_float_path_approaches_h_limit():
    # the true limit of u[m][x+1] / u[m][x-1] is h(x+1) / h(x-1) with
    # h(x) = (d + (d-2)x) (d-1)^(-x/2); the float DP must land near it
    for d, dist in ((3, 1), (4, 2)):
        lim = ((d + (d - 2) * (dist + 1)) / (d + (d - 2) * (dist - 1))) / (d - 1)
        m = 4000 + (dist + 1) % 2
        got = tw.finite_bridge_ratio(d, dist, m)
        assert abs(got - lim) < 2e-3


def test_infinite_bridge_ratio_values():
    # h(x+1)/h(x-1) with h(x) = (d + (d-2)x) (d-1)^(-x/2)
    assert tw.infinite_bridge_ratio(2, 1) == 1
    assert tw.infinite_bridge_ratio(3, 1) == Fraction(5, 3 * 2)
    assert tw.infinite_bridge_ratio(4, 2) == Fraction(10, 6 * 3)


def test_bridge_ratio_convergence_reports_honestly():
    # a length-500 bridge at distance 1 has m = 500 - 1 - 1 steps left; the
    # finite ratio tends to h(x+1)/h(x-1) with error about c/m, c ~ 4 here,
    # so the gap at m = 498 is about 8e-3, far outside 1e-6
    gap = abs(tw.finite_bridge_ratio(3, 1, 498) - float(tw.infinite_bridge_ratio(3, 1)))
    assert 4e-3 < gap < 1.6e-2


def test_d2_bridge_ratio_converges_slowly():
    # at d = 2 the limit is 1, but the finite ratio is m/(m+2) for dist 1:
    # off by ~2/m
    m = 1000 - 1 - 1
    fin = tw.finite_bridge_ratio(2, 1, m)
    assert abs(fin - m / (m + 2)) < 1e-12
    assert abs(fin - float(tw.infinite_bridge_ratio(2, 1))) > 1e-6


# -- cache ------------------------------------------------------------------


def test_table_cache_roundtrip(tmp_path):
    t = tw.TreeWalkTables(5, 12)
    path = t.save(str(tmp_path))
    assert path.endswith(".txt")
    t2 = tw.TreeWalkTables.load(5, 12, str(tmp_path))
    assert t2.u == t.u
    rows = open(path).read().splitlines()[1:]
    assert [len(row.split()) for row in rows] == [12 - n + 2 for n in range(13)]
    with pytest.raises(FileNotFoundError):
        tw.TreeWalkTables.load(5, 14, str(tmp_path))
    # row n holds u[n][k] * sphere(d, k), the walks from the root that end at
    # distance k
    path = tw.TreeWalkTables(3, 2).save(str(tmp_path))
    assert open(path).read() == f"3 2 {tw.TABLE_FORMAT_VERSION}\n1 0 0 0\n0 3 0\n3 0\n"


def test_table_cache_header_guard(tmp_path):
    t = tw.TreeWalkTables(3, 4)
    path = t.save(str(tmp_path))
    header = f"3 4 {tw.TABLE_FORMAT_VERSION}"
    assert open(path).readline() == header + "\n"
    text = open(path).read().replace(header, "3 4 9", 1)
    open(path, "w").write(text)
    with pytest.raises(ValueError):
        tw.TreeWalkTables.load(3, 4, str(tmp_path))


def test_table_cache_load_rejects_altered_values(tmp_path):
    path = tw.TreeWalkTables(3, 6).save(str(tmp_path))
    lines = open(path).read().splitlines(keepends=True)
    row = [int(x) for x in lines[3].split()]  # row n = 2 after the header
    assert row[:3] == [3, 0, 6]
    row[2] += 1
    open(path, "w").writelines(lines[:3] + [" ".join(map(str, row)) + "\n"] + lines[4:])
    with pytest.raises(ValueError, match="line 4 differs"):
        tw.TreeWalkTables.load(3, 6, str(tmp_path))
    open(path, "w").writelines(lines[:-1])  # the last row is missing
    with pytest.raises(ValueError, match="line 8 differs"):
        tw.TreeWalkTables.load(3, 6, str(tmp_path))


def test_table_cache_load_rejects_a_two_field_header(tmp_path):
    path = tw.TreeWalkTables(3, 4).save(str(tmp_path))
    text = open(path).read().replace(f"3 4 {tw.TABLE_FORMAT_VERSION}\n", "3 4\n", 1)
    open(path, "w").write(text)
    with pytest.raises(ValueError, match="line 1 differs"):
        tw.TreeWalkTables.load(3, 4, str(tmp_path))


def test_tables_for_memoizes_and_grows():
    a = tw.tables_for(7, 10)
    b = tw.tables_for(7, 6)
    assert b is a
    c = tw.tables_for(7, 12)
    assert c.nmax >= 12


def test_tables_for_grows_the_kept_table_in_place(monkeypatch):
    from serregraph.core import petersen
    from serregraph.nullcycles import NullcycleSampler

    monkeypatch.setattr(tw, "_MEMO", {})
    init = tw.TreeWalkTables.__init__
    builds = []

    def counted(self, *args, **kw):
        builds.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(tw.TreeWalkTables, "__init__", counted)
    t = tw.tables_for(3, 400)
    assert len(t.u) == 401
    sampler = NullcycleSampler(petersen(), 0, 40)
    before = list(sampler.draws(30, seed=5))
    assert tw.tables_for(3, 600) is t and sampler.tables is t
    assert builds == [(3, 400)]
    assert list(sampler.draws(30, seed=5)) == before
    fresh = tw.TreeWalkTables(3, 600)
    assert t.nmax == 600 and t.u == fresh.u


def _c_eager(d, nmax):
    """c[n][k] as the tables held it when every build ran this DP."""
    rows = [[0] * (nmax + 2) for _ in range(nmax + 1)]
    rows[0][0] = 1
    for n in range(1, nmax + 1):
        prev, cur = rows[n - 1], rows[n]
        cur[0] = prev[1]
        for k in range(1, n + 1):
            cur[k] = (d if k == 1 else d - 1) * prev[k - 1] + prev[k + 1]
    return rows


def _region(rows, nmax):
    """The bridge region of full-width rows: row n cut to nmax - n + 2 entries."""
    return [row[: nmax - n + 2] for n, row in enumerate(rows[: nmax + 1])]


def test_lazy_c_equals_the_eager_dp():
    # u times the sphere sizes gives c, the walks from the root by end
    # distance, which an independent recurrence computes directly
    for d in range(1, 8):
        t = tw.TreeWalkTables(d, 40)
        c = [[x * tw.sphere(d, k) for k, x in enumerate(row)] for row in t.u]
        assert c == _region(_c_eager(d, 40), 40)


def test_nullcycle_counts_leave_c_unbuilt(monkeypatch):
    monkeypatch.setattr(tw, "_MEMO", {})
    assert tw.nullcycle_count(4, 30) == _c_eager(4, 30)[30][0]
    assert tw.return_probability(4, 30) == Fraction(_c_eager(4, 30)[30][0], 4 ** 30)
    assert len(tw.check_return_bounds(4, 30)) == 15
    assert tw.TreeWalkTables.__slots__ == ("d", "nmax", "u")  # u is all a table stores


def _u_full(d, nmax):
    """u[n][k] from the recurrence run over every k, zeros included."""
    rows = [[1] + [0] * (nmax + 1)]
    for n in range(1, nmax + 1):
        prev, cur = rows[-1], [0] * (nmax + 2)
        cur[0] = d * prev[1]
        for k in range(1, n + 1):
            cur[k] = prev[k - 1] + (d - 1) * prev[k + 1]
        rows.append(cur)
    return rows


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_parity_skipping_tables_equal_the_full_recurrence(d):
    for nmax in (0, 1, 2, 7, 60):
        assert tw.TreeWalkTables(d, nmax).u == _region(_u_full(d, nmax), nmax)
    grown = tw.TreeWalkTables(d, 13)
    grown._grow(60)
    assert grown.u == _region(_u_full(d, 60), 60)


# -- the bridge region ------------------------------------------------------


@given(d=st.integers(1, 7),
       lengths=st.lists(st.integers(0, 80), min_size=2, max_size=2, unique=True).map(sorted))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_tables_hold_exactly_the_bridge_region(d, lengths):
    n1, n2 = lengths
    full = _u_full(d, n2)
    t = tw.TreeWalkTables(d, n1)
    for nmax in (n1, n2):
        assert [len(row) for row in t.u] == [nmax - n + 2 for n in range(nmax + 1)]
        assert t.u == _region(full, nmax)
        for n, row in enumerate(t.u):
            with pytest.raises(IndexError):
                row[nmax - n + 2]
        t._grow(n2)
    fresh = tw.TreeWalkTables(d, n2)
    assert t.u == fresh.u


def test_length_600_table_stores_only_the_region(monkeypatch):
    monkeypatch.setattr(tw, "_MEMO", {})
    t = tw.tables_for(3, 600)
    region = sum(600 - n + 2 for n in range(601))
    assert sum(map(len, t.u)) == region


def test_readers_past_the_region_ask_for_their_length(monkeypatch):
    from serregraph.core import petersen
    from serregraph.fungroup import p_k_distribution

    monkeypatch.setattr(tw, "_MEMO", {})
    assert tw.finite_bridge_ratio(3, 2, 11) == 0.4680770683792973
    with pytest.raises(ZeroDivisionError):  # |x_minus| > m: no table is built for it
        tw.finite_bridge_ratio(3, 9, 2)
    assert tw._MEMO[3].nmax == 14
    monkeypatch.setattr(tw, "_MEMO", {})
    pk = p_k_distribution(petersen(), 0, 6, 8)
    a, b = Fraction(55, 512), Fraction(181, 3072)
    assert pk.values == {0: Fraction(183, 1024), 1: b, 2: a, 3: a, 4: b, 5: b, 6: a, 7: a,
                         8: a, 9: a}
    c = Fraction(47, 543)
    assert pk.at_n == {0: Fraction(87, 181), 2: c, 3: c, 6: c, 7: c, 8: c, 9: c}
    assert pk.n_reached == 8


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sampler_distribution_uniform_at_table_length_n(n, monkeypatch):
    from serregraph.core import petersen
    from nullcycle_oracles import sampler_distribution

    monkeypatch.setattr(tw, "_MEMO", {})
    dist = sampler_distribution(petersen(), 0, n)
    assert tw._MEMO[3].nmax == n
    count = tw.nullcycle_count(3, n)
    assert len(dist) == count
    assert set(dist.values()) == {Fraction(1, count)}

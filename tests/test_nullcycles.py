import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from serregraph import nullcycles as nc
from serregraph import treewalk as tw
from serregraph.core import (
    Walk,
    complete_graph,
    cycle_graph,
    half_loop_rose,
    petersen,
    prism,
    rose,
    schreier_quotient,
    split_full_loops,
)
from serregraph.limits import configuration_model
from serregraph.report import BoundViolation
from serregraph.sgf import dumps


def schreier_triangle():
    """3-regular triangle with a half-loop at each vertex."""
    p2 = tuple((i + 2) % 6 for i in range(6))
    m2 = tuple((i - 2) % 6 for i in range(6))
    p3 = tuple((i + 3) % 6 for i in range(6))
    return schreier_quotient([p2, m2, p3], 2).graph


DESK = [complete_graph(4), petersen(), cycle_graph(6), prism(3), rose(2),
        half_loop_rose(3), schreier_triangle()]


def find_edge(g, u, v, skip=()):
    return next(e for e in g.out_edges(u) if g.dst[e] == v and e not in skip)


# -- classification -----------------------------------------------------------


def test_classify_backtrack_pair_trivial():
    g = complete_graph(4)
    e = g.out_edges(0)[0]
    res = nc.classify_cycle(g, Walk(0, (e, g.inv[e])))
    assert res.trivial and res.witness is None


def test_classify_triangle_nontrivial():
    g = complete_graph(4)
    e01 = find_edge(g, 0, 1)
    e12 = find_edge(g, 1, 2)
    e20 = find_edge(g, 2, 0)
    res = nc.classify_cycle(g, Walk(0, (e01, e12, e20)))
    assert not res.trivial
    assert res.witness in (e01, e12, e20)


def test_classify_loop_conventions():
    g = rose(1)
    l = g.out_edges(0)[0]
    linv = g.inv[l]
    assert nc.classify_cycle(g, Walk(0, (l, linv))).trivial
    assert not nc.classify_cycle(g, Walk(0, (l, l))).trivial
    h = half_loop_rose(3)
    hl = h.out_edges(0)[0]
    res = nc.classify_cycle(h, Walk(0, (hl, hl)))
    assert not res.trivial and res.witness == hl


def test_classify_requires_closed():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        nc.classify_cycle(g, Walk(0, (find_edge(g, 0, 1),)))


def test_is_nullcycle_vs_merely_closed():
    g = complete_graph(4)
    tri = (find_edge(g, 0, 1), find_edge(g, 1, 2), find_edge(g, 2, 0))
    assert Walk(0, tri).is_closed(g)
    assert not nc.is_nullcycle(g, Walk(0, tri))
    e = g.out_edges(0)[0]
    assert nc.is_nullcycle(g, Walk(0, (e, g.inv[e])))


# -- enumeration and the exact sampler ----------------------------------------


@pytest.mark.parametrize("g", DESK, ids=lambda g: g.name or "g")
def test_nullcycle_count_invariance(g):
    d = g.degree(0)
    for n in (2, 4, 6):
        want = tw.nullcycle_count(d, n)
        for v in range(g.nv):
            assert len(nc.enumerate_nullcycles(g, v, n)) == want


@pytest.mark.parametrize("g", DESK, ids=lambda g: g.name or "g")
def test_sampler_distribution_exactly_uniform(g):
    for n in (2, 4, 6):
        dist = nc.sampler_distribution(g, 0, n)
        walks = nc.enumerate_nullcycles(g, 0, n)
        assert set(dist) == set(walks)
        uniform = Fraction(1, len(walks))
        assert all(p == uniform for p in dist.values())
        assert sum(dist.values()) == 1


def test_k4_n4_has_15_nullcycles():
    assert len(nc.enumerate_nullcycles(complete_graph(4), 0, 4)) == 15


def test_n2_uniform_over_first_steps():
    g = petersen()
    dist = nc.sampler_distribution(g, 0, 2)
    assert len(dist) == 3
    for edges, p in dist.items():
        assert edges[1] == g.inv[edges[0]]
        assert p == Fraction(1, 3)


def test_sampled_walks_reduce_and_reproduce():
    g = complete_graph(4)
    s = nc.NullcycleSampler(g, 2, 20)
    a = [w.edges for w in s.draws(40, seed=9)]
    b = [w.edges for w in s.draws(40, seed=9)]
    assert a == b
    for edges in a:
        w = Walk(2, edges)
        assert nc.is_nullcycle(g, w)
        assert w.is_closed(g)
    assert s.sample(123).edges == next(s.draws(1, 123)).edges


def test_sampler_rejects_odd_length():
    with pytest.raises(ValueError):
        nc.NullcycleSampler(complete_graph(4), 0, 5)


def test_half_loop_rose_words_reduce():
    g = half_loop_rose(3)
    s = nc.NullcycleSampler(g, 0, 6)
    for w in s.draws(25, seed=4):
        assert nc.is_nullcycle(g, w)


def _draw_randrange(s, rng):
    """The sampler's step rule as first written: rng.randrange per step and
    the push list rebuilt from out_edges at every step."""
    g, u = s.g, s.tables.u
    v = s.root
    stack, edges = [], []
    for j in range(s.n):
        m = s.n - j
        k = len(stack)
        r = rng.randrange(u[m][k])
        if k == 0:
            e = g.out_edges(v)[r // u[m - 1][1]]
            stack.append(e)
        else:
            back = g.inv[stack[-1]]
            wdown = u[m - 1][k - 1]
            if r < wdown:
                e = back
                stack.pop()
            else:
                pushes = [f for f in g.out_edges(v) if f != back]
                e = pushes[(r - wdown) // u[m - 1][k + 1]]
                stack.append(e)
        edges.append(e)
        v = g.dst[e]
    assert not stack and v == s.root
    return Walk(s.root, tuple(edges))


def _assert_same_draws(g, root, n, seed, count):
    s = nc.NullcycleSampler(g, root, n)
    rng = random.Random(seed)
    got = list(s.draws(count, seed))
    assert got == [_draw_randrange(s, rng) for _ in range(count)], (g.name, n, seed)


@pytest.mark.parametrize("n", [200, 400, 600])
def test_draws_match_randrange_steps_on_cfg3_256(n):
    g = configuration_model(3, 256, seed=1)
    for seed in (0, 5, 911):
        _assert_same_draws(g, 0, n, seed, 6)


def test_draws_match_randrange_steps_with_loops_and_multi_edges():
    graphs = [half_loop_rose(3), rose(2), split_full_loops(rose(2)), schreier_triangle()]
    graphs += [configuration_model(d, 16, seed=s) for d in (3, 4, 5) for s in (0, 1)]
    for g in graphs:
        for n in (2, 10, 40):
            for seed in (0, 3):
                _assert_same_draws(g, 0, n, seed, 20)


def test_draws_leave_the_rng_where_randrange_does():
    s = nc.NullcycleSampler(configuration_model(3, 64, seed=2), 5, 100)
    a, b = random.Random(8), random.Random(8)
    for _ in range(10):
        s._draw(a)
        _draw_randrange(s, b)
    assert a.getstate() == b.getstate()


def test_zero_count_raises_instead_of_spinning():
    class Counting(random.Random):
        calls = 0

        def getrandbits(self, k):
            self.calls += 1
            assert self.calls < 100, "the draw keeps asking for bits"
            return super().getrandbits(k)

    s = nc.NullcycleSampler(complete_graph(4), 0, 4)
    s.tables = SimpleNamespace(u=[[0] * 6 for _ in range(5)])
    with pytest.raises(ValueError):
        s._draw(Counting(0))


def test_tables_and_draws_write_no_file(tmp_path, monkeypatch):
    cache, home = tmp_path / "cache", tmp_path / "home"
    cache.mkdir()
    home.mkdir()
    monkeypatch.setenv("SERREGRAPH_CACHE", str(cache))
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setattr(tw, "_MEMO", {})
    t = tw.tables_for(3, 120)
    assert t.c[120][0] == t.u[120][0]
    s = nc.NullcycleSampler(configuration_model(3, 32, seed=0), 0, 120)
    assert len(list(s.draws(3, seed=1))) == 3
    sgf = tmp_path / "g.sgf"
    sgf.write_text(dumps(configuration_model(3, 32, seed=0)))
    proc = subprocess.run(
        [sys.executable, "-m", "serregraph", "nullcycle", "sample", "--in", str(sgf),
         "--root", "0", "--n", "300", "--count", "2"],
        capture_output=True, text=True, env=dict(os.environ), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(cache.iterdir()) == [] and list(home.iterdir()) == []


# -- chi ------------------------------------------------------------------------


def tri_and_back(g):
    e01 = find_edge(g, 0, 1)
    e12 = find_edge(g, 1, 2)
    e20 = find_edge(g, 2, 0)
    return Walk(0, (e01, e12, e20, g.inv[e20], g.inv[e12], g.inv[e01]))


def test_chi_counts_nontrivial_segments():
    g = complete_graph(4)
    w = tri_and_back(g)
    assert nc.is_nullcycle(g, w)
    # vertex 0 is visited at times 0, 3, 6
    assert nc.chi_statistic(g, w, 3, 10 ** 9) == 2
    assert nc.chi_statistic(g, w, 3, 3) == 2
    assert nc.chi_statistic(g, w, 3, 2) == 0
    # one segment of length n: the whole walk reduces, so chi = 0
    assert nc.chi_statistic(g, w, 6, 10 ** 9) == 0


def test_chi_single_segment_is_indicator():
    g = complete_graph(4)
    for edges in nc.enumerate_nullcycles(g, 0, 6):
        assert nc.chi_statistic(g, Walk(0, edges), 6, 10 ** 9) in (0, 1)


def test_chi_requires_divisibility():
    g = complete_graph(4)
    w = tri_and_back(g)
    with pytest.raises(ValueError):
        nc.chi_statistic(g, w, 4, 10)


def _chi_reference(g, walk, k, ell):
    """chi as first written: every closed aligned segment is re-walked and
    classified by the balanced-traversal rule of classify_cycle."""
    vs = walk.vertices(g)
    total = 0
    for j in range(len(walk.edges) // k):
        a = j * k
        if vs[a] != vs[a + k]:
            continue
        seg = Walk(vs[a], walk.edges[a : a + k])
        assert seg.is_closed(g)
        counts, trivial = {}, True
        for e in seg.edges:
            if g.inv[e] == e:
                trivial = False
            counts[e] = counts.get(e, 0) + 1
        if any(counts.get(g.inv[e], 0) != c for e, c in counts.items()):
            trivial = False
        if not trivial and vs.count(vs[a]) <= ell:
            total += 1
    return total


def test_chi_equals_the_segment_walking_definition():
    from serregraph.bounds import _segment_indicator

    graphs = [half_loop_rose(3), rose(2), split_full_loops(rose(2)), schreier_triangle(),
              complete_graph(4)]
    graphs += [configuration_model(d, 16, seed=s) for d in (3, 4) for s in (0, 1)]
    nontrivial = 0
    for g in graphs:
        for n in (12, 24):
            for w in nc.NullcycleSampler(g, 0, n).draws(30, seed=n):
                for k in (2, 3, 4, 6):
                    for ell in (1, 3, 10 ** 9):
                        want = _chi_reference(g, w, k, ell)
                        assert nc.chi_statistic(g, w, k, ell) == want, (g.name, w, k, ell)
                        nontrivial += want
                    head = Walk(0, w.edges[:k])
                    assert _segment_indicator(g, w, k, 10 ** 9) == _chi_reference(
                        g, head, k, 10 ** 9
                    )
    assert nontrivial > 0


def test_segment_rate_same_at_every_offset():
    # vertex-transitive graph: the chance that segment j is nontrivial does
    # not depend on j (checked exactly over the uniform distribution)
    g = complete_graph(4)
    walks = nc.enumerate_nullcycles(g, 0, 6)
    rates = []
    for j in (0, 1):
        hit = 0
        for edges in walks:
            w = Walk(0, edges)
            vs = w.vertices(g)
            a = 3 * j
            seg = Walk(vs[a], edges[a : a + 3])
            if vs[a] == vs[a + 3] and not nc.classify_cycle(g, seg).trivial:
                hit += 1
        rates.append(Fraction(hit, len(walks)))
    assert rates[0] == rates[1]


# -- expected visits -------------------------------------------------------------


def brute_expected_visits(g, root, targets, n):
    walks = nc.enumerate_nullcycles(g, root, n)
    tset = set(targets)
    total = 0
    for edges in walks:
        vs = Walk(root, edges).vertices(g)
        total += sum(1 for v in vs if v in tset)
    return Fraction(total, len(walks))


@pytest.mark.parametrize("g", [complete_graph(4), schreier_triangle(), rose(2)],
                         ids=lambda g: g.name or "g")
def test_expected_visits_matches_enumeration(g):
    for targets in ({0}, {min(1, g.nv - 1)}, set(range(min(2, g.nv)))):
        got = nc.expected_visits(g, 0, targets, 6)
        assert got.value == brute_expected_visits(g, 0, targets, 6)


@pytest.mark.parametrize("g", [complete_graph(2), half_loop_rose(1)], ids=lambda g: g.name)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_expected_visits_on_one_regular_graphs(g, n):
    # no reduced path is longer than 1 at d = 1; those distances get weight 0
    got = nc.expected_visits(g, 0, {0}, n)
    assert got.value == brute_expected_visits(g, 0, {0}, n)


def test_expected_visits_n2_is_two():
    got = nc.expected_visits(complete_graph(4), 0, {0}, 2)
    assert got.value == 2


def test_expected_visits_hypothesis_gate():
    got = nc.expected_visits(complete_graph(4), 0, {0}, 4)
    assert all(r.verdict == "not applicable" for r in got.reports)
    assert got.value > 0


def test_expected_visits_bounds_apply_on_petersen():
    got = nc.expected_visits(petersen(), 0, {0}, 2)
    gen = next(r for r in got.reports if r.name == "visit-bound general")
    assert gen.applicable and gen.verdict == "pass"
    small = next(r for r in got.reports if r.name == "visit-bound small-rho")
    assert small.applicable and small.verdict == "pass"


# -- parity lemma -----------------------------------------------------------------


def brute_parity(n, k, x):
    good = total = 0
    for tup in nc._compositions(n, k):
        total += 1
        if all(t % 2 == xi % 2 for t, xi in zip(tup, x)):
            good += 1
    return Fraction(good, total)


def test_parity_probability_matches_enumeration():
    import itertools

    for n in (2, 4, 6, 8):
        for k in (2, 3, 4):
            for x in itertools.product((0, 1), repeat=k):
                assert nc.parity_probability(n, k, x) == brute_parity(n, k, x)


def test_parity_frozen_values():
    assert nc.parity_probability(2, 2, (0, 0)) == Fraction(2, 3)
    assert nc.parity_probability(2, 2, (1, 1)) == Fraction(1, 3)
    assert nc.parity_probability(4, 3, (1, 0, 0)) == 0  # parity mismatch


def test_parity_bounds_hold_desk_scale():
    import itertools

    for n in (2, 4, 6, 8, 10, 12):
        for k in (2, 3, 4, 5, 6):
            for x in itertools.product((0, 1), repeat=k):
                p = nc.parity_probability(n, k, x)  # raises on a bound breach
                j = sum(x)
                if j == 0:
                    assert p <= math.exp(-1.0 / (4.0 / k + 2.0 / n)) + 1e-15
                elif j % 2 == 0:
                    assert p <= Fraction(1, 2)


def brute_partition(n, parts):
    k = sum(len(p) for p in parts)
    good = total = 0
    for tup in nc._compositions(n, k):
        total += 1
        if all(sum(tup[i] for i in p) % 2 == 0 for p in parts):
            good += 1
    return Fraction(good, total)


def test_partition_exact_route():
    res = nc.parity_partition_probability(4, [(0, 1), (2,)])
    assert res.exact == Fraction(3, 5)
    for n in (2, 4, 6, 8):
        for parts in ([(0,), (1,), (2,)], [(0, 1), (2, 3)], [(0, 2), (1,), (3,)]):
            res = nc.parity_partition_probability(n, parts)
            assert res.exact == brute_partition(n, parts)
            assert res.stderr is None


def test_partition_singletons_reduce_to_all_even():
    for n in (4, 8):
        for k in (3, 4):
            res = nc.parity_partition_probability(n, [(i,) for i in range(k)])
            assert res.exact == nc.parity_probability(n, k, (0,) * k)


def test_partition_mc_route_matches_exact_dp():
    parts = [tuple(range(4 * i, 4 * i + 4)) for i in range(5)]  # k=20, l=4, m=5
    n = 100
    assert math.comb(n + 19, 19) > 10 ** 7
    res = nc.parity_partition_probability(n, parts, samples=60000, seed=11)
    assert res.exact is None and res.stderr is not None and res.stderr > 0
    truth = Fraction(nc._even_part_count(n, parts), math.comb(n + 19, 19))
    assert abs(res.probability - float(truth)) <= 4 * res.stderr
    assert res.probability <= res.bound
    assert res.bound == pytest.approx(14.0 * math.exp(-5 / 14))


def test_partition_validates_parts():
    with pytest.raises(ValueError):
        nc.parity_partition_probability(4, [(0, 2)])
    with pytest.raises(ValueError):
        nc.parity_partition_probability(4, [])

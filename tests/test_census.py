import itertools
from fractions import Fraction

import pytest

from serregraph import census
from serregraph.core import (
    Walk,
    complete_graph,
    cycle_graph,
    half_loop_rose,
    petersen,
    prism,
    rose,
    tree_ball,
    tree_radius,
)
from serregraph.limits import configuration_model
from serregraph.nullcycles import classify_cycle
from tests.test_acceptance import _nontrivial_cycle_totals, _sparse_adj
from tests.test_nullcycles import DESK, schreier_triangle


def brute_gamma(g, v, k):
    """Oracle: enumerate every k-walk from v, classify the closed ones."""
    total = 0
    for edges in itertools.product(range(g.ne), repeat=k):
        u = v
        ok = True
        for e in edges:
            if g.src[e] != u:
                ok = False
                break
            u = g.dst[e]
        if ok and u == v and not classify_cycle(g, Walk(v, edges)).trivial:
            total += 1
    return total


@pytest.mark.parametrize("g", DESK, ids=lambda g: g.name or "g")
def test_gamma_matches_brute_enumeration(g):
    for k in (1, 2, 3):
        for v in (0, g.nv - 1):
            assert census.gamma_k(g, v, k) == brute_gamma(g, v, k)


def walk_gamma(g, v, k):
    """Oracle without pruning: every k-step walk along out-edges from v,
    the closed ones classified by classify_cycle."""
    walks = [(v, ())]
    for _ in range(k):
        walks = [(g.dst[e], edges + (e,)) for u, edges in walks for e in g.out_edges(u)]
    return sum(
        1
        for u, edges in walks
        if u == v and not classify_cycle(g, Walk(v, edges)).trivial
    )


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(10),
        prism(6),
        tree_ball(3, 3).graph,
        configuration_model(3, 64, seed=0),
        rose(2),
        half_loop_rose(3),
    ],
    ids=["c10", "prism6", "tree3-3", "cfg3-64", "rose2", "hlrose3"],
)
def test_gamma_matches_unpruned_walks_at_every_root(g):
    # k = 1..6 puts the census's BFS cap k // 2 at 0..3; a counted walk that
    # needed a vertex past the cap would show up here as a shortfall
    for k in range(1, 7):
        for v in range(g.nv):
            assert census.gamma_k(g, v, k) == walk_gamma(g, v, k), (k, v)


@pytest.mark.parametrize("d,n", [(3, 4096), (4, 1024)])
def test_census_matches_trace_identities_at_scale(d, n):
    g = configuration_model(d, n, seed=0)
    totals = _nontrivial_cycle_totals(g, _sparse_adj(g))
    for k in (1, 2, 3):
        assert census.cycle_census(g, k).density == Fraction(totals[k], n)


def test_k4_triangles():
    g = complete_graph(4)
    c = census.cycle_census(g, 3)
    assert c.per_vertex == (6, 6, 6, 6)
    assert c.total == 24
    assert c.density == Fraction(6) == c.mean


def test_tree_interior_has_no_cycles():
    g = tree_ball(3, 4).graph
    for k in (1, 2, 3, 4, 5, 6):
        assert census.gamma_k(g, 0, k) == 0


def test_loop_counts_at_k1():
    assert census.gamma_k(half_loop_rose(3), 0, 1) == 3
    assert census.gamma_k(rose(1), 0, 1) == 2  # both directions of the loop


def test_cycle_graph_gamma6():
    g = cycle_graph(6)
    assert census.gamma_k(g, 0, 6) == 2
    for k in (1, 2, 3, 4, 5):
        assert census.gamma_k(g, 0, k) == 0


def test_half_loop_walks_are_all_nontrivial():
    # half-loop traversals force nontriviality, so every closed 2-walk on the
    # 3-half-loop rose counts; this exceeds the non-backtracking count 6
    assert census.gamma_k(half_loop_rose(3), 0, 2) == 9


def test_odd_closed_walks_all_nontrivial():
    # balance needs an even step total, so every closed odd walk counts; at
    # k=5 on K4 this exceeds the non-backtracking walk count 48
    g = complete_graph(4)
    assert census.gamma_k(g, 0, 5) == 60


def test_gamma_capped_by_closed_walk_count():
    from serregraph.spectral import walk_counts

    for g in (complete_graph(4), petersen(), cycle_graph(6), prism(3)):
        for k in (1, 2, 3, 4, 5):
            for v in range(g.nv):
                closed = walk_counts(g, v, k)[k][v]
                assert census.gamma_k(g, v, k) <= closed


def test_budget_error_mentions_mc():
    with pytest.raises(ValueError, match="Monte Carlo"):
        census.gamma_k(complete_graph(4), 0, 3, budget=10)


def test_gamma_mc_estimates_k4():
    est = census.gamma_k_mc(complete_graph(4), 0, 3, samples=20000, seed=1)
    assert abs(est - 6.0) < 0.5


def test_census_density_is_vertex_mean():
    for g in DESK:
        c = census.cycle_census(g, 3)
        assert c.density == Fraction(sum(c.per_vertex), g.nv)
        assert c.mean == c.density


def test_girth_profile_petersen():
    p = census.essential_girth_profile(petersen(), 2)
    assert p.fractions == (Fraction(1), Fraction(0))
    assert p.beta == pytest.approx(1.0 / (30.0 * __import__("math").log(2)))
    assert p.threshold is not None and p.threshold > 0


def test_girth_profile_k4_and_c6():
    assert census.essential_girth_profile(complete_graph(4), 1).fractions == (Fraction(0),)
    assert census.essential_girth_profile(cycle_graph(6), 3).fractions == (
        Fraction(1),
        Fraction(1),
        Fraction(0),
    )


def test_girth_profile_monotone():
    for g in DESK:
        p = census.essential_girth_profile(g, 3)
        assert all(a >= b for a, b in zip(p.fractions, p.fractions[1:]))


def test_tree_balls_vs_gamma_cross_validation():
    # all radius-r balls are loop-free trees iff no vertex carries a
    # nontrivial cycle of length <= 2r+1 (the sharp two-sided version; the
    # one-sided k <= 2r implication follows)
    for g in DESK:
        for r in (1, 2):
            p = census.essential_girth_profile(g, r)
            all_trees = p.fractions[r - 1] == 1
            has_short = any(
                census.gamma_k(g, v, k) > 0
                for v in range(g.nv)
                for k in range(1, 2 * r + 2)
            )
            assert all_trees == (not has_short)
            if all_trees:
                for v in range(g.nv):
                    for k in range(1, 2 * r + 1):
                        assert census.gamma_k(g, v, k) == 0


def test_tree_root_skip_equals_the_unpruned_dfs():
    """cycle_census counts 0 at roots whose radius-k//2 ball is a tree and runs
    the DFS elsewhere; per root it must equal the DFS run everywhere, on
    graphs with half-loops, full loops and multi-edges."""
    from tests.test_core import tree_radius_fixtures

    cases = skipped = 0
    for g in tree_radius_fixtures() + DESK:
        for k in range(1, 8):
            if max(g.degrees, default=0) ** k > 10 ** 4:
                continue
            dfs = tuple(census._count_closed_nontrivial(g, v, k) for v in range(g.nv))
            assert census.cycle_census(g, k).per_vertex == dfs, (g, k)
            skipped += sum(tree_radius(g, v, k // 2) == k // 2 for v in range(g.nv))
            cases += 1
    assert cases > 300 and skipped > 1000


def test_tree_root_skip_equals_unpruned_walks_on_small_graphs():
    from serregraph.core import from_edges, split_full_loops

    graphs = [from_edges(3, [(0, 1), (0, 1), (1, 2)], half_loops=[2]),
              split_full_loops(configuration_model(3, 8, seed=2)),
              configuration_model(3, 10, seed=5)]
    for g in graphs:
        for k in range(1, 7):
            assert census.cycle_census(g, k).per_vertex == tuple(
                walk_gamma(g, v, k) for v in range(g.nv)), (g, k)


def test_girth_profile_is_the_tree_radius_histogram():
    from tests.test_core import _tree_radius_by_balls, tree_radius_fixtures

    for g in tree_radius_fixtures():
        for rmax in (1, 3):
            t = [_tree_radius_by_balls(g, v, rmax) for v in range(g.nv)]
            want = tuple(Fraction(sum(x >= r for x in t), g.nv) for r in range(1, rmax + 1))
            assert census.essential_girth_profile(g, rmax).fractions == want, (g, rmax)

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serregraph import core, spectral
from serregraph.core import (
    ball,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edges,
    half_loop_rose,
    petersen,
    prism,
    rose,
    tree_ball,
    triangle_tree_ball,
)
from serregraph.exact import rho_tree
from serregraph.limits import configuration_model


def test_k4_spectrum_closed_form():
    s = spectral.markov_spectrum(complete_graph(4), residual_check=True)
    want = np.array([-1 / 3, -1 / 3, -1 / 3, 1.0])
    assert np.allclose(np.sort(s.eigenvalues), want, atol=1e-12)
    assert s.rho == pytest.approx(1 / 3, abs=1e-12)
    assert s.ramanujan and not s.is_bipartite
    assert s.weakly_ramanujan_mass == Fraction(3, 4)


def test_petersen_spectrum_closed_form():
    s = spectral.markov_spectrum(petersen(), residual_check=True)
    want = sorted([1.0] + [1 / 3] * 5 + [-2 / 3] * 4)
    assert np.allclose(np.sort(s.eigenvalues), want, atol=1e-12)
    assert s.rho == pytest.approx(2 / 3, abs=1e-12)
    assert s.ramanujan
    assert s.weakly_ramanujan_mass == Fraction(9, 10)


def test_c6_bipartite_distinct_rule():
    s = spectral.markov_spectrum(cycle_graph(6))
    assert s.is_bipartite
    # distinct absolute values {1, 1/2}: both +1 and -1 fold into the top
    assert s.rho == pytest.approx(0.5, abs=1e-12)
    assert s.weakly_ramanujan_mass == Fraction(4, 6)


def test_single_distinct_value_rose():
    s = spectral.markov_spectrum(rose(2))
    assert s.rho == pytest.approx(1.0)
    s2 = spectral.markov_spectrum(half_loop_rose(3))
    assert s2.rho == pytest.approx(1.0)
    assert not s2.is_bipartite  # half-loop is an odd cycle


def _bipartite_by_dfs(g):
    """Oracle: two-colour each component by DFS and look for a clash."""
    color = {}
    for comp in core.connected_components(g):
        color[comp[0]] = 0
        stack = [comp[0]]
        while stack:
            v = stack.pop()
            for e in g.out_edges(v):
                w = g.dst[e]
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


@st.composite
def _multigraphs(draw):
    """Small multigraphs: repeated pairs are multi-edges, u == v a full
    loop; half-loops may repeat; no edges at all is allowed."""
    nv = draw(st.integers(1, 7))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return from_edges(nv, pairs, half_loops=draw(st.lists(vertex, max_size=2)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_multigraphs(), st.tuples(_multigraphs(), _multigraphs()).map(
    lambda ab: disjoint_union(*ab))))
def test_is_bipartite_matches_dfs_colouring(g):
    # one sweep answers bipartiteness and counts the components
    # markov_spectrum reports
    assert spectral._parity_sweep(g) == (_bipartite_by_dfs(g), len(core.connected_components(g)))


def test_is_bipartite_matches_dfs_colouring_on_fixtures():
    from tests.test_core import tree_radius_fixtures

    graphs = tree_radius_fixtures() + [configuration_model(3, 64, seed=s) for s in range(3)]
    graphs += [configuration_model(2, 16, seed=s) for s in range(4)]
    for g in graphs:
        assert spectral._parity_sweep(g) == (_bipartite_by_dfs(g),
                                             len(core.connected_components(g))), g
    assert spectral._parity_sweep(disjoint_union(cycle_graph(4), cycle_graph(6)))[0]
    assert not spectral._parity_sweep(disjoint_union(cycle_graph(4), rose(1)))[0]


def test_disconnected_full_spectrum_rule():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    s = spectral.markov_spectrum(g)
    assert s.n_components == 2
    assert s.rho == pytest.approx(1 / 3, abs=1e-12)
    ones = np.count_nonzero(np.abs(s.eigenvalues - 1.0) < 1e-9)
    assert ones == 2


def test_spectrum_invariants():
    for g in (petersen(), cycle_graph(5), prism(6), rose(3)):
        s = spectral.markov_spectrum(g, residual_check=True)
        assert s.eigenvalues.min() >= -1 - 1e-10
        assert s.eigenvalues.max() <= 1 + 1e-10
        assert len(s.eigenvalues) == g.nv
        ones = np.count_nonzero(np.abs(s.eigenvalues - 1.0) < 1e-9)
        assert ones == s.n_components


def test_rho_rejects_irregular():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        spectral.rho(g)


# -- measures and walk DP -----------------------------------------------------


def test_walk_counts_match_matrix_power():
    g = petersen()
    A = core.adjacency(g)
    counts = spectral.walk_counts(g, 0, 8)
    P = np.eye(10, dtype=np.int64)
    for n in range(9):
        assert list(P[0]) == counts[n]
        P = P @ A


def test_rooted_measure_moments_are_return_probabilities():
    for g in (complete_graph(4), petersen(), cycle_graph(6), prism(4), rose(2)):
        mu = spectral.spectral_measure(g, root=0)
        probs = spectral.return_probability_dp(g, 0, 20)
        for k in range(21):
            assert mu.moment(k) == pytest.approx(float(probs[k]), abs=1e-8)


def test_trace_identity():
    for g in (complete_graph(4), petersen(), cycle_graph(6)):
        mu = spectral.spectral_measure(g)
        for k in range(21):
            avg = sum(
                float(spectral.return_probability_dp(g, v, k)[k]) for v in range(g.nv)
            ) / g.nv
            assert mu.moment(k) == pytest.approx(avg, abs=1e-8)


def test_measure_examples():
    two = disjoint_union(complete_graph(4), complete_graph(4))
    mu = spectral.spectral_measure(two)
    assert mu.mass(1 - 1e-9, 1 + 1e-9) == pytest.approx(2 / 8)
    rooted = spectral.spectral_measure(complete_graph(4), root=0)
    assert rooted.moment(2) == pytest.approx(1 / 3)
    stay = spectral.spectral_measure(half_loop_rose(3), root=0)
    assert stay.moment(1) == pytest.approx(1.0)


def test_diag_power_counts():
    g = petersen()
    diag = spectral.diag_power_counts_batch(g, (3, 20))
    assert diag[3].dtype == np.int64
    for v in range(g.nv):
        assert diag[3][v] == spectral.walk_counts(g, v, 6)[6][v]
    # 3^40 >= 2^63: an object array of exact Python ints
    assert diag[20].dtype == object
    assert diag[20].tolist() == [spectral.walk_counts(g, v, 40)[40][v] for v in range(g.nv)]


@pytest.mark.parametrize("t", [33, 45])
def test_diag_power_counts_past_two_to_the_64(t):
    # 3^(2t) >= 2^64: the squares are summed in Python ints; from t = 41 the
    # kernel's own counts are Python ints as well
    g = petersen()
    diag = spectral.diag_power_counts_batch(g, (2, t))
    assert diag[2].dtype == np.int64
    assert diag[t].tolist() == [spectral.walk_counts(g, v, 2 * t)[2 * t][v] for v in range(g.nv)]
    assert all(type(c) is int for c in diag[t].tolist())


def test_diag_power_counts_match_integer_matrix_powers_over_several_blocks():
    # 299 roots span three blocks of 128; the union adds half-loops, full
    # loops and a multi-edge to the simple graph
    mixed = from_edges(3, [(0, 1), (0, 1), (1, 2), (2, 2)], half_loops=[0])
    g = disjoint_union(configuration_model(3, 294, seed=2), disjoint_union(mixed, half_loop_rose(3)))
    g = disjoint_union(g, from_edges(1, [(0, 0)], half_loops=[0]))
    assert g.nv > 2 * 128
    A = core.adjacency(g)
    diag = spectral.diag_power_counts_batch(g, (1, 3, 5))
    for t in (1, 3, 5):
        assert np.array_equal(diag[t], np.diag(np.linalg.matrix_power(A, 2 * t)))


def test_diag_power_counts_budget():
    g = petersen()
    steps = g.nv * g.ne * 10 ** 7
    with pytest.raises(ValueError, match=f"{steps} edge steps.*{spectral.DIAG_STEP_BUDGET}"):
        spectral.diag_power_counts_batch(g, (1, 10 ** 7))


# -- hitting bound ------------------------------------------------------------


def test_hitting_bound_k4_example():
    g = complete_graph(4)
    probs = spectral.hitting_probabilities(g, 0, {0}, 2)
    assert probs[2] == Fraction(1, 3)
    rep = spectral.hitting_bound_check(g, 0, {0}, 2, spectral.rho(g))
    assert rep.verdict == "pass"
    assert rep.margin > 0


def test_hitting_bound_all_vertices_trivial():
    g = petersen()
    rep = spectral.hitting_bound_check(g, 0, set(range(10)), 10, spectral.rho(g))
    assert rep.verdict == "pass"


def test_hitting_bound_petersen_sweep():
    g = petersen()
    rep = spectral.hitting_bound_check(g, 0, {0}, 30, spectral.rho(g))
    assert rep.verdict == "pass" and rep.margin > 0


# -- non-backtracking operator ------------------------------------------------


def _hashimoto_matrix(g):
    """Dense edge-to-edge operator: B[e, f] = 1 iff f continues e without
    immediate reversal."""
    B = np.zeros((g.ne, g.ne), dtype=np.float64)
    for e, (w, back) in enumerate(zip(g.dst, g.inv)):
        for f in g.out_edges(w):
            if f != back:
                B[e, f] = 1.0
    return B


def test_hashimoto_matrix_agrees_with_matrix_free():
    g = petersen()
    B = _hashimoto_matrix(g)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.random(g.ne)
        assert np.allclose(x @ B, spectral._b_operator(g)(x))


def test_alpha_exact_for_regular():
    a, method = spectral.hashimoto_perron(rose(2))
    assert a == 3.0 and method == "row-sums"
    a, _ = spectral.hashimoto_perron(complete_graph(4))
    assert a == 2.0
    for r in (1, 2, 3, 5):
        assert spectral.hashimoto_perron(rose(r))[0] == 2 * r - 1


def test_alpha_degenerate_on_trees():
    g = tree_ball(3, 3).graph
    summ = spectral.nonbacktracking_cogrowth(g)
    assert summ.degenerate and summ.alpha == 0.0


def test_alpha_power_iteration_triangle_with_pendant():
    g = from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    a, method = spectral.hashimoto_perron(g)
    assert method in ("power", "power-squared")
    assert a == pytest.approx(1.0, abs=1e-8)


def _p3_and_half_loop():
    return disjoint_union(from_edges(3, [(0, 1), (1, 2)]), half_loop_rose(1))


def test_hashimoto_acyclic_iff_b_is_nilpotent():
    from tests.test_core import tree_radius_fixtures

    for g in tree_radius_fixtures() + [_p3_and_half_loop()]:
        nilpotent = not np.linalg.matrix_power(_hashimoto_matrix(g) > 0, g.ne).any()
        assert (spectral.hashimoto_perron(g)[1] == "acyclic") == nilpotent, g


def test_half_loop_dead_end_is_acyclic():
    # a half-loop is its own reversal, so B is nilpotent here although
    # _has_cycle counts the half-loop as a cycle
    g = _p3_and_half_loop()
    assert _has_cycle(g)
    start = time.perf_counter()
    assert spectral.hashimoto_perron(g) == (0.0, "acyclic")
    assert time.perf_counter() - start < 0.1
    for m in (3, 6):
        summ = spectral.nonbacktracking_cogrowth(g, m)
        assert summ.degenerate and summ.alpha == 0.0 and summ.method == "acyclic"
        assert summ.rho_cover == 2.0 * math.sqrt(m - 1.0) / m


def test_edgeless_and_matching_graphs_are_acyclic():
    for g in (from_edges(3, []), complete_graph(2), half_loop_rose(1)):
        assert spectral.hashimoto_perron(g) == (0.0, "acyclic")
        assert spectral.nonbacktracking_cogrowth(g).degenerate


def test_nonbacktracking_counts_rose_closed_form():
    g = rose(2)
    counts = spectral.nonbacktracking_closed_counts(g, 0, 10)
    assert counts[0] == 1
    for n in range(1, 11):
        assert counts[n] == 4 * 3 ** (n - 1)


def test_cogrowth_tracks_direct_counts():
    for g in (complete_graph(4), petersen(), prism(5)):
        summ = spectral.nonbacktracking_cogrowth(g)
        counts = spectral.nonbacktracking_closed_counts(g, 0, 30)
        emp = counts[30] ** (1 / 30)
        assert abs(math.log(summ.alpha) - math.log(emp)) < 0.15


def test_grigorchuk_branch_values():
    assert spectral.grigorchuk_rho(4, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert spectral.grigorchuk_rho(4, math.sqrt(3)) == pytest.approx(2 * math.sqrt(3) / 4)
    assert spectral.grigorchuk_rho(10, 2.0) == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValueError):
        spectral.grigorchuk_rho(4, 0.0)
    with pytest.raises(ValueError):
        spectral.grigorchuk_rho(4, 3.5)


def test_cogrowth_summary_with_m():
    summ = spectral.nonbacktracking_cogrowth(rose(2), m=5)
    assert summ.alpha == 3.0
    lo = 2 * math.sqrt(4) / 5
    assert lo <= summ.rho_cover <= 1.0
    assert summ.rho_cover == pytest.approx((2 / 5) * (3 / 2 + 2 / 3))
    with pytest.raises(ValueError):
        spectral.nonbacktracking_cogrowth(rose(2), m=3)


def test_tree_m_ramanujan_k4_boundary():
    rep = spectral.tree_m_ramanujan(complete_graph(4), 5)
    assert rep.alpha == 2.0
    assert rep.threshold == 5.0
    assert rep.ramanujan and rep.margin == 0.0
    assert rep.sufficient_m == 5
    rep4 = spectral.tree_m_ramanujan(complete_graph(4), 4)
    assert not rep4.ramanujan and rep4.margin == -1.0


def test_tree_m_ramanujan_sufficient_bound():
    for g, d in ((petersen(), 3), (rose(2), 4), (cycle_graph(7), 2)):
        m = d * d - 2 * d + 2
        rep = spectral.tree_m_ramanujan(g, m)
        assert rep.sufficient_m == m
        assert rep.ramanujan


def test_covering_spectrum_containment():
    p2 = tuple((i + 2) % 6 for i in range(6))
    m2 = tuple((i - 2) % 6 for i in range(6))
    p3 = tuple((i + 3) % 6 for i in range(6))
    res = core.schreier_quotient([p2, m2, p3], 2)
    ev_q = np.linalg.eigvalsh(spectral.markov_matrix(res.graph))
    ev_c = np.linalg.eigvalsh(spectral.markov_matrix(res.cayley))
    for lam in ev_q:
        assert np.abs(ev_c - lam).min() < 1e-8


# -- radial Rayleigh machine ---------------------------------------------------


def test_radial_identity():
    # (1/d)(g(n-1) + (d-1) g(n+1)) = rho(T_d) g(n)
    w = spectral.radial_weight
    for d in (3, 4, 5, 6):
        assert w(d, 0) == 1.0
        for n in range(1, 31):
            lhs = (w(d, n - 1) + (d - 1) * w(d, n + 1)) / d
            assert abs(lhs - rho_tree(d) * w(d, n)) < 1e-12


def test_rayleigh_on_tree_converges_from_below():
    vals = []
    for R in (2, 4, 6, 8, 10):
        rg = tree_ball(3, R + 1)
        b = ball(rg.graph, rg.root, R + 1)
        vals.append(spectral.rayleigh_lower_bound(b, 3, R))
    assert all(v < rho_tree(3) for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_rayleigh_requires_enough_radius():
    rg = tree_ball(3, 3)
    b = ball(rg.graph, rg.root, 3)
    with pytest.raises(ValueError):
        spectral.rayleigh_lower_bound(b, 3, 3)


def test_rayleigh_detects_triangle_gap():
    # every vertex lies on a 3-cycle, so the quotient clears the tree value
    # by at least (d-2)/(d (d-1)^(2*floor(0 + 3/2 + 1))) = 1/48 once R is
    # comfortable
    gap = 1.0 / 48.0
    for R in (12, 15):
        rg = triangle_tree_ball(R + 1)
        b = ball(rg.graph, rg.root, R + 1)
        val = spectral.rayleigh_lower_bound(b, 3, R)
        assert val >= rho_tree(3) + gap


def _has_cycle(g):
    """Some component's ball of radius nv is not a tree; unlike cogrowth's
    "acyclic", a half-loop counts as a cycle here."""
    return any(core.tree_radius(g, c[0], g.nv) < g.nv for c in core.connected_components(g))


def test_has_cycle_direct_cases():
    assert _has_cycle(cycle_graph(5))
    assert not _has_cycle(tree_ball(3, 3).graph)
    assert not _has_cycle(complete_graph(2))
    assert not _has_cycle(from_edges(1, []))  # an isolated vertex
    assert _has_cycle(half_loop_rose(2))
    assert _has_cycle(rose(1))
    assert _has_cycle(from_edges(2, [(0, 1), (0, 1)]))  # a double edge
    assert _has_cycle(disjoint_union(tree_ball(3, 2).graph, cycle_graph(4)))
    assert _has_cycle(disjoint_union(from_edges(3, [(0, 1)]), half_loop_rose(1)))
    assert not _has_cycle(disjoint_union(tree_ball(3, 2).graph, from_edges(3, [(0, 2)])))


def test_has_cycle_matches_component_edge_counts():
    """A graph has a cycle exactly when it has a loop or some component has
    at least as many undirected edges as vertices."""
    from tests.test_core import tree_radius_fixtures

    for g in tree_radius_fixtures():
        loop = any(g.inv[e] == e or g.src[e] == g.dst[e] for e in range(g.ne))
        dense = any(sum(g.degree(v) for v in c) // 2 >= len(c)
                    for c in core.connected_components(g))
        assert _has_cycle(g) == (loop or dense), g

import math
from fractions import Fraction

import numpy as np
import pytest

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
    diag = spectral.diag_power_counts(g, 3)
    for v in range(g.nv):
        assert diag[v] == spectral.walk_counts(g, v, 6)[6][v]
    with pytest.raises(ValueError):
        spectral.diag_power_counts(g, 20)


# -- hitting bound ------------------------------------------------------------


def test_hitting_bound_k4_example():
    g = complete_graph(4)
    probs = spectral.hitting_probabilities(g, 0, {0}, 2)
    assert probs[2] == Fraction(1, 3)
    rep = spectral.hitting_bound_check(g, 0, {0}, 2)
    assert rep.verdict == "pass"
    assert rep.margin > 0


def test_hitting_bound_all_vertices_trivial():
    g = petersen()
    rep = spectral.hitting_bound_check(g, 0, set(range(10)), 10)
    assert rep.verdict == "pass"


def test_hitting_bound_petersen_sweep():
    rep = spectral.hitting_bound_check(petersen(), 0, {0}, 30)
    assert rep.verdict == "pass" and rep.margin > 0


# -- non-backtracking operator ------------------------------------------------


def test_hashimoto_matrix_agrees_with_matrix_free():
    g = petersen()
    B = spectral.hashimoto_matrix(g)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.random(g.ne)
        assert np.allclose(x @ B, spectral._apply_b(g, x))


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
    for d in (3, 4, 5, 6):
        assert spectral.radial_weight(d, 0) == 1.0
        for n in range(1, 31):
            assert spectral.radial_identity_residual(d, n) < 1e-12


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


def test_has_cycle_direct_cases():
    assert spectral.has_cycle(cycle_graph(5))
    assert not spectral.has_cycle(tree_ball(3, 3).graph)
    assert not spectral.has_cycle(complete_graph(2))
    assert not spectral.has_cycle(from_edges(1, []))  # an isolated vertex
    assert spectral.has_cycle(half_loop_rose(2))
    assert spectral.has_cycle(rose(1))
    assert spectral.has_cycle(from_edges(2, [(0, 1), (0, 1)]))  # a double edge
    assert spectral.has_cycle(disjoint_union(tree_ball(3, 2).graph, cycle_graph(4)))
    assert spectral.has_cycle(disjoint_union(from_edges(3, [(0, 1)]), half_loop_rose(1)))
    assert not spectral.has_cycle(disjoint_union(tree_ball(3, 2).graph, from_edges(3, [(0, 2)])))


def test_has_cycle_matches_component_edge_counts():
    """A graph has a cycle exactly when it has a loop or some component has
    at least as many undirected edges as vertices."""
    from tests.test_core import tree_radius_fixtures

    for g in tree_radius_fixtures():
        loop = any(g.inv[e] == e or g.src[e] == g.dst[e] for e in range(g.ne))
        dense = any(sum(g.degree(v) for v in c) // 2 >= len(c)
                    for c in core.connected_components(g))
        assert spectral.has_cycle(g) == (loop or dense), g

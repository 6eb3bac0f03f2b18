"""Sampling histograms, random regular generation, and the three-column
convergence diagnostic."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from serregraph import limits
from serregraph.core import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    half_loop_rose,
    petersen,
    prism,
    rose,
    split_full_loops,
    validate,
)
from serregraph.patterns import tree_pattern
from serregraph.spectral import (
    markov_matrix,
    markov_spectrum,
    spectral_measure,
    weakly_ramanujan_mass,
)


# -- configuration model ------------------------------------------------------


def test_configuration_model_regular_and_deterministic():
    g1 = limits.configuration_model(3, 64, seed=7)
    g2 = limits.configuration_model(3, 64, seed=7)
    assert validate(g1).regular_degree == 3
    assert g1.nv == 64
    assert (g1.src, g1.dst, g1.inv) == (g2.src, g2.dst, g2.inv)
    g3 = limits.configuration_model(3, 64, seed=8)
    assert (g1.src, g1.dst) != (g3.src, g3.dst)


def _configuration_model_loop(d, n, seed):
    """The per-pair loop that configuration_model's array build replaces."""
    half = np.random.default_rng(seed).permutation(d * n)
    src, dst, inv = [0] * (d * n), [0] * (d * n), [0] * (d * n)
    for j in range(0, d * n, 2):
        u, v = int(half[j]) // d, int(half[j + 1]) // d
        src[j], dst[j], inv[j] = u, v, j + 1
        src[j + 1], dst[j + 1], inv[j + 1] = v, u, j
    return tuple(src), tuple(dst), tuple(inv)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 64), (3, 2), (3, 64), (3, 1000), (4, 1), (4, 9), (4, 333)])
def test_configuration_model_matches_the_pair_loop(d, n):
    for seed in (0, 1, 7, 12345):
        g = limits.configuration_model(d, n, seed=seed)
        assert (g.src, g.dst, g.inv) == _configuration_model_loop(d, n, seed), seed
        assert g.degrees == (d,) * n


def test_configuration_model_parity_error():
    with pytest.raises(ValueError):
        limits.configuration_model(3, 5, seed=0)


def test_configuration_model_degree_four():
    g = limits.configuration_model(4, 9, seed=0)
    assert validate(g).regular_degree == 4


def test_two_vertex_matching_distribution():
    # 6 half-edges, 15 perfect matchings: 6 give three parallel edges,
    # 9 give one loop at each vertex plus a single crossing edge.
    draws = 10 ** 4
    parallel = 0
    for s in range(draws):
        g = limits.configuration_model(3, 2, seed=s)
        assert g.nv == 2 and validate(g).regular_degree == 3
        loops = sum(1 for e in range(g.ne) if g.src[e] == g.dst[e])
        assert loops in (0, 4)  # a full loop occupies two directed ids
        parallel += loops == 0
    p = parallel / draws
    sigma = math.sqrt((6 / 15) * (9 / 15) / draws)
    assert abs(p - 6 / 15) <= 3 * sigma


# -- ball histograms ----------------------------------------------------------


def test_histogram_point_mass_on_vertex_transitive():
    for g in (complete_graph(4), petersen(), cycle_graph(6), prism(3)):
        h = limits.bs_histogram(g, 1)
        assert len(h.freq) == 1
        assert list(h.freq.values()) == [Fraction(1)]
        assert h.total() == 1


def test_histogram_disjoint_union_frequencies():
    g = disjoint_union(complete_graph(4), cycle_graph(6))
    h = limits.bs_histogram(g, 1)
    assert sorted(h.freq.values()) == [Fraction(4, 10), Fraction(6, 10)]


def test_tree_pattern_tv():
    h = limits.bs_histogram(complete_graph(4), 1)
    assert limits.tree_pattern_tv(h, 3) == 1
    g = limits.configuration_model(3, 1024, seed=0)
    h2 = limits.bs_histogram(g, 1)
    tv = limits.tree_pattern_tv(h2, 3)
    assert 0 <= tv < Fraction(1, 4)
    # the dominant pattern really is the radius-1 tree ball
    best = max(h2.freq, key=h2.freq.get)
    assert best == tree_pattern(3, 1)


# -- spectral distances -------------------------------------------------------


def test_km_w1_small_for_large_random_graph():
    w_small = limits.km_w1(markov_spectrum(complete_graph(4)).eigenvalues, 3)
    g = limits.configuration_model(3, 1024, seed=0)
    w_big = limits.km_w1(markov_spectrum(g).eigenvalues, 3)
    assert w_small > 0.2
    assert w_big < 0.01
    assert w_big < w_small


def test_km_w1_at_degree_one_is_the_two_point_measure():
    # T_1 is K2, so a perfect matching has exactly the tree's spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, seed in ((2, 0), (10, 3), (64, 1)):
            g = limits.configuration_model(1, n, seed=seed)
            assert limits.km_w1(markov_spectrum(g).eigenvalues, 1) == 0.0
            row, = limits.ekvivalens_diagnostic([g], 1, 2)
            assert row.w1_km == 0.0
        # one eigenvalue at 1 and three at -1: the CDF gap is 1/4 on [-1, 1)
        assert abs(limits.km_w1([-1.0, -1.0, -1.0, 1.0], 1) - 0.5) < 1e-3


def test_km_w1_above_degree_one_is_pinned():
    cases = [(3, petersen(), 0.21560147647771333),
             (2, limits.configuration_model(2, 12, seed=1), 0.10984000860435675),
             (4, limits.configuration_model(4, 20, seed=2), 0.11345084225073769),
             (3, complete_graph(4), 0.3527881390541714)]
    for d, g, want in cases:
        assert limits.km_w1(markov_spectrum(g).eigenvalues, d) == want


def test_km_density_normalizes():
    from serregraph.exact import rho_tree

    xs = np.linspace(-1, 1, 20001)
    total = np.trapezoid(limits.km_density(xs, 3), xs)
    assert abs(total - 1.0) < 1e-4
    assert limits.km_density(np.array([rho_tree(3) + 0.01]), 3)[0] == 0.0


def test_moment_identity_spectral_vs_walk_dp():
    # k-th moment of the eigenvalue distribution equals the vertex-averaged
    # k-step return probability, exactly tying the two code paths together.
    graphs = [
        complete_graph(4),
        petersen(),
        cycle_graph(6),
        prism(3),
        limits.configuration_model(3, 64, seed=0),
        limits.configuration_model(3, 256, seed=1),
    ]
    for g in graphs:
        mu = spectral_measure(g)
        M = markov_matrix(g)
        P = np.eye(g.nv)
        for k in range(1, 21):
            P = P @ M
            assert abs(mu.moment(k) - P.trace() / g.nv) < 1e-8, (g.name, k)


# -- fleet behavior -----------------------------------------------------------


def test_ekvivalens_three_columns_decrease_on_random_fleet():
    sizes = (64, 256, 1024)
    seeds = range(5)
    cols = {"d1": [], "d3": [], "tv": [], "w1": []}
    for n in sizes:
        rows = limits.ekvivalens_diagnostic(
            [limits.configuration_model(3, n, seed=s) for s in seeds], 2, 3
        )
        cols["d1"].append(np.mean([float(r.cycle_densities[0]) for r in rows]))
        cols["d3"].append(np.mean([float(r.cycle_densities[2]) for r in rows]))
        cols["tv"].append(np.mean([float(r.tv_tree) for r in rows]))
        cols["w1"].append(np.mean([r.w1_km for r in rows]))
    for name, vals in cols.items():
        assert vals[0] > vals[1] > vals[2], (name, vals)


def test_ekvivalens_constant_sequence_stays_away_from_zero():
    rows = limits.ekvivalens_diagnostic([complete_graph(4)] * 3, 1, 3)
    for row in rows:
        assert row.cycle_densities[2] >= 1
        assert row.tv_tree == 1
        assert row.w1_km > 0.2


def test_mass_nondecreasing_in_n_on_average():
    means = []
    sds = []
    for n in (64, 128, 256):
        vals = [
            float(weakly_ramanujan_mass(limits.configuration_model(3, n, seed=s)))
            for s in range(10)
        ]
        means.append(np.mean(vals))
        sds.append(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    for i in (0, 1):
        slack = 3 * math.hypot(sds[i], sds[i + 1])
        assert means[i + 1] >= means[i] - slack, (means, sds)


# -- planted short cycles ------------------------------------------------------


def test_planted_triangles_regular_and_contain_triangles():
    g = limits.planted_triangle_graph(3, 60, 0.1, seed=2)
    assert g.nv == 60
    assert validate(g).regular_degree == 3
    A = (markov_matrix(g) * 3).round().astype(int)
    triangles = np.trace(np.linalg.matrix_power(A, 3)) / 6
    assert triangles >= 6  # floor(0.1 * 60) = 6 vertex-disjoint planted ones


def test_planted_triangles_depress_ramanujan_mass():
    n = 256
    planted = [
        float(weakly_ramanujan_mass(limits.planted_triangle_graph(3, n, 0.1, seed=s)))
        for s in range(10)
    ]
    plain = [
        float(weakly_ramanujan_mass(limits.configuration_model(3, n, seed=s)))
        for s in range(10)
    ]
    assert np.mean(planted) < np.mean(plain)
    assert np.mean(planted) <= 1 - 0.01


def test_planted_triangle_parameter_errors():
    with pytest.raises(ValueError):
        limits.planted_triangle_graph(3, 30, 0.5, seed=0)  # 3t > n
    with pytest.raises(ValueError):
        limits.planted_triangle_graph(2, 30, 0.1, seed=0)


def test_tv_tree_equals_the_pattern_histogram():
    graphs = [limits.configuration_model(d, n, seed=s)
              for d, n in ((1, 10), (2, 12), (3, 16), (3, 40), (4, 12), (5, 8)) for s in range(3)]
    graphs += [petersen(), prism(4), rose(2), half_loop_rose(3), split_full_loops(rose(2)),
               limits.planted_triangle_graph(3, 30, 0.2, seed=1)]
    cases = 0
    for g in graphs:
        d = validate(g).regular_degree
        for r in range(4):
            row, = limits.ekvivalens_diagnostic([g], r, 1)
            assert row.tv_tree == limits.tree_pattern_tv(limits.bs_histogram(g, r), d), (g, r)
            cases += 1
    assert {validate(g).regular_degree for g in graphs} == {1, 2, 3, 4, 5} and cases > 90

"""Reduced words, walk-set norm estimates, and the time-k marginal."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from serregraph import core, fungroup
from serregraph.core import (
    Walk,
    complete_graph,
    cycle_graph,
    disjoint_union,
    half_loop_rose,
    petersen,
    rose,
    tree_ball,
)
from serregraph.exact import rho_tree
from serregraph.fungroup import (
    KappaEstimate,
    _tv,
    homotopy_class,
    kappa_estimate,
    kappa_star,
    lemma_basic_check,
    p_k_distribution,
    szep_tree_degenerate,
)
from serregraph.nullcycles import NullcycleSampler, enumerate_nullcycles
from serregraph.report import BoundViolation
from serregraph.spectral import radial_weight, rho
from serregraph.treewalk import infinite_bridge_ratio, return_probability, tables_for

OK = ("pass", "pass within tolerance")


# independent single-step erasure, rescanned to a fixed point; any erasure
# order must land on the same word as the library's one-pass stack
def _erase_to_fixed_point(g, word):
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i + 1] == g.inv[w[i]]:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def _walks_from(g, v, k):
    """Every k-walk from v, as (edges, end vertex)."""
    out = []
    stack = [(v, ())]
    while stack:
        u, prefix = stack.pop()
        if len(prefix) == k:
            out.append((prefix, u))
            continue
        for e in g.out_edges(u):
            stack.append((g.dst[e], prefix + (e,)))
    return out


def _closed_walks(g, v, k):
    return [w for w, end in _walks_from(g, v, k) if end == v]


# -- reduced words ------------------------------------------------------------


def test_backtrack_pair_reduces_to_identity():
    g = complete_graph(4)
    e = 0
    w = Walk(g.src[e], (e, int(g.inv[e])))
    assert homotopy_class(g, w) == ()


def test_triangle_is_not_nullhomotopic():
    g = complete_graph(4)
    walks = _closed_walks(g, 0, 3)
    assert walks
    for w in walks:
        word = homotopy_class(g, Walk(0, w))
        assert len(word) == 3


def test_half_loop_squares_to_identity():
    g = half_loop_rose(3)
    e = next(e for e in range(g.ne) if g.inv[e] == e)
    w = Walk(g.src[e], (e, e))
    assert homotopy_class(g, w) == ()


def test_full_loop_square_survives_reduction():
    g = rose(2)
    e = next(e for e in range(g.ne) if g.inv[e] != e)
    word = homotopy_class(g, Walk(0, (e, e)))
    assert word == (e, e)


def test_reduction_matches_erasure_oracle():
    for g in (complete_graph(4), half_loop_rose(3), rose(2)):
        for k in (3, 4):
            for w in _closed_walks(g, 0, k):
                assert homotopy_class(g, Walk(0, w)) == _erase_to_fixed_point(g, w)


def test_homotopy_class_rejects_broken_walks():
    g = complete_graph(4)
    e = 0
    bad = next(f for f in range(g.ne) if g.src[f] != g.dst[e])
    with pytest.raises(ValueError):
        homotopy_class(g, Walk(g.src[e], (e, bad)))


def test_sampled_nullcycles_are_nullhomotopic():
    g = petersen()
    s = NullcycleSampler(g, 0, 8)
    for w in s.draws(200, seed=11):
        assert homotopy_class(g, w) == ()


def test_nullhomotopic_iff_nullcycle_on_closed_walks():
    g = complete_graph(4)
    for n in (2, 4):
        nullcycles = set(enumerate_nullcycles(g, 0, n))
        for w in _closed_walks(g, 0, n):
            assert (homotopy_class(g, Walk(0, w)) == ()) == (w in nullcycles)


# -- kappa estimates ----------------------------------------------------------


def test_tree_ball_kappa_is_exactly_one():
    tb = tree_ball(3, 3)
    est = kappa_estimate(tb.graph, tb.root, tb.root, 2, 3)
    assert est.p_even == [Fraction(1), Fraction(1), Fraction(1)]
    assert est.kappa == [1.0, 1.0, 1.0]


def test_rose_uses_radial_tables_and_is_monotone():
    est = kappa_estimate(rose(2), 0, 0, 1, 6)
    assert est.method == "radial-tables"
    assert est.p_even == [return_probability(4, 4 * m) for m in range(1, 7)]
    est.check_monotone()
    assert all(a < b for a, b in zip(est.kappa, est.kappa[1:]))


def test_rose_kappa_approaches_free_group_norm():
    est = kappa_estimate(rose(2), 0, 0, 1, 200)
    target = math.sqrt(3) / 2
    assert est.last == pytest.approx(0.8568995747828192, abs=1e-12)
    assert est.last < target
    assert target - est.last < 1e-2


def test_half_loop_rose_is_radial_of_rank_three():
    est = kappa_estimate(half_loop_rose(3), 0, 0, 1, 50)
    assert est.method == "radial-tables"
    assert est.p_even == [return_probability(3, 4 * m) for m in range(1, 51)]
    assert abs(est.last - 2 * math.sqrt(2) / 3) < 0.03


def test_word_dp_agrees_with_radial_tables():
    for g, rank in ((rose(2), 4), (half_loop_rose(3), 3)):
        dp = kappa_estimate(g, 0, 0, 1, 2, method="exact")
        assert dp.method == "word-dp"
        assert dp.p_even == [return_probability(rank, 4), return_probability(rank, 8)]


def test_k4_diagonal_frozen_rationals():
    est = kappa_estimate(complete_graph(4), 0, 0, 3, 3)
    assert est.p_even == [
        Fraction(11, 216),
        Fraction(2131, 279936),
        Fraction(88421, 60466176),
    ]
    est.check_monotone()


def test_first_moment_matches_pair_product_oracle():
    # p_2 = sum_a q(a) q(a^{-1}) over the pair-product letter distribution,
    # rebuilt here from scratch
    g = complete_graph(4)
    walks = _closed_walks(g, 0, 3)
    words = [_erase_to_fixed_point(g, w) for w in walks]
    inv = lambda w: tuple(int(g.inv[e]) for e in reversed(w))
    q = Counter()
    for a in words:
        for b in words:
            q[_erase_to_fixed_point(g, a + inv(b))] += 1
    n2 = len(words) ** 2
    p2 = sum(Fraction(c, n2) * Fraction(q.get(inv(w), 0), n2) for w, c in q.items())
    est = kappa_estimate(g, 0, 0, 3, 1)
    assert est.p_even[0] == p2 == Fraction(11, 216)


def test_conjugation_leaves_p_even_unchanged():
    g = complete_graph(4)
    e01 = next(e for e in range(g.ne) if g.src[e] == 0 and g.dst[e] == 1)
    plain = kappa_estimate(g, 1, 1, 3, 2)
    moved = kappa_estimate(
        g, 1, 1, 3, 2, u_path=(e01,), v_path=(int(g.inv[e01]),)
    )
    assert plain.p_even == moved.p_even


def test_off_diagonal_pair_walk():
    # W_2(0,1) in K4 closes into the two triangles through 2 and 3; the
    # pair alphabet is {id, t, t^{-1}} with weights 1/2, 1/4, 1/4
    est = kappa_estimate(complete_graph(4), 0, 1, 2, 3)
    assert est.p_even == [
        Fraction(3, 8),
        Fraction(35, 128),
        Fraction(231, 1024),
    ]
    assert all(a < b for a, b in zip(est.kappa, est.kappa[1:]))


def test_monte_carlo_tracks_exact_values():
    exact = kappa_estimate(rose(2), 0, 0, 1, 2, method="exact")
    mc = kappa_estimate(rose(2), 0, 0, 1, 2, method="mc", samples=20000, seed=3)
    assert mc.method == "monte-carlo"
    assert mc.stderr is not None and all(s > 0 for s in mc.stderr)
    for phat, p, s in zip(mc.p_even, exact.p_even, mc.stderr):
        assert abs(phat - float(p)) <= 4 * s
    again = kappa_estimate(rose(2), 0, 0, 1, 2, method="mc", samples=20000, seed=3)
    assert again.p_even == mc.p_even


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        kappa_estimate(rose(2), 0, 0, 1, 2, method="mc", samples=0)


def test_state_budget_truncates_or_raises(monkeypatch):
    g = complete_graph(4)
    monkeypatch.setattr(fungroup, "STATE_BUDGET", 1500)
    est = kappa_estimate(g, 0, 0, 3, 3)
    assert est.truncated
    assert est.achieved_m == 2
    assert est.p_even == [Fraction(11, 216), Fraction(2131, 279936)]
    # the m = 1 pass keeps the pair alphabet itself, more than 30 words here
    monkeypatch.setattr(fungroup, "STATE_BUDGET", 30)
    with pytest.raises(ValueError):
        kappa_estimate(g, 0, 0, 3, 3)


def test_word_dp_reach_never_falls_as_mmax_grows(monkeypatch):
    # K4, x = y = 0, k = 3: one pass capped for mmax keeps more words than a
    # pass capped for the m it computes, so a larger mmax used to reach fewer m
    monkeypatch.setattr(fungroup, "STATE_BUDGET", 5000)
    g = complete_graph(4)
    runs = [kappa_estimate(g, 0, 0, 3, mmax, method="exact") for mmax in range(1, 7)]
    reached = [len(est.p_even) for est in runs]
    assert reached == [1, 2, 2, 2, 2, 2]
    assert all(est.p_even == runs[1].p_even[:len(est.p_even)] for est in runs)
    assert [est.truncated for est in runs] == [False, False, True, True, True, True]


def test_state_budget_error_names_the_budget_and_the_sampler(monkeypatch):
    monkeypatch.setattr(fungroup, "STATE_BUDGET", 30)
    with pytest.raises(ValueError) as err:
        kappa_estimate(complete_graph(4), 0, 0, 3, 3)
    msg = str(err.value)
    assert "STATE_BUDGET = 30" in msg
    assert 'method="mc"' in msg and "--method mc" in msg


def test_no_walks_between_adjacent_petersen_vertices():
    # girth 5: adjacent vertices share no 2-walk
    with pytest.raises(ValueError):
        kappa_estimate(petersen(), 0, 1, 2, 2)
    with pytest.raises(ValueError):
        kappa_estimate(disjoint_union(complete_graph(4), complete_graph(4)), 0, 4, 3, 2)


def test_walk_budget_raises(monkeypatch):
    monkeypatch.setattr(core, "WALK_BUDGET", 5)
    with pytest.raises(ValueError):
        kappa_estimate(complete_graph(4), 0, 0, 3, 1)


def test_base_path_validation():
    g = complete_graph(4)
    e01 = next(e for e in range(g.ne) if g.src[e] == 0 and g.dst[e] == 1)
    with pytest.raises(ValueError):
        kappa_estimate(g, 1, 1, 3, 2, u_path=(e01,))
    with pytest.raises(ValueError):
        kappa_estimate(g, 2, 2, 3, 2, u_path=(e01,), v_path=(int(g.inv[e01]),))


def test_monotone_check_flags_bad_sequences():
    bad = KappaEstimate(0, 0, 1, [Fraction(1, 4), Fraction(1, 64)], [0.5, 0.35], "word-dp")
    with pytest.raises(BoundViolation):
        bad.check_monotone()
    out_of_range = KappaEstimate(0, 0, 1, [Fraction(1, 4), Fraction(3, 2)], [0.5, 1.1], "word-dp")
    with pytest.raises(BoundViolation):
        out_of_range.check_monotone()
    noisy = KappaEstimate(0, 0, 1, [0.25, 0.015625], [0.5, 0.35], "monte-carlo")
    noisy.check_monotone()


# -- time-k marginal ----------------------------------------------------------


def test_marginal_at_time_zero_is_point_mass():
    pk = p_k_distribution(complete_graph(4), 0, 0, nmax=20)
    assert pk.values == {0: Fraction(1)}
    assert pk.stabilized


def test_petersen_time_one_is_uniform_on_neighbours():
    pk = p_k_distribution(petersen(), 0, 1)
    assert pk.values == {1: Fraction(1, 3), 4: Fraction(1, 3), 5: Fraction(1, 3)}
    # u[n-1][1]/c[n][0] = 1/d for every n, so the TV gap is exactly zero
    assert pk.stabilized
    assert pk.tv_last == 0


def test_k4_time_two_limit_frozen():
    pk = p_k_distribution(complete_graph(4), 0, 2)
    assert pk.values == {
        0: Fraction(3, 8),
        1: Fraction(5, 24),
        2: Fraction(5, 24),
        3: Fraction(5, 24),
    }
    assert sum(pk.values.values()) == 1
    assert sum(pk.at_n.values()) == 1


def test_finite_marginal_matches_enumeration():
    g = complete_graph(4)
    pk = p_k_distribution(g, 0, 2, nmax=6)
    assert pk.n_reached == 6
    cycles = enumerate_nullcycles(g, 0, 6)
    hits = Counter(Walk(0, w).vertices(g)[2] for w in cycles)
    total = len(cycles)
    assert pk.at_n == {x: Fraction(c, total) for x, c in hits.items()}


def test_approach_rate_is_one_over_n():
    g = complete_graph(4)
    near = p_k_distribution(g, 0, 2, nmax=400)
    far = p_k_distribution(g, 0, 2, nmax=100)
    assert not near.stabilized  # 1/n decay never meets the printed threshold here
    assert not far.stabilized
    d_far = _tv(far.values, far.at_n)
    d_near = _tv(near.values, near.at_n)
    assert 0 < d_near < d_far
    ratio = d_far / d_near
    assert 2 < ratio < 8  # ~4 expected from halving 1/n twice
    assert near.tv_last > 0
    assert near.tv_last < Fraction(1, 10 ** 4)


def test_marginal_sums_to_one_exactly():
    for g in (complete_graph(4), petersen(), cycle_graph(6)):
        for k in (1, 2, 3):
            pk = p_k_distribution(g, 0, k, nmax=60)
            assert sum(pk.values.values()) == 1
            assert sum(pk.at_n.values()) == 1


def test_single_vertex_marginal_stabilizes():
    pk = p_k_distribution(rose(2), 0, 2, nmax=40)
    assert pk.values == {0: Fraction(1)}
    assert pk.stabilized
    assert pk.tv_last == 0


def test_limit_weights_reproduce_bridge_ratios():
    # p_k_distribution's radial weight w(j) = (d + j(d-2)) / (d (d-1)^(j/2));
    # w(j+1)/w(j-1) is rational because the exponents differ by exactly 1
    def w_ratio(d, a, b):
        return Fraction(d + a * (d - 2), d + b * (d - 2)) / Fraction(d - 1) ** ((a - b) // 2)

    for d in (3, 4, 5):
        for j in (1, 2, 3):
            lhs = w_ratio(d, j + 1, j - 1)
            assert lhs == infinite_bridge_ratio(d, j)
            want = radial_weight(d, j + 1) / radial_weight(d, j - 1)
            assert float(lhs) == pytest.approx(want, rel=1e-12)


def test_limit_weight_matches_table_tail():
    # u[n][j]/u[n][0] -> (1 + j(d-2)/d)(d-1)^(-j/2)
    t = tables_for(3, 402)  # u[400][2] is in a length-402 bridge
    want = Fraction(5, 3) / 2
    got = Fraction(t.u[400][2], t.u[400][0])
    assert abs(float(got) - float(want)) < 0.01


# -- kappa star ---------------------------------------------------------------


def test_rose_kappa_star_equals_single_vertex_estimate():
    ks = kappa_star(rose(2), 0, 1, rho(rose(2)), mmax=200)
    assert ks.value == pytest.approx(0.8568995747828192, abs=1e-12)
    assert math.sqrt(3) / 2 - ks.value < 1e-2
    assert all(a <= b + 1e-12 for a, b in zip(ks.value_sequence, ks.value_sequence[1:]))


def test_kappa_star_diagnostic_is_informational():
    ks = kappa_star(rose(2), 0, 1, rho(rose(2)), mmax=200)
    rep = ks.diagnostic
    assert rep.verdict == "not applicable"
    assert any(not h.ok for h in rep.hypotheses)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)  # rho(rose) = 1
    assert 0 < rep.rhs < 0.02  # shrinks toward 0 as mmax grows


def test_k4_kappa_star_sequence():
    ks = kappa_star(complete_graph(4), 0, 2, rho(complete_graph(4)), mmax=4)
    assert ks.value_sequence == pytest.approx([0.8579, 0.9037, 0.9254, 0.9384], abs=2e-3)
    assert ks.value == ks.value_sequence[-1]
    assert all(a <= b + 1e-12 for a, b in zip(ks.value_sequence, ks.value_sequence[1:]))


# -- walk-set norm chain and the degenerate tree case -------------------------


def test_tree_equality_chain():
    # trivial fundamental group: every closed k-walk is a nullcycle and the
    # norm is 1, so |N_k| = |W_k(o,o)| exactly
    tb = tree_ball(3, 3)
    walks = _closed_walks(tb.graph, tb.root, 2)
    assert len(walks) == 3
    assert all(_erase_to_fixed_point(tb.graph, w) == () for w in walks)
    est = kappa_estimate(tb.graph, tb.root, tb.root, 2, 3)
    assert est.kappa[-1] == 1.0
    assert len(walks) * est.kappa[-1] == tables_for(3, 2).u[2][0]


def test_norm_chain_at_the_root():
    rep = lemma_basic_check(complete_graph(4), 0, 0, (), 2)
    assert rep.verdict in OK
    assert rep.constants["|W_k|"] == 3
    assert rep.constants["nullhomotopic closures"] == 3
    assert rep.constants["kappa_hat"] == 1.0
    assert rep.constants["left inequality holds at kappa_hat"]


def test_norm_chain_with_return_path():
    g = complete_graph(4)
    e10 = next(e for e in range(g.ne) if g.src[e] == 1 and g.dst[e] == 0)
    rep = lemma_basic_check(g, 0, 1, (e10,), 2)
    assert rep.verdict in OK
    assert rep.constants["|W_k|"] == 2
    # both closures are triangles, never nullhomotopic
    assert rep.constants["nullhomotopic closures"] == 0
    assert rep.constants["left inequality holds at kappa_hat"]
    assert rep.lhs == pytest.approx((3 * rho_tree(3)) ** 3)  # (2 sqrt 2)^3


def test_norm_chain_odd_length_no_closures():
    rep = lemma_basic_check(rose(2), 0, 0, (), 1)
    assert rep.verdict in OK
    assert rep.constants["|W_k|"] == 4
    assert rep.constants["nullhomotopic closures"] == 0
    assert rep.constants["left inequality holds at kappa_hat"]


def test_norm_chain_validates_return_path():
    g = complete_graph(4)
    e01 = next(e for e in range(g.ne) if g.src[e] == 0 and g.dst[e] == 1)
    with pytest.raises(ValueError):
        lemma_basic_check(g, 0, 1, (), 2)  # x != o needs a real path
    with pytest.raises(ValueError):
        lemma_basic_check(g, 0, 1, (e01,), 2)  # runs 0 -> 1, not 1 -> 0


def test_norm_chain_without_walks_names_the_pair():
    # girth 5: adjacent Petersen vertices share no 2-walk
    g = petersen()
    e10 = next(e for e in range(g.ne) if g.src[e] == 1 and g.dst[e] == 0)
    with pytest.raises(ValueError, match="no walks of length 2 from 0 to 1"):
        lemma_basic_check(g, 0, 1, (e10,), 2)


def test_norm_chain_counts_match_the_enumerated_walk_set(monkeypatch):
    # |W_k| comes from the walk kernel and the closures from the tree table;
    # brute force erases every w w_path for w in W_k(o, x). Neither count
    # reads the norm estimate, so one pair step of it is enough here
    estimate = fungroup.kappa_estimate
    monkeypatch.setattr(fungroup, "kappa_estimate",
                        lambda g, x, y, k, mmax: estimate(g, x, y, k, 1))
    for g in (complete_graph(4), petersen(), rose(2), half_loop_rose(3)):
        for q in [()] + [(e,) for e in g.out_edges(0)] + [
            (e, f) for e in g.out_edges(0) for f in g.out_edges(g.dst[e])
        ]:
            x = Walk(0, q).vertices(g)[-1]
            w_path = tuple(g.inv[e] for e in reversed(q))
            for k in (2, 3):
                walks = [w for w, end in _walks_from(g, 0, k) if end == x]
                if not walks:
                    continue
                rep = lemma_basic_check(g, 0, x, w_path, k)
                assert rep.constants["|W_k|"] == len(walks)
                assert rep.constants["nullhomotopic closures"] == sum(
                    _erase_to_fixed_point(g, w + w_path) == () for w in walks
                ), (g.name, q, k)


def test_trivial_group_walk_bound_is_exact():
    for d in (3, 4):
        rep = szep_tree_degenerate(d, nkmax=64)
        assert rep.verdict in OK
    sz = szep_tree_degenerate(3)
    assert sz.constants["tightest nk"] == 2
    assert sz.constants["count ratio"] == pytest.approx(8 / 3)
    # nk = 2 by hand: 2^2 (d-1) = 8 against |N_2| = 3
    assert 2 ** 2 * 2 == 8 and tables_for(3, 2).u[2][0] == 3


@pytest.mark.parametrize("nkmax", [1, 0, -4])
def test_trivial_group_walk_bound_needs_an_even_length(nkmax):
    # below 2 there is no even nk to compare; the search used to end in a
    # TypeError unpacking its empty result
    with pytest.raises(ValueError, match="nkmax must be >= 2"):
        szep_tree_degenerate(3, nkmax)

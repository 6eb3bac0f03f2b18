"""Explicit-constant checks and inequality verdicts on the desk fleet."""

import math
from fractions import Fraction

import pytest

from serregraph import bounds
from serregraph import nullcycles as nc
from serregraph.census import cycle_census, gamma_k
from serregraph.core import (Walk, _edge_arrays, _walk_inflows, complete_graph, half_loop_rose,
                             petersen, prism, rose)
from serregraph.exact import rho_tree
from serregraph.limits import configuration_model
from serregraph.report import report
from serregraph.spectral import diag_power_counts_batch, markov_spectrum, walk_counts

OK = ("pass", "pass within tolerance")


def _rho(g):
    return markov_spectrum(g).rho


def _gamma(g, k):
    return cycle_census(g, k).density


def _diag(g, nk):
    return diag_power_counts_batch(g, (nk // 2,))[nk // 2]


# -- constants ----------------------------------------------------------------


def test_report_dict_renders_fraction_constants_exactly():
    rep = report("r", 1.0, 0.5, constants={"third": Fraction(1, 3), "four": Fraction(4), "x": 0.25})
    assert rep.to_dict()["constants"] == {"third": "1/3", "four": "4", "x": 0.25}


def test_constants_match_hand_substitution():
    for d in (3, 4, 5):
        for k in (1, 2, 3):
            assert bounds.nu_k(d, k) == 2 * 10 ** 11 * 2 ** (4 * k) * (d - 1) ** (3 * k) * k
            assert bounds.ell(d, k) == 6 * 10 ** 8 * (4 * d - 4) ** k
            if k == 1:
                assert bounds.c_k(d, 1) == Fraction(1, 16)
            else:
                assert bounds.c_k(d, k) == Fraction(1, 2 * (d - 1) ** k)


def test_constants_frozen_values():
    assert bounds.nu_k(3, 1) == 25_600_000_000_000
    assert bounds.c_k(3, 2) == Fraction(1, 8)
    assert bounds.ell(3, 1) == 4_800_000_000


def test_constants_chain_consistently():
    # c_k / (30 (4d-4)^k ell k) >= 1/nu_k, exact
    for d in (3, 4, 5, 6):
        for k in (1, 2, 3, 4):
            lhs = bounds.c_k(d, k) / (30 * (4 * d - 4) ** k * bounds.ell(d, k) * k)
            assert lhs >= Fraction(1, bounds.nu_k(d, k)), (d, k)


def test_constants_domain_errors():
    with pytest.raises(ValueError):
        bounds.nu_k(2, 1)
    with pytest.raises(ValueError):
        bounds.c_k(3, 0)


# -- finite-size spectral radius lower bound -----------------------------------


def test_main_finite_small_graphs_not_applicable():
    for g in (complete_graph(4), petersen()):
        rep = bounds.thm_main_finite(g, 1, _rho(g), _gamma(g, 1))
        assert rep.verdict == "not applicable"
        assert not rep.applicable


def test_main_finite_passes_on_random_fleet():
    for seed in range(4):
        g = configuration_model(3, 64, seed=seed)
        r = _rho(g)
        for k in (1, 2, 3):
            rep = bounds.thm_main_finite(g, k, r, _gamma(g, k))
            assert rep.applicable
            assert rep.verdict in OK, (seed, k, rep.to_dict())


def test_main_finite_base_toggle_orders_the_two_forms():
    # the printed form subtracts the larger error term, so its right side
    # sits below the derivation-basis variant; both must pass
    g = configuration_model(3, 64, seed=1)
    r, gam = _rho(g), _gamma(g, 1)
    rep_d = bounds.thm_main_finite(g, 1, r, gam, base="d")
    rep_dm1 = bounds.thm_main_finite(g, 1, r, gam, base="d-1")
    assert rep_d.rhs < rep_dm1.rhs
    assert rep_d.verdict in OK and rep_dm1.verdict in OK
    with pytest.raises(ValueError):
        bounds.thm_main_finite(g, 1, r, gam, base="e")


def test_main_ramanujan_gate_and_pass():
    g0 = configuration_model(3, 64, seed=0)  # rho ~ 0.9227 < rho(T_3)
    rep = bounds.thm_main_ramanujan(g0, 1, _rho(g0), _gamma(g0, 1))
    assert rep.applicable
    assert rep.verdict in OK
    g1 = configuration_model(3, 64, seed=1)  # rho ~ 0.9492 > rho(T_3)
    rep1 = bounds.thm_main_ramanujan(g1, 1, _rho(g1), _gamma(g1, 1))
    assert rep1.verdict == "not applicable"


# -- expected log return probability ---------------------------------------------


def test_returns_parity_error():
    g = configuration_model(3, 64, seed=0)
    with pytest.raises(ValueError):
        bounds.thm_main_returns(g, 5, 1, None, None)
    with pytest.raises(ValueError):
        bounds.thm_main_returns(g, 3, 3, None, None)


def test_returns_hypothesis_gating():
    g = configuration_model(3, 36, seed=0)
    rep = bounds.thm_main_returns(g, 4, 3, _gamma(g, 3), _diag(g, 12))  # (nk)^2 = 144 > 36
    assert rep.verdict == "not applicable"
    g64 = configuration_model(3, 64, seed=0)
    rep2 = bounds.thm_main_returns(g64, 2, 2, _gamma(g64, 2), _diag(g64, 4))  # n < 4
    assert rep2.verdict == "not applicable"


def test_returns_passes_on_random_fleet():
    for d in (3, 4):
        g = configuration_model(d, 256, seed=0)
        for k in (1, 2, 3):
            rep = bounds.thm_main_returns(g, 4, k, _gamma(g, k), _diag(g, 4 * k))
            assert rep.applicable
            assert rep.verdict in OK, (d, k, rep.to_dict())


def test_mean_log_return_routes_agree():
    g = petersen()
    nk = 8
    batch = _diag(g, nk)
    diag = [walk_counts(g, o, nk)[nk][o] for o in range(g.nv)]
    assert [int(c) for c in batch] == diag
    via_batch = bounds.mean_log_return(g, nk, batch)
    via_bigint = bounds.mean_log_return(g, nk, diag_counts=diag)
    assert math.isclose(via_batch, via_bigint, rel_tol=0, abs_tol=1e-12)


def test_closed_walk_counts_read_only_the_last_row():
    # the chi left side squares the last row of one non-backtracking pass:
    # uint64 rows and Python-int rows (2^r past 2^64 from r = 64) alike
    graphs = (petersen(), configuration_model(3, 64, seed=3), configuration_model(4, 36, seed=1))
    for g in graphs:
        for o in (0, g.nv // 2, g.nv - 1):
            for nk in (2, 8, 40, 42, 60, 140):
                got, _ = nc.chi_moments(g, o, nk, [1])[1]
                assert type(got) is int and got == walk_counts(g, o, nk)[nk][o]


def test_closed_walk_counts_match_the_full_walk_kernel_at_walks_size():
    # the benchmark's walks command: n = 200 and k = 2, 3 on cfg(3, 256)
    g = configuration_model(3, 256, seed=7)
    moments = nc.chi_moments(g, 0, 200, [2, 3])
    rows = list(_walk_inflows(g.nv, _edge_arrays(g), 0, 300, reduced=False))
    for k in (2, 3):
        assert moments[k][0] == sum(c * c for c in rows[100 * k].tolist())


def test_mean_log_return_past_float64_and_chi_lower_use_exact_counts():
    g = configuration_model(3, 64, seed=0)
    nk = 40  # 3^40 >= 2^63: the diagonal route sums its squares in Python ints
    diag = [walk_counts(g, o, nk)[nk][o] for o in range(g.nv)]
    assert bounds.mean_log_return(g, nk, _diag(g, nk)) == bounds.mean_log_return(g, nk, diag)
    rep = bounds.thm_43_lower(g, 3, 2, nc.chi_moments(g, 5, 3, [2])[2])
    assert rep.lhs == float(walk_counts(g, 5, 6)[6][5])


def test_returns_rejects_n_below_one():
    g = configuration_model(3, 64, seed=0)
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bounds.thm_main_returns(g, n, 2, Fraction(0), None)


def test_mean_log_return_rejects_odd():
    with pytest.raises(ValueError):
        bounds.mean_log_return(petersen(), 7, None)


# -- the exponential chi display -------------------------------------------------


def _chi_lower(g, root, n, k):
    return bounds.thm_43_lower(g, n, k, nc.chi_moments(g, root, n, [k])[k])


def test_chi_exp_lower_enumerated_desk_cases():
    rep = _chi_lower(complete_graph(4), 0, 2, 2)
    assert rep.verdict == "pass"
    assert rep.lhs == 21.0  # closed 4-walks at a K4 vertex
    rep2 = _chi_lower(petersen(), 0, 6, 1)
    assert rep2.verdict == "pass"
    assert rep2.notes == ""


def test_chi_exp_lower_first_moment_matches_enumerated_exponentials():
    # the old exact route: exp(c_k chi/ell) summed over every nullcycle
    for g, n, k in ((configuration_model(3, 64, seed=0), 3, 2), (complete_graph(4), 2, 3),
                    (half_loop_rose(3), 6, 1), (rose(2), 2, 3)):
        d, lv = g.degree(0), bounds.ell(g.degree(0), k)
        root = next(v for v in range(g.nv) if gamma_k(g, v, k) > 0)
        ck = float(bounds.c_k(d, k))
        want = sum(math.exp(ck * nc.chi_statistic(g, Walk(root, w), k, lv) / lv)
                   for w in nc.enumerate_nullcycles(g, root, n * k)) / 14.0
        rep = _chi_lower(g, root, n, k)
        assert rep.notes == "" and rep.verdict == "pass"
        assert rep.tolerance < 1e-8 * rep.rhs
        assert abs(rep.rhs - want) <= rep.tolerance, (g.name, rep.rhs, want)


def test_chi_exp_lower_tolerance_carries_the_second_order_rest():
    # t n = 200 c_k/ell; the rest |N_nk| (tn)^2 e^(tn)/28 sits under 1e-9 |rhs|
    g = configuration_model(3, 64, seed=0)
    rep = _chi_lower(g, 0, 200, 2)
    tn = float(bounds.c_k(3, 2) / bounds.ell(3, 2)) * 200
    rest = float(rep.constants["|N_nk|"]) * tn * tn * math.exp(tn) / 28
    assert rep.tolerance == rest + 1e-9 * (1.0 + rep.rhs)
    assert 0 < rest < 1e-18 * rep.rhs


def test_chi_exp_lower_rejects_walks_past_ell():
    # nk + 1 visits past ell would let chi's visit cap bind
    g = complete_graph(4)
    lv = bounds.ell(3, 1)
    with pytest.raises(ValueError, match=f"nk \\+ 1 = {lv + 1} visits exceed ell = {lv}"):
        bounds.thm_43_lower(g, lv, 1, (0, 0))


def test_chi_exp_lower_parity_error():
    with pytest.raises(ValueError):
        bounds.thm_43_lower(complete_graph(4), 3, 1, None)


# -- density to visits ------------------------------------------------------------


def test_visits_lower_at_loop_vertex():
    g = configuration_model(3, 64, seed=3)  # full loop at vertex 22, rho ~ 0.939
    rep = bounds.lemma_visits_lower(g, 22, 6, 1, _rho(g), gamma_k(g, 22, 1))
    assert rep.applicable
    assert rep.verdict == "pass"
    assert rep.lhs > float(rep.rhs) > 0


def test_visits_lower_zero_density_root():
    g = configuration_model(3, 64, seed=3)
    rep = bounds.lemma_visits_lower(g, 0, 6, 1, _rho(g), gamma_k(g, 0, 1))
    assert rep.applicable
    assert rep.rhs == 0.0
    assert rep.verdict in OK


def test_visits_lower_window_gating():
    g = configuration_model(3, 64, seed=3)
    rep = bounds.lemma_visits_lower(g, 0, 10, 1, _rho(g), gamma_k(g, 0, 1))  # n > sqrt(64)
    assert rep.verdict == "not applicable"
    p = petersen()
    rep2 = bounds.lemma_visits_lower(p, 0, 4, 1, _rho(p), gamma_k(p, 0, 1))  # sqrt(10) < 2k+2
    assert rep2.verdict == "not applicable"


def test_visits_lower_k2_case():
    g = configuration_model(3, 64, seed=0)
    roots = [v for v in range(g.nv) if gamma_k(g, v, 2) > 0]
    assert roots
    rep = bounds.lemma_visits_lower(g, roots[0], 6, 2, _rho(g), gamma_k(g, roots[0], 2))
    assert rep.applicable
    assert rep.verdict in OK, rep.to_dict()


def test_visits_lower_parity_error():
    g = configuration_model(3, 64, seed=0)
    with pytest.raises(ValueError):
        bounds.lemma_visits_lower(g, 0, 5, 1, 0.5, gamma_k(g, 0, 1))


# -- distance to short cycles ------------------------------------------------------


def test_distance_bound_frozen_examples():
    assert math.isclose(
        bounds.distance_bound(3, 0, 3), 2 * math.sqrt(2) / 3 + 1 / 48, abs_tol=1e-12
    )
    assert bounds.distance_gap(4, 1, 4) == Fraction(2, 4 * 3 ** 8)
    assert math.isclose(
        bounds.distance_bound(4, 1, 4), rho_tree(4) + 2 / (4 * 3 ** 8), abs_tol=1e-12
    )


def test_distance_bound_monotone_in_degree():
    for R in (0, 1):
        for k in (1, 3, 4):
            vals = [bounds.distance_bound(d, R, k) for d in range(3, 9)]
            assert all(a > b for a, b in zip(vals, vals[1:])), (R, k, vals)


def test_distance_bound_domain_errors():
    with pytest.raises(ValueError):
        bounds.distance_gap(3, -1, 1)


# -- essential girth thresholds ------------------------------------------------------


def test_ess_girth_bound_example():
    beta = 1 / (30 * math.log(2))
    res = bounds.ess_girth_bound(10 ** 6, 3, 1.0, beta, 0.01)
    assert math.isclose(res.beta_plus_eps_max, 1 / (14 * math.log(2)), rel_tol=1e-12)
    assert math.isclose(res.radius, beta * math.log(math.log(10 ** 6)), rel_tol=1e-12)
    assert math.isclose(res.radius / beta, 2.6259, abs_tol=5e-4)
    assert math.isclose(res.envelope, math.log(10 ** 6) ** -0.01, rel_tol=1e-12)


def test_ess_girth_bound_alpha_capped_at_one():
    r1 = bounds.ess_girth_bound(10 ** 6, 3, 1.0, 0.05, 0.01)
    r2 = bounds.ess_girth_bound(10 ** 6, 3, 7.0, 0.05, 0.01)
    assert r1.beta_plus_eps_max == r2.beta_plus_eps_max


def test_ess_girth_bound_constraint_error():
    cap = 1 / (14 * math.log(2))
    with pytest.raises(ValueError):
        bounds.ess_girth_bound(10 ** 6, 3, 1.0, cap, 0.01)
    with pytest.raises(ValueError):
        bounds.ess_girth_bound(10 ** 6, 3, 1.0, -0.1, 0.01)


# -- desk fleet sweep: applicable implies pass ---------------------------------------


def test_every_applicable_report_passes_on_desk_fleet():
    fleet = [
        complete_graph(4),
        petersen(),
        prism(3),
        configuration_model(3, 64, seed=0),
        configuration_model(3, 64, seed=2),
        configuration_model(4, 64, seed=0),
    ]
    failures = []
    for g in fleet:
        r = _rho(g)
        for k in (1, 2):
            gam = _gamma(g, k)
            for rep in (
                bounds.thm_main_finite(g, k, r, gam),
                bounds.thm_main_ramanujan(g, k, r, gam),
                bounds.thm_main_returns(g, 4, k, gam, _diag(g, 4 * k)),
            ):
                if rep.applicable and rep.verdict not in OK:
                    failures.append((g.name, rep.to_dict()))
    assert not failures, failures

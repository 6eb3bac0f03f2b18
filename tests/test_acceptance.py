"""Acceptance suite: one check per shipped guarantee, one pass/fail line each.

Every check runs standalone and states its tolerance inline. Where a
finite-size quantity only approaches its limit, the check asserts the rate or
uses the estimator that converges, and its failure message carries the
measured values next to the asserted ones.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy import integrate

from serregraph.bounds import thm_main_finite, thm_main_returns
from serregraph.census import cycle_census
from serregraph.core import (
    complete_graph,
    cycle_graph,
    half_loop_rose,
    petersen,
    prism,
    require_regular,
    rose,
    schreier_quotient,
    tree_m_ball,
)
from serregraph.exact import rho_tree
from serregraph.fungroup import kappa_estimate
from serregraph.limits import configuration_model, planted_triangle_graph
from serregraph.nullcycles import (
    enumerate_nullcycles,
    expected_visits,
    parity_partition_probability,
    parity_probability,
)
from serregraph.percolation import percolate, window_growth
from serregraph.spectral import (
    diag_power_counts_batch,
    grigorchuk_rho,
    markov_spectrum,
    nonbacktracking_cogrowth,
    return_probability_dp,
    rho,
    tree_m_ramanujan,
)
from serregraph.treewalk import (
    bridge_visit_expectation,
    check_return_bounds,
    excursion_visits_z,
    finite_bridge_ratio,
    infinite_bridge_ratio,
    return_probability,
    tables_for,
)

from nullcycle_oracles import sampler_distribution


def _fleet():
    """Standing test fleet: small named graphs, random regular at four sizes,
    roses, one Schreier quotient."""
    gens, s = _group_fixtures()[3]
    return [
        ("k4", complete_graph(4)),
        ("petersen", petersen()),
        ("c6", cycle_graph(6)),
        ("prism3", prism(3)),
        ("rose2", rose(2)),
        ("hlrose3", half_loop_rose(3)),
        ("cfg3-64", configuration_model(3, 64, seed=0)),
        ("cfg3-256", configuration_model(3, 256, seed=0)),
        ("cfg3-1024", configuration_model(3, 1024, seed=0)),
        ("cfg3-4096", configuration_model(3, 4096, seed=0)),
        ("schreier-d4", schreier_quotient(gens, s).graph),
    ]


# -- group fixtures for the quotient check ------------------------------------


def _cyclic_gens(n, shifts):
    return [tuple((x + j) % n for x in range(n)) for j in shifts]


def _xor_gens(bits, masks):
    n = 1 << bits
    return [tuple(x ^ m for x in range(n)) for m in masks]


def _dihedral_gens(m):
    """Right-multiplication tables on 2m elements indexed i + m*s."""

    def idx(i, s):
        return i % m + m * s

    def mul_r(step):
        # reflections conjugate the rotation, so the step flips sign there
        return tuple(
            idx((x % m) + (step if x < m else -step), x // m) for x in range(2 * m)
        )

    flip = tuple(idx(x % m, 1 - x // m) for x in range(2 * m))
    return [mul_r(1), mul_r(-1), flip]


def _group_fixtures():
    return [
        (_xor_gens(3, (1, 2, 4)), 0),
        (_cyclic_gens(8, (1, 7, 4)), 2),
        (_cyclic_gens(12, (1, 11, 6)), 2),
        (_dihedral_gens(4), 2),
        (_dihedral_gens(6), 2),
    ]


# -- 1: exact tree return probabilities vs the two-sided envelope --------------


def test_exact_return_probabilities_stay_inside_two_sided_envelope():
    t0 = time.monotonic()
    for d in (3, 4, 5, 6):
        reports = check_return_bounds(d, 200)
        assert len(reports) == 100
        bad = [r.name for r in reports if r.verdict != "pass"]
        assert not bad, f"envelope misses at d={d}: {bad[:4]}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"envelope sweep took {elapsed:.1f}s"
    print(f"PASS: 400 exact two-sided envelope checks, d=3..6 n<=200, {elapsed:.1f}s")


# -- 2: quadrature moments against the exact walk DP ---------------------------

KM_TOL = 1e-10  # largest quadrature error kesten_mckay_moment accepts


def kesten_mckay_moment(d: int, n: int) -> float:
    """n-th moment of the tree spectral density by adaptive quadrature.

    Substituting t = rho*sin(theta) removes the inverse-square-root edge
    singularity; the quadrature then reaches machine accuracy. Raises if the
    error estimate exceeds KM_TOL.
    """
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


def test_quadrature_moments_match_exact_walk_returns():
    worst = 0.0
    for d in range(2, 11):
        assert tables_for(d, 3).u[3][0] == 0
        for n in range(0, 101, 2):
            m = kesten_mckay_moment(d, n)
            r = float(return_probability(d, n))
            worst = max(worst, abs(m - r))
    assert worst <= 1e-10, f"worst moment gap {worst:.3e}"
    print(f"PASS: moment identity to 1e-10 on 2<=d<=10 n<=100, worst {worst:.1e}")


# -- 3: excursion level visits and bridge visit expectations -------------------


def test_excursion_level_visits_and_bridge_visits_capped():
    for k in range(1, 11):
        for n in range(2, 401, 2):
            v = excursion_visits_z(k, n)
            assert v <= 64 * k, f"v_{{{k},{n}}} = {v}"
    for d in (3, 4):
        for k in range(0, 11):
            for n in range(2, 401, 2):
                if k > n:
                    continue
                b = bridge_visit_expectation(d, k, n)
                cap = 301 if k == 0 else 20000 * k
                assert b <= cap, f"bridge visits d={d} k={k} n={n}: {float(b):.2f}"
    print("PASS: exact visit caps 64k (k<=10, n<=400) and 2e4 k / 301, d in {3,4}")


# -- 4: bridge transition ratios against the derived limit ---------------------


def test_line_graph_bridge_limit_is_one_exactly():
    for x in range(1, 6):
        assert infinite_bridge_ratio(2, x) == Fraction(1)
    print("PASS: limit ratio is exactly 1 at d=2 for |x| <= 5")


def test_bridge_ratios_reach_pinned_limits_at_ten_thousand():
    # The limit is h(x+1)/h(x-1) for the rho-harmonic radial function
    # h(x) = (1 + x(d-2)/d)(d-1)^(-x/2) of the tree.
    for d in (2, 3, 4):
        for x in range(1, 6):
            want = Fraction(d + (d - 2) * (x + 1), (d - 1) * (d + (d - 2) * (x - 1)))
            assert infinite_bridge_ratio(d, x) == want, f"d={d} x={x}"
    # The finite ratio approaches it with error err(m) = -c/m + c2/m^2 + ...,
    # c = 2x at d = 2 and 3..10 at d = 3, 4, so no fixed tolerance like 1e-6
    # is met at m ~ 1e4 (|err| is 2e-4 to 1e-3 there). Assert the rate
    # instead: going from n = 5e3 to the horizon n = 1e4 must scale the
    # signed error by m_half/m_full (~1/2). The c2 term moves that factor by
    # about (c2/c)/(2 m_full), so a band of 0.01 admits |c2/c| up to 200;
    # the measured |c2/c| is about 20 at most. A limit that is off by delta
    # makes the factor (err/2 + delta)/(err + delta), which leaves the band
    # once |delta| exceeds ~2 % of |err|, i.e. a few 1e-6.
    # A length-n bridge at distance x has m = n - x - 1 steps left.
    misses = []
    for d in (2, 3, 4):
        for x in range(1, 6):
            m_half, m_full = 5_000 - x - 1, 10_000 - x - 1
            lim = float(infinite_bridge_ratio(d, x))
            e_half = finite_bridge_ratio(d, x, m_half) - lim
            e_full = finite_bridge_ratio(d, x, m_full) - lim
            assert e_half != 0.0, f"d={d} x={x}: finite ratio equals the limit"
            factor = e_full / e_half
            expect = m_half / m_full
            if abs(factor - expect) > 0.01:
                misses.append(
                    f"d={d} x={x}: err {e_half:.3e} at m={m_half} -> "
                    f"{e_full:.3e} at m={m_full} (factor {factor:.4f}, "
                    f"want {expect:.4f})"
                )
    assert not misses, (
        f"{len(misses)}/15 bridge ratios do not approach the derived limit "
        f"h(x+1)/h(x-1) at rate 1/m by n=1e4: " + "; ".join(misses[:6])
    )
    print("PASS: 15 bridge ratios approach h(x+1)/h(x-1) at rate 1/m up to n=1e4")


# -- 5: sampler distribution is exactly uniform --------------------------------


def test_nullcycle_sampler_is_exactly_uniform_across_fleet():
    checked = 0
    for label, g in _fleet():
        for n in (2, 4, 6, 8):
            dist = sampler_distribution(g, 0, n)
            support = enumerate_nullcycles(g, 0, n)
            want = Fraction(1, len(support))
            assert set(dist) == set(support), f"{label} n={n}: support mismatch"
            off = {w: p for w, p in dist.items() if p != want}
            assert not off, f"{label} n={n}: nonuniform weights {list(off.items())[:2]}"
            checked += len(support)
    print(f"PASS: sampler exactly uniform on 11 fleet graphs, {checked} walks, 0 tolerance")


# -- 6: expected visit counts against the two crude upper bounds ---------------


def test_expected_visit_bounds_hold_or_gate_across_fleet():
    general_pass = small_pass = gated = 0
    for label, g in _fleet():
        n = 2
        while (n + 2) * (n + 2) <= g.nv:
            n += 2
        ev = expected_visits(g, 0, {0}, n, rho(g))
        for rep in ev.reports:
            assert rep.verdict != "fail", f"{label} n={n}: {rep.name} failed"
            if rep.verdict == "not applicable":
                gated += 1
            elif rep.name == "visit-bound general":
                general_pass += 1
            else:
                small_pass += 1
    ev = expected_visits(petersen(), 0, {0, 1}, 2, rho(petersen()))
    assert all(r.verdict != "fail" for r in ev.reports)
    assert general_pass >= 6 and small_pass >= 5
    print(
        f"PASS: visit bounds never fail on the fleet "
        f"({general_pass}+{small_pass} applicable passes, {gated} gated)"
    )


# -- 7: parity closed form, enumeration, and the partition cap -----------------


def _enumerated_parity_counts(n, k):
    counts = Counter()
    total = 0
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + k - 1 - prev - 1)
        counts[tuple(x % 2 for x in parts)] += 1
        total += 1
    assert total == math.comb(n + k - 1, k - 1)
    return counts, total


def test_parity_closed_form_matches_enumeration_and_caps():
    for n in range(2, 13, 2):
        for k in range(2, 7):
            counts, total = _enumerated_parity_counts(n, k)
            for pattern in itertools.product((0, 1), repeat=k):
                p = parity_probability(n, k, pattern)
                assert p == Fraction(counts.get(pattern, 0), total), (n, k, pattern)
                if all(x == 0 for x in pattern):
                    assert float(p) <= math.exp(-1.0 / (4.0 / k + 2.0 / n))
                else:
                    assert p <= Fraction(1, 2)
    grid = []
    for n, k, m in [
        (24, 12, 2), (24, 12, 3), (24, 12, 4), (24, 12, 6), (24, 12, 12),
        (30, 12, 2), (30, 12, 3), (30, 12, 4), (30, 12, 6), (30, 12, 12),
        (26, 9, 3), (26, 9, 9), (40, 9, 3), (40, 9, 9),
        (20, 16, 2), (20, 16, 4), (20, 16, 8),
        (36, 16, 2), (36, 16, 4), (36, 16, 8),
    ]:
        step = k // m
        parts = [tuple(range(i, i + step)) for i in range(0, k, step)]
        grid.append((n, parts))
    assert len(grid) == 20
    for n, parts in grid:
        k = sum(len(p) for p in parts)
        assert math.comb(n + k - 1, k - 1) > 10 ** 7, "grid case small enough to enumerate"
        # the closed form summed over the parity patterns with every part-sum
        # even, grouped by their number of odd entries
        odd = Counter(
            sum(x) for x in itertools.product((0, 1), repeat=k)
            if all(sum(x[i] for i in p) % 2 == 0 for p in parts)
        )
        want = sum(c * parity_probability(n, k, (1,) * j + (0,) * (k - j)) for j, c in odd.items())
        res = parity_partition_probability(n, parts)
        assert res.exact == want, (n, parts)
        assert res.probability <= res.bound, (n, parts, res.probability, res.bound)
    print("PASS: parity closed form == enumeration (n<=12, k<=6); 20 exact cases under cap")


# -- 8: the finite-size rho and return inequalities on random regular fleets ---


def _sparse_adj(g):
    return sp.coo_matrix(
        (np.ones(g.ne), (np.asarray(g.src), np.asarray(g.dst))), shape=(g.nv, g.nv)
    ).tocsr()


def _rho_lanczos(g, A):
    d = require_regular(g)
    M = (A / d).tocsr()
    vals, vecs = spl.eigsh(M, k=6, which="LM", v0=np.ones(g.nv))
    resid = np.abs(M @ vecs - vecs * vals).max()
    assert resid <= 1e-10, f"eigensolve residual {resid:.2e}"
    cand = [abs(v) for v in vals if abs(abs(v) - 1.0) > 1e-8]
    return max(cand)


def _even_diag_counts(g, A, ts):
    """diag(A^(2t)) for t in ts: squared column norms of A^t, exact in
    float64 while d^(2 max t) < 2^53."""
    out = {t: np.zeros(g.nv) for t in ts}
    Af = A.astype(np.float64)
    block = 1024
    for lo in range(0, g.nv, block):
        hi = min(lo + block, g.nv)
        Y = np.zeros((g.nv, hi - lo))
        Y[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        for t in range(1, max(ts) + 1):
            Y = Af @ Y
            if t in out:
                out[t][lo:hi] = (Y * Y).sum(axis=0)
    return {t: np.rint(v).astype(np.int64) for t, v in out.items()}


def _nontrivial_cycle_totals(g, A):
    """Summed nontrivial closed k-walk counts for k=1..3 via trace
    identities: odd length never cancels to the empty word, and the only
    trivial 2-walks are e then inv(e) with the two halves distinct (a
    half-loop repeated does not cancel). Cross-checked against cycle_census
    below."""
    src = np.asarray(g.src)
    inv = np.asarray(g.inv)
    half_loops = int((inv == np.arange(g.ne)).sum())
    tr2 = int(np.rint(A.multiply(A).sum()))
    tr3 = int(np.rint((A @ A).multiply(A).sum()))
    return {
        1: int((src == np.asarray(g.dst)).sum()),
        2: tr2 - (g.ne - half_loops),
        3: tr3,
    }


def test_finite_rho_and_return_inequalities_on_random_regular_fleet():
    t0 = time.monotonic()
    verdicts = Counter()
    for d in (3, 4):
        for size in (256, 1024, 4096):
            for seed in range(10):
                g = configuration_model(d, size, seed=seed)
                A = _sparse_adj(g)
                rho_v = rho(g) if size <= 1024 else _rho_lanczos(g, A)
                diag = _even_diag_counts(g, A, (2, 4, 6))
                totals = _nontrivial_cycle_totals(g, A)
                if size == 256:
                    assert abs(_rho_lanczos(g, A) - rho(g)) <= 1e-9
                    lib = diag_power_counts_batch(g, (2, 4, 6))
                    assert all(np.array_equal(diag[t], lib[t]) for t in (2, 4, 6))
                    for k in (1, 2, 3):
                        assert Fraction(totals[k], g.nv) == cycle_census(g, k).density
                for k in (1, 2, 3):
                    gamma = Fraction(totals[k], g.nv)
                    r1 = thm_main_finite(g, k, rho_value=rho_v, gamma_mean=gamma)
                    r2 = thm_main_returns(g, 4, k, gamma_mean=gamma, diag_counts=diag[2 * k])
                    for rep in (r1, r2):
                        verdicts[rep.verdict] += 1
                        assert rep.verdict != "fail", (
                            f"d={d} n={size} seed={seed} k={k}: {rep.name} failed "
                            f"(lhs={rep.lhs:.6f} rhs={rep.rhs:.6f})"
                        )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"fleet sweep took {elapsed:.0f}s"
    assert verdicts["fail"] == 0 and sum(verdicts.values()) == 360
    print(
        f"PASS: 360 inequality reports on 60 random regular graphs, "
        f"verdicts {dict(verdicts)}, {elapsed:.0f}s"
    )


# -- 9: cogrowth values and the tree completion threshold ----------------------


def test_cogrowth_rose_values_tree_threshold_boundary():
    for r in (2, 3, 4, 5):
        alpha = nonbacktracking_cogrowth(rose(r)).alpha
        assert abs(alpha - (2 * r - 1)) <= 1e-8
        assert grigorchuk_rho(2 * r, float(2 * r - 1)) == pytest.approx(1.0, abs=1e-12)
    rep = tree_m_ramanujan(complete_graph(4), 5)
    assert rep.alpha == 2.0
    assert rep.threshold == 5.0
    assert rep.margin == 0.0
    assert rep.ramanujan is True
    print("PASS: rose cogrowth 2r-1 to 1e-8, rose rho 1, K4 threshold 5 hit exactly")


def test_literal_root_return_estimate_matches_grigorchuk():
    # These bases are 3-regular with nv <= 64, so the radius-41 ball is the
    # whole graph, the cogrowth is alpha = 2 and grigorchuk_rho(3, 2) = 1,
    # the norm of A/3. None is bipartite, so p_n -> 1/|G| and the literal
    # root p_80**(1/80) ~ |G|**(-1/80) (0.95 to 0.97) keeps that bias at any
    # tolerance near 0.02, while sqrt(p_80/p_78) converges geometrically
    # (within 1.7e-3 here). 5e-3 rejects a wrong cogrowth such as
    # alpha = 1.9, whose rho is 0.984.
    rows = []
    for i, nv in enumerate((8, 12, 16, 20, 24, 32, 40, 48, 56, 64)):
        g = configuration_model(3, nv, seed=i)
        ball = tree_m_ball(g, 3, 0, 41)
        rp = return_probability_dp(ball.graph, ball.root, 80)
        direct = float(rp[80]) ** (1.0 / 80.0)
        ratio_est = math.sqrt(float(rp[80] / rp[78]))
        grig = grigorchuk_rho(3, nonbacktracking_cogrowth(g).alpha)
        rows.append((nv, abs(grig - ratio_est), grig, direct, ratio_est))
    misses = [r for r in rows if r[1] > 5e-3]
    detail = "; ".join(
        f"nv={nv}: |{grig:.6f} - {ratio:.6f}| = {gap:.2e} "
        f"(literal p_80**(1/80) = {direct:.4f}, bias ~ nv**(-1/80))"
        for nv, gap, grig, direct, ratio in misses[:5]
    )
    assert not misses, (
        f"{len(misses)}/10 bases outside 5e-3 at n=80: the ratio estimator "
        f"sqrt(p_80/p_78) disagrees with the cogrowth value. {detail}"
    )
    print("PASS: ratio return-probability estimate within 5e-3 of the cogrowth value")


# -- 10: Schreier quotients -----------------------------------------------------


def test_schreier_quotients_cover_loop_and_spectral_containment():
    for gens, s in _group_fixtures():
        res = schreier_quotient(gens, s)
        assert res.cover_verified, "edge map failed the covering conditions"
        assert res.trivial_coset_loops >= 1
        assert 2 <= res.graph.nv < res.cayley.nv
        assert rho(res.graph) <= rho(res.cayley) + 1e-8
    print("PASS: 5 quotients cover, keep the trivial-coset loop, rho(H) <= rho(G) + 1e-8")


# -- 11: kappa estimates --------------------------------------------------------


def test_kappa_monotone_and_rose_limit():
    k4 = complete_graph(4)
    for est in (
        kappa_estimate(k4, 0, 0, 2, 4, method="exact"),
        kappa_estimate(k4, 0, 0, 3, 3, method="exact"),
        kappa_estimate(rose(2), 0, 0, 1, 200),
        kappa_estimate(half_loop_rose(3), 0, 0, 1, 50),
    ):
        est.check_monotone()
    est = kappa_estimate(rose(2), 0, 0, 1, 200)
    gap = abs(est.kappa[-1] - math.sqrt(3) / 2)
    assert gap < 1e-2, f"rose estimate gap {gap:.4f} at m=200"
    print(f"PASS: monotone exact, rose gap {gap:.4f} < 1e-2 at m=200")


# -- 12: percolation cover growth ------------------------------------------------


def test_percolation_cover_growth_tail_statistics():
    t0 = time.monotonic()
    qualifying = passing = skipped = 0
    for seed in range(20):
        w = percolate(400, 400, 0.9, seed)
        if not (w.cluster_root >= 0 and w.reaches_boundary):
            skipped += 1
            continue
        est = window_growth(w, 40)
        assert est.boundary_clean, f"seed {seed}: window too small for n<=40"
        qualifying += 1
        if est.value >= 2.6:
            passing += 1
    assert qualifying >= 15, f"only {qualifying} usable windows"
    rate = passing / qualifying
    assert rate >= 0.9, f"growth tail >= 2.6 on {passing}/{qualifying} windows"
    for seed in (0, 1):
        values = [
            window_growth(percolate(400, 400, p, seed), 40).value
            for p in (0.8, 0.85, 0.9, 0.95)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), values
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"percolation sweep took {elapsed:.0f}s"
    print(
        f"PASS: growth >= 2.6 on {passing}/{qualifying} boundary-reaching windows "
        f"({skipped} closed-origin seeds excluded), monotone in p, {elapsed:.0f}s"
    )


# -- 13: planted short cycles depress the near-tree spectral mass ----------------


def test_planted_triangle_mass_separation_three_sigma():
    deltas = []
    for size in (256, 512, 1024):
        planted = [
            float(markov_spectrum(planted_triangle_graph(3, size, 0.1, seed)).weakly_ramanujan_mass)
            for seed in range(10)
        ]
        unplanted = [
            float(markov_spectrum(configuration_model(3, size, seed=seed)).weakly_ramanujan_mass)
            for seed in range(10)
        ]
        mp, mu = np.mean(planted), np.mean(unplanted)
        se = math.sqrt(np.var(planted, ddof=1) / 10 + np.var(unplanted, ddof=1) / 10)
        sep = (mu - mp) / se
        assert sep > 3.0, f"size {size}: separation {sep:.2f} sigma"
        delta = 1.0 - max(planted)
        assert delta > 0.0
        deltas.append((size, delta, sep))
    report = ", ".join(f"n={s}: delta={d:.4f} ({sg:.1f} sigma)" for s, d, sg in deltas)
    print(f"PASS: planted mass <= 1 - delta with observed {report}")
